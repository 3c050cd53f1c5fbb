"""Byte-identity of `--format structured` output for fixed CLI commands.

Each case in golden/cases.json names an argv, the exit code and the stderr
text it produced; golden/<name>.out holds its stdout.  To record a new case,
add it to CASES and run `PYTHONPATH=src python tests/test_golden.py`, which
rewrites every golden file from the current code.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from addcomb.cli import main

GOLDEN = Path(__file__).parent / "golden"

_INV3 = pow(3, -1, (1 << 62) - 57)
_AP_4000037 = ",".join(str((5 + j * pow(1_500_001, -1, 4_000_037)) % 4_000_037) for j in range(12))
_AP_SUBSET = "5,12350,24695,49385,61730,2019,14364,26709,51399,63744,76089,16378"

CASES = {
    "sumset-cyclic": "sumset --group cyclic:101 --elements 0,1,5,17,90",
    "sumset-window": "sumset --group window:-20:30 --elements=-20,-3,0,7,30 --elements-b 1,2,5",
    "sumset-torsion": "sumset --group torsion:3:3 --elements 0,0,1;1,2,0;2,2,2 --elements-b 1,1,1;0,1,0",
    # (Z/2)^10 and (Z/3)^7 add their indices in two chunks of digits, (Z/257)^2 digit by digit
    "sumset-torsion-chunked": "sumset --group torsion:2:10 --elements "
    "0,0,0,0,0,0,0,0,0,1;1,0,1,1,0,0,1,0,1,1;1,1,1,1,1,1,1,1,1,1;0,1,1,0,1,0,0,1,1,0 --elements-b "
    "1,1,0,0,0,0,0,0,1,1;0,0,1,0,1,0,1,0,1,0;1,1,1,1,1,1,1,1,1,0",
    "sumset-torsion-large-exponent": "sumset --group torsion:257:2 --elements 0,0;1,256;128,129;256,256 "
    "--elements-b 1,1;255,2;129,128",
    "diam-cyclic": "diam --group cyclic:101 --elements 3,20,37,54,71,99",
    "diam-large-modulus": f"diam --group cyclic:{(1 << 62) - 57} --elements "
    + ",".join(str((_INV3 * x + 11) % ((1 << 62) - 57)) for x in (0, 1, 2, 3)),
    # 12 points of a 16-term progression with step 12345 at a prime above 2^16
    "diam-large-prime": f"diam --group cyclic:84401 --elements {_AP_SUBSET}",
    # a 12-term progression whose N/2 is past the diameter budget; t <= 11 decides it in one block
    "diam-ordered-over-budget": f"diam --group cyclic:4000037 --elements {_AP_4000037}",
    "diam-torsion-rejected": "diam --group torsion:2:3 --elements 0,0,1;1,1,0",
    "spectrum-cyclic": "spectrum --group cyclic:31 --elements 0,1,4,9,16 --top 5",
    "spectrum-torsion": "spectrum --group torsion:2:4 --elements 0,0,0,1;1,1,0,0;0,1,1,0",
    "cover-cyclic": "cover --group cyclic:1009 --elements 0,1,2,3,4,5,6,7,8,9",
    "cover-cyclic-check-m": "cover --group cyclic:101 --elements 0,1,3,7,12 --check-m 2",
    # 19 points, one past the witness budget: the counting bound applies
    "cover-cyclic-fallback": "cover --group cyclic:211 --elements 0,2,3,7,11,19,30,31,50,58,64,77,85,99,112,130,141,160,177",
    "cover-window": "cover --group window:-50:50 --elements=-7,0,1,3,10,22 --elements-b 0,5,9",
    "cover-torsion": "cover --group torsion:3:3 --elements 0,0,0;1,0,0;0,1,2;1,1,2;2,2,0",
    "rectify-cyclic": "rectify --group cyclic:101 --elements 3,20,37,54,71 --order 3",
    "rectify-cyclic-fails": "rectify --group cyclic:13 --elements 0,1,3,9 --order 3",
    "rectify-window-rejected": "rectify --group window:0:50 --elements 0,1,5",
    "torsion-cover-sum": "torsion-cover --group torsion:2:4 --elements 0,0,0,0;1,0,0,0;0,1,0,0;1,1,0,1",
    "torsion-cover-difference": "torsion-cover --group torsion:3:3 --elements 0,0,0;1,0,0;0,1,2;2,2,1",
    # 20 sums against 19 differences: the difference route certifies the smaller size bound, 13 against 15
    "torsion-cover-difference-route": "torsion-cover --group torsion:7:2 --elements 1,2;2,2;2,5;3,2;3,5;5,5;6,2",
    "torsion-cover-chunked": "torsion-cover --group torsion:3:7 --elements "
    "0,0,0,0,0,0,0;1,0,0,0,0,2,1;0,1,2,0,0,1,1;2,2,1,0,0,0,2;1,1,1,0,0,2,0",
    "bounds-pipeline": "bounds --group cyclic:1009 --elements " + ",".join(map(str, range(12))),
    "bounds-large-prime": f"bounds --group cyclic:84401 --elements {_AP_SUBSET}",
    "bounds-threshold": "bounds --doubling 2 --at-threshold --order 3",
    "verify-prime-cyclic": "verify --group cyclic:13 --shape exhaustive:3",
    "verify-composite-cyclic": "verify --group cyclic:15 --shape exhaustive:3 --checks diam,inc,lev,iso",
    # a known defect of the spectral diameter step at composite N; exit 1 until it is mended
    "verify-composite-diam-defect": "verify --group cyclic:69 --shape union:15:1:1;55:1:1;58:1:1 --checks diam",
    "verify-torsion-2": "verify --group torsion:2:3 --shape exhaustive:3",
    "verify-torsion-3": "verify --group torsion:3:2 --shape random:4:20 --seed 3",
    "verify-torsion-chunked": "verify --group torsion:2:9 --shape random:5:6 --seed 4",
    "enumerate-normalize": "enumerate --group cyclic:13 --shape exhaustive:3:normalize",
    # composite modulus: units are a proper subset of the nonzero residues
    "enumerate-normalize-composite": "enumerate --group cyclic:12 --shape exhaustive:4:normalize",
    "enumerate-random-torsion": "enumerate --group torsion:5:2 --shape random:4:5 --seed 7",
    "enumerate-random-window": "enumerate --group window:-5:5 --shape random:3:4 --seed 2",
    "enumerate-coset": "enumerate --group torsion:3:3 --shape coset:1,0,0;0,1,2",
    "enumerate-progression-window": "enumerate --group window:-40:40 --shape=progression:-30:7:9",
}


def run(name):
    argv = CASES[name].split(" ") + ["--format", "structured"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_structured_output_is_unchanged(name):
    expected = json.loads((GOLDEN / "cases.json").read_text())[name]
    code, out, err = run(name)
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    cases = {}
    for name in sorted(CASES):
        code, out, err = run(name)
        cases[name] = {"argv": CASES[name], "exit": code, "stderr": err}
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=2) + "\n")

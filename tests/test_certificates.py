"""One verdict rule for every certificate, read by the suite and the CLI alike.

Each case builds a real certificate whose claims all hold, then plants a
failed claim, an undecided claim (None), or an unmet hypothesis with
dataclasses.replace.  The rule: ok is False if a claim fails, else None if
one is undecided, else True, and a claim whose hypothesis did not hold is
absent.  Where a suite check or a CLI command reads the certificate, the
same plant goes through it: a failed claim is a fail (exit 1), an undecided
one a skip (exit 0), an unmet hypothesis a pass (exit 0).  A claim that a
float comparison decides has no undecided plant.
"""

import dataclasses

import pytest

import addcomb.cli as cli_mod
import addcomb.suite as suite_mod
from addcomb import (
    Certificate,
    CheckTally,
    CyclicGroup,
    GSet,
    SuiteConfig,
    TorsionGroup,
    certified_large_coefficient,
    covering_certificate,
    diam_from_spectrum,
    difference_set,
    gap_cover,
    growth_table,
    j_bound_report,
    lev_interval,
    moment_chain,
    rectify,
    run_suite,
    smallest_prime_in,
    spectrum,
    theorem1_pipeline,
    torsion_cover,
)
from addcomb.cli import main

Z31 = GSet(CyclicGroup(31), [0, 1, 2])
BASIS = GSet(TorsionGroup(2, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
SINGLETON_ARGS = ["--group", "cyclic:197", "--elements", "3"]  # |A-A| = 1 meets the tau gate


def _large_coefficient():
    N = smallest_prime_in(14**4 * 4, 14**4 * 4 + 1000)
    g = CyclicGroup(N)
    return certified_large_coefficient(GSet(g, range(4)), GSet(g, [0, 3]))


def _growth_row():
    cert = covering_certificate(Z31, Z31, Z31)
    return growth_table(difference_set(Z31, Z31), cert.translates, len(cert.translates))[-1]


def _field(name):
    return lambda c, v: dataclasses.replace(c, **{name: v})


def _on_first_report(rep, v):
    # jbound judges J(k, m) for every k <= m on its grid; the plant reaches the (1, 1) report alone
    return dataclasses.replace(rep, holds=v) if (rep.k, rep.m) == (1, 1) else rep


def _concluded(c, v):
    return dataclasses.replace(c, hypothesis_met=True, conclusion_ok=v)


def _unconcluded(c):
    return dataclasses.replace(c, hypothesis_met=False, conclusion_ok=False)


def _verified(out, v):
    return dataclasses.replace(out, witness=dataclasses.replace(out.witness, verified=v))


def _failed_on(check):
    # a report claims that each selected check failed on no instance
    return lambda rep, v: dataclasses.replace(rep, tallies={**rep.tallies, check: CheckTally(0, int(not v), 0)})


def _largecoeff(rep, v):
    return dataclasses.replace(rep, gate_tau=True, largecoeff_holds=v)


def _residual(rep, v):
    return dataclasses.replace(rep, parseval_residual=0.0 if v else 1.0)


# name: (build, claim, plant(cert, value), unmet(cert) or None,
#        (suite attribute, check, instance) or None, (cli attribute, argv) or None)
CASES = {
    "covering": (
        lambda: covering_certificate(Z31, Z31, Z31), "inclusion", _field("inclusion_verified"), None,
        ("covering_certificate", "inc", Z31),
        ("covering_certificate", ["cover", "--group", "cyclic:31", "--elements", "0,1,2"]),
    ),
    "subgroup-coset": (
        lambda: torsion_cover(BASIS), "bound_a", _field("bound_a_holds"), None,
        ("torsion_cover", "torsion", BASIS),
        ("torsion_cover", ["torsion-cover", "--group", "torsion:2:3", "--elements", "0,0,0;1,0,0;0,1,0;0,0,1"]),
    ),
    "spectrum": (
        lambda: spectrum(Z31), "parseval", _residual, None,
        ("spectrum", "parseval", Z31),
        ("spectrum", ["spectrum", "--group", "cyclic:31", "--elements", "0,1,2"]),
    ),
    "moment-chain": (
        lambda: moment_chain(Z31, 2)[-1], "parseval", _field("parseval_holds"), None,
        ("moment_chain", "moment", Z31), None,
    ),
    "growth-j": (
        _growth_row, "j_bound", _field("j_bound_holds"), None,
        ("growth_table", "estjcov", Z31), None,
    ),
    "growth-ratio": (
        _growth_row, "ratio_bound", _field("ratio_bound_holds"),
        lambda r: dataclasses.replace(r, k=r.m + 1, ratio_bound_holds=False),
        ("growth_table", "estecov", Z31), None,
    ),
    "j-bound": (
        lambda: j_bound_report(1, 1), "bound", _on_first_report, None,
        ("j_bound_report", "jbound", Z31), None,
    ),
    "large-coefficient": (
        _large_coefficient, "large_coefficient", _field("holds"), None, None, None,
    ),
    "lev-window": (
        lambda: lev_interval(Z31, 0.25, 0.3), "exceptions", _concluded, _unconcluded,
        ("lev_interval", "lev", Z31), None,
    ),
    "gap-cover": (
        lambda: gap_cover(Z31, 29, 4), "containment", _concluded, _unconcluded,
        ("gap_cover", "cover", Z31), None,
    ),
    "spectral-diameter": (
        lambda: diam_from_spectrum(Z31, 0.3), "diameter", _concluded, _unconcluded,
        ("diam_from_spectrum", "diam", Z31), None,
    ),
    "rectify": (
        lambda: rectify(Z31, 2), "multiset", _verified,
        lambda out: dataclasses.replace(out, witness=None),
        ("rectify", "iso", Z31), None,
    ),
    "pipeline-large-coefficient": (
        lambda: theorem1_pipeline(GSet(CyclicGroup(197), [3])), "large_coefficient", _largecoeff,
        lambda rep: dataclasses.replace(rep, gate_tau=False, largecoeff_holds=False),
        None, ("theorem1_pipeline", ["bounds", *SINGLETON_ARGS]),
    ),
    "pipeline-spectral": (
        lambda: theorem1_pipeline(GSet(CyclicGroup(197), [3])), "diameter",
        lambda rep, v: dataclasses.replace(rep, spectral=_concluded(rep.spectral, v)),
        lambda rep: dataclasses.replace(rep, spectral=_unconcluded(rep.spectral)),
        None, ("theorem1_pipeline", ["bounds", *SINGLETON_ARGS]),
    ),
    "suite-report": (
        lambda: run_suite([Z31], SuiteConfig(checks=("inc",))), "inc", _failed_on("inc"), None,
        None, ("run_suite", ["verify", "--group", "cyclic:31", "--shape", "progression:0:1:3", "--checks", "inc"]),
    ),
}

# claims decided by a comparison that no budget can leave open: True or False, never None
ALWAYS_DECIDED = {"spectrum", "gap-cover", "suite-report"}
PLANTS = ["failed", "undecided", "unmet"]
WANT_OK = {"failed": False, "undecided": None, "unmet": True}
WANT_TALLY = {"failed": (0, 1, 0), "undecided": (0, 0, 1), "unmet": (1, 0, 0)}


def _planting(name, plant):
    """The case's transform for this plant; None for an unmet hypothesis or an undecided state the claim does not have."""
    _, _, set_claim, unmet = CASES[name][:4]
    if plant == "unmet":
        return unmet
    if plant == "undecided" and name in ALWAYS_DECIDED:
        return None
    return lambda cert: set_claim(cert, WANT_OK[plant])


def _each(result, transform):
    return tuple(map(transform, result)) if isinstance(result, tuple) else transform(result)


def _cases(column=None):
    """(name, plant) pairs, for the cases with an entry in the given column of CASES."""
    return [
        pytest.param(name, plant, id=f"{name}-{plant}")
        for name in CASES
        for plant in PLANTS
        if _planting(name, plant) and (column is None or CASES[name][column])
    ]


def test_every_certificate_class_has_a_case():
    covered = {type(CASES[name][0]()) for name in CASES}
    assert covered == set(_subclasses(Certificate))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("name, plant", _cases())
def test_ok_follows_the_claims(name, plant):
    build, claim = CASES[name][:2]
    real = build()
    assert real.ok is True and real.checks[claim] is True
    planted = _planting(name, plant)(real)
    assert planted.ok is WANT_OK[plant]
    if plant == "unmet":
        assert claim not in planted.checks
    else:
        assert planted.checks[claim] is WANT_OK[plant]
    # checks and ok are properties: the serialized fields stay as they were
    assert "ok" not in {f.name for f in dataclasses.fields(planted)}


@pytest.mark.parametrize("name, plant", _cases(column=4))
def test_suite_tally_reads_ok(monkeypatch, name, plant):
    target, check, A = CASES[name][4]
    config = SuiteConfig(checks=(check,))
    base = dataclasses.astuple(run_suite([A], config).tallies[check])
    real = getattr(suite_mod, target)
    transform = _planting(name, plant)
    monkeypatch.setattr(suite_mod, target, lambda *a, **kw: _each(real(*a, **kw), transform))
    report = run_suite([A], config)
    # the planted certificate turns one pass into the planted verdict
    assert base[1:] == (0, 0)
    want = tuple(b + w for b, w in zip((base[0] - 1, 0, 0), WANT_TALLY[plant]))
    assert dataclasses.astuple(report.tallies[check]) == want
    assert report.ok is (plant != "failed")


@pytest.mark.parametrize("name, plant", _cases(column=5))
def test_cli_exits_one_exactly_when_a_claim_fails(capsys, monkeypatch, name, plant):
    target, argv = CASES[name][5]
    real = getattr(cli_mod, target)
    transform = _planting(name, plant)
    assert main(argv) == 0
    monkeypatch.setattr(cli_mod, target, lambda *a, **kw: transform(real(*a, **kw)))
    assert main(argv) == (1 if plant == "failed" else 0)

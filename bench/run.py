"""Run one addcomb benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-cyclic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and the metric names and units are read from ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the machine, and the failure
reasons.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# one thread per pool, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

import workloads as W
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_SETUPS = 5
KNOWN_DEFECT = "known-defect:"

# The reference kernel is timed between chunks of ops of at least CHUNK_S
# seconds, repeated for PROBE_SHARE of the chunk's time.  Every time is
# scaled by PROBE_NOMINAL_S over the mean kernel time around it, so that the
# host's speed drift cancels out.
CHUNK_S = 0.05
PROBE_SHARE = 0.05
PROBE_NOMINAL_S = 0.0018
_PROBE_XS = random.Random(0).sample(range(100_003), 150)

# ratio metric -> (count, over calls of)
_RATIOS = {
    "covering.covering_certificate.witness_fallback_ratio": ("covering.covering_certificate.witness_fallbacks", "covering.covering_certificate.calls"),
    "rectify.diam_from_spectrum.hypothesis_met_ratio": ("rectify.diam_from_spectrum.hypothesis_met", "rectify.diam_from_spectrum.calls"),
    "rectify.rectify.over_budget_ratio": ("rectify.rectify.over_budget", "rectify.rectify.calls"),
}


def probe() -> float:
    """Seconds the fixed reference kernel takes: a 150 x 150 sumset into a Python set.

    Hashing small ints into sets is much of the library's work.  On a
    2-vCPU Xeon VM this kernel tracked the host's slowdowns more closely
    than a plain loop or a numpy sort and FFT did.
    """
    start = time.perf_counter()
    {(x + y) % 100_003 for x in _PROBE_XS for y in _PROBE_XS}
    return time.perf_counter() - start


def calibration(seconds: float) -> float:
    """Mean time of the reference kernel, repeated for at least the given seconds."""
    times = [probe()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times.append(probe())
    return statistics.fmean(times)


def machine() -> dict:
    """The machine and environment every result is measured on."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        info[f"l{level}_cache"] = "unknown"
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in (2, 3):
                info[f"l{level}_cache"] = size
    except (OSError, ValueError):
        pass
    return info


def fresh_import():
    """Import addcomb from src/ anew, so each set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "addcomb" or n.startswith("addcomb.")]:
        del sys.modules[name]
    ac = importlib.import_module("addcomb")
    if not os.path.abspath(ac.__file__).startswith(SRC + os.sep):
        raise ImportError(f"addcomb imported from {ac.__file__}, not from {SRC}")
    return ac


def setup(workload: str, seed: int, tracer: Tracer = None):
    """Import afresh, build the op list from the seed, warm up; returns (ac, ops, seconds)."""
    start = time.perf_counter()
    ac = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        ops = W.build_ops(ac, workload, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op in W.warmup_ops(ac, workload):
        W.run_op(ac, op)
    return ac, ops, time.perf_counter() - start


def judge(ac, op, res, ref):
    """(reason or None, digest) for one result.

    The first execution of an op (ref is None) has its certificate checked
    by workloads.check; every later one must reproduce its digest, and then
    inherits its verdict.
    """
    d = W.digest(op, res)
    if ref is None:
        return W.check(ac, op, res), d
    if d != ref[1]:
        return "exact fields differ from the reference", d
    return ref[0], d


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        # every failure must be the recorded known defect
        return all(reason.startswith(KNOWN_DEFECT) for reason in self.failures)


def time_pass(ac, ops):
    """Run every op once; returns (results, raw seconds, calibrated seconds) per op.

    An op that raises has its exception as result.
    """
    results, raw, cal = [], [], []
    chunk = 0.0
    first = 0
    before = calibration(CHUNK_S)
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            res = W.run_op(ac, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = exc
        dt = time.perf_counter() - start
        results.append(res)
        raw.append(dt)
        chunk += dt
        if chunk >= CHUNK_S or i == len(ops) - 1:
            after = calibration(PROBE_SHARE * chunk)
            scale = 2 * PROBE_NOMINAL_S / (before + after)
            cal.extend(t * scale for t in raw[first:])
            before, chunk, first = after, 0.0, i + 1
    return results, raw, cal


def judge_pass(ac, ops, results, refs, tally: Tally) -> None:
    """Count every op of a pass; refs[i] holds op i's first (verdict, digest)."""
    for i, (op, res) in enumerate(zip(ops, results)):
        tally.attempted += 1
        if isinstance(res, Exception):
            why = f"raised {type(res).__name__}: {res}"
        else:
            try:
                why, d = judge(ac, op, res, refs[i])
                if refs[i] is None:
                    refs[i] = (why, d)
            except Exception as exc:  # a malformed result is a failed op too
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            tally.failures[why] += 1


def measure(workload: str, seed: int):
    """Untraced run: end-to-end metrics over a fixed number of passes of the op list.

    Each pass has its own set-up, and a run sets up at least MIN_SETUPS
    times; setup_s is the median.  ops_per_s comes from the median pass,
    and each op's latency is its median over the passes.  Every time is
    calibrated by the reference kernel (see time_pass).
    """
    tally = Tally()
    n, passes = W.PASS_LENGTH[workload], W.PASSES[workload]
    refs = [None] * n
    setups, setups_raw, raw_passes, cal_passes = [], [], [], []
    start = time.perf_counter()
    for p in range(max(passes, MIN_SETUPS)):
        gc.collect()  # garbage of the previous pass must not decide peak_rss_mb
        before = calibration(PROBE_SHARE * CHUNK_S)
        ac, ops, dt = setup(workload, seed)
        after = calibration(PROBE_SHARE * CHUNK_S)
        setups_raw.append(dt)
        setups.append(dt * 2 * PROBE_NOMINAL_S / (before + after))
        if p < passes:
            results, raw, cal = time_pass(ac, ops)
            judge_pass(ac, ops, results, refs, tally)
            raw_passes.append(raw)
            cal_passes.append(cal)
            del results
    per_op = [statistics.median(c[i] for c in cal_passes) for i in range(n)]
    metrics = {
        "ops_per_s": n / statistics.median(sum(c) for c in cal_passes),
        "latency_p50_ms": 1000 * statistics.median(per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_per_op = [statistics.median(r[i] for r in raw_passes) for i in range(n)]
    extra = {
        "latency_samples": n,
        "passes": passes,
        "error_rate": tally.failed / tally.attempted,
        "wall_s": time.perf_counter() - start,
        "setup_runs_s": setups,
        "raw": {
            "ops_per_s": n / statistics.median(sum(r) for r in raw_passes),
            "latency_p50_ms": 1000 * statistics.median(raw_per_op),
            "setup_s": statistics.median(setups_raw),
        },
        "per_op_ms": [1000 * t for t in per_op],
        "digest": W.run_digest(ref[1] if ref else "" for ref in refs),
    }
    if n >= 100:
        extra["latency_p90_ms"] = 1000 * statistics.quantiles(per_op, n=10)[-1]
    return metrics, extra, tally


def measure_traced(workload: str, seed: int, names):
    """Traced run: a fixed prefix of the op list, once untraced and once traced."""
    tracer = Tracer()
    ac, ops, _ = setup(workload, seed, tracer)
    ops = ops[: W.TRACE_PREFIX[workload]]
    refs = [None] * len(ops)
    tally = Tally()
    results, raw, _ = time_pass(ac, ops)
    judge_pass(ac, ops, results, refs, tally)
    untraced = sum(raw)
    ac, ops, _ = setup(workload, seed)
    ops = ops[: len(refs)]
    tracer.install()
    try:
        results, raw, _ = time_pass(ac, ops)
    finally:
        tracer.uninstall()
    judge_pass(ac, ops, results, refs, tally)
    traced = sum(raw)
    raw = tracer.layer_metrics()
    for name, (count, calls) in _RATIOS.items():
        raw[name] = raw.get(count, 0) / raw[calls] if raw.get(calls) else 0.0
    raw["trace.ops_per_s_untraced"] = len(ops) / untraced
    raw["trace.ops_per_s_traced"] = len(ops) / traced
    raw["trace.overhead_ratio"] = untraced / traced
    metrics = {name: raw.get(name, 0) for name in names}
    extra = {"ops_traced": len(ops), "spans": len(tracer.spans), "digest": W.run_digest(ref[1] if ref else "" for ref in refs), "all": raw}
    return metrics, extra, tally, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="nominal; a run times a fixed number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "addcomb")):
        print(f"error: no addcomb sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    info = machine()
    if args.trace:
        metrics, extra, tally, tracer = measure_traced(args.workload, args.seed, units)
    else:
        metrics, extra, tally = measure(args.workload, args.seed)
        tracer = None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "metrics": metrics,
        "extra": extra,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(tally.failures),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl", {k: record[k] for k in ("workload", "seed", "machine")})

    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} ops attempted, {tally.failed} failed")
    for reason, n in sorted(tally.failures.items()):
        print(f"  failed x{n}: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        n, passes = extra["latency_samples"], extra["passes"]
        print(f"latency samples: {n} ops, each the median of {passes} passes")
        if "latency_p90_ms" in extra:
            print(f"latency_p90_ms = {extra['latency_p90_ms']:.6g} ms over {n} samples")
        print(f"error_rate = {extra['error_rate']:.6g} ratio (failed / attempted)")
        for name, value in extra["raw"].items():
            print(f"uncalibrated {name} = {value:.6g} {units[name]}")
    else:
        print(f"traced {extra['ops_traced']} ops, {extra['spans']} spans")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: tracing changes no result, tampering is caught,
and op lists are a function of the seed.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

sys.path.insert(0, run.SRC)

# op-list slices small enough for a test, still covering every op kind
SLICES = {
    "verify-cyclic": slice(0, 60),
    "verify-torsion": slice(0, 30),
    "large-modulus": slice(1, 3),
    "rectify-stream": slice(0, 300),
}


@pytest.fixture(scope="module")
def ac():
    return run.fresh_import()


def _digests(ac, ops, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        return [W.digest(op, W.run_op(ac, op)) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()


def _work_counts(tracer):
    return {name: (st.calls, st.errors, dict(st.counts)) for name, st in tracer.stats.items()}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tracing_changes_no_result(ac, workload):
    ops = W.build_ops(ac, workload, 3)[SLICES[workload]]
    plain = _digests(ac, ops)
    tracer = Tracer()
    assert _digests(ac, ops, tracer) == plain
    assert tracer.spans
    # the wrappers are gone again
    assert _digests(ac, ops) == plain
    assert not hasattr(ac.sumset, "__wrapped__")


@pytest.mark.parametrize("workload", ["verify-cyclic", "verify-torsion", "rectify-stream"])
def test_work_counts_repeat_exactly(ac, workload):
    ops = W.build_ops(ac, workload, 4)[SLICES[workload]]
    first, second = Tracer(), Tracer()
    _digests(ac, ops, first)
    _digests(ac, ops, second)
    assert _work_counts(first) == _work_counts(second)
    assert [s[:3] for s in first.spans] == [s[:3] for s in second.spans]


def test_spans_nest_and_self_time_adds_up(ac):
    ops = W.build_ops(ac, "verify-torsion", 1)[:10]
    tracer = Tracer()
    _digests(ac, ops, tracer)
    ids = {s[0] for s in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
    roots = sum(end - start for _, parent, _, start, end, _ in tracer.spans if parent == 0)
    self_total = sum(st.self_s for st in tracer.stats.values())
    assert self_total == pytest.approx(roots, rel=1e-6)
    assert tracer.stats["suite.run_suite"].calls == len(ops)
    assert tracer.stats["torsion.subgroup_generated"].counts["closure_size"] > 0


def _judged(ac, op, tamper, with_reference=True):
    """The verdict on a tampered result, against the untampered first execution."""
    res = W.run_op(ac, op)
    ref = run.judge(ac, op, res, None)
    assert ref[0] is None
    return run.judge(ac, op, tamper(res), ref if with_reference else None)[0]


def _op(ac, workload, kind):
    return next(op for op in W.warmup_ops(ac, workload) if op[0] == kind)


def test_dropped_translate_fails(ac):
    op = _op(ac, "large-modulus", "cover")
    res = W.run_op(ac, op)
    ref = run.judge(ac, op, res, None)
    T = res.translates
    for t in T.elements:
        kept = ac.GSet(T.group, [x for x in T.elements if x != t])
        assert run.judge(ac, op, dataclasses.replace(res, translates=kept), ref)[0] is not None
    # without the reference, greedy maximality still catches the last pick
    dropped = [ac.GSet(T.group, [x for x in T.elements if x != t]) for t in T.elements]
    assert any(W.check(ac, op, dataclasses.replace(res, translates=d)) for d in dropped)
    assert run.judge(ac, op, dataclasses.replace(res, inclusion_verified=False), None)[0] is not None


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_diameter_length_fails(ac, delta):
    op = _op(ac, "rectify-stream", "rectify")
    wrong = lambda out: dataclasses.replace(out, diameter=dataclasses.replace(out.diameter, length=out.diameter.length + delta))
    assert _judged(ac, op, wrong) is not None
    op = _op(ac, "large-modulus", "bounds")
    wrong = lambda rep: dataclasses.replace(rep, diam=dataclasses.replace(rep.diam, length=rep.diam.length + delta))
    assert _judged(ac, op, wrong) is not None


def test_shorter_diameter_fails_without_reference(ac):
    op = _op(ac, "rectify-stream", "rectify")
    out = W.run_op(ac, op)
    short = dataclasses.replace(out, diameter=dataclasses.replace(out.diameter, length=out.diameter.length - 1))
    assert W.check(ac, op, short) is not None


def test_counterexample_fails(ac):
    op = _op(ac, "verify-torsion", "verify")

    def tamper(rep):
        rep.tallies["torsion"].passed -= 1
        rep.tallies["torsion"].failed += 1
        rep.counterexamples.append({"check": "torsion", "index": 0})
        return rep

    assert _judged(ac, op, tamper) is not None
    assert _judged(ac, op, tamper, with_reference=False) is not None


def _skip(name):
    def tamper(rep):
        t = rep.tallies[name]
        rep.tallies[name] = dataclasses.replace(t, passed=0, failed=0, skipped=1)
        return rep

    return tamper


@pytest.mark.parametrize("check", ["inc", "estjcov", "iso", "diam"])
def test_skipped_check_fails(ac, check):
    # a check that its applicability rule says must run, reported as skipped
    A = ac.GSet(ac.CyclicGroup(31), [0, 1, 5, 12])
    assert W.must_skip(A) == {"torsion"}
    assert _judged(ac, ("verify", A), _skip(check), with_reference=False) is not None


def test_skipped_check_fails_on_torsion(ac):
    A = ac.GSet(ac.TorsionGroup(3, 3), [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 2)])
    assert W.must_skip(A) == {"cover", "lev", "diam", "iso"}
    assert _judged(ac, ("verify", A), _skip("torsion"), with_reference=False) is not None


def test_fewer_jbound_cases_fail(ac):
    op = _op(ac, "verify-cyclic", "verify")

    def tamper(rep):
        rep.tallies["jbound"].passed -= 1
        return rep

    assert _judged(ac, op, tamper, with_reference=False) is not None


def test_known_defect_is_recognised(ac):
    A = ac.GSet(ac.CyclicGroup(69), [15, 55, 58])
    assert W.known_defect(A)
    rep = ac.run_suite([A])
    why = W.check(ac, ("verify", A), rep)
    assert why == "known-defect:diam"
    tally = run.Tally()
    tally.failures["known-defect:diam"] += 1
    assert tally.correct
    tally.failures["counterexample:inc"] += 1
    assert not tally.correct


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_the_op_list(ac, workload):
    ops = W.build_ops(ac, workload, 11)
    assert len(ops) == W.PASS_LENGTH[workload]
    assert W.build_ops(ac, workload, 11) == ops
    assert W.build_ops(ac, workload, 12) != ops

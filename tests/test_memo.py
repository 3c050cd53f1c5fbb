"""The per-instance memo of run_suite, the saturated-sum shortcut, and the integer witness search.

Inside run_suite the checks of one instance share the sets, spectra and
certificates derived from it; the memo must never change a report, must be
gone when run_suite returns, and must do its work once.
"""

import contextlib
import gc
import importlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addcomb.covering as covering_mod
import addcomb.fourier as fourier_mod
import addcomb.groups as groups_mod
import addcomb.suite as suite_mod
import addcomb.torsion as torsion_mod
from addcomb import (
    CyclicGroup,
    GSet,
    IntegerWindow,
    SuiteConfig,
    TorsionGroup,
    covering_certificate,
    difference_set,
    dumps,
    lev_interval,
    negate,
    pluennecke_witness,
    run_suite,
    sumset,
    theorem1_pipeline,
)
from addcomb.cli import main
from addcomb.fourier import _magnitudes
from addcomb.groups import _memo_scope
from oracles import loop_pluennecke, naive_sumset_int, naive_sumset_mod, naive_sumset_vec

# addcomb.rectify names the function that addcomb re-exports, so the module is fetched by name
rectify_mod = importlib.import_module("addcomb.rectify")

# {0, 1, 12} in Z/69 fails the diam check: the pinned composite-N defect
DIAM_DEFECT = GSet(CyclicGroup(69), [0, 1, 12])

GROUPS = st.one_of(
    st.integers(2, 150).map(CyclicGroup),
    st.sampled_from([TorsionGroup(2, 4), TorsionGroup(2, 5), TorsionGroup(3, 3)]),
)


def by_index(g, idx):
    return GSet(g, [g.element_at(i) for i in idx])


@st.composite
def instance(draw):
    g = draw(GROUPS)
    return by_index(g, draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=9, unique=True)))


def gset_count():
    return sum(type(o) is GSet for o in gc.get_objects())


class TestMemoIsInvisible:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(instance(), min_size=1, max_size=3), st.integers(0, 3))
    def test_report_equals_the_report_without_memo(self, instances, at):
        instances.insert(min(at, len(instances)), DIAM_DEFECT)
        with_memo = dumps(run_suite(instances))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suite_mod, "_memo_scope", contextlib.nullcontext)
            without = dumps(run_suite(instances))
        assert with_memo == without
        assert '"check": "diam"' in with_memo

    def test_no_memo_survives_run_suite(self):
        instances = [
            GSet(CyclicGroup(31), [0, 1, 3, 7, 12, 20]),
            by_index(TorsionGroup(2, 5), [0, 1, 3, 6, 12, 31]),
            GSet(TorsionGroup(3, 3), [(0, 0, 0), (1, 2, 0), (0, 1, 1)]),
            DIAM_DEFECT,
        ]
        scopes = []
        before = gset_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_SCOPE", _SpyVar(groups_mod._SCOPE, scopes))
            run_suite(instances)
        # one scope per instance, each filled with what was derived from it,
        # and every set made inside them is gone
        assert len(scopes) == len(instances)
        assert all(any(id(A) in key[1:] for key in keys) for A, keys in zip(instances, scopes))
        assert groups_mod._SCOPE.get() is None
        assert gset_count() == before

    def test_a_fault_still_drops_the_memo(self, monkeypatch):
        def fault(A):
            covering_certificate(A, A, A)
            raise ValueError("planted")

        monkeypatch.setitem(suite_mod.INSTANCE_CHECKS, "incm", fault)
        A = GSet(CyclicGroup(31), [0, 1, 5])
        before = gset_count()
        with pytest.raises(ValueError, match="planted"):
            run_suite([A], SuiteConfig(checks=("inc", "incm")))
        assert groups_mod._SCOPE.get() is None
        assert gset_count() == before

    def test_nothing_is_kept_outside_a_scope(self):
        A = GSet(CyclicGroup(31), [0, 1, 5, 11])
        B = GSet(CyclicGroup(31), [2, 3])
        before = gset_count()
        assert difference_set(A, A) is not difference_set(A, A)
        assert sumset(A, A) is not sumset(A, A)
        assert sumset(A, B) is not sumset(A, B)
        assert _magnitudes(A) is not _magnitudes(A)
        assert covering_certificate(A, A, A) is not covering_certificate(A, A, A)
        assert groups_mod._SCOPE.get() is None
        assert gset_count() == before

    def test_inside_a_scope_each_derived_set_is_kept(self):
        A = GSet(TorsionGroup(3, 3), [(0, 0, 0), (1, 2, 0), (0, 1, 1)])
        B = GSet(A.group, [(0, 0, 0), (2, 2, 1)])
        twin = GSet(A.group, A.elements)
        before = gset_count()
        with _memo_scope():
            assert difference_set(A, A) is difference_set(A, A)
            assert sumset(A, A) is sumset(A, A)
            assert sumset(A, B) is sumset(A, B)
            assert difference_set(A, B) is difference_set(A, B)
            assert _magnitudes(A) is _magnitudes(A)
            assert covering_certificate(A, A, A, witness_budget=12) is covering_certificate(A, A, A, witness_budget=12)
            assert covering_certificate(A, B, B) is covering_certificate(A, B, B)
            # the key is the operands' identity and the budget, never an equal value
            assert difference_set(twin, twin) is not difference_set(A, A)
            assert sumset(A, twin) is not sumset(A, A)
            assert covering_certificate(A, A, A, witness_budget=11) is not covering_certificate(A, A, A, witness_budget=12)
            assert difference_set(A, twin) is not difference_set(A, A)
        assert groups_mod._SCOPE.get() is None
        assert gset_count() == before

    def test_memoized_arrays_are_read_only(self):
        A = GSet(CyclicGroup(31), [0, 1, 5, 11])
        with _memo_scope():
            mags = _magnitudes(difference_set(A, A))
            with pytest.raises(ValueError):
                mags[0] = 0.0
            with pytest.raises(ValueError):
                sumset(A, A).packed()[0] = 1

    @pytest.mark.parametrize(
        "g", [CyclicGroup(47), TorsionGroup(2, 6), TorsionGroup(3, 4)], ids=["Z/47", "(Z/2)^6", "(Z/3)^4"]
    )
    def test_identity_keys_never_alias(self, g):
        # each B dies before the next is made, so a key of bare ids would meet
        # a reused id; the memo keeps every operand alive while the scope is open.
        # In (Z/2)^n every B is its own negation, so there the memo of -B keeps
        # B alive as well; (Z/3)^4 is the torsion case without that help
        rng = random.Random(g.order)
        A = by_index(g, rng.sample(range(g.order), 5))
        seen = set()
        with _memo_scope():
            while len(seen) < 200:
                idx = tuple(sorted(rng.sample(range(g.order), rng.randint(1, 4))))
                if idx in seen:
                    continue
                seen.add(idx)
                B = by_index(g, idx)
                if g.kind == "cyclic":
                    want_sum = naive_sumset_mod(A.elements, B.elements, g.modulus)
                    want_diff = naive_sumset_mod(A.elements, [-b for b in B.elements], g.modulus)
                else:
                    want_sum = naive_sumset_vec(A.elements, B.elements, g.exponent)
                    want_diff = naive_sumset_vec(A.elements, [tuple(-c for c in b) for b in B.elements], g.exponent)
                assert list(sumset(A, B).elements) == want_sum
                assert list(difference_set(A, B).elements) == want_diff
                del B


class _SpyVar:
    """A stand-in for the scope's context variable that records the keys of each memo as its scope closes."""

    def __init__(self, var, scopes):
        self._var, self._scopes = var, scopes

    def set(self, memo):
        return self._var.set(memo)

    def get(self):
        return self._var.get()

    def reset(self, token):
        self._scopes.append(list(self._var.get()))
        self._var.reset(token)


# ------------------------------------------------------------------ work counts

def _count_work(monkeypatch, A):
    """Run every check on A, counting pairwise sums, FFTs and certificate builds."""
    pairs, ffts, certs = [], [], []
    for mod in (groups_mod, torsion_mod):
        real_pairwise = mod._pairwise

        def pairwise(g, pa, pb, _real=real_pairwise):
            pairs.append((pa.tobytes(), pb.tobytes()))
            return _real(g, pa, pb)

        monkeypatch.setattr(mod, "_pairwise", pairwise)
    real_fftn = np.fft.fftn

    def fftn(a, *args, **kwargs):
        ffts.append(np.flatnonzero(a.ravel()).tobytes())
        return real_fftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", fftn)
    real_certify = covering_mod._certify

    def certify(A1, B1, B2, budget):
        certs.append((A1, B1, B2))
        return real_certify(A1, B1, B2, budget)

    monkeypatch.setattr(covering_mod, "_certify", certify)
    report = run_suite([A])
    return report, pairs, ffts, certs


@pytest.mark.parametrize(
    "A, totals",
    [
        (GSet(CyclicGroup(31), [0, 1, 3, 7, 12, 20]), (5, 2, 1)),
        (by_index(TorsionGroup(2, 5), [0, 1, 3, 6, 12, 31]), (14, 1, 1)),
    ],
    ids=["Z/31", "(Z/2)^5"],
)
def test_each_derived_set_is_built_once_per_instance(monkeypatch, A, totals):
    a, minus_a = A.packed().tobytes(), negate(A).packed().tobytes()
    d = difference_set(A, A).packed().tobytes()
    report, pairs, ffts, certs = _count_work(monkeypatch, A)
    assert report.ok
    # A + A and A - A are formed once each (once in all when A = -A), the
    # FFTs of A and, for diam in Z/N, of A - A taken once each, and one
    # (A, A, A) certificate built
    assert sum(set(p) == {a, minus_a} for p in pairs) == 1
    assert sum(set(p) == {a} for p in pairs) == 1
    assert ffts.count(a) == 1
    assert ffts.count(d) == (A.group.kind == "cyclic")
    assert sum(x is A and y is A and z is A for x, y, z in certs) == 1
    assert (len(pairs), len(ffts), len(certs)) == totals


def test_without_the_memo_the_work_repeats(monkeypatch):
    A = GSet(CyclicGroup(31), [0, 1, 3, 7, 12, 20])
    monkeypatch.setattr(suite_mod, "_memo_scope", contextlib.nullcontext)
    _, pairs, ffts, certs = _count_work(monkeypatch, A)
    assert len(pairs) > 7 and len(ffts) > 2 and len(certs) > 1


def test_the_frequency_one_coefficient_is_taken_once_per_instance(monkeypatch):
    """lev's nine grid points read one |A^(1)|; outside a scope each call takes it afresh."""
    A = GSet(CyclicGroup(31), [0, 1, 3, 7, 12, 20])
    taken, grid = [], []
    real, real_lev = rectify_mod._coefficient_one, suite_mod.lev_interval
    monkeypatch.setattr(rectify_mod, "_coefficient_one", lambda B: taken.append(B) or real(B))
    monkeypatch.setattr(suite_mod, "lev_interval", lambda B, *args: grid.append(B) or real_lev(B, *args))
    assert run_suite([A]).tallies["lev"].passed == 1
    assert sum(B is A for B in grid) == 9
    assert sum(B is A for B in taken) == 1
    taken.clear()
    assert lev_interval(A, 0.25, 0.2) == lev_interval(A, 0.25, 0.2)
    assert taken == [A, A]


def test_one_diameter_serves_every_order(monkeypatch):
    """diameter(A) and rectify(A, k) at two orders find A's witness once in a scope, three times outside."""
    A = GSet(CyclicGroup(101), [3, 20, 37, 54, 71])
    found = []
    real = rectify_mod._diameter
    monkeypatch.setattr(rectify_mod, "_diameter", lambda B: found.append(B) or real(B))

    def run():
        return rectify_mod.diameter(A), rectify_mod.rectify(A, 2), rectify_mod.rectify(A, 3)

    with _memo_scope():
        dw, out2, out3 = run()
    assert found == [A]
    assert out2.diameter is dw and out3.diameter is dw and out3.witness.image.elements == (0, 1, 2, 3, 4)
    found.clear()
    assert run() == (dw, out2, out3)
    assert found == [A, A, A]


def test_window_counts_and_dilations_are_built_once_per_instance(monkeypatch):
    """lev searches one best window per (set, length) for all its eps; diam dilates A and A - A once for all its deltas."""
    A = GSet(CyclicGroup(101), [3, 4, 5, 6, 7])
    windows, dilations = [], []
    real_windows, real_dilate = rectify_mod._best_window, groups_mod._dilate
    monkeypatch.setattr(rectify_mod, "_best_window", lambda B, l: windows.append((B, l)) or real_windows(B, l))
    monkeypatch.setattr(groups_mod, "_dilate", lambda B, r: dilations.append((B, r)) or real_dilate(B, r))

    def run():
        windows.clear()
        dilations.clear()
        report = run_suite([A], SuiteConfig(checks=("lev", "diam")))
        assert (report.tallies["lev"].passed, report.tallies["diam"].passed) == (1, 1)
        return [(id(B), l) for B, l in windows], [(id(B), r) for B, r in dilations]

    built, dilated = run()
    # each of A and r*(A - A) is searched at the three lengths of the delta grid
    assert len(built) == len(set(built)) == 6
    assert len(dilated) == len(set(dilated)) == 2
    monkeypatch.setattr(suite_mod, "_memo_scope", contextlib.nullcontext)
    built, dilated = run()
    assert len(built) > 6 and len(dilated) == 6


@pytest.mark.parametrize("N, elems", [(211, [5]), (1000003, [0, 1])], ids=["{5} in Z/211", "{0,1} in Z/1000003"])
def test_pipeline_forms_a_minus_a_and_its_spectrum_once(monkeypatch, N, elems):
    A = GSet(CyclicGroup(N), elems)
    sums, ffts = [], []
    real_sumset, real_fft = groups_mod._sumset, fourier_mod._fft_magnitudes
    monkeypatch.setattr(groups_mod, "_sumset", lambda X, Y: sums.append((X, Y)) or real_sumset(X, Y))
    monkeypatch.setattr(fourier_mod, "_fft_magnitudes", lambda B: ffts.append(B) or real_fft(B))
    rep = theorem1_pipeline(A)
    # gate_tau holds, so the large-coefficient step and the spectral diameter both read the spectrum of A - A
    assert rep.gate_tau and rep.largecoeff_holds is not None
    assert sum(X is A and Y == negate(A) for X, Y in sums) == 1
    assert len(ffts) == 1 and ffts[0] == difference_set(A, A)
    assert groups_mod._SCOPE.get() is None


def test_spectral_diameter_forms_a_minus_a_once(monkeypatch):
    # r*A - r*A is r*(A - A), so the gap step reads the dilated difference set
    A = GSet(CyclicGroup(101), [3, 4, 5, 6, 7])
    calls = []
    real = groups_mod._pairwise
    monkeypatch.setattr(groups_mod, "_pairwise", lambda g, pa, pb: calls.append((pa.tolist(), pb.tolist())) or real(g, pa, pb))
    res = rectify_mod.diam_from_spectrum(A, 0.2)
    assert res.hypothesis_met and res.conclusion_ok
    assert calls == [([3, 4, 5, 6, 7], negate(A).packed().tolist())]


@pytest.mark.parametrize("m_max, formed", [(1, 0), (3, 1)])
def test_the_covering_inclusion_is_scanned_once_and_its_sum_never_formed(monkeypatch, m_max, formed):
    """With _BLOCK small, one scan decides 2(A-A) <= (A-A)+(T-T) for inc, incm and the growth checks.

    The scan reads (A-A)+T: T-T and (A-A)+(T-T) are formed only when incm
    goes on to m = 2, as the base of that step's inclusion.
    """
    A = GSet(CyclicGroup(101), [0, 1, 3, 7, 12, 20])
    monkeypatch.setattr(suite_mod, "_M_MAX", m_max)
    want = dumps(run_suite([A]))
    T = covering_certificate(A, A, A).translates
    D, E = difference_set(A, A), difference_set(T, T)
    # D is symmetric, so the scan gets one point of each pair {x, -x} of 2(A-A): min(x, 101 - x)
    x = sumset(D, D).packed()
    inclusion = (np.unique(np.minimum(x, -x % 101)).tobytes(), D.packed().tobytes(), T.packed().tobytes())
    scans, pairs = [], []
    real_scan = groups_mod._in_sumset_scan
    monkeypatch.setattr(groups_mod, "_BLOCK", 16)
    monkeypatch.setattr(groups_mod, "_in_sumset_scan", lambda g, *xyt: scans.append(tuple(a.tobytes() for a in xyt)) or real_scan(g, *xyt))
    for mod in (groups_mod, torsion_mod):
        real_pairwise = mod._pairwise
        monkeypatch.setattr(mod, "_pairwise", lambda g, pa, pb, _real=real_pairwise: pairs.append({pa.tobytes(), pb.tobytes()}) or _real(g, pa, pb))
    assert dumps(run_suite([A])) == want
    assert len(D) * min(len(T) ** 2, 101) > 16
    assert scans.count(inclusion) == 1
    assert pairs.count({D.packed().tobytes(), E.packed().tobytes()}) == formed
    assert pairs.count({T.packed().tobytes(), negate(T).packed().tobytes()}) == formed


@pytest.mark.parametrize("N, pairwise", [(101, 6), (1009, 9)])
def test_check_m_opens_a_scope_of_its_own(monkeypatch, N, pairwise):
    """Outside a memo scope, covering_certificate with check_m > 0 runs in one of its own.

    T - T and the chains of sums are then formed once, as inside run_suite's
    scope; without it {0, 1, 3, 7, 12, 20} took 20 and 24 _pairwise calls.
    """
    A = GSet(CyclicGroup(N), [0, 1, 3, 7, 12, 20])
    calls = _pairwise_calls(monkeypatch)
    cert = covering_certificate(A, A, A, check_m=3)
    assert len(calls) == pairwise
    assert groups_mod._SCOPE.get() is None
    calls.clear()
    with groups_mod._memo_scope():
        assert covering_certificate(A, A, A, check_m=3) == cert
    assert len(calls) == pairwise


@pytest.mark.parametrize("size", [8, 16, 28])
def test_a_certificate_forms_each_sum_once_outside_a_scope(monkeypatch, size):
    """A (C, C, C) certificate at q = 1,000,003 makes as many _pairwise calls outside a scope as inside one.

    Without a scope of its own it formed C + C, C - C and their sums with C
    again at each step that needs them: 9 or 10 calls against 4 or 5.
    """
    C = GSet(CyclicGroup(1000003), random.Random(size).sample(range(1000003), size))
    calls = _pairwise_calls(monkeypatch)
    cert = covering_certificate(C, C, C)
    outside = len(calls)
    assert groups_mod._SCOPE.get() is None
    calls.clear()
    with groups_mod._memo_scope():
        assert covering_certificate(C, C, C) == cert
    assert outside == len(calls) <= 5


@pytest.mark.parametrize("check_m", [0, 3])
def test_one_call_is_one_certificate_call(monkeypatch, check_m):
    """The scope of an entry point is opened inline, so a wrapper of covering_certificate sees each call once."""
    seen = []
    real = covering_mod.covering_certificate
    monkeypatch.setattr(covering_mod, "covering_certificate", lambda *a, **kw: seen.append(1) or real(*a, **kw))
    A = GSet(CyclicGroup(101), [0, 1, 3, 7, 12, 20])
    covering_mod.covering_certificate(A, A, A, check_m=check_m)
    assert seen == [1]


@pytest.mark.parametrize(
    "run",
    [
        lambda: torsion_mod.torsion_cover(by_index(TorsionGroup(3, 3), [0, 1, 5, 13])),
        lambda: theorem1_pipeline(GSet(CyclicGroup(101), [0, 1, 3, 7])),
        lambda: covering_certificate(*[GSet(CyclicGroup(101), [0, 1, 3, 7])] * 3),
    ],
    ids=["torsion_cover", "theorem1_pipeline", "covering_certificate"],
)
def test_an_entry_point_reads_an_open_scope(run):
    """torsion_cover, theorem1_pipeline and covering_certificate open a scope only when none is open."""
    scopes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups_mod, "_SCOPE", _SpyVar(groups_mod._SCOPE, scopes))
        run()
        assert len(scopes) == 1
        with _memo_scope():
            run()
        # the one scope more is the outer one: run opened none inside it
        assert len(scopes) == 2
    assert groups_mod._SCOPE.get() is None


def test_cli_cover_scans_the_covering_inclusion_once(monkeypatch, capsys):
    """cover runs in one scope, so the certificate and incm's step m = 1 share one scan of 2(A-A) <= (A-A)+(T-T)."""
    argv = ["cover", "--group", "cyclic:101", "--elements", "0,1,3,7,12,20", "--check-m", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    scans = []
    real_scan = groups_mod._in_sumset_scan
    monkeypatch.setattr(groups_mod, "_BLOCK", 16)
    monkeypatch.setattr(groups_mod, "_in_sumset_scan", lambda *args: scans.append(1) or real_scan(*args))
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(scans) == 1


@pytest.mark.parametrize(
    "A, run",
    [
        (by_index(TorsionGroup(3, 3), [0, 1, 5, 13]), lambda A: run_suite([A], SuiteConfig(checks=("torsion",)))),
        (GSet(CyclicGroup(101), [0, 1, 3, 7]), theorem1_pipeline),
    ],
    ids=["torsion check", "pipeline"],
)
def test_the_growth_ratios_read_the_memo(monkeypatch, A, run):
    """Reading |A+A|/|A| and |A-A|/|A| for the growth ratios and the torsion route builds A + A and A + (-A) once each."""
    a, minus_a = A.packed().tobytes(), negate(A).packed().tobytes()
    assert a != minus_a
    pairs = []
    for mod in (groups_mod, torsion_mod):
        real_pairwise = mod._pairwise
        monkeypatch.setattr(mod, "_pairwise", lambda g, pa, pb, _real=real_pairwise: pairs.append((pa.tobytes(), pb.tobytes())) or _real(g, pa, pb))
    run(A)
    assert pairs.count((a, minus_a)) + pairs.count((minus_a, a)) == 1
    assert pairs.count((a, a)) == 1


def test_each_unordered_operand_pair_is_formed_once(monkeypatch):
    """Every check on one instance forms each sum X + Y once, whichever operand comes first."""
    A = by_index(TorsionGroup(3, 3), [0, 1, 5, 13])
    pairs = []
    for mod in (groups_mod, torsion_mod):
        real_pairwise = mod._pairwise
        monkeypatch.setattr(mod, "_pairwise", lambda g, pa, pb, _real=real_pairwise: pairs.append(tuple(sorted((pa.tobytes(), pb.tobytes())))) or _real(g, pa, pb))
    assert run_suite([A]).ok
    assert pairs and len(pairs) == len(set(pairs))


def test_the_difference_route_reads_a_minus_a_from_the_memo(monkeypatch):
    """The torsion check's difference route meets (-A) - (-A), the same set as A - A, and forms it once.

    The memo keys a sum by its unordered operands and -(-A) is A.  The set has
    20 sums and 19 differences, so it takes that route.
    """
    A = GSet(TorsionGroup(7, 2), [(1, 2), (2, 2), (2, 5), (3, 2), (3, 5), (5, 5), (6, 2)])
    pairs = []
    for mod in (groups_mod, torsion_mod):
        real_pairwise = mod._pairwise
        monkeypatch.setattr(mod, "_pairwise", lambda g, pa, pb, _real=real_pairwise: pairs.append(tuple(sorted((pa.tobytes(), pb.tobytes())))) or _real(g, pa, pb))
    assert torsion_mod.torsion_cover(A).route == "difference"
    pairs.clear()
    assert run_suite([A]).ok
    assert pairs.count(tuple(sorted((A.packed().tobytes(), negate(A).packed().tobytes())))) == 1


# ------------------------------------------------------------------ saturated sums

def _pairwise_calls(monkeypatch):
    calls = []
    real = groups_mod._pairwise
    monkeypatch.setattr(groups_mod, "_pairwise", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("N", [1, 2, 7, 30])
@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_saturated_cyclic_sum(monkeypatch, N, side):
    g = CyclicGroup(N)
    full = GSet(g, range(N))
    calls = _pairwise_calls(monkeypatch)
    rng = random.Random(N)
    for other in (GSet(g, rng.sample(range(N), k)) for k in range(1, N + 1)):
        left = full if side != "right" else other
        right = full if side != "left" else other
        got = sumset(left, right)
        assert list(got.elements) == naive_sumset_mod(left.elements, right.elements, N) == list(range(N))
        assert got is not left and got is not right
    assert calls == []


@pytest.mark.parametrize("r, n", [(2, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_saturated_torsion_sum(monkeypatch, r, n, side):
    g = TorsionGroup(r, n)
    full = GSet(g, [g.element_at(i) for i in range(g.order)])
    calls = _pairwise_calls(monkeypatch)
    rng = random.Random(r * n)
    for k in (1, 2, g.order - 1, g.order):
        other = GSet(g, [g.element_at(i) for i in rng.sample(range(g.order), k)])
        left = full if side != "right" else other
        right = full if side != "left" else other
        assert list(sumset(left, right).elements) == naive_sumset_vec(left.elements, right.elements, r)
    assert calls == []


@pytest.mark.parametrize("left, right", [("full", "empty"), ("empty", "full"), ("empty", "empty")])
def test_empty_operand_beats_a_full_one(left, right):
    g = CyclicGroup(7)
    sets = {"full": GSet(g, range(7)), "empty": GSet(g, [])}
    assert len(sumset(sets[left], sets[right])) == 0


def test_window_takes_no_shortcut(monkeypatch):
    # a window has no order, so even all of it plus a set runs the kernel
    W = IntegerWindow(0, 4)
    whole = GSet(W, range(5))
    calls = _pairwise_calls(monkeypatch)
    got = sumset(whole, GSet(W, [0, 3]))
    assert list(got.elements) == naive_sumset_int(range(5), [0, 3])
    assert got.group == IntegerWindow(0, 7)
    assert calls == [1]


# ------------------------------------------------------------------ witness search

def _random_case(seed):
    rng = random.Random(seed)
    if seed % 2:
        g = CyclicGroup(rng.randint(5, 120))
        elems = lambda k: rng.sample(range(g.modulus), min(k, g.modulus))
    else:
        g = rng.choice([TorsionGroup(2, 5), TorsionGroup(3, 3), TorsionGroup(2, 6)])
        elems = lambda k: [g.element_at(i) for i in rng.sample(range(g.order), min(k, g.order))]
    A = GSet(g, elems(rng.randint(1, 14)))
    B1 = GSet(g, elems(rng.randint(1, 6)))
    B2 = B1 if rng.random() < 0.3 else GSet(g, elems(rng.randint(1, 6)))
    return A, B1, B2


@pytest.mark.parametrize("seed", range(40))
def test_witness_matches_the_fraction_loop(seed):
    A, B1, B2 = _random_case(seed)
    got = pluennecke_witness(A, B1, B2)
    subset, ratio, searched = loop_pluennecke(A, B1, B2)
    assert (got.subset.elements, got.ratio, got.subsets_searched) == (subset, ratio, searched)


def _evaluated_sizes(n, searched):
    """The size classes below n that a search of `searched` subsets evaluated: n-1 down to where it broke."""
    sizes, left = [], searched - 1
    for size in range(n - 1, 0, -1):
        if not left:
            break
        left -= math.comb(n, size)
        sizes.append(size)
    assert left == 0
    return sizes


def _spy_classes(monkeypatch):
    sizes, tables = [], []
    real_class, real_bitsets = covering_mod._least_union, covering_mod._bitsets
    monkeypatch.setattr(covering_mod, "_least_union", lambda masks, size, *rest: sizes.append(size) or real_class(masks, size, *rest))
    monkeypatch.setattr(covering_mod, "_bitsets", lambda ids, u: tables.append(1) or real_bitsets(ids, u))
    return sizes, tables


@st.composite
def witness_case(draw):
    """(A, B1, B2) with |A| <= 14, B1 and B2 often different; progressions and symmetric sets give many equal ratios."""
    g = draw(
        st.one_of(
            st.integers(5, 200).map(CyclicGroup),
            st.sampled_from([TorsionGroup(2, 4), TorsionGroup(2, 5), TorsionGroup(3, 3), TorsionGroup(5, 2)]),
        )
    )
    n = draw(st.integers(1, min(14, g.order)))
    shape = draw(st.sampled_from(["random", "progression", "symmetric"]))
    if shape == "progression" and g.kind == "cyclic":
        start, step = draw(st.integers(0, g.order - 1)), draw(st.integers(1, g.order - 1))
        A = GSet(g, [start + i * step for i in range(n)])
    elif shape == "symmetric":
        half = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=(n + 1) // 2))
        A = by_index(g, half)
        A = GSet(g, A.elements + negate(A).elements)
    else:
        A = by_index(g, draw(st.lists(st.integers(0, g.order - 1), min_size=n, max_size=n, unique=True)))
    summand = st.lists(st.integers(0, g.order - 1), min_size=1, max_size=5, unique=True).map(lambda idx: by_index(g, idx))
    B1 = draw(st.sampled_from([A, None])) or draw(summand)
    B2 = draw(st.sampled_from([B1, None])) or draw(summand)
    return A, B1, B2


class TestVectorizedWitness:
    @settings(max_examples=150, deadline=None)
    @given(witness_case(), st.sampled_from([None, 1, 2, 5]))
    def test_matches_the_loop(self, case, block):
        A, B1, B2 = case
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(groups_mod, "_BLOCK", block)
            sizes, _ = _spy_classes(mp)
            got = pluennecke_witness(A, B1, B2)
        subset, ratio, searched = loop_pluennecke(A, B1, B2)
        assert (got.subset.elements, got.ratio, got.subsets_searched) == (subset, ratio, searched)
        # no class past the break is evaluated, and every class before it is
        assert sizes == _evaluated_sizes(len(A), searched)

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize(
        "g, idx",
        [
            (CyclicGroup(101), [0, 7, 14, 21, 28, 35, 42, 49, 56, 63]),  # a progression: many equal ratios
            (CyclicGroup(97), [1, 96, 5, 92, 20, 77, 33, 64]),           # symmetric
            (TorsionGroup(2, 5), [1, 2, 4, 8, 16, 3, 5, 6, 9, 17, 31]),
            (TorsionGroup(3, 3), [0, 1, 2, 3, 6, 9, 18, 13, 26]),
        ],
        ids=["AP in Z/101", "symmetric in Z/97", "(Z/2)^5", "(Z/3)^3"],
    )
    def test_structured_sets_match_the_loop(self, monkeypatch, g, idx, block):
        # many subsets of these sets share a ratio, inside the classes the search evaluates
        A = by_index(g, idx)
        B1 = by_index(g, idx[:3])
        if block is not None:
            monkeypatch.setattr(groups_mod, "_BLOCK", block)
        for b1, b2 in ((A, A), (B1, A), (B1, negate(B1))):
            got = pluennecke_witness(A, b1, b2)
            assert (got.subset.elements, got.ratio, got.subsets_searched) == loop_pluennecke(A, b1, b2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 70), st.integers(0, 2**32), st.sampled_from(["above", "at", "below", "loose"]))
    def test_a_class_keeps_its_first_least_subset(self, n, universe, seed, where):
        # The search's answer is the unique largest subset of least ratio (the
        # union of two least subsets is least, as unions of translates are
        # submodular), so ties only show inside a class: evaluate each class
        # against combinations order directly.  Small universes make ties common;
        # a limit at the class minimum must find nothing.
        rng = random.Random(seed)
        width = rng.randint(1, universe)
        rows = [rng.sample(range(universe), width) for _ in range(n)]
        masks = [sum(1 << c for c in row) for row in rows]
        overlap = max((a & b).bit_count() for a, b in itertools.combinations(masks, 2))
        for size in range(1, n):
            unions = [(len(set().union(*(rows[i] for i in combo))), combo) for combo in itertools.combinations(range(n), size)]
            bits, combo = min(unions, key=lambda u: u[0])  # min keeps the first least
            limit = {"above": bits + 1, "at": bits, "below": bits - 1, "loose": universe + 1}[where]
            got = covering_mod._least_union(masks, size, limit, width, overlap)
            assert got == (None if limit <= bits else (bits, combo))

    def test_a_search_stopped_after_size_n_builds_no_tables(self, monkeypatch):
        # a subgroup: every translate of A + A is A itself, so |A + A + A| / |A| = 1 cannot be beaten
        g = TorsionGroup(2, 4)
        A = by_index(g, [0, 1, 2, 3])
        sizes, tables = _spy_classes(monkeypatch)
        got = pluennecke_witness(A, A, A)
        assert (got.subset, got.ratio, got.subsets_searched) == (A, 1, 1)
        assert sizes == [] and tables == []

    def test_sixteen_points_match_the_loop(self):
        rng = random.Random(16)
        g = CyclicGroup(1000003)
        A = GSet(g, rng.sample(range(g.modulus), 16))
        got = pluennecke_witness(A, A, A)
        subset, ratio, searched = loop_pluennecke(A, A, A)
        assert (got.subset.elements, got.ratio, got.subsets_searched) == (subset, ratio, searched)
        # the overlap bound stops the search long before |sigma| / size alone would
        assert searched == 2_517
        assert loop_pluennecke(A, A, A, overlap_rule=False) == (subset, ratio, 65_399)

    @pytest.mark.parametrize(
        "g, n, k, seed",
        [
            (CyclicGroup(101), 18, 2, 1),
            (CyclicGroup(101), 17, 3, 2),
            (CyclicGroup(101), 18, 4, 3),
            (TorsionGroup(2, 6), 18, 2, 4),
            (TorsionGroup(2, 6), 17, 3, 5),
            (TorsionGroup(2, 6), 18, 4, 6),
        ],
        ids=lambda v: str(v) if isinstance(v, int) else v.kind,
    )
    def test_the_budget_edge_matches_the_loop(self, g, n, k, seed):
        # |A| at the default budget with a 2-4 point summand: the translates
        # overlap heavily and A' is small, so neither bound closes the search
        # early and each class's depth-first search does the most work
        rng = random.Random(seed)
        idx = rng.sample(range(g.order), n + k)
        A, B = by_index(g, idx[:n]), by_index(g, idx[n:])
        got = pluennecke_witness(A, B, B)
        assert (got.subset.elements, got.ratio, got.subsets_searched) == loop_pluennecke(A, B, B)

"""Diameter search, concentration windows, and rectification into the integers."""

import importlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from addcomb import (
    BudgetError,
    CyclicGroup,
    GSet,
    IntegerWindow,
    TorsionGroup,
    diam_from_spectrum,
    diameter,
    dilate,
    freiman_iso_check,
    gap_cover,
    is_prime,
    is_subset,
    lev_interval,
    rectify,
    spectrum,
    difference_set,
    translate,
)
from addcomb.rectify import _best_window
from oracles import (
    brute_diameter,
    brute_diameter_witness,
    brute_freiman,
    brute_shortest_arc,
    brute_window_counts,
    dft_coefficient,
    loop_freiman,
)

# the package re-exports the function rectify under the submodule's name
rectify_mod = importlib.import_module("addcomb.rectify")
groups_mod = importlib.import_module("addcomb.groups")


class TestDiameter:
    def test_plain_interval(self):
        w = diameter(GSet(CyclicGroup(7), [0, 1, 2]))
        assert w.length == 2
        assert {0, 1, 2} <= {(w.start + j * w.step) % 7 for j in range(w.length + 1)}

    def test_even_spacing(self):
        A = GSet(CyclicGroup(7), [0, 2, 4])
        w = diameter(A)
        assert w.length == 2
        assert set(A.elements) <= {(w.start + j * w.step) % 7 for j in range(w.length + 1)}

    def test_full_group(self):
        assert diameter(GSet(CyclicGroup(11), range(11))).length == 10

    def test_singleton(self):
        w = diameter(GSet(CyclicGroup(101), [42]))
        assert (w.length, w.start) == (0, 42)

    def test_wraparound(self):
        A = GSet(CyclicGroup(23), [21, 22, 0, 1])
        assert diameter(A).length == 3

    def test_normalized_form(self):
        A = GSet(CyclicGroup(31), [3, 10, 17])
        w = diameter(A)
        assert 0 in w.normalized.elements
        assert max(w.normalized.elements) == w.length

    def test_matches_brute_force(self):
        for N in (11, 13, 29, 101):
            g = CyclicGroup(N)
            for A in (
                [0, 1, 5],
                [0, N // 2],
                [2, 3, 5, 7],
                list(range(0, N, 3)),
            ):
                assert diameter(GSet(g, A)).length == brute_diameter(A, N)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diameter(GSet(CyclicGroup(7), []))

    @given(st.sets(st.integers(0, 22), min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_oracle_z23(self, elems):
        assert diameter(GSet(CyclicGroup(23), elems)).length == brute_diameter(
            elems, 23
        )

    @given(
        st.sets(st.integers(0, 22), min_size=1, max_size=4),
        st.integers(1, 22),
        st.integers(0, 22),
    )
    @settings(max_examples=100)
    def test_affine_invariance(self, elems, lam, shift):
        g = CyclicGroup(23)
        A = GSet(g, elems)
        moved = translate(dilate(A, lam), shift)
        assert diameter(moved).length == diameter(A).length


@st.composite
def diameter_cases(draw):
    """A set in Z/N, N <= 150, of any size up to N: random, a progression, or most of one."""
    N = draw(st.integers(1, 150))
    size = draw(st.integers(1, N))
    kind = draw(st.sampled_from(["random", "progression", "gapped"]))
    if kind == "random":
        elems = draw(st.permutations(range(N)))[:size]
    else:
        a = draw(st.integers(0, N - 1))
        d = draw(st.integers(1, max(1, N - 1)))
        elems = [(a + j * d) % N for j in range(size)]
        if kind == "gapped" and len(elems) > 2:
            elems.pop(draw(st.integers(1, len(elems) - 2)))
    return N, elems


def _count_rows(monkeypatch):
    """The row count of every call to the dilation kernel _shortest_arcs, in a list."""
    rows = []
    real = rectify_mod._shortest_arcs
    monkeypatch.setattr(rectify_mod, "_shortest_arcs", lambda r, N: rows.append(len(r)) or real(r, N))
    return rows


def units_visited(N, elems, length):
    """The multipliers the documented scan visits for a set of two or more points of diameter length.

    The t run from 1 in blocks min(64, cap) wide, doubling up to cap =
    max(1, _BLOCK // |A|).  The scan ends after the block that reaches N/2
    or the budget, and before that: when some consecutive difference of A
    is a unit and N/2 lies past the first block, after the block whose last
    t reaches length; else after the block holding the first unit u, in
    increasing order, whose shortest arc is |A| - 1.  Each unit t up to
    that end is one multiplier visited.
    """
    elems = sorted(elems)
    half, cap = N // 2, max(1, groups_mod._BLOCK // len(elems))
    last, step = min(half, rectify_mod._DIAMETER_BUDGET), min(64, cap)
    ordered = half > step and any(math.gcd(b - a, N) == 1 for a, b in zip(elems, elems[1:]))
    if ordered:
        reached = length
    else:
        floor = (u for u in range(1, half + 1) if math.gcd(u, N) == 1 and brute_shortest_arc([u * x % N for x in elems], N)[0] == len(elems) - 1)
        reached = next(floor, half)
    end = 0
    while end < min(reached, last):
        end, step = end + step, min(2 * step, cap)
    return sum(math.gcd(t, N) == 1 for t in range(1, min(end, last) + 1))


def _witness_fields(N, elems):
    """(length, step, start) of diameter(A), once units_searched is checked: the multipliers visited, at least the kernel's rows."""
    with pytest.MonkeyPatch.context() as mp:
        rows = _count_rows(mp)
        w = diameter(GSet(CyclicGroup(N), elems))
    assert max(w.normalized.elements) == w.length
    if len(set(elems)) == 1:
        assert w.units_searched == 1 and rows == []  # a singleton needs no row
    else:
        assert sum(rows) <= w.units_searched == units_visited(N, set(elems), w.length)
    return w.length, w.step, w.start


class TestDiameterScan:
    """Every field of the blocked dilation scan against the plain-loop search."""

    @given(diameter_cases())
    @example((120, list(range(0, 120, 7))))
    @example((150, list(range(1, 150, 2))))
    @example((144, list(range(90))))
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_search(self, case):
        N, elems = case
        assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @given(diameter_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_search_in_small_blocks(self, case):
        # blocks of max(1, 7 // |A|) units, so the floor is met in a later block
        N, elems = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_BLOCK", 7)
            got = _witness_fields(N, elems)
        assert got == brute_diameter_witness(elems, N)

    @pytest.mark.parametrize("N", [1009, 4096])
    @pytest.mark.parametrize("floor_unit", [1, 63, 65, 191, 193, 451, None])
    def test_matches_plain_search_across_growing_blocks(self, N, floor_unit):
        # blocks 1-64, 65-192, 193-448, ...: the floor falls at either edge of a block, or nowhere
        if floor_unit is None:
            elems = [0, 3, 4, 11, 40, 41, 97]
        else:
            d = pow(floor_unit, -1, N)
            elems = [(5 + j * d) % N for j in range(6)]
        assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @pytest.mark.parametrize(
        "budget, floor_unit, passes",
        [
            (1, None, False),
            (49, None, False),
            (50, None, True),
            (4, 63, False),
            (5, 63, True),
            (63, 63, True),
            (4, 65, False),
            (65, 65, True),
        ],
    )
    def test_budget(self, budget, floor_unit, passes):
        # with no floor unit, {0, 1, 5} in Z/101 is no 3-term progression and all 50 multipliers are visited;
        # a 6-term progression of Z/1009 is decided at t = |A| - 1 = 5, wherever its floor unit lies
        if floor_unit is None:
            N, elems = 101, [0, 1, 5]
        else:
            N = 1009
            d = pow(floor_unit, -1, N)
            elems = [(5 + j * d) % N for j in range(6)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rectify_mod, "_DIAMETER_BUDGET", budget)
            if passes:
                assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)
            else:
                rows = _count_rows(mp)
                with pytest.raises(BudgetError, match=f"visited {budget} multipliers"):
                    diameter(GSet(CyclicGroup(N), elems))
                assert sum(rows) <= budget  # the kernel's rows: those the bounds do not drop

    def test_budget_stops_a_scan_near_2_62(self, monkeypatch):
        # {0, 1, 5} has diameter 5 with the unit difference 1, so t <= 5 decides it
        A = GSet(CyclicGroup((1 << 62) - 57), [0, 1, 5])
        w = diameter(A)
        assert (w.length, w.step, w.start, w.units_searched) == (5, 1, 0, 64)
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", 4)
        rows = _count_rows(monkeypatch)
        with pytest.raises(BudgetError, match="visited 4 multipliers"):
            diameter(A)
        assert sum(rows) <= 4

    @pytest.mark.parametrize("size", [4, 70])
    def test_exact_above_int64_products(self, size):
        # u * x exceeds 2^63 here; the floor unit is 5, and t <= size - 1 takes one block of 64 or two (64 + 128)
        N = (1 << 62) - 57
        step = pow(5, -1, N)
        w = diameter(GSet(CyclicGroup(N), [(step * j) % N for j in range(size)]))
        assert (w.length, w.step, w.start, w.units_searched) == (size - 1, step, 0, {4: 64, 70: 192}[size])
        assert w.normalized.elements == tuple(range(size))


def _row_dtypes(monkeypatch):
    """The dtype of every row array the dilation kernel _shortest_arcs receives, in a list."""
    dtypes = []
    real = rectify_mod._shortest_arcs
    monkeypatch.setattr(rectify_mod, "_shortest_arcs", lambda r, N: dtypes.append(r.dtype) or real(r, N))
    return dtypes


class TestDiameterDtype:
    """Past int64 products the scan's rows are still int64: groups._mul_mod alone widens, and converts back."""

    N = (1 << 62) - 57

    def test_golden_large_modulus_rows_are_int64(self, monkeypatch):
        # the input of the diam-large-modulus golden case: 3^-1 * {0, 1, 2, 3} + 11
        inv3 = pow(3, -1, self.N)
        dtypes = _row_dtypes(monkeypatch)
        w = diameter(GSet(CyclicGroup(self.N), [(inv3 * x + 11) % self.N for x in range(4)]))
        assert (w.length, w.step, w.start) == (3, inv3, 11)
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}

    def test_over_budget_set_is_refused_with_int64_rows(self, monkeypatch):
        # no multiplier up to the budget brings this set near a progression, so all 2^20 are visited
        dtypes = _row_dtypes(monkeypatch)
        message = f"diameter scan visited {1 << 20} multipliers up to its budget, t <= {1 << 20} (modulus {self.N})"
        with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
            diameter(GSet(CyclicGroup(self.N), [0, 1, 123456789012345]))
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}


# 12 points of the 16-term progression 5 + 12345*j in Z/84401; its diameter is 15
AP_SUBSET_84401 = [(5 + 12345 * j) % 84401 for j in (0, 1, 2, 4, 5, 7, 8, 9, 11, 12, 13, 15)]


def _progression(N, step, terms, start, drop=()):
    return [(start + j * step) % N for j in range(terms) if j not in drop]


@st.composite
def large_diameter_cases(draw):
    """A set in Z/N, 130 <= N <= 3000: random, a progression, most of one, or in a coset of a proper subgroup."""
    N = draw(st.integers(130, 3000))
    size = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["random", "progression", "gapped", "coset"]))
    if kind == "random":
        return N, draw(st.lists(st.integers(0, N - 1), min_size=size, max_size=size, unique=True))
    a = draw(st.integers(0, N - 1))
    d = draw(st.integers(1, N - 1))
    if kind == "coset":
        p = next((p for p in (2, 3, 5, 7) if N % p == 0), None)
        assume(p is not None)
        d = p * draw(st.integers(1, N // p))
    elems = sorted({(a + j * d) % N for j in range(size)})
    if kind == "gapped" and len(elems) > 2:
        elems.pop(draw(st.integers(1, len(elems) - 2)))
    return N, elems


class TestOrderedScan:
    """The scan in order of |u*d|, past the first block: every field against the plain loop, every BudgetError at its budget."""

    @pytest.mark.parametrize(
        "N, elems",
        [
            (84401, AP_SUBSET_84401),
            (10007, _progression(10007, 777, 20, 3, drop=(5, 11))),
            (50021, _progression(50021, 4321, 9, 17)),
            (99991, _progression(99991, 2, 30, 1, drop=(1,))),
            (30011, [0, 1, 5, 17, 400, 9000, 12345]),
        ],
        ids=["AP-subset", "gapped", "full progression", "step 2, one gap", "no structure"],
    )
    def test_matches_plain_search_at_large_primes(self, N, elems):
        assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @given(large_diameter_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_search_past_one_block(self, case):
        N, elems = case
        assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @pytest.mark.parametrize("block", [None, 7], ids=["default blocks", "blocks of one"])
    @pytest.mark.parametrize(
        "N, elems",
        [
            (69, [1, 4, 10, 31, 64]),
            (69, [0, 3, 9, 14, 40]),
            (3027, [2, 5, 11, 302, 3002]),
            (3027, [0, 3, 9, 14, 40, 1000]),
        ],
        ids=["coset of 3Z/69", "Z/69, third difference", "coset of 3Z/3027", "Z/3027, third difference"],
    )
    def test_composite_moduli(self, block, N, elems):
        # the consecutive differences 3, 6, 5 of the second and fourth sets reach a unit only at the third
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(groups_mod, "_BLOCK", block)
            assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @pytest.mark.parametrize("block", [None, 7], ids=["default blocks", "blocks of one"])
    def test_the_least_unit_wins_a_tie(self, block):
        # u = 28 and u = 62 both give length 31; with d = 10, 62 comes first (|62*10| = 2) and 28 last (|28*10| = 31)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(groups_mod, "_BLOCK", block)
            assert _witness_fields(311, [145, 155, 255, 300]) == brute_diameter_witness([145, 155, 255, 300], 311)

    @pytest.mark.parametrize("budget, passes", [(7, False), (8, True), (3001, True)])
    def test_budget_at_a_large_prime(self, monkeypatch, budget, passes):
        # the only floor unit in [1, N/2] of this progression is 3001, and t <= |A| - 1 = 8 reaches it
        N = 10007
        elems = _progression(N, pow(3001, -1, N), 9, 7)
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", budget)
        if passes:
            assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)
        else:
            rows = _count_rows(monkeypatch)
            with pytest.raises(BudgetError, match=f"visited {budget} multipliers"):
                diameter(GSet(CyclicGroup(N), elems))
            assert sum(rows) <= budget

    @pytest.mark.parametrize("budget", [10, 1513])
    @pytest.mark.parametrize("elems", [[2, 5, 11, 302, 3002], [0, 3, 9, 14, 40, 1000]], ids=["coset", "third difference"])
    def test_budget_at_a_composite_modulus(self, monkeypatch, budget, elems):
        # in Z/3027 only the units among t = 1..10 are visited, 7 of them; a budget of N/2 = 1513 is the full scan
        N = 3027
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", budget)
        if budget == N // 2:
            assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)
        else:
            rows = _count_rows(monkeypatch)
            with pytest.raises(BudgetError, match="visited 7 multipliers"):
                diameter(GSet(CyclicGroup(N), elems))
            assert sum(rows) <= 7

    @pytest.mark.parametrize("budget, rows", [(10, 10), (40_000, 64)])
    def test_over_budget_without_a_floor_unit_stops_at_the_budget_or_the_diameter(self, monkeypatch, budget, rows):
        # N/2 = 42,200 is past both budgets; the diameter 15 is decided by t <= 15, which a budget of 10 cuts short
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", budget)
        seen = _count_rows(monkeypatch)
        if budget < 15:
            with pytest.raises(BudgetError, match=f"visited {budget} multipliers"):
                diameter(GSet(CyclicGroup(84401), AP_SUBSET_84401))
        else:
            w = diameter(GSet(CyclicGroup(84401), AP_SUBSET_84401))
            assert (w.length, w.step, w.start, w.units_searched) == (15, 12345, 5, rows)
        assert sum(seen) <= rows

    def test_work_follows_the_diameter_not_the_modulus(self, monkeypatch):
        # in increasing order the scan would visit all 42,200 units of [1, N/2]; in order of |u*d|, one block
        rows = _count_rows(monkeypatch)
        w = diameter(GSet(CyclicGroup(84401), AP_SUBSET_84401))
        assert (w.length, w.step, w.start, w.units_searched) == (15, 12345, 5, 64)
        assert sum(rows) <= 64


@st.composite
def pruned_scan_cases(draw):
    """A random set of 3-9 points in Z/N, N a prime above 129 or a composite, where rows are dropped before the kernel."""
    N = draw(st.sampled_from([131, 257, 1009, 2003, 4099]) | st.integers(130, 4000).filter(lambda n: not is_prime(n)))
    size = draw(st.integers(3, 9))
    return N, draw(st.lists(st.integers(0, N - 1), min_size=size, max_size=size, unique=True))


class TestPrunedScan:
    """Rows whose |u*d| exceeds the best length so far never reach the kernel; every field still matches the plain loop."""

    @given(pruned_scan_cases())
    @example((4099, [0, 1, 5, 17, 400, 1200, 3000]))
    @example((3600, [0, 7, 11, 500, 1999, 2401]))
    @settings(max_examples=120, deadline=None)
    def test_matches_plain_search(self, case):
        N, elems = case
        assert _witness_fields(N, elems) == brute_diameter_witness(elems, N)

    @pytest.mark.parametrize("block", [None, 7], ids=["default blocks", "blocks of one"])
    def test_the_least_unit_survives_a_tie(self, block):
        # u = 28 and u = 62 both give length 31 in Z/311; the row of 28 comes last and must not be dropped
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(groups_mod, "_BLOCK", block)
            rows = _count_rows(mp)
            w = diameter(GSet(CyclicGroup(311), [145, 155, 255, 300]))
        assert (w.length, w.step, w.start) == brute_diameter_witness([145, 155, 255, 300], 311)
        # in blocks of one row, rows after the first length are dropped; in default blocks, none are
        assert sum(rows) < w.units_searched if block else sum(rows) == w.units_searched

    def test_rows_follow_the_bound_not_the_visits(self, monkeypatch):
        # a random 8-set at a prime near 73,000: the scan visits 16,320 multipliers, and 6,060 of them reach the kernel
        rows = _count_rows(monkeypatch)
        w = diameter(GSet(CyclicGroup(73061), [511, 9032, 17777, 30001, 41234, 52525, 61111, 72000]))
        assert (w.length, w.units_searched) == (12340, 16320)
        assert sum(rows) <= w.units_searched // 2


class TestLevInterval:
    def test_interval_concentrates(self):
        N = 101
        B = GSet(CyclicGroup(N), range(5))
        res = lev_interval(B, eps=0.25, delta=0.2)
        assert res.hypothesis_met
        assert res.length == math.ceil(0.2 * N) - 1
        assert res.exceptions == 0
        assert res.conclusion_ok

    def test_full_group_hypothesis_fails(self):
        B = GSet(CyclicGroup(31), range(31))
        res = lev_interval(B, eps=0.25, delta=0.2)
        assert not res.hypothesis_met
        assert res.start is None and res.conclusion_ok is None

    def test_window_counts_exceptions(self):
        # two antipodal points have |B^(1)| = 0, so a tiny delta fails the gate
        B = GSet(CyclicGroup(20), [0, 10])
        res = lev_interval(B, eps=0.1, delta=0.1)
        assert res.coefficient == pytest.approx(0.0, abs=1e-12)
        assert not res.hypothesis_met

    def test_param_validation(self):
        B = GSet(CyclicGroup(11), [0])
        with pytest.raises(ValueError):
            lev_interval(B, eps=0.0, delta=0.2)
        with pytest.raises(ValueError):
            lev_interval(B, eps=0.2, delta=0.5)
        with pytest.raises(ValueError):
            lev_interval(GSet(CyclicGroup(11), []), eps=0.2, delta=0.2)

    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=6),
        st.sampled_from([0.1, 0.25, 0.4]),
        st.sampled_from([0.1, 0.2, 0.3]),
    )
    @settings(max_examples=120)
    def test_no_false_certificates(self, elems, eps, delta):
        """Whenever the gate passes the returned window really does the job."""
        N = 31
        B = GSet(CyclicGroup(N), elems)
        res = lev_interval(B, eps, delta)
        if res.hypothesis_met:
            assert res.length < delta * N
            window = {(res.start + j) % N for j in range(res.length + 1)}
            outside = len(set(B.elements) - window)
            assert outside == res.exceptions
            assert outside < eps * len(B)
            assert res.conclusion_ok


@st.composite
def lev_cases(draw):
    """(N, elements): N anywhere in [1, 2^62], with up to 12 points spread over Z/N or packed near 0 or N."""
    N = draw(st.integers(1, 1 << 62))
    near = st.integers(0, min(N - 1, 1000)) | st.integers(max(0, N - 1000), N - 1)
    return N, draw(st.sets(st.integers(0, N - 1) | near, min_size=1, max_size=12))


class TestLevCoefficient:
    @given(lev_cases())
    @example((1, {0}))
    @example(((1 << 62) - 57, {0, 1, 5, (1 << 62) - 58}))
    @example(((1 << 62), {(1 << 61) - 1, (1 << 61) + 3, (1 << 62) - 1}))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_direct_sum(self, case):
        """|B^(1)| from one numpy sum agrees with the term-by-term oracle within 1e-9, N up to 2^62."""
        N, elems = case
        B = GSet(CyclicGroup(N), elems)
        res = lev_interval(B, 0.25, 0.2)
        assert res.coefficient == pytest.approx(abs(dft_coefficient(elems, N, 1)), abs=1e-9)


def first_best_window(elems, N, l):
    """(start, count) of the first largest of the window counts of the oracle."""
    counts = brute_window_counts(elems, N, l)
    return counts.index(max(counts)), max(counts)


def candidate_window_counts(elems, N, l):
    """{start: count} over start 0 and every (p - l) mod N, p in elems, counted point by point with Python ints."""
    return {s: sum((p - s) % N <= l for p in elems) for s in {0, *((p - l) % N for p in elems)}}


@st.composite
def window_cases(draw):
    """(N, elements, l): N <= 60, any l in [0, N - 1], sets that are random, a cluster across 0, or spaced for ties."""
    N = draw(st.integers(1, 60))
    l = draw(st.integers(0, N - 1))
    kind = draw(st.sampled_from(["random", "wrap", "ties"]))
    if kind == "random":
        elems = draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=N))
    elif kind == "wrap":
        width = draw(st.integers(1, N))
        elems = {(N - width // 2 + j) % N for j in range(width)}
    else:
        gap = draw(st.integers(1, N))
        elems = set(range(draw(st.integers(0, gap - 1)), N, gap))
    return N, elems, l


class TestWindowCounts:
    """_best_window against the first largest count of brute_window_counts."""

    @given(window_cases())
    @example((1, {0}, 0))
    @example((10, {0, 1, 9}, 9))
    @example((12, {0, 4, 8}, 1))
    @settings(max_examples=500)
    def test_matches_brute_force(self, case):
        N, elems, l = case
        assert _best_window(GSet(CyclicGroup(N), elems), l) == first_best_window(elems, N, l)

    def test_wrapping_window(self):
        # starts 8 and 9 of Z/10 reach across 0; of counts [2, 1, 0, 0, 0, 0, 0, 1, 2, 3] start 9 is best
        assert _best_window(GSet(CyclicGroup(10), [0, 1, 9]), 2) == (9, 3)
        # a tie between 0 and a later start goes to 0
        assert _best_window(GSet(CyclicGroup(10), [0, 1, 5, 6]), 1) == (0, 2)

    @pytest.mark.parametrize("N", [groups_mod.DENSE_ORDER_LIMIT + 1, (1 << 62) - 57, 1 << 62])
    def test_decided_past_the_dense_limit(self, N):
        # no array of N entries: points at both ends of Z/N, so p + N reaches 2N - 1 <= 2^63 - 1, and windows up to N - 1
        elems = [0, 1, 5, N // 3, N // 2, N - 7, N - 2, N - 1]
        B = GSet(CyclicGroup(N), elems)
        for l in (0, 1, 6, N // 3, N // 2, N - 2, N - 1):
            got = _best_window(B, l)
            counts = candidate_window_counts(elems, N, l)
            best = max(counts.values())
            assert got == (min(s for s, c in counts.items() if c == best), best)
            assert 0 <= got[0] < N and 1 <= got[1] <= len(elems)


class TestGapCover:
    def test_concentrated_set(self):
        A = GSet(CyclicGroup(31), [0, 1, 2])
        res = gap_cover(A, b=29, l=4)
        assert res.hypothesis_met
        assert res.start == 0
        assert res.outside == 0

    def test_spread_set_fails_hypothesis(self):
        A = GSet(CyclicGroup(31), [0, 10, 20])
        res = gap_cover(A, b=0, l=2)
        assert not res.hypothesis_met
        assert res.start is None

    def test_fault_is_a_failed_containment_claim(self, monkeypatch):
        # a cover start outside the concentrated arc breaks the re-verification
        monkeypatch.setattr(rectify_mod, "_shortest_arcs", lambda rows, N: ([0], [5]))
        res = gap_cover(GSet(CyclicGroup(31), [0, 1, 2]), b=29, l=4)
        assert res.hypothesis_met and res.start == 5
        assert res.checks == {"containment": False} and res.ok is False

    def test_length_gate(self):
        A = GSet(CyclicGroup(31), [0, 1])
        with pytest.raises(ValueError):
            gap_cover(A, b=0, l=11)

    def test_window_wraps(self):
        A = GSet(CyclicGroup(31), [29, 30, 0])
        res = gap_cover(A, b=28, l=5)
        assert res.hypothesis_met
        span = {(res.start + j) % 31 for j in range(res.length + 1)}
        assert set(A.elements) <= span

    @given(st.sets(st.integers(0, 30), min_size=1, max_size=5), st.integers(0, 30))
    @settings(max_examples=120)
    def test_certified_interval_contains_a(self, elems, b):
        A = GSet(CyclicGroup(31), elems)
        res = gap_cover(A, b=b, l=9)
        if res.hypothesis_met:
            span = {(res.start + j) % 31 for j in range(res.length + 1)}
            assert set(A.elements) <= span


@st.composite
def concentrated_cases(draw):
    """A set inside an arc of length m of Z/N with 2m < N/3, so gap_cover's hypothesis holds."""
    N = draw(st.integers(4, 150))
    m = draw(st.integers(0, (N - 1) // 6))
    c = draw(st.integers(0, N - 1))
    offsets = draw(st.sets(st.integers(0, m), min_size=1))
    return N, m, [(c + o) % N for o in offsets]


class TestGapCoverStart:
    @given(concentrated_cases())
    @settings(max_examples=200, deadline=None)
    def test_start_is_the_unit_one_arc_start(self, case):
        N, m, elems = case
        res = gap_cover(GSet(CyclicGroup(N), elems), b=-m, l=2 * m)
        assert res.hypothesis_met
        assert res.start == brute_shortest_arc(elems, N)[1]


class TestDiamFromSpectrum:
    def test_short_interval_z101(self):
        A = GSet(CyclicGroup(101), range(5))
        res = diam_from_spectrum(A, delta=0.2)
        assert res.hypothesis_met
        assert res.threshold == pytest.approx(9 - 4 * 0.04 * 5)
        assert res.diameter_upper is not None
        assert res.diameter_upper < 0.2 * 101
        assert res.conclusion_ok
        assert diameter(A).length <= res.diameter_upper

    @pytest.mark.parametrize(
        "target, result, message",
        [
            ("lev_interval", rectify_mod.LevWindow(False, 0.0, 0.0), "concentration failed"),
            ("_gap_cover", rectify_mod.GapCoverResult(False, 5, 2, 19), "gap hypothesis failed"),
            ("_gap_cover", rectify_mod.GapCoverResult(True, 0, 2, 19, 0, False), "gap normalization exceeded"),
        ],
    )
    def test_fault_names_delta_and_r(self, monkeypatch, target, result, message):
        # frequency 1 dominates the difference set of an interval
        monkeypatch.setattr(rectify_mod, target, lambda *args: result)
        with pytest.raises(RuntimeError, match=rf"{message} .*\(delta = 0.2, r = 1\)$"):
            diam_from_spectrum(GSet(CyclicGroup(101), range(5)), delta=0.2)

    def test_singleton(self):
        res = diam_from_spectrum(GSet(CyclicGroup(101), [7]), delta=0.1)
        assert res.hypothesis_met
        # the certificate is a window bound, not the tight value
        assert 0 <= res.diameter_upper < 0.1 * 101
        assert res.conclusion_ok

    def test_spread_set_fails_gate(self):
        A = GSet(CyclicGroup(101), [0, 17, 35, 52, 70, 88])
        res = diam_from_spectrum(A, delta=0.1)
        assert not res.hypothesis_met
        assert res.conclusion_ok is None

    @pytest.mark.parametrize("elems", [(0, 1, 2), (0, 5, 40000)])
    def test_large_prime_matches_direct_sums(self, elems):
        """Above 2^16 the spectrum keeps no magnitude array; the chosen frequency must still be the true maximum."""
        N, delta = 65537, 0.3
        A = GSet(CyclicGroup(N), elems)
        D = difference_set(A, A)
        best = max(abs(dft_coefficient(D.elements, N, r)) for r in range(1, N))
        res = diam_from_spectrum(A, delta)
        assert res.hypothesis_met == (best >= res.threshold)
        if res.hypothesis_met:
            assert res.coefficient == pytest.approx(best, abs=1e-9)
            assert abs(dft_coefficient(D.elements, N, res.frequency)) == pytest.approx(best, abs=1e-9)

    def test_delta_gate(self):
        A = GSet(CyclicGroup(101), [0, 1])
        with pytest.raises(ValueError):
            diam_from_spectrum(A, delta=0.34)
        with pytest.raises(ValueError):
            diam_from_spectrum(A, delta=0.0)

    @given(
        st.sets(st.integers(0, 100), min_size=1, max_size=6),
        st.sampled_from([0.1, 0.2, 0.3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_bounds_are_true(self, elems, delta):
        A = GSet(CyclicGroup(101), elems)
        res = diam_from_spectrum(A, delta)
        if res.hypothesis_met:
            assert res.conclusion_ok
            assert diameter(A).length <= res.diameter_upper
            assert res.diameter_upper < delta * 101


_N62 = (1 << 62) - 57


@st.composite
def _groups_and_pools(draw, moduli):
    """A group, Z/N with N drawn from moduli, (Z/2)^n, (Z/3)^n or a window, and a list of its elements."""
    kind = draw(st.sampled_from(["cyclic", "torsion", "window"]))
    if kind == "cyclic":
        G = CyclicGroup(draw(moduli))
    elif kind == "torsion":
        r = draw(st.sampled_from([2, 3]))
        G = TorsionGroup(r, draw(st.integers(1, 5 if r == 2 else 3)))
    else:
        lo = draw(st.integers(-60, 60))
        G = IntegerWindow(lo, lo + draw(st.integers(0, 80)))
        return G, list(range(G.lo, G.hi + 1))
    return G, [G.element_at(i) for i in range(G.order)]


def _on_both_routes(A, B, mapping, k):
    """(ok, tuples_compared, counterexample) of freiman_iso_check with every check on the graph route, and at the shipped crossover; they must agree."""
    fields = []
    for above in (0, rectify_mod._GRAPH_ABOVE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rectify_mod, "_GRAPH_ABOVE", above)
            got = freiman_iso_check(A, B, mapping, k)
        assert got.order == k
        fields.append((got.ok, got.tuples_compared, got.counterexample))
    assert fields[0] == fields[1]
    return fields[0]


def _count_tables(monkeypatch):
    """The (s, k) of every call to _multiset_table, in a list."""
    calls = []
    real = rectify_mod._multiset_table
    monkeypatch.setattr(rectify_mod, "_multiset_table", lambda s, k: calls.append((s, k)) or real(s, k))
    return calls


@st.composite
def _window_maps(draw):
    """(A, B, mapping, k): an AP-subset or a random set of Z/p, p <= 1000, of 8-14 points, mapped into a window.

    An AP-subset a + d*I maps to I, and a random set to its residues; either
    map may then be perturbed at one point, so many maps are no isomorphism.
    """
    p = draw(st.sampled_from([p for p in range(101, 1000) if is_prime(p)]))
    n, k = draw(st.integers(8, 14)), draw(st.integers(3, 4))
    if draw(st.booleans()):
        a, d = draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))
        I = sorted(draw(st.sets(st.integers(0, draw(st.integers(n - 1, 3 * n))), min_size=n, max_size=n)))
        mapping = {(a + d * i) % p: i for i in I}
    else:
        mapping = {x: x for x in draw(st.sets(st.integers(0, p - 1), min_size=n, max_size=n))}
    if draw(st.booleans()):
        x = draw(st.sampled_from(sorted(mapping)))
        moved = mapping[x] + draw(st.sampled_from([-1, 1, 2]))
        assume(moved not in mapping.values())
        mapping[x] = moved
    B = GSet(IntegerWindow(min(mapping.values()), max(mapping.values())), mapping.values())
    return GSet(CyclicGroup(p), mapping), B, mapping, k


class TestFreimanIso:
    def test_identity(self):
        g = CyclicGroup(11)
        A = GSet(g, [0, 2, 5])
        res = freiman_iso_check(A, A, {a: a for a in A.elements}, 2)
        assert res.ok

    def test_collision_detected(self):
        g = CyclicGroup(101)
        A = GSet(g, [0, 1, 2])
        B = GSet(g, [0, 1, 3])
        mapping = {0: 0, 1: 1, 2: 3}
        res = freiman_iso_check(A, B, mapping, 2)
        assert not res.ok
        assert res.counterexample is not None
        s, t = res.counterexample
        # the witness pair agrees in A (0+2 = 1+1) but not in the image
        assert sum(s) % 101 == sum(t) % 101
        assert sum(mapping[a] for a in s) % 101 != sum(mapping[a] for a in t) % 101

    def test_affine_maps_are_isomorphisms(self):
        g = CyclicGroup(23)
        A = GSet(g, [1, 5, 9, 11])
        mapping = {a: (2 * a + 5) % 23 for a in A.elements}
        B = GSet(g, mapping.values())
        for k in (2, 3, 4):
            assert freiman_iso_check(A, B, mapping, k).ok

    def test_order_hierarchy(self):
        # order-k isomorphisms restrict to every lower order >= 2
        g = CyclicGroup(17)
        A = GSet(g, [0, 1, 4, 6])
        mapping = {a: (5 * a + 2) % 17 for a in A.elements}
        B = GSet(g, mapping.values())
        assert freiman_iso_check(A, B, mapping, 4).ok
        assert freiman_iso_check(A, B, mapping, 3).ok
        assert freiman_iso_check(A, B, mapping, 2).ok

    def test_matches_brute_force(self):
        g = CyclicGroup(13)
        W = IntegerWindow(-100, 100)
        for elems, image in [
            ([0, 1, 2], [0, 1, 2]),
            ([0, 1, 2], [0, 1, 3]),
            ([0, 5, 10], [0, 1, 2]),
            ([1, 2, 4, 8], [1, 2, 4, 8]),
        ]:
            A = GSet(g, elems)
            B = GSet(W, image)
            mapping = dict(zip(A.elements, sorted(image)))
            for k in (2, 3):
                got = freiman_iso_check(A, B, mapping, k).ok
                want = brute_freiman(
                    A.elements,
                    mapping,
                    k,
                    lambda x, y: (x + y) % 13,
                    lambda x, y: x + y,
                )
                assert got == want

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_loop(self, data):
        k = data.draw(st.integers(2, 5))
        largest = 7 if k < 4 else 5
        shape = data.draw(st.sampled_from(["random", "affine", "image-only"]))
        if shape == "image-only":
            # distinct k-sums in the domain, so every clash is on the image side
            s = data.draw(st.integers(3, largest))
            A = GSet(IntegerWindow(0, (k + 1) ** largest), [(k + 1) ** j for j in range(s)])
        else:
            G, pool = data.draw(_groups_and_pools(st.integers(1, 150)))
            s = data.draw(st.integers(0 if shape == "affine" else min(3, len(pool)), min(largest, len(pool))))
            A = GSet(G, data.draw(st.permutations(pool))[:s])
        if shape == "affine":
            c = data.draw(st.sampled_from(pool))
            B = A
            if G.kind == "window":
                mapping = {a: 3 * a + c for a in A.elements}
                B = GSet(IntegerWindow(3 * G.lo + c, 3 * G.hi + c), mapping.values())
            elif G.kind == "torsion":
                mapping = {a: G.add(a, c) for a in A.elements}
            else:
                u = data.draw(st.sampled_from([u for u in range(1, G.modulus + 1) if math.gcd(u, G.modulus) == 1]))
                mapping = {a: (u * a + c) % G.modulus for a in A.elements}
        else:
            H, hpool = data.draw(_groups_and_pools(st.integers(max(1, s), 40)))
            assume(len(hpool) >= s)
            image = data.draw(st.permutations(hpool))[:s]
            mapping = dict(zip(A.elements, image))
            B = GSet(H, image)
        got = _on_both_routes(A, B, mapping, k)
        assert got == loop_freiman(A, B, mapping, k)
        if math.comb(len(A) + k - 1, k) <= 120:
            assert got[0] == brute_freiman(A.elements, mapping, k, A.group.add, B.group.add)

    @given(_window_maps())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_loop_past_the_crossover(self, case):
        A, B, mapping, k = case
        assert _on_both_routes(A, B, mapping, k) == loop_freiman(A, B, mapping, k)

    @pytest.mark.parametrize(
        "A, image, k",
        [
            # k * 2^61 = 2^63: int64 sums of the domain wrap
            (GSet(IntegerWindow(-2**61, 2**61), [-2**61, 0, 2**61]), [0, 1, 2], 4),
            # image values far outside B's window and int64
            (GSet(CyclicGroup(101), [0, 1, 2]), [0, 2**70, 2**71], 2),
            (GSet(CyclicGroup(101), [0, 1, 2]), [0, 2**70, 2**71 + 1], 3),
            (GSet(TorsionGroup(2, 3), [(0, 0, 1), (0, 1, 0), (1, 0, 0)]), [0, 2**70, 2**71], 2),
            # k * (N - 1) >= 2^63 for N = 2^62 - 57; x maps to x or x - N
            (GSet(CyclicGroup(_N62), [_N62 // 2 - 5, _N62 // 2 + 2, _N62 // 2 + 4, _N62 - 9]), None, 3),
            (GSet(CyclicGroup(_N62), [_N62 // 2 - 5, _N62 // 2 + 2, _N62 // 2 + 4, _N62 - 9]), None, 4),
            (GSet(CyclicGroup(_N62), [1, 4, _N62 - 4, _N62 - 2]), None, 4),
        ],
    )
    def test_exact_at_the_int64_edges(self, A, image, k):
        if image is None:
            image = [x if 2 * x < _N62 else x - _N62 for x in A.elements]
        mapping = dict(zip(A.elements, image))
        B = GSet(IntegerWindow(0, 10), [0, 1, 2])
        assert _on_both_routes(A, B, mapping, k) == loop_freiman(A, B, mapping, k)

    def test_the_route_follows_the_crossover(self, monkeypatch):
        calls = _count_tables(monkeypatch)
        p, I = 997, [0, 1, 3, 4, 6, 8, 9, 11, 12, 14, 17, 19, 20, 22, 23, 25, 27, 30]
        mapping = {(5 + 41 * i) % p: i for i in I}  # 4 * 30 < 997: an isomorphism of order 4
        A, B = GSet(CyclicGroup(p), mapping), GSet(IntegerWindow(0, 30), I)
        assert math.comb(18 + 4 - 1, 4) > rectify_mod._GRAPH_ABOVE
        got = freiman_iso_check(A, B, mapping, 4)
        assert (got.ok, got.tuples_compared, got.counterexample) == (True, 5985, None)
        assert calls == []
        small = GSet(CyclicGroup(p), [1, 2, 4, 8, 16])  # C(5 + 2 - 1, 2) = 15 multisets
        assert freiman_iso_check(small, small, {a: a for a in small.elements}, 2).ok
        assert calls == [(5, 2)]
        mapping[(5 + 41 * 30) % p] = 31  # positions 3 + 30 = 11 + 22, but images 3 + 31 != 11 + 22
        B = GSet(IntegerWindow(0, 31), mapping.values())
        got = freiman_iso_check(A, B, mapping, 4)
        assert not got.ok
        assert calls == [(5, 2), (18, 4)]
        assert (got.ok, got.tuples_compared, got.counterexample) == loop_freiman(A, B, mapping, 4)

    def test_validation(self):
        g = CyclicGroup(11)
        A = GSet(g, [0, 1])
        with pytest.raises(ValueError):
            freiman_iso_check(A, A, {0: 0, 1: 1}, 1)
        with pytest.raises(ValueError):
            freiman_iso_check(A, A, {0: 0}, 2)
        with pytest.raises(ValueError):
            freiman_iso_check(A, A, {0: 0, 1: 0}, 2)
        # injectivity is decided in B's group: 11 is 0 in Z/11, and (2, 0) is (0, 0) in (Z/2)^2
        with pytest.raises(ValueError, match="not injective"):
            freiman_iso_check(A, A, {0: 0, 1: 11}, 2)
        V = GSet(TorsionGroup(2, 2), [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="not injective"):
            freiman_iso_check(V, V, {(0, 0): (0, 0), (1, 0): (2, 0)}, 2)


class TestRectify:
    def test_short_set_z7(self):
        A = GSet(CyclicGroup(7), [1, 2, 3])
        out = rectify(A, 2)
        assert out.succeeded
        w = out.witness
        assert w.image.elements == (0, 1, 2)
        assert w.verified
        mapping = {
            a: ((a * w.dilation - w.shift) % 7) for a in A.elements
        }
        assert freiman_iso_check(A, w.image, mapping, 2).ok

    def test_full_group_fails(self):
        A = GSet(CyclicGroup(7), range(7))
        out = rectify(A, 2)
        assert not out.succeeded
        assert out.required >= 7

    def test_spread_progression_z23(self):
        A = GSet(CyclicGroup(23), [0, 5, 10])
        out = rectify(A, 3)
        assert out.succeeded
        assert out.witness.length == 2
        assert out.witness.image.elements == (0, 1, 2)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            rectify(GSet(CyclicGroup(10), [0, 1]), 2)

    def test_past_the_iso_budget_is_unverified(self, monkeypatch):
        A = GSet(CyclicGroup(7), [1, 2, 3])  # C(3 + 2 - 1, 2) = 6 multisets
        monkeypatch.setattr(rectify_mod, "_ISO_BUDGET", 5)
        assert rectify(A, 2).witness.verified is None
        monkeypatch.setattr(rectify_mod, "_ISO_BUDGET", 6)
        assert rectify(A, 2).witness.verified is True

    def test_near_miss_diameter(self):
        # diam 3 with k=2 needs 2*3 < 7
        A = GSet(CyclicGroup(7), [0, 1, 2, 3])
        out = rectify(A, 2)
        assert out.succeeded
        assert out.required == 6

    @given(st.sets(st.integers(0, 28), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_failure_certifies_large_diameter(self, elems):
        A = GSet(CyclicGroup(29), elems)
        out = rectify(A, 2)
        if not out.succeeded:
            assert 2 * out.diameter.length >= 29
        else:
            w = out.witness
            mapping = {
                a: ((a * w.dilation - w.shift) % 29) for a in A.elements
            }
            assert freiman_iso_check(A, w.image, mapping, 2).ok

    @given(st.sampled_from([p for p in range(2, 201) if is_prime(p)]).flatmap(
        lambda N: st.tuples(st.just(N), st.sets(st.integers(0, N - 1), min_size=1, max_size=min(N, 7)))
    ), st.integers(2, 4))
    @example((2, {1}), 2)
    @example((199, {7}), 4)
    @settings(max_examples=150, deadline=None)
    def test_image_is_the_normalized_diameter_witness(self, case, k):
        N, elems = case
        A = GSet(CyclicGroup(N), elems)
        out = rectify(A, k)
        if not out.succeeded:
            assert k * diameter(A).length >= N
            return
        w = out.witness
        assert list(w.image.elements) == sorted((w.dilation * x - w.shift) % N for x in elems)
        assert w.image.elements == diameter(A).normalized.elements

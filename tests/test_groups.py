"""Set arithmetic against naive pairwise enumeration."""

import itertools
import math
import os
import random
import sys

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import addcomb.groups as groups_mod
from addcomb import (
    CyclicGroup,
    GroupMismatchError,
    GSet,
    IntegerWindow,
    TorsionGroup,
    convolution_counts,
    difference_ratio,
    difference_set,
    dilate,
    doubling_ratio,
    exhaustive_sets,
    greedy_translates,
    is_subset,
    negate,
    random_sets,
    subgroup_generated,
    sumset,
    translate,
)
from addcomb.cli import main
from oracles import (
    brute_greedy_translates,
    loop_torsion_add,
    naive_iterated_mod,
    naive_subgroup,
    naive_sumset_int,
    naive_sumset_mod,
    naive_sumset_vec,
)

Z7 = CyclicGroup(7)
Z11 = CyclicGroup(11)
Z101 = CyclicGroup(101)
W = IntegerWindow(-1000, 1000)


def cyclic_subsets(N, max_size=6):
    return st.sets(st.integers(0, N - 1), min_size=1, max_size=max_size).map(
        lambda s: GSet(CyclicGroup(N), s)
    )


class TestGSet:
    def test_sorted_and_deduped(self):
        A = GSet(Z11, [3, 0, 3, 14])
        assert A.elements == (0, 3)

    def test_normalizes_negatives(self):
        assert GSet(Z7, [-1]).elements == (6,)

    def test_window_range_check(self):
        with pytest.raises(ValueError):
            GSet(IntegerWindow(0, 5), [6])

    def test_immutable(self):
        A = GSet(Z7, [1])
        with pytest.raises(AttributeError):
            A.elements = (2,)

    def test_packed_is_read_only(self):
        A = GSet(Z7, [1, 2])
        for S in (A, A + A, translate(A, 3)):
            with pytest.raises(ValueError):
                S.packed()[0] = 5
        assert A.elements == (1, 2) and A == GSet(Z7, [2, 1])

    def test_from_indices_does_not_share_a_writable_base(self):
        base = np.array([0, 1, 2, 3], dtype=np.int64)
        A = GSet._from_indices(Z7, base[1:3])
        base[1] = 6
        assert A.packed().tolist() == [1, 2] and A.elements == (1, 2)

    def test_membership_and_eq(self):
        A = GSet(Z7, [1, 2])
        assert 1 in A and 5 not in A
        assert A == GSet(Z7, [2, 1])
        assert A != GSet(Z11, [1, 2])
        assert hash(A) == hash(GSet(Z7, [1, 2]))

    def test_torsion_elements(self):
        g = TorsionGroup(2, 3)
        A = GSet(g, [(1, 0, 0), (0, 1, 0)])
        assert A.elements == ((0, 1, 0), (1, 0, 0))
        assert g.element_at(g.index((1, 0, 1))) == (1, 0, 1)


class TestSumset:
    def test_cyclic_wraps(self):
        A = GSet(Z11, [9, 10])
        assert sumset(A, A).elements == (7, 8, 9)

    def test_window_exact(self):
        A = GSet(W, [0, 1, 3])
        assert sumset(A, A).elements == (0, 1, 2, 3, 4, 6)

    def test_empty_operand(self):
        A = GSet(Z7, [1])
        assert len(sumset(A, GSet(Z7, []))) == 0

    def test_empty_window_difference_spans_every_difference(self):
        # E - E, like E - F, lies in [lo - hi, hi - lo], the range a difference can take
        E = GSet(IntegerWindow(2, 5), [])
        assert difference_set(E, E).group == difference_set(E, GSet(E.group, [])).group == IntegerWindow(-3, 3)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            sumset(GSet(Z7, [1]), GSet(Z11, [1]))

    def test_torsion_oracle(self):
        g = TorsionGroup(3, 2)
        A = GSet(g, [(0, 1), (2, 2)])
        B = GSet(g, [(1, 1), (2, 0)])
        got = [tuple(x) for x in sumset(A, B).elements]
        assert got == naive_sumset_vec(A.elements, B.elements, 3)

    @given(
        st.sets(st.integers(0, 100), min_size=1, max_size=12),
        st.sets(st.integers(0, 100), min_size=1, max_size=12),
    )
    def test_cyclic_oracle(self, a, b):
        A, B = GSet(Z101, a), GSet(Z101, b)
        assert list(sumset(A, B).elements) == naive_sumset_mod(a, b, 101)

    @given(
        st.sets(st.integers(-200, 200), min_size=1, max_size=12),
        st.sets(st.integers(-200, 200), min_size=1, max_size=12),
    )
    def test_window_oracle(self, a, b):
        A, B = GSet(W, a), GSet(W, b)
        assert list(sumset(A, B).elements) == naive_sumset_int(a, b)

    @given(cyclic_subsets(37), cyclic_subsets(37))
    def test_commutes(self, A, B):
        assert sumset(A, B) == sumset(B, A)


class TestDerivedOps:
    def test_difference_singleton(self):
        A = GSet(Z11, [5])
        assert difference_set(A, A).elements == (0,)

    def test_difference_covers_z7(self):
        # {0,1,3} mod 7 has all seven residues among its pairwise differences
        A = GSet(Z7, [0, 1, 3])
        assert len(difference_set(A, A)) == 7

    def test_difference_window(self):
        A = GSet(W, [0, 1, 3])
        assert difference_set(A, A).elements == (-3, -2, -1, 0, 1, 2, 3)

    def test_iterated_matches_oracle(self):
        # the k-fold sum is a chain of sumsets, as growth_table and verify_incm form it
        A = GSet(Z101, [0, 1])
        assert sumset(sumset(A, A), A).elements == (0, 1, 2, 3)
        B = GSet(Z11, [2, 5, 7])
        assert list(sumset(sumset(sumset(B, B), B), B).elements) == naive_iterated_mod([2, 5, 7], 4, 11)

    def test_negate_torsion(self):
        g = TorsionGroup(4, 2)
        A = GSet(g, [(1, 3)])
        assert negate(A).elements == ((3, 1),)

    @given(cyclic_subsets(31))
    def test_difference_symmetric_contains_zero(self, A):
        D = difference_set(A, A)
        assert negate(D) == D
        assert 0 in D


class TestAffineMaps:
    def test_dilate_identity(self):
        A = GSet(Z7, [0, 1, 2])
        assert dilate(A, 1) == A

    def test_dilate_even_progression(self):
        # 4 is the inverse of 2 mod 7, so it straightens {0,2,4}
        assert dilate(GSet(Z7, [0, 2, 4]), 4).elements == (0, 1, 2)

    def test_translate_wraps(self):
        assert translate(GSet(CyclicGroup(5), [0, 1]), 4).elements == (0, 4)

    @given(cyclic_subsets(31), st.integers(1, 30))
    def test_dilate_roundtrip(self, A, lam):
        inv = pow(lam, -1, 31)
        assert dilate(dilate(A, lam), inv) == A

    @given(cyclic_subsets(31), cyclic_subsets(31), st.integers(0, 30))
    def test_translate_invariant_sumset_size(self, A, B, c):
        assert len(sumset(translate(A, c), B)) == len(sumset(A, B))


class TestRatios:
    def test_progression_window(self):
        A = GSet(W, range(10))
        assert doubling_ratio(A) == Fraction(19, 10)

    def test_singleton(self):
        assert doubling_ratio(GSet(Z7, [3])) == 1

    def test_window_013(self):
        A = GSet(W, [0, 1, 3])
        assert doubling_ratio(A) == 2
        assert difference_ratio(A) == Fraction(7, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            doubling_ratio(GSet(Z7, []))

    @given(cyclic_subsets(23))
    @settings(max_examples=60)
    def test_sumset_size_bounds(self, A):
        n = len(A)
        assert n <= len(sumset(A, A)) <= min(23, n * (n + 1) // 2)

    @given(st.sets(st.integers(-50, 50), min_size=1, max_size=8))
    def test_ruzsa_square_bound(self, a):
        # |A-A| <= K^2 |A| with K the doubling ratio, checked empirically
        A = GSet(W, a)
        K = doubling_ratio(A)
        assert len(difference_set(A, A)) <= K * K * len(A)


class TestSubsetAndPacking:
    def test_is_subset(self):
        A = GSet(Z11, [1, 2])
        assert is_subset(A, GSet(Z11, [1, 2, 5]))
        assert not is_subset(GSet(Z11, [1, 3]), A)
        assert is_subset(GSet(Z11, []), A)

    def test_packed_matches_elements(self):
        A = GSet(Z11, [4, 7])
        assert np.array_equal(A.packed(), np.array([4, 7]))

    def test_indicator(self):
        A = GSet(CyclicGroup(4), [0, 3])
        assert A.indicator().tolist() == [1, 0, 0, 1]


# _DENSE_PAIR_FACTOR values that force each path of the sumset kernel: 0 never
# marks densely, 2^40 always does when the order is at most DENSE_ORDER_LIMIT.
KERNEL_PATHS = {"unique": 0, "dense": 1 << 40}


def packed_by_index(S):
    g = S.group
    if g.kind == "torsion":
        return np.asarray([g.index(x) for x in S.elements], dtype=np.int64)
    return np.asarray(S.elements, dtype=np.int64)


def torsion_subsets(r, n, max_size=10):
    elem = st.tuples(*[st.integers(0, r - 1)] * n)
    return st.lists(elem, min_size=1, max_size=max_size)


class TestSumsetKernel:
    @pytest.mark.parametrize("path", sorted(KERNEL_PATHS))
    @pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 101, 65537, groups_mod.DENSE_ORDER_LIMIT + 1])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cyclic_oracle(self, N, path, data):
        elems = st.sets(st.integers(0, N - 1), min_size=1, max_size=20)
        a, b = data.draw(elems), data.draw(elems)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_DENSE_PAIR_FACTOR", KERNEL_PATHS[path])
            S = sumset(GSet(CyclicGroup(N), a), GSet(CyclicGroup(N), b))
        assert list(S.elements) == naive_sumset_mod(a, b, N)
        assert np.array_equal(S.packed(), packed_by_index(S))

    @pytest.mark.parametrize("path", sorted(KERNEL_PATHS))
    @pytest.mark.parametrize("r,n", [(2, 6), (3, 4), (5, 2)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_torsion_oracle(self, r, n, path, data):
        g = TorsionGroup(r, n)
        a, b = data.draw(torsion_subsets(r, n)), data.draw(torsion_subsets(r, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_DENSE_PAIR_FACTOR", KERNEL_PATHS[path])
            S = sumset(GSet(g, a), GSet(g, b))
        assert list(S.elements) == naive_sumset_vec(set(a), set(b), r)
        assert np.array_equal(S.packed(), packed_by_index(S))

    @pytest.mark.parametrize("path", sorted(KERNEL_PATHS))
    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(0, 96), min_size=1, max_size=30),
        st.sets(st.integers(0, 96), min_size=1, max_size=30),
        torsion_subsets(3, 3, max_size=20),
        torsion_subsets(3, 3, max_size=20),
    )
    def test_many_blocks(self, path, a, b, ta, tb):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_BLOCK", 7)
            mp.setattr(groups_mod, "_DENSE_PAIR_FACTOR", KERNEL_PATHS[path])
            cyc = sumset(GSet(CyclicGroup(97), a), GSet(CyclicGroup(97), b))
            win = sumset(GSet(W, a), GSet(W, b))
            tor = sumset(GSet(TorsionGroup(3, 3), ta), GSet(TorsionGroup(3, 3), tb))
        assert list(cyc.elements) == naive_sumset_mod(a, b, 97)
        assert list(win.elements) == naive_sumset_int(a, b)
        assert list(tor.elements) == naive_sumset_vec(set(ta), set(tb), 3)

    @pytest.mark.parametrize(
        "g", [CyclicGroup(1), CyclicGroup(97), CyclicGroup(1 << 62), TorsionGroup(2, 6), TorsionGroup(7, 3), W], ids=repr
    )
    def test_index_add_matches_group_add(self, g):
        rng = np.random.default_rng(0)
        if g.kind == "window":
            a, b = rng.integers(g.lo, g.hi + 1, 9), rng.integers(g.lo, g.hi + 1, 7)
            expected = [[x + y for y in b.tolist()] for x in a.tolist()]
        else:
            a, b = rng.integers(0, g.order, 9), rng.integers(0, g.order, 7)
            a[0], b[0] = g.order - 1, g.order - 1
            at = g.element_at
            expected = [[g.index(g.add(at(x), at(y))) for y in b.tolist()] for x in a.tolist()]
        out = groups_mod._index_add(g, a[:, None], b[None, :])
        assert out.dtype == np.int64
        assert out.tolist() == expected

    @settings(max_examples=8, deadline=None)
    @given(st.integers(300, 400), st.integers(-3, 3), st.randoms(use_true_random=False))
    @example(340, 0, random.Random(1))  # 115,600 pairs: sorted
    @example(360, 0, random.Random(2))  # 129,600 pairs: marked
    def test_both_sides_of_the_crossover_at_a_million(self, size, skew, rnd):
        # at q = 1,000,003 the sums are marked from 8 * (pairs + 1024) >= q, about 124,000 pairs, and sorted below
        q = 1000003
        a, b = rnd.sample(range(q), size + skew), rnd.sample(range(q), size - skew)
        marked = []
        real = groups_mod._marked_sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_marked_sums", lambda *args: marked.append(1) or real(*args))
            S = sumset(GSet(CyclicGroup(q), a), GSet(CyclicGroup(q), b))
        assert marked == ([1] if q <= 8 * (len(a) * len(b) + 1024) else [])
        assert list(S.elements) == sorted({(x + y) % q for x in a for y in b})

    def test_packed_of_window_sumset(self):
        S = sumset(GSet(W, [-5, 0, 7]), GSet(W, [1, 2]))
        assert S.group == IntegerWindow(-4, 9)
        assert S.packed().dtype == np.int64
        assert np.array_equal(S.packed(), packed_by_index(S))

    def test_packed_of_closure_and_support(self):
        g = TorsionGroup(3, 2)
        H = subgroup_generated(GSet(g, [(1, 2)]))
        assert H.elements == ((0, 0), (1, 2), (2, 1))
        assert np.array_equal(H.packed(), packed_by_index(H))
        support = convolution_counts(GSet(CyclicGroup(10), [0, 3]), 2).support
        assert support.elements == (0, 3, 6, 9)
        assert np.array_equal(support.packed(), packed_by_index(support))


def by_index(g, idx):
    return GSet(g, [g.element_at(i) for i in idx])


class _NumpyWithSpiedMarks:
    """numpy, except that np.zeros returns an array whose .all() calls are recorded."""

    def __init__(self, calls):
        class Marks(np.ndarray):
            def all(self, *args, **kwargs):
                calls.append(1)
                return np.ndarray.all(self, *args, **kwargs)

        self._marks = Marks

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        return np.zeros(*args, **kwargs).view(self._marks)


def dense_scan(monkeypatch, block):
    """Force the dense path with blocks of `block` pairs; return the lists that record blocks and mark checks."""
    blocks, checks = [], []
    real_add = groups_mod._index_add
    monkeypatch.setattr(groups_mod, "_DENSE_PAIR_FACTOR", KERNEL_PATHS["dense"])
    monkeypatch.setattr(groups_mod, "_BLOCK", block)
    monkeypatch.setattr(groups_mod, "_index_add", lambda g, a, b: blocks.append(1) or real_add(g, a, b))
    monkeypatch.setattr(groups_mod, "np", _NumpyWithSpiedMarks(checks))
    return blocks, checks


def scan_model(order, rows, block):
    """(blocks, checks) of the documented scan: rows are the index sets of the shorter operand's rows, in order."""
    long = len(rows[0])
    step = max(1, block // long)
    seen, blocks, checks = set(), 0, 0
    for i in range(0, len(rows), step):
        for r in rows[i : i + step]:
            seen |= r
        blocks += 1
        done = i + step
        if done < len(rows) and done * long >= order:
            checks += 1
            if len(seen) == order:
                break
    return blocks, checks


def sum_rows(g, a, b):
    """The rows the kernel scans: the longer operand plus each element of the shorter, as index sets."""
    A, B = GSet(g, a), GSet(g, b)
    if len(A) < len(B):
        A, B = B, A
    return [{g.index(g.add(x, y)) for x in A.elements} for y in B.elements]


class TestDenseScan:
    """The dense scatter runs in blocks and stops once the whole group is marked."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.sets(st.integers(0, 40), min_size=1, max_size=30),
        st.sets(st.integers(0, 40), min_size=1, max_size=12),
        st.integers(1, 40),
    )
    def test_cyclic_blocks(self, N, a, b, block):
        a, b = {x % N for x in a}, {x % N for x in b}
        if N in (len(a), len(b)):
            return  # the whole group takes sumset's shortcut
        g = CyclicGroup(N)
        with pytest.MonkeyPatch.context() as mp:
            blocks, checks = dense_scan(mp, block)
            got = sumset(GSet(g, a), GSet(g, b))
        assert list(got.elements) == naive_sumset_mod(a, b, N)
        assert (len(blocks), len(checks)) == scan_model(N, sum_rows(g, a, b), block)

    @pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (5, 2)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_torsion_blocks(self, r, n, data):
        g = TorsionGroup(r, n)
        a = set(data.draw(torsion_subsets(r, n, max_size=g.order - 1)))
        b = set(data.draw(torsion_subsets(r, n, max_size=8)))
        block = data.draw(st.integers(1, 3 * g.order))
        if g.order in (len(a), len(b)):
            return
        with pytest.MonkeyPatch.context() as mp:
            blocks, checks = dense_scan(mp, block)
            got = sumset(GSet(g, a), GSet(g, b))
        assert list(got.elements) == naive_sumset_vec(a, b, r)
        assert (len(blocks), len(checks)) == scan_model(g.order, sum_rows(g, a, b), block)

    @pytest.mark.parametrize(
        "a, b, blocks, checks",
        [
            # all of Z/31 but 7, plus {0, 1, ...}: whole after the second row of six
            ([x for x in range(31) if x != 7], range(6), 2, 1),
            # 28, 29 and 30 come only from the last row: saturated there, never counted
            (range(28), [0, 1, 3], 3, 1),
            # never saturated: too few pairs to count until the last block
            (range(10), range(4), 4, 0),
        ],
        ids=["mid-scan", "last-block", "unsaturated"],
    )
    def test_planted_scans(self, monkeypatch, a, b, blocks, checks):
        a, b = list(a), list(b)
        blocks_seen, checks_seen = dense_scan(monkeypatch, len(a))  # one row per block
        got = sumset(GSet(CyclicGroup(31), a), GSet(CyclicGroup(31), b))
        assert list(got.elements) == naive_sumset_mod(a, b, 31)
        assert (len(blocks_seen), len(checks_seen)) == (blocks, checks)

    @pytest.mark.parametrize("g", [CyclicGroup(101), TorsionGroup(3, 4)], ids=repr)
    def test_a_single_block_counts_nothing(self, monkeypatch, g):
        blocks, checks = dense_scan(monkeypatch, groups_mod._BLOCK)
        whole_sum = sumset(by_index(g, range(0, g.order, 2)), by_index(g, range(0, g.order, 3)))
        assert len(blocks) == 1 and checks == []
        assert len(whole_sum) == g.order

    def test_marks_are_counted_once_the_pairs_reach_the_order(self, monkeypatch):
        # rows of 100 pairs in Z/101: the first row misses one point, and its
        # 100 pairs are too few to fill the group, so only the second is counted
        blocks, checks = dense_scan(monkeypatch, 100)
        g = CyclicGroup(101)
        got = sumset(GSet(g, range(1, 101)), GSet(g, range(1, 41)))
        assert list(got.elements) == list(range(101))
        assert (len(blocks), len(checks)) == (2, 1)


class TestWholeGroupInclusion:
    @pytest.mark.parametrize("g", [CyclicGroup(1), CyclicGroup(12), TorsionGroup(2, 3), TorsionGroup(3, 2)], ids=repr)
    def test_against_all_but_one(self, g):
        whole = by_index(g, range(g.order))
        for missing in range(g.order):
            almost = by_index(g, [i for i in range(g.order) if i != missing])
            for A in (by_index(g, [missing]), by_index(g, range(g.order)), by_index(g, [i for i in range(g.order) if i != missing])):
                want = set(A.elements) <= set(almost.elements)
                assert is_subset(A, almost) is want
                assert is_subset(A, whole) is True

    def test_whole_group_still_checks_the_ambient(self):
        whole = GSet(CyclicGroup(5), range(5))
        with pytest.raises(GroupMismatchError):
            is_subset(GSet(CyclicGroup(6), [1]), whole)

    def test_a_full_window_is_not_the_whole_group(self):
        # a window's ambient group is Z, so all of the window holds no more than itself
        assert not is_subset(GSet(IntegerWindow(0, 9), [0, 5]), GSet(IntegerWindow(0, 3), range(4)))


# ------------------------------------------------------------------ X <= Y + Z

INCLUSION_GROUPS = st.one_of(
    st.integers(1, 60).map(CyclicGroup),
    st.sampled_from([TorsionGroup(2, 4), TorsionGroup(3, 3), TorsionGroup(5, 2)]),
    st.integers(-30, 30).map(lambda lo: IntegerWindow(lo, lo + 24)),
)


def subsets_of(g):
    """Any subset of g, the empty set and the whole of a finite g included."""
    pool = plain_elements(g)
    some = st.lists(st.sampled_from(pool), max_size=len(pool)).map(lambda xs: GSet(g, xs))
    return st.one_of(some, st.just(GSet(g, [])), st.just(GSet(g, pool)))


def outside(S):
    """A set equal to S plus one point outside it, or None when S is a whole finite group."""
    g = S.group
    if g.kind == "window":
        top = S.elements[-1] + 1 if len(S) else g.lo
        return GSet(IntegerWindow(g.lo, max(g.hi, top)), S.elements + (top,))
    missing = [x for x in plain_elements(g) if x not in S]
    return GSet(g, S.elements + (missing[len(missing) // 2],)) if missing else None


@st.composite
def inclusions(draw):
    """(X, Y, T) in one group, X drawn, Y + (T - T), or Y + (T - T) with one planted point outside it."""
    g = draw(INCLUSION_GROUPS)
    Y, T = draw(subsets_of(g)), draw(subsets_of(g))
    S = sumset(Y, difference_set(T, T))
    planted = outside(S)
    X = draw(st.sampled_from([S] + ([planted] if planted is not None else []) + [draw(subsets_of(S.group))]))
    return X, Y, T


def symmetrized(S):
    """S together with -S."""
    return GSet(S.group, S.elements + negate(S).elements)


@st.composite
def fold_cases(draw):
    """(X, Y, T) with Y and T symmetric or not, X symmetric, arbitrary, or half of Y + (T - T) and a planted point."""
    g = draw(
        st.one_of(
            st.integers(2, 60).map(CyclicGroup),
            st.sampled_from([TorsionGroup(3, 3), TorsionGroup(5, 2), TorsionGroup(2, 4)]),
        )
    )
    some = st.lists(st.integers(0, g.order - 1), min_size=1, max_size=5).map(lambda idx: by_index(g, idx))
    Y, T = draw(some), draw(some)
    if draw(st.booleans()):
        Y = symmetrized(Y)
    if draw(st.booleans()):
        T = symmetrized(T)
    S = sumset(Y, difference_set(T, T))
    shape = draw(st.sampled_from(["sum", "symmetric", "any", "planted"]))
    if shape == "sum":
        X = S
    elif shape == "symmetric":
        X = symmetrized(draw(some))
    elif shape == "any":
        X = draw(some)
    else:
        # the points of Y + (T - T) that are not the lesser of {x, -x}, and one
        # point outside Y + (T - T) whose negation is another point, also outside X
        half = [x for x in S.elements if g.index(g.neg(x)) < g.index(x)]
        missing = [x for x in plain_elements(g) if x not in S and g.neg(x) != x and g.neg(x) not in half]
        X = GSet(g, half + missing[:1])
    return X, Y, T


def scans_at(Y, T, block):
    """Whether _in_sumset scans X <= Y + (T - T) at _BLOCK = block: a dense index space and |Y|*min(|T|^2, order) above block."""
    g = Y.group
    return g.kind != "window" and len(Y) * min(len(T) ** 2, g.order) > block


def folded(X):
    """X less each point whose negation is in X at a lesser index: what the scan gets when -Y = Y."""
    g, held = X.group, set(X.elements)
    return {x for x in held if g.neg(x) not in held or g.index(x) <= g.index(g.neg(x))}


def scan_spies(monkeypatch, block):
    """Patch _BLOCK to block; return the list of packed (x, Y, T) that reach the scan, and a reader of the steps.

    The steps read M for a block of Y + T marked (an index add inside
    _marked_sums) and G for a block of x + t gathered (an index add outside
    it), counted inside the scan only, not in the sums formed before it.
    """
    scans, events, inside = [], [], {"scan": False, "marks": False}
    real_scan, real_add, real_marks = groups_mod._in_sumset_scan, groups_mod._index_add, groups_mod._marked_sums

    def flagged(key, real):
        def run(*args):
            inside[key] = True
            try:
                return real(*args)
            finally:
                inside[key] = False

        return run

    def scan(g, *xyt):
        scans.append(xyt)
        return flagged("scan", real_scan)(g, *xyt)

    def add(*args):
        if inside["scan"]:
            events.append("M" if inside["marks"] else "G")
        return real_add(*args)

    monkeypatch.setattr(groups_mod, "_BLOCK", block)
    monkeypatch.setattr(groups_mod, "_in_sumset_scan", scan)
    monkeypatch.setattr(groups_mod, "_marked_sums", flagged("marks", real_marks))
    monkeypatch.setattr(groups_mod, "_index_add", add)
    return scans, lambda: "".join(events)


def inclusion_model(X, Y, T, block):
    """(answer, steps) of the documented scan, with Python sets: an M per block of Y + T marked, a G per block of rows gathered.

    Y + T is marked by rows of the shorter operand, max(1, block // |longer|)
    rows a block, and the marking stops after a block that is not the last
    once the pairs so far number at least the order and every point is
    marked.  When -Y = Y the scan starts from folded(X).  Then the rows are
    the elements t of T, min(2^k, max(1, block // |rem|)) in the k-th block
    from k = 0, and a point leaves rem once some x + t is marked.
    """
    g = X.group
    longer, shorter = (Y.elements, T.elements) if len(Y) >= len(T) else (T.elements, Y.elements)
    step = max(1, block // len(longer))
    marked, steps = set(), ""
    for i in range(0, len(shorter), step):
        marked |= {g.add(a, b) for a in longer for b in shorter[i : i + step]}
        steps += "M"
        done = i + step
        if done < len(shorter) and done * len(longer) >= g.order and len(marked) == g.order:
            break
    rem = folded(X) if {g.neg(a) for a in Y} == set(Y.elements) else set(X.elements)
    i, k = 0, 0
    while rem:
        if i == len(T):
            return False, steps
        take = T.elements[i : i + min(2**k, max(1, block // len(rem)))]
        i, k = i + len(take), k + 1
        steps += "G"
        rem = {x for x in rem if not any(g.add(x, t) in marked for t in take)}
    return True, steps


class TestInSumset:
    """_in_sumset decides X <= Y + (T - T) like is_subset(X, sumset(Y, difference_set(T, T))), forming the sum only when it is small."""

    @settings(max_examples=400, deadline=None)
    @given(inclusions(), st.integers(1, 7))
    def test_matches_the_formed_sum(self, case, block):
        X, Y, T = case
        want = is_subset(X, sumset(Y, difference_set(T, T)))
        with pytest.MonkeyPatch.context() as mp:
            scans, _ = scan_spies(mp, block)
            assert groups_mod._in_sumset(X, Y, T) is want
        assert len(scans) == scans_at(Y, T, block)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(inclusions(), fold_cases()), st.integers(1, 7))
    def test_blocks_follow_the_documented_scan(self, case, block):
        X, Y, T = case
        if not scans_at(Y, T, block):
            return  # the sum is formed
        with pytest.MonkeyPatch.context() as mp:
            _, steps = scan_spies(mp, block)
            got = groups_mod._in_sumset(X, Y, T)
        assert (got, steps()) == inclusion_model(X, Y, T, block)

    @pytest.mark.parametrize(
        "g", [CyclicGroup(31), CyclicGroup(60), TorsionGroup(2, 4), TorsionGroup(3, 3), TorsionGroup(5, 2)], ids=repr
    )
    @pytest.mark.parametrize("block", range(1, 8))
    def test_the_sum_and_one_planted_point(self, monkeypatch, g, block):
        rng = random.Random(f"{g}:{block}")
        pool = plain_elements(g)
        Y, T = GSet(g, rng.sample(pool, 4)), GSet(g, rng.sample(pool, 2))
        S = sumset(Y, difference_set(T, T))  # at most 12 points, so never the whole group
        planted = outside(S)
        scans, steps = scan_spies(monkeypatch, block)
        assert groups_mod._in_sumset(S, Y, T) is True
        first = steps()
        assert groups_mod._in_sumset(planted, Y, T) is False
        second = steps()[len(first) :]
        assert len(scans) == 2
        assert (True, first) == inclusion_model(S, Y, T, block)
        assert (False, second) == inclusion_model(planted, Y, T, block)
        if block < 4:
            # Y + T marked a row of T per block, then rows gathered until the
            # planted point is left after the last row of T
            assert first.startswith("MMG") and second.startswith("MMG")

    def test_rows_double_from_one(self, monkeypatch):
        # at the default _BLOCK, |Y|*|T|^2 = 600*900 is past it, so the scan runs; the rows of T come 1, 2, 4, 8, 16
        rng = random.Random(5)
        g = CyclicGroup(1000003)
        Y, T = GSet(g, rng.sample(range(g.order), 600)), GSet(g, rng.sample(range(g.order), 30))
        ends = set(sumset(Y, T).elements)
        far = next(x for x in range(g.order) if all((x + t) % g.order not in ends for t in T.elements))
        scans, steps = scan_spies(monkeypatch, groups_mod._BLOCK)
        assert groups_mod._in_sumset(Y, Y, T) is True  # the first row strikes off all of Y: |Y| lookups
        first = steps()
        assert groups_mod._in_sumset(GSet(g, [far]), Y, T) is False
        assert (first.count("G"), steps()[len(first) :].count("G"), len(scans)) == (1, 5, 2)

    @pytest.mark.parametrize("g", [CyclicGroup(12), TorsionGroup(2, 4), TorsionGroup(3, 3)], ids=repr)
    @pytest.mark.parametrize("side", ["Y", "Z"])
    def test_a_whole_operand_holds_every_set(self, monkeypatch, g, side):
        # side Z makes the third operand T whole, and with it T - T
        whole, some = GSet(g, plain_elements(g)), by_index(g, [0, g.order - 1])
        Y, T = (whole, some) if side == "Y" else (some, whole)
        scans, _ = scan_spies(monkeypatch, 1)
        for X in (whole, some, by_index(g, [1])):
            assert groups_mod._in_sumset(X, Y, T) is True
        assert len(scans) == 3

    @pytest.mark.parametrize("g", [CyclicGroup(12), TorsionGroup(3, 2), IntegerWindow(0, 9)], ids=repr)
    @pytest.mark.parametrize("block", [1, groups_mod._BLOCK])
    def test_empty_operands(self, monkeypatch, g, block):
        empty, some = GSet(g, []), GSet(g, plain_elements(g)[:3])
        scan_spies(monkeypatch, block)
        assert groups_mod._in_sumset(empty, some, some) is True
        assert groups_mod._in_sumset(empty, empty, empty) is True
        assert groups_mod._in_sumset(some, empty, some) is False
        assert groups_mod._in_sumset(some, some, empty) is False

    @pytest.mark.parametrize("block", [1, 6, 20])
    def test_the_sum_is_formed_up_to_one_block_of_pairs(self, monkeypatch, block):
        g = CyclicGroup(97)
        T = GSet(g, [5])  # T - T = {0}, so |Y|*min(|T|^2, 97) is |Y|
        scans, _ = scan_spies(monkeypatch, block)
        for size, scanned in ((block, False), (block + 1, True)):
            Y = GSet(g, range(0, 4 * size, 4))
            X = GSet(g, [1, 9])
            want = is_subset(X, sumset(Y, difference_set(T, T)))
            with groups_mod._memo_scope():
                before = len(scans)
                assert groups_mod._in_sumset(X, Y, T) is want
                E = difference_set(T, T)  # the scope's T - T, if the inclusion formed it
                formed = ("sum", *sorted((id(Y), id(E)))) in groups_mod._SCOPE.get()  # keyed by the unordered pair
                decided = ("in_sum", id(X), id(Y), id(T)) in groups_mod._SCOPE.get()  # on either path
            assert (len(scans) - before, formed, decided) == (scanned, not scanned, True)

    def test_no_scan_without_a_dense_index_space(self, monkeypatch):
        big = CyclicGroup(groups_mod.DENSE_ORDER_LIMIT + 1)
        scans, _ = scan_spies(monkeypatch, 1)
        assert groups_mod._in_sumset(GSet(big, [2, 7]), GSet(big, [0, 1]), GSet(big, [1, 6, big.modulus - 1]))
        assert not groups_mod._in_sumset(GSet(W, [4]), GSet(W, [0, 1]), GSet(W, [0, 1]))
        assert scans == []

    def test_one_decision_per_operands_in_a_scope(self, monkeypatch):
        g = CyclicGroup(101)
        X, Y, T = GSet(g, range(0, 30, 3)), GSet(g, range(10)), GSet(g, [0, 10, 20])
        twin = GSet(g, Y.elements)
        scans, _ = scan_spies(monkeypatch, 4)
        with groups_mod._memo_scope():
            assert groups_mod._in_sumset(X, Y, T) and groups_mod._in_sumset(X, Y, T)
            assert len(scans) == 1
            assert groups_mod._in_sumset(X, twin, T)
            assert len(scans) == 2
        assert groups_mod._in_sumset(X, Y, T)
        assert len(scans) == 3

    @pytest.mark.parametrize("block", [1, groups_mod._BLOCK])
    def test_operands_of_other_groups_are_rejected(self, monkeypatch, block):
        a, b = GSet(CyclicGroup(31), [0, 1, 2]), GSet(CyclicGroup(37), [0, 1, 2])
        scan_spies(monkeypatch, block)
        for X, Y, T in ((b, a, a), (a, b, a), (a, a, b)):
            with pytest.raises(GroupMismatchError):
                groups_mod._in_sumset(X, Y, T)


@settings(max_examples=400, deadline=None)
@given(fold_cases(), st.integers(1, 7))
def test_the_symmetric_fold_decides_like_the_formed_sum(case, block):
    X, Y, T = case
    g = X.group
    want = is_subset(X, sumset(Y, difference_set(T, T)))
    with pytest.MonkeyPatch.context() as mp:
        scans, _ = scan_spies(mp, block)
        assert groups_mod._in_sumset(X, Y, T) is want
    if not scans_at(Y, T, block):
        assert scans == []
        return
    folds = negate(Y) == Y  # T - T is symmetric whatever T is
    lesser = folded(X) if folds else set(X.elements)
    assert [scanned.tolist() for scanned, _, _ in scans] == [sorted(map(g.index, lesser))]


DIFFERENCE_GROUPS = st.one_of(
    st.sampled_from([2, 3, 5, 13, 31, 61]).map(CyclicGroup),
    st.sampled_from([4, 12, 36, 60]).map(CyclicGroup),
    st.sampled_from([TorsionGroup(2, 4), TorsionGroup(3, 3), TorsionGroup(5, 2), TorsionGroup(4, 2)]),
)


def reached_only_at(X, Y, T):
    """The points x of X for which the last element of T is the only t with x + t in Y + T."""
    g, marked = X.group, set(sumset(Y, T).elements)
    return [x for x in X.elements if [t for t in T.elements if g.add(x, t) in marked] == [T.elements[-1]]]


@st.composite
def difference_cases(draw):
    """(X, Y, T, shape): X a part of Y + (T - T) or that and a planted miss, T a subgroup, or Y + T the whole group.

    Shape "last" holds a point whose only representation y + t - t' has t'
    the last row of T, so a scan that stops a row early answers False.
    """
    g = draw(DIFFERENCE_GROUPS)
    pool = plain_elements(g)
    some = st.lists(st.sampled_from(pool), min_size=1, max_size=6).map(lambda xs: GSet(g, xs))
    shape = draw(st.sampled_from(["last", "miss", "subgroup", "whole"]))
    Y, T = draw(some), draw(some)
    if shape == "subgroup":
        if g.kind == "torsion":
            T = subgroup_generated(T)
        else:
            step = draw(st.sampled_from([d for d in range(1, g.order + 1) if g.order % d == 0]))
            T = by_index(g, range(0, g.order, step))
    elif shape == "whole":
        # every x - T has |T| points, so fewer than |T| missing from Y leave Y + T whole
        gaps = draw(st.sets(st.sampled_from(pool), max_size=len(T) - 1))
        Y = GSet(g, [x for x in pool if x not in gaps])
    S = sumset(Y, difference_set(T, T))
    part = draw(st.lists(st.sampled_from(S.elements), max_size=8))
    if shape == "last":
        last = reached_only_at(S, Y, T)
        assume(last)
        part.append(draw(st.sampled_from(last)))
    elif shape == "miss":
        missing = [x for x in pool if x not in S]
        assume(missing)
        part.append(draw(st.sampled_from(missing)))
    return GSet(g, part), Y, T, shape


@settings(max_examples=400, deadline=None)
@given(difference_cases(), st.sampled_from([1, 16, groups_mod._BLOCK]))
def test_the_inclusion_matches_the_sets_of_differences(case, block):
    """_in_sumset against Y + (T - T) built from Python sets, at blocks that scan and the default one, which forms."""
    X, Y, T, shape = case
    g = X.group
    differences = {g.add(t, g.neg(u)) for t in T.elements for u in T.elements}
    want = set(X.elements) <= {g.add(y, d) for y in Y.elements for d in differences}
    assert want is (shape != "miss")
    if shape == "whole":
        assert len(sumset(Y, T)) == g.order
    with pytest.MonkeyPatch.context() as mp:
        scans, _ = scan_spies(mp, block)
        assert groups_mod._in_sumset(X, Y, T) is want
    assert len(scans) == scans_at(Y, T, block)


def test_the_scan_forms_neither_the_differences_nor_the_sum(monkeypatch):
    """On 28 points at q = 1,000,003, X <= Y + (T - T) is decided from Y + T: _pairwise never forms T - T or Y + (T - T)."""
    g = CyclicGroup(1_000_003)
    A = GSet(g, random.Random(28).sample(range(g.modulus), 28))
    T = greedy_translates(A, sumset(A, A))
    D, E = difference_set(A, A), difference_set(T, T)
    X = sumset(D, D)
    assert scans_at(D, T, groups_mod._BLOCK)
    pairs, real = [], groups_mod._pairwise
    monkeypatch.setattr(groups_mod, "_pairwise", lambda g, pa, pb: pairs.append({pa.tobytes(), pb.tobytes()}) or real(g, pa, pb))
    assert groups_mod._in_sumset(X, D, T) is True
    assert {T.packed().tobytes(), negate(T).packed().tobytes()} not in pairs  # T - T
    assert {D.packed().tobytes(), E.packed().tobytes()} not in pairs  # Y + (T - T)
    assert pairs == []


def test_np_unique_only_with_an_inverse_or_index():
    """np.unique without return_inverse or return_index takes numpy's slow hash path; the library never calls it so."""
    import ast
    import pathlib

    src = pathlib.Path(groups_mod.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "unique":
                flags = {k.arg for k in node.keywords if isinstance(k.value, ast.Constant) and k.value.value is True}
                calls.append((path.name, node.lineno, bool(flags & {"return_inverse", "return_index"})))
    assert calls, "no np.unique call found; the scan is looking in the wrong place"
    assert [c for c in calls if not c[2]] == []


def inclusions_in_a_sum(src):
    """(module, function, line) of each is_subset call on a sumset(...), difference_set(...) or + / - result, or on a name bound to one."""
    import ast

    def name(f):
        return getattr(f, "id", getattr(f, "attr", None))

    def is_sum(node):
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, (ast.Add, ast.Sub))
        return isinstance(node, ast.Call) and name(node.func) in ("sumset", "difference_set")

    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            held = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        held |= {t.id for t, v in pairs if isinstance(t, ast.Name) and is_sum(v)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name(node.func) == "is_subset":
                    if any(is_sum(a) or isinstance(a, ast.Name) and a.id in held for a in node.args):
                        found.append((path.name, fn.name, node.lineno))
    return found


def test_every_inclusion_in_a_sum_goes_through_the_one_kernel():
    """Only groups._in_sumset calls is_subset on a formed sum: every X <= Y + Z decision is made in that one kernel."""
    import pathlib

    found = inclusions_in_a_sum(pathlib.Path(groups_mod.__file__).parent)
    assert {f[:2] for f in found} == {("groups.py", "_in_sumset")}, found


def digit_table_groups():
    """(r, n) at the chunk width w, at w + 1, at 2w + 1 and at the largest rank that fits (w = 1 past 256)."""
    out = []
    for r in (2, 3, 4, 5, 7, 16, 17, 255, 256, 257, 4093):
        w = max(w for w in range(1, 9) if r**w <= 256) if r <= 256 else 1
        top = max(n for n in range(1, 25) if r**n <= groups_mod.DENSE_ORDER_LIMIT)
        out += [(r, n) for n in sorted({w, w + 1, 2 * w + 1, top}) if n <= top]
    return out


def index_arrays(order, max_size=12):
    return st.lists(st.integers(0, order - 1), min_size=1, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )


class TestDigitTableAdd:
    """_index_add in (Z/r)^n against the per-digit loop, and the digit tables it caches."""

    @pytest.mark.parametrize("r,n", digit_table_groups())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_digit_loop(self, r, n, data):
        g = TorsionGroup(r, n)
        a = data.draw(index_arrays(g.order))
        b = data.draw(index_arrays(g.order))
        c = data.draw(st.integers(0, g.order - 1))
        grid = groups_mod._index_add(g, a[:, None], b[None, :])
        assert grid.dtype == np.int64
        assert grid.tolist() == loop_torsion_add(a[:, None], b[None, :], r, n).tolist()
        shifted = groups_mod._index_add(g, a, c)
        assert shifted.tolist() == [loop_torsion_add(x, c, r, n) for x in a.tolist()]

    @pytest.mark.parametrize("r,n", [(r, n) for r, n in digit_table_groups() if r**n <= 1 << 20])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_set_operations(self, r, n, data):
        g = TorsionGroup(r, n)
        elems = lambda k: [g.element_at(int(i)) for i in data.draw(index_arrays(g.order, k))]
        a, b = elems(8), elems(8)
        assert list(sumset(GSet(g, a), GSet(g, b)).elements) == naive_sumset_vec(set(a), set(b), r)
        c = b[0]
        assert list(translate(GSet(g, a), c).elements) == naive_sumset_vec(set(a), [c], r)
        gens = elems(3 if r <= 17 else 1)
        assert list(subgroup_generated(GSet(g, gens)).elements) == naive_subgroup(gens, r, n)

    def test_chunk_width_is_the_most_digits_that_fit(self):
        for r, n in digit_table_groups() + [(16_777_213, 1)]:
            base, table = groups_mod._chunking(r, n)
            if r > 256:
                assert (base, table) == (r, None)
                continue
            # base = r^w with w <= n, w maximal under r^w <= 256
            assert base <= 256 and (base == r**n or base * r > 256)
            assert table.shape == (base, base)

    def test_no_table_exceeds_two_to_the_sixteen(self):
        groups_mod._chunking.cache_clear()
        groups_mod._digit_table.cache_clear()
        a = np.array([0, 1, 5], dtype=np.int64)
        for r, n in [(257, 1), (257, 2), (4093, 2), (16_777_213, 1)]:
            groups_mod._index_add(TorsionGroup(r, n), a[:, None], a[None, :])
        assert groups_mod._digit_table.cache_info().currsize == 0
        for r, n in digit_table_groups():
            groups_mod._index_add(TorsionGroup(r, n), a[:, None], a[None, :])
            table = groups_mod._chunking(r, n)[1]
            assert table is None or (table.size <= 1 << 16 and not table.flags.writeable)
        # one table per (r, w) with r <= 256: w = 8, 5, 4, 3, 2, 2, 1, 1, 1 for r = 2, 3, 4, 5, 7, 16, 17, 255, 256
        assert groups_mod._digit_table.cache_info().currsize == 9

    @pytest.mark.parametrize("r,n", [(2, 6), (3, 4), (16, 2), (2, 9), (257, 1)])
    def test_a_result_is_never_a_table_view(self, r, n):
        g = TorsionGroup(r, n)
        table = groups_mod._chunking(r, n)[1]
        a = np.arange(min(g.order, 50), dtype=np.int64)
        for out in (groups_mod._index_add(g, a[:, None], a[None, :]), groups_mod._index_add(g, a, 1)):
            assert out.flags.writeable
            assert table is None or not np.shares_memory(out, table)
            out[...] = 0  # the caller may write into what it got
        assert groups_mod._index_add(g, a, 1).tolist() == loop_torsion_add(a, 1, r, n).tolist()


class TestModulusCap:
    CAP = 1 << 62

    def test_constructor(self):
        assert CyclicGroup(self.CAP).modulus == self.CAP
        for N in (self.CAP + 1, self.CAP + 135, 1 << 63, 1 << 70):
            with pytest.raises(ValueError):
                CyclicGroup(N)

    def test_sumset_below_cap(self):
        N = self.CAP - 3
        a = [3, N - 1, N - 2, 1 << 61]
        b = [0, N - 1, 1 << 61, (1 << 61) + 5]
        S = sumset(GSet(CyclicGroup(N), a), GSet(CyclicGroup(N), b))
        assert list(S.elements) == naive_sumset_mod(a, b, N)

    def test_cli_exits_2(self, capsys):
        for N in (self.CAP + 135, 1 << 63):
            rc = main(["sumset", "--group", f"cyclic:{N}", "--elements", "3,400"])
            assert rc == 2
            assert "error:" in capsys.readouterr().err


# the least N at which an array factor u, |u| < N, takes _mul_mod's object path: (N - 1)^2 >= 2^63
_ARRAY_EDGE = math.isqrt((1 << 63) - 1) + 2


@st.composite
def mul_mod_cases(draw):
    """(x, u, N): int64 residues x of Z/N and a factor u, an integer of either sign or an int64 column of them.

    N runs over 1..2^62, the prime 2^62 - 57, the moduli on both sides of the
    array edge, 4,000,000,007, where (N - 1) * N/2 fits int64 but (N - 1)^2
    does not, and 2^32 + 15; a scalar u also lands on both sides of
    2^63 / (N - 1).  x and an array u hold N - 1, so the widest product is formed.
    """
    N = draw(st.one_of(
        st.integers(1, 1 << 62),
        st.sampled_from([(1 << 62) - 57, 1 << 62, _ARRAY_EDGE - 1, _ARRAY_EDGE, 4_000_000_007, (1 << 32) + 15]),
    ))
    x = np.array(draw(st.lists(st.integers(0, N - 1), max_size=5)) + [N - 1], dtype=np.int64)
    factors = st.integers(-(N - 1), N - 1)
    if draw(st.booleans()):
        edge = ((1 << 63) - 1) // max(1, N - 1)  # (N - 1) * u fits int64 up to u = edge
        near = [e for e in (edge, edge + 1) if e < N]
        u = draw(st.one_of(factors, st.sampled_from(near))) if near else draw(factors)
        return x, u * draw(st.sampled_from([1, -1])), N
    return x, np.array(draw(st.lists(factors, max_size=3)) + [N - 1], dtype=np.int64)[:, None], N


class TestMulMod:
    @given(mul_mod_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_python(self, case):
        x, u, N = case
        out = groups_mod._mul_mod(x, u, N)
        assert out.dtype == np.int64
        if isinstance(u, np.ndarray):
            assert out.tolist() == [[a * int(f) % N for a in x.tolist()] for f in u[:, 0].tolist()]
        else:
            assert out.tolist() == [a * u % N for a in x.tolist()]


# Plain-Python definitions of the index operations: one element at a time,
# with window bounds as the group arithmetic states them.
BIG = (1 << 62) - 57
WIDE = 1 << 61


def plain_normalize(g, x):
    """The element x names in g, or None when it names none."""
    if g.kind == "torsion":
        if isinstance(x, int) and g.rank == 1:
            x = (x,)
        if not isinstance(x, tuple) or len(x) != g.rank:
            return None
        return tuple(c % g.exponent for c in x)
    if not isinstance(x, int):
        return None
    if g.kind == "cyclic":
        return x % g.modulus
    return x if g.lo <= x <= g.hi else None


def plain_add(g, x, c):
    if g.kind == "cyclic":
        return (x + c) % g.modulus
    if g.kind == "torsion":
        return tuple((a + b) % g.exponent for a, b in zip(x, c))
    return x + c


def plain_scale(g, lam, x):
    if g.kind == "cyclic":
        return lam * x % g.modulus
    if g.kind == "torsion":
        return tuple(lam * a % g.exponent for a in x)
    return lam * x


def fits(lo, hi):
    return max(abs(lo), abs(hi)) <= WIDE


def plain_elements(g):
    if g.kind == "cyclic":
        return list(range(g.modulus))
    if g.kind == "torsion":
        return list(itertools.product(range(g.exponent), repeat=g.rank))
    return list(range(g.lo, g.hi + 1))


def elements_of(g):
    if g.kind == "cyclic":
        return st.integers(0, g.modulus - 1)
    if g.kind == "torsion":
        return st.tuples(*[st.integers(0, g.exponent - 1)] * g.rank)
    return st.integers(g.lo, g.hi)


@st.composite
def group_and_elements(draw, max_size=8):
    kind = draw(st.sampled_from(["cyclic", "torsion", "window"]))
    if kind == "cyclic":
        g = CyclicGroup(draw(st.sampled_from([1, 2, 12, 31, 97, 100, BIG])))
    elif kind == "torsion":
        g = TorsionGroup(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)))
    else:
        # small windows, and windows that reach the range limit on either side
        lo = draw(st.one_of(st.integers(-60, 60), st.sampled_from([-WIDE, WIDE - 50])))
        g = IntegerWindow(lo, min(lo + draw(st.integers(0, 120)), WIDE))
    return g, draw(st.lists(elements_of(g), max_size=max_size))


def shifts(g):
    if g.kind == "torsion":
        return st.tuples(*[st.integers(-20, 20)] * g.rank)
    if g.kind == "cyclic":
        return st.one_of(st.integers(-40, 40), st.integers(-(1 << 80), 1 << 80))
    return st.one_of(st.integers(-40, 40), st.integers(-WIDE - 100, WIDE + 100))


FACTORS = st.one_of(st.integers(-40, 40), st.integers(-(1 << 80), 1 << 80))


def assert_is(S, g, expected):
    """S is the set `expected` of the group g, as elements, indices and value."""
    expected = tuple(sorted(set(expected)))
    assert S.group == g
    assert S.elements == expected
    assert S.packed().dtype == np.int64 and not S.packed().flags.writeable
    assert S.packed().tolist() == [g.index(x) for x in expected]
    assert S == GSet(g, expected) and hash(S) == hash(GSet(g, expected))


class TestIndexOps:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_translate(self, data):
        g, elems = data.draw(group_and_elements())
        c = data.draw(shifts(g))
        A = GSet(g, elems)
        if g.kind == "window":
            if not fits(g.lo + c, g.hi + c):
                with pytest.raises(ValueError):
                    translate(A, c)
                return
            out_group = IntegerWindow(g.lo + c, g.hi + c)
        else:
            out_group, c = g, plain_normalize(g, c)
        assert_is(translate(A, c), out_group, [plain_add(g, x, c) for x in elems])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_negate(self, data):
        g, elems = data.draw(group_and_elements())
        out_group = IntegerWindow(-g.hi, -g.lo) if g.kind == "window" else g
        assert_is(negate(GSet(g, elems)), out_group, [plain_scale(g, -1, x) for x in elems])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_dilate(self, data):
        g, elems = data.draw(group_and_elements())
        lam = data.draw(FACTORS)
        A = GSet(g, elems)
        image = [plain_scale(g, lam, x) for x in elems]
        out_group = g
        if g.kind == "window":
            lo, hi = (min(image), max(image)) if image else sorted((lam * g.lo, lam * g.hi))
            if not fits(lo, hi):
                with pytest.raises(ValueError):
                    dilate(A, lam)
                return
            out_group = IntegerWindow(lo, hi)
        assert_is(dilate(A, lam), out_group, image)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_inclusion_membership_equality(self, data):
        g, a = data.draw(group_and_elements())
        if a and data.draw(st.booleans()):
            b = data.draw(st.lists(st.sampled_from(a), max_size=len(a)))
        else:
            b = data.draw(st.lists(elements_of(g), max_size=8))
        A, B = GSet(g, a), GSet(g, b)
        sa, sb = set(A.elements), set(B.elements)
        assert is_subset(A, B) == (sa <= sb)
        assert is_subset(B, A) == (sb <= sa)
        assert (A == B) == (sa == sb)
        if sa == sb:
            assert hash(A) == hash(B)
        probes = a + b + [0, -1, 7, 10**30, "x", 1.5, (0,), (1, 2), (0, 0, 0), None]
        for x in probes:
            assert (x in A) == (plain_normalize(g, x) in sa)

    def test_inclusion_in_window_ignores_bounds(self):
        A = GSet(IntegerWindow(-5, 5), [-5, 0])
        assert is_subset(A, GSet(IntegerWindow(-9, 0), [-5, -1, 0]))
        assert not is_subset(A, GSet(IntegerWindow(-5, 5), [0, 5]))
        assert is_subset(GSet(W, []), GSet(W, [])) and not is_subset(GSet(W, [1]), GSet(W, []))


class TestElementsView:
    """Every constructor yields the same elements, indices and value as the definition."""

    @pytest.mark.parametrize("g", [CyclicGroup(13), TorsionGroup(3, 2), IntegerWindow(-4, 6)], ids=repr)
    def test_exhaustive_sets(self, g):
        pool = plain_elements(g)
        expected = [c for size in (1, 2, 3) for c in itertools.combinations(pool, size)]
        sets = list(exhaustive_sets(g, 3))
        assert len(sets) == len(expected)
        for S, e in zip(sets, expected):
            assert_is(S, g, e)

    @pytest.mark.parametrize("g", [CyclicGroup(31), TorsionGroup(2, 5), TorsionGroup(7, 2), IntegerWindow(-9, 9)], ids=repr)
    def test_random_sets(self, g):
        pool = plain_elements(g)
        rng = random.Random(11)
        expected = [[pool[i] for i in rng.sample(range(len(pool)), 4)] for _ in range(6)]
        for S, e in zip(random_sets(g, 4, 6, seed=11), expected):
            assert_is(S, g, e)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sumset(self, data):
        g, a = data.draw(group_and_elements())
        if g.kind == "window":
            g = W
            a = [x for x in a if g.lo <= x <= g.hi]
        b = data.draw(st.lists(elements_of(g), min_size=1, max_size=8))
        S = sumset(GSet(g, a), GSet(g, b))
        if g.kind == "window" and a:
            g = IntegerWindow(min(a) + min(b), max(a) + max(b))
        elif g.kind == "window":
            g = IntegerWindow(2 * W.lo, 2 * W.hi)
        assert_is(S, g, [plain_add(g, x, y) for x in a for y in b])

    @pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_subgroup_generated(self, r, n, data):
        gens = data.draw(st.lists(st.tuples(*[st.integers(0, r - 1)] * n), max_size=3))
        g = TorsionGroup(r, n)
        assert_is(subgroup_generated(GSet(g, gens)), g, naive_subgroup(gens, r, n))

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 40), min_size=1, max_size=5), st.integers(1, 3))
    def test_convolution_support(self, elems, m):
        g = CyclicGroup(41)
        support = convolution_counts(GSet(g, elems), m).support
        assert_is(support, g, naive_iterated_mod(sorted(elems), m + 1, 41))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_greedy_translates(self, data):
        g, core = data.draw(group_and_elements().filter(lambda ge: ge[1]))
        cand = data.draw(st.lists(st.sampled_from(core + [plain_add(g, x, x) for x in core]), max_size=8))
        if g.kind == "window":
            cand = [x for x in cand if g.lo <= x <= g.hi]
        T = greedy_translates(GSet(g, core), GSet(g, cand))
        assert_is(T, g, brute_greedy_translates(core, cand, lambda x, c: plain_add(g, x, c)))


class TestIndexOpEdges:
    def test_dilate_exact_at_large_modulus(self):
        N = BIG
        xs = [1, 2, 3, N - 1, N // 2, 12345678901234567, WIDE + 3]
        A = GSet(CyclicGroup(N), xs)
        for lam in (2, 3, -7, N // 2, N // 2 + 1, -(N // 3), N - 2, 10**30 + 7):
            assert dilate(A, lam).elements == tuple(sorted({lam * x % N for x in xs}))

    def test_window_dilation_past_range_raises(self):
        # an int64 product would wrap 2^60 * 16 to 0 and return {0, 48}
        A = GSet(IntegerWindow(0, WIDE), [1 << 60, 3])
        with pytest.raises(ValueError):
            dilate(A, 16)
        with pytest.raises(ValueError):
            dilate(A, -(1 << 70))

    def test_window_translation_past_range_raises(self):
        A = GSet(IntegerWindow(-WIDE, WIDE), [0, WIDE])
        for c in (1, -1, WIDE, 1 << 63):
            with pytest.raises(ValueError):
                translate(A, c)

    def test_window_dilation_of_zero_by_huge_factor(self):
        A = GSet(IntegerWindow(-5, 5), [0])
        assert dilate(A, 1 << 70) == A
        assert dilate(A, 1 << 70).group == IntegerWindow(0, 0)


def _record_shapes(monkeypatch, module, name, shapes, arg=None):
    """Wrap module.name so that each call records the shape of its result, or of its positional argument arg."""
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        shapes.append(np.shape(out if arg is None else args[arg]))
        return out

    monkeypatch.setattr(module, name, spy)


def _blocked_kernels():
    """name -> (run(monkeypatch, shapes), axis): the axis of a recorded block that is one whole row of its kernel."""
    import importlib

    fourier_mod = importlib.import_module("addcomb.fourier")
    rectify_mod = importlib.import_module("addcomb.rectify")
    z97 = GSet(CyclicGroup(97), range(0, 50, 5))
    z101 = GSet(CyclicGroup(101), [0, 3, 7, 12, 20, 31, 33, 58, 64, 90])

    def pairwise(mp, shapes):
        _record_shapes(mp, groups_mod, "_index_add", shapes)
        sumset(GSet(W, range(0, 60, 2)), GSet(W, range(0, 30, 3)))

    def fold(mp, shapes):
        _record_shapes(mp, fourier_mod, "_index_add", shapes)
        fourier_mod.convolution_counts(z97, 2)

    def diameter(mp, shapes):
        _record_shapes(mp, rectify_mod, "_shortest_arcs", shapes, arg=0)
        rectify_mod.diameter(GSet(CyclicGroup(1009), [0, 3, 4, 11, 40, 41]))

    def inclusion(mp, shapes):
        X = sumset(z101, z101)
        _record_shapes(mp, groups_mod, "_index_add", shapes)
        groups_mod._in_sumset(X, z101, GSet(z101.group, [0, 1, 2, 50]))

    return {
        "pairwise": (pairwise, 1),
        "fold": (fold, 0),
        "diameter": (diameter, 1),
        "inclusion": (inclusion, 1),
    }


@pytest.mark.parametrize("kernel", ["pairwise", "fold", "diameter", "inclusion"])
@pytest.mark.parametrize("block", [1, 4, 7])
def test_every_blocked_kernel_reads_the_one_block(monkeypatch, kernel, block):
    """A patched groups._BLOCK bounds each block of every kernel: at most max(block, one row) values."""
    run, axis = _blocked_kernels()[kernel]
    shapes = []
    monkeypatch.setattr(groups_mod, "_BLOCK", block)
    run(monkeypatch, shapes)
    assert len(shapes) > 1
    assert [s for s in shapes if math.prod(s) > max(block, s[axis])] == []


def test_one_block_constant_and_one_float_slack():
    """_BLOCK is defined once, in groups, and no module binds it by value; fourier and suite take no tol."""
    import ast
    import pathlib

    src = pathlib.Path(groups_mod.__file__).parent
    defined, imported, tols = [], [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined += [path.name] * len(names & {"_BLOCK"})
                if path.name in ("fourier.py", "suite.py"):
                    tols += [(path.name, node.lineno)] * len(names & {"tol"})
            elif isinstance(node, ast.ImportFrom) and any(a.name == "_BLOCK" for a in node.names):
                imported.append(path.name)
            elif isinstance(node, ast.arg) and node.arg == "tol" and path.name in ("fourier.py", "suite.py"):
                tols.append((path.name, node.lineno))
    assert defined == ["groups.py"]
    assert imported == []
    assert tols == []


FAULT_PROBE = """
import resource
from addcomb import CyclicGroup, GSet
from addcomb.fourier import _fft_magnitudes

out = []
for N in (84401, 73061, 78007, 75611):
    A = GSet(CyclicGroup(N), range(0, N, 7))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _fft_magnitudes(A)
    out.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(out)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="mallopt thresholds are set on Linux only")
def test_freed_work_buffers_are_reused_not_faulted_in_again():
    """After the first prime-length FFT, later ones at nearby N reuse freed heap pages.

    Each FFT frees 8-20 MB of work buffers.  With glibc's default dynamic
    thresholds every later call faults about 2,000-3,000 pages in afresh; run
    in a fresh process, so no earlier test has moved the thresholds.
    """
    import ast
    import ctypes
    import pathlib
    import subprocess

    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    src = pathlib.Path(groups_mod.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    faults = ast.literal_eval(proc.stdout.strip())
    assert faults[0] > 1000, faults  # the first call does fault its buffers in
    assert sum(faults[1:]) < 300, faults

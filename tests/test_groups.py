"""Set arithmetic against naive pairwise enumeration."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
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
    is_subset,
    iterated_sum,
    min_growth_ratio,
    negate,
    subgroup_generated,
    sumset,
    translate,
)
from addcomb.cli import main
from oracles import naive_iterated_mod, naive_sumset_int, naive_sumset_mod, naive_sumset_vec

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
        A = GSet(Z101, [0, 1])
        assert iterated_sum(A, 3).elements == (0, 1, 2, 3)
        got = iterated_sum(GSet(Z11, [2, 5, 7]), 4).elements
        assert list(got) == naive_iterated_mod([2, 5, 7], 4, 11)

    def test_iterated_k1_identity(self):
        A = GSet(W, [4, 9])
        assert iterated_sum(A, 1) == A

    def test_iterated_singleton_zero(self):
        A = GSet(Z7, [0])
        assert iterated_sum(A, 5).elements == (0,)

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

    def test_dilate_requires_unit(self):
        A = GSet(CyclicGroup(10), [1, 2])
        with pytest.raises(ValueError):
            dilate(A, 5, require_unit=True)

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
        assert min_growth_ratio(A) == 2

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
            mp.setattr(groups_mod, "_OUTER_BLOCK", 7)
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

"""Subgroup generation and coset covers in bounded-exponent groups."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import (
    GSet,
    TorsionGroup,
    covering_certificate,
    difference_set,
    is_subset,
    negate,
    subgroup_generated,
    sumset,
    torsion_cover,
    translate,
)
from oracles import naive_subgroup, span_subgroup


def torsion_sets(r, n, max_size):
    g = TorsionGroup(r, n)
    all_elems = [g.element_at(i) for i in range(g.order)]
    return st.builds(
        lambda xs: GSet(g, xs),
        st.sets(st.sampled_from(all_elems), min_size=1, max_size=max_size),
    )


class TestSubgroupGenerated:
    def test_zero_only(self):
        g = TorsionGroup(2, 3)
        H = subgroup_generated(GSet(g, [(0, 0, 0)]))
        assert H.elements == ((0, 0, 0),)

    def test_two_basis_vectors(self):
        g = TorsionGroup(2, 3)
        H = subgroup_generated(GSet(g, [(1, 0, 0), (0, 1, 0)]))
        assert len(H) == 4
        assert set(H.elements) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_diagonal_in_z4_squared(self):
        g = TorsionGroup(4, 2)
        H = subgroup_generated(GSet(g, [(1, 1)]))
        assert set(H.elements) == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_matches_naive_closure(self):
        for r, n in [(2, 4), (3, 3), (4, 2), (6, 2)]:
            g = TorsionGroup(r, n)
            gens = [g.element_at(i) for i in (1, g.order // 2, g.order - 1)]
            H = subgroup_generated(GSet(g, gens))
            assert list(H.elements) == naive_subgroup(gens, r, n)

    def test_idempotent(self):
        g = TorsionGroup(3, 2)
        X = GSet(g, [(1, 2), (2, 2)])
        H = subgroup_generated(X)
        assert subgroup_generated(H) == H

    def test_window_rejected(self):
        from addcomb import CyclicGroup

        with pytest.raises(ValueError):
            subgroup_generated(GSet(CyclicGroup(8), [2]))

    @given(
        st.sampled_from([(2, 6), (3, 4), (5, 3), (7, 2)]).flatmap(
            lambda rn: st.tuples(st.just(rn), st.lists(st.tuples(*[st.integers(0, rn[0] - 1)] * rn[1]), max_size=5))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_span(self, case):
        (r, n), gens = case
        H = subgroup_generated(GSet(TorsionGroup(r, n), gens))
        assert list(H.elements) == span_subgroup(gens, r, n)
        assert np.array_equal(H.packed(), GSet(H.group, H.elements).packed())

    @pytest.mark.parametrize("r,n", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_empty_generators(self, r, n):
        H = subgroup_generated(GSet(TorsionGroup(r, n), []))
        assert H.elements == ((0,) * n,)

    def test_full_basis_z2_16(self):
        basis = [tuple(int(i == j) for j in range(16)) for i in range(16)]
        H = subgroup_generated(GSet(TorsionGroup(2, 16), basis))
        assert len(H) == 1 << 16
        assert list(H.elements) == span_subgroup(basis, 2, 16)

    @given(torsion_sets(2, 5, 4))
    @settings(max_examples=60)
    def test_closure_properties(self, X):
        H = subgroup_generated(X)
        assert (0,) * 5 in H.elements
        assert is_subset(X, H)
        assert sumset(H, H) == H
        # Lagrange: |H| divides 2^5
        assert (1 << 5) % len(H) == 0


class TestTorsionCover:
    def test_basis_plus_origin(self):
        g = TorsionGroup(2, 3)
        A = GSet(g, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        cert = torsion_cover(A)
        assert cert.doubling == Fraction(7, 4)
        assert cert.subgroup_size == 8
        assert cert.bound_a_raw == Fraction(196)
        assert cert.bound_a == 8
        assert cert.contains_a
        assert cert.gen_inclusion_holds
        assert cert.size_factor_holds
        assert cert.bound_a_holds and cert.bound_b_holds
        assert cert.ok

    @pytest.mark.parametrize(
        "field",
        ["contains_a", "gen_inclusion_holds", "size_factor_holds", "bound_a_holds", "bound_b_holds"],
    )
    def test_ok_needs_every_claim(self, field):
        A = GSet(TorsionGroup(2, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        cert = dataclasses.replace(torsion_cover(A), **{field: False})
        assert not cert.ok
        assert list(cert.checks.values()).count(False) == 1

    def test_single_pair(self):
        g = TorsionGroup(2, 4)
        A = GSet(g, [(0, 0, 0, 0), (1, 0, 0, 0)])
        cert = torsion_cover(A)
        assert cert.doubling == 1
        assert cert.subgroup_size == 2
        assert cert.contains_a

    def test_coset(self):
        g = TorsionGroup(2, 3)
        H = subgroup_generated(GSet(g, [(1, 0, 0), (0, 1, 0)]))
        A = translate(H, (0, 0, 1))
        cert = torsion_cover(A)
        assert cert.doubling == 1
        assert cert.subgroup_size == len(H)
        assert cert.contains_a
        # the certified coset really is a translate of the subgroup
        shifted = translate(cert.subgroup, cert.coset_rep)
        assert is_subset(A, shifted)

    def test_difference_generators_certified(self):
        g = TorsionGroup(3, 2)
        A = GSet(g, [(0, 0), (1, 0), (0, 1), (2, 2)])
        cert = torsion_cover(A)
        D = difference_set(A, A)
        H = subgroup_generated(D)
        # gen(A-A) is inside (A-A) + gen(T-T); certificate stores gen(A-A)
        assert cert.subgroup == H
        assert cert.gen_inclusion_holds
        assert cert.contains_a

    @pytest.mark.parametrize(
        "r, n, elems, budget, route, bounds",
        [
            # 6 sums against 7 differences on the witness path: size bound 7
            # against 9; both greedy runs take 4 translates
            (4, 2, [(0, 0), (1, 0), (3, 1)], 18, "sum", (7, 9)),
            # 8 sums against 10 differences: bound 7 against 11, although the
            # difference route's greedy takes 3 translates and the sum route's 4
            (4, 2, [(0, 0), (1, 1), (2, 1), (3, 3)], 18, "sum", (7, 11)),
            # 20 sums against 19 differences: bound 15 against 13
            (7, 2, [(1, 2), (2, 2), (2, 5), (3, 2), (3, 5), (5, 5), (6, 2)], 18, "difference", (15, 13)),
            # past the budget: |A+A+A| = 48 against |A-A-A| = 47, bound 11 against 10
            (7, 2, [(0, 2), (0, 6), (2, 1), (4, 0), (5, 1), (5, 5), (6, 1), (6, 5)], 4, "difference", (11, 10)),
        ],
        ids=["sum", "sum-with-more-translates", "difference", "difference-past-budget"],
    )
    def test_route_uses_smaller_size_bound(self, r, n, elems, budget, route, bounds):
        A = GSet(TorsionGroup(r, n), elems)
        cert = torsion_cover(A, witness_budget=budget)
        plus = covering_certificate(A, A, A, witness_budget=budget)
        minus = covering_certificate(A, negate(A), negate(A), witness_budget=budget)
        assert (plus.size_bound, minus.size_bound) == bounds
        assert cert.route == route
        assert cert.covering == (plus if route == "sum" else minus)
        # the smaller bound wins, and "sum" a tie
        assert (route == "sum") == (plus.size_bound <= minus.size_bound)

    @pytest.mark.parametrize(
        "size, cells, route, bound",
        [
            # witness path: 34 from 76 sums against 33 from 75 differences,
            # although |A+A+A| = |A-A-A| = 110 would tie at 11 and pick "sum"
            (18, [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 3), (4, 1), (4, 2), (5, 0), (5, 3), (6, 0),
                  (6, 1), (6, 2), (6, 3), (7, 0), (7, 3), (8, 0)], "difference", 33),
            # counting bound: |A+A+A| = |A-A-A| = 110 tie at 10, although the
            # witness bounds from 76 sums and 75 differences, 31 against 30,
            # would pick "difference"
            (19, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0),
                  (4, 2), (5, 0), (5, 1), (5, 3), (6, 0), (6, 1), (6, 3)], "sum", 10),
        ],
        ids=["18-witness", "19-counting"],
    )
    def test_the_default_budget_edge_decides_the_route(self, size, cells, route, bound):
        """At the default budget the route rule and the covering read the witness bound up to 18 points, the counting bound at 19."""
        A = GSet(TorsionGroup(11, 2), cells)
        assert len(A) == size
        cert = torsion_cover(A)
        assert (cert.route, cert.covering.size_bound) == (route, bound)
        assert cert.witness_used is (size <= 18)
        assert cert.ok

    def test_witness_flag_propagates(self):
        g = TorsionGroup(2, 3)
        A = GSet(g, [(0, 0, 0), (1, 1, 0)])
        cert = torsion_cover(A)
        assert cert.witness_used == cert.covering.witness_is_optimal

    def test_empty_rejected(self):
        g = TorsionGroup(2, 2)
        with pytest.raises(ValueError):
            torsion_cover(GSet(g, []))

    @given(torsion_sets(2, 6, 6))
    @settings(max_examples=50, deadline=None)
    def test_certificates_always_verify(self, A):
        cert = torsion_cover(A)
        assert cert.contains_a
        assert cert.gen_inclusion_holds
        assert cert.size_factor_holds
        assert cert.bound_b_holds
        assert cert.subgroup_size <= cert.bound_b_raw
        # a subgroup in (Z/2)^6 has order a power of two
        assert cert.subgroup_size & (cert.subgroup_size - 1) == 0

    @given(torsion_sets(3, 3, 4))
    @settings(max_examples=40, deadline=None)
    def test_size_factor_exponent(self, A):
        cert = torsion_cover(A)
        k = len(cert.covering.translates)
        D = difference_set(A, A)
        assert cert.subgroup_size <= len(D) * 3 ** (k - 1)
        assert cert.size_factor_holds

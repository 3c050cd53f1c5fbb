"""Translate covers, the subset witness search, and the growth counts."""

import dataclasses
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import addcomb.covering as covering_mod
import addcomb.groups as groups_mod
from addcomb import (
    BudgetError,
    CyclicGroup,
    GSet,
    IntegerWindow,
    TorsionGroup,
    covering_certificate,
    difference_set,
    greedy_translates,
    growth_table,
    is_k_covering,
    is_subset,
    j_bound_report,
    j_count,
    j_count_table,
    negate,
    pluennecke_witness,
    sumset,
    verify_incm,
)
from oracles import (
    brute_greedy_translates,
    brute_j_count,
    brute_witness_ratio,
    chain_incm,
    fraction_size_bound,
    naive_sumset_mod,
    sum_ratio,
)

W = IntegerWindow(-2000, 2000)

# prime and composite moduli, and (Z/r)^n for r in {2, 3, 5, 7}
FINITE_GROUPS = [CyclicGroup(N) for N in (1, 2, 12, 31, 60, 97)] + [
    TorsionGroup(r, n) for r, n in ((2, 1), (2, 6), (3, 4), (5, 2), (7, 2))
]


def element_add(g):
    """Plain-Python addition in the ambient group of g."""
    if g.kind == "cyclic":
        return lambda a, b: (a + b) % g.modulus
    if g.kind == "torsion":
        return lambda a, b: tuple((x + y) % g.exponent for x, y in zip(a, b))
    return lambda a, b: a + b


@st.composite
def sets_in_one_group(draw, *sizes):
    """Subsets with the given (min, max) sizes of one finite group, or of distinct windows of Z."""
    g = draw(st.sampled_from(FINITE_GROUPS + [None]))
    if g is None:
        starts = draw(st.lists(st.integers(-60, 60), min_size=len(sizes), max_size=len(sizes), unique=True))
        groups = [IntegerWindow(lo, lo + 30) for lo in starts]
    else:
        groups = [g] * len(sizes)
    out = []
    for h, (lo, hi) in zip(groups, sizes):
        space = range(h.lo, h.hi + 1) if h.kind == "window" else [h.element_at(i) for i in range(h.order)]
        out.append(GSet(h, draw(st.lists(st.sampled_from(space), min_size=lo, max_size=hi))))
    return out


def greedy_is_maximal(core, candidates, T):
    """Every leftover candidate translate adds fewer than |core|/2 new points."""
    union = set()
    for t in T.elements:
        union |= {core.group.add(a, t) for a in core.elements}
    for u in candidates.elements:
        gain = len({core.group.add(a, u) for a in core.elements} - union)
        if 2 * gain >= len(core):
            return False
    return True


class TestGreedy:
    def test_single_translate(self):
        g = CyclicGroup(11)
        T = greedy_translates(GSet(g, [0]), GSet(g, [0]))
        assert T.elements == (0,)

    def test_interval_over_sumset_z101(self):
        g = CyclicGroup(101)
        core = GSet(g, range(5))
        cand = GSet(g, range(9))
        T = greedy_translates(core, cand)
        assert T.elements == (0, 5, 8)
        assert greedy_is_maximal(core, cand, T)

    def test_interval_over_sumset_z1009(self):
        g = CyclicGroup(1009)
        core = GSet(g, range(10))
        cand = GSet(g, range(19))
        T = greedy_translates(core, cand)
        assert T.elements == (0, 10, 18)
        assert greedy_is_maximal(core, cand, T)

    def test_empty_core_rejected(self):
        g = CyclicGroup(7)
        with pytest.raises(ValueError):
            greedy_translates(GSet(g, []), GSet(g, [0]))

    @given(
        st.sets(st.integers(0, 36), min_size=1, max_size=5),
        st.sets(st.integers(0, 36), min_size=1, max_size=8),
    )
    @settings(max_examples=80)
    def test_union_growth_and_maximality(self, core_elems, cand_elems):
        g = CyclicGroup(37)
        core = GSet(g, core_elems)
        cand = GSet(g, cand_elems)
        T = greedy_translates(core, cand)
        union = set()
        for t in T.elements:
            union |= {(a + t) % 37 for a in core.elements}
        # the first translate contributes |core| points and each later
        # one at least |core|/2, so 2|union| >= (|T|+1)|core|
        assert 2 * len(union) >= (1 + len(T)) * len(core)
        assert greedy_is_maximal(core, cand, T)

    @given(sets_in_one_group((1, 6), (0, 14)))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, sets):
        core, cand = sets
        T = greedy_translates(core, cand)
        assert T.group == cand.group
        assert list(T.elements) == brute_greedy_translates(core, cand, element_add(core.group))
        assert np.array_equal(T.packed(), GSet(T.group, T.elements).packed())

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_progression_cores_over_many_candidates_match_the_oracle(self, data):
        # an AP core over AP or interval candidates: most gains tie, so the
        # first largest gain in candidate order decides nearly every round
        g = data.draw(st.sampled_from([CyclicGroup(211), CyclicGroup(1009), W]))
        at = (lambda i: i) if g.kind == "window" else (lambda i: i % g.modulus)
        start, step, length = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 7)), data.draw(st.integers(2, 10))
        core = GSet(g, [at(start + i * step) for i in range(length)])
        start, step, count = data.draw(st.integers(0, 40)), data.draw(st.sampled_from([1, step])), data.draw(st.integers(100, 160))
        cand = GSet(g, [at(start + i * step) for i in range(count)])
        assert len(cand) >= 100
        T = greedy_translates(core, cand)
        assert list(T.elements) == brute_greedy_translates(core, cand, element_add(g))

    @pytest.mark.parametrize("g", FINITE_GROUPS + [W], ids=repr)
    def test_empty_candidates(self, g):
        zero = (0,) * g.rank if g.kind == "torsion" else 0
        T = greedy_translates(GSet(g, [zero]), GSet(g, []))
        assert T.elements == () and T.group == g

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_kept_gains_match_the_oracle_up_to_32_core_points(self, data):
        # the gains are kept across rounds, not recomputed: random or progression cores of up to 32 points,
        # whose points then have up to |core| holders, over random or progression candidates, or none
        g = data.draw(st.sampled_from([CyclicGroup(1009), CyclicGroup(10007), W]))
        at = (lambda i: i) if g.kind == "window" else (lambda i: i % g.modulus)

        def draw_set(max_size, min_size):
            size = data.draw(st.integers(min_size, max_size))
            if data.draw(st.booleans()):
                return GSet(g, data.draw(st.lists(st.integers(-300, 300), min_size=size, max_size=size)))
            start, step = data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 9))
            return GSet(g, [at(start + i * step) for i in range(size)])

        core, cand = draw_set(32, 1), draw_set(60, 0)
        T = greedy_translates(core, cand)
        assert list(T.elements) == brute_greedy_translates(core, cand, element_add(g))

    @pytest.mark.parametrize("size", [16, 32])
    def test_progression_core_over_its_own_sumset(self, size):
        # most points of an AP core's translates over 2*core have |core| holders
        g = CyclicGroup(1000003)
        core = GSet(g, [7 + 1000 * i for i in range(size)])
        cand = sumset(core, core)
        T = greedy_translates(core, cand)
        assert list(T.elements) == brute_greedy_translates(core, cand, element_add(g))


class TestWitness:
    def test_trivial_singleton(self):
        g = CyclicGroup(7)
        A = GSet(g, [0])
        w = pluennecke_witness(A, A, A)
        assert w.subset.elements == (0,)
        assert w.ratio == 1

    def test_window_013(self):
        """Exhaustive over the 7 nonempty subsets of a K=2 set."""
        A = GSet(W, [0, 1, 3])
        w = pluennecke_witness(A, A, A)
        assert w.ratio <= 4
        best = min(
            Fraction(
                len({a + b + c for a in sub for b in A.elements for c in A.elements}),
                len(sub),
            )
            for size in (1, 2, 3)
            for sub in __import__("itertools").combinations(A.elements, size)
        )
        assert w.ratio == best

    def test_budget(self):
        # the search reads its one cap, covering._WITNESS_BUDGET = 18
        g = CyclicGroup(101)
        A = GSet(g, range(19))
        with pytest.raises(BudgetError, match="exceeds budget 18"):
            pluennecke_witness(A, A, A)

    @given(st.sets(st.integers(0, 100), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_ratio_never_exceeds_k1k2(self, elems):
        g = CyclicGroup(101)
        A = GSet(g, elems)
        B = GSet(g, [0, 1])
        k = Fraction(len(sumset(A, B)), len(A))
        assert pluennecke_witness(A, B, B).ratio <= k * k

    @given(sets_in_one_group((1, 6), (0, 4), (0, 4)))
    @settings(max_examples=200, deadline=None)
    def test_ratio_matches_oracle(self, sets):
        A, B1, B2 = sets
        add = element_add(A.group)
        w = pluennecke_witness(A, B1, B2)
        assert w.ratio == brute_witness_ratio(A, B1, B2, add)
        assert w.subset.elements and is_subset(w.subset, A)
        assert sum_ratio(w.subset, B1, B2, add) == w.ratio


class TestCertificate:
    def test_window_013_bound(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A)
        assert cert.witness_is_optimal
        assert cert.size_bound == 7  # 2*K1*K2 - 1 with K1 = K2 = 2
        assert len(cert.translates) <= 7
        assert cert.inclusion_verified
        assert is_subset(cert.translates, sumset(A, A))

    def test_singleton(self):
        g = CyclicGroup(5)
        A = GSet(g, [0])
        cert = covering_certificate(A, A, A)
        assert cert.translates.elements == (0,)
        assert cert.inclusion_verified

    def test_interval_z1009(self):
        g = CyclicGroup(1009)
        A = GSet(g, range(10))
        cert = covering_certificate(A, A, A)
        assert cert.inclusion_verified
        lhs = sumset(difference_set(A, A), difference_set(A, A))
        rhs = sumset(
            difference_set(A, A), difference_set(cert.translates, cert.translates)
        )
        assert is_subset(lhs, rhs)

    def test_fallback_bound(self):
        """Above the witness budget the counting bound 2|A+B1+B2|/|A| - 1 applies."""
        g = CyclicGroup(1009)
        A = GSet(g, range(10))
        cert = covering_certificate(A, A, A, witness_budget=4)
        assert not cert.witness_is_optimal
        assert cert.witness == A
        # |A+A+A| = 28, ratio 2.8, bound floor(4.6) = 4
        assert cert.size_bound == 4
        assert len(cert.translates) <= 4
        assert cert.inclusion_verified

    @pytest.mark.parametrize("size, witness", [(18, True), (19, False)])
    def test_the_default_budget_edge(self, size, witness):
        """At the default budget of 18 points an 18-point set takes the witness path and a 19-point set the counting bound."""
        assert covering_mod._WITNESS_BUDGET == 18
        g = CyclicGroup(1009)
        A = GSet(g, random.Random(size).sample(range(g.modulus), size))
        cert = covering_certificate(A, A, A)
        assert cert.witness_is_optimal is witness
        s = naive_sumset_mod(A.elements, A.elements, 1009)
        total = naive_sumset_mod(A.elements, s, 1009)
        assert cert.size_bound == fraction_size_bound(size, len(s), len(s), len(total), witness)
        assert cert.ok

    def test_fallback_bound_never_below_one(self):
        g = CyclicGroup(7)
        A = GSet(g, [0])
        cert = covering_certificate(A, A, A, witness_budget=0)
        assert cert.size_bound >= 1
        assert len(cert.translates) == 1

    def test_check_m_recorded(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A, check_m=3)
        assert cert.m_checked == 3

    def test_ok_needs_every_check(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A)
        assert cert.checks == {"inclusion": True, "size_bound": True}
        assert cert.ok
        unverified = dataclasses.replace(cert, inclusion_verified=False)
        assert unverified.checks["inclusion"] is False and not unverified.ok
        too_many = dataclasses.replace(cert, size_bound=len(cert.translates) - 1)
        assert too_many.checks["size_bound"] is False and not too_many.ok

    @given(st.sets(st.integers(0, 60), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_certificates_verify(self, elems):
        g = CyclicGroup(61)
        A = GSet(g, elems)
        cert = covering_certificate(A, A, A)
        assert cert.inclusion_verified
        assert len(cert.translates) <= cert.size_bound
        assert cert.ok


    @given(sets_in_one_group((1, 6), (1, 6), (1, 6)))
    @settings(max_examples=100, deadline=None)
    def test_the_left_side_is_the_sum_of_the_difference_sets(self, sets):
        A, B1, B2 = sets
        assume(B1 != B2)
        with groups_mod._memo_scope():
            covering_certificate(A, B1, B2)
            D1, D2 = difference_set(B1, B1), difference_set(B2, B2)
            # the certificate keeps its left side under the key of (B1-B1) + (B2-B2)
            assert ("sum", *sorted((id(D1), id(D2)))) in groups_mod._SCOPE.get()
            lhs = sumset(D1, D2)
        want = sumset(difference_set(B1, B1), difference_set(B2, B2))
        assert lhs == want and lhs.group == want.group

    @pytest.mark.parametrize("summand", ["progression", "random"])
    def test_the_left_side_is_formed_from_the_pair_with_fewer_sums(self, monkeypatch, summand):
        # B1 an AP, B2 random: |B1 + B2|^2 exceeds |B1-B1|*|B2-B2|, so the
        # difference sets are summed; B1 = B2 random: sigma - sigma is formed
        g = CyclicGroup(10007)
        rand = GSet(g, random.Random(5).sample(range(g.modulus), 10))
        B1 = GSet(g, range(0, 80, 8)) if summand == "progression" else rand
        pairs = []
        real = groups_mod._pairwise
        monkeypatch.setattr(groups_mod, "_pairwise", lambda g, pa, pb: pairs.append({pa.tobytes(), pb.tobytes()}) or real(g, pa, pb))
        with groups_mod._memo_scope():
            covering_certificate(rand, B1, rand)
            D1, D2, sigma = difference_set(B1, B1), difference_set(rand, rand), sumset(B1, rand)
        by_differences = {D1.packed().tobytes(), D2.packed().tobytes()}
        by_sigma = {sigma.packed().tobytes(), negate(sigma).packed().tobytes()}
        assert (len(sigma) ** 2 < len(D1) * len(D2)) is (summand == "random")
        assert (by_differences in pairs, by_sigma in pairs) == ((False, True) if summand == "random" else (True, False))

    @pytest.mark.parametrize("budget", [18, 0])
    def test_empty_summand_rejected(self, budget):
        g = CyclicGroup(11)
        A, E = GSet(g, [0, 1]), GSet(g, [])
        for B1, B2 in ((E, A), (A, E), (E, E)):
            with pytest.raises(ValueError, match="summands must be nonempty"):
                covering_certificate(A, B1, B2, witness_budget=budget)


@pytest.mark.parametrize("budget", [0, 4, 18])
@pytest.mark.parametrize("g", [CyclicGroup(101), CyclicGroup(60), TorsionGroup(3, 3), TorsionGroup(2, 5)], ids=str)
@pytest.mark.parametrize("negated", [False, True], ids=["(A, A)", "(-A, -A)"])
def test_the_size_bound_is_the_certified_one(g, negated, budget):
    """_size_bound reads from sumset sizes the bound that covering_certificate certifies, on either side of the budget."""
    rng = random.Random(f"{g}{budget}{negated}")
    for _ in range(15):
        A = GSet(g, [g.element_at(i) for i in rng.sample(range(g.order), rng.randint(1, 9))])
        B = negate(A) if negated else A
        assert covering_mod._size_bound(A, B, B, budget) == covering_certificate(A, B, B, witness_budget=budget).size_bound


INCM_TORSION = [TorsionGroup(2, 4), TorsionGroup(3, 3), TorsionGroup(5, 2)]


class TestIncm:
    def test_trivial(self):
        g = CyclicGroup(7)
        A = GSet(g, [0])
        assert verify_incm(A, GSet(g, [0]), 5) == 5

    def test_window_013(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A)
        assert verify_incm(A, cert.translates, 3) == 3

    def test_z101(self):
        g = CyclicGroup(101)
        A = GSet(g, [0, 1, 4])
        cert = covering_certificate(A, A, A)
        assert verify_incm(A, cert.translates, 4) == 4

    def test_shortfall_reported(self):
        # T = {0} covers nothing extra, so (m+1)(A-A) outgrows (A-A)+m(T-T)
        g = CyclicGroup(101)
        A = GSet(g, [0, 1, 5])
        assert verify_incm(A, GSet(g, [0]), 3) == 0

    @pytest.mark.parametrize("block", [1, 5, groups_mod._BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m_max=st.integers(1, 4))
    def test_matches_the_chain_of_formed_sums(self, block, data, m_max):
        # T is drawn, the greedy translates, or {0}: a planted shortfall unless A-A is a subgroup
        g = data.draw(st.one_of(st.integers(1, 60).map(CyclicGroup), st.sampled_from(INCM_TORSION)))
        pool = [g.element_at(i) for i in range(g.order)]
        A = GSet(g, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
        drawn = GSet(g, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
        T = data.draw(st.sampled_from([drawn, covering_certificate(A, A, A).translates, GSet(g, [pool[0]])]))
        want = chain_incm(A.elements, T.elements, m_max, g.add, g.neg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups_mod, "_BLOCK", block)
            assert verify_incm(A, T, m_max) == want

    @pytest.mark.parametrize("block", [1, 5, groups_mod._BLOCK])
    def test_planted_shortfall_matches_the_chain(self, monkeypatch, block):
        g = TorsionGroup(3, 3)
        A = GSet(g, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
        T = GSet(g, [(0, 0, 0), (1, 0, 0)])
        monkeypatch.setattr(groups_mod, "_BLOCK", block)
        for m_max in range(1, 5):
            assert verify_incm(A, T, m_max) == chain_incm(A.elements, T.elements, m_max, g.add, g.neg) == 0


class TestKCovering:
    def test_singleton(self):
        g = CyclicGroup(7)
        assert is_k_covering(GSet(g, [0]), GSet(g, [0]))

    def test_difference_set_is_covered(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A)
        assert is_k_covering(difference_set(A, A), cert.translates)

    def test_empty_t_fails(self):
        g = CyclicGroup(7)
        assert not is_k_covering(GSet(g, [0, 1]), GSet(g, []))

    def test_self_cover(self):
        # any B containing 0 is |B|-covered by T = B
        g = CyclicGroup(53)
        B = GSet(g, [0, 1, 17, 18])
        assert is_k_covering(B, B)


class TestJCount:
    def test_zero_m(self):
        for k in range(1, 8):
            assert j_count(k, 0) == 1

    def test_k1_forced(self):
        for m in range(9):
            assert j_count(1, m) == 1

    def test_known_small(self):
        assert j_count(2, 2) == 5
        assert j_count(2, 3) == 7

    def test_table_prefix_consistent(self):
        table = j_count_table(3, 8)
        assert len(table) == 9
        for m in range(9):
            assert table[m] == j_count(3, m)

    def test_matches_brute_force(self):
        for k in range(1, 5):
            for m in range(6):
                assert j_count(k, m) == brute_j_count(k, m)

    @pytest.mark.parametrize(
        "k, m, head, last, total",
        [
            (6, 40, (1, 31, 271, 1281, 4251, 11253, 25493, 51563), 229091517, 1664184957),
            (8, 44, None, 235996273547, 1435095077175),
        ],
    )
    def test_pinned_tables(self, k, m, head, last, total):
        # reference values from an independent O(k*m^2) dynamic program over (positive, negative) part sums
        table = j_count_table(k, m)
        assert len(table) == m + 1 and table[-1] == last and sum(table) == total
        assert head is None or table[: len(head)] == head

    def test_monotone_in_m(self):
        table = j_count_table(4, 12)
        assert all(a <= b for a, b in zip(table, table[1:]))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            j_count(0, 3)
        with pytest.raises(ValueError):
            j_count(2, -1)


class TestJBound:
    def test_k1(self):
        rep = j_bound_report(1, 1)
        assert rep.count == 1 and rep.bound == 14 and rep.holds

    def test_k2_m2(self):
        rep = j_bound_report(2, 2)
        assert rep.count == 5
        assert rep.bound == 196
        assert rep.holds

    def test_k3_m8(self):
        rep = j_bound_report(3, 8)
        assert rep.count == brute_j_count(3, 8)
        assert rep.holds

    def test_requires_m_at_least_k(self):
        with pytest.raises(ValueError):
            j_bound_report(3, 2)
        with pytest.raises(ValueError):
            j_bound_report(3, 1)

    def test_bound_is_exact_rational(self):
        assert j_bound_report(3, 8).bound == Fraction(112, 3) ** 3

    def test_k1_claims_the_zero_tuple_alone(self):
        assert j_bound_report(1, 4).checks == {"bound": True, "count": True}
        assert "count" not in j_bound_report(2, 4).checks
        planted = dataclasses.replace(j_bound_report(1, 4), count=2)
        assert planted.checks["count"] is False and planted.ok is False

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_m0_claims_the_zero_tuple_alone(self, k):
        # J(k, 0) = 1 and (14*0/k)^k = 0: only the count is claimed
        assert j_bound_report(k, 0).checks == {"count": True}
        planted = dataclasses.replace(j_bound_report(k, 0), count=2)
        assert planted.ok is False


class TestGrowth:
    def test_trivial(self):
        g = CyclicGroup(7)
        B = T = GSet(g, [0])
        rep = growth_table(B, T, 3)[-1]
        assert rep.grown_size == 1 and rep.j_value == 1 and rep.j_bound_holds

    def test_difference_set_both_bounds(self):
        A = GSet(W, [0, 1, 3])
        cert = covering_certificate(A, A, A)
        B = difference_set(A, A)
        k = len(cert.translates)
        rep = growth_table(B, cert.translates, k)[-1]
        assert rep.j_bound_holds
        assert rep.ratio_bound_holds

    def test_pair(self):
        g = CyclicGroup(101)
        B = GSet(g, [0, 1])
        rep = growth_table(B, B, 2)[-1]
        assert rep.grown_size == 4
        assert rep.j_value == 5
        assert rep.j_bound_holds and rep.ratio_bound_holds

    def test_ratio_bound_needs_m_ge_k(self):
        g = CyclicGroup(101)
        B = GSet(g, [0, 1])
        rep = growth_table(B, B, 1)[-1]
        assert rep.ratio_bound is None and rep.ratio_bound_holds is None

    def test_not_covering_rejected(self):
        g = CyclicGroup(101)
        with pytest.raises(ValueError):
            growth_table(GSet(g, [0, 1]), GSet(g, []), 2)

    def test_table_matches_single_checks(self):
        g = CyclicGroup(101)
        B = GSet(g, [0, 1, 2])
        rows = growth_table(B, B, 4)
        assert [r.m for r in rows] == [1, 2, 3, 4]
        for row in rows:
            single = growth_table(B, B, row.m)[-1]
            assert (row.grown_size, row.j_value) == (single.grown_size, single.j_value)
            assert row.j_bound_holds and single.j_bound_holds

"""The exact per-instance gates compare integers; each agrees with its Fraction chain in tests/oracles.py.

torsion_cover's exponents, raw bounds, capped bounds and *_holds flags,
covering_certificate's size bound on both paths and its witness check,
growth_table's ratio bound, gap_cover's hypothesis and moment_chain's
max_power_bound are compared against the Fraction arithmetic they replaced,
on sets in (Z/2)^4-6, (Z/3)^3-4, (Z/5)^2 and Z/N with N <= 200, of every
size up to the group order.  Where a gate's boundary is a theorem's equality
case, or cannot be reached by a set at all, a planted value puts it there.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import addcomb.covering as covering_mod
from addcomb import (
    CyclicGroup,
    GSet,
    JBoundReport,
    PluenneckeWitness,
    TorsionGroup,
    covering_certificate,
    difference_set,
    gap_cover,
    growth_table,
    moment_chain,
    negate,
    subgroup_generated,
    sumset,
    torsion_cover,
    translate,
)
from oracles import (
    fraction_gap_hypothesis,
    fraction_growth_ratio_holds,
    fraction_max_power_bound,
    fraction_size_bound,
    fraction_torsion_bounds,
    fraction_witness_within,
)

TORSION = [TorsionGroup(2, 4), TorsionGroup(2, 5), TorsionGroup(2, 6), TorsionGroup(3, 3), TorsionGroup(3, 4), TorsionGroup(5, 2)]
BUDGETS = st.sampled_from([0, 6, 12])


def by_index(g, idx):
    return GSet(g, [g.element_at(i) for i in idx])


@st.composite
def sets_in(draw, groups, max_size=None):
    """A set of any size up to the group order (or max_size), or now and then a coset of a subgroup, the equality case of the bounds."""
    g = draw(groups)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if g.kind == "torsion" and draw(st.integers(0, 4)) == 0:
        H = subgroup_generated(by_index(g, rng.sample(range(g.order), draw(st.integers(0, 3)))))
        if max_size is None or len(H) <= max_size:
            return translate(H, g.element_at(rng.randrange(g.order)))
    top = g.order if max_size is None else min(g.order, max_size)
    return by_index(g, rng.sample(range(g.order), draw(st.integers(1, top))))


torsion_sets = sets_in(st.sampled_from(TORSION))
cyclic_groups = st.integers(1, 200).map(CyclicGroup)
finite_sets = sets_in(st.one_of(st.sampled_from(TORSION), cyclic_groups))


# A 9-set in (Z/3)^4 with 43 sums and 61 differences: r^e_a = 3^43 and r^e_b = 3^89 pass 2^63.
WIDE = by_index(TorsionGroup(3, 4), [25, 28, 44, 49, 54, 56, 62, 78, 80])


@given(torsion_sets, BUDGETS)
@example(WIDE, 12)
@settings(max_examples=120, deadline=None)
def test_torsion_bounds_match_the_fraction_chain(A, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering_mod, "_WITNESS_BUDGET", budget)
        cert = torsion_cover(A)
    g, n = A.group, len(A)
    s, d = len(sumset(A, A)), len(difference_set(A, A))
    e_a, e_b, raw_a, raw_b, bound_a, bound_b, holds_a, holds_b = fraction_torsion_bounds(
        s, d, n, g.exponent, cert.subgroup_size, g.order
    )
    # the raw bounds are s^2 r^e_a / n and d r^e_b, so they carry the exponents
    assert cert.bound_a_raw * n / (s * s) == Fraction(g.exponent) ** e_a
    assert cert.bound_b_raw / d == Fraction(g.exponent) ** e_b
    assert (cert.bound_a_raw, cert.bound_b_raw) == (raw_a, raw_b)
    assert type(cert.bound_a_raw) is type(cert.bound_b_raw) is Fraction
    assert (cert.bound_a, cert.bound_b) == (bound_a, bound_b)
    assert (cert.bound_a_holds, cert.bound_b_holds) == (holds_a, holds_b)
    assert (cert.doubling, cert.diff_ratio) == (Fraction(s, n), Fraction(d, n))


def test_wide_set_passes_int64():
    A = WIDE
    s, d, n = len(sumset(A, A)), len(difference_set(A, A)), len(A)
    e_a, e_b = fraction_torsion_bounds(s, d, n, 3, 1, 81)[:2]
    assert (s, d, e_a, e_b) == (43, 61, 43, 89)
    assert 3**e_a > 2**63 and 3**e_b > 2**63
    cert = torsion_cover(A)
    assert cert.bound_a == cert.bound_b == 81 and cert.ok


@pytest.mark.parametrize("g", TORSION, ids=repr)
def test_a_subgroup_meets_both_bounds_with_equality(g):
    # |A+A| = |A-A| = |A|, so e = 0 and both raw bounds are |A| = |gen(A-A)|
    H = subgroup_generated(by_index(g, [1, g.order - 1]))
    cert = torsion_cover(translate(H, g.element_at(g.order // 2)))
    assert cert.bound_a_raw == cert.bound_b_raw == cert.subgroup_size == len(H)
    assert cert.bound_a_holds and cert.bound_b_holds


@given(finite_sets, BUDGETS, st.booleans())
@settings(max_examples=120, deadline=None)
def test_covering_size_bound_matches_the_fraction_chain(A, budget, difference):
    B2 = negate(A) if difference else A
    cert = covering_certificate(A, A, B2, witness_budget=budget)
    n = len(A)
    s1, s2 = len(sumset(A, A)), len(sumset(A, B2))
    total = len(sumset(A, sumset(A, B2)))
    assert cert.witness_is_optimal == (n <= budget)
    assert cert.size_bound == fraction_size_bound(n, s1, s2, total, n <= budget)
    assert (cert.ratio1, cert.ratio2) == (Fraction(s1, n), Fraction(s2, n))
    if n > budget:
        assert cert.witness_ratio == Fraction(total, n)


@given(sets_in(st.one_of(st.sampled_from(TORSION), cyclic_groups), max_size=10), st.integers(1, 4), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_witness_check_matches_the_fraction_chain(A, q, offset):
    """A planted witness ratio within a few 1/(q n^2) of K1*K2 passes exactly when it is at most K1*K2."""
    n = len(A)
    s = len(sumset(A, A))
    ratio = Fraction(max(1, s * s * q + offset), n * n * q)
    real = covering_mod.pluennecke_witness

    def planted(*args, **kwargs):
        found = real(*args, **kwargs)
        return PluenneckeWitness(found.subset, ratio, found.subsets_searched)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering_mod, "pluennecke_witness", planted)
        if fraction_witness_within(ratio, n, s, s):
            assert covering_certificate(A, A, A, witness_budget=12).witness_ratio == ratio
        else:
            with pytest.raises(RuntimeError, match="exceeds K1"):
                covering_certificate(A, A, A, witness_budget=12)


def _growth_rows(A):
    cert = covering_certificate(A, A, A, witness_budget=12)
    D = difference_set(A, A)
    return D, cert.translates, growth_table(D, cert.translates, max(3, len(cert.translates)))


@given(sets_in(st.one_of(st.sampled_from(TORSION), cyclic_groups), max_size=12))
@settings(max_examples=80, deadline=None)
def test_growth_ratio_bound_matches_the_fraction_chain(A):
    D, T, rows = _growth_rows(A)
    k = len(T)
    for row in rows:
        if row.m >= k:
            assert row.ratio_bound == Fraction(14 * row.m, k) ** k
            assert row.ratio_bound_holds == fraction_growth_ratio_holds(row.grown_size, len(D), row.ratio_bound)
        else:
            assert row.ratio_bound is row.ratio_bound_holds is None


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("q", [1, 3])
def test_growth_ratio_bound_at_a_planted_boundary(offset, q):
    """No set reaches (14m/k)^k at these sizes, so a planted bound puts |(m+1)B| / |B| a 1/(q|B|) either side of it."""
    A = GSet(CyclicGroup(101), [0, 1, 3, 7, 12, 20])
    D, T, rows = _growth_rows(A)
    grown = {row.m: row.grown_size for row in rows}
    bound = {m: Fraction(g * q + offset, len(D) * q) for m, g in grown.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering_mod, "j_bound_report", lambda k, m: JBoundReport(k, m, 0, bound[m], True))
        planted = growth_table(D, T, max(grown))
    checked = [row for row in planted if row.m >= len(T)]
    assert checked
    for row in checked:
        assert row.ratio_bound == bound[row.m]
        assert row.ratio_bound_holds == fraction_growth_ratio_holds(row.grown_size, len(D), bound[row.m]) == (offset > 0)


@st.composite
def gap_cases(draw):
    N = draw(st.integers(4, 200))
    A = draw(sets_in(st.just(CyclicGroup(N))))
    return A, draw(st.integers(0, N - 1)), draw(st.integers(0, (N - 1) // 3))


@given(gap_cases())
# 2 of the 3 differences of {0, 1} sit in [0, 1]: one outside is |A|/2, not fewer
@example((GSet(CyclicGroup(10), [0, 1]), 0, 1))
@settings(max_examples=150, deadline=None)
def test_gap_hypothesis_matches_the_fraction_chain(case):
    A, b, l = case
    N = A.group.modulus
    outside = sum((x - b) % N > l for x in difference_set(A, A).elements)
    res = gap_cover(A, b, l)
    assert res.outside == outside
    assert res.threshold == Fraction(len(A), 2)
    assert res.hypothesis_met == fraction_gap_hypothesis(outside, len(A))


@st.composite
def coset_sets(draw):
    """A subset of a coset c + dZ/N, so (m+1)B stays in a coset and R < N; or any finite set."""
    if draw(st.booleans()):
        return draw(finite_sets)
    N = draw(st.integers(2, 200))
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    d = draw(st.sampled_from(divisors))
    rng = random.Random(draw(st.integers(0, 2**32)))
    c = rng.randrange(N)
    picked = rng.sample(range(N // d), draw(st.integers(1, N // d)))
    return GSet(CyclicGroup(N), [(c + d * x) % N for x in picked])


def assert_max_power_bounds_match(B, m_max):
    rows = moment_chain(B, m_max)
    for rep in rows:
        want = fraction_max_power_bound(rep.support_size, B.group.order, len(B), rep.m)
        assert rep.max_power_bound.hex() == want.hex()


@given(coset_sets(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_max_power_bound_is_the_fraction_float(B, m_max):
    assert_max_power_bounds_match(B, m_max)


@pytest.mark.parametrize("size, m_max", [(60, 11), (37, 12), (100, 12)])
def test_max_power_bound_with_object_counts(size, m_max):
    # |B|^(m_max+1) >= 2^62, so the fold chain counts in object dtype
    assert size ** (m_max + 1) >= 1 << 62
    picked = random.Random(size).sample(range(100), size)
    B = GSet(CyclicGroup(200), [2 * x + 1 for x in picked])
    assert all(rep.support_size <= 100 for rep in moment_chain(B, m_max))
    assert_max_power_bounds_match(B, m_max)

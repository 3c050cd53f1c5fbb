"""Certificates of A and of its images under group isomorphisms agree on every invariant.

A claim about A is a claim about phi(A) for each isomorphism phi of the
ambient group, so the invariant fields of a certificate must agree between
A and its image, and a unique witness must map to the image's witness
(metamorphic testing: Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Comput. Surv. 51(1), 2018).  The maps
are x -> Mx + t on (Z/r)^n with M in GL_n(F_r), r prime, x -> ux + t on
Z/N with u a unit, and Z/p = (Z/p)^1.  Presentation fields, which break ties
by element order (translates, generators, coset_rep, a diameter's step and
start, a spectral frequency), are not compared.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import addcomb.covering as covering_mod
from addcomb import (
    CyclicGroup,
    GSet,
    TorsionGroup,
    covering_certificate,
    diam_from_spectrum,
    diameter,
    negate,
    rectify,
    torsion_cover,
)


def rank_mod(M, r):
    """Rank of the integer matrix M over F_r, r prime, by row reduction."""
    rows = [list(row) for row in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % r), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, r)
        rows[rank] = [x * inv % r for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % r:
                f = rows[i][col]
                rows[i] = [(x - f * y) % r for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def affine(M, t, r):
    """The map x -> Mx + t on (Z/r)^n, on coordinate tuples."""
    return lambda x: tuple((sum(m * y for m, y in zip(row, x)) + c) % r for row, c in zip(M, t))


def image(A, phi):
    return GSet(A.group, [phi(x) for x in A.elements])


def torsion_invariants(cert):
    return (
        cert.route,
        cert.covering.witness_ratio,
        cert.covering.size_bound,
        cert.subgroup_size,
        cert.bound_a,
        cert.bound_b,
        cert.ok,
    )


def covering_invariants(cert):
    return (cert.ratio1, cert.ratio2, cert.witness_ratio, cert.witness_is_optimal, cert.size_bound, cert.ok)


def assert_same_torsion_cover(A, phi, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering_mod, "_WITNESS_BUDGET", budget)
        mine, theirs = torsion_cover(A), torsion_cover(image(A, phi))
    assert torsion_invariants(mine) == torsion_invariants(theirs)
    assert image(mine.covering.witness, phi) == theirs.covering.witness


def assert_same_coverings(A, phi, budget):
    B = image(A, phi)
    for mine, theirs in (
        (covering_certificate(A, A, A, budget), covering_certificate(B, B, B, budget)),
        (covering_certificate(A, negate(A), negate(A), budget), covering_certificate(B, negate(B), negate(B), budget)),
    ):
        assert covering_invariants(mine) == covering_invariants(theirs)
        assert image(mine.witness, phi) == theirs.witness


@st.composite
def torsion_cases(draw):
    """(A, phi, budget): a set in (Z/r)^n and an affine isomorphism x -> Mx + t."""
    r, n = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 1), (5, 2)]))
    g = TorsionGroup(r, n)
    digits = st.integers(0, r - 1)
    M = draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(rank_mod(M, r) == n)
    t = draw(st.lists(digits, min_size=n, max_size=n))
    idx = draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=min(g.order, 9)))
    A = GSet(g, [g.element_at(i) for i in idx])
    return A, affine(M, t, r), draw(st.sampled_from([0, 4, 18]))


@given(torsion_cases())
@settings(max_examples=150, deadline=None)
def test_torsion_cover_is_invariant(case):
    A, phi, budget = case
    assert_same_torsion_cover(A, phi, budget)


@given(torsion_cases())
@settings(max_examples=100, deadline=None)
def test_covering_certificate_is_invariant_on_torsion_groups(case):
    A, phi, budget = case
    assert_same_coverings(A, phi, budget)


@st.composite
def cyclic_cases(draw):
    N = draw(st.integers(2, 60))
    u = draw(st.integers(1, N - 1).filter(lambda u: math.gcd(u, N) == 1))
    t = draw(st.integers(0, N - 1))
    A = GSet(CyclicGroup(N), draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=min(N, 9))))
    return A, lambda x: (u * x + t) % N, draw(st.sampled_from([0, 18]))


@given(cyclic_cases())
@settings(max_examples=100, deadline=None)
def test_covering_certificate_is_invariant_on_cyclic_groups(case):
    A, phi, budget = case
    assert_same_coverings(A, phi, budget)


@st.composite
def prime_cases(draw):
    """(A, phi): a random set or an AP-subset in Z/p, and x -> ux + t with u a unit."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 101, 211, 1009]))
    if draw(st.booleans()):
        elems = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 9)))
    else:
        start, step = draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))
        terms = draw(st.integers(1, min(p, 12)))
        picked = draw(st.sets(st.integers(0, terms - 1), min_size=1, max_size=min(terms, 9)))
        elems = {(start + i * step) % p for i in picked}
    u, t = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
    return GSet(CyclicGroup(p), elems), lambda x: (u * x + t) % p


def rectify_invariants(A):
    outs = [rectify(A, k) for k in (2, 3)]
    return [(out.succeeded, out.required, out.witness and out.witness.verified) for out in outs]


def spectral_invariants(A):
    outs = [diam_from_spectrum(A, delta) for delta in (0.1, 0.2, 0.3)]
    return [(out.hypothesis_met, out.diameter_upper) for out in outs]


@given(prime_cases())
@settings(max_examples=100, deadline=None)
def test_diameter_spectrum_and_rectify_are_invariant_on_prime_cyclic_groups(case):
    A, phi = case
    B = image(A, phi)
    assert diameter(A).length == diameter(B).length
    assert spectral_invariants(A) == spectral_invariants(B)
    assert rectify_invariants(A) == rectify_invariants(B)


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17]).flatmap(lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 9)))))
@settings(max_examples=60, deadline=None)
def test_covering_certificate_agrees_on_z_p_and_its_rank_one_torsion_form(case):
    p, elems = case
    rank_one = lambda X: GSet(TorsionGroup(p, 1), [(x,) for x in X.elements])
    A = GSet(CyclicGroup(p), elems)
    A1 = rank_one(A)
    for mine, theirs in (
        (covering_certificate(A, A, A), covering_certificate(A1, A1, A1)),
        (covering_certificate(A, negate(A), negate(A)), covering_certificate(A1, negate(A1), negate(A1))),
    ):
        assert covering_invariants(mine) == covering_invariants(theirs)
        assert rank_one(mine.witness) == theirs.witness


def general_linear(r, n):
    """Every matrix of GL_n(F_r), as a tuple of rows."""
    rows = list(itertools.product(range(r), repeat=n))
    return [M for M in itertools.product(rows, repeat=n) if rank_mod(M, r) == n]


# Under the rule that kept the route with fewer greedy translates, 184 of the
# 480 images of this set took route "difference" with size bound 12 and 296
# took "sum" with size bound 10.
RECORDED = [(2, 0), (1, 0), (3, 1), (0, 2), (4, 1)]


def test_recorded_set_over_all_of_gl2_f5():
    A = GSet(TorsionGroup(5, 2), RECORDED)
    maps = general_linear(5, 2)
    assert len(maps) == 480
    want = torsion_cover(A)
    assert (want.route, want.covering.size_bound) == ("sum", 10)
    for M in maps:
        for t in ((0, 0), (1, 3)):
            phi = affine(M, t, 5)
            got = torsion_cover(image(A, phi))
            assert torsion_invariants(got) == torsion_invariants(want), (M, t)
            assert image(want.covering.witness, phi) == got.covering.witness

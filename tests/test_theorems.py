"""Classical theorems as oracles: each judges the library's sums and diameters where its hypothesis holds.

Unlike the loops of oracles.py, a theorem re-implements no kernel, so a
misunderstanding that a kernel and its loop oracle share cannot pass it.
The stabilizers, the sums A + H and every comparison are plain Python sets
and integers; the library supplies only the quantity under test.
"""

import pytest

from addcomb import CyclicGroup, diameter, exhaustive_sets, sumset


def stabilizer(S, N):
    """{h in Z/N : S + h = S}, by plain sets: an h that fixes S maps min(S) into S."""
    s0 = min(S)
    return {h for h in ((x - s0) % N for x in S) if {(x + h) % N for x in S} == S}


@pytest.mark.parametrize("N, max_size, sets, periodic", [(12, 5, 1585, 217), (30, 4, 31930, 670)])
def test_kneser(N, max_size, sets, periodic):
    """|2A| >= 2|A + H| - |H|, H the stabilizer of 2A (Kneser's theorem), on every subset of Z/N up to max_size points.

    periodic counts the sets whose 2A has a nontrivial stabilizer, where the
    bound is stronger than Cauchy-Davenport's.
    """
    seen = nontrivial = 0
    for A in exhaustive_sets(CyclicGroup(N), max_size):
        doubled = set(sumset(A, A).elements)
        H = stabilizer(doubled, N)
        shifted = {(a + h) % N for a in A.elements for h in H}
        assert len(doubled) >= 2 * len(shifted) - len(H), (A.elements, sorted(H))
        seen += 1
        nontrivial += len(H) > 1
    assert (seen, nontrivial) == (sets, periodic)


def test_freiman_3k_minus_4_through_the_diameter_witness():
    """If 2 diam(A) < p and |2A| <= 3|A| - 4, then diam(A) <= |2A| - |A|, on the normalized orbits of Z/31 up to 6 points.

    With 2 diam(A) < p the witness's normalized set is a Freiman
    2-isomorphic set of integers, so Freiman's 3k - 4 theorem puts it in an
    arithmetic progression of |2A| - |A| + 1 terms, and dilating that
    progression back to step one bounds the diameter.
    """
    p = 31
    applicable = tight = 0
    for A in exhaustive_sets(CyclicGroup(p), 6, normalize=True):
        d, k, s = diameter(A).length, len(A), len(sumset(A, A))
        if 2 * d < p and s <= 3 * k - 4:
            assert d <= s - k, A.elements
            applicable += 1
            tight += d == s - k
    assert (applicable, tight) == (25, 19)

"""Translate covers of sumsets and the growth bounds they certify.

The central object is a certificate (A, B1, B2, A', T) where T is a greedy
maximal set of translates: each selected t added at least |A'|/2 new points
to the union of A'+t_i, and at termination no candidate can.  Maximality
alone forces B1-B1+B2-B2 to lie inside A-A+T-T, which the certificate
re-verifies by exhaustive inclusion of sigma - sigma (sigma = B1+B2): x is
in A-A+T-T exactly when x+T meets A-A+T, so it reads the marks of A-A+T,
one point of each pair {x, -x}.  A' minimizes |A'+sigma|/|A'|, by a depth-
first subset search over bitsets of the translates of sigma, which stops on
two lower bounds for a union of them.  _WITNESS_BUDGET, read at call time, is
the one cap on |A| for that search; past it the counting bound applies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import groups
from .groups import (
    BudgetError,
    Certificate,
    GSet,
    _entry_scope,
    _in_sumset,
    _index_add,
    _memoized,
    difference_set,
    sumset,
)

__all__ = [
    "PluenneckeWitness",
    "CoveringCertificate",
    "GrowthBoundReport",
    "greedy_translates",
    "pluennecke_witness",
    "covering_certificate",
    "verify_incm",
    "is_k_covering",
    "j_count",
    "j_count_table",
    "j_bound_report",
    "JBoundReport",
    "growth_table",
]


# the largest |A| whose Plünnecke witness is searched exhaustively, read at
# call time: the one cap of the search; past it the counting bound applies
_WITNESS_BUDGET = 18


def _translate_ids(core: GSet, shifts: GSet) -> Tuple[np.ndarray, int, np.ndarray]:
    """(ids, size of the union, order) of the translates core + s, s in shifts, from one sort of their sums.

    Row i of ids holds the elements of core + (i-th shift) as ids into their
    sorted union; order is the sort, the flat positions of the sums in
    increasing order, so the entries of one point are a run of it.
    """
    sums = _index_add(core.group, shifts.packed()[:, None], core.packed()[None, :])
    order = np.argsort(sums, axis=None)
    ordered = sums.ravel()[order]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    point = np.cumsum(new) - 1
    ids = np.empty(len(ordered), dtype=np.intp)
    ids[order] = point
    return ids.reshape(sums.shape), int(np.count_nonzero(new)), order


def greedy_translates(core: GSet, candidates: GSet) -> GSet:
    """Greedy maximal T <= candidates whose translates of core each add >= |core|/2 new points.

    Selection is deterministic: largest gain first, ties broken by canonical
    element order.  The comparison 2*gain >= |core| is exact integer
    arithmetic.  Gains are kept, not recomputed: row p of holders lists the
    candidates whose translate holds point p (padded with m = |candidates|
    to the largest multiplicity of a point), and a round takes one gain off
    each holder of each point it newly covers, then pads those rows out, so
    the work is about m*|core| + |T|*m in all.
    """
    if not len(core):
        raise ValueError("core set must be nonempty")
    n, m = len(core), len(candidates)
    ids, universe, order = _translate_ids(core, candidates)
    point = ids.ravel()[order]
    rank = np.arange(len(point)) - point.searchsorted(point)  # place of each entry among its point's holders
    holders = np.full((universe, int(rank.max(initial=-1)) + 1), m, dtype=np.intp)
    holders[point, rank] = order // n
    # entry m counts the padding; it starts below every real gain
    gains = np.full(m + 1, n, dtype=np.int64)
    gains[m] = -1
    chosen = []
    while len(chosen) < m:
        best = int(gains.argmax())  # the first largest gain
        if 2 * gains[best] < n:
            break
        chosen.append(best)
        row = ids[best]
        gains -= np.bincount(holders[row].ravel(), minlength=m + 1)
        holders[row] = m  # a covered point takes no more gains
    return GSet._from_indices(candidates.group, candidates.packed()[sorted(chosen)])


@dataclass(frozen=True)
class PluenneckeWitness:
    """A nonempty A' <= A minimizing |A' + B1 + B2| / |A'|.

    Invariant under isomorphisms: ratio, subsets_searched, and subset, which
    maps to the image's witness (the largest subset of least ratio is unique).
    """

    subset: GSet
    ratio: Fraction
    subsets_searched: int


def pluennecke_witness(A: GSet, B1: GSet, B2: GSet) -> PluenneckeWitness:
    """Exhaustive search for the subset of A with least sumset expansion.

    Visits nonempty subsets by decreasing size, in combinations order within
    a size, and stops at the first size whose subsets can no longer beat the
    incumbent ratio.  Two lower bounds on the union of s translates of
    sigma = B1+B2 decide that: |sigma|, and s*|sigma| - C(s, 2)*M by
    Bonferroni, M the most points two translates share; each bound over s
    only grows as s falls, so no smaller size can beat it either.  The
    first subset of least ratio wins.  It is the largest subset of least
    ratio, and the only one of its size: unions of translates are
    submodular, so the union of two least subsets is least.  Size n is A
    itself; each smaller class is one _least_union search over the
    translates as Python-int bitsets, built with M for the first class.
    A set of more than _WITNESS_BUDGET points raises BudgetError.
    """
    n = len(A)
    if n == 0:
        raise ValueError("witness search needs a nonempty base set")
    if n > _WITNESS_BUDGET:
        raise BudgetError(f"witness search over {n} elements exceeds budget {_WITNESS_BUDGET}")
    sigma = sumset(B1, B2)
    ids, best_bits, _ = _translate_ids(sigma, A)
    # the least ratio so far is best_bits / best_size, first found at the positions best
    best_size, best = n, range(n)
    searched = 1
    masks = None
    for size in range(n - 1, 0, -1):
        if len(sigma) * best_size >= best_bits * size:
            break
        if masks is None:
            masks = _bitsets(ids, best_bits)
            overlap = max((a & b).bit_count() for a, b in itertools.combinations(masks, 2))
        if (size * len(sigma) - math.comb(size, 2) * overlap) * best_size >= best_bits * size:
            break
        # a union beats the ratio exactly when it is below ceil(best_bits * size / best_size)
        found = _least_union(masks, size, -(-best_bits * size // best_size), len(sigma), overlap)
        searched += math.comb(n, size)
        if found is not None:
            (best_bits, best), best_size = found, size
    subset = GSet._from_indices(A.group, A.packed()[list(best)])
    return PluenneckeWitness(subset, Fraction(best_bits, best_size), searched)


def _bitsets(ids: np.ndarray, universe: int) -> List[int]:
    """Row i of ids, ids into a universe of points, as one Python int with those bits set."""
    marks = np.zeros((len(ids), universe), dtype=bool)
    marks[np.arange(len(ids))[:, None], ids] = True
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(marks, axis=1, bitorder="little")]


def _least_union(masks: List[int], size: int, limit: int, width: int, overlap: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(union size, positions) of the first least union of size masks in combinations order, or None if none is below limit.

    Each mask has width bits and shares at most overlap bits with any other,
    so the k-th mask of a subset adds at least width - k*overlap new bits.
    A depth-first search in combinations order drops a branch once its
    union plus that floor for the positions still to fill is no less than
    the least union so far (limit at first), which keeps the first least.
    """
    floor = [0] * (size + 1)  # floor[d]: the fewest new bits of positions d, ..., size-1
    for k in range(size - 1, -1, -1):
        floor[k] = floor[k + 1] + max(0, width - overlap * k)
    last = len(masks) - size
    chosen = [0] * size
    best, found = limit, None

    def visit(depth: int, start: int, union: int) -> None:
        # union holds the masks at chosen[:depth]; position depth takes each i from start on
        nonlocal best, found
        rest = floor[depth + 1]
        for i in range(start, last + depth + 1):
            joined = union | masks[i]
            bits = joined.bit_count()
            if bits + rest >= best:
                continue
            chosen[depth] = i
            if depth + 1 < size:
                visit(depth + 1, i + 1, joined)
            else:
                best, found = bits, tuple(chosen)

    visit(0, 0, 0)
    return None if found is None else (best, found)


@dataclass(frozen=True)
class CoveringCertificate(Certificate):
    """A verified translate cover of (A, B1, B2); see covering_certificate.

    Invariant under isomorphisms of the group: ratio1, ratio2,
    witness_ratio, witness_is_optimal, size_bound and the claims, and the
    witness itself (the largest subset of least ratio is unique) maps to the
    image's witness.  Presentation, tie-broken by element order: the
    translates, and so m_checked.
    """

    base: GSet
    summand1: GSet
    summand2: GSet
    witness: GSet
    translates: GSet
    ratio1: Fraction          # |A+B1| / |A|
    ratio2: Fraction          # |A+B2| / |A|
    witness_ratio: Fraction   # |A'+B1+B2| / |A'|
    witness_is_optimal: bool  # True when the exhaustive subset search ran
    size_bound: int
    inclusion_verified: bool
    m_checked: int = 0

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """The two verified claims, by name."""
        return {"inclusion": self.inclusion_verified, "size_bound": len(self.translates) <= self.size_bound}


def covering_certificate(
    A: GSet,
    B1: GSet,
    B2: GSet,
    witness_budget: Optional[int] = None,
    check_m: int = 0,
) -> CoveringCertificate:
    """Build and verify a translate-cover certificate for (A, B1, B2).

    Up to the witness budget, |A| <= witness_budget (by default and at
    most _WITNESS_BUDGET), the witness path gives |T| <= 2*K1*K2 - 1 where
    Ki = |A+Bi|/|A|; past it the weaker counting bound 2*|A+B1+B2|/|A| - 1
    applies; _size_bound gives that bound from sumset sizes alone.  The
    inclusion B1-B1+B2-B2 <= A-A+T-T is checked exhaustively either way, by
    groups._in_sumset handed T: it forms T-T and A-A+T-T only when
    |A-A|*min(|T|^2, order) is at most groups._BLOCK (or in a group with no
    dense index space), and otherwise marks A-A+T once and strikes each
    point x of the left side off at the first t in T with x+t marked, one
    point of each pair {x, -x}, as A-A is symmetric.  The left side is
    formed as sigma - sigma (sigma = B1+B2) when |sigma|^2 < |B1-B1|*|B2-B2|,
    else as (B1-B1) + (B2-B2), and kept in the scope under the key of the
    latter.  The call runs in the open memo scope, or in one of its own
    when none is open, so each sum is formed once; in the open scope the
    certificate is memoized on the identity of (A, B1, B2) and the budget
    (see groups._memoized), so each is built once there.

    With check_m, m_checked is verify_incm up to check_m, which raises on a
    shortfall past m = 1.  When B1 = B2 = A a verified inclusion is
    2(A-A) <= (A-A)+(T-T), which gives every m by induction, so a shortfall
    at m = 1 raises RuntimeError too (a library fault).
    """
    if witness_budget is None:
        witness_budget = _WITNESS_BUDGET
    elif not 0 <= witness_budget <= _WITNESS_BUDGET:
        raise ValueError(f"witness budget must be >= 0 and <= {_WITNESS_BUDGET}, got {witness_budget}")
    if check_m < 0:
        raise ValueError(f"check_m must be >= 0, got {check_m}")
    with _entry_scope():
        cert = _memoized((A, B1, B2), ("certificate", witness_budget), lambda: _certify(A, B1, B2, witness_budget))
        if check_m > 0:
            cert = replace(cert, m_checked=verify_incm(A, cert.translates, check_m))
            if cert.inclusion_verified and cert.m_checked < check_m and B1 == A and B2 == A:
                raise RuntimeError(
                    f"the iterated inclusion holds only up to m = {cert.m_checked} of {check_m}, "
                    "although 2(A-A) <= (A-A)+(T-T) was verified"
                )
    return cert


def _certify(A: GSet, B1: GSet, B2: GSet, witness_budget: int) -> CoveringCertificate:
    if not len(A):
        raise ValueError("base set must be nonempty")
    if not len(B1) or not len(B2):
        raise ValueError("summands must be nonempty")
    n = len(A)
    s1, s2 = len(sumset(A, B1)), len(sumset(A, B2))
    sigma = sumset(B1, B2)
    size_bound = _size_bound(A, B1, B2, witness_budget)
    if n <= witness_budget:
        found = pluennecke_witness(A, B1, B2)
        core, ratio, optimal = found.subset, found.ratio, True
        # ratio <= K1*K2 = s1*s2/n^2, cross-multiplied
        if ratio.numerator * n * n > s1 * s2 * ratio.denominator:
            raise RuntimeError(
                f"witness ratio {ratio} exceeds K1*K2 = {Fraction(s1 * s2, n * n)}; this should be impossible"
            )
    else:
        core, ratio, optimal = A, Fraction(len(sumset(A, sigma)), n), False
    T = greedy_translates(core, sigma)
    if len(T) > size_bound:
        raise RuntimeError(
            f"greedy produced {len(T)} translates, above the certified bound {size_bound}"
        )
    # (B1-B1) + (B2-B2) is sigma - sigma: formed from the pair with fewer sums
    # and kept under the key of (B1-B1) + (B2-B2), which verify_incm and
    # growth_table read when B1 = B2 = A
    D1, D2 = difference_set(B1, B1), difference_set(B2, B2)
    if len(sigma) ** 2 < len(D1) * len(D2):
        lhs = _memoized(groups._sum_key(D1, D2), "sum", lambda: difference_set(sigma, sigma))
    else:
        lhs = sumset(D1, D2)
    return CoveringCertificate(
        base=A,
        summand1=B1,
        summand2=B2,
        witness=core,
        translates=T,
        ratio1=Fraction(s1, n),
        ratio2=Fraction(s2, n),
        witness_ratio=ratio,
        witness_is_optimal=optimal,
        size_bound=size_bound,
        inclusion_verified=_in_sumset(lhs, difference_set(A, A), T),
    )


def _size_bound(A: GSet, B1: GSet, B2: GSet, witness_budget: Optional[int] = None) -> int:
    """The bound on |T| that covering_certificate(A, B1, B2, witness_budget) certifies, from sumset sizes alone.

    Up to the budget (by default _WITNESS_BUDGET) it is the witness path's
    floor(2*K1*K2 - 1), Ki = |A + Bi|/|A|; past it the counting bound
    floor(2*|A + B1 + B2|/|A| - 1): the first translate is wholly new and
    each later one adds >= |A|/2, so |A|(k+1)/2 <= |A + B1 + B2|.
    """
    n = len(A)
    if n <= (_WITNESS_BUDGET if witness_budget is None else witness_budget):
        return (2 * len(sumset(A, B1)) * len(sumset(A, B2)) - n * n) // (n * n)
    return (2 * len(sumset(A, sumset(B1, B2))) - n) // n


def verify_incm(A: GSet, T: GSet, m_max: int) -> int:
    """Largest m <= m_max with (m+1)(A-A) contained in (A-A) + m(T-T): 0 or m_max.

    Returns 0 when the m = 1 inclusion fails.  Once it holds, every m does
    by induction, (m+2)(A-A) <= 2(A-A) + m(T-T) <= (A-A) + (m+1)(T-T), so a
    later step that fails raises RuntimeError (a library fault).  Step m
    decides (m+1)(A-A) <= ((A-A) + (m-1)(T-T)) + (T-T) by _in_sumset handed
    T, so T-T and the right side are formed only from m = 2 on, as the base
    of step m, or when _in_sumset forms them.
    """
    lhs = rhs = D = difference_set(A, A)
    for m in range(1, m_max + 1):
        if m > 1:
            rhs = sumset(rhs, difference_set(T, T))
        lhs = sumset(lhs, D)
        if not _in_sumset(lhs, rhs, T):
            if m > 1:
                raise RuntimeError(f"the iterated inclusion fails at m = {m} although it holds at m = 1")
            return 0
    return m_max


def is_k_covering(B: GSet, T: GSet) -> bool:
    """Whether B + B <= B + (T - T), by _in_sumset handed T: from the marks of B + T, or the formed sum when it is small."""
    return _in_sumset(sumset(B, B), B, T)


@functools.lru_cache(maxsize=1024)
def j_count_table(k: int, m_max: int) -> Tuple[int, ...]:
    """(J(k,0), J(k,1), ..., J(k,m_max)) from the closed form, in exact integers.

    A nonzero tuple whose positive and negative parts both sum to s has
    i >= 1 positive and j >= 1 negative coordinates, i + j <= k: choose
    their places, C(k,i) C(k-i,j), and split s into i and into j positive
    parts, C(s-1,i-1) C(s-1,j-1).  J(k,m) adds these over s = 1..m to the
    zero tuple.
    """
    if k < 1 or m_max < 0:
        raise ValueError(f"need k >= 1 and m >= 0, got k={k}, m={m_max}")
    comb = math.comb
    out = [1]
    for s in range(1, m_max + 1):
        out.append(out[-1] + sum(
            comb(k, i) * comb(k - i, j) * comb(s - 1, i - 1) * comb(s - 1, j - 1)
            for i in range(1, k)
            for j in range(1, k - i + 1)
        ))
    return tuple(out)


def j_count(k: int, m: int) -> int:
    """Number of integer k-tuples whose positive parts and negative parts both sum to at most m, equally."""
    return j_count_table(k, m)[m]


@dataclass(frozen=True)
class JBoundReport(Certificate):
    k: int
    m: int
    count: int
    bound: Fraction  # (14m/k)^k, exact
    holds: bool

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """count < (14m/k)^k when m >= k, and count = 1 at k = 1 or m = 0."""
        claims = {"bound": self.holds} if self.m >= self.k else {}
        if self.k == 1 or self.m == 0:
            claims["count"] = self.count == 1  # J(1, m) and J(k, 0) count the zero tuple alone
        return claims


@functools.lru_cache(maxsize=1024)
def j_bound_report(k: int, m: int) -> JBoundReport:
    """Exact comparison of the tuple count against (14m/k)^k; requires m = 0 or m >= k."""
    if 0 < m < k:
        raise ValueError(f"the bound needs m = 0 or m >= k, got k={k}, m={m}")
    count = j_count(k, m)
    bound = Fraction(14 * m, k) ** k
    return JBoundReport(k, m, count, bound, count < bound)


@dataclass(frozen=True)
class GrowthBoundReport(Certificate):
    m: int
    k: int
    grown_size: int          # |(m+1)B|
    j_value: int
    j_bound_holds: bool      # |(m+1)B| <= |B| * J(k, m)
    ratio_bound: Optional[Fraction]   # (14m/k)^k when m >= k
    ratio_bound_holds: Optional[bool]

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """The tuple-count bound, and the ratio bound when m >= k."""
        claims = {"j_bound": self.j_bound_holds}
        if self.m >= self.k:
            claims["ratio_bound"] = self.ratio_bound_holds
        return claims


def growth_table(B: GSet, T: GSet, m_max: int) -> Tuple[GrowthBoundReport, ...]:
    """Growth reports for m = 1..m_max, sharing one covering check and one sum chain."""
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    if not is_k_covering(B, T):
        raise ValueError("B is not covered by T: B+B is not inside B+(T-T)")
    k = len(T)
    table = j_count_table(k, m_max)
    rows = []
    grown = B
    for m in range(1, m_max + 1):
        grown = sumset(grown, B)
        j = table[m]
        j_ok = len(grown) <= len(B) * j
        if m >= k:
            bound = j_bound_report(k, m).bound
            ratio_ok = len(grown) * bound.denominator < bound.numerator * len(B)
        else:
            bound = ratio_ok = None
        rows.append(GrowthBoundReport(m, k, len(grown), j, j_ok, bound, ratio_ok))
    return tuple(rows)

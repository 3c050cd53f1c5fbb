"""Diameter search, interval concentration, and order-k linearization.

A subset of Z/NZ has diameter l when l is the least integer such that the
set fits in an arithmetic progression {a, a+d, ..., a+l*d}.  Diameter is
what links a dominant character to linear structure: a difference set whose
transform nearly peaks at some frequency forces the set into a progression
shorter than delta*N, and a short progression can be mapped into the
integers preserving all k-term sum equalities.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from . import groups
from .fourier import _coefficient_one, _dominant, _magnitudes
from .groups import (
    BudgetError,
    Certificate,
    Element,
    Group,
    GSet,
    IntegerWindow,
    _index_add,
    _memoized,
    _mul_mod,
    _require,
    _sorted_distinct,
    difference_set,
    dilate,
)
from .primes import is_prime

__all__ = [
    "DiameterWitness",
    "LevWindow",
    "GapCoverResult",
    "SpectralDiameterResult",
    "IsoCheckResult",
    "RectificationWitness",
    "RectifyOutcome",
    "diameter",
    "lev_interval",
    "gap_cover",
    "diam_from_spectrum",
    "freiman_iso_check",
    "rectify",
]


@dataclass(frozen=True)
class DiameterWitness:
    """Certified minimal progression cover: A <= {start, start+step, ..., start+length*step}.

    Invariant under isomorphisms: length.  Presentation, tie-broken by the
    order of the units visited: step, start, normalized and units_searched.
    """

    length: int
    step: int
    start: int
    normalized: GSet        # step^-1 * (A - start), a subset of {0..length}
    # the multipliers visited (1 for a singleton); the dilation kernel gets a row for each one the bounds keep
    units_searched: int


# diameter visits at most this many multipliers t, and raises BudgetError when its scan needs more
_DIAMETER_BUDGET = 1 << 20
# the multiset check runs while C(|A| + k - 1, k) fits; past it a witness is unverified
_ISO_BUDGET = 200_000


def diameter(A: GSet) -> DiameterWitness:
    """Minimal-diameter search over the dilations u*A, u a unit in [1, N/2].

    For each unit u the shortest interval containing u*A is N minus the
    largest circular gap; u and N-u give mirror intervals, so half the units
    suffice.  The witness is the least unit of the least length.  If some
    difference d of A is a unit mod N, an interval of length l holding u*A holds
    u*d as well, so l >= t = |u*d| (centred mod N).  The units are visited as
    u = +-t*d^-1, folded into [1, N/2], for t = 1, 2, ... in doubling blocks;
    the scan stops after the block whose last t reaches the least length
    found, as every unit of that length or less has been visited, so the
    work is about diam(A) * |A|.  With no such d, or when N/2 fits in the
    first block, t = u and the scan stops after the block holding the first
    unit that reaches the floor |A| - 1.  Every scan stops at t = N/2.
    Once a length is found, a multiplier is dropped before its row is formed
    when |u*e| (centred), for e the last consecutive difference of A, or its
    t exceeds that length: its row cannot reach the length, and a row that
    ties it is kept, so the witness is the same.  No t past _DIAMETER_BUDGET
    is visited: a scan whose stop rule is unmet by then raises BudgetError,
    so a set whose diameter exceeds the budget costs about
    _DIAMETER_BUDGET * |A| products before it is refused.  units_searched
    counts the multipliers visited, dropped ones included.  While a memo
    scope is open, each set's witness is found once.
    """
    return _memoized((A,), "diameter", lambda: _diameter(A))


def _diameter(A: GSet) -> DiameterWitness:
    """diameter(A), found afresh."""
    g = _require(A.group, "cyclic")
    N = g.modulus
    if not len(A):
        raise ValueError("diameter of the empty set is undefined")
    if len(A) == 1:
        return DiameterWitness(0, 1 % N, int(A.packed()[0]), GSet._from_indices(g, np.zeros(1, dtype=np.int64)), 1)
    arr = A.packed()
    cap = max(1, groups._BLOCK // len(A))  # multipliers per block: at most _BLOCK products
    half, floor = N // 2, len(A) - 1  # no set does better than a full progression
    step = min(64, cap)  # blocks double from 64 multipliers, so N <= 129 is one block
    prime = is_prime(N)
    inv = None if half <= step else _unit_difference_inverse(arr, N)
    e = None if half <= step else int(arr[-1] - arr[-2])  # the last consecutive difference, a second bound on a row's length
    last = min(half, _DIAMETER_BUDGET)  # the last t to visit
    best = (N, 0, 0)  # (length, unit, start in dilated coordinates)
    lo, searched = 1, 0
    while lo <= last:
        hi = min(lo + step, last + 1)
        t = np.arange(lo, hi, dtype=np.int64)
        lo, step = hi, min(2 * step, cap)
        if not prime:
            t = t[np.gcd(t, N) == 1]  # u = +-t*inv is a unit exactly when t is
        if inv is None:
            u = t
        else:
            u = _mul_mod(t, inv, N)
            u = np.minimum(u, N - u)
        searched += u.size
        if e is not None and best[0] < N:
            # a row no longer than best puts u*e, and with inv also t, within best of 0 (centred)
            bound = _mul_mod(u, e, N)
            bound = np.minimum(bound, N - bound)
            if inv is not None:
                bound = np.maximum(bound, t)
            u = u[bound <= best[0]]
        if u.size:
            lengths, starts = _shortest_arcs(_mul_mod(arr, u[:, None], N), N)
            i = int(np.argmin(lengths))  # the least unit of the least length when u increases
            if inv is not None:
                ties = np.flatnonzero(lengths == lengths[i])
                i = int(ties[np.argmin(u[ties])])
            if (lengths[i], u[i]) < best[:2]:
                best = (int(lengths[i]), int(u[i]), int(starts[i]))
        if hi > half or (best[0] == floor if inv is None else best[0] < hi):
            break
    else:
        raise BudgetError(f"diameter scan visited {searched} multipliers up to its budget, t <= {last} (modulus {N})")
    length, u, start = best
    d = pow(u, -1, N)
    a = (d * start) % N
    row = np.sort(_affine_row(A, u, start))
    if row[-1] > length:
        raise RuntimeError("diameter witness failed its own containment check")
    return DiameterWitness(length, d, a, GSet._from_indices(g, row), searched)


def _unit_difference_inverse(idx: np.ndarray, N: int) -> Optional[int]:
    """+-d^-1 mod N, at most N/2, for the first difference d of consecutive indices that is a unit; None if none is."""
    diffs = np.diff(idx)
    units = diffs[np.gcd(diffs, N) == 1]
    if not units.size:
        return None
    inv = pow(int(units[0]), -1, N)
    return min(inv, N - inv)


def _affine_row(A: GSet, u: int, s: int) -> np.ndarray:
    """(u*x - s) mod N for every x in A <= Z/N, in A's order, for 0 <= u, s < N."""
    N = A.group.modulus  # type: ignore[union-attr]
    return (_mul_mod(A.packed(), u, N) - s) % N


def _shortest_arcs(rows: np.ndarray, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """(length, start) of the shortest circular interval of Z/N holding each row.

    It starts where the row's largest circular gap ends; the wraparound gap is
    column 0, so argmax prefers it on ties, then the first largest inner gap.
    """
    rows = np.sort(rows, axis=1)
    gaps = np.empty_like(rows)
    gaps[:, 0] = rows[:, 0] - rows[:, -1] + N
    np.subtract(rows[:, 1:], rows[:, :-1], out=gaps[:, 1:])
    i = gaps.argmax(axis=1)
    r = np.arange(len(rows))
    return N - gaps[r, i], rows[r, i]


def _best_window(B: GSet, l: int) -> Tuple[int, int]:
    """(start, count) of the window {s, s+1, ..., s+l} mod N holding the most points of B, the least start s on ties.

    Needs a nonempty B and 0 <= l < N.  The first best start is 0 or
    (p - l) mod N for some p in B, as a start s > 0 that beats s - 1 gains
    its last point s + l.  So only those |B| + 1 starts are counted, by
    binary search in the sorted points p followed by p + N: O(|B| log |B|)
    whatever N is, and every value stays below 2N <= 2^63.
    """
    N = B.group.modulus  # type: ignore[union-attr]
    p = B.packed()
    ring = np.concatenate((p, p + N))
    k = int(p.searchsorted(l))
    # the window of start (p - l) mod N ends at p or p + N: for the points p >= l, then p < l, starts ascend
    ends = ring[k : k + len(p)]
    counts = np.arange(k + 1, k + 1 + len(p)) - ring.searchsorted(ends - l)
    i = int(counts.argmax())
    at_zero = int(p.searchsorted(l, "right"))
    if at_zero >= counts[i]:
        return 0, at_zero
    return int(ends[i]) - l, int(counts[i])


@dataclass(frozen=True)
class LevWindow(Certificate):
    """Outcome of the concentration step at frequency one."""

    hypothesis_met: bool
    coefficient: float                # |B^(1)|
    threshold: float                  # (1 - 8 eps delta^2) |B|
    start: Optional[int] = None
    length: Optional[int] = None      # window is [start, start+length], length < delta*N
    exceptions: Optional[int] = None  # |B| minus points inside the window
    bound: Optional[float] = None     # eps * |B|
    conclusion_ok: Optional[bool] = None

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """exceptions < eps*|B|, claimed when the coefficient met its threshold."""
        return {"exceptions": self.conclusion_ok} if self.hypothesis_met else {}


def lev_interval(B: GSet, eps: float, delta: float) -> LevWindow:
    """Best near-covering interval of length < delta*N when B^(1) is nearly maximal.

    Returns the circular window of length ceil(delta*N) - 1 with fewest
    exceptions (smallest start on ties), found by _best_window among the
    |B| + 1 starts that can be first best, so N may be anything up to 2^62.
    Not-applicable is a value: hypothesis_met=False with the measured
    coefficient.
    """
    N = _require(B.group, "cyclic").modulus
    if not len(B):
        raise ValueError("empty set has no concentration interval")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 1/2), got {delta}")
    size = len(B)
    coeff = _memoized((B,), "coefficient_one", lambda: _coefficient_one(B))
    threshold = (1 - 8 * eps * delta * delta) * size
    if coeff < threshold:
        return LevWindow(False, coeff, threshold)
    length = max(0, math.ceil(delta * N) - 1)
    # memoized, so every eps at one delta reads one search
    start, inside = _memoized((B,), ("window", length), lambda: _best_window(B, length))
    exceptions = size - inside
    bound = eps * size
    return LevWindow(True, coeff, threshold, start, length, exceptions, bound, exceptions < bound)


@dataclass(frozen=True)
class GapCoverResult(Certificate):
    """Outcome of the gap-normalization step."""

    hypothesis_met: bool
    outside: int              # |(A-A) \ [b, b+l]|
    threshold: Fraction       # |A| / 2
    length: int
    start: Optional[int] = None   # the cover [start, start+length] when the hypothesis held
    conclusion_ok: Optional[bool] = None  # A <= [start, start+length], checked again on A

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """A inside [start, start+length], claimed when the hypothesis held."""
        return {"containment": self.conclusion_ok} if self.hypothesis_met else {}


def gap_cover(A: GSet, b: int, l: int) -> GapCoverResult:
    """If all but < |A|/2 of A-A sits in [b, b+l] with l < N/3, produce an interval cover of A.

    The covering interval starts where the largest circular gap of A ends;
    the containment is checked again on A, not assumed, and is the
    certificate's one claim.
    """
    return _gap_cover(A, difference_set(A, A), b, l)


def _gap_cover(A: GSet, D: GSet, b: int, l: int) -> GapCoverResult:
    """gap_cover with D = A - A already formed."""
    N = _require(A.group, "cyclic").modulus
    if not len(A):
        raise ValueError("empty set has no gap cover")
    if 3 * l >= N:
        raise ValueError(f"interval length {l} must satisfy l < N/3 = {N}/3")
    b = b % N
    outside = int(np.count_nonzero((D.packed() - b) % N > l))
    threshold = Fraction(len(A), 2)
    if 2 * outside >= len(A):
        return GapCoverResult(False, outside, threshold, l)
    start = int(_shortest_arcs(A.packed()[None, :], N)[1][0])
    span = int(((A.packed() - start) % N).max())
    return GapCoverResult(True, outside, threshold, l, start, span <= l)


@dataclass(frozen=True)
class SpectralDiameterResult(Certificate):
    """Outcome of the dominant-frequency to short-progression implication.

    Invariant under isomorphisms: hypothesis_met, diameter_upper and the
    claim.  Presentation: frequency (fourier._dominant's mirror choice, the
    smaller of +-r) and interval_start.
    """

    hypothesis_met: bool
    threshold: float                 # |D| - 4 delta^2 |A|
    frequency: Optional[int] = None
    coefficient: Optional[float] = None
    interval_start: Optional[int] = None
    interval_length: Optional[int] = None
    diameter_upper: Optional[int] = None   # certified diam A <= this
    diameter_bound: float = 0.0            # delta * N, strict upper target
    conclusion_ok: Optional[bool] = None

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """diameter_upper < delta*N, claimed when a frequency met the threshold."""
        return {"diameter": self.conclusion_ok} if self.hypothesis_met else {}


def diam_from_spectrum(A: GSet, delta: float) -> SpectralDiameterResult:
    """Derive a diameter bound < delta*N from a dominant difference-set frequency.

    Dilating by the dominant frequency r moves it to frequency one (the
    transform of r*D at 1 equals that of D at r), where the concentration
    and gap steps apply with eps = |A| / (2|D|).
    """
    N = _require(A.group, "cyclic").modulus
    if not 0 < delta < Fraction(1, 3):
        raise ValueError(f"delta must be in (0, 1/3), got {delta}")
    n = len(A)
    if n == 0:
        raise ValueError("empty set has no diameter")
    D = difference_set(A, A)
    m = len(D)
    threshold = m - 4 * delta * delta * n
    best_r, best_mag = _dominant(_magnitudes(D))
    if not best_r or best_mag < threshold:  # r = 0 is Z/1's one character, the principal one
        return SpectralDiameterResult(False, threshold, diameter_bound=delta * N)
    A1 = dilate(A, best_r)
    D1 = dilate(D, best_r)
    eps = n / (2 * m)
    lev = lev_interval(D1, eps, delta)
    if not lev.hypothesis_met or not lev.conclusion_ok:
        raise RuntimeError(f"frequency-one concentration failed after dilation (delta = {delta}, r = {best_r})")
    cover = _gap_cover(A1, D1, lev.start, lev.length)  # A1 - A1 = r*D = D1
    if not cover.hypothesis_met:
        raise RuntimeError(f"gap hypothesis failed although concentration held (delta = {delta}, r = {best_r})")
    if not cover.ok:
        raise RuntimeError(f"gap normalization exceeded the certified length (delta = {delta}, r = {best_r})")
    return SpectralDiameterResult(
        True,
        threshold,
        frequency=best_r,
        coefficient=best_mag,
        interval_start=cover.start,
        interval_length=cover.length,
        diameter_upper=cover.length,
        diameter_bound=delta * N,
        conclusion_ok=cover.length < delta * N,
    )


@dataclass(frozen=True)
class IsoCheckResult:
    ok: bool
    order: int
    # the k-multisets the verdict covers (all C on success, up to the clash on a failure), not the work done
    tuples_compared: int
    # two k-multisets witnessing the failure, with their sums on both sides
    counterexample: Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...]]] = None


# freiman_iso_check sums every k-multiset up to this many of them, and past it the k-fold sums of the map's graph
_GRAPH_ABOVE = 200


def freiman_iso_check(
    A: GSet, B: GSet, mapping: Mapping[Element, Element], k: int
) -> IsoCheckResult:
    """Whether mapping preserves equality of k-term sums in both directions.

    Sum each of the C = comb(|A| + k - 1, k) k-multisets of A in A's group
    and, through mapping, in B's.  The partitions of the multisets by
    domain sum and by image sum coincide exactly when the distinct domain
    sums, the distinct image sums and the distinct (domain, image) pairs
    are equally many: |kA| = |k mapping(A)| = |k Gamma|, Gamma the graph of
    the map in the product group.  Up to _GRAPH_ABOVE multisets the three
    are counted over _multiset_table, every multiset summed.  Past it they
    are counted by _graph_sums_agree, about |A| * sum_j |j Gamma| sums, and
    the table is built only for a map that fails.  A counterexample is the
    first clash in multiset order: the first multiset whose domain sum an
    earlier one had with another image sum (tuples_compared is its
    position), else the first two domain classes, in order of first
    appearance, that share an image sum (tuples_compared is C, as on
    success).  Injectivity is tested on the images reduced into B's group.
    """
    if k < 2:
        raise ValueError(f"isomorphism order must be >= 2, got {k}")
    for a in A.elements:
        if a not in mapping:
            raise ValueError(f"mapping is not defined on {a!r}")
    image = [mapping[a] for a in A.elements]
    ga, gb = A.group, B.group
    if gb.kind == "cyclic":
        image = [y % gb.modulus for y in image]
    elif gb.kind == "torsion":
        image = [gb.index(gb.normalize(y)) for y in image]
    if len(set(image)) != len(image):
        raise ValueError("mapping is not injective on A")
    n = len(A)
    C = math.comb(n + k - 1, k)
    values = A.packed().tolist() + image
    bound = k * int(max(map(abs, values), default=0))  # the table's sums lie below it
    graph = C > _GRAPH_ABOVE
    if graph:
        # a window side is shifted to start at 0, and each side's j-fold sums, j <= k, lie below its r
        sides = ((ga, values[:n]), (gb, image))
        shifts = [min(v) if g.kind == "window" else 0 for g, v in sides]
        r, r_image = [g.order or k * (max(v) - lo) + 1 for (g, v), lo in zip(sides, shifts)]
        bound = max(bound, r * r_image)  # the graph's keys lie below it
    addends = np.array(values)
    if addends.dtype.kind != "i" or bound >= 1 << 63:
        addends = np.array(values, dtype=object)  # exact past int64, and for values that are not ints
    if graph and _graph_sums_agree(ga, addends[:n] - shifts[0], gb, addends[n:] - shifts[1], r, k):
        return IsoCheckResult(True, k, C)
    # addends of every multiset, domain side then image side; sums in the same order
    table = _multiset_table(n, k)
    addends = addends[table]
    sums = np.add.reduce(addends)
    dom = _group_sums(ga, sums[:C], addends[:, :C])
    img = _group_sums(gb, sums[C:], addends[:, C:])
    if not graph:
        d, i = dom.tolist(), img.tolist()
        if len(set(d)) == len(set(i)) == len(set(zip(d, i))):
            return IsoCheckResult(True, k, C)
    return _first_clash(A, table, dom, img)


def _graph_sums_agree(ga: Group, x: np.ndarray, gb: Group, y: np.ndarray, r: int, k: int) -> bool:
    """Whether |kA| = |k phi(A)| = |k Gamma| for the graph Gamma = {(x_i, y_i)} of a map phi on A.

    x and y are the indices of A and of phi(A), in one dtype; a window's are
    shifted to start at 0, so the domain side of every pair of j Gamma,
    j <= k, lies in [0, r) and the pair is the one key x + r*y.  k Gamma is
    built in k - 1 steps S <- distinct(S + Gamma): each side adds by
    _index_add (a torsion side in int64, as in _group_sums), and the keys
    are deduplicated by _sorted_distinct.  The work is about |A| times the
    sum of |j Gamma| over j < k, against k*C for the table.
    """

    def add(g, s, t):  # indices of s_i + t_j, as rows i, in t's dtype
        if g.kind == "torsion":
            return _index_add(g, s[:, None].astype(np.int64), t.astype(np.int64)).astype(t.dtype, copy=False)
        return _index_add(g, s[:, None], t)

    sx, sy = x, y
    for _ in range(k - 1):
        keys = _sorted_distinct(add(ga, sx, x) + r * add(gb, sy, y))
        sy = keys // r
        sx = keys - r * sy
    return len(_sorted_distinct(sx)) == len(_sorted_distinct(sy)) == len(keys)


@functools.lru_cache(maxsize=64)
def _multiset_table(s: int, k: int) -> np.ndarray:
    """The k-multisets of range(s) as the columns of a read-only (k, 2C) array.

    The one enumeration of multisets in the package.  Columns run in
    combinations_with_replacement order, C = comb(s + k - 1, k), and the
    second C repeat them shifted by s: they index the domain values and then
    the image values, laid end to end.  A table takes 16*k*C bytes.
    freiman_iso_check builds one for every check up to _GRAPH_ABOVE
    multisets, and past it only for a map that fails.
    """
    C = math.comb(s + k - 1, k)
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(s), k))
    table = np.fromiter(flat, dtype=np.intp, count=C * k).reshape(C, k).T
    table = np.concatenate((table, table + s), axis=1)
    table.flags.writeable = False
    return table


def _group_sums(g: Group, plain: np.ndarray, addends: np.ndarray) -> np.ndarray:
    """Indices in g of the sums of the columns of addends, given their integer sums plain.

    Z/N reduces the integer sums; (Z/r)^n adds the rows with _index_add,
    in int64 (its indices stay below 2^24) whatever dtype the other side needed.
    """
    if g.kind == "cyclic":
        return plain % g.modulus
    if g.kind == "window":
        return plain
    return functools.reduce(functools.partial(_index_add, g), addends.astype(np.int64, copy=False))


def _first_clash(A: GSet, table: np.ndarray, dom: np.ndarray, img: np.ndarray) -> IsoCheckResult:
    """The failing IsoCheckResult, given A's multiset table and the domain and image sums of every multiset."""
    k = len(table)

    def combo(c):
        return tuple(A.elements[j] for j in table[:, c].tolist())

    _, first, inverse = np.unique(dom, return_index=True, return_inverse=True)
    first_of = first[inverse]  # each multiset's first multiset with the same domain sum
    split = np.flatnonzero(img != img[first_of])
    if split.size:
        c = int(split[0])
        return IsoCheckResult(False, k, c + 1, (combo(int(first_of[c])), combo(c)))
    reps = np.sort(first)  # one multiset per domain sum, in order of first appearance
    _, first, inverse = np.unique(img[reps], return_index=True, return_inverse=True)
    p = int(np.flatnonzero(first[inverse] != np.arange(len(reps)))[0])
    return IsoCheckResult(False, k, len(dom), (combo(int(reps[first[inverse[p]]])), combo(int(reps[p]))))


@dataclass(frozen=True)
class RectificationWitness:
    order: int
    dilation: int        # unit applied to A
    shift: int           # subtracted after dilation
    length: int          # image fits in {0..length}, order*length < N
    image: GSet          # integer window set
    verified: Optional[bool]   # None when the multiset check was over budget


@dataclass(frozen=True)
class RectifyOutcome(Certificate):
    witness: Optional[RectificationWitness]
    diameter: DiameterWitness
    required: int        # order * diameter length, must be < N

    @property
    def succeeded(self) -> bool:
        return self.witness is not None

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """The witness's multiset check (None when over budget), when there is a witness."""
        return {} if self.witness is None else {"multiset": self.witness.verified}


def rectify(A: GSet, k: int) -> RectifyOutcome:
    """Map A <= Z/NZ (N prime) into the integers preserving k-term sum equalities.

    Succeeds exactly when k * diam(A) < N; the witness composes the optimal
    dilation with a shift, its image is the diameter witness's normalized
    set, and it is certified by the independent multiset check when that
    fits _ISO_BUDGET.
    """
    N = _require(A.group, "prime").modulus
    if k < 2:
        raise ValueError(f"isomorphism order must be >= 2, got {k}")
    diam = diameter(A)
    required = k * diam.length
    if required >= N:
        return RectifyOutcome(None, diam, required)
    u = pow(diam.step, -1, N)
    shift = (u * diam.start) % N
    image = GSet._from_indices(IntegerWindow(0, diam.length), diam.normalized.packed())
    verified: Optional[bool] = None
    if math.comb(len(A) + k - 1, k) <= _ISO_BUDGET:
        mapping = dict(zip(A.elements, _affine_row(A, u, shift).tolist()))
        if not freiman_iso_check(A, image, mapping, k).ok:
            raise RuntimeError("rectification witness failed the multiset check")
        verified = True
    witness = RectificationWitness(k, u, shift, diam.length, image, verified)
    return RectifyOutcome(witness, diam, required)


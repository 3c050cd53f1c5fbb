"""Ambient groups, finite subsets, and exact sumset arithmetic.

Three ambient groups are supported: Z/NZ, a window of Z, and (Z/rZ)^n.
Elements are plain ints for the first two and coordinate tuples for the
third.  All set arithmetic is exact; floats never enter this module.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, ContextManager, Dict, Hashable, Iterable, Iterator, Optional, Tuple, TypeVar, Union

import numpy as np

from .primes import is_prime

__all__ = [
    "CyclicGroup",
    "IntegerWindow",
    "TorsionGroup",
    "Group",
    "Element",
    "GSet",
    "GroupMismatchError",
    "BudgetError",
    "NotApplicable",
    "Certificate",
    "sumset",
    "difference_set",
    "dilate",
    "translate",
    "negate",
    "is_subset",
    "doubling_ratio",
    "difference_ratio",
]

Element = Union[int, Tuple[int, ...]]

# Largest group order for dense index-space arrays: sumsets mark their sums in
# a boolean array of this length, and indicators and torsion groups stop here.
DENSE_ORDER_LIMIT = 1 << 24

# Marking sums densely costs O(order) however few the pairs, and sorting them
# costs O(pairs) plus about what marking 8,192 residues costs.  So _pairwise
# marks when order <= _DENSE_PAIR_FACTOR * (pairs + _SORT_SETUP_PAIRS), and
# sorts and deduplicates otherwise.  Measured crossover, square random
# operands in Z/q on a 2-vCPU Xeon VM (numpy 2.4), microseconds per sum:
#
#         q    order/pairs:   1             4             8             16            64
#                        dense  sorted  dense  sorted  dense  sorted  dense  sorted  dense  sorted
#       101               15      19      8      10      8       9      7       9     10      15
#     1,009               23      35     19      21     10      20     16      18     15      18
#    10,007               82     209     43      51     35      33     15      16     11      11
#    80,021              562   1,821    231     304    174     144    194      81     60      33
# 1,000,003            6,473  38,984  3,111   5,056  2,192   2,137  2,654     873    894     212
#
# Marking wins at every pair count up to q ~ 8,000 and down to order/pairs
# ~ 8 above it; the rule puts the switch at order/pairs = 8.9 at q = 80,021
# and 8.07 at q = 10^6.
_DENSE_PAIR_FACTOR = 8
_SORT_SETUP_PAIRS = 1024

# Values formed at once by every blocked kernel (pair sums here, folds,
# dilations, inclusion gathers): 2 MB of int64, which stays in a 2 MB L2 cache.
# Other modules read it as groups._BLOCK at call time, so one patch reaches all.
_BLOCK = 1 << 18

# (Z/r)^n indices add in chunks of w base-r digits, w the most with r^w at
# most this, through an (r^w x r^w) table of digitwise sums mod r: at most
# 2^16 entries (512 KB) per table, one table per (r, w) in a process.
_DIGIT_TABLE_ROWS = 256

# glibc's malloc parameters (mallopt) and the values set below: no block
# under 32 MB is mmapped, and up to 64 MB freed at the top of the heap is
# kept.  These are the thresholds glibc's own dynamic rule reaches after the
# first free of a 32 MB block.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_pages() -> None:
    """Fix glibc's mmap and trim thresholds so freed work buffers are reused.

    The dense kernels free arrays of 1-16 MB on every call (numpy's FFT work
    buffers at prime N ~ 10^5, marks and index arrays at q ~ 10^6).  By
    default glibc mmaps such a block and unmaps it on free, or trims it off
    the heap, until a larger free raises its thresholds, so each call faults
    its pages in afresh: 2,000-3,000 minor faults, 5-7 ms, per
    theorem1_pipeline at N ~ 75,000, and how much faulting an op pays
    depends on what ran before it.  A no-op off Linux or where the C library
    has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_pages()


class GroupMismatchError(ValueError):
    """Operands live in different ambient groups."""


class BudgetError(Exception):
    """A search or enumeration exceeded its budget; not a RuntimeError, which marks a fault."""


class NotApplicable(ValueError):
    """The operation is not defined on the ambient group; raised by _require alone."""


class Certificate:
    """A result that names its claims: checks maps each claim to True, False or None.

    None marks an undecided claim (its check was over a budget).  A claim
    whose hypothesis did not hold is absent, since it holds vacuously.
    """

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        raise NotImplementedError

    @property
    def ok(self) -> Optional[bool]:
        """False if any claim fails, else None if any is undecided, else True."""
        claims = self.checks.values()
        if False in claims:
            return False
        return None if None in claims else True


@dataclass(frozen=True)
class CyclicGroup:
    """The cyclic group Z/NZ with elements 0..N-1."""

    modulus: int
    kind: ClassVar[str] = "cyclic"

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        # int64 headroom for vectorized sums of two residues
        if self.modulus > (1 << 62):
            raise ValueError(f"modulus {self.modulus} exceeds the supported 2^62")

    @property
    def order(self) -> int:
        return self.modulus

    def ambient(self) -> tuple:
        return ("cyclic", self.modulus)

    def normalize(self, x: Element) -> int:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ValueError(f"cyclic element must be an integer, got {x!r}")
        return int(x) % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def index(self, x: int) -> int:
        return x

    def element_at(self, i: int) -> int:
        return i


@dataclass(frozen=True)
class IntegerWindow:
    """A window [lo, hi] of the integers; the ambient group is Z itself."""

    lo: int
    hi: int
    kind: ClassVar[str] = "window"

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"window requires lo <= hi, got [{self.lo}, {self.hi}]")
        # int64 headroom for vectorized sums of two window elements
        if max(abs(self.lo), abs(self.hi)) > (1 << 61):
            raise ValueError("window bounds exceed the representable range")

    @property
    def order(self) -> None:
        return None

    def ambient(self) -> tuple:
        return ("window",)

    def normalize(self, x: Element) -> int:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ValueError(f"window element must be an integer, got {x!r}")
        x = int(x)
        if not self.lo <= x <= self.hi:
            raise ValueError(f"element {x} outside window [{self.lo}, {self.hi}]")
        return x

    def add(self, a: int, b: int) -> int:
        return a + b

    def neg(self, a: int) -> int:
        return -a

    def index(self, x: int) -> int:
        return x

    def element_at(self, i: int) -> int:
        return i


@dataclass(frozen=True)
class TorsionGroup:
    """The product (Z/rZ)^n; every element has order dividing r."""

    exponent: int
    rank: int
    kind: ClassVar[str] = "torsion"

    def __post_init__(self) -> None:
        if self.exponent < 2:
            raise ValueError(f"exponent must be >= 2, got {self.exponent}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.exponent ** self.rank > DENSE_ORDER_LIMIT:
            raise ValueError("torsion group order exceeds the supported range")

    @property
    def order(self) -> int:
        return self.exponent ** self.rank

    def ambient(self) -> tuple:
        return ("torsion", self.exponent, self.rank)

    def normalize(self, x: Element) -> Tuple[int, ...]:
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and self.rank == 1:
            x = (int(x),)
        if not isinstance(x, (tuple, list)) or len(x) != self.rank:
            raise ValueError(
                f"torsion element must have {self.rank} coordinates, got {x!r}"
            )
        return tuple(int(c) % self.exponent for c in x)

    def add(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        r = self.exponent
        return tuple((x + y) % r for x, y in zip(a, b))

    def neg(self, a: Tuple[int, ...]) -> Tuple[int, ...]:
        r = self.exponent
        return tuple((-x) % r for x in a)

    def index(self, x: Tuple[int, ...]) -> int:
        i = 0
        for c in x:
            i = i * self.exponent + c
        return i

    def element_at(self, i: int) -> Tuple[int, ...]:
        coords = []
        for _ in range(self.rank):
            i, c = divmod(i, self.exponent)
            coords.append(c)
        return tuple(reversed(coords))


Group = Union[CyclicGroup, IntegerWindow, TorsionGroup]

# need -> (the kinds of group that meet it, what the refusal names)
_NEEDS = {
    "cyclic": (("cyclic",), "a cyclic ambient group"),
    "prime": (("cyclic",), "a cyclic ambient group"),
    "torsion": (("torsion",), "a bounded-exponent product group"),
    "finite": (("cyclic", "torsion"), "a finite ambient group"),
}


def _require(g: Group, need: str) -> Group:
    """g if it meets need, a key of _NEEDS ("prime" is Z/N with N prime), else NotApplicable.

    The one place the package refuses an ambient group; callers test before any work.
    """
    kinds, what = _NEEDS[need]
    if g.kind not in kinds:
        raise NotApplicable(f"this operation needs {what}")
    if need == "prime" and not is_prime(g.modulus):
        raise NotApplicable(f"modulus {g.modulus} is not prime")
    return g


def _require_same_ambient(a: "GSet", b: "GSet") -> None:
    if a.group.ambient() != b.group.ambient():
        raise GroupMismatchError(
            f"incompatible groups {a.group!r} and {b.group!r}"
        )


class GSet:
    """An immutable finite subset of an ambient group.

    The set is its sorted, distinct int64 index array (``packed``, read-only):
    the index of x is ``group.index(x)``, which is x itself in Z/N and in a
    window and the base-r number of the coordinates in (Z/r)^n, so index
    order is also the canonical serialization order.  ``elements`` is the
    tuple view in that order, built on first use.

    A set holds nothing derived from it.  While a ``_memo_scope`` is open,
    ``_memoized`` keeps sums, negations, dilations, character magnitudes,
    window counts, covering certificates and diameters in the scope's own
    dict, keyed by the identity of their operands, so an equal set built
    elsewhere shares nothing; the dict is dropped when the scope closes.
    """

    __slots__ = ("group", "_idx", "_elements")

    def __init__(self, group: Group, elements: Iterable[Element] = ()):
        norm = tuple(sorted({group.normalize(x) for x in elements}))
        self._store(group, np.array(list(map(group.index, norm)), dtype=np.int64), norm)

    def __setattr__(self, name, value):
        raise AttributeError("GSet is immutable")

    @classmethod
    def _from_indices(cls, group: Group, idx: np.ndarray) -> "GSet":
        # internal constructor: idx is the sorted, distinct index array of the set
        obj = object.__new__(cls)
        obj._store(group, idx, None)
        return obj

    def _store(self, group: Group, idx: np.ndarray, elements) -> None:
        # freezes idx, copying it first only when it views a writable base
        idx = idx.astype(np.int64, copy=idx.flags.writeable and not idx.flags.owndata)
        idx.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_elements", elements)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            object.__setattr__(self, "_elements", tuple(map(self.group.element_at, self._idx.tolist())))
        return self._elements

    def __len__(self) -> int:
        return len(self._idx)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        try:
            i = self.group.index(self.group.normalize(x))  # type: ignore[arg-type]
        except ValueError:
            return False
        j = int(self._idx.searchsorted(i))
        return j < len(self._idx) and int(self._idx[j]) == i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group.ambient() == other.group.ambient() and self._idx.tobytes() == other._idx.tobytes()

    def __hash__(self) -> int:
        return hash((self.group.ambient(), tuple(self._idx.tolist())))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, self.elements[:8]))
        if len(self) > 8:
            shown += f", ... ({len(self)} elements)"
        return f"GSet({self.group!r}, {{{shown}}})"

    def __add__(self, other: "GSet") -> "GSet":
        return sumset(self, other)

    def __sub__(self, other: "GSet") -> "GSet":
        return difference_set(self, other)

    def __neg__(self) -> "GSet":
        return negate(self)

    def packed(self) -> np.ndarray:
        """The sorted int64 index array that is the set (read-only)."""
        return self._idx

    def indicator(self) -> np.ndarray:
        """Dense 0/1 indicator array (cyclic: length N; torsion: shape (r,)*n)."""
        g = _require(self.group, "finite")
        if g.order > DENSE_ORDER_LIMIT:
            raise BudgetError(f"group order {g.order} too large for an indicator")
        ind = np.zeros(g.order, dtype=np.uint8)
        ind[self._idx] = 1
        if g.kind == "torsion":
            return ind.reshape((g.exponent,) * g.rank)
        return ind


# the memo of the innermost open _memo_scope, (tag, *operand ids) -> (operands, value); None when none is open
_SCOPE: contextvars.ContextVar[Optional[Dict[tuple, tuple]]] = contextvars.ContextVar("addcomb_memo_scope", default=None)

_T = TypeVar("_T")


@contextlib.contextmanager
def _memo_scope() -> Iterator[None]:
    """While open, _memoized keeps what it derives in a fresh dict; on exit the dict is dropped."""
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _entry_scope() -> ContextManager[None]:
    """The scope of an entry point: the open memo scope, or a fresh one when none is open."""
    return contextlib.nullcontext() if _SCOPE.get() is not None else _memo_scope()


def _memoized(operands: tuple, tag: Hashable, make: Callable[[], _T]) -> _T:
    """make(), kept under tag and the operands' identity while a _memo_scope is open; a fresh make() otherwise.

    The entry keeps the operands alive next to the value, so no id in a key
    can pass to a new object while the scope is open.
    """
    memo = _SCOPE.get()
    if memo is None:
        return make()
    key = (tag, *map(id, operands))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (operands, make())
    return entry[1]


@functools.lru_cache(maxsize=None)
def _digit_table(r: int, w: int) -> np.ndarray:
    """The (r^w, r^w) table whose entry [x, y] adds the w-digit base-r numbers x and y digitwise mod r (read-only)."""
    digits = np.indices((r,) * w, dtype=np.int64).reshape(w, -1)
    place = r ** np.arange(w - 1, -1, -1, dtype=np.int64)
    table = np.tensordot(place, (digits[:, :, None] + digits[:, None, :]) % r, axes=1)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _chunking(r: int, n: int) -> Tuple[int, Optional[np.ndarray]]:
    """(r^w, table) for adding (Z/r)^n indices w digits at a time; (r, None) when r exceeds _DIGIT_TABLE_ROWS."""
    w = 0
    while w < n and r ** (w + 1) <= _DIGIT_TABLE_ROWS:
        w += 1
    return (r, None) if w == 0 else (r**w, _digit_table(r, w))


def _residue_add(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(a + b) mod m for residues a, b in [0, m): m is subtracted where the sum reaches it, cheaper than % m."""
    s = a + b
    np.subtract(s, m, out=s, where=s >= m)
    return s


def _index_add(g: Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices of a + b for index arrays of the group g; shapes broadcast.

    The one place that knows how two indices add.  Z/N adds residues
    (_residue_add).  (Z/r)^n adds digitwise mod r, a chunk of w base-r
    digits at a time: the chunk's value is a row and a column of the cached
    _digit_table, so a group of order r^n <= 256 adds by one table lookup
    and a larger one by one lookup, a multiply and an add per chunk.  With
    r > 256 there is no table and each digit adds as a residue mod r.  A
    window adds plainly.  The result is a fresh array, never a table view.
    """
    if g.kind == "cyclic":
        return _residue_add(a, b, g.modulus)
    if g.kind == "torsion":
        base, table = _chunking(g.exponent, g.rank)

        def add(x, y):
            return _residue_add(x, y, base) if table is None else table[x, y]

        if base == g.order:
            return add(a, b)
        out = add(a % base, b % base)
        place = base
        while place < g.order:
            out += add(a // place % base, b // place % base) * place
            place *= base
        return out
    return a + b


def _pairwise(g: Group, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Sorted distinct indices of a + b over all pairs, about _BLOCK pairs at a time.

    In a finite group of order at most DENSE_ORDER_LIMIT the sums are marked
    over the index space (_marked_sums) once there are enough pairs to pay
    for it (see _DENSE_PAIR_FACTOR).  Otherwise the sums are sorted and
    deduplicated.
    """
    if len(pa) < len(pb):
        pa, pb = pb, pa
    order = g.order
    if order is not None and order <= min(DENSE_ORDER_LIMIT, _DENSE_PAIR_FACTOR * (len(pa) * len(pb) + _SORT_SETUP_PAIRS)):
        return np.flatnonzero(_marked_sums(g, pa, pb))
    step = max(1, _BLOCK // len(pa))
    parts = [_sorted_distinct(_index_add(g, pa[None, :], pb[i : i + step, None])) for i in range(0, len(pb), step)]
    return parts[0] if len(parts) == 1 else _sorted_distinct(np.concatenate(parts))


def _marked_sums(g: Group, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Boolean marks over the index space of the finite group g, True at each a + b.

    The rows are the shorter operand's elements, about _BLOCK pairs a block;
    the scan stops once every index is marked, checked only after a block
    that is not the last and once the pairs so far number at least the order.
    """
    if len(pa) < len(pb):
        pa, pb = pb, pa
    step = max(1, _BLOCK // len(pa))
    seen = np.zeros(g.order, dtype=bool)
    for i in range(0, len(pb), step):
        seen[_index_add(g, pa[None, :], pb[i : i + step, None])] = True
        done = i + step
        if done < len(pb) and done * len(pa) >= g.order and seen.all():
            break
    return seen


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted: a sort and an adjacent-difference mask.

    np.unique without an inverse or index takes a hash path that is 10-65x
    slower on 10^3 or more int64 values (numpy 2.4).
    """
    x = np.sort(x, axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _mul_mod(x: np.ndarray, u, N: int) -> np.ndarray:
    """x*u mod N as int64, for int64 residues x and an integer u or an int64 array u of residues broadcasting against x.

    The one place an index product is taken in object dtype: where (N - 1)*|u| could leave int64, |u| < N for an array.
    """
    bound = N - 1 if isinstance(u, np.ndarray) else abs(int(u))
    if (N - 1) * bound < 1 << 63:
        return x * u % N
    return (x.astype(object) * u % N).astype(np.int64)


def _index_scale(g: Group, idx: np.ndarray, lam: int) -> np.ndarray:
    """Sorted distinct indices of lam*x over the index array idx.

    A unit lam is injective, so only a non-unit drops duplicates.
    """
    out, unit = _index_times(g, idx, lam)
    return np.sort(out) if unit else _sorted_distinct(out)


def _index_times(g: Group, idx: np.ndarray, lam: int) -> Tuple[np.ndarray, bool]:
    """(indices of lam*x aligned with idx, whether lam is a unit of the group).

    Z/N multiplies by lam reduced to |lam| <= N/2, by _mul_mod; (Z/r)^n scales each
    base-r digit; a window multiplies plainly, so its caller bounds every
    product first.
    """
    if g.kind == "cyclic":
        N = g.modulus
        lam %= N
        unit = math.gcd(lam, N) == 1
        if 2 * lam > N:
            lam -= N
        out = _mul_mod(idx, lam, N)
    elif g.kind == "torsion":
        r = g.exponent
        unit = math.gcd(lam, r) == 1
        place = r ** np.arange(g.rank - 1, -1, -1, dtype=np.int64)
        out = (idx[:, None] // place % r * (lam % r) % r) @ place
    else:
        unit = lam != 0
        out = idx * lam
    return out, unit


def sumset(A: GSet, B: GSet) -> GSet:
    """Minkowski sum {a + b : a in A, b in B}."""
    return _memoized(_sum_key(A, B), "sum", lambda: _sumset(A, B))


def _sum_key(A: GSet, B: GSet) -> tuple:
    """The operands that key sumset(A, B) in a scope: the unordered pair, so B + A reads the A + B of the scope."""
    return (A, B) if id(A) <= id(B) else (B, A)


def _sumset(A: GSet, B: GSet) -> GSet:
    _require_same_ambient(A, B)
    g = A.group
    if not len(A) or not len(B):
        if g.kind == "window":
            g = IntegerWindow(g.lo + B.group.lo, g.hi + B.group.hi)  # type: ignore[union-attr]
        return GSet._from_indices(g, np.empty(0, dtype=np.int64))
    if len(A) == g.order or len(B) == g.order:
        # the whole group plus any nonempty set is the whole group
        return GSet._from_indices(g, (A if len(A) == g.order else B).packed())
    idx = _pairwise(g, A.packed(), B.packed())
    if g.kind == "window":
        g = IntegerWindow(int(idx[0]), int(idx[-1]))
    return GSet._from_indices(g, idx)


def negate(A: GSet) -> GSet:
    """The set {-a : a in A}."""
    g = A.group
    if g.kind == "window":
        g = IntegerWindow(-g.hi, -g.lo)  # type: ignore[union-attr]
    return GSet._from_indices(g, _index_scale(A.group, A.packed(), -1))


def _minus(B: GSet) -> GSet:
    """-B, or B itself when B and its window are symmetric, as every set in (Z/2)^n is; memoized like a sum.

    The memo also records -(-B) as B itself, so (-B) - (-B) reads the B - B of the scope.
    """
    def make() -> GSet:
        neg = negate(B)
        if neg.group == B.group and neg == B:
            return B
        _memoized((neg,), "neg", lambda: B)
        return neg

    return _memoized((B,), "neg", make)


def difference_set(A: GSet, B: GSet) -> GSet:
    """Minkowski difference {a - b : a in A, b in B}."""
    return sumset(A, _minus(B))


def translate(A: GSet, c: Element) -> GSet:
    """The set A + c."""
    g = A.group
    if g.kind == "window":
        c = int(c)
        # raises before A + c can leave the window range
        g = IntegerWindow(g.lo + c, g.hi + c)  # type: ignore[union-attr]
    else:
        c = g.index(g.normalize(c))
    return GSet._from_indices(g, np.sort(_index_add(g, A.packed(), c)))


def dilate(A: GSet, lam: int) -> GSet:
    """The set lam*A = {lam*a : a in A}."""
    lam = int(lam)
    # memoized, so the spectral diameter dilates A and A - A once for all its deltas
    return _memoized((A,), ("dilate", lam), lambda: _dilate(A, lam))


def _dilate(A: GSet, lam: int) -> GSet:
    g = A.group
    if g.kind == "window":
        ends = A.packed()[[0, -1]].tolist() if len(A) else [g.lo, g.hi]
        # raises before any lam*x leaves the window range; then |lam*x| <= 2^61, so
        # |lam| > 2^61 meets only x = 0 and clamping lam to int64 changes no product
        win = IntegerWindow(*sorted(lam * x for x in ends))
        lam = max(-1 << 61, min(lam, 1 << 61))
        return GSet._from_indices(win, _index_scale(g, A.packed(), lam))
    return GSet._from_indices(g, _index_scale(g, A.packed(), lam))


def is_subset(A: GSet, B: GSet) -> bool:
    """True when every element of A lies in B."""
    _require_same_ambient(A, B)
    if len(B) == B.group.order:
        return True  # the whole group holds every set
    a, b = A.packed(), B.packed()
    return len(a) <= len(b) and bool((b.take(b.searchsorted(a), mode="clip") == a).all())


def _in_sumset(X: GSet, Y: GSet, T: GSet) -> bool:
    """Whether X <= Y + (T - T): the one kernel that decides such an inclusion.

    When |Y|*min(|T|^2, order), a bound on |Y|*|T - T|, is at most _BLOCK, or
    the group has no dense index space (a window, or an order above
    DENSE_ORDER_LIMIT), it forms the memoized sumset(Y, T - T), which later
    checks in the same scope may read.  Otherwise neither T - T nor the sum
    is formed: _in_sumset_scan decides, on X folded when -Y = Y, as the sum
    is symmetric then.  The answer is memoized under "in_sum", so the callers
    in a scope share one decision per (X, Y, T).
    """
    g = X.group
    if g.order is None or g.order > DENSE_ORDER_LIMIT or len(Y) * min(len(T) ** 2, g.order) <= _BLOCK:
        return _memoized((X, Y, T), "in_sum", lambda: is_subset(X, sumset(Y, difference_set(T, T))))
    _require_same_ambient(X, Y)
    _require_same_ambient(Y, T)
    x = X.packed()
    return _memoized((X, Y, T), "in_sum", lambda: _in_sumset_scan(g, _fold(g, x) if _minus(Y) is Y else x, Y.packed(), T.packed()))


def _fold(g: Group, x: np.ndarray) -> np.ndarray:
    """x less each point whose negation is in x at a lesser index: one point of each pair {y, -y} that x meets, by marks of x."""
    neg = _index_times(g, x, -1)[0]
    held = np.zeros(g.order, dtype=bool)
    held[x] = True
    return x[(x <= neg) | ~held[neg]]


def _in_sumset_scan(g: Group, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> bool:
    """Whether every index in x is a + b - c with a in y and b, c in t, for a finite group g.

    That is, x + c is in y + t for some c in t.  y + t is marked once; the
    rows c of t then come in blocks over the points rem that no row so far
    reaches: the k-th block takes 2^k rows, k = 0, 1, ..., or fewer so as to
    look up at most about _BLOCK values of x + c, so a set that the first
    rows of t strike off costs about |x| lookups.  True once rem is empty,
    False only after the last row.
    """
    marks = _marked_sums(g, y, t)
    rem, i, size = x, 0, 1
    while len(rem):
        if i == len(t):
            return False
        rows = t[i : i + min(size, max(1, _BLOCK // len(rem)))]
        i, size = i + len(rows), 2 * size
        rem = rem[~marks[_index_add(g, rem[None, :], rows[:, None])].any(axis=0)]
    return True


def doubling_ratio(A: GSet) -> Fraction:
    """|A+A| / |A| as an exact rational."""
    if not len(A):
        raise ValueError("doubling ratio of the empty set is undefined")
    return Fraction(len(sumset(A, A)), len(A))


def difference_ratio(A: GSet) -> Fraction:
    """|A-A| / |A| as an exact rational."""
    if not len(A):
        raise ValueError("difference ratio of the empty set is undefined")
    return Fraction(len(difference_set(A, A)), len(A))

"""Instance generation: exhaustive sweeps, seeded random sets, structured families."""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .groups import (
    CyclicGroup,
    Element,
    GSet,
    Group,
    IntegerWindow,
    TorsionGroup,
    _mul_mod,
    _require,
)
from .torsion import subgroup_generated

__all__ = [
    "exhaustive_sets",
    "random_sets",
    "progression",
    "union_progressions",
    "subspace_coset",
    "canonical_affine_form",
    "parse_group",
    "parse_elements",
    "parse_shape",
]


def _pool(group: Group) -> Sequence:
    """The group's index space, in increasing order."""
    if group.kind == "window":
        return range(group.lo, group.hi + 1)
    return range(group.order)


def exhaustive_sets(group: Group, max_size: int, normalize: bool = False) -> Iterator[GSet]:
    """All subsets with 1 <= |A| <= max_size, smallest first.

    With normalize=True (cyclic groups only) only the canonical
    representative of each translation/dilation orbit is yielded.
    """
    if max_size < 1:
        raise ValueError(f"bad size range [1, {max_size}]")
    if normalize:
        _require(group, "cyclic")
    pool = _pool(group)
    for size in range(1, max_size + 1):
        if normalize:
            yield from _orbit_representatives(group, size)
        else:
            for combo in itertools.combinations(pool, size):
                yield GSet._from_indices(group, np.array(combo, dtype=np.int64))


# rows of one _canonical_rows call in exhaustive_sets, so memory stays bounded however many sets there are
_ORBIT_BLOCK = 4096


def _orbit_representatives(group: CyclicGroup, size: int) -> Iterator[GSet]:
    """The size-element sets equal to their canonical affine form, in lex order.

    A lex-least image holds 0, so only the sets through 0 are candidates;
    they are the lex-first sets of their size, so the order is that of
    itertools.combinations over the whole group.
    """
    N = group.modulus
    tails = itertools.combinations(range(1, N), size - 1)
    while True:
        block = list(itertools.islice(tails, _ORBIT_BLOCK))
        if not block:
            return
        rows = np.zeros((len(block), size), dtype=np.int64)
        rows[:, 1:] = block
        for row in rows[(_canonical_rows(rows, N) == rows).all(axis=1)]:
            yield GSet._from_indices(group, row)


def canonical_affine_form(A: GSet) -> GSet:
    """Lexicographically least image of A under x -> u*x + c with u a unit."""
    g = _require(A.group, "cyclic")
    if not len(A):
        return A
    return GSet._from_indices(g, _canonical_rows(A.packed()[None, :], g.modulus)[0])


def _canonical_rows(rows: np.ndarray, N: int) -> np.ndarray:
    """The lex-least image of each row under x -> u*x + c mod N, u a unit.

    rows is an (M, s) int64 array of sorted distinct residues.  For each
    unit u, the s translates of u*row that send one of its elements to 0
    (a lex-least image holds 0) are sorted, and a running minimum per row
    keeps the least of them; it starts at the row shifted to 0, which is
    the answer in Z/1, whose only unit is 0.  Candidates are compared one
    column at a time, so no value beyond N is formed; _mul_mod takes u*x.
    """
    best = rows - rows[:, :1]
    pick = np.arange(len(rows))
    for u in range(1, N):
        if math.gcd(u, N) != 1:
            continue
        v = _mul_mod(rows, u, N)
        cand = np.sort((v[:, None, :] - v[:, :, None]) % N, axis=2)
        cand = np.concatenate((best[:, None, :], cand), axis=1)
        alive = np.ones(cand.shape[:2], dtype=bool)
        # column 0 of every candidate is 0
        for j in range(1, rows.shape[1]):
            col = cand[:, :, j]
            alive &= col == np.where(alive, col, N).min(axis=1, keepdims=True)
        best = cand[pick, alive.argmax(axis=1)]
    return best


def random_sets(group: Group, size: int, count: int, seed: int) -> List[GSet]:
    """count sets of the given size, reproducible from the seed."""
    pool = _pool(group)
    if size < 0 or size > len(pool):
        raise ValueError(f"cannot sample {size} distinct elements from {len(pool)}")
    if count < 0:
        raise ValueError(f"need a count >= 0, got {count}")
    rng = random.Random(seed)
    return [
        GSet._from_indices(group, np.sort(np.array(rng.sample(pool, size), dtype=np.int64)))
        for _ in range(count)
    ]


def progression(group: Group, start: Element, step: Element, length: int) -> GSet:
    """{start, start+step, ..., start+(length-1)*step}; duplicates collapse."""
    if length < 1:
        raise ValueError(f"need length >= 1, got {length}")
    cur = group.normalize(start)
    step = group.normalize(step)
    out = [cur]
    for _ in range(length - 1):
        cur = group.add(cur, step)
        out.append(cur)
    return GSet(group, out)


def union_progressions(
    group: Group, parts: Sequence[Tuple[Element, Element, int]]
) -> GSet:
    """Union of progressions given as (start, step, length) triples."""
    if not parts:
        raise ValueError("need at least one progression")
    elems: list = []
    for start, step, length in parts:
        elems.extend(progression(group, start, step, length).elements)
    return GSet(group, elems)


def subspace_coset(group: TorsionGroup, basis: Sequence[Element]) -> GSet:
    """span(basis) inside (Z/rZ)^n, the coset through 0."""
    return subgroup_generated(GSet(group, basis))


def parse_group(spec: str) -> Group:
    """Parse "cyclic:N", "window:lo:hi", or "torsion:r:n"."""
    parts = spec.split(":")
    try:
        if parts[0] == "cyclic" and len(parts) == 2:
            return CyclicGroup(int(parts[1]))
        if parts[0] == "window" and len(parts) == 3:
            return IntegerWindow(int(parts[1]), int(parts[2]))
        if parts[0] == "torsion" and len(parts) == 3:
            return TorsionGroup(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad group spec {spec!r}")


def parse_elements(spec: str, group: Group) -> GSet:
    """Parse "0,1,3" (cyclic/window) or "0,0,1;1,0,1" (torsion tuples)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty element list")
    tokens = spec.split(";" if group.kind == "torsion" else ",")
    return GSet(group, [_parse_one(token, group) for token in tokens])


_SHAPE_FORMS = {
    "exhaustive": "exhaustive:<max_size>[:normalize]",
    "random": "random:<size>:<count>",
    "progression": "progression:<start>:<step>:<length>",
    "union": "union:<a:d:l>;<a:d:l>...",
    "coset": "coset:<basis elements, ';'-separated>",
}


def parse_shape(spec: str, group: Group, seed: int = 0) -> Iterator[GSet]:
    """Generator specs for the enumerate command, in the forms of _SHAPE_FORMS.

    A spec with the wrong number of fields, or a field that is not a number
    or an element, is refused naming its form.
    """
    head, _, rest = spec.partition(":")
    if head not in _SHAPE_FORMS:
        raise ValueError(f"unknown shape {head!r}")
    bad = f"bad shape {spec!r}: expected {_SHAPE_FORMS[head]}"

    def fields(part: str, count: int) -> List[str]:
        found = part.split(":")
        if len(found) != count:
            raise ValueError(bad)
        return found

    def number(token: str, element: bool = False):
        try:
            return _parse_one(token, group) if element else int(token)
        except ValueError:
            raise ValueError(bad) from None

    if head == "exhaustive":
        size, *modifiers = rest.split(":")
        if modifiers not in ([], ["normalize"]):
            raise ValueError(bad)
        return exhaustive_sets(group, number(size), normalize=bool(modifiers))
    if head == "random":
        size, count = fields(rest, 2)
        return iter(random_sets(group, number(size), number(count), seed))
    if head == "progression":
        a, d, l = fields(rest, 3)
        return iter([progression(group, number(a, True), number(d, True), number(l))])
    if head == "union":
        parts = []
        for chunk in rest.split(";"):
            a, d, l = fields(chunk, 3)
            parts.append((number(a, True), number(d, True), number(l)))
        return iter([union_progressions(group, parts)])
    _require(group, "torsion")
    return iter([subspace_coset(group, [number(chunk, True) for chunk in rest.split(";")])])


def _parse_one(token: str, group: Group) -> Element:
    if group.kind == "torsion":
        return tuple(int(c) for c in token.split(","))
    return int(token)

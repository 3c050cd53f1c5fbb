"""Coset covers in bounded-exponent groups.

In (Z/rZ)^n a set with small doubling sits inside a coset of a subgroup not
much larger than the set itself.  The subgroup is gen(A-A); the covering
module supplies a translate set T whose differences generate everything
gen(A-A) needs beyond A-A, and |gen(T-T)| <= r^(|T|-1) turns the covering
size bound into a subgroup size bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .covering import _WITNESS_BUDGET, CoveringCertificate, _size_bound, covering_certificate
from .groups import (
    Certificate,
    Element,
    GSet,
    _entry_scope,
    _in_sumset,
    _memoized,
    _minus,
    _pairwise,
    _require,
    difference_set,
    is_subset,
    sumset,
    translate,
)

__all__ = ["SubgroupCosetCertificate", "subgroup_generated", "torsion_cover"]


def subgroup_generated(X: GSet) -> GSet:
    """Smallest subgroup of (Z/rZ)^n containing X.

    Every element has finite order, so the subgroup is the closure of {0}
    under adding elements of X.  The closure grows level by level: each level
    adds all of X to the elements the previous level first reached, in one
    call of the sumset kernel, and keeps the sums not reached before.  An
    empty X generates {0}.  A memo scope records -H and H + H as H.
    """
    g = _require(X.group, "torsion")
    member = np.zeros(g.order, dtype=bool)
    member[0] = True
    frontier = np.array([0], dtype=np.int64)
    gens = X.packed()
    while frontier.size and gens.size:
        reached = _pairwise(g, frontier, gens)
        frontier = reached[~member[reached]]
        member[frontier] = True
    H = GSet._from_indices(g, np.flatnonzero(member))
    _memoized((H,), "neg", lambda: H)
    return _memoized((H, H), "sum", lambda: H)


@dataclass(frozen=True)
class SubgroupCosetCertificate(Certificate):
    """A <= coset_rep + subgroup, with the subgroup size certified against both bounds.

    bound_a uses the doubling ratio in factor and exponent; bound_b the
    difference ratio.  The *_raw fields are the exact uncapped values (they
    can exceed |G|); bound_a / bound_b are capped at the group order.  The
    *_holds flags compare subgroup_size against the raw bounds.

    Invariant under isomorphisms of the group: route, doubling, diff_ratio,
    subgroup_size, the bounds and every claim, and the covering's invariant
    fields.  Presentation, tie-broken by element order: generators,
    coset_rep and the covering's translates.
    """

    base: GSet
    generators: Tuple[Element, ...]
    subgroup: GSet
    coset_rep: Element
    subgroup_size: int
    doubling: Fraction
    diff_ratio: Fraction
    bound_a_raw: Fraction
    bound_b_raw: Fraction
    bound_a: int
    bound_b: int
    contains_a: bool
    gen_inclusion_holds: bool
    size_factor_holds: bool   # |gen(A-A)| <= |A-A| * r^(|T|-1)
    bound_a_holds: bool
    bound_b_holds: bool
    witness_used: bool
    route: str                # covering ran on (A, A, A) or (A, -A, -A)
    covering: CoveringCertificate

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """The five verified claims, by name."""
        return {
            "contains_a": self.contains_a,
            "gen_inclusion": self.gen_inclusion_holds,
            "size_factor": self.size_factor_holds,
            "bound_a": self.bound_a_holds,
            "bound_b": self.bound_b_holds,
        }


def torsion_cover(A: GSet, witness_budget: int = _WITNESS_BUDGET) -> SubgroupCosetCertificate:
    """Certified subgroup-coset cover of A in (Z/rZ)^n, from one covering certificate.

    The covering construction runs on one route: "sum", summands (A, A), or,
    when A is not symmetric, "difference", summands (-A, -A); 2(A-A) is
    inside (A-A)+(T-T) either way, so gen(A-A) <= (A-A)+gen(T-T).  The route
    is chosen before any certificate is built, by the size bound each would
    certify, covering._size_bound at witness_budget (by default
    covering._WITNESS_BUDGET), from sumset sizes alone.  The smaller bound
    wins and a tie goes to "sum", so the route is an invariant of A under
    isomorphisms and "sum" reads the (A, A, A) certificate of the scope.
    The call runs in the open memo scope, or in one of its own when none is
    open.  Every inclusion and size comparison is re-verified on the actual
    sets, each size comparison in integers.
    """
    g = _require(A.group, "torsion")
    if not len(A):
        raise ValueError("cover of the empty set is undefined")
    with _entry_scope():
        r = g.exponent
        n = len(A)
        D = difference_set(A, A)
        s, d = len(sumset(A, A)), len(D)
        neg_a = _minus(A)
        route, B = "sum", A
        if neg_a is not A and _size_bound(A, neg_a, neg_a, witness_budget) < _size_bound(A, A, A, witness_budget):
            route, B = "difference", neg_a
        cert = covering_certificate(A, B, B, witness_budget=witness_budget)
        T = cert.translates
        t0 = T.elements[0]
        gens = tuple(g.add(t, g.neg(t0)) for t in T.elements[1:])
        # h_t - h_t = h_t, so _in_sumset handed h_t decides gen(A-A) <= (A-A) + h_t
        h_t = subgroup_generated(GSet(g, gens))
        subgroup = subgroup_generated(D)
        size = len(subgroup)
        # e = floor(2K^2 - 2); bound_a_raw = s^2 r^e_a / n and bound_b_raw = d r^e_b, compared as integers
        e_a = (2 * s * s - 2 * n * n) // (n * n)
        e_b = (2 * d * d - 2 * n * n) // (n * n)
        top_a = s * s * r ** e_a
        raw_b = d * r ** e_b
        return SubgroupCosetCertificate(
            base=A,
            generators=gens,
            subgroup=subgroup,
            coset_rep=A.elements[0],
            subgroup_size=size,
            doubling=Fraction(s, n),
            diff_ratio=Fraction(d, n),
            bound_a_raw=Fraction(top_a, n),
            bound_b_raw=Fraction(raw_b),
            bound_a=min(top_a // n, g.order),
            bound_b=min(raw_b, g.order),
            contains_a=is_subset(A, translate(subgroup, A.elements[0])),
            gen_inclusion_holds=_in_sumset(subgroup, D, h_t),
            size_factor_holds=size <= d * r ** (len(T) - 1),
            bound_a_holds=size * n <= top_a,
            bound_b_holds=size <= raw_b,
            witness_used=cert.witness_is_optimal,
            route=route,
            covering=cert,
        )

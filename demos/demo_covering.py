"""
Translate covers and polynomial sumset growth
=============================================

A set B with B+B inside B+(T-T) for a small translate set T cannot grow
faster than |B| times a polynomial in the iteration count.  This script
builds such a certificate and walks the growth bound it implies.
"""

from addcomb import (
    CyclicGroup,
    GSet,
    covering_certificate,
    growth_table,
    is_k_covering,
    j_count,
    j_bound_report,
    verify_incm,
)

g = CyclicGroup(1009)
A = GSet(g, range(10))

# With A = B1 = B2 the certificate finds a Pluennecke witness subset,
# greedily picks translates of it covering A + A + A, and re-verifies the
# defining inclusion exhaustively.
cert = covering_certificate(A, A, A)
print("translates T =", cert.translates.elements)
print("|T| =", len(cert.translates), "  certified bound:", cert.size_bound)
print("witness subset:", cert.witness.elements)
print("inclusion re-verified:", cert.inclusion_verified)

# The inclusion iterates: (m+1)(A-A) stays inside (A-A) + m(T-T).
print("iterated inclusion depth:", verify_incm(A, cert.translates, 4))

# T also covers the difference set in the k-covering sense.
from addcomb import difference_set

B = difference_set(A, A)
print("B = A - A is k-covered by T:", is_k_covering(B, cert.translates))

# J(k, m) counts the representations driving the growth bound; it stays
# under (14m/k)^k once m >= k.
print("J(3, m) for m = 0..6:", [j_count(3, m) for m in range(7)])
rep = j_bound_report(3, 8)
print(f"J(3, 8) = {rep.count} < (14*8/3)^3 = {float(rep.bound):.1f}: {rep.holds}")

# growth_table certifies |(m+1)B| <= |B| * J(|T|, m) row by row.
for row in growth_table(B, cert.translates, 5):
    print(
        f"m={row.m}: |{row.m + 1}B| = {row.grown_size:5d}"
        f"  <= |B|*J = {len(B) * row.j_value:6d}  ok={row.j_bound_holds}"
    )

"""
Sumsets and doubling in finite abelian groups
=============================================

"""

# Sets live inside a group object: integers mod N, or a torsion product
# (Z/r)^n.  A GSet is an immutable, canonically sorted subset.
from addcomb import (
    CyclicGroup,
    GSet,
    TorsionGroup,
    canonical_affine_form,
    difference_set,
    doubling_ratio,
    exhaustive_sets,
    sumset,
)

g = CyclicGroup(101)
A = GSet(g, [0, 1, 3, 7])
B = GSet(g, [0, 10])

print("A       =", A.elements)
print("B       =", B.elements)
print("A + B   =", sumset(A, B).elements)
print("A - A   =", difference_set(A, A).elements)

# The doubling ratio |A+A| / |A| measures additive structure: intervals
# stay near 2, random sets grow like |A|^2 until they saturate.
interval = GSet(g, range(10))
spread = GSet(g, [1, 5, 29, 57, 83])
print("doubling of an interval:", doubling_ratio(interval))
print("doubling of a spread set:", doubling_ratio(spread))

# Iterated sumsets kA = A + ... + A show the growth trajectory directly.
kA = A
for k in range(1, 6):
    print(f"|{k}A| =", len(kA))
    kA = sumset(kA, A)

# The same operations work verbatim in torsion groups; elements are tuples.
h = TorsionGroup(2, 4)
X = GSet(h, [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)])
print("X + X in (Z/2)^4:", sumset(X, X).elements)

# Instance generators drive the test batteries.  Exhaustive enumeration
# can collapse each affine orbit to one canonical representative.
reps = [s for s in exhaustive_sets(CyclicGroup(13), 3, normalize=True)]
print(f"{len(reps)} canonical orbit representatives with |A| <= 3 mod 13")
print("canonical form of A:", canonical_affine_form(A).elements)

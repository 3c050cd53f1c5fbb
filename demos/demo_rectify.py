"""
Diameter, concentration windows, and breaking the circle
========================================================

A subset of Z/NZ whose difference set has a dominant frequency sits in a
short arithmetic progression; short enough, and it embeds into the
integers without losing any k-term sum structure.
"""

from addcomb import (
    CyclicGroup,
    GSet,
    diam_from_spectrum,
    diameter,
    freiman_iso_check,
    rectify,
)

g = CyclicGroup(101)
A = GSet(g, [3, 20, 37, 54, 71])  # an honest progression with step 17

# The diameter search dilates A by units u, in order of |u*d| for a
# difference d of A (an interval of length l holding u*A has |u*d| <= l),
# and stops once that order passes the shortest interval found; here all
# N/2 = 50 units fit in its first block.  This set collapses to {0..4}
# under the right unit.
dw = diameter(A)
print("diameter:", dw.length, " via step", dw.step, "start", dw.start)
print("normalized:", dw.normalized.elements)

# The spectral route reaches the same conclusion without trying units:
# a large difference-set coefficient forces concentration, concentration
# forces a short cover.
res = diam_from_spectrum(A, 0.2)
print("dominant frequency:", res.frequency)
print("certified diameter <=", res.diameter_upper, " target <", res.diameter_bound)

# Rectification: when k * diam(A) < N the dilation that realizes the
# diameter is an isomorphism of order k onto a set of integers.
out = rectify(A, 3)
w = out.witness
print("rectified:", out.succeeded, " image:", w.image.elements)
print("multiset check passed:", w.verified)

# The certificate is independently checkable: the induced map must give
# identical sum-collision patterns on every k-tuple, both directions.
mapping = {x: (w.dilation * x - w.shift) % 101 for x in A.elements}
print("external check:", freiman_iso_check(A, w.image, mapping, 3).ok)

# Large diameter blocks high orders: 34 fits twice inside 101 but not
# three times, so this set embeds at order 2 only.
knotty = GSet(g, [2, 3, 8, 34, 89])
print("knotty set diameter:", diameter(knotty).length)
out2 = rectify(knotty, 2)
print("order 2 image:", out2.witness.image.elements)
print("order 3 succeeds:", rectify(knotty, 3).succeeded)

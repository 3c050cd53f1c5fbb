"""
Character sums and the large-coefficient certificate
====================================================

"""

from fractions import Fraction

from addcomb import (
    CyclicGroup,
    GSet,
    certified_large_coefficient,
    convolution_counts,
    eta_largecoeff,
    moment_chain,
    smallest_prime_in,
    spectrum,
)

# The spectrum of a set is the magnitude of its character sums; for an
# interval these are Dirichlet kernels, so frequency one is dominant.
g = CyclicGroup(101)
B = GSet(g, range(8))
rep = spectrum(B)
print("|B^(r)| at the top frequencies:", [(r, round(m, 3)) for r, m in rep.top[:4]])
print("Parseval residual:", rep.parseval_residual)

# r-counts: how many (m+1)-tuples of B sum to each point.  The total mass
# is exactly |B|^(m+1), checked in integers.
cc = convolution_counts(B, 2)
print("triple sums land on", len(cc.support), "points; mass =", cc.total)

# The moment chain lower-bounds the largest nonprincipal coefficient from
# the concentration of those counts: max |B^|^(2m) >= (1/R - 1/N)|B|^(2m+1)
# with R = |(m+1)B|.  One fold chain and one FFT serve every m.
for mom in moment_chain(B, 3):
    print(
        f"m = {mom.m}: R = {mom.support_size}, max |B^| = {mom.max_magnitude:.4f}"
        f" vs moment bound {mom.max_power_bound ** (1 / (2 * mom.m)):.4f}: ok={mom.ok}"
    )

# End to end: a sparse-enough covered set must have a near-maximal
# coefficient.  beta is the density, eta the certified closeness; the
# gate needs beta under 14^-3, far sparser than the set above.
N = smallest_prime_in(14 ** 4 * 10, 14 ** 4 * 10 + 1000)
g = CyclicGroup(N)
interval = GSet(g, range(10))
ends = GSet(g, (0, 9))
params = eta_largecoeff(Fraction(len(interval), N), 2)
print(f"beta = {float(params.beta):.2e}, m = {params.m}, eta = {params.eta:.3f}")
cert = certified_large_coefficient(interval, ends)
print(
    f"N = {N}: coefficient {cert.magnitude:.3f} >= (1 - {cert.eta:.3f}) * 10"
    f" = {cert.threshold:.3f}: {cert.holds}"
)

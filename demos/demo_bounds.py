"""
Constant chains, the analysis pipeline, and the instance suite
==============================================================

"""

from fractions import Fraction

from addcomb import (
    CyclicGroup,
    GSet,
    bound_calculator,
    dumps,
    exhaustive_sets,
    run_suite,
    theorem1_pipeline,
    threshold_chain,
)

# The numeric chain: density alpha and doubling K in, concentration
# parameters out.  Fractions survive densities that underflow floats.
rep = bound_calculator(Fraction(1, 16 ** 12), 1.0)
print(f"alpha = 16^-12: eta = {rep.eta:.6f}, delta = {rep.delta:.6f}")
print("alpha under the doubling threshold:", rep.alpha_below_thm1)

# At the threshold itself the chain must land strictly under 1/3; that
# margin is what makes the structural conclusion non-vacuous.
edge = threshold_chain(2.0)
print(f"K = 2 threshold: alpha = {edge.alpha:.3e}, delta = {edge.delta:.6f}")

# The pipeline runs the whole route on a concrete set: ratios, gates,
# spectral diameter, and the true diameter for comparison.
A = GSet(CyclicGroup(10007), range(5))
pipe = theorem1_pipeline(A, delta=0.25)
print("K =", pipe.K, " tau =", pipe.tau)
print("density gate:", pipe.gate_alpha, " sparsity gate:", pipe.gate_tau)
print("certified diameter <=", pipe.spectral.diameter_upper, " true:", pipe.diam.length)

# The suite replays every certificate-producing routine over generated
# instances and serializes a machine-readable report.
report = run_suite(exhaustive_sets(CyclicGroup(13), 3))
print("suite ok:", report.ok, " instances:", report.instance_count)
print(dumps(report)[:120] + "...")

"""The explicit constant chains and the end-to-end density pipeline."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import (
    CyclicGroup,
    GSet,
    bound_calculator,
    diameter,
    eta_largecoeff,
    theorem1_pipeline,
    threshold_chain,
)
from addcomb.bounds import _tau_step
from addcomb.cli import main
from addcomb.fourier import _eta


class TestBoundCalculator:
    def test_modest_density_k1(self):
        rep = bound_calculator(Fraction(1, 16**12), 1.0)
        assert rep.log_inv_alpha == pytest.approx(12 * math.log(16))
        assert rep.log_threshold_thm1 == pytest.approx(12 * math.log(16))
        assert rep.alpha_below_thm1
        assert rep.largecoeff_applicable  # 12 log 16 > 2 log 14
        assert rep.tau == pytest.approx(16.0**-12)
        expected_eta = 9 * (16.0**-6) * 12 * math.log(16)
        assert rep.eta == pytest.approx(expected_eta)
        assert rep.delta == pytest.approx(2 * math.sqrt(expected_eta))
        assert rep.delta_below_third

    def test_vacuous_region(self):
        # alpha = 1/e is far above every gate; the chain still evaluates
        rep = bound_calculator(math.exp(-1), 1.0)
        assert not rep.alpha_below_thm1
        assert not rep.largecoeff_applicable
        assert rep.eta == pytest.approx(9 * math.exp(-0.5))
        assert rep.delta == pytest.approx(6 * math.exp(-0.25))
        assert not rep.delta_below_third

    def test_fraction_and_float_agree(self):
        a = bound_calculator(Fraction(1, 10**40), 2.0, k=3)
        b = bound_calculator(10.0**-40, 2.0, k=3)
        assert a.log_inv_alpha == pytest.approx(b.log_inv_alpha, rel=1e-12)
        assert a.delta == pytest.approx(b.delta, rel=1e-9)

    def test_fraction_survives_underflow(self):
        # 16^(-1200) underflows float; the Fraction path keeps the log exact
        rep = bound_calculator(Fraction(1, 16**1200), 1.0)
        assert rep.alpha == 0.0
        assert rep.log_inv_alpha == pytest.approx(1200 * math.log(16))
        assert rep.alpha_below_thm1
        assert rep.delta_below_third

    def test_tau_none_region(self):
        # K^2 alpha >= 1 makes tau meaningless: eta and delta are None
        rep = bound_calculator(0.5, 2.0)
        assert rep.log_inv_tau <= 0
        assert rep.eta is None and rep.delta is None
        assert not rep.delta_below_third

    def test_k_adds_second_threshold(self):
        rep = bound_calculator(Fraction(1, 10**30), 1.5, k=2)
        assert rep.log_threshold_thm2 == pytest.approx(12 * 2.25 * math.log(48))
        assert rep.log_threshold_thm2 > rep.log_threshold_thm1
        assert rep.delta_below_inv_k is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_calculator(0.0, 1.0)
        with pytest.raises(ValueError):
            bound_calculator(Fraction(3, 2), 1.0)
        with pytest.raises(ValueError):
            bound_calculator(0.01, 0.5)
        with pytest.raises(ValueError):
            bound_calculator(0.01, 1.0, k=1)

    def test_alpha_just_above_the_threshold_is_not_below_it(self):
        # a factor e^(5e-10) above (16K)^(-12K^2): no slack turns this into a pass
        rep = bound_calculator(math.exp(-(12 * math.log(16) - 5e-10)), 1.0)
        assert rep.alpha_below_thm1 is False

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [None, 2])
    def test_non_finite_doubling_rejected(self, K, k):
        with pytest.raises(ValueError, match="doubling parameter K"):
            bound_calculator(0.1, K, k)
        with pytest.raises(ValueError, match="doubling parameter K"):
            threshold_chain(K, k)

    @pytest.mark.parametrize("K", ["nan", "inf"])
    @pytest.mark.parametrize("form", [["--alpha", "0.1"], ["--at-threshold"]], ids=["alpha", "at-threshold"])
    def test_non_finite_doubling_exits_two(self, capsys, K, form):
        assert main(["bounds", "--doubling", K, *form, "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "doubling parameter K" in captured.err

    @pytest.mark.parametrize("K, k", [(2e154, None), (1e160, None), (2.06e152, None), (2.04e152, 10**6), (2.0, 10**400)])
    def test_doubling_past_the_float_range_rejected(self, K, k):
        # 12 K^2 log(16K) overflows a float between K = 2.05e152 and 2.06e152, 12 K^2 log(16kK) at k = 10^6 below
        # that, and 16kK at any K once k is an integer past the float range
        message = f"doubling parameter K = {re.escape(repr(K))} .* past the float range"
        with pytest.raises(ValueError, match=message):
            bound_calculator(0.5, K, k)
        with pytest.raises(ValueError, match=message):
            threshold_chain(K, k)

    def test_largest_doubling_keeps_the_chain_finite(self):
        for rep in (bound_calculator(0.5, 2.05e152), threshold_chain(2.05e152), threshold_chain(2.04e152, 3)):
            values = [v for v in vars(rep).values() if isinstance(v, float)]
            assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "form",
        [
            ["--doubling", "2e154", "--alpha", "0.5"],
            ["--doubling", "1e154", "--alpha", "0.5"],
            ["--doubling", "1e160", "--at-threshold"],
            ["--doubling", "2", "--at-threshold", "--order", str(10**400)],
        ],
        ids=["overflow", "infinite-log", "at-threshold", "huge-order"],
    )
    def test_doubling_past_the_float_range_exits_two(self, capsys, form):
        assert main(["bounds", *form, "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: doubling parameter K = ") and "past the float range" in captured.err

    @pytest.mark.parametrize("alpha", ["1/0", "0/0"])
    def test_zero_denominator_alpha_exits_two(self, capsys, alpha):
        assert main(["bounds", "--alpha", alpha, "--doubling", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "zero denominator" in captured.err


class TestThresholdChain:
    def test_thm1_deltas(self):
        for K in (1.0, 1.5, 2.0, 3.0):
            rep = threshold_chain(K)
            assert rep.alpha_below_thm1
            assert rep.largecoeff_applicable
            assert rep.delta is not None
            assert rep.delta < 1 / 3
            assert rep.delta_below_third

    def test_thm2_deltas(self):
        for k in (2, 3, 5):
            for K in (1.0, 2.0):
                rep = threshold_chain(K, k=k)
                assert rep.alpha_below_thm2
                assert rep.delta < 1 / k
                assert rep.delta_below_inv_k

    def test_k1_value(self):
        rep = threshold_chain(1.0)
        assert rep.log_inv_alpha == pytest.approx(12 * math.log(16))
        # tau = alpha at K = 1
        assert rep.log_inv_tau == pytest.approx(12 * math.log(16))

    def test_boundary_is_inclusive(self):
        rep = threshold_chain(2.0)
        assert rep.alpha_below_thm1
        rep2 = threshold_chain(1.7, k=4)
        assert rep2.alpha_below_thm2

    def test_thm2_tighter_than_thm1(self):
        for K in (1.0, 1.5, 2.5):
            for k in (2, 4):
                rep = threshold_chain(K, k=k)
                assert rep.log_threshold_thm2 >= rep.log_threshold_thm1
                assert rep.alpha_below_thm1

    @given(st.floats(1.0, 8.0), st.sampled_from([None, *range(2, 10)]))
    @settings(max_examples=200)
    def test_threshold_sits_on_the_closed_boundary(self, K, k):
        rep = threshold_chain(K, k)
        assert rep.alpha_below_thm1 is True
        assert rep.alpha_below_thm2 is (None if k is None else True)

    @given(st.floats(1.0, 4.0), st.integers(2, 6))
    @settings(max_examples=80)
    def test_threshold_delta_always_small_enough(self, K, k):
        assert threshold_chain(K).delta < 1 / 3
        assert threshold_chain(K, k=k).delta < 1 / k

    @given(st.floats(10.0, 4000.0), st.floats(1.0, 3.0))
    @settings(max_examples=80)
    def test_delta_monotone_beyond_gate(self, extra, K):
        """Pushing alpha below the threshold only shrinks delta."""
        base = threshold_chain(K)
        deeper = bound_calculator(
            math.exp(-(base.log_inv_alpha + extra)), K
        ) if base.log_inv_alpha + extra < 700 else None
        if deeper is None:
            return
        assert deeper.delta <= base.delta * (1 + 1e-9)


class TestTauStep:
    """The large-coefficient step of the chain: the gate tau <= 14^(-2K^2) and eta at tau = K^2 alpha."""

    def test_k1_at_gate(self):
        # equality with the gate is accepted
        rep = bound_calculator(Fraction(1, 196), 1.0)
        assert rep.largecoeff_applicable
        assert rep.eta == pytest.approx(9 * 14**-1 * math.log(196))

    def test_k1_small_tau(self):
        rep = bound_calculator(1e-6, 1.0)
        assert rep.largecoeff_applicable
        assert rep.eta == pytest.approx(9 * 1e-3 * 6 * math.log(10))

    def test_above_gate_is_not_applicable(self):
        assert not bound_calculator(0.01, 1.0).largecoeff_applicable

    def test_eta_decreases_with_tau(self):
        etas = [bound_calculator(10.0**-e, 1.0).eta for e in range(6, 12)]
        assert etas == sorted(etas, reverse=True)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bound_calculator(0.0, 1.0)
        with pytest.raises(ValueError):
            bound_calculator(1e-6, 0.5)

    @given(st.floats(1.0, 1e6), st.floats(1e-300, 1e300))
    @settings(max_examples=300)
    def test_eta_is_the_large_coefficient_eta_at_k_2K2(self, K, log_inv_tau):
        # 18/(2K^2) and 9/K^2 round alike, so the shared expression keeps the chain's eta bit for bit
        eta = _tau_step(log_inv_tau, K)[1]
        assert eta == 9 / (K * K) * math.exp(-log_inv_tau / (2 * K * K)) * log_inv_tau
        assert eta == _eta(log_inv_tau, 2 * K * K)

    def test_eta_largecoeff_reads_the_same_expression(self):
        beta = Fraction(1, 14**4)
        assert eta_largecoeff(beta, 3).eta == _eta(math.log(1 / float(beta)), 3)


class TestPipeline:
    def test_small_interval_z10007(self):
        g = CyclicGroup(10007)
        A = GSet(g, range(5))
        rep = theorem1_pipeline(A)
        assert rep.alpha == Fraction(5, 10007)
        assert rep.doubling == Fraction(9, 5)
        assert rep.K == 1.8
        assert rep.tau == Fraction(9, 10007)
        assert not rep.gate_alpha
        assert not rep.gate_tau
        assert rep.largecoeff_eta is None
        assert rep.diam.length == 4
        assert rep.diam_bound_holds

    def test_full_group(self):
        g = CyclicGroup(11)
        rep = theorem1_pipeline(GSet(g, range(11)))
        assert rep.alpha == 1
        assert rep.bounds is None
        assert not rep.gate_alpha and not rep.gate_tau
        assert rep.diam.length == 10
        assert rep.diam_bound is None and rep.diam_bound_holds is None

    def test_gate_tau_fires_for_singleton(self):
        # |A-A| = 1 gives tau = 1/N; K = 1 needs tau <= 14^-2
        g = CyclicGroup(197)
        rep = theorem1_pipeline(GSet(g, [3]))
        assert rep.gate_tau
        assert rep.largecoeff_holds

    def test_largecoeff_eta_is_the_chain_eta_at_the_actual_tau(self):
        rep = theorem1_pipeline(GSet(CyclicGroup(197), [3]))
        assert rep.largecoeff_eta == pytest.approx(bound_calculator(rep.tau / Fraction(rep.K) ** 2, rep.K).eta)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            theorem1_pipeline(GSet(CyclicGroup(10), [0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theorem1_pipeline(GSet(CyclicGroup(11), []))

    def test_explicit_delta_is_used(self):
        g = CyclicGroup(101)
        A = GSet(g, range(3))
        rep = theorem1_pipeline(A, delta=0.25)
        assert rep.spectral.diameter_bound == pytest.approx(0.25 * 101)

    def test_no_false_positive_bounds(self):
        """Whenever a gate or bound reports holding, the underlying fact is true."""
        import random

        rng = random.Random(20240817)
        g = CyclicGroup(101)
        for _ in range(200):
            elems = rng.sample(range(101), 8)
            rep = theorem1_pipeline(GSet(g, elems))
            if rep.diam_bound_holds:
                assert rep.diam.length < rep.diam_bound
            if rep.spectral.hypothesis_met:
                assert diameter(GSet(g, elems)).length <= rep.spectral.diameter_upper
            if rep.largecoeff_holds is not None and rep.largecoeff_holds:
                assert rep.gate_tau

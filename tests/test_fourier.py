"""Spectra, convolution counts, the moment chain, and the coefficient estimates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addcomb.fourier as fourier_mod
import addcomb.groups as groups_mod
from addcomb import (
    BudgetError,
    CyclicGroup,
    GSet,
    IntegerWindow,
    TorsionGroup,
    certified_large_coefficient,
    convolution_counts,
    diam_from_spectrum,
    dilate,
    eta_largecoeff,
    is_prime,
    moment_chain,
    smallest_prime_in,
    spectrum,
    sumset,
)
from oracles import brute_convolution_counts, dft_coefficient, direct_transform, dirichlet_magnitude


def plain_add(g):
    if g.kind == "cyclic":
        return lambda x, y: (x + y) % g.modulus
    return lambda x, y: tuple((a + b) % g.exponent for a, b in zip(x, y))


@st.composite
def fold_cases(draw):
    """(B, m, block): B in Z/N (N <= 60) or a small torsion group, m <= 3, a small groups._BLOCK."""
    g = draw(
        st.one_of(
            st.integers(1, 60).map(CyclicGroup),
            st.sampled_from([TorsionGroup(2, 4), TorsionGroup(3, 3), TorsionGroup(5, 2)]),
        )
    )
    idx = draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=8))
    return GSet(g, [g.element_at(i) for i in idx]), draw(st.integers(1, 3)), draw(st.integers(1, 16))


def assert_matches_plain_fold(B, m, block):
    """convolution_counts(B, m), in blocks of about `block` sums, equals the plain-loop fold."""
    g = B.group
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups_mod, "_BLOCK", block)
        conv = convolution_counts(B, m)
    expected = brute_convolution_counts(B.elements, m, plain_add(g))
    assert conv.fold == m + 1
    assert len(conv.counts) == g.order
    assert {g.element_at(int(i)): conv.counts[i] for i in np.flatnonzero(conv.counts)} == expected
    assert conv.support.elements == tuple(sorted(expected, key=g.index))
    assert conv.total == sum(expected.values()) == len(B) ** (m + 1)
    return conv


class TestSpectrum:
    def test_full_group_has_flat_spectrum(self):
        g = CyclicGroup(12)
        rep = spectrum(GSet(g, range(12)))
        assert rep.max_magnitude == pytest.approx(0.0, abs=1e-9)
        assert rep.parseval_residual <= 1e-9

    def test_singleton_is_flat_at_one(self):
        g = CyclicGroup(17)
        rep = spectrum(GSet(g, [5]))
        assert rep.magnitudes == pytest.approx(np.ones(17), abs=1e-9)
        assert rep.max_magnitude == pytest.approx(1.0)
        assert rep.eta_achieved == pytest.approx(0.0, abs=1e-12)

    def test_interval_matches_dirichlet_kernel(self):
        N, L = 101, 7
        rep = spectrum(GSet(CyclicGroup(N), range(L)))
        for r in range(N):
            assert rep.magnitudes[r] == pytest.approx(
                dirichlet_magnitude(L, r, N), abs=1e-9
            )

    def test_direct_agrees_with_fft(self):
        g = CyclicGroup(97)
        B = GSet(g, [0, 3, 10, 44, 90])
        fast = spectrum(B)
        slow = np.abs(direct_transform(B.elements, 97, 1))
        assert fast.magnitudes == pytest.approx(slow, abs=1e-9)
        assert fast.max_index == 1 + int(np.argmax(slow[1:]))

    def test_max_index_matches_oracle(self):
        N = 53
        B = GSet(CyclicGroup(N), [0, 1, 2, 9])
        rep = spectrum(B)
        mags = [abs(dft_coefficient(B.elements, N, r)) for r in range(N)]
        best = max(range(1, N), key=lambda r: mags[r])
        assert rep.max_magnitude == pytest.approx(mags[best], abs=1e-9)
        assert mags[rep.max_index] == pytest.approx(mags[best], abs=1e-9)

    def test_torsion_spectrum(self):
        g = TorsionGroup(2, 3)
        B = GSet(g, [(0, 0, 0), (1, 0, 0)])
        rep = spectrum(B)
        assert rep.order == 8
        assert rep.parseval_residual <= 1e-9
        # characters orthogonal to the line through e1 see the full mass
        assert rep.max_magnitude == pytest.approx(2.0)
        direct = np.abs(direct_transform(B.elements, 2, 3))
        assert rep.magnitudes == pytest.approx(direct, abs=1e-9)

    def test_top_listing_sorted(self):
        B = GSet(CyclicGroup(31), [0, 1, 4, 9, 16])
        rep = spectrum(B, top=5)
        mags = [m for _, m in rep.top]
        assert len(mags) == 5
        assert mags == sorted(mags, reverse=True)
        assert mags[0] == pytest.approx(rep.max_magnitude)

    def test_window_rejected(self):
        A = GSet(IntegerWindow(-10, 10), [0, 1])
        with pytest.raises(ValueError):
            spectrum(A)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum(GSet(CyclicGroup(7), []))

    @given(st.sets(st.integers(0, 96), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_parseval_random(self, elems):
        rep = spectrum(GSet(CyclicGroup(97), elems))
        assert rep.parseval_residual <= 1e-9


def _counting_ffts(B):
    """(_fft_magnitudes(B), the number of np.fft.fftn calls it made)."""
    calls = []
    real = np.fft.fftn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "fftn", lambda a, *args, **kw: calls.append(a.shape) or real(a, *args, **kw))
        mags = fourier_mod._fft_magnitudes(B)
    return mags, len(calls)


def _random_set(N, size, seed):
    return GSet(CyclicGroup(N), np.random.default_rng(seed).choice(N, size, replace=False).tolist())


@st.composite
def direct_cases(draw):
    """A set B of 1 to 24 residues in Z/N, N a prime in [1024, 5000]: the direct character sum's domain."""
    N = draw(st.integers(1024, 5000).filter(is_prime))
    elems = draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=24))
    return GSet(CyclicGroup(N), elems)


class TestDominant:
    """fourier._dominant: the one reading of the largest nonprincipal character."""

    def test_a_planted_tie_keeps_the_first_index(self):
        assert fourier_mod._dominant(np.array([6.0, 1.0, 4.0, 2.0, 4.0, 4.0])) == (2, 4.0)

    def test_a_mirror_tie_keeps_the_lower_frequency(self):
        # the direct sum at the prime 1031 mirrors |B^(r)| to |B^(N - r)| bit for bit, so r and N - r tie
        B = GSet(CyclicGroup(1031), range(0, 40, 3))
        mags = fourier_mod._magnitudes(B)
        i, mag = fourier_mod._dominant(mags)
        assert mags[1031 - i] == mag and i < 1031 - i
        rep = spectrum(B)
        assert (rep.max_index, rep.max_magnitude) == (i, mag)

    def test_trivial_group(self):
        B = GSet(CyclicGroup(1), [0])
        assert fourier_mod._dominant(fourier_mod._magnitudes(B)) == (0, 1.0)
        rep = spectrum(B)
        assert (rep.max_index, rep.max_magnitude) == (0, 1.0)
        assert moment_chain(B, 1)[0].max_magnitude == 1.0
        assert not diam_from_spectrum(B, 0.2).hypothesis_met  # the principal character is no frequency


class TestDirectCharacterSum:
    """The direct sum that replaces the FFT for a small set at a prime N >= 2^10."""

    @given(direct_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_defining_sum(self, B):
        mags, ffts = _counting_ffts(B)
        N = B.group.modulus
        want = np.abs(direct_transform(B.elements, N, 1))
        # each of the |B| unit terms of either sum is off by at most 2*pi*eps in
        # phase (rounding 2*pi*p/N) plus a few eps from exp, product and sum
        tol = 16 * len(B) * np.finfo(np.float64).eps
        assert ffts == 0
        assert np.abs(mags - want).max() <= tol

    @pytest.mark.parametrize("N, size", [(1031, 44), (65537, 68), (84017, 57)])
    def test_mirror_is_exact(self, N, size):
        mags, ffts = _counting_ffts(_random_set(N, size, N))
        assert ffts == 0 and not mags.flags.writeable
        assert np.array_equal(mags[1:], mags[1:][::-1])

    @pytest.mark.parametrize("r", [2, 3, 5, 40_000, 41_999])
    def test_spectral_frequency_is_the_smaller_of_a_pair(self, r):
        # the dominant frequency of r*{0..11} - r*{0..11} is +-1/r; the direct sum returns the one <= N/2
        N = 84_017
        A = dilate(GSet(CyclicGroup(N), range(12)), r)
        res = diam_from_spectrum(A, 0.1)
        inv = pow(r, -1, N)
        assert _counting_ffts(A - A)[1] == 0
        assert res.hypothesis_met and res.ok
        assert res.frequency == min(inv, N - inv) <= N // 2

    @pytest.mark.parametrize(
        "B",
        [
            _random_set(1021, 8, 0),
            _random_set(4096, 8, 0),
            _random_set(65535, 8, 0),
            _random_set(65537, 69, 0),
            GSet(TorsionGroup(2, 10), [(1,) * 10, (0,) * 10]),
        ],
        ids=["prime-below-2^10", "power-of-two", "composite", "above-the-size-cap", "torsion"],
    )
    def test_every_other_case_keeps_the_fft(self, B):
        mags, ffts = _counting_ffts(B)
        assert ffts == 1
        assert np.array_equal(mags, np.abs(np.fft.fftn(B.indicator().astype(np.float64))).ravel())

    def test_refusal_past_the_dense_limit_is_unchanged(self, monkeypatch):
        with pytest.raises(BudgetError, match="too large for an indicator"):
            spectrum(GSet(CyclicGroup(16_777_259), [0, 1, 5]))
        # the rule reads the limit at call time: a prime just past a lowered limit is refused, one below is summed
        monkeypatch.setattr(groups_mod, "DENSE_ORDER_LIMIT", 65_536)
        with pytest.raises(BudgetError, match="too large for an indicator"):
            spectrum(GSet(CyclicGroup(65_537), [0, 1, 5]))
        assert _counting_ffts(GSet(CyclicGroup(65_521), [0, 1, 5]))[1] == 0


class TestConvolutionCounts:
    def test_pair_in_z101(self):
        B = GSet(CyclicGroup(101), [0, 1])
        conv = convolution_counts(B, 1)
        assert conv.fold == 2
        assert conv.support.elements == (0, 1, 2)
        assert conv.counts[[0, 1, 2]].tolist() == [1, 2, 1]
        assert conv.total == 4

    def test_mass_identity_large_fold(self):
        # 12^18 exceeds 2^62, exercising the exact python-int path
        B = GSet(CyclicGroup(23), range(12))
        conv = convolution_counts(B, 17)
        assert conv.total == 12 ** 18
        assert conv.counts.dtype == object

    def test_support_is_iterated_sumset(self):
        B = GSet(CyclicGroup(37), [0, 1, 5])
        conv = convolution_counts(B, 3)
        assert conv.support == sumset(sumset(sumset(B, B), B), B)

    def test_torsion_counts(self):
        g = TorsionGroup(2, 2)
        B = GSet(g, [(0, 0), (1, 0), (0, 1)])
        conv = convolution_counts(B, 1)
        assert conv.total == 9
        assert conv.counts[g.index((0, 0))] == 3  # 0+0, e1+e1, e2+e2
        assert conv.counts[g.index((1, 1))] == 2  # e1+e2 both orders

    def test_bad_m(self):
        with pytest.raises(ValueError):
            convolution_counts(GSet(CyclicGroup(7), [0]), 0)

    def test_group_past_the_dense_limit_is_over_budget(self):
        # the counts start from GSet.indicator, which refuses an order past DENSE_ORDER_LIMIT before allocating
        with pytest.raises(BudgetError):
            convolution_counts(GSet(CyclicGroup(1 << 40), [0, 1]), 1)

    @given(fold_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_plain_fold(self, case):
        assert_matches_plain_fold(*case)

    def test_object_counts_match_the_plain_fold(self):
        conv = assert_matches_plain_fold(GSet(CyclicGroup(23), range(12)), 17, 5)
        assert conv.counts.dtype == object


class TestMomentChain:
    @pytest.mark.parametrize(
        "B",
        [
            GSet(CyclicGroup(60), [0, 1, 7, 22, 41]),
            GSet(TorsionGroup(3, 3), [(0, 0, 0), (1, 2, 0), (0, 1, 1), (2, 2, 2)]),
        ],
        ids=["Z/60", "(Z/3)^3"],
    )
    def test_one_fft_and_one_fold_per_row(self, monkeypatch, B):
        calls = {"_magnitudes": 0, "_fold_once": 0}
        for name in calls:
            real = getattr(fourier_mod, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(fourier_mod, name, counted)
        rows = moment_chain(B, 3)
        assert calls == {"_magnitudes": 1, "_fold_once": 3}
        assert [row.m for row in rows] == [1, 2, 3]
        for row in rows:
            assert row == moment_chain(B, row.m)[-1]

    def test_sum_of_squares_past_int64(self):
        # 10^13 counts fit int64, but their sum of squares reaches 10^26
        B = GSet(CyclicGroup(29), range(10))
        rep = moment_chain(B, 12)[-1]
        expected = brute_convolution_counts(B.elements, 12, plain_add(B.group))
        assert convolution_counts(B, 12).counts.dtype == np.int64
        assert rep.sum_of_squares == sum(c * c for c in expected.values()) > 1 << 63
        assert rep.ok

    def test_chain_rejects_bad_input(self):
        with pytest.raises(ValueError):
            moment_chain(GSet(CyclicGroup(7), [0]), 0)
        # the FFT comes before the counts, so a group too large for it allocates none
        with pytest.raises(BudgetError):
            moment_chain(GSet(CyclicGroup(16_777_259), [0, 1, 5]), 3)

    def test_singleton_z7(self):
        rep = moment_chain(GSet(CyclicGroup(7), [0]), 1)[-1]
        assert rep.support_size == 1
        assert rep.sum_of_squares == 1
        assert rep.cauchy_schwarz_holds
        # bound is (1 - 1/7) * 1; the max magnitude 1 satisfies 1 >= sqrt(6/7)
        assert rep.max_power_bound == pytest.approx(6 / 7)
        assert rep.max_bound_holds
        assert rep.ok

    def test_three_points_z101(self):
        rep = moment_chain(GSet(CyclicGroup(101), [0, 1, 3]), 2)[-1]
        assert rep.cauchy_schwarz_holds
        assert rep.parseval_holds
        assert rep.max_bound_holds
        assert rep.ok

    def test_parseval_is_exact_statement(self):
        B = GSet(CyclicGroup(64), [0, 1, 2, 3])
        rep = moment_chain(B, 3)[-1]
        assert rep.parseval_residual <= 1e-9

    @given(
        st.sets(st.integers(0, 58), min_size=1, max_size=8),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_never_fails(self, elems, m):
        rep = moment_chain(GSet(CyclicGroup(59), elems), m)[-1]
        assert rep.ok


class TestEtaLargeCoeff:
    def test_k2_at_gate(self):
        params = eta_largecoeff(Fraction(1, 14**3), 2)
        assert params.m == 5  # floor(2 * (2/14^3)^(-1/2) / 14) = floor(5.29)
        assert params.eta == pytest.approx(
            18 * 14 ** (-3 / 2) * math.log(14**3) / 2
        )

    def test_k2_above_gate_rejected(self):
        with pytest.raises(ValueError):
            eta_largecoeff(Fraction(1, 14**2), 2)

    def test_k3_small_density(self):
        params = eta_largecoeff(1e-6, 3)
        assert params.m >= 3
        assert 0 < params.eta < 1

    def test_m_scales_with_sparsity(self):
        m_values = [eta_largecoeff(Fraction(1, 14**3 * 10**j), 2).m for j in range(4)]
        assert m_values == sorted(m_values)
        assert m_values[0] < m_values[-1]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            eta_largecoeff(Fraction(1, 1000), 0)
        with pytest.raises(ValueError):
            eta_largecoeff(Fraction(0), 2)
        with pytest.raises(ValueError):
            eta_largecoeff(Fraction(3, 2), 2)


class TestCertifiedLargeCoefficient:
    def test_singleton_dense_enough(self):
        N = smallest_prime_in(196, 400)
        g = CyclicGroup(N)
        B = T = GSet(g, [0])
        cert = certified_large_coefficient(B, T)
        assert cert.k == 1
        assert cert.beta == Fraction(1, N)
        assert cert.magnitude == pytest.approx(1.0)
        assert cert.holds

    def test_interval_with_endpoints(self):
        L = 10
        N = smallest_prime_in(14**4 * L, 14**4 * L + 1000)
        g = CyclicGroup(N)
        B = GSet(g, range(L))
        T = GSet(g, [0, L - 1])
        cert = certified_large_coefficient(B, T)
        assert cert.k == 2
        assert cert.eta < 1
        assert cert.magnitude >= cert.threshold
        assert cert.holds

    def test_uncovered_rejected(self):
        g = CyclicGroup(101)
        with pytest.raises(ValueError):
            certified_large_coefficient(GSet(g, [0, 1, 50]), GSet(g, [0]))

    def test_dense_set_rejected(self):
        g = CyclicGroup(101)
        B = GSet(g, range(10))
        with pytest.raises(ValueError):
            certified_large_coefficient(B, GSet(g, [0, 9]))

"""Numeric replay of the explicit constant chains behind the main theorems.

The theorem-level density thresholds, (16K)^(-12K^2) and (16kK)^(-12K^2),
are far below anything a desk-scale set can meet, so the calculators work in
log space: log(1/alpha) is the primary quantity and the tiny densities are
reconstructed as floats only for display (they may underflow to 0.0).  The
chain itself is

    tau = K^2 alpha
    eta = 9 K^-2 tau^(1/2K^2) log(1/tau)       when tau <= 14^(-2K^2)
    delta = 2 K sqrt(eta)

and the claims under replay are delta < 1/3 at the first threshold and
delta < 1/k at the second.  Each link is computed once: `_log_threshold`
gives both thresholds, and `_tau_step` the tau gate and eta for the
calculator and for the pipeline (at the set's own tau = |A-A|/N) alike;
eta is `fourier._eta`, the expression of `eta_largecoeff`, at k = 2K^2.
`threshold_chain` sits exactly on the closed boundary, with no slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Optional, Tuple, Union

from .fourier import _dominant, _eta, _magnitudes
from .groups import Certificate, GSet, _entry_scope, _require, difference_ratio, difference_set, doubling_ratio
from .rectify import DiameterWitness, SpectralDiameterResult, diam_from_spectrum, diameter

__all__ = [
    "BoundReport",
    "PipelineReport",
    "bound_calculator",
    "threshold_chain",
    "theorem1_pipeline",
]


@dataclass(frozen=True)
class BoundReport:
    """Threshold and chain values for one (alpha, K, k) input.

    log_inv_alpha is authoritative; alpha, threshold_thm1, threshold_thm2
    and tau are the corresponding floats and may underflow to 0.0.  eta and
    delta are None when tau >= 1, where the chain formula is meaningless.
    """

    log_inv_alpha: float
    K: float
    k: Optional[int]
    alpha: float
    log_threshold_thm1: float      # log(1/threshold), i.e. 12 K^2 log(16K)
    threshold_thm1: float
    log_threshold_thm2: Optional[float]
    threshold_thm2: Optional[float]
    alpha_below_thm1: bool
    alpha_below_thm2: Optional[bool]
    log_inv_tau: float             # tau = K^2 alpha
    tau: float
    largecoeff_applicable: bool    # tau <= 14^(-2K^2)
    eta: Optional[float]
    delta: Optional[float]         # 2 K sqrt(eta)
    delta_below_third: bool
    delta_below_inv_k: Optional[bool]
    diam_bound_fraction: float     # 12 alpha^(1/4K^2) sqrt(log(1/alpha))


def _require_doubling(K: float, k: Optional[int]) -> None:
    """Refuse a K off [1, inf), or one whose threshold log of k is past the float range.

    A finite threshold log 12 K^2 log(16kK) keeps every link of the chain
    finite: tau = K^2 alpha is below it, and log(1/tau) below log(1/alpha).
    """
    if not math.isfinite(K) or K < 1:
        raise ValueError(f"doubling parameter K must be finite and >= 1, got {K}")
    try:
        finite = math.isfinite(_log_threshold(K, k))
    except OverflowError:  # an integer k too large for a float
        finite = False
    if not finite:
        log = "12 K^2 log(16K)" if k is None else f"12 K^2 log(16kK) at k = {k}"
        raise ValueError(f"doubling parameter K = {K} puts the threshold log {log} past the float range")


def _log_inv(x: Union[float, Rational]) -> float:
    """log(1/x); a Rational goes by numerator and denominator, so it survives float underflow."""
    if isinstance(x, Rational):
        frac = Fraction(x)
        return math.log(frac.denominator) - math.log(frac.numerator)
    return -math.log(x)


def _log_threshold(K: float, k: Optional[int]) -> float:
    """log(1/threshold): 12 K^2 log(16K), or 12 K^2 log(16kK) with k."""
    return 12 * K * K * math.log(16 * K if k is None else 16 * k * K)


def _tau_step(log_inv_tau: float, K: float) -> Tuple[bool, Optional[float]]:
    """The large-coefficient gate tau <= 14^(-2K^2), and eta at k = 2K^2 (None when tau >= 1)."""
    k = 2 * K * K
    gate = log_inv_tau >= k * math.log(14)
    return gate, _eta(log_inv_tau, k) if log_inv_tau > 0 else None


def _chain(log_inv_alpha: Optional[float], K: float, k: Optional[int]) -> BoundReport:
    """The chain at log(1/alpha); None puts alpha on the threshold of k (of thm1 when k is None)."""
    if k is not None and k < 2:
        raise ValueError(f"isomorphism order must be >= 2, got {k}")
    _require_doubling(K, k)
    log_t1 = _log_threshold(K, None)
    log_t2 = _log_threshold(K, k) if k is not None else None
    if log_inv_alpha is None:
        log_inv_alpha = log_t1 if log_t2 is None else log_t2
    if not math.isfinite(log_inv_alpha) or log_inv_alpha <= 0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    log_inv_tau = log_inv_alpha - 2 * math.log(K)
    applicable, eta = _tau_step(log_inv_tau, K)
    delta = 2 * K * math.sqrt(eta) if eta is not None else None
    return BoundReport(
        log_inv_alpha=log_inv_alpha,
        K=K,
        k=k,
        alpha=math.exp(-log_inv_alpha),
        log_threshold_thm1=log_t1,
        threshold_thm1=math.exp(-log_t1),
        log_threshold_thm2=log_t2,
        threshold_thm2=math.exp(-log_t2) if log_t2 is not None else None,
        alpha_below_thm1=log_inv_alpha >= log_t1,
        alpha_below_thm2=(log_inv_alpha >= log_t2) if log_t2 is not None else None,
        log_inv_tau=log_inv_tau,
        tau=math.exp(-log_inv_tau),
        largecoeff_applicable=applicable,
        eta=eta,
        delta=delta,
        delta_below_third=delta is not None and delta < 1 / 3,
        delta_below_inv_k=(delta is not None and delta < 1 / k) if k is not None else None,
        diam_bound_fraction=12 * math.exp(-log_inv_alpha / (4 * K * K)) * math.sqrt(log_inv_alpha),
    )


def bound_calculator(alpha: Union[float, Fraction], K: float, k: Optional[int] = None) -> BoundReport:
    """Evaluate every threshold and the eta/delta chain at a given density."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return _chain(_log_inv(alpha), float(K), k)


def threshold_chain(K: float, k: Optional[int] = None) -> BoundReport:
    """The chain evaluated exactly at the theorem threshold.

    With k=None alpha is set to (16K)^(-12K^2); with k it is set to
    (16kK)^(-12K^2).  log(1/alpha) is the very float it is compared with,
    so the closed comparison holds exactly, even where alpha underflows.
    """
    return _chain(None, float(K), k)


@dataclass(frozen=True)
class PipelineReport(Certificate):
    """All intermediate quantities of the density-to-diameter argument on one set."""

    modulus: int
    size: int
    alpha: Fraction
    doubling: Fraction
    diff_ratio: Fraction
    K: float                        # min of the two ratios
    bounds: Optional[BoundReport]   # None when alpha = 1 (the whole group)
    tau: Fraction                   # actual |A-A| / N
    gate_alpha: bool                # alpha <= (16K)^(-12K^2)
    gate_tau: bool                  # tau <= 14^(-2K^2)
    largecoeff_eta: Optional[float]
    largecoeff_holds: Optional[bool]
    spectral: SpectralDiameterResult
    diam: DiameterWitness
    diam_bound: Optional[float]     # 12 alpha^(1/4K^2) sqrt(log(1/alpha)) N
    diam_bound_holds: Optional[bool]

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """The large coefficient when the tau gate holds, and the spectral diameter claim.

        diam_bound_holds is no claim: K is the smaller of the two ratios, and
        nothing here establishes that as the theorem's hypothesis.
        """
        claims = {"large_coefficient": self.largecoeff_holds} if self.gate_tau else {}
        return {**claims, **self.spectral.checks}


def theorem1_pipeline(A: GSet, delta: Optional[float] = None) -> PipelineReport:
    """Run the full small-density argument on a concrete set, gates and all.

    The theorem gates are evaluated honestly; at desk scale they normally
    fail and the report says so, while the unconditional parts (spectrum,
    concentration implication, true diameter) still run.  When delta is not
    given, the chain's own delta is used if it lands in (0, 1/3), else 0.3.
    The run reads the open memo scope, or opens one of its own when none is
    open, so A - A and its spectrum are formed once.
    """
    N = _require(A.group, "prime").modulus
    if not len(A):
        raise ValueError("pipeline needs a nonempty set")
    with _entry_scope():
        n = len(A)
        alpha = Fraction(n, N)
        D = difference_set(A, A)
        k_double = doubling_ratio(A)
        k_diff = difference_ratio(A)
        K = float(min(k_double, k_diff))
        tau = Fraction(len(D), N)
        bounds = bound_calculator(alpha, K) if alpha < 1 else None
        gate_alpha = bounds.alpha_below_thm1 if bounds is not None else False
        gate_tau, eta = _tau_step(_log_inv(tau), K)
        eta = eta if gate_tau else None
        holds = _dominant(_magnitudes(D))[1] >= (1 - eta) * len(D) if gate_tau else None
        if delta is None:
            delta = bounds.delta if bounds is not None and bounds.delta is not None else None
            if delta is None or not 0 < delta < 1 / 3:
                delta = 0.3
        spectral = diam_from_spectrum(A, delta)
        diam = diameter(A)
        diam_bound = bounds.diam_bound_fraction * N if bounds is not None else None
        return PipelineReport(
            modulus=N,
            size=n,
            alpha=alpha,
            doubling=k_double,
            diff_ratio=k_diff,
            K=K,
            bounds=bounds,
            tau=tau,
            gate_alpha=gate_alpha,
            gate_tau=gate_tau,
            largecoeff_eta=eta,
            largecoeff_holds=holds,
            spectral=spectral,
            diam=diam,
            diam_bound=diam_bound,
            diam_bound_holds=diam.length < diam_bound if diam_bound is not None else None,
        )

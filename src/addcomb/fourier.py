"""Character sums, convolution counts, and the large-coefficient estimates.

The transform convention is B^(r) = sum over b in B of e(b*r/N) with
e(x) = exp(2*pi*i*x); for torsion products the character indexed by c is
e((c.x)/r).  A magnitude is the same under either sign.  Magnitudes are
computed by FFT, except for a small set in Z/N at a prime N from 2^10 to
DENSE_ORDER_LIMIT: there numpy's FFT is Bluestein's, three smooth FFTs of
length at least 2N - 1, and a direct character sum over half the
frequencies is cheaper (``_fft_magnitudes`` holds the rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from . import groups
from .covering import is_k_covering
from .groups import Certificate, Element, GSet, _index_add, _memoized, _require
from .primes import is_prime

__all__ = [
    "SpectrumReport",
    "ConvolutionCounts",
    "MomentChainReport",
    "LargeCoeffParams",
    "LargeCoeffCertificate",
    "spectrum",
    "convolution_counts",
    "moment_chain",
    "eta_largecoeff",
    "certified_large_coefficient",
]

# keep full magnitude arrays on the report below this order
_KEEP_MAGNITUDES = 1 << 16

# Least prime order at which _fft_magnitudes sums directly: below it numpy's
# prime-length FFT costs about what the direct sum of a set at the size cap
# does (0.15 ms at N = 1009 on a 2-vCPU Xeon VM).
_DIRECT_MIN_ORDER = 1 << 10

# Relative slack of every float gate here: the Parseval claims of the
# spectrum and of the moment chain, and the chain's lower bound on max |B^|.
_FLOAT_SLACK = 1e-9


def _require_finite(B: GSet) -> int:
    order = _require(B.group, "finite").order
    if not len(B):
        raise ValueError("spectral operations need a nonempty set")
    return order


@dataclass(frozen=True)
class SpectrumReport(Certificate):
    order: int
    size: int
    density: Fraction
    max_index: Element          # nonprincipal character with the largest magnitude
    max_magnitude: float
    eta_achieved: float         # 1 - max_magnitude / size
    parseval_residual: float    # | sum |B^|^2 - N*|B| | / (N*|B|)
    magnitudes: Optional[np.ndarray]   # flat, index order = packed element order
    top: Tuple[Tuple[Element, float], ...]

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """Parseval's identity sum |B^|^2 = N*|B|, to the relative float slack."""
        return {"parseval": self.parseval_residual <= _FLOAT_SLACK}


def _magnitudes(B: GSet) -> np.ndarray:
    """|B^(chi)| for every character chi, flat in packed index order (read-only)."""
    return _memoized((B,), "magnitudes", lambda: _fft_magnitudes(B))


def _dominant(mags: np.ndarray) -> Tuple[int, float]:
    """(flat index, magnitude) of the first largest nonprincipal entry of mags = _magnitudes(B).

    The trivial group has only the principal character: (0, mags[0] = |B|).
    """
    i = 1 + int(np.argmax(mags[1:])) if len(mags) > 1 else 0
    return i, float(mags[i])


def _fft_magnitudes(B: GSet) -> np.ndarray:
    """The one kernel of character magnitudes: a direct sum for a small set at a prime N >= 2^10, else an FFT.

    The direct sum costs about N*|B|/2 multiply-adds against the 2N-point
    FFTs of Bluestein's algorithm; the cap |B| <= 4 * N.bit_length() keeps it
    the cheaper side of the crossover measured in CHANGES.md.  Above
    DENSE_ORDER_LIMIT the rule takes the FFT, whose indicator raises BudgetError.
    """
    g = B.group
    if (
        g.kind == "cyclic"
        and _DIRECT_MIN_ORDER <= g.modulus <= groups.DENSE_ORDER_LIMIT
        and len(B) <= 4 * g.modulus.bit_length()
        and is_prime(g.modulus)
    ):
        mags = _direct_magnitudes(B.packed(), g.modulus)
    else:
        mags = np.abs(np.fft.fftn(B.indicator().astype(np.float64))).ravel()
    mags.flags.writeable = False
    return mags


def _direct_magnitudes(b: np.ndarray, N: int) -> np.ndarray:
    """|B^(r)| for every r in Z/N from the residues b of B, by the defining sum over r <= N/2.

    With r = q*K + k and K about sqrt(N/2), B^(r) = sum_b e(b*q*K/N) e(b*k/N),
    so a block of rows q is one (rows x |B|) @ (|B| x K) matrix product.
    Every phase is an exact integer mod N before the exp.  The rest is the
    mirror, |B^(N-r)| = |B^(r)|, equal bit for bit.
    """
    half = N // 2
    K = math.isqrt(half + 1)
    right = _unit_roots(b[:, None] * np.arange(K) % N, N)
    step = b * K % N
    rows = max(1, groups._BLOCK // K)
    mags = np.empty(N)
    # the Q*K <= N entries of the head hold r = 0..half and scratch that the mirror overwrites
    Q = -(-(half + 1) // K)
    for q0 in range(0, Q, rows):
        q = np.arange(q0, min(Q, q0 + rows))
        left = _unit_roots(q[:, None] * step % N, N)
        mags[q0 * K : (q0 + len(q)) * K] = np.abs(left @ right).ravel()
    mags[half + 1 :] = mags[1 : N - half][::-1]
    return mags


def _coefficient_one(B: GSet) -> float:
    """|B^(1)|, the magnitude of B's transform at frequency one, for B <= Z/N."""
    return float(abs(_unit_roots(B.packed(), B.group.modulus).sum()))  # type: ignore[union-attr]


def _unit_roots(x: np.ndarray, N: int) -> np.ndarray:
    """e(x/N) for integer residues x mod N: the package's one complex exponential."""
    return np.exp((2j * np.pi / N) * x)


def spectrum(B: GSet, top: int = 8) -> SpectrumReport:
    """All character magnitudes of the indicator of B, with the Parseval residual."""
    n = _require_finite(B)
    if top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    mags = _magnitudes(B)
    size = len(B)
    power = float(np.sum(mags * mags))
    residual = abs(power - n * size) / (n * size)
    idx, max_mag = _dominant(mags)
    order_desc = np.argsort(-mags[1:], kind="stable")[:top] + 1 if n > 1 else []
    top_list = tuple((B.group.element_at(int(i)), float(mags[i])) for i in order_desc)
    return SpectrumReport(
        order=n,
        size=size,
        density=Fraction(size, n),
        max_index=B.group.element_at(idx),
        max_magnitude=max_mag,
        eta_achieved=1.0 - max_mag / size,
        parseval_residual=residual,
        magnitudes=mags if n <= _KEEP_MAGNITUDES else None,
        top=top_list,
    )


@dataclass(frozen=True)
class ConvolutionCounts:
    """Exact representation counts r_{m+1}(x) = #{(b_1..b_{m+1}) : sum = x}."""

    fold: int                  # m + 1
    counts: np.ndarray         # flat over the packed index space; int64 or object
    support: GSet
    total: int                 # |B|^{m+1}, verified against the count sum


def _fold_once(counts: np.ndarray, B: GSet) -> np.ndarray:
    """counts * 1_B: one np.add.at (exact in int64 and object dtype) of the support + B sums, blocked."""
    g = B.group
    s = np.flatnonzero(counts)
    pb = B.packed()
    weights = counts[s][:, None]
    out = np.zeros_like(counts)
    step = max(1, groups._BLOCK // len(s))
    for i in range(0, len(pb), step):
        np.add.at(out, _index_add(g, s[:, None], pb[None, i : i + step]), weights)
    return out


def _count_chain(B: GSet, m_max: int) -> Iterator[np.ndarray]:
    """r_2, ..., r_{m_max+1} of B, each a mass-checked fold of the last; int64 while |B|^(m_max+1) < 2^62."""
    size = len(B)
    dtype = np.int64 if size ** (m_max + 1) < (1 << 62) else object
    counts = B.indicator().ravel().astype(dtype)
    for m in range(1, m_max + 1):
        counts = _fold_once(counts, B)
        total = int(counts.sum())
        if total != size ** (m + 1):
            raise RuntimeError(f"count mass {total} != |B|^(m+1) = {size ** (m + 1)}")
        yield counts


def convolution_counts(B: GSet, m: int) -> ConvolutionCounts:
    """The (m+1)-fold representation counts of B, exact in integers."""
    _require_finite(B)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    for counts in _count_chain(B, m):
        pass
    support = GSet._from_indices(B.group, np.flatnonzero(counts))
    return ConvolutionCounts(m + 1, counts, support, len(B) ** (m + 1))


@dataclass(frozen=True)
class MomentChainReport(Certificate):
    m: int
    support_size: int                 # R = |(m+1)B|
    sum_of_squares: int               # sum_x r_{m+1}(x)^2, exact
    cauchy_schwarz_holds: bool        # R * sum_sq >= |B|^{2m+2}, exact
    parseval_residual: float          # vs N * sum_sq, relative
    parseval_holds: bool
    max_magnitude: float              # largest nonprincipal |B^|
    max_power_bound: float            # (1/R - 1/N) * |B|^{2m+1}
    max_bound_holds: bool

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        return {
            "cauchy_schwarz": self.cauchy_schwarz_holds,
            "parseval": self.parseval_holds,
            "max_bound": self.max_bound_holds,
        }


def moment_chain(B: GSet, m_max: int) -> Tuple[MomentChainReport, ...]:
    """Verify the moment chain that forces one large nonprincipal coefficient, for m = 1..m_max.

    Chain: r-counts mass, Cauchy-Schwarz on the support (exact), Parseval for
    the (2m+2)-th moment (float, relative _FLOAT_SLACK), and the resulting lower bound
    max |B^(gamma)|^{2m} >= (1/R - 1/N) * |B|^{2m+1}.  The rows share one
    fold chain and one spectrum, taken before any counts are allocated.
    """
    n = _require_finite(B)
    if m_max < 1:
        raise ValueError(f"need m >= 1, got {m_max}")
    mags = _magnitudes(B)
    size = len(B)
    max_mag = _dominant(mags)[1]
    rows = []
    for m, counts in enumerate(_count_chain(B, m_max), 1):
        R = int(np.count_nonzero(counts))
        # the sum of squares is at most (sum of counts)^2 = |B|^(2m+2)
        wide = counts if size ** (2 * m + 2) < 1 << 63 else counts.astype(object)
        sum_sq = int(np.dot(wide, wide))
        cs = R * sum_sq >= size ** (2 * m + 2)
        residual = abs(float(np.sum(mags ** (2 * m + 2))) - n * sum_sq) / (n * sum_sq)
        # (1/R - 1/N) * |B|^(2m+1) as one correctly rounded division of integers
        rhs = (n - R) * size ** (2 * m + 1) / (R * n)
        max_ok = max_mag ** (2 * m) >= rhs * (1.0 - _FLOAT_SLACK)
        rows.append(MomentChainReport(m, R, sum_sq, cs, residual, residual <= _FLOAT_SLACK, max_mag, rhs, max_ok))
    return tuple(rows)


@dataclass(frozen=True)
class LargeCoeffParams:
    k: int
    beta: Fraction
    m: int          # floor(k * (2 beta)^(-1/k) / 14)
    eta: float      # 18 * beta^(1/k) * log(1/beta) / k


def eta_largecoeff(beta: Union[Fraction, float], k: int) -> LargeCoeffParams:
    """Quality parameter eta and moment order m for a k-covered set of density beta.

    Requires beta <= 14^-(k+1); that gate also forces m >= k and
    m >= k * beta^(-1/k) / 36, both of which are re-asserted here.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    beta_frac = beta if isinstance(beta, Fraction) else Fraction(beta)
    if not 0 < beta_frac <= 1:
        raise ValueError(f"density must be in (0, 1], got {beta}")
    if beta_frac > Fraction(1, 14 ** (k + 1)):
        raise ValueError(f"density {float(beta_frac):.3g} above the gate 14^-(k+1)")
    b = float(beta_frac)
    m = math.floor(k * (2 * b) ** (-1 / k) / 14)
    if m < k:
        raise RuntimeError(f"derived m = {m} < k = {k}; gate arithmetic is broken")
    if m < k * b ** (-1 / k) / 36:
        raise RuntimeError("derived m violates the 1/36 lower bound")
    return LargeCoeffParams(k, beta_frac, m, _eta(math.log(1 / b), k))


def _eta(log_inv_beta: float, k: float) -> float:
    """eta = 18 beta^(1/k) log(1/beta) / k from log(1/beta), for real k > 0; bounds takes k = 2K^2."""
    return 18 / k * math.exp(-log_inv_beta / k) * log_inv_beta


@dataclass(frozen=True)
class LargeCoeffCertificate(Certificate):
    k: int
    beta: Fraction
    m: int
    eta: float
    index: Element
    magnitude: float
    threshold: float    # (1 - eta) * |B|
    holds: bool

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        return {"large_coefficient": self.holds}


def certified_large_coefficient(B: GSet, T: GSet) -> LargeCoeffCertificate:
    """End-to-end check: a k-covered sparse set has a near-maximal coefficient.

    Verifies the covering precondition, gates the density exactly, computes
    eta, and compares the true maximal nonprincipal magnitude against
    (1 - eta)|B|.
    """
    n = _require_finite(B)
    if not is_k_covering(B, T):
        raise ValueError("B is not covered by T: B+B is not inside B+(T-T)")
    k = len(T)
    beta = Fraction(len(B), n)
    params = eta_largecoeff(beta, k)
    idx, magnitude = _dominant(_magnitudes(B))
    threshold = (1.0 - params.eta) * len(B)
    return LargeCoeffCertificate(
        k=k,
        beta=beta,
        m=params.m,
        eta=params.eta,
        index=B.group.element_at(idx),
        magnitude=magnitude,
        threshold=threshold,
        holds=magnitude >= threshold,
    )

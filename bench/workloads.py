"""The four benchmark workloads: seeded op lists, op execution, digests and checks.

An op is a pair (kind, args).  ``run_op`` calls the public addcomb function
that the matching CLI command calls, looked up on the package at call time
so that the traced run sees its wrappers.  ``digest`` keeps the exact fields
of a result (integers, Fractions, sets, tallies, counterexample counts; no
floats).  ``check`` re-verifies a certificate with plain Python sets, and for a
``run_suite`` report checks that every check ran or skipped as its
applicability rule says; it returns None when all is ok, or a short reason
when it is not.

Every op list is a fixed function of (workload, seed).  Set sizes, shapes
and modulus bands are stratified by position in the list; the seed picks the
elements and the modulus inside its band, so that two seeds give op lists of
nearly the same cost.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

WORKLOADS = ("verify-cyclic", "verify-torsion", "large-modulus", "rectify-stream")

# ops of one pass
PASS_LENGTH = {
    "verify-cyclic": 1200,
    "verify-torsion": 300,
    "large-modulus": 12,
    "rectify-stream": 3000,
}

# passes of one untraced run: a fixed number, so that a faster program is
# sampled exactly like a slower one; sized for about 20 s on a 2-vCPU Xeon VM
PASSES = {
    "verify-cyclic": 4,
    "verify-torsion": 6,
    "large-modulus": 1,
    "rectify-stream": 9,
}

# ops of the fixed prefix the traced run times with and without tracing
TRACE_PREFIX = {
    "verify-cyclic": 300,
    "verify-torsion": 150,
    "large-modulus": 12,
    "rectify-stream": 1500,
}

# the orbit-normalized exhaustive family that verify-cyclic builds in setup
EXHAUSTIVE_FAMILY = (17, 4)

_TORSION_SHAPES = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 2))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _primes_in(ac, lo: int, hi: int) -> list:
    return [p for p in range(lo, hi + 1) if ac.is_prime(p)]


def _prime_near(ac, rng: random.Random, lo: int, hi: int) -> int:
    return ac.smallest_prime_in(rng.randint(lo, hi - 200), hi)


def _ap_subset(ac, group, rng: random.Random, size: int):
    """size random points of a progression of length size + ceil(size/3) with a seeded step."""
    N = group.modulus
    ap = ac.progression(group, rng.randrange(N), rng.randrange(1, N), size + -(-size // 3))
    return ac.GSet(group, rng.sample(ap.elements, size))


def _random_set(ac, group, rng: random.Random, size: int):
    return ac.random_sets(group, size, 1, rng.getrandbits(32))[0]


def build_ops(ac, workload: str, seed: int) -> list:
    """The op list of one pass, from the seed alone."""
    rng = _rng(workload, seed)
    n = PASS_LENGTH[workload]
    ops = []
    if workload == "verify-cyclic":
        N0, max_size = EXHAUSTIVE_FAMILY
        family = ac.exhaustive_sets(ac.CyclicGroup(N0), max_size, normalize=True)
        ops.extend(("verify", A) for A in family)
        for i in range(n - len(ops)):
            size = 1 + i % 10
            band = (i // 10) % 19
            N = rng.randint(11 + 10 * band, 20 + 10 * band)
            ops.append(("verify", _random_set(ac, ac.CyclicGroup(N), rng, size)))
    elif workload == "verify-torsion":
        for i in range(n):
            r, rank = _TORSION_SHAPES[(i // 10) % len(_TORSION_SHAPES)]
            group = ac.TorsionGroup(r, rank)
            size = 1 + i % 10
            ops.append(("verify", _random_set(ac, group, rng, size)))
    elif workload == "large-modulus":
        # bounds and cover ops alternate.  The AP-subsets meet the spectral
        # threshold, so the lev_interval convolution runs beside the
        # character_sum fallback; a random 8-set meets it only a few percent
        # of the time, so that op nearly always takes the fallback alone.
        # Fixed sizes and narrow prime bands keep the cost of each position
        # nearly the same for every seed.
        bounds = (
            ("ap", 12, (84_000, 86_000)),
            ("random", 8, (72_000, 74_000)),
            ("ap", 18, (72_000, 74_000)),
            ("ap", 14, (78_000, 80_000)),
            ("random", 4, (70_000, 72_000)),
            ("ap", 16, (75_000, 77_000)),
        )
        # cover sizes span the sumset regimes: the exhaustive witness search
        # (14-16), the pairwise np.unique path (19) and the bitmask path (28, 32)
        cover_sizes = (16, 19, 28, 14, 32, 15)
        for (shape, size, primes), csize in zip(bounds, cover_sizes):
            group = ac.CyclicGroup(_prime_near(ac, rng, *primes))
            if shape == "ap":
                A = _ap_subset(ac, group, rng, size)
            else:
                A = _random_set(ac, group, rng, size)
            ops.append(("bounds", A))
            q = _prime_near(ac, rng, 999_000, 1_001_000)
            ops.append(("cover", _random_set(ac, ac.CyclicGroup(q), rng, csize)))
    elif workload == "rectify-stream":
        small_primes = _primes_in(ac, 11, 60)
        large_primes = _primes_in(ac, 100, 1000)
        for i in range(n):
            j = i // 3
            if i % 3 < 2:
                group = ac.CyclicGroup(rng.choice(small_primes))
                size = 2 + (2 * j + i % 3) % 6
                ops.append(("rectify", (_random_set(ac, group, rng, size), 2 + i % 2)))
            else:
                group = ac.CyclicGroup(rng.choice(large_primes))
                size = 6 + j % 13
                ops.append(("rectify", (_ap_subset(ac, group, rng, size), 2 + j % 3)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def warmup_ops(ac, workload: str) -> list:
    """A few small ops that load every code path of the workload before timing."""
    if workload == "large-modulus":
        g = ac.CyclicGroup(1009)
        return [
            ("bounds", ac.progression(g, 3, 7, 12)),
            ("cover", ac.GSet(ac.CyclicGroup(10007), [1, 5, 88, 301, 977, 4000, 7002, 9001])),
        ]
    rng = _rng(workload, -1)
    if workload == "verify-cyclic":
        return [("verify", _random_set(ac, ac.CyclicGroup(N), rng, 5)) for N in (31, 60)]
    if workload == "verify-torsion":
        return [("verify", _random_set(ac, ac.TorsionGroup(r, k), rng, 5)) for r, k in ((2, 4), (3, 3))]
    if workload == "rectify-stream":
        g = ac.CyclicGroup(101)
        return [("rectify", (_ap_subset(ac, g, rng, 8), k)) for k in (2, 3)]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(ac, op):
    kind, args = op
    if kind == "verify":
        return ac.run_suite([args])
    if kind == "bounds":
        return ac.theorem1_pipeline(args)
    if kind == "cover":
        return ac.covering_certificate(args, args, args, witness_budget=18)
    if kind == "rectify":
        A, k = args
        return ac.rectify(A, k)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------- digests


def _fields(kind: str, res) -> tuple:
    if kind == "verify":
        tallies = tuple(
            (name, t.passed, t.failed, t.skipped) for name, t in sorted(res.tallies.items())
        )
        bad = tuple(sorted((c["check"], c.get("index", -1)) for c in res.counterexamples))
        return (res.instance_count, tallies, len(res.counterexamples), bad)
    if kind == "cover":
        return (
            res.ratio1,
            res.ratio2,
            res.witness_ratio,
            res.size_bound,
            res.witness.elements,
            res.translates.elements,
            res.witness_is_optimal,
            res.inclusion_verified,
        )
    if kind == "bounds":
        s, d = res.spectral, res.diam
        return (
            res.modulus,
            res.size,
            res.alpha,
            res.doubling,
            res.diff_ratio,
            res.tau,
            res.gate_alpha,
            res.gate_tau,
            s.hypothesis_met,
            s.frequency,
            s.interval_start,
            s.interval_length,
            s.diameter_upper,
            d.length,
            d.step,
            d.start,
            d.units_searched,
        )
    if kind == "rectify":
        d, w = res.diameter, res.witness
        wit = None if w is None else (w.order, w.dilation, w.shift, w.length, w.image.elements, w.verified)
        return (res.required, d.length, d.step, d.start, d.units_searched, wit)
    raise ValueError(f"unknown op kind {kind!r}")


def digest(op, res) -> str:
    """sha256 of the exact fields of a result."""
    return hashlib.sha256(repr(_fields(op[0], res)).encode()).hexdigest()


def run_digest(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def _pyset_sum(G, xs, ys) -> set:
    return {G.add(x, y) for x in xs for y in ys}


def _pyset_diff(G, xs, ys) -> set:
    return {G.add(x, G.neg(y)) for x in xs for y in ys}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def known_defect(A) -> bool:
    """Whether A triggers the recorded diam defect in a composite Z/N.

    diam_from_spectrum dilates by the dominant difference-set frequency r; when
    gcd(r, N) > 1 that dilation is not injective and the concentration step
    can fail.  Recomputed here from the definition with numpy's FFT.
    """
    import numpy as np

    N = A.group.modulus
    if N < 4 or _is_prime(N):
        return False
    ind = np.zeros(N)
    ind[sorted(_pyset_diff(A.group, A.elements, A.elements))] = 1.0
    mags = np.abs(np.fft.fft(ind))
    r = 1 + int(np.argmax(mags[1:]))
    return math.gcd(r, N) > 1


# run_suite's default configuration, which every verify op uses
VERIFY_CHECKS = ("inc", "incm", "jbound", "estjcov", "estecov", "parseval", "moment", "cover", "lev", "diam", "iso", "torsion")
VERIFY_WITNESS_BUDGET = 12
# jbound checks j_count(k, 0) and j_bound_report(k, m) for k <= 4, k <= m <= 10
JBOUND_CASES = sum(1 + (10 - k + 1) for k in range(1, 5))


def must_skip(A) -> set:
    """The checks whose applicability rule excludes A; every other check must run.

    cover, lev and diam apply to cyclic groups (the default delta grid
    leaves cover and diam a window for every N), iso to prime cyclic
    groups, torsion to torsion groups.  inc, incm, estjcov and estecov
    skip only when a search exceeds its budget, which no set of these
    workloads does.
    """
    if A.group.kind == "torsion":
        return {"cover", "lev", "diam", "iso"}
    return {"torsion"} if _is_prime(A.group.modulus) else {"torsion", "iso"}


def _check_verify(ac, A, rep):
    if rep.instance_count != 1:
        return f"instance_count {rep.instance_count}"
    if tuple(rep.tallies) != VERIFY_CHECKS:
        return "checks run: " + ",".join(rep.tallies)
    j = rep.tallies["jbound"]
    if (j.passed + j.failed, j.skipped) != (JBOUND_CASES, 0):
        return "jbound cases run"
    skip = must_skip(A)
    for name, t in rep.tallies.items():
        if name != "jbound" and (t.passed + t.failed, t.skipped) != ((0, 1) if name in skip else (1, 0)):
            return f"check {name} {'ran' if name in skip else 'skipped'} against its applicability rule"
    failing = sorted(name for name, t in rep.tallies.items() if t.failed)
    if failing != sorted({c["check"] for c in rep.counterexamples}):
        return "counterexamples do not match the tallies"
    if "inc" not in failing:
        # the inc certificate itself, rebuilt and re-verified with plain sets
        cert = ac.covering_certificate(A, A, A, witness_budget=VERIFY_WITNESS_BUDGET)
        why = _check_cover(A, cert, lhs_sample=50)
        if why is not None:
            return f"inc certificate: {why}"
    if not failing:
        return None
    if failing == ["diam"] and known_defect(A):
        return "known-defect:diam"
    return "counterexample:" + ",".join(failing)


def _check_cover(A, cert, lhs_sample: int = 200):
    G = A.group
    xs = A.elements
    n = len(xs)
    sigma = _pyset_sum(G, xs, xs)
    k = Fraction(len(sigma), n)  # B1 = B2 = A, so A+B1 = B1+B2
    if cert.ratio1 != k or cert.ratio2 != k:
        return "ratio mismatch"
    T = cert.translates.elements
    if not set(T) <= sigma:
        return "translate outside B1+B2"
    if len(T) > cert.size_bound:
        return "too many translates"
    core = cert.witness.elements
    if not set(core) <= set(xs):
        return "witness outside A"
    if cert.witness_ratio != Fraction(len(_pyset_sum(G, core, sigma)), len(core)):
        return "witness ratio mismatch"
    bound = 2 * cert.witness_ratio - 1 if not cert.witness_is_optimal else 2 * k * k - 1
    if cert.size_bound != math.floor(bound):
        return "size bound mismatch"
    # greedy maximality: no remaining candidate adds |core|/2 new points
    covered = {G.add(c, t) for c in core for t in T}
    for u in sigma:
        gain = sum(1 for c in core if G.add(c, u) not in covered)
        if 2 * gain >= len(core):
            return "translate set is not maximal"
    if not cert.inclusion_verified:
        return "inclusion not verified"
    # spot-check B-B+B-B <= A-A+T-T on a seeded sample
    D = _pyset_diff(G, xs, xs)
    TT = _pyset_diff(G, T, T)
    rng = random.Random(n)
    Dl = sorted(D)
    for _ in range(lhs_sample):
        x = G.add(rng.choice(Dl), rng.choice(Dl))
        if not any(G.add(x, G.neg(d)) in TT for d in Dl):
            return "inclusion spot check failed"
    return None


def _check_progression(A, length: int, step: int, start: int) -> bool:
    N = A.group.modulus
    if math.gcd(step, N) != 1:
        return False
    inv = pow(step, -1, N)
    return all(((x - start) * inv) % N <= length for x in A.elements)


def _check_bounds(A, rep):
    G = A.group
    N = G.modulus
    xs = A.elements
    n = len(xs)
    if rep.modulus != N or rep.size != n or rep.alpha != Fraction(n, N):
        return "size fields mismatch"
    D = _pyset_diff(G, xs, xs)
    if rep.doubling != Fraction(len(_pyset_sum(G, xs, xs)), n):
        return "doubling mismatch"
    if rep.diff_ratio != Fraction(len(D), n) or rep.tau != Fraction(len(D), N):
        return "difference ratio mismatch"
    d = rep.diam
    if d.length < n - 1 or not _check_progression(A, d.length, d.step, d.start):
        return "diameter witness does not cover A"
    s = rep.spectral
    if s.hypothesis_met:
        if not s.conclusion_ok:
            return "spectral diameter conclusion failed"
        if d.length > s.diameter_upper:
            return "true diameter above the certified spectral bound"
    return None


def _check_rectify(A, k: int, out):
    N = A.group.modulus
    d = out.diameter
    if d.length < len(A) - 1 or not _check_progression(A, d.length, d.step, d.start):
        return "diameter witness does not cover A"
    if out.required != k * d.length:
        return "required != k * diameter"
    w = out.witness
    if w is None:
        return None if out.required >= N else "no witness although k*diam < N"
    if out.required >= N:
        return "witness although k*diam >= N"
    if w.verified is False:
        return "multiset check failed"
    # x -> u*x - shift lands in [0, length] with k*length < N, so k-term sums
    # agree mod N exactly when they agree in Z: a Freiman k-isomorphism
    image = sorted((w.dilation * x - w.shift) % N for x in A.elements)
    if tuple(image) != w.image.elements or image[-1] > w.length or k * w.length >= N:
        return "image is not the certified integer set"
    if math.gcd(w.dilation, N) != 1:
        return "dilation is not a unit"
    return None


def check(ac, op, res):
    """None when the result's certificate holds, else a reason string."""
    kind, args = op
    if kind == "verify":
        return _check_verify(ac, args, res)
    if kind == "cover":
        return _check_cover(args, res)
    if kind == "bounds":
        return _check_bounds(args, res)
    if kind == "rectify":
        return _check_rectify(args[0], args[1], res)
    raise ValueError(f"unknown op kind {kind!r}")

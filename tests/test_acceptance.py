"""Acceptance battery: one test per numbered requirement.

The heavy sweeps run as vectorized numpy scans whose threshold arithmetic
mirrors the library expressions exactly.  Every would-be violation found by
a scan is replayed through the library before it counts, and fixed-stride
subsamples are replayed as well, so the scans cannot drift from the code
they are checking.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from addcomb import (
    CyclicGroup,
    GSet,
    TorsionGroup,
    certified_large_coefficient,
    convolution_counts,
    covering_certificate,
    diam_from_spectrum,
    diameter,
    difference_set,
    exhaustive_sets,
    gap_cover,
    growth_table,
    j_bound_report,
    j_count,
    lev_interval,
    moment_chain,
    random_sets,
    rectify,
    round_sig,
    smallest_prime_in,
    spectrum,
    threshold_chain,
    torsion_cover,
    verify_incm,
)
from addcomb.groups import _memo_scope
from oracles import (
    brute_diameter,
    brute_j_count,
    dirichlet_magnitude,
    loop_freiman,
    naive_iterated_mod,
)

SMALL_MODULI = (11, 13, 17, 19, 23)
SWEEP_MODULI = (11, 13, 17, 19, 23, 29, 31)
DELTAS = (0.1, 0.2, 0.3)
EPSILONS = (0.1, 0.25, 0.4)

_groups = {}


def _cyclic(N):
    if N not in _groups:
        _groups[N] = CyclicGroup(N)
    return _groups[N]


def _gset(N, row):
    return GSet(_cyclic(N), [int(x) for x in row])


def _next_prime(x):
    return smallest_prime_in(x - 1, 2 * x)


def _all_combos(N, s):
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N), s)),
        dtype=np.int8,
    )
    return flat.reshape(-1, s)


def _window_max(ind, l):
    """Per row, the best count over circular windows [b, b+l], b = 0..N-1."""
    N = ind.shape[1]
    ext = np.concatenate([ind, ind[:, :l]], axis=1)
    cs = np.zeros((ind.shape[0], N + l + 1), dtype=np.int16)
    np.cumsum(ext, axis=1, dtype=np.int16, out=cs[:, 1:])
    return cs[:, l + 1 :] - cs[:, :N]


def _diam_vec(combos, N):
    """True diameters, minimized over units; u and N-u give mirror intervals."""
    M, s = combos.shape
    if s == 1:
        return np.zeros(M, np.int16)
    best = np.full(M, N, np.int16)
    c32 = combos.astype(np.int32)
    for u in range(1, N // 2 + 1):
        pos = np.sort((c32 * u) % N, axis=1)
        gaps = np.diff(pos, axis=1)
        wrap = (pos[:, 0] + N - pos[:, -1])[:, None]
        maxgap = np.concatenate([gaps, wrap], axis=1).max(axis=1)
        np.minimum(best, (N - maxgap).astype(np.int16), out=best)
    return best


def _unit_span(combos, N):
    """Length of the shortest circular interval containing each row (no dilation)."""
    M, s = combos.shape
    if s == 1:
        return np.zeros(M, np.int64)
    c = combos.astype(np.int64)
    gaps = np.diff(c, axis=1)
    wrap = (c[:, 0] + N - c[:, -1])[:, None]
    return N - np.concatenate([gaps, wrap], axis=1).max(axis=1)


@pytest.fixture(scope="session")
def covering_corpus():
    """Certificates for A = B1 = B2: exhaustive small moduli plus 500 random."""
    start = time.perf_counter()
    certs = []
    for N in SMALL_MODULI:
        for A in exhaustive_sets(_cyclic(N), 4):
            certs.append(covering_certificate(A, A, A, witness_budget=12))
    rng = random.Random(20260815)
    for _ in range(500):
        N = rng.randrange(11, 500)
        size = rng.randint(1, 10)
        A = GSet(_cyclic(N), rng.sample(range(N), size))
        certs.append(covering_certificate(A, A, A, witness_budget=12))
    return certs, time.perf_counter() - start


@pytest.fixture(scope="session")
def sweep():
    """(combination table, true diameters) per (modulus, size) scan block."""
    data = {}
    for N in SWEEP_MODULI:
        for s in range(1, 7):
            combos = _all_combos(N, s)
            data[(N, s)] = (combos, _diam_vec(combos, N))
    return data


def test_criterion_01_covering(covering_corpus, criterion):
    certs, elapsed = covering_corpus
    expected = sum(math.comb(N, s) for N in SMALL_MODULI for s in range(1, 5)) + 500
    bad_inclusion = sum(1 for c in certs if not c.inclusion_verified)
    bad_bound = 0
    for c in certs:
        limit = math.floor(2 * c.ratio1 * c.ratio2 - 1)
        if not (c.witness_is_optimal and len(c.translates) <= limit):
            bad_bound += 1
    ok = (
        len(certs) == expected
        and bad_inclusion == 0
        and bad_bound == 0
        and elapsed < 300
    )
    criterion(
        1,
        ok,
        f"{len(certs)} instances, {bad_inclusion} inclusion failures, "
        f"{bad_bound} translate-bound failures, built in {elapsed:.1f}s",
    )


def test_criterion_02_iterated_covering(covering_corpus, criterion):
    certs, _ = covering_corpus
    failures = sum(1 for c in certs if verify_incm(c.base, c.translates, 4) != 4)
    criterion(
        2, failures == 0, f"m <= 4 inclusions on {len(certs)} instances, {failures} failures"
    )


def test_criterion_03_j_function(criterion):
    table_bad = sum(
        j_count(k, m) != brute_j_count(k, m)
        for k in range(1, 5)
        for m in range(0, 9)
    )
    bound_bad = sum(
        j_bound_report(k, m).ok is not True for k in range(1, 7) for m in range(k, 41)
    )
    edges = all(j_count(1, m) == 1 for m in range(41)) and all(
        j_count(k, 0) == 1 for k in range(1, 7)
    )
    ok = table_bad == 0 and bound_bad == 0 and edges
    criterion(
        3,
        ok,
        f"J table vs brute {table_bad} mismatches (k<=4, m<=8), "
        f"ratio bound {bound_bad} failures (k<=6, m<=40), edge cases exact: {edges}",
    )


def test_criterion_04_growth_bounds(covering_corpus, criterion):
    certs, _ = covering_corpus
    j_bad = ratio_bad = spot = spot_bad = 0
    for idx, c in enumerate(certs):
        B = difference_set(c.base, c.base)
        T = c.translates
        rows = growth_table(B, T, max(4, len(T)))
        j_bad += sum(1 for r in rows if r.checks["j_bound"] is not True)
        ratio_bad += sum(1 for r in rows if r.checks.get("ratio_bound", True) is not True)
        if idx % 1009 == 0 and len(B) ** 3 <= 200_000:
            N = c.base.group.modulus
            want = len(naive_iterated_mod(B.elements, 3, N))
            spot += 1
            spot_bad += rows[1].grown_size != want
    ok = j_bad == 0 and ratio_bad == 0 and spot_bad == 0
    criterion(
        4,
        ok,
        f"{len(certs)} covering pairs: {j_bad} tuple-count failures, "
        f"{ratio_bad} ratio-bound failures, {spot_bad}/{spot} oracle spot mismatches",
    )


def test_criterion_05_fourier(criterion):
    rng = random.Random(20260816)
    parseval_bad = 0
    for _ in range(1000):
        N = rng.randrange(2, 4097)
        size = rng.randint(1, min(N, 48))
        rep = spectrum(GSet(_cyclic(N), rng.sample(range(N), size)))
        parseval_bad += rep.parseval_residual > 1e-9

    moment_bad = mass_bad = 0
    for _ in range(200):
        N = rng.randrange(8, 513)
        size = rng.randint(1, min(N, 12))
        B = GSet(_cyclic(N), rng.sample(range(N), size))
        m = rng.choice((1, 2, 3))
        moment_bad += not moment_chain(B, m)[-1].ok
        cc = convolution_counts(B, m)
        mass_bad += int(cc.counts.sum()) != size ** (m + 1) or cc.total != size ** (m + 1)

    dirichlet_worst = 0.0
    for _ in range(50):
        N = rng.randrange(16, 2049)
        l = rng.randint(1, min(N - 1, 60))
        mags = spectrum(GSet(_cyclic(N), range(l))).magnitudes
        for r in range(N):
            dirichlet_worst = max(dirichlet_worst, abs(mags[r] - dirichlet_magnitude(l, r, N)))

    ok = parseval_bad == 0 and moment_bad == 0 and mass_bad == 0 and dirichlet_worst <= 1e-9
    criterion(
        5,
        ok,
        f"Parseval {parseval_bad}/1000 over tolerance, moment chain {moment_bad}/200 "
        f"failures, {mass_bad} mass mismatches, Dirichlet worst residual {dirichlet_worst:.2e}",
    )


def test_criterion_06_large_coefficient(criterion):
    start = time.perf_counter()
    cases = []
    for L in (4, 5, 8, 10, 12, 15, 20, 25, 30):
        N = _next_prime(14 ** 4 * L)
        cases.append((N, tuple(range(L)), (0, L - 1)))
    for L in (6, 9):
        # denser variants: beta just one order under the gate
        N = _next_prime(3 * 14 ** 3 * L)
        cases.append((N, tuple(range(L)), (0, L - 1)))
    for L in (3, 5, 8, 12):
        # interval straddling zero: a two-piece union in the fundamental domain
        N = _next_prime(14 ** 4 * (2 * L - 1))
        elems = tuple(range(N - L + 1, N)) + tuple(range(L))
        cases.append((N, elems, (N - L + 1, L - 1)))
    N10 = _next_prime(14 ** 4 * 10)
    for lam in (7, 101, 9999):
        elems = tuple((lam * j) % N10 for j in range(10))
        cases.append((N10, elems, (0, (9 * lam) % N10)))
    for N in (_next_prime(200_000), _next_prime(999_982)):
        cases.append((N, (0, 1), (0, 1)))

    failures = 0
    etas = []
    for N, elems, t_elems in cases:
        g = _cyclic(N)
        cert = certified_large_coefficient(GSet(g, elems), GSet(g, t_elems))
        assert cert.k == 2 and cert.beta <= Fraction(1, 14 ** 3)
        etas.append(cert.eta)
        failures += cert.ok is not True
    elapsed = time.perf_counter() - start
    ok = len(cases) >= 20 and failures == 0 and all(0 < e < 1 for e in etas) and elapsed < 600
    criterion(
        6,
        ok,
        f"{len(cases)} instances up to N={max(c[0] for c in cases)}, {failures} failures, "
        f"eta in [{min(etas):.3f}, {max(etas):.3f}], {elapsed:.1f}s",
    )


def test_criterion_07_implication_scans(sweep, criterion):
    lev_viol = cover_viol = diam_viol = 0
    lev_tests = cover_tests = diam_tests = 0
    disagree = []
    replayed = 0

    for N in SWEEP_MODULI:
        w = np.exp(2j * np.pi * np.arange(N) / N)
        windows = {d: max(0, math.ceil(d * N) - 1) for d in DELTAS}

        for s in range(1, 7):
            combos, _ = sweep[(N, s)]
            M = len(combos)
            coeff = np.abs(w[combos].sum(axis=1))
            ind = np.zeros((M, N), np.uint8)
            ind[np.arange(M)[:, None], combos] = 1
            inside = {
                d: _window_max(ind, windows[d]).max(axis=1).astype(np.int64)
                for d in DELTAS
            }
            for d in DELTAS:
                exceptions = s - inside[d]
                for e in EPSILONS:
                    lev_tests += M
                    thr = (1 - 8 * e * d * d) * s
                    for i in np.nonzero((coeff >= thr) & ~(exceptions < e * s))[0]:
                        res = lev_interval(_gset(N, combos[i]), e, d)
                        if res.ok is not True:
                            lev_viol += 1
                        elif not res.hypothesis_met and coeff[i] - thr > 1e-9:
                            disagree.append(("lev-hyp", N, s, int(i), e, d))
            for i in range(0, M, 4999):
                B = _gset(N, combos[i])
                for d in DELTAS:
                    exc = int(s - inside[d][i])
                    for e in EPSILONS:
                        thr = (1 - 8 * e * d * d) * s
                        if abs(coeff[i] - thr) <= 1e-9:
                            continue
                        res = lev_interval(B, e, d)
                        replayed += 1
                        if res.hypothesis_met != bool(coeff[i] >= thr):
                            disagree.append(("lev-replay", N, s, i, e, d))
                        elif res.hypothesis_met and (
                            res.exceptions != exc or res.conclusion_ok != (exc < e * s)
                        ):
                            disagree.append(("lev-window", N, s, i, e, d))

        for s in range(1, 6):
            combos, truediam = sweep[(N, s)]
            M = len(combos)
            c32 = combos.astype(np.int32)
            diffs = (c32[:, :, None] - c32[:, None, :]) % N
            dind = np.zeros((M, N), np.uint8)
            dind[np.repeat(np.arange(M), s * s), diffs.reshape(-1)] = 1
            dsize = dind.sum(axis=1).astype(np.int64)
            span = _unit_span(combos, N)
            maxmag = np.abs(np.fft.fft(dind, axis=1))[:, 1:].max(axis=1)
            td = truediam.astype(np.int64)
            inside = {
                d: _window_max(dind, windows[d]).max(axis=1).astype(np.int64)
                for d in DELTAS
            }
            for d in DELTAS:
                l = windows[d]
                cover_tests += M
                diam_tests += M
                outside = dsize - inside[d]
                for i in np.nonzero((2 * outside < s) & (span > l))[0]:
                    A = _gset(N, combos[i])
                    res = gap_cover(A, _best_window_base(A, N, l), l)
                    if res.ok is not True:
                        cover_viol += 1
                    elif res.hypothesis_met:
                        disagree.append(("cover-span", N, s, int(i), d))
                thr = dsize - (4 * d * d) * s
                for i in np.nonzero((maxmag >= thr) & ~(td < d * N))[0]:
                    try:
                        res = diam_from_spectrum(_gset(N, combos[i]), d)
                    except RuntimeError:
                        diam_viol += 1
                        continue
                    if res.ok is not True:
                        diam_viol += 1
                    elif not res.hypothesis_met and maxmag[i] - thr[i] > 1e-9:
                        disagree.append(("diam-hyp", N, s, int(i), d))
            for i in range(0, M, 2499):
                A = _gset(N, combos[i])
                for d in DELTAS:
                    l = windows[d]
                    res = gap_cover(A, _best_window_base(A, N, l), l)
                    if res.ok is not True:
                        cover_viol += 1
                        continue
                    replayed += 1
                    if res.hypothesis_met != bool(2 * (dsize[i] - inside[d][i]) < s):
                        disagree.append(("cover-replay", N, s, i, d))
                    elif res.hypothesis_met and any(
                        (x - res.start) % N > l for x in A.elements
                    ):
                        disagree.append(("cover-contain", N, s, i, d))
                    thr = float(dsize[i]) - (4 * d * d) * s
                    if abs(maxmag[i] - thr) <= 1e-9:
                        continue
                    try:
                        res2 = diam_from_spectrum(A, d)
                    except RuntimeError:
                        diam_viol += 1
                        continue
                    replayed += 1
                    if res2.hypothesis_met != bool(maxmag[i] >= thr):
                        disagree.append(("diam-replay", N, s, i, d))
                    elif res2.hypothesis_met and (
                        res2.ok is not True or td[i] > res2.diameter_upper
                    ):
                        disagree.append(("diam-upper", N, s, i, d))

    ok = lev_viol == 0 and cover_viol == 0 and diam_viol == 0 and not disagree
    criterion(
        7,
        ok,
        f"violations lev {lev_viol}/{lev_tests}, cover {cover_viol}/{cover_tests}, "
        f"spectral-diameter {diam_viol}/{diam_tests}; {replayed} library replays, "
        f"{len(disagree)} scan disagreements {disagree[:3]}",
    )


def _best_window_base(A, N, l):
    D = {(x - y) % N for x in A.elements for y in A.elements}
    return max(range(N), key=lambda b: sum((x - b) % N <= l for x in D))


def test_criterion_08_rectification(sweep, criterion):
    start = time.perf_counter()
    successes = cert_bad = external = fail_checked = 0
    for N, s in sorted(sweep):
        combos, dvec = sweep[(N, s)]
        g = _cyclic(N)
        d64 = dvec.astype(np.int64)
        cand3 = set(np.nonzero(3 * d64 < N)[0].tolist())
        for i in np.nonzero(2 * d64 < N)[0]:
            A = GSet(g, combos[i].tolist())
            with _memo_scope():  # one diameter search serves both orders
                if diameter(A).length != d64[i]:
                    cert_bad += 1
                    continue
                for k in (2, 3) if int(i) in cand3 else (2,):
                    out = rectify(A, k)
                    if not (out.succeeded and out.ok is True):
                        cert_bad += 1
                        continue
                    successes += 1
                    if successes % 97 == 0:
                        wit = out.witness
                        mapping = {x: (wit.dilation * x - wit.shift) % N for x in A.elements}
                        external += 1
                        cert_bad += not loop_freiman(A, wit.image, mapping, k)[0]
        for k in (2, 3):
            for i in np.nonzero(k * d64 >= N)[0][::499]:
                out = rectify(GSet(g, combos[i].tolist()), k)
                fail_checked += 1
                cert_bad += out.succeeded or out.diameter.length != d64[i]

    oracle_checked = oracle_bad = 0
    for N in (11, 13):
        g = _cyclic(N)
        for s in range(1, 5):
            for elems in itertools.combinations(range(N), s):
                oracle_bad += diameter(GSet(g, elems)).length != brute_diameter(elems, N)
                oracle_checked += 1
    rng = random.Random(20260817)
    for N in (37, 61, 101):
        g = _cyclic(N)
        for _ in range(400):
            elems = rng.sample(range(N), rng.randint(1, 8))
            oracle_bad += diameter(GSet(g, elems)).length != brute_diameter(elems, N)
            oracle_checked += 1
    for N, s in sorted(sweep):
        combos, dvec = sweep[(N, s)]
        g = _cyclic(N)
        for i in range(0, len(combos), 1999):
            oracle_bad += diameter(GSet(g, combos[i].tolist())).length != dvec[i]
            oracle_checked += 1

    # every affine image of a row is a row of the same table: its diameter, read at the
    # image's rank, must equal the row's own; a moved row missing from the table is a break
    inv_bad = 0
    for s in range(1, 6):
        rows, want = sweep[(23, s)][0].astype(np.int64), sweep[(23, s)][1]
        weight = 23 ** np.arange(s - 1, -1, -1, dtype=np.int64)
        keys = rows @ weight  # increasing: combinations run in lexicographic order
        for lam in range(1, 23):
            for c in range(23):
                moved = np.sort((lam * rows + c) % 23, axis=1) @ weight
                rank = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
                inv_bad += int(((keys[rank] != moved) | (want[rank] != want)).sum())

    ok = cert_bad == 0 and oracle_bad == 0 and inv_bad == 0 and successes > 0
    criterion(
        8,
        ok,
        f"{successes} rectifications certified ({external} re-checked externally, "
        f"{fail_checked} predicted failures replayed), {cert_bad} bad; diameter oracle "
        f"{oracle_bad}/{oracle_checked} mismatches; {inv_bad} affine invariance breaks, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_criterion_09_torsion(criterion):
    start = time.perf_counter()
    instances = list(exhaustive_sets(TorsionGroup(2, 3), 8))
    rng = random.Random(20260818)
    made = {}
    for _ in range(500):
        n = rng.randint(1, 10)
        g = made.setdefault(n, TorsionGroup(2, n))
        size = rng.randint(1, min(12, 2 ** n))
        instances.append(random_sets(g, size, 1, seed=rng.randrange(1 << 30))[0])

    failures = 0
    for A in instances:
        cert = torsion_cover(A)
        failures += cert.ok is not True
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(instances) == 255 + 500 and elapsed < 300
    criterion(
        9,
        ok,
        f"{len(instances)} instances ((Z/2)^3 exhaustive + random n <= 10), "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_10_constant_chain(criterion):
    worst = []
    ok = True
    for K in (1, 1.5, 2, 3):
        rep = threshold_chain(K)
        again = threshold_chain(K)
        ok &= (
            rep.delta is not None
            and rep.delta < 1 / 3
            and round_sig(rep.delta) < 1 / 3
            and rep.delta_below_third
            and again.delta == rep.delta
        )
        worst.append(rep.delta)
    for k in (2, 3, 5):
        for K in (1, 1.5, 2, 3):
            rep = threshold_chain(K, k)
            ok &= (
                rep.delta is not None
                and rep.delta < 1 / k
                and round_sig(rep.delta) < 1 / k
                and bool(rep.delta_below_inv_k)
            )
    criterion(
        10,
        ok,
        f"delta at the doubling thresholds {[round_sig(d) for d in worst]} all < 1/3, "
        f"order-k thresholds stay under 1/k for k in (2, 3, 5)",
    )

"""Named lemma checks over an instance stream, with deterministic aggregation.

Every check reports pass, fail, or skip per instance.  A check passes only
what it verified; it skips when it does not apply to the instance (its group,
or no point of its parameter grid) or when its work was over a budget or left
unverified.  A fail carries a counterexample payload; the lemmas are theorems,
so any fail is an implementation bug, and the suite exists to catch exactly
that.  The check loop of `run_suite` alone maps an outcome to a verdict: a
returned (status, payload) is counted as is, a BudgetError counts as skip, a
RuntimeError (a library fault) counts as fail with payload {"error": message},
and a ValueError (bad input) propagates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .covering import (
    CoveringCertificate,
    covering_certificate,
    growth_table,
    j_bound_report,
    j_count,
    verify_incm,
)
from .fourier import moment_chain, spectrum
from .groups import BudgetError, GSet, difference_set
from .rectify import _window_counts, diam_from_spectrum, gap_cover, lev_interval, rectify
from .torsion import torsion_cover
from .primes import is_prime
from .serialize import gset_to_obj

__all__ = ["CHECK_NAMES", "SuiteConfig", "CheckTally", "SuiteReport", "run_suite"]

PASS, FAIL, SKIP = "pass", "fail", "skip"

CHECK_NAMES = (
    "inc",
    "incm",
    "jbound",
    "estjcov",
    "estecov",
    "parseval",
    "moment",
    "cover",
    "lev",
    "diam",
    "iso",
    "torsion",
)


@dataclass(frozen=True)
class SuiteConfig:
    checks: Tuple[str, ...] = CHECK_NAMES
    seed: int = 0                 # echoed; the stream generator owns the randomness
    m_max: int = 3
    j_k_max: int = 4
    j_m_max: int = 10
    eps_grid: Tuple[float, ...] = (0.1, 0.25, 0.4)
    delta_grid: Tuple[float, ...] = (0.1, 0.2, 0.3)
    witness_budget: int = 12
    iso_order: int = 2
    tol: float = 1e-9
    include_timing: bool = False


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class SuiteReport:
    suite: str
    instance_count: int
    tallies: Dict[str, CheckTally]
    counterexamples: List[dict]
    config: SuiteConfig
    elapsed: Optional[float]

    @property
    def ok(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())


def _cert(A: GSet, cfg: SuiteConfig, cache: dict) -> CoveringCertificate:
    if "cert" not in cache:
        cache["cert"] = covering_certificate(
            A, A, A, witness_budget=cfg.witness_budget
        )
    return cache["cert"]


def _check_inc(A: GSet, cfg: SuiteConfig, cache: dict):
    cert = _cert(A, cfg, cache)
    if cert.ok:
        return PASS, None
    return FAIL, {
        "translates": gset_to_obj(cert.translates),
        "size_bound": cert.size_bound,
        "inclusion_verified": cert.inclusion_verified,
    }


def _check_incm(A: GSet, cfg: SuiteConfig, cache: dict):
    cert = _cert(A, cfg, cache)
    reached = verify_incm(A, cert.translates, cfg.m_max)
    if reached == cfg.m_max:
        return PASS, None
    return FAIL, {"verified_m": reached, "wanted_m": cfg.m_max}


def _growth(A: GSet, cfg: SuiteConfig, cache: dict):
    if "growth" not in cache:
        cert = _cert(A, cfg, cache)
        if not cert.inclusion_verified:
            # the growth bounds presuppose the inc claim, 2(A-A) <= (A-A)+(T-T)
            raise RuntimeError("the covering translates do not cover A-A: 2(A-A) is not inside (A-A)+(T-T)")
        B = difference_set(A, A)
        m_top = max(cfg.m_max, len(cert.translates))
        cache["growth"] = growth_table(B, cert.translates, m_top)
    return cache["growth"]


def _check_estjcov(A: GSet, cfg: SuiteConfig, cache: dict):
    bad = [r for r in _growth(A, cfg, cache) if not r.j_bound_holds]
    if not bad:
        return PASS, None
    return FAIL, {"m": bad[0].m, "grown_size": bad[0].grown_size, "j": bad[0].j_value}


def _check_estecov(A: GSet, cfg: SuiteConfig, cache: dict):
    bad = [r for r in _growth(A, cfg, cache) if r.ratio_bound_holds is False]
    if not bad:
        return PASS, None
    return FAIL, {"m": bad[0].m, "grown_size": bad[0].grown_size}


def _check_parseval(A: GSet, cfg: SuiteConfig, cache: dict):
    if A.group.kind == "window":
        return SKIP, None
    rep = spectrum(A)
    if rep.parseval_residual <= cfg.tol:
        return PASS, None
    return FAIL, {"residual": rep.parseval_residual}


def _check_moment(A: GSet, cfg: SuiteConfig, cache: dict):
    if A.group.kind == "window":
        return SKIP, None
    for rep in moment_chain(A, cfg.m_max, cfg.tol):
        if not rep.ok:
            return FAIL, {
                "m": rep.m,
                "cauchy_schwarz": rep.cauchy_schwarz_holds,
                "parseval_residual": rep.parseval_residual,
                "max_bound": rep.max_bound_holds,
            }
    return PASS, None


def _check_cover(A: GSet, cfg: SuiteConfig, cache: dict):
    if A.group.kind != "cyclic":
        return SKIP, None
    N = A.group.modulus
    lengths = [l for l in (max(0, math.ceil(delta * N) - 1) for delta in cfg.delta_grid) if 3 * l < N]
    if not lengths:
        return SKIP, None
    D = difference_set(A, A)
    for l in lengths:
        gap_cover(A, int(_window_counts(D, l).argmax()), l)
    return PASS, None


def _check_lev(A: GSet, cfg: SuiteConfig, cache: dict):
    deltas = [delta for delta in cfg.delta_grid if 0 < delta < 0.5]
    if A.group.kind != "cyclic" or not deltas:
        return SKIP, None
    for eps in cfg.eps_grid:
        for delta in deltas:
            res = lev_interval(A, eps, delta)
            if res.hypothesis_met and not res.conclusion_ok:
                return FAIL, {
                    "eps": eps,
                    "delta": delta,
                    "exceptions": res.exceptions,
                    "bound": res.bound,
                }
    return PASS, None


def _check_diam(A: GSet, cfg: SuiteConfig, cache: dict):
    deltas = [delta for delta in cfg.delta_grid if 0 < delta < 1 / 3]
    if A.group.kind != "cyclic" or not deltas:
        return SKIP, None
    for delta in deltas:
        res = diam_from_spectrum(A, delta)
        if res.hypothesis_met and res.conclusion_ok is False:
            return FAIL, {"delta": delta, "diameter": res.diameter_upper}
    return PASS, None


def _check_iso(A: GSet, cfg: SuiteConfig, cache: dict):
    if A.group.kind != "cyclic" or not is_prime(A.group.modulus):
        return SKIP, None
    witness = rectify(A, cfg.iso_order).witness
    if witness is not None and witness.verified is None:
        return SKIP, None  # the multiset check was over budget
    return PASS, None


def _check_torsion(A: GSet, cfg: SuiteConfig, cache: dict):
    if A.group.kind != "torsion":
        return SKIP, None
    cert = torsion_cover(A, witness_budget=cfg.witness_budget)
    if cert.ok:
        return PASS, None
    return FAIL, cert.checks


INSTANCE_CHECKS: Dict[str, Callable] = {
    "inc": _check_inc,
    "incm": _check_incm,
    "estjcov": _check_estjcov,
    "estecov": _check_estecov,
    "parseval": _check_parseval,
    "moment": _check_moment,
    "cover": _check_cover,
    "lev": _check_lev,
    "diam": _check_diam,
    "iso": _check_iso,
    "torsion": _check_torsion,
}


def _run_jbound(cfg: SuiteConfig, tally: CheckTally, counterexamples: List[dict]) -> None:
    for k in range(1, cfg.j_k_max + 1):
        if j_count(k, 0) == 1:
            tally.passed += 1
        else:
            tally.failed += 1
            counterexamples.append({"check": "jbound", "k": k, "m": 0})
        for m in range(k, cfg.j_m_max + 1):
            rep = j_bound_report(k, m)
            ok = rep.holds and (k != 1 or rep.count == 1)
            if ok:
                tally.passed += 1
            else:
                tally.failed += 1
                counterexamples.append(
                    {"check": "jbound", "k": k, "m": m, "count": rep.count}
                )


def run_suite(instances: Iterable[GSet], config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Execute the selected checks on every instance; order never affects the report."""
    unknown = [c for c in config.checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    start = time.perf_counter()
    selected = [c for c in CHECK_NAMES if c in config.checks]
    tallies = {name: CheckTally() for name in selected}
    counterexamples: List[dict] = []
    if "jbound" in tallies:
        _run_jbound(config, tallies["jbound"], counterexamples)
    inst_list = list(instances)
    per_instance = [c for c in selected if c != "jbound"]
    for idx, A in enumerate(inst_list):
        cache: dict = {}
        for name in per_instance:
            try:
                status, payload = INSTANCE_CHECKS[name](A, config, cache)
            except BudgetError:
                status, payload = SKIP, None
            except RuntimeError as exc:
                status, payload = FAIL, {"error": str(exc)}
            tally = tallies[name]
            if status == PASS:
                tally.passed += 1
            elif status == SKIP:
                tally.skipped += 1
            else:
                tally.failed += 1
                counterexamples.append(
                    {
                        "index": idx,
                        "check": name,
                        "instance": gset_to_obj(A),
                        "detail": payload or {},
                    }
                )
    elapsed = time.perf_counter() - start if config.include_timing else None
    return SuiteReport(
        suite=",".join(selected),
        instance_count=len(inst_list),
        tallies=tallies,
        counterexamples=counterexamples,
        config=config,
        elapsed=elapsed,
    )

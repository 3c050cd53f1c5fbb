"""Named lemma checks over an instance stream, with deterministic aggregation.

Every check reports pass, fail, or skip per instance.  A fail carries a
counterexample payload, and since the lemmas are theorems any fail is an
implementation bug.  No check tests the instance's group: the library
refuses a group it does not apply to with NotApplicable, raised by
`groups._require` alone.  Every check, `cover` and each point of the
`jbound` grid included, judges certificates by their `ok` alone
(`_verdict`): fail at the first whose ok is False, else skip if one is
undecided (ok None), else pass; unmet hypotheses pass vacuously.  The loop
of `run_suite` alone maps an outcome to a verdict: a returned (status,
payload) counts as is, NotApplicable or BudgetError as skip, a RuntimeError
(a library fault) as fail with payload {"error": message}, and any other
ValueError (bad input) propagates.  The report is a certificate too, with
one claim per selected check: that it failed on no instance.

A check takes the instance alone: its parameters are the module constants
below, and its certificates are built at the library's defaults, the
witness budget covering._WITNESS_BUDGET among them.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .covering import covering_certificate, growth_table, j_bound_report
from .fourier import moment_chain, spectrum
from .groups import BudgetError, Certificate, GSet, NotApplicable, _memo_scope, _memoized, _require, difference_set
from .rectify import _best_window, diam_from_spectrum, gap_cover, lev_interval, rectify
from .torsion import torsion_cover
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

# The one parameter grid of every run.  Each delta lies in (0, 1/3), as lev
# and diam require, and gives cover a window length l = ceil(delta*N) - 1
# with 0 <= 3l < 0.9N < N, as gap_cover requires; each eps lies in (0, 1), as
# lev requires.
_M_MAX = 3                       # incm, estjcov, estecov and moment verify m = 1.._M_MAX
_J_K_MAX = 4                     # jbound compares J(k, m) for k = 1.._J_K_MAX ...
_J_M_MAX = 10                    # ... and m = 0, k.._J_M_MAX
_EPS_GRID = (0.1, 0.25, 0.4)     # lev
_DELTA_GRID = (0.1, 0.2, 0.3)    # cover, lev and diam
_ISO_ORDER = 2                   # iso rectifies at order k = 2


@dataclass(frozen=True)
class SuiteConfig:
    checks: Tuple[str, ...] = CHECK_NAMES
    seed: int = 0                 # echoed; the stream generator owns the randomness
    include_timing: bool = False


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class SuiteReport(Certificate):
    suite: str
    instance_count: int
    tallies: Dict[str, CheckTally]
    counterexamples: List[dict]
    config: SuiteConfig
    elapsed: Optional[float]

    @property
    def checks(self) -> Dict[str, Optional[bool]]:
        """One claim per selected check: it failed on no instance."""
        return {name: t.failed == 0 for name, t in self.tallies.items()}


def _verdict(
    judged: Iterable[Tuple[Dict[str, Any], Certificate]],
    detail: Callable[[Certificate], dict],
    claim: Optional[str] = None,
):
    """The status of a check from its (params, certificate) pairs, judged by ok.

    FAIL with payload {**params, **detail(certificate)} at the first
    certificate whose ok is False, else SKIP when one is undecided (None),
    else PASS.  With claim, the certificate's check of that name stands in
    for ok; an absent claim holds vacuously.
    """
    status = PASS
    for params, cert in judged:
        ok = cert.ok if claim is None else cert.checks.get(claim, True)
        if ok is False:
            return FAIL, {**params, **detail(cert)}
        if ok is None:
            status = SKIP
    return status, None


def _check_inc(A: GSet):
    return _verdict([({}, covering_certificate(A, A, A))], lambda cert: {
        "translates": gset_to_obj(cert.translates),
        "size_bound": cert.size_bound,
        "inclusion_verified": cert.inclusion_verified,
    })


def _check_incm(A: GSet):
    # a shortfall after a verified inclusion is a fault that covering_certificate raises
    cert = covering_certificate(A, A, A, check_m=_M_MAX)
    return _verdict([({}, cert)], lambda cert: {"verified_m": cert.m_checked, "wanted_m": _M_MAX}, "inclusion")


def _growth(A: GSet):
    return _memoized((A,), "growth", lambda: _growth_table(A))


def _growth_table(A: GSet):
    cert = covering_certificate(A, A, A)
    if not cert.checks["inclusion"]:
        # the growth bounds presuppose the inc claim, 2(A-A) <= (A-A)+(T-T)
        raise RuntimeError("the covering translates do not cover A-A: 2(A-A) is not inside (A-A)+(T-T)")
    m_top = max(_M_MAX, len(cert.translates))
    return growth_table(difference_set(A, A), cert.translates, m_top)


def _check_estjcov(A: GSet):
    rows = (({}, r) for r in _growth(A))
    return _verdict(rows, lambda r: {"m": r.m, "grown_size": r.grown_size, "j": r.j_value}, "j_bound")


def _check_estecov(A: GSet):
    rows = (({}, r) for r in _growth(A))
    return _verdict(rows, lambda r: {"m": r.m, "grown_size": r.grown_size}, "ratio_bound")


def _check_parseval(A: GSet):
    return _verdict([({}, spectrum(A))], lambda rep: {"residual": rep.parseval_residual})


def _check_moment(A: GSet):
    rows = (({}, rep) for rep in moment_chain(A, _M_MAX))
    return _verdict(rows, lambda rep: {
        "m": rep.m,
        "cauchy_schwarz": rep.cauchy_schwarz_holds,
        "parseval_residual": rep.parseval_residual,
        "max_bound": rep.max_bound_holds,
    })


def _check_cover(A: GSet):
    N = _require(A.group, "cyclic").modulus
    D = difference_set(A, A)

    def cover(delta):  # b starts a window of length l holding the most of A - A
        l = math.ceil(delta * N) - 1
        return {"delta": delta}, gap_cover(A, _best_window(D, l)[0], l)

    return _verdict(map(cover, _DELTA_GRID), lambda res: {"start": res.start, "length": res.length})


def _check_lev(A: GSet):
    grid = (
        ({"eps": eps, "delta": delta}, lev_interval(A, eps, delta))
        for eps in _EPS_GRID
        for delta in _DELTA_GRID
    )
    return _verdict(grid, lambda res: {"exceptions": res.exceptions, "bound": res.bound})


def _check_diam(A: GSet):
    grid = (({"delta": delta}, diam_from_spectrum(A, delta)) for delta in _DELTA_GRID)
    return _verdict(grid, lambda res: {"diameter": res.diameter_upper})


def _check_iso(A: GSet):
    # an undecided outcome is a multiset check over budget
    return _verdict([({}, rectify(A, _ISO_ORDER))], lambda out: out.checks)


def _check_torsion(A: GSet):
    return _verdict([({}, torsion_cover(A))], lambda cert: cert.checks)


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


def _record(tally: CheckTally, counterexamples: List[dict], status: str, failure: Callable[[], dict]) -> None:
    """Count one verdict; a fail also appends its counterexample, failure()."""
    if status == PASS:
        tally.passed += 1
    elif status == SKIP:
        tally.skipped += 1
    else:
        tally.failed += 1
        counterexamples.append(failure())


@functools.lru_cache(maxsize=None)
def _jbound_outcome(report: Callable[[int, int], Certificate]) -> Tuple[Tuple[int, int, int], Tuple[dict, ...]]:
    """The jbound tally, as (passed, failed, skipped), and its counterexamples over the grid.

    The grid is fixed, so its verdicts are decided once for each report function.
    """
    tally, counterexamples = CheckTally(), []
    for k in range(1, _J_K_MAX + 1):
        for m in (0, *range(k, _J_M_MAX + 1)):
            status, payload = _verdict([({"check": "jbound", "k": k, "m": m}, report(k, m))], lambda rep: {"count": rep.count})
            _record(tally, counterexamples, status, lambda: payload)
    return astuple(tally), tuple(counterexamples)


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
        # the name is read at each run, so a replaced j_bound_report is judged afresh
        judged, found = _jbound_outcome(j_bound_report)
        tallies["jbound"] = CheckTally(*judged)
        counterexamples += map(dict, found)
    inst_list = list(instances)
    per_instance = [c for c in selected if c != "jbound"]
    for idx, A in enumerate(inst_list):
        with _memo_scope():
            for name in per_instance:
                try:
                    status, payload = INSTANCE_CHECKS[name](A)
                except (NotApplicable, BudgetError):
                    status, payload = SKIP, None
                except RuntimeError as exc:
                    status, payload = FAIL, {"error": str(exc)}
                _record(tallies[name], counterexamples, status, lambda: {
                    "index": idx,
                    "check": name,
                    "instance": gset_to_obj(A),
                    "detail": payload or {},
                })
    elapsed = time.perf_counter() - start if config.include_timing else None
    return SuiteReport(
        suite=",".join(selected),
        instance_count=len(inst_list),
        tallies=tallies,
        counterexamples=counterexamples,
        config=config,
        elapsed=elapsed,
    )

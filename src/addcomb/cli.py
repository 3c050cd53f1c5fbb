"""Command line front end.

Exit codes: 0 = success, 1 = a claim failed or a library fault, 2 = bad
configuration or input.  One rule decides 0 or 1: each command returns its
report, and main alone writes it and exits 1 exactly when the report is a
certificate whose ok is False, that is when a claim fails.  For spectrum
the claim is Parseval's identity; for verify it is that a check found no
counterexample (an implementation bug by definition).  An undecided claim
exits 0.  Every command exits 1 on a library fault, such as a cover
--check-m shortfall with B = A.  Exit 2 is a budget violation, an ambient
group the command does not apply to, a malformed --input file, a bounds
--doubling K (with --order k) whose constant chain leaves the float range,
or a flag the command would ignore: --alpha, --doubling, --order or
--at-threshold for bounds on a set; --delta or --elements for the bounds
calculator, and --alpha with --at-threshold; --elements for verify and
enumerate, and --input for enumerate; --group and --elements (for verify,
--group, --shape and --seed) next to --input.

cover, torsion-cover and verify build their covering certificates at the
library's one witness budget, covering._WITNESS_BUDGET; no flag sets it.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import bound_calculator, theorem1_pipeline, threshold_chain
from .covering import covering_certificate
from .fourier import spectrum
from .groups import BudgetError, Certificate, GSet, _memo_scope, sumset
from .rectify import diameter, rectify
from .torsion import torsion_cover
from .instances import parse_elements, parse_group, parse_shape
from .serialize import dumps, gset_to_obj, load_instances
from .suite import CHECK_NAMES, SuiteConfig, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="addcomb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--group", help='ambient group, e.g. "cyclic:101", "window:0:50", "torsion:2:3"')
        p.add_argument("--elements", help='elements, e.g. "0,1,3" or "0,0,1;1,0,1"')
        p.add_argument("--input", help="instance file (single instance)")
        p.add_argument("--format", choices=("human", "structured"), default="human")
        p.add_argument("--out", help="write the structured report to this file")

    p = sub.add_parser("sumset", help="A+B (B defaults to A)")
    common(p)
    p.add_argument("--elements-b", help="second summand; defaults to the first")

    p = sub.add_parser("diam", help="minimal progression cover")
    common(p)

    p = sub.add_parser("spectrum", help="character magnitudes and Parseval residual")
    common(p)
    p.add_argument("--top", type=int, default=8)

    p = sub.add_parser("cover", help="translate-cover certificate for (A, B, B)")
    common(p)
    p.add_argument("--elements-b", help="summand; defaults to A")
    p.add_argument("--check-m", type=int, default=0, help="also verify the iterated inclusion up to m")

    p = sub.add_parser("rectify", help="order-k isomorphism onto an integer set")
    common(p)
    p.add_argument("--order", type=int, default=2, help="number of preserved summands")

    p = sub.add_parser("torsion-cover", help="subgroup-coset certificate in (Z/r)^n")
    common(p)

    p = sub.add_parser("bounds", help="constant-chain calculator, or the full pipeline on a set")
    common(p)
    p.add_argument("--alpha", type=str, help='density, float or exact "p/q"')
    p.add_argument("--doubling", type=float, help="growth parameter K")
    p.add_argument("--order", type=int, help="isomorphism order k for the second threshold")
    p.add_argument("--at-threshold", action="store_true", help="evaluate exactly at the theorem threshold")
    p.add_argument("--delta", type=float, help="pipeline concentration parameter")

    p = sub.add_parser("verify", help="run lemma checks over generated or loaded instances")
    common(p)
    p.add_argument("--shape", help='generator, e.g. "exhaustive:3", "random:8:100"')
    p.add_argument("--checks", default="all", help=f'comma list from {",".join(CHECK_NAMES)}')
    p.add_argument("--seed", type=int, help="seed of a random --shape; unset, it reads as 0 (verify --input refuses it, 0 included)")
    p.add_argument("--timing", action="store_true", help="include wall time (breaks byte-identity)")

    p = sub.add_parser("enumerate", help="materialize an instance stream")
    common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--seed", type=int, help="seed of a random --shape; unset, it reads as 0")
    p.add_argument("--limit", type=int, help="cap on the number of instances")

    return top


def _refuse(args: argparse.Namespace, what: str, *flags: str) -> None:
    """Refuse each of flags that was given, naming them all: what would ignore them.

    An unset flag is None, or False for a switch; 0 is a given value.
    """
    given = [flag for flag in flags if getattr(args, flag) is not None and getattr(args, flag) is not False]
    if given:
        raise ValueError(f"{what} would ignore " + ", ".join("--" + flag.replace("_", "-") for flag in given))


def _load_set(args: argparse.Namespace) -> GSet:
    if args.input:
        _refuse(args, "a set from --input", "group", "elements")
        sets = load_instances(args.input)
        if len(sets) != 1:
            raise ValueError(f"{args.input} holds {len(sets)} instances; expected exactly one")
        return sets[0]
    if not args.group or not args.elements:
        raise ValueError("need either --input or both --group and --elements")
    return parse_elements(args.elements, parse_group(args.group))


def _emit(args: argparse.Namespace, report, human: str) -> None:
    text = dumps(report) if args.format == "structured" else human + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps(report))


def _set_line(A: GSet) -> str:
    elems = ", ".join(str(x) for x in A.elements)
    return f"{{{elems}}}"


def _cmd_sumset(args):
    A = _load_set(args)
    B = parse_elements(args.elements_b, A.group) if args.elements_b else A
    S = sumset(A, B)
    return gset_to_obj(S), f"|A+B| = {len(S)}: {_set_line(S)}"


def _cmd_diam(args):
    A = _load_set(args)
    w = diameter(A)
    return w, (
        f"diameter {w.length} (step {w.step}, start {w.start}); "
        f"A is covered by {{{w.start} + j*{w.step} : 0 <= j <= {w.length}}}"
    )


def _cmd_spectrum(args):
    A = _load_set(args)
    rep = spectrum(A, top=args.top)
    top = ", ".join(f"{idx}:{mag:.6g}" for idx, mag in rep.top)
    return rep, (
        f"max nonprincipal |B^| = {rep.max_magnitude:.6g} at {rep.max_index}; "
        f"parseval residual {rep.parseval_residual:.3g}; top: {top}"
    )


def _cmd_cover(args):
    A = _load_set(args)
    B = parse_elements(args.elements_b, A.group) if args.elements_b else A
    cert = covering_certificate(A, B, B, check_m=args.check_m)
    lines = [
        f"translates T ({len(cert.translates)} of them, bound {cert.size_bound}): {_set_line(cert.translates)}",
        f"witness A' of size {len(cert.witness)} with ratio {cert.witness_ratio}"
        + (" (exhaustive)" if cert.witness_is_optimal else " (fallback A'=A)"),
        f"inclusion verified: {cert.inclusion_verified}",
    ]
    if args.check_m:
        lines.append(f"iterated inclusion verified up to m = {cert.m_checked}")
    return cert, "\n".join(lines)


def _cmd_rectify(args):
    A = _load_set(args)
    out = rectify(A, args.order)
    if out.witness is None:
        human = (
            f"not rectifiable at order {args.order}: k*diam = {out.required} "
            f">= N = {A.group.modulus}"
        )
    else:
        w = out.witness
        checked = {True: "verified", None: "not checked (over budget)"}[w.verified]
        human = (
            f"image {_set_line(w.image)} via x -> {w.dilation}*x - {w.shift}; "
            f"order {w.order}, length {w.length}; multiset check: {checked}"
        )
    return out, human


def _cmd_torsion_cover(args):
    A = _load_set(args)
    cert = torsion_cover(A)
    return cert, (
        f"subgroup of size {cert.subgroup_size} (doubling {cert.doubling}, "
        f"difference ratio {cert.diff_ratio}, route {cert.route})\n"
        f"bounds: (a) {cert.bound_a} raw {cert.bound_a_raw}, "
        f"(b) {cert.bound_b} raw {cert.bound_b_raw}\n"
        f"contains A: {cert.contains_a}; gen inclusion: {cert.gen_inclusion_holds}; "
        f"size factor: {cert.size_factor_holds}"
    )


def _cmd_bounds(args):
    if args.group or args.input:
        _refuse(args, "bounds on a set", "alpha", "doubling", "order", "at_threshold")
        A = _load_set(args)
        rep = theorem1_pipeline(A, delta=args.delta)
        return rep, (
            f"N = {rep.modulus}, |A| = {rep.size}, alpha = {rep.alpha}, K = {rep.K:.6g}\n"
            f"gates: alpha {'met' if rep.gate_alpha else 'not met'}, "
            f"tau {'met' if rep.gate_tau else 'not met'} (tau = {rep.tau})\n"
            f"true diameter {rep.diam.length}"
            + (
                f"; bound {rep.diam_bound:.6g} ({'holds' if rep.diam_bound_holds else 'vacuous or violated'})"
                if rep.diam_bound is not None
                else ""
            )
        )
    _refuse(args, "the bounds calculator", "delta", "elements")
    if args.doubling is None:
        raise ValueError("bounds needs --doubling (with --alpha or --at-threshold), or a set")
    if args.at_threshold:
        _refuse(args, "bounds --at-threshold", "alpha")
        rep = threshold_chain(args.doubling, args.order)
    else:
        if args.alpha is None:
            raise ValueError("bounds needs --alpha or --at-threshold")
        try:
            alpha = Fraction(args.alpha) if "/" in args.alpha else float(args.alpha)
        except ZeroDivisionError:
            raise ValueError(f"--alpha {args.alpha!r} has a zero denominator") from None
        rep = bound_calculator(alpha, args.doubling, args.order)
    delta = "n/a" if rep.delta is None else f"{rep.delta:.12g}"
    return rep, (
        f"log(1/alpha) = {rep.log_inv_alpha:.12g}, threshold log = {rep.log_threshold_thm1:.12g}\n"
        f"alpha below threshold 1: {rep.alpha_below_thm1}"
        + (f"; below threshold 2: {rep.alpha_below_thm2}" if rep.k is not None else "")
        + f"\ndelta = {delta} (< 1/3: {rep.delta_below_third}"
        + (f", < 1/{rep.k}: {rep.delta_below_inv_k}" if rep.k is not None else "")
        + f")\ndiameter bound fraction = {rep.diam_bound_fraction:.12g}"
    )


def _cmd_verify(args):
    _refuse(args, "verify", "elements")
    seed = args.seed or 0
    if args.input:
        _refuse(args, "verify --input", "group", "shape", "seed")
        instances = load_instances(args.input)
    elif args.group and args.shape:
        instances = list(parse_shape(args.shape, parse_group(args.group), seed))
    else:
        raise ValueError("verify needs --input, or --group with --shape")
    checks = CHECK_NAMES if args.checks == "all" else tuple(args.checks.split(","))
    report = run_suite(instances, SuiteConfig(checks=checks, seed=seed, include_timing=args.timing))
    human_lines = [f"{len(report.counterexamples)} counterexamples over {report.instance_count} instances"]
    for name, tally in report.tallies.items():
        human_lines.append(
            f"  {name}: {tally.passed} pass, {tally.failed} fail, {tally.skipped} skip"
        )
    return report, "\n".join(human_lines)


def _cmd_enumerate(args):
    _refuse(args, "enumerate", "elements", "input")
    if not args.group:
        raise ValueError("enumerate needs --group")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    stream = parse_shape(args.shape, parse_group(args.group), args.seed or 0)
    sets = []
    for i, inst in enumerate(stream):
        if args.limit is not None and i >= args.limit:
            break
        sets.append(inst)
    return [gset_to_obj(s) for s in sets], "\n".join(_set_line(s) for s in sets) or "(no instances)"


_COMMANDS = {
    "sumset": _cmd_sumset,
    "diam": _cmd_diam,
    "spectrum": _cmd_spectrum,
    "cover": _cmd_cover,
    "rectify": _cmd_rectify,
    "torsion-cover": _cmd_torsion_cover,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # one scope per command, so its steps share each derived set and inclusion
        with _memo_scope():
            report, human = _COMMANDS[args.command](args)
        _emit(args, report, human)
    except (ValueError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 1 if isinstance(report, Certificate) and report.ok is False else 0


if __name__ == "__main__":
    sys.exit(main())

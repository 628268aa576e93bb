"""Command-line front door: genset, survey, density, sieve, anatomy.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 2 usage error, 1 infeasibility or resource-cap error.  The csv and
json formats are stable contracts; pretty output is for humans only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .anatomy import anatomy_record, dyadic_schedule
from .codec import to_csv, to_json
from .experiments import density_experiment, survey
from .genset import (
    GenSetResult,
    InfeasibleCoverError,
    SearchPolicy,
    candidate_table,
    elementary_generating_set,
    exact_min_generating_set,
    greedy_block_generating_set,
)
from .modcore import field_spec, is_prime
from .sievelab import (
    PrimeSetSpec,
    ResourceLimitError,
    psi_count,
    sieve_bound_check,
)

_METHODS = {
    "elementary": elementary_generating_set,
    "greedy": greedy_block_generating_set,
    "exact": exact_min_generating_set,
}


def _parse_l_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad l list {text!r}")
    if not all(v >= 1 for v in values):
        raise argparse.ArgumentTypeError(f"every l must be >= 1, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallgen",
        description="Generating sets of F_p* from small integers, with anatomy and sieve diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("genset", help="construct a generating set for one prime")
    g.add_argument("--p", type=int, required=True, help="odd prime field modulus")
    g.add_argument("--method", choices=sorted(_METHODS), default="elementary")
    g.add_argument("--epsilon", type=float, default=0.05, help="radius exponent bump")
    g.add_argument("--size-cap", type=int, default=None, help="exact search cardinality cap")
    g.add_argument("--no-expand", action="store_true", help="fail instead of doubling the radius")
    g.add_argument("--hard-cap", type=int, default=None, help="radius ceiling (default p-1)")
    g.add_argument("--format", choices=["pretty", "json"], default="pretty")
    g.add_argument("--output", default=None)

    s = sub.add_parser("survey", help="survey primes in a range")
    s.add_argument("--min", type=int, required=True)
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--sample", type=int, default=None, help="survey ~this many primes, strided")
    s.add_argument("--l", type=_parse_l_list, default=(2.0, 3.0), help="comma-separated l values")
    s.add_argument("--epsilon", type=float, default=0.05)
    s.add_argument("--threads", type=int, default=None, help="worker processes (default: all cores)")
    s.add_argument("--format", choices=["csv", "json", "pretty"], default="csv")
    s.add_argument("--output", default=None)

    d = sub.add_parser("density", help="average small-divisor counts of p-1 over primes <= x")
    d.add_argument("--x", type=int, required=True)
    d.add_argument("--l", type=_parse_l_list, required=True)
    d.add_argument("--format", choices=["csv", "json", "pretty"], default="csv")
    d.add_argument("--output", default=None)

    v = sub.add_parser("sieve", help="exact Psi counts and the harmonic hypothesis checker")
    v.add_argument("action", choices=["psi", "check"])
    v.add_argument("--x", type=int, required=True)
    v.add_argument("--u", type=float, default=None)
    v.add_argument("--v", dest="v_param", type=float, default=None)
    v.add_argument("--epsilon", type=float, default=0.1)
    v.add_argument("--pset", default=None, help="threshold | explicit:2,3,5 | residue:P,I")
    v.add_argument("--format", choices=["pretty", "json"], default="pretty")
    v.add_argument("--output", default=None)

    a = sub.add_parser("anatomy", help="omega statistics of an integer, or a dyadic schedule")
    group = a.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="integer to analyze (intended: p-1)")
    group.add_argument("--dyadic", type=int, default=None, help="prime for the level schedule")
    a.add_argument("--l", type=_parse_l_list, default=(2.0, 3.0))
    a.add_argument("--format", choices=["pretty", "json"], default="pretty")
    a.add_argument("--output", default=None)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {output}", file=sys.stderr)


def genset_result_json(p: int, result: GenSetResult) -> str:
    """The genset --format json document: p, then the fields of result."""
    return to_json(result, p=p)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_pset(parser, args) -> PrimeSetSpec:
    text = args.pset or "threshold"
    if text == "threshold":
        if args.u is None:
            parser.error("--pset threshold requires --u")
        return PrimeSetSpec.threshold(args.x, args.u)
    if text.startswith("explicit:"):
        try:
            primes = [int(v) for v in text.removeprefix("explicit:").split(",")]
        except ValueError:
            parser.error(f"bad explicit prime list in {text!r}")
        try:
            return PrimeSetSpec.explicit(args.x, primes)
        except ValueError as exc:
            parser.error(str(exc))
    if text.startswith("residue:"):
        body = text.removeprefix("residue:").split(",")
        if len(body) != 2:
            parser.error("residue pset needs residue:P,INDEX")
        try:
            p, index = int(body[0]), int(body[1])
        except ValueError:
            parser.error(f"bad residue pset {text!r}")
        if not is_prime(p) or p < 3:
            parser.error(f"residue pset modulus {p} is not an odd prime")
        try:
            return PrimeSetSpec.residue(args.x, field_spec(p), index)
        except ValueError as exc:
            parser.error(str(exc))
    parser.error(f"unknown pset {text!r}")


def _cmd_genset(parser, args) -> int:
    if args.p < 3 or not is_prime(args.p):
        parser.error(f"--p must be an odd prime, got {args.p}")
    if args.epsilon <= 0:
        parser.error("--epsilon must be positive")
    field = field_spec(args.p)
    policy = SearchPolicy(
        epsilon=args.epsilon,
        expand_on_failure=not args.no_expand,
        hard_cap=args.hard_cap,
    )
    table = candidate_table(field, policy)
    if args.method == "exact":
        result = exact_min_generating_set(table, size_cap=args.size_cap)
    else:
        result = _METHODS[args.method](table)
    if args.format == "json":
        _emit(genset_result_json(args.p, result), args.output)
        return 0
    lines = [
        f"p = {args.p}  (p-1 = {' * '.join(f'{q}^{a}' if a > 1 else str(q) for q, a in field.divisors)})",
        f"method = {result.method}" + ("" if result.method != "exact" else f"  (minimal: {str(result.exact).lower()})"),
        f"elements = {list(result.elements)}",
        "coverage: " + "; ".join(f"q={field.divisors[i][0]} <- {n}" for i, n in sorted(result.coverage.items())),
        f"n_used = {result.n_used}  asymptotic_violation = {str(result.asymptotic_violation).lower()}",
    ]
    if result.certificate is not None:
        g, order = result.certificate
        lines.append(f"certificate: g = {g}, order = {order}" + ("  (= p-1)" if order == args.p - 1 else ""))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_survey(parser, args) -> int:
    if args.min < 3:
        parser.error("--min must be >= 3")
    if args.epsilon <= 0:
        parser.error("--epsilon must be positive")
    if args.sample is not None and args.sample < 1:
        parser.error("--sample must be >= 1")
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if threads < 1:
        parser.error("--threads must be >= 1")
    rows = survey(
        args.min,
        args.max,
        sample=args.sample,
        l_values=args.l,
        policy=SearchPolicy(epsilon=args.epsilon),
        threads=threads,
    )
    print(f"surveyed {len(rows)} primes in [{args.min}, {args.max}]", file=sys.stderr)
    if args.format == "csv":
        _emit(to_csv(rows), args.output)
    elif args.format == "json":
        _emit(to_json(rows), args.output)
    else:
        ls = sorted(args.l)
        head = f"{'p':>9} {'omega':>5} " + " ".join(f"w_l({format(l,'g')})" for l in ls)
        head += f" {'h_ex':>4} {'h_gr':>4} {'h_el':>4} {'n_used':>6} {'viol':>5}"
        lines = [head]
        for r in rows:
            line = f"{r.p:>9} {r.omega:>5} " + " ".join(f"{r.omega_l[l]:>{len(format(l,'g'))+6}}" for l in ls)
            line += f" {r.h_exact:>4} {r.h_greedy:>4} {r.h_elementary:>4} {r.n_used:>6} {str(r.asymptotic_violation).lower():>5}"
            lines.append(line)
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_density(parser, args) -> int:
    if args.x < 3:
        parser.error("--x must be >= 3")
    rows = density_experiment(args.x, args.l)
    if args.format == "csv":
        _emit(to_csv(rows), args.output)
    elif args.format == "json":
        _emit(to_json(rows), args.output)
    else:
        lines = [
            f"{'l':>6} {'threshold':>12} {'mean':>10} {'lnlnT+M':>10} {'ratio':>8} {'sum 1/(q-1)':>12} {'ratio':>8} {'degen':>5}"
        ]
        for r in rows:
            lines.append(
                f"{format(r.l,'g'):>6} {r.threshold:>12.3f} {r.empirical_mean:>10.6f} "
                f"{r.prediction:>10.6f} {r.ratio:>8.4f} {r.prediction_harmonic:>12.6f} "
                f"{r.ratio_harmonic:>8.4f} {str(r.degenerate).lower():>5}"
            )
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_sieve(parser, args) -> int:
    if args.x < 1:
        parser.error("--x must be >= 1")
    if args.u is not None and args.u < 1:
        parser.error("--u must be >= 1")
    spec = _parse_pset(parser, args)
    if args.action == "psi":
        value = psi_count(spec)
        if args.format == "json":
            _emit(json.dumps({"x": args.x, "psi": value}) + "\n", args.output)
        else:
            _emit(str(value), args.output)
        return 0
    if args.u is None or args.v_param is None:
        parser.error("sieve check requires --u and --v")
    if args.u > args.v_param:
        parser.error("need u <= v")
    report = sieve_bound_check(spec, args.u, args.v_param, args.epsilon)
    if args.format == "json":
        _emit(to_json(report), args.output)
        return 0
    lines = [
        f"x = {report.x}  u = {format(report.u,'g')}  v = {format(report.v,'g')}  epsilon = {format(report.epsilon,'g')}",
        f"psi = {report.psi}  expected = {report.expected:.6g}  conclusion_ratio = {report.conclusion_ratio:.6g}",
        f"hypothesis_sum = {report.hypothesis_sum:.6g}  needs >= {(1 + report.epsilon) / report.u:.6g}"
        f"  -> holds = {str(report.hypothesis_holds).lower()}",
        f"a_v_reference = v^-v = {report.a_v_reference:.6g}  v_in_window = {str(report.v_in_window).lower()}",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_anatomy(parser, args) -> int:
    if args.dyadic is not None:
        if args.dyadic < 17:
            parser.error("--dyadic requires p >= 17")
        schedule = dyadic_schedule(args.dyadic)
        if args.format == "json":
            _emit(to_json(schedule), args.output)
        else:
            if schedule.degenerate:
                _emit(f"p = {schedule.p}: schedule degenerate (iterated logs too small)", args.output)
            else:
                levels = ", ".join(f"{v:.6g}" for v in schedule.levels)
                _emit(f"p = {schedule.p}: N = {schedule.n_levels}, levels = [{levels}]", args.output)
        return 0
    if args.n < 1:
        parser.error("--n must be >= 1")
    record = anatomy_record(args.n, args.l)
    if args.format == "json":
        _emit(to_json(record), args.output)
        return 0
    lines = [f"n = {record.n}  omega = {record.omega}"]
    for l in sorted(record.omega_l):
        lines.append(
            f"l = {format(l,'g')}: threshold = {record.thresholds[l]:.6g}, "
            f"omega_l = {record.omega_l[l]}, bound = {record.bounds[l]:.6g}"
        )
    _emit("\n".join(lines), args.output)
    return 0


_COMMANDS = {
    "genset": _cmd_genset,
    "survey": _cmd_survey,
    "density": _cmd_density,
    "sieve": _cmd_sieve,
    "anatomy": _cmd_anatomy,
}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](parser, args)
    except SystemExit as exc:  # parser.error inside a subcommand
        return int(exc.code or 0)
    except (InfeasibleCoverError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

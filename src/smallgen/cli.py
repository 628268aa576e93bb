"""Command-line front door: genset, survey, density, sieve, anatomy.

Each subcommand returns the text it writes and run writes it once, to stdout
or to --output; diagnostics go to stderr.  Exit codes: 0 success; 2 an input
outside the domain, either an argparse usage error or a ValueError from the
library, which checks each input once; 1 infeasibility or a resource cap.
The csv and json formats are stable contracts; pretty output is for humans
only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .anatomy import _l_table, anatomy_record, dyadic_schedule
from .codec import to_csv, to_json
from .experiments import density_experiment, survey
from .genset import (
    METHODS,
    InfeasibleCoverError,
    SearchPolicy,
    candidate_table,
    certify,
)
from .modcore import field_spec
from .sievelab import (
    PrimeSetSpec,
    ResourceLimitError,
    psi_count,
    sieve_bound_check,
)

def _parse_l_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad l list {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallgen",
        description="Generating sets of F_p* from small integers, with anatomy and sieve diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("genset", help="construct a generating set for one prime")
    g.add_argument("--p", type=int, required=True, help="odd prime field modulus")
    g.add_argument("--method", choices=sorted(METHODS), default="elementary")
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
    s.add_argument("--threads", type=int, default=1, help="worker processes (default 1; more pay off past about 1e6)")
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
    """Write text, ending in a newline, to stdout or to the file output."""
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {output}", file=sys.stderr)


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
        return PrimeSetSpec.explicit(args.x, primes)
    if text.startswith("residue:"):
        body = text.removeprefix("residue:").split(",")
        if len(body) != 2:
            parser.error("residue pset needs residue:P,INDEX")
        try:
            p, index = int(body[0]), int(body[1])
        except ValueError:
            parser.error(f"bad residue pset {text!r}")
        return PrimeSetSpec.residue(args.x, field_spec(p), index)
    parser.error(f"unknown pset {text!r}")


def _render(args, data, pretty) -> str:
    """data as args.format asks: csv, json, or the lines of pretty(), which
    is called only for pretty output."""
    if args.format == "csv":
        return to_csv(data)
    if args.format == "json":
        return to_json(data)
    return "\n".join(pretty())


def _cmd_genset(parser, args) -> str:
    field = field_spec(args.p)
    policy = SearchPolicy(epsilon=args.epsilon, expand_on_failure=not args.no_expand, hard_cap=args.hard_cap)
    result = certify(candidate_table(field, policy), args.method, args.size_cap)
    g, order = result.certificate
    return _render(args, result, lambda: [
        f"p = {args.p}  (p-1 = {' * '.join(f'{q}^{a}' if a > 1 else str(q) for q, a in field.divisors)})",
        f"method = {result.method}" + ("" if result.method != "exact" else f"  (minimal: {str(result.exact).lower()})"),
        f"elements = {list(result.elements)}",
        "coverage: " + "; ".join(f"q={field.divisors[i][0]} <- {n}" for i, n in sorted(result.coverage.items())),
        f"n_used = {result.n_used}  asymptotic_violation = {str(result.asymptotic_violation).lower()}",
        f"certificate: g = {g}, order = {order}" + ("  (= p-1)" if order == args.p - 1 else ""),
    ])


def _cmd_survey(parser, args) -> str:
    rows = survey(
        args.min,
        args.max,
        sample=args.sample,
        l_values=args.l,
        policy=SearchPolicy(epsilon=args.epsilon),
        threads=args.threads,
    )
    print(f"surveyed {len(rows)} primes in [{args.min}, {args.max}]", file=sys.stderr)
    ls = sorted(args.l)
    return _render(args, rows, lambda: [
        f"{'p':>9} {'omega':>5} " + " ".join(f"w_l({format(l,'g')})" for l in ls)
        + f" {'h_ex':>4} {'h_gr':>4} {'h_el':>4} {'n_used':>6} {'viol':>5}",
        *(
            f"{r.p:>9} {r.omega:>5} " + " ".join(f"{r.omega_l[l]:>{len(format(l,'g'))+6}}" for l in ls)
            + f" {r.h_exact:>4} {r.h_greedy:>4} {r.h_elementary:>4} {r.n_used:>6} {str(r.asymptotic_violation).lower():>5}"
            for r in rows
        ),
    ])


def _cmd_density(parser, args) -> str:
    rows = density_experiment(args.x, args.l)
    return _render(args, rows, lambda: [
        f"{'l':>6} {'threshold':>12} {'mean':>10} {'lnlnT+M':>10} {'ratio':>8} {'sum 1/(q-1)':>12} {'ratio':>8} {'degen':>5}",
        *(
            f"{format(r.l,'g'):>6} {r.threshold:>12.3f} {r.empirical_mean:>10.6f} "
            f"{r.prediction:>10.6f} {r.ratio:>8.4f} {r.prediction_harmonic:>12.6f} "
            f"{r.ratio_harmonic:>8.4f} {str(r.degenerate).lower():>5}"
            for r in rows
        ),
    ])


def _cmd_sieve(parser, args) -> str:
    spec = _parse_pset(parser, args)
    if args.action == "psi":
        if spec.kind != "threshold" and args.u is not None and not args.u >= 1:
            parser.error(f"--u must be >= 1, got {args.u}")  # no library call sees u here
        value = psi_count(spec)
        return json.dumps({"x": args.x, "psi": value}) if args.format == "json" else str(value)
    if args.u is None or args.v_param is None:
        parser.error("sieve check requires --u and --v")
    report = sieve_bound_check(spec, args.u, args.v_param, args.epsilon)
    return _render(args, report, lambda: [
        f"x = {report.x}  u = {format(report.u,'g')}  v = {format(report.v,'g')}  epsilon = {format(report.epsilon,'g')}",
        f"psi = {report.psi}  expected = {report.expected:.6g}  conclusion_ratio = {report.conclusion_ratio:.6g}",
        f"hypothesis_sum = {report.hypothesis_sum:.6g}  needs >= {(1 + report.epsilon) / report.u:.6g}"
        f"  -> holds = {str(report.hypothesis_holds).lower()}",
        f"a_v_reference = v^-v = {report.a_v_reference:.6g}  v_in_window = {str(report.v_in_window).lower()}",
    ])


def _cmd_anatomy(parser, args) -> str:
    if args.dyadic is not None:
        _l_table(args.l)  # the schedule ignores l, so no library call checks it
        schedule = dyadic_schedule(args.dyadic)
        return _render(args, schedule, lambda: [f"p = {schedule.p}: " + (
            "schedule degenerate (iterated logs too small)" if schedule.degenerate
            else f"N = {schedule.n_levels}, levels = [{', '.join(f'{v:.6g}' for v in schedule.levels)}]"
        )])
    record = anatomy_record(args.n, args.l)
    return _render(args, record, lambda: [
        f"n = {record.n}  omega = {record.omega}",
        *(
            f"l = {format(l,'g')}: threshold = {record.thresholds[l]:.6g}, "
            f"omega_l = {record.omega_l[l]}, bound = {record.bounds[l]:.6g}"
            for l in sorted(record.omega_l)
        ),
    ])


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
        _emit(_COMMANDS[args.command](parser, args), args.output)
    except SystemExit as exc:  # parser.error inside a subcommand
        return int(exc.code or 0)
    except (InfeasibleCoverError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""How many small elements does F_p* need?  Trend survey over prime decades.

For each decade up to --max, surveys a strided slice of primes and prints the
distribution of the exact minimum generating-set size next to omega(p-1) and
the greedy/elementary sizes.

Usage: python scripts/survey_trend.py [--max 10000000] [--per-decade 300]
"""

import argparse
import sys
import time

from smallgen.experiments import quantile_report, survey
from smallgen.genset import SearchPolicy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=10**7)
    ap.add_argument("--per-decade", type=int, default=300)
    ap.add_argument("--epsilon", type=float, default=0.05)
    args = ap.parse_args()
    policy = SearchPolicy(epsilon=args.epsilon)

    print(f"{'decade':>14} {'rows':>5} {'med h_ex':>8} {'max h_ex':>8} "
          f"{'med h_el':>8} {'max omega':>9} {'viol%':>6} {'max n_used':>10}")
    lo = 3
    hi = 100
    t0 = time.time()
    while lo < args.max:
        hi = min(hi, args.max)
        rows = survey(lo, hi, sample=args.per_decade, policy=policy)
        if rows:
            med_ex = dict(quantile_report(rows, "h_exact", [0.5]))[0.5]
            max_ex = max(r.h_exact for r in rows)
            med_el = dict(quantile_report(rows, "h_elementary", [0.5]))[0.5]
            max_om = max(r.omega for r in rows)
            violations = 100.0 * sum(r.asymptotic_violation for r in rows) / len(rows)
            max_used = max(r.n_used for r in rows)
            print(f"[{lo:>6},{hi:>7}) {len(rows):>5} {med_ex:>8} {max_ex:>8} "
                  f"{med_el:>8} {max_om:>9} {violations:>5.1f}% {max_used:>10}")
        lo, hi = hi, hi * 10
    print(f"total time: {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

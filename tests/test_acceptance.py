"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria 5 and 7 check exact counts at x = 1e6 against the finite-x
laws those counts obey.  A 10% band around the limits themselves cannot be
met, because the exact arithmetic provably misses them at this x:
Psi(1e6, 1e6^(1/u))/1e6 sits +12.2% (u = 2) and +48.7% (u = 3) above Dickman
rho(u), since the convergence is only ~1/ln x; and the mean count of small
prime divisors of p-1 (2.819460) exceeds ln ln T + M by sum_p 1/(p(p-1))
~ 0.773, since pi(x; q, 1)/pi(x) -> 1/(q-1), not 1/q.  The inline comments
and assertion messages spell out the arithmetic.
"""

import math
import time
from itertools import combinations

import numpy as np

from smallgen.experiments import (
    MEISSEL_MERTENS,
    density_csv,
    density_experiment,
    quantile_report,
    survey,
    survey_csv,
)
from smallgen.genset import candidate_table, certify, generates
from smallgen.modcore import field_spec, multiplicative_order
from smallgen.sievelab import PrimeSetSpec, dickman_rho, primes_upto, psi_count, sieve_bound_check

_CACHE: dict = {}

# sum over primes p of 1/(p(p-1)) = sum_q (1/(q-1) - 1/q): the gap between the
# mean prime-divisor count of shifted primes p-1 and of random integers.
SHIFTED_PRIME_GAP = 0.7731566690497451


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _survey_1e5():
    if "rows" not in _CACHE:
        _CACHE["rows"] = survey(3, 10**5)
    return _CACHE["rows"]


def test_criterion_01_residue_count_identity():
    t0 = time.time()
    failures = []
    checked = 0
    for p in (int(q) for q in primes_upto(1000) if q >= 3):
        f = field_spec(p)
        for q, _ in f.divisors:
            e = (p - 1) // q
            count = sum(1 for n in range(1, p) if pow(n, e, p) == 1)
            checked += 1
            if count != (p - 1) // q:
                failures.append((p, q, count))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 5.0
    _report(1, ok, f"residue counts exact for {checked} (p, q) pairs, p <= 1000 [{elapsed:.2f}s]")
    assert not failures, failures[:5]
    assert elapsed < 5.0


def test_criterion_02_generation_oracle():
    def closure_size(p, gens):
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for g in gens:
                y = x * g % p
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    t0 = time.time()
    mismatches = []
    checked = 0
    for p in (int(q) for q in primes_upto(200) if q >= 3):
        f = field_spec(p)
        # multiples of p are outside the group (domain error by contract)
        pool = [n for n in range(1, 21) if n % p != 0]
        for size in (0, 1, 2, 3):
            for subset in combinations(pool, size):
                got = generates(subset, f)
                want = closure_size(p, [n % p for n in subset]) == p - 1 if subset else False
                checked += 1
                if got != want:
                    mismatches.append((p, subset))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60.0
    _report(2, ok, f"generates() == closure oracle on {checked} subsets, p <= 200 [{elapsed:.1f}s]")
    assert not mismatches, mismatches[:5]
    assert elapsed < 60.0


def test_criterion_03_size_chain_to_1e5():
    t0 = time.time()
    rows = _survey_1e5()
    violations = []
    for r in rows:
        if not (r.h_exact <= r.h_greedy <= r.h_elementary <= r.omega):
            violations.append(r.p)
        f = field_spec(r.p)
        for elements in (r.exact_elements, r.greedy_elements, r.elementary_elements):
            if not generates(elements, f):
                violations.append(r.p)
    elapsed = time.time() - t0
    ok = not violations and elapsed < 600.0
    _report(3, ok, f"h_exact <= h_greedy <= h_elementary <= omega for {len(rows)} primes in [3, 1e5] [{elapsed:.1f}s]")
    assert not violations, violations[:5]
    assert elapsed < 600.0


def test_criterion_04_certificates_to_1e5():
    rows = _survey_1e5()
    bad = []
    for r in rows:
        f = field_spec(r.p)
        result = certify(candidate_table(f), "exact")
        if multiplicative_order(result.certificate.g, f) != f.p - 1:
            bad.append(r.p)
    # A minimum set of two or more elements holds no primitive root, so its
    # certificate is the combination of its covering elements.
    combined = sum(r.h_exact >= 2 for r in rows)
    ok = not bad and combined > 0
    _report(4, ok, f"certificates have order p-1 for all {len(rows)} surveyed primes, {combined} combined")
    assert not bad, bad[:5]
    assert combined > 0


def _saddle_point_psi(spec: PrimeSetSpec) -> float:
    """Hildebrand-Tenenbaum saddle-point estimate of Psi(x; P) for the realized set P.

    x^a * zeta(a, P) / (a * sqrt(2 pi phi2(a, P))), where a solves
    sum_{p in P} ln p / (p^a - 1) = ln x, zeta(a, P) = prod_{p in P} (1 - p^-a)^-1
    and phi2(a, P) = sum_{p in P} p^a ln^2 p / (p^a - 1)^2.
    """
    log_p = np.log(spec.realize().astype(np.float64))
    log_x = math.log(spec.x)

    def phi1(a: float) -> float:  # decreasing in a, from +inf at a = 0+ to 0
        return float(np.sum(log_p / np.expm1(a * log_p)))

    lo, hi = 0.0, 1.0
    while phi1(hi) > log_x:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phi1(mid) > log_x else (lo, mid)
    a = 0.5 * (lo + hi)
    p_a = np.exp(a * log_p)
    log_zeta = -float(np.sum(np.log1p(-1.0 / p_a)))
    phi2 = float(np.sum(p_a * log_p**2 / (p_a - 1.0) ** 2))
    return math.exp(a * log_x + log_zeta) / (a * math.sqrt(2.0 * math.pi * phi2))


def test_criterion_05_smooth_numbers_vs_rho():
    # Dickman's theorem Psi(x, x^(1/u))/x -> rho(u) is only a limit.  Its first
    # correction, (1-gamma)*rho(u-1)/ln x, is alone ~10% of rho(2) and ~19% of
    # rho(3) at x = 1e6, where the exact counts 344299 and 72271 (densities
    # 0.344299 and 0.072271) sit +12.2% and +48.7% above rho(u) = 0.306853 and
    # 0.048608; a 10% band around rho(u) cannot be met there
    # (scripts/smooth_gap.py charts the convergence).  The counts are checked
    # instead (a) within 2% of the saddle-point estimate (they sit within 0.9%
    # of it for x from 1e4 to 1e7) and (b) against rho(u) as their limit:
    # the relative excess over rho(u) is positive and strictly shrinks over
    # x = 1e4, 1e5, 1e6 (21.1 -> 16.7 -> 12.2% for u = 2, 140 -> 80 -> 49% for u = 3).
    t0 = time.time()
    x = 10**6
    outcomes = []
    for u in (2.0, 3.0):
        rho = dickman_rho(u)
        excess = [
            (psi_count(PrimeSetSpec.threshold(10**d, u)) / 10**d - rho) / rho for d in (4, 5)
        ]
        spec = PrimeSetSpec.threshold(x, u)
        psi = psi_count(spec)
        excess.append((psi / x - rho) / rho)
        saddle = _saddle_point_psi(spec)
        outcomes.append((u, psi, rho, saddle, psi / saddle - 1.0, excess))
    elapsed = time.time() - t0

    def converging(excess):
        return all(e > 0 for e in excess) and all(a > b for a, b in zip(excess, excess[1:]))

    ok = elapsed < 30.0 and all(abs(dev) <= 0.02 and converging(ex) for *_, dev, ex in outcomes)
    detail = "; ".join(
        f"u={u:g}: Psi={psi} saddle={saddle:.1f} ({dev:+.2%}); Psi/x={psi / x:.6f} "
        f"rho={rho:.6f} excess over rho at 1e4,1e5,1e6: {', '.join(f'{e:+.1%}' for e in ex)}"
        for u, psi, rho, saddle, dev, ex in outcomes
    )
    _report(5, ok, f"{detail} [{elapsed:.1f}s]")
    assert elapsed < 30.0
    for u, psi, rho, saddle, dev, excess in outcomes:
        assert abs(dev) <= 0.02, (
            f"u={u:g}: exact Psi(1e6, 1e{6 / u:.0f}) = {psi} is {dev:+.2%} from the "
            f"saddle-point estimate {saddle:.1f}; the band is 2%"
        )
        assert converging(excess), (
            f"u={u:g}: (Psi/x - rho)/rho at x = 1e4, 1e5, 1e6 is "
            f"{', '.join(f'{e:+.2%}' for e in excess)} with rho({u:g}) = {rho:.6f}; "
            "it must be positive and strictly decreasing, as Psi/x approaches rho(u) from above"
        )


def test_criterion_06_dickman_values():
    exact_one = dickman_rho(1.0)
    dev2 = abs(dickman_rho(2.0) - (1 - math.log(2)))
    ok = exact_one == 1.0 and dev2 <= 1e-6
    _report(6, ok, f"rho(1) = {exact_one}; |rho(2) - (1 - ln 2)| = {dev2:.2e}")
    assert exact_one == 1.0
    assert dev2 <= 1e-6


def test_criterion_07_density_vs_predictions():
    # ln ln T + M is the mean count of prime divisors q <= T for random
    # integers, not for shifted primes p-1.  By Dirichlet pi(x; q, 1)/pi(x) ->
    # 1/(q-1), so the mean over p <= x tracks sum_{q<=T} 1/(q-1), which is
    # ln ln T + M + sum_p 1/(p(p-1)) + o(1) with sum_p 1/(p(p-1)) = 0.773157.
    # At x = 1e6, l = 3 (T ~ 373) the exact mean 2.819460 is therefore 38%
    # above ln ln T + M = 2.040109, so a 10% band around it cannot be met.
    # Both finite-x forms of the prediction are asserted at 1% instead.
    t0 = time.time()
    (row,) = density_experiment(10**6, [3.0])
    elapsed = time.time() - t0
    shifted = row.prediction + SHIFTED_PRIME_GAP
    ratio_shifted = row.empirical_mean / shifted
    harmonic_ok = abs(row.ratio_harmonic - 1.0) <= 0.01
    shifted_ok = abs(ratio_shifted - 1.0) <= 0.01
    detail = (
        f"x=1e6 l=3: mean={row.empirical_mean:.6f}; sum 1/(q-1)={row.prediction_harmonic:.6f} "
        f"(ratio {row.ratio_harmonic:.4f}); lnlnT+M+0.773157={shifted:.6f} "
        f"(ratio {ratio_shifted:.4f}); lnlnT+M={row.prediction:.6f} "
        f"(ratio {row.ratio:.4f}) [{elapsed:.1f}s]"
    )
    _report(7, harmonic_ok and shifted_ok and elapsed < 120.0, detail)
    assert elapsed < 120.0
    assert harmonic_ok, (
        f"empirical mean {row.empirical_mean:.6f} vs sum 1/(q-1) = "
        f"{row.prediction_harmonic:.6f} gives ratio {row.ratio_harmonic:.4f}; the band is 1%"
    )
    assert shifted_ok, (
        f"empirical mean {row.empirical_mean:.6f} vs ln ln T + M + sum_p 1/(p(p-1)) = "
        f"{row.prediction:.6f} + {SHIFTED_PRIME_GAP:.6f} gives ratio {ratio_shifted:.4f}; "
        "the band is 1%"
    )


def test_criterion_08_hypothesis_checker_booleans():
    x = 10**6
    spec = PrimeSetSpec.threshold(x, 2.0)
    rep = sieve_bound_check(spec, 2.0, 10.0, 0.1)
    stripped = PrimeSetSpec.explicit(
        x, [int(p) for p in spec.realize() if not (10**0.6 < p <= 10**3)]
    )
    rep2 = sieve_bound_check(stripped, 2.0, 10.0, 0.1)
    ok = rep.hypothesis_holds and not rep2.hypothesis_holds
    _report(
        8,
        ok,
        f"threshold set: sum={rep.hypothesis_sum:.4f} >= 0.55 -> {rep.hypothesis_holds}; "
        f"stripped set: sum={rep2.hypothesis_sum:.4f} -> {rep2.hypothesis_holds}",
    )
    assert rep.hypothesis_holds is True
    assert rep2.hypothesis_holds is False


def test_criterion_09_trend_survey_to_1e7():
    # Median threshold pinned by a full oracle run at 1e4 before freezing.
    rows_1e4 = survey(3, 10**4)
    pinned_median = dict(quantile_report(rows_1e4, "h_exact", [0.5]))[0.5]
    assert pinned_median == 1  # the frozen pin

    n_range = len([p for p in primes_upto(10**7) if p >= 3])
    sample = math.ceil(n_range / 1000)  # stride 1000
    rows = survey(3, 10**7, sample=sample)
    over = [r.p for r in rows if r.h_exact > r.omega]
    stats = dict(quantile_report(rows, "h_exact", [0.5, 1.0]))
    ok = not over and stats[0.5] <= pinned_median
    _report(
        9,
        ok,
        f"{len(rows)} primes to 1e7 (stride 1000): h_exact <= omega always; "
        f"median h_exact = {stats[0.5]} (pinned <= {pinned_median}), max = {stats[1.0]}",
    )
    assert not over, over[:5]
    assert stats[0.5] <= pinned_median


def test_criterion_10_determinism():
    rows_a = _survey_1e5()
    rows_b = survey(3, 10**5, threads=2)
    survey_same = survey_csv(rows_a) == survey_csv(rows_b)
    dens_a = density_csv(density_experiment(10**6, [3.0]))
    dens_b = density_csv(density_experiment(10**6, [3.0]))
    density_same = dens_a == dens_b
    ok = survey_same and density_same
    _report(
        10,
        ok,
        f"survey CSV identical at threads 1 vs 2: {survey_same}; "
        f"density CSV identical across runs: {density_same}",
    )
    assert survey_same
    assert density_same

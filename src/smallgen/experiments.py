"""Batch surveys over prime ranges with deterministic sampling and persistence.

Rows are pure functions of their prime, so surveys may fan out over a process
pool; results are always merged in ascending-p order and serialized with fixed
formatting, making output bytes independent of the parallelism degree.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anatomy import anatomy_record
from .codec import from_csv, to_csv
from .genset import (
    SearchPolicy,
    candidate_table,
    elementary_generating_set,
    exact_min_generating_set,
    greedy_block_generating_set,
)
from .modcore import field_spec
from .sievelab import ResourceLimitError, prime_flags, primes_upto

# Meissel-Mertens constant: sum_{p<=T} 1/p = ln ln T + M + o(1).
MEISSEL_MERTENS = 0.26149721284764278

DENSITY_LIMIT = 10**8


@dataclass(frozen=True)
class SurveyRow:
    """Per-prime survey record: anatomy, the three generating-set sizes, bounds.

    The element lists are persisted so a loaded row can re-verify that each
    method's output still generates.
    """

    p: int
    omega: int
    omega_l: dict[float, int]
    h_exact: int
    h_greedy: int
    h_elementary: int
    n_used: int
    asymptotic_violation: bool
    bounds: dict[float, float] = dataclasses.field(metadata={"csv": "bound"})
    exact_elements: tuple[int, ...]
    greedy_elements: tuple[int, ...]
    elementary_elements: tuple[int, ...]


@dataclass(frozen=True)
class DensityRow:
    """Average count of small prime divisors of p-1 against both predictions."""

    x: int
    l: float
    threshold: float
    empirical_mean: float
    prediction: float
    ratio: float
    prediction_harmonic: float
    ratio_harmonic: float
    degenerate: bool


def survey_row(p: int, l_values=(2.0, 3.0), policy: SearchPolicy = SearchPolicy()) -> SurveyRow:
    """Compute one survey row for the prime p."""
    field = field_spec(p)
    record = anatomy_record(p - 1, l_values, field.divisors)
    table = candidate_table(field, policy)
    exact = exact_min_generating_set(table)
    greedy = greedy_block_generating_set(table)
    elementary = elementary_generating_set(table)
    return SurveyRow(
        p=p,
        omega=record.omega,
        omega_l=record.omega_l,
        h_exact=len(exact.elements),
        h_greedy=len(greedy.elements),
        h_elementary=len(elementary.elements),
        n_used=table.radius,
        asymptotic_violation=exact.asymptotic_violation,
        bounds=record.bounds,
        exact_elements=exact.elements,
        greedy_elements=greedy.elements,
        elementary_elements=elementary.elements,
    )


def survey(
    p_min: int,
    p_max: int,
    sample: int | None = None,
    l_values=(2.0, 3.0),
    policy: SearchPolicy = SearchPolicy(),
    threads: int = 1,
) -> list[SurveyRow]:
    """Survey primes in [p_min, p_max], deterministically strided when sampled.

    With sample=k, every ceil(n/k)-th prime of the range is taken, starting
    from the first.  Rows come back in ascending p regardless of threads.
    Raises ResourceLimitError when p_max exceeds the sieve cap DENSITY_LIMIT.
    """
    if p_min < 3:
        raise ValueError(f"p_min must be >= 3, got {p_min}")
    l_values = tuple(float(l) for l in l_values)
    if p_max < p_min:
        return []
    if p_max > DENSITY_LIMIT:
        # The sieve below holds one flag per integer in [0, p_max].
        raise ResourceLimitError(f"survey sieves [0, p_max]; capped at p_max={DENSITY_LIMIT:.0e}")
    primes = [int(p) for p in primes_upto(p_max) if p >= p_min]
    if not primes:
        return []
    if sample is not None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        stride = math.ceil(len(primes) / sample)
        primes = primes[::stride]
    worker = partial(survey_row, l_values=l_values, policy=policy)
    if threads > 1:
        chunk = max(1, len(primes) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(worker, primes, chunksize=chunk))
    else:
        rows = [worker(p) for p in primes]
    return rows


def density_experiment(x: int, l_values) -> list[DensityRow]:
    """Average over primes p <= x of #{prime q | p-1 : q <= (ln x) l**l}.

    The count is taken per divisor prime q as the number of primes p <= x in
    the progression p = 1 mod q, read off a sieve bitmap; predictions are
    ln ln T + M and the finite harmonic sum over 1/(q-1), reported side by
    side.
    """
    if x > DENSITY_LIMIT:
        raise ResourceLimitError(f"density experiment capped at x={DENSITY_LIMIT:.0e}")
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    flags = prime_flags(x)
    primes = np.flatnonzero(flags)
    n_primes = int(primes.size)
    rows = []
    for l in (float(v) for v in l_values):
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        power_log = l * math.log(l) if l > 0 else 0.0
        threshold = math.inf if power_log > 700.0 else math.log(x) * l**l
        if threshold < 2:
            rows.append(
                DensityRow(
                    x=x,
                    l=l,
                    threshold=threshold,
                    empirical_mean=0.0,
                    prediction=0.0,
                    ratio=math.nan,
                    prediction_harmonic=0.0,
                    ratio_harmonic=math.nan,
                    degenerate=True,
                )
            )
            continue
        q_cap = int(min(threshold, float(x)))
        qs = [int(q) for q in primes[primes <= q_cap]]
        total = 0
        for q in qs:
            total += int(flags[1::q].sum())
        empirical = total / n_primes
        prediction = math.log(math.log(threshold)) + MEISSEL_MERTENS if threshold != math.inf else math.inf
        harmonic = math.fsum(1.0 / (q - 1) for q in qs)
        rows.append(
            DensityRow(
                x=x,
                l=l,
                threshold=threshold,
                empirical_mean=empirical,
                prediction=prediction,
                ratio=empirical / prediction if prediction not in (0.0, math.inf) else math.nan,
                prediction_harmonic=harmonic,
                ratio_harmonic=empirical / harmonic if harmonic > 0 else math.nan,
                degenerate=False,
            )
        )
    return rows


def quantile_report(rows, statistic: str, quantiles, l: float | None = None):
    """Exact order statistics of one survey column (nearest-rank convention)."""
    if not rows:
        raise ValueError("quantile report requires at least one row")
    if statistic == "omega_l":
        keys = sorted(rows[0].omega_l)
        if l is None:
            if len(keys) != 1:
                raise ValueError("omega_l statistic needs an explicit l")
            l = keys[0]
        values = sorted(r.omega_l[float(l)] for r in rows)
    elif statistic in ("h_exact", "h_greedy", "h_elementary", "omega", "n_used"):
        values = sorted(getattr(r, statistic) for r in rows)
    else:
        raise ValueError(f"unsupported statistic {statistic!r}")
    out = []
    n = len(values)
    for phi in quantiles:
        if not 0.0 <= phi <= 1.0:
            raise ValueError(f"quantile {phi} outside [0, 1]")
        idx = 0 if phi == 0 else math.ceil(phi * n) - 1
        out.append((float(phi), values[idx]))
    return out


# perfbench times the CSV formats by these names, so each is its own object.
survey_csv = partial(to_csv)
read_survey_csv = partial(from_csv, SurveyRow)
density_csv = partial(to_csv)

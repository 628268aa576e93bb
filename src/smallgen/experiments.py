"""Batch surveys over prime ranges with deterministic sampling and persistence.

Rows are pure functions of their prime, so surveys may fan out over a process
pool; results are always merged in ascending-p order and serialized with fixed
formatting, making output bytes independent of the parallelism degree.  A
survey task is one sievelab call bound to a stretch of the range, which
yields each p with p - 1 factored (_p_minus_one_blocks sieves an unsampled
window and reads them off one stride pass, p_minus_one_divisors
trial-divides a sampled task's primes), and _candidate_tables scans
its candidate tables together, _SCAN_CHUNK at a time, with the int64 modpow
kernel, and each row is built from its table, with the constructions run
once per distinct (r, masks) in one memo per task and the anatomy read
without a record, from one table of l constants per survey.
SurveyRow, like FieldSpec and CandidateTable, is a frozen slotted dataclass
whose one __init__ is modcore._frozen_init's, so rows, their CSV and JSON
readers and dataclasses.replace build records through the same code.
survey_row, certify and the CLI's genset scan one field with candidate_table,
the Python-pow oracle; both run genset's one scan loop and its stop rule.
survey_row keeps no memo of constructions, so it stays the oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anatomy import _anatomy, _l_table, smallness_threshold
from .codec import from_csv, to_csv
from .genset import (
    CandidateTable,
    SearchPolicy,
    _candidate_tables,
    candidate_table,
    elementary_generating_set,
    exact_min_generating_set,
    greedy_block_generating_set,
)
from .modcore import FieldSpec, _frozen_init, field_spec
from .sievelab import _SEGMENT_SPAN, _odd_count, _one_mod_counts, _p_minus_one_blocks, p_minus_one_divisors, primes_upto

# Meissel-Mertens constant: sum_{p<=T} 1/p = ln ln T + M + o(1).
MEISSEL_MERTENS = 0.26149721284764278

# A survey task's rows are built this many primes at a time, their candidate
# tables scanned together; it also sizes the tasks under threads > 1.
_SCAN_CHUNK = 1024


@_frozen_init
@dataclass(frozen=True, slots=True)
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
    ls = _l_table(l_values)
    field = field_spec(p)
    table = candidate_table(field, policy)
    return _row(field, table, ls, _constructions(table))


def _chunk_rows(divisors, ls, policy) -> list[SurveyRow]:
    """The rows of a survey task, whose divisors() yields each (p, divisors of
    p - 1): FieldSpec checks each p with its divisors, _SCAN_CHUNK at a time,
    and each chunk's candidate tables are scanned together; ls is the
    survey's _l_table.  The constructions run once per distinct (r, mask
    sequence) in the task's memo: the masks are keyed 2..stop in order, so
    that key fixes every element, and a hit gives the rows a fresh run would."""
    runs, memo, rows = divisors(), {}, []
    while fields := [FieldSpec(p, d) for p, d in itertools.islice(runs, _SCAN_CHUNK)]:
        for f, t in zip(fields, _candidate_tables(fields, policy)):
            key = (f.r, *t.masks.values())
            if key not in memo:
                memo[key] = _constructions(t)
            rows.append(_row(f, t, ls, memo[key]))
    return rows


def _constructions(table: CandidateTable):
    """(exact, sorted greedy, elementary) elements of one table."""
    return (
        exact_min_generating_set(table),
        tuple(sorted(greedy_block_generating_set(table))),
        elementary_generating_set(table),
    )


def _row(field: FieldSpec, table: CandidateTable, ls, constructions) -> SurveyRow:
    """The SurveyRow of one field, its arguments in SurveyRow's field order."""
    p = field.p
    omega, omega_l, _, bounds = _anatomy(p - 1, ls, field.divisors)
    exact, greedy, elementary = constructions
    radius = table.radius
    return SurveyRow(
        p, omega, omega_l, len(exact), len(greedy), len(elementary), radius,
        radius > table.initial, bounds, exact, greedy, elementary,
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
    p_max over the sieve cap raises ResourceLimitError before any work.
    A task yields (p, divisors of p - 1) for its own stretch, so no row
    factorizes, and _chunk_rows builds its rows; with threads > 1 and two
    tasks or more, in a pool of no more workers than tasks.  Unsampled, a
    task is a window that sieves and factors itself by _p_minus_one_blocks:
    one sieve block (2 * _SEGMENT_SPAN integers) wide, or with threads > 1
    narrower where that gives each worker about eight, but no narrower than
    2 * _SCAN_CHUNK.  Sampled, every prime up to p_max is listed, and a task
    factors its primes by p_minus_one_divisors: all in one task, or with
    threads > 1 at most _SCAN_CHUNK, fewer where that gives each worker
    about eight tasks.
    """
    if p_min < 3:
        raise ValueError(f"p_min must be >= 3, got {p_min}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    ls = _l_table(float(l) for l in l_values)
    if p_max < p_min:
        return []
    if sample is None:
        _odd_count(p_max)  # refuses p_max past the sieve cap before any task is cut
        width = math.ceil((p_max - p_min + 1) / (threads * 8))
        width = 2 * _SEGMENT_SPAN if threads == 1 else min(max(width, 2 * _SCAN_CHUNK), 2 * _SEGMENT_SPAN)
        tasks = [partial(_p_minus_one_blocks, lo, min(lo + width - 1, p_max)) for lo in range(p_min, p_max + 1, width)]
    else:
        primes = primes_upto(p_max)
        primes = primes[np.searchsorted(primes, p_min) :]
        primes = primes[:: max(1, math.ceil(primes.size / sample))]
        size = min(_SCAN_CHUNK, math.ceil(primes.size / (threads * 8))) if threads > 1 else primes.size
        tasks = [partial(p_minus_one_divisors, primes[lo : lo + size]) for lo in range(0, primes.size, max(size, 1))]
    worker = partial(_chunk_rows, ls=ls, policy=policy)
    workers = min(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [row for rows in pool.map(worker, tasks) for row in rows]
    return [row for rows in map(worker, tasks) for row in rows]


def density_experiment(x: int, l_values) -> list[DensityRow]:
    """Average over primes p <= x of #{prime q | p-1 : q <= (ln x) l**l}.

    The count is taken per divisor prime q <= the largest threshold as the
    number of primes p <= x with p = 1 mod q, by sievelab._one_mod_counts,
    which reads them off one streamed sieve of [0, x] without holding an
    x-sized array.  Predictions are ln ln T + M and the finite harmonic sum
    over 1/(q-1), reported side by side.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    thresholds = [(l, smallness_threshold(x - 1, l)) for l in map(float, l_values)]
    top = int(min(max((t for _, t in thresholds), default=0.0), x))  # thresholds are inf at large l
    qs = primes_upto(top)
    n_primes, hits = _one_mod_counts(x, qs)
    rows = []
    for l, threshold in thresholds:
        k = int(np.searchsorted(qs, threshold, side="right"))
        degenerate = threshold < 2
        empirical = int(hits[:k].sum()) / n_primes
        prediction = 0.0 if degenerate else math.log(math.log(threshold)) + MEISSEL_MERTENS
        harmonic = math.fsum(1.0 / (qs[:k] - 1))
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
                degenerate=degenerate,
            )
        )
    return rows


def quantile_report(rows, statistic: str, quantiles):
    """Exact order statistics of one survey column (nearest-rank convention)."""
    if not rows:
        raise ValueError("quantile report requires at least one row")
    if statistic in ("h_exact", "h_greedy", "h_elementary", "omega", "n_used"):
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

"""Batch surveys over prime ranges with deterministic sampling and persistence.

Rows are pure functions of their prime, so surveys may fan out over a process
pool; results are always merged in ascending-p order and serialized with fixed
formatting, making output bytes independent of the parallelism degree.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .anatomy import anatomy_record, bound_general
from .genset import (
    SearchPolicy,
    candidate_table,
    elementary_generating_set,
    exact_min_generating_set,
    greedy_block_generating_set,
)
from .modcore import factorize, field_spec
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
    bounds: dict[float, float]
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
    bounds = {
        l: bound_general(record.omega, record.omega_l[l], l) if l > 1 else math.nan
        for l in record.omega_l
    }
    return SurveyRow(
        p=p,
        omega=record.omega,
        omega_l=dict(record.omega_l),
        h_exact=len(exact.elements),
        h_greedy=len(greedy.elements),
        h_elementary=len(elementary.elements),
        n_used=table.radius,
        asymptotic_violation=exact.asymptotic_violation,
        bounds=bounds,
        exact_elements=exact.elements,
        greedy_elements=greedy.elements,
        elementary_elements=elementary.elements,
    )


def _survey_worker(p: int, l_values, policy: SearchPolicy) -> SurveyRow:
    return survey_row(p, l_values, policy)


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
    worker = partial(_survey_worker, l_values=l_values, policy=policy)
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


def density_mean_by_factorization(x: int, l: float) -> float:
    """Independent slow path for the density mean: factorize each p-1 directly."""
    if x > DENSITY_LIMIT:
        raise ResourceLimitError(f"density experiment capped at x={DENSITY_LIMIT:.0e}")
    power_log = l * math.log(l) if l > 0 else 0.0
    threshold = math.inf if power_log > 700.0 else math.log(x) * l**l
    primes = [int(p) for p in primes_upto(x)]
    total = 0
    for p in primes:
        if p > 2:  # p = 2 has p-1 = 1, no divisors
            total += sum(1 for q, _ in factorize(p - 1) if q <= threshold)
    return total / len(primes)


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


# ---------------------------------------------------------------------------
# Persistence: RFC-4180 CSV and JSON, byte-deterministic
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_l(l: float) -> str:
    return format(l, "g")


def _survey_header(l_values) -> list[str]:
    head = ["p", "omega"]
    head += [f"omega_l_{_fmt_l(l)}" for l in l_values]
    head += ["h_exact", "h_greedy", "h_elementary", "n_used", "asymptotic_violation"]
    head += [f"bound_{_fmt_l(l)}" for l in l_values]
    head += ["exact_elements", "greedy_elements", "elementary_elements"]
    return head


def _survey_record(row: SurveyRow, l_values) -> list[str]:
    rec = [str(row.p), str(row.omega)]
    rec += [str(row.omega_l[l]) for l in l_values]
    rec += [
        str(row.h_exact),
        str(row.h_greedy),
        str(row.h_elementary),
        str(row.n_used),
        _fmt(row.asymptotic_violation),
    ]
    rec += [_fmt(row.bounds[l]) for l in l_values]
    rec += [
        ";".join(map(str, row.exact_elements)),
        ";".join(map(str, row.greedy_elements)),
        ";".join(map(str, row.elementary_elements)),
    ]
    return rec


def survey_csv(rows) -> str:
    """Render survey rows as an RFC-4180 CSV document (CRLF, header row)."""
    if not rows:
        return ""
    l_values = sorted(rows[0].omega_l)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_survey_header(l_values))
    for row in rows:
        writer.writerow(_survey_record(row, l_values))
    return buf.getvalue()


def survey_json(rows) -> str:
    out = []
    for r in rows:
        out.append(
            {
                "p": r.p,
                "omega": r.omega,
                "omega_l": {_fmt_l(l): v for l, v in sorted(r.omega_l.items())},
                "h_exact": r.h_exact,
                "h_greedy": r.h_greedy,
                "h_elementary": r.h_elementary,
                "n_used": r.n_used,
                "asymptotic_violation": r.asymptotic_violation,
                "bounds": {_fmt_l(l): v for l, v in sorted(r.bounds.items())},
                "exact_elements": list(r.exact_elements),
                "greedy_elements": list(r.greedy_elements),
                "elementary_elements": list(r.elementary_elements),
            }
        )
    return json.dumps(out, indent=2, allow_nan=True) + "\n"


def read_survey_csv(text: str) -> list[SurveyRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    omega_cols = [(i, float(h.removeprefix("omega_l_"))) for i, h in enumerate(header) if h.startswith("omega_l_")]
    bound_cols = [(i, float(h.removeprefix("bound_"))) for i, h in enumerate(header) if h.startswith("bound_")]
    col = {h: i for i, h in enumerate(header)}
    rows = []
    for rec in reader:
        rows.append(
            SurveyRow(
                p=int(rec[col["p"]]),
                omega=int(rec[col["omega"]]),
                omega_l={l: int(rec[i]) for i, l in omega_cols},
                h_exact=int(rec[col["h_exact"]]),
                h_greedy=int(rec[col["h_greedy"]]),
                h_elementary=int(rec[col["h_elementary"]]),
                n_used=int(rec[col["n_used"]]),
                asymptotic_violation=rec[col["asymptotic_violation"]] == "true",
                bounds={l: float(rec[i]) for i, l in bound_cols},
                exact_elements=tuple(int(v) for v in rec[col["exact_elements"]].split(";")),
                greedy_elements=tuple(int(v) for v in rec[col["greedy_elements"]].split(";")),
                elementary_elements=tuple(int(v) for v in rec[col["elementary_elements"]].split(";")),
            )
        )
    return rows


def read_survey_json(text: str) -> list[SurveyRow]:
    rows = []
    for obj in json.loads(text):
        rows.append(
            SurveyRow(
                p=obj["p"],
                omega=obj["omega"],
                omega_l={float(k): v for k, v in obj["omega_l"].items()},
                h_exact=obj["h_exact"],
                h_greedy=obj["h_greedy"],
                h_elementary=obj["h_elementary"],
                n_used=obj["n_used"],
                asymptotic_violation=obj["asymptotic_violation"],
                bounds={float(k): v for k, v in obj["bounds"].items()},
                exact_elements=tuple(obj["exact_elements"]),
                greedy_elements=tuple(obj["greedy_elements"]),
                elementary_elements=tuple(obj["elementary_elements"]),
            )
        )
    return rows


_DENSITY_FIELDS = (
    "x",
    "l",
    "threshold",
    "empirical_mean",
    "prediction",
    "ratio",
    "prediction_harmonic",
    "ratio_harmonic",
    "degenerate",
)


def density_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_DENSITY_FIELDS)
    for r in rows:
        writer.writerow([_fmt(getattr(r, f)) for f in _DENSITY_FIELDS])
    return buf.getvalue()


def density_json(rows) -> str:
    out = [{f: getattr(r, f) for f in _DENSITY_FIELDS} for r in rows]
    return json.dumps(out, indent=2, allow_nan=True) + "\n"


def read_density_csv(text: str) -> list[DensityRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    col = {h: i for i, h in enumerate(header)}
    rows = []
    for rec in reader:
        rows.append(
            DensityRow(
                x=int(rec[col["x"]]),
                l=float(rec[col["l"]]),
                threshold=float(rec[col["threshold"]]),
                empirical_mean=float(rec[col["empirical_mean"]]),
                prediction=float(rec[col["prediction"]]),
                ratio=float(rec[col["ratio"]]),
                prediction_harmonic=float(rec[col["prediction_harmonic"]]),
                ratio_harmonic=float(rec[col["ratio_harmonic"]]),
                degenerate=rec[col["degenerate"]] == "true",
            )
        )
    return rows


def read_density_json(text: str) -> list[DensityRow]:
    return [DensityRow(**obj) for obj in json.loads(text)]

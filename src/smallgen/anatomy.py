"""Prime-divisor anatomy of p-1: omega statistics, bound shapes, dyadic level schedules.

All logarithms are natural, and iterated logs (log2 = ln ln, log3 = ln ln ln,
...) are treated as undefined once an argument drops to 1 or below; the dyadic
schedule then reports itself degenerate instead of producing junk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modcore import factorize

_L_GUARD = 200.0  # larger l is a domain error; l**l has long lost numeric meaning
_LOG_OVERFLOW = 700.0  # l*ln(l) above this overflows float64, threshold saturates to inf


def smallness_threshold(n: int, l: float) -> float:
    """The cutoff ln(n+1) * l**l below which a prime divisor counts as small."""
    if n < 1:
        raise ValueError(f"threshold requires n >= 1, got {n}")
    return math.log(n + 1) * _l_table((l,))[0][1]


def _l_table(l_values) -> tuple[tuple[float, float, float, bool], ...]:
    """(float l, l**l, ln l, l > 1) of each l: what _anatomy reads per l.

    The one check of l.  l**l is taken of l as given, so an int l's may round
    unlike its float's, and is inf where it overflows float64.
    """
    table = []
    for l in l_values:
        if not 1.0 <= l <= _L_GUARD:
            raise ValueError(f"l must lie in [1, {_L_GUARD:g}], got {l}")
        log_l = math.log(l)
        table.append((float(l), math.inf if l * log_l > _LOG_OVERFLOW else l**l, log_l, l > 1))
    return tuple(table)


@dataclass(frozen=True)
class AnatomyRecord:
    """omega and omega_l of one integer, with the thresholds actually used.

    bounds[l] is bound_general(omega, omega_l[l], l), or NaN for l = 1.
    """

    n: int
    omega: int
    omega_l: dict[float, int]
    thresholds: dict[float, float]
    bounds: dict[float, float]


def anatomy_record(n: int, l_values) -> AnatomyRecord:
    """Evaluate omega, omega_l(n, l) and the bound shape for each requested l.

    Each l is checked, and its l**l and ln l computed, before n is factored;
    ln(n + 1) is taken once for every l.  Survey rows skip the record and
    call _anatomy with the factors they already hold.
    """
    if n < 1:
        raise ValueError(f"anatomy requires n >= 1, got {n}")
    ls = _l_table(l_values)
    return AnatomyRecord(n, *_anatomy(n, ls, factorize(n)))


def _anatomy(n: int, ls, factors):
    """anatomy_record's fields after n, (omega, omega_l, thresholds, bounds),
    for n >= 1, its factors with q ascending and the _l_table ls, without the
    record."""
    om = len(factors)
    log_n = math.log(n + 1)
    omega_map: dict[float, int] = {}
    thresholds: dict[float, float] = {}
    bounds: dict[float, float] = {}
    for key, power, log_l, above_one in ls:
        cutoff = thresholds[key] = log_n * power
        w = 0
        for q, _ in factors:  # q ascending: the first q above the cutoff ends the count
            if q > cutoff:
                break
            w += 1
        omega_map[key] = w
        bounds[key] = w + (om - w) / log_l if above_one else math.nan
    return om, omega_map, thresholds, bounds


def bound_general(omega_total: int, omega_small: int, l: float) -> float:
    """Bound shape omega_l + (omega - omega_l)/ln(l); the implied constant is omitted."""
    if omega_small < 0 or omega_total < omega_small:
        raise ValueError("need omega >= omega_l >= 0")
    if l <= 1.0:
        raise ValueError(f"l must exceed 1 (ln l > 0 required), got {l}")
    return omega_small + (omega_total - omega_small) / math.log(l)


@dataclass(frozen=True)
class DyadicSchedule:
    """Halving-exponent level sequence for a prime p; degenerate when empty."""

    p: int
    levels: tuple[float, ...]
    n_levels: int
    degenerate: bool


def _iterated_log(x: float, k: int) -> float | None:
    """k-fold natural log, or None once an argument falls to 1 or below."""
    v = float(x)
    for _ in range(k):
        if v <= 1.0:
            return None
        v = math.log(v)
    return v


def dyadic_schedule(p: int) -> DyadicSchedule:
    """Levels l_n = exp(log2(p) / (2**n * log3(p))) for n = 1..N.

    N = floor((log3 p - 2*log4 p) / ln 2); whenever the iterated logs are
    undefined or N < 1 the schedule is degenerate.  Concretely: p below
    ~3.8e6 (log3 <= 1) and a mid-range window around log3 ~ 2 (e.g. 10**100)
    degenerate, while large 64-bit primes get a single level; N >= 2 needs
    p beyond anything representable here.
    """
    if p < 17:
        raise ValueError(f"dyadic schedule requires p >= 17, got {p}")
    log2p = _iterated_log(p, 2)
    log3p = _iterated_log(p, 3)
    log4p = _iterated_log(p, 4)
    if log2p is None or log3p is None or log4p is None:
        return DyadicSchedule(p=p, levels=(), n_levels=0, degenerate=True)
    n_levels = math.floor((log3p - 2.0 * log4p) / math.log(2.0))
    if n_levels < 1:
        return DyadicSchedule(p=p, levels=(), n_levels=0, degenerate=True)
    levels = tuple(
        math.exp(log2p / (2**n * log3p)) for n in range(1, n_levels + 1)
    )
    return DyadicSchedule(p=p, levels=levels, n_levels=n_levels, degenerate=False)

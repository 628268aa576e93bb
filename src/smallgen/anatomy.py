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
    _check_l(l)
    power_log = l * math.log(l)
    if power_log > _LOG_OVERFLOW:
        return math.inf
    return math.log(n + 1) * l**l


def _check_l(l: float) -> None:
    if not 1.0 <= l <= _L_GUARD:
        raise ValueError(f"l must lie in [1, {_L_GUARD:g}], got {l}")


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


def anatomy_record(n: int, l_values, factors=None) -> AnatomyRecord:
    """Evaluate omega, omega_l(n, l) and the bound shape for each requested l.

    factors, if given, is the factorization of n as (prime, multiplicity)
    pairs, e.g. FieldSpec.divisors for n = p - 1; it is then not recomputed.
    """
    if n < 1:
        raise ValueError(f"anatomy requires n >= 1, got {n}")
    if factors is None:
        factors = factorize(n) if n > 1 else []
    om = len(factors)
    omega_map: dict[float, int] = {}
    thresholds: dict[float, float] = {}
    for l in l_values:
        cutoff = smallness_threshold(n, l)
        thresholds[float(l)] = cutoff
        omega_map[float(l)] = sum(1 for q, _ in factors if q <= cutoff)
    bounds = {l: bound_general(om, w, l) if l > 1 else math.nan for l, w in omega_map.items()}
    return AnatomyRecord(n=n, omega=om, omega_l=omega_map, thresholds=thresholds, bounds=bounds)


def bound_general(omega_total: int, omega_small: int, l: float) -> float:
    """Bound shape omega_l + (omega - omega_l)/ln(l); the implied constant is omitted."""
    if omega_small < 0 or omega_total < omega_small:
        raise ValueError("need omega >= omega_l >= 0")
    if l <= 1.0:
        raise ValueError(f"l must exceed 1 (ln l > 0 required), got {l}")
    return omega_small + (omega_total - omega_small) / math.log(l)


def bound_iterated(omega_levels, levels) -> float:
    """Telescoped multi-level bound shape.

    levels is (l_1, ..., l_N) strictly decreasing; omega_levels is
    (omega_{l_0}, ..., omega_{l_N}) with the level-0 entry counting every
    divisor.  Returns omega_{l_N} + sum (omega_{l_n} - omega_{l_{n+1}}) / ln(l_{n+1}).

    For every p < 2**63 the dyadic schedule has at most one level, and with
    one level this equals bound_general(omega, omega_{l_1}, l_1).  It is kept
    because it is the paper's multi-level bound.
    """
    omega_levels = list(omega_levels)
    levels = list(levels)
    if len(omega_levels) != len(levels) + 1:
        raise ValueError(
            f"need one more omega entry than levels, got {len(omega_levels)} vs {len(levels)}"
        )
    for a, b in zip(levels, levels[1:]):
        if not a > b:
            raise ValueError("levels must be strictly decreasing")
    if levels and levels[-1] <= 1.0:
        raise ValueError("every level must exceed 1")
    total = float(omega_levels[-1])
    for n, l_next in enumerate(levels):
        total += (omega_levels[n] - omega_levels[n + 1]) / math.log(l_next)
    return total


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

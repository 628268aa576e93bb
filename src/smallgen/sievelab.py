"""Desk-scale sieve diagnostics: exact smooth counts, Mertens sums, Dickman rho.

Psi(x; P) counts integers up to x all of whose prime factors lie in P,
computed exactly by depth-first enumeration; the inclusion-exclusion
prediction x * prod_{p not in P} (1 - 1/p) and the harmonic hypothesis sum
are evaluated from the realized prime sets directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modcore import FieldSpec, is_prime

PSI_LIMIT = 10**8  # exact enumeration cap

_SEGMENT_SPAN = 1 << 22


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the exact-computation caps."""


def _simple_prime_flags(limit: int) -> np.ndarray:
    flags = np.zeros(limit + 1, dtype=bool)
    if limit >= 2:
        flags[2] = True
        flags[3::2] = True
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[p]:
                flags[p * p :: 2 * p] = False
    return flags


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array f with f[i] iff i is prime, filled by a segmented odd sieve."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit < _SEGMENT_SPAN:
        return _simple_prime_flags(limit)
    root = math.isqrt(limit)
    base = np.flatnonzero(_simple_prime_flags(root))
    base_odd = [int(p) for p in base if p > 2]
    flags = np.zeros(limit + 1, dtype=bool)
    flags[2] = True
    flags[3::2] = True
    for lo in range(0, limit + 1, _SEGMENT_SPAN):
        hi = min(lo + _SEGMENT_SPAN, limit + 1)
        for p in base_odd:
            p2 = p * p
            if p2 >= hi:
                break
            start = max(p2, (lo + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                flags[start:hi : 2 * p] = False
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending."""
    return np.flatnonzero(prime_flags(limit)).astype(np.int64)


@dataclass(frozen=True)
class PrimeSetSpec:
    """A subset of the primes <= x: threshold (p <= x**(1/u)), residue
    (q_i-th power residues mod p), or an explicit list."""

    x: int
    kind: str
    u: float | None = None
    field: FieldSpec | None = None
    divisor_index: int | None = None
    members: tuple[int, ...] | None = None

    @classmethod
    def threshold(cls, x: int, u: float) -> "PrimeSetSpec":
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        if u < 1:
            raise ValueError(f"u must be >= 1, got {u}")
        return cls(x=x, kind="threshold", u=float(u))

    @classmethod
    def residue(cls, x: int, field: FieldSpec, divisor_index: int) -> "PrimeSetSpec":
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        if not 0 <= divisor_index < field.r:
            raise ValueError(f"divisor index {divisor_index} out of range for r={field.r}")
        return cls(x=x, kind="residue", field=field, divisor_index=divisor_index)

    @classmethod
    def explicit(cls, x: int, primes) -> "PrimeSetSpec":
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        members = sorted(set(int(p) for p in primes))
        for p in members:
            if not is_prime(p):
                raise ValueError(f"explicit prime set contains non-prime {p}")
        return cls(x=x, kind="explicit", members=tuple(p for p in members if p <= x))

    def realize(self) -> np.ndarray:
        """The realized prime set, ascending (read-only array)."""
        return _realize(self)

    def complement(self) -> np.ndarray:
        """Primes <= x missing from the realized set."""
        inside = self.realize()
        everything = primes_upto(self.x)
        return np.setdiff1d(everything, inside, assume_unique=True)


@lru_cache(maxsize=64)
def _realize(spec: PrimeSetSpec) -> np.ndarray:
    if spec.kind == "threshold":
        limit = math.exp(math.log(spec.x) / spec.u) if spec.x > 1 else 1.0
        arr = primes_upto(int(limit * (1.0 + 1e-12)))
    elif spec.kind == "residue":
        field = spec.field
        p = field.p
        q, _ = field.divisors[spec.divisor_index]
        exp = (p - 1) // q
        arr = np.array(
            [
                t
                for t in primes_upto(spec.x)
                if t % p != 0 and pow(int(t) % p, exp, p) == 1
            ],
            dtype=np.int64,
        )
    elif spec.kind == "explicit":
        arr = np.array(spec.members, dtype=np.int64)
    else:
        raise ValueError(f"unknown prime set kind {spec.kind!r}")
    arr.flags.writeable = False
    return arr


def psi_count(spec: PrimeSetSpec) -> int:
    """Exact number of integers <= x whose prime factors all lie in the set.

    Counts n = 1 as well; depth-first product construction over the primes
    in increasing order.
    """
    x = spec.x
    if x > PSI_LIMIT:
        raise ResourceLimitError(f"psi_count is exact only up to x={PSI_LIMIT:.0e}")
    primes = [int(p) for p in spec.realize()]
    count = len(primes)

    def rec(j0: int, rem: int) -> int:
        total = 1
        for j in range(j0, count):
            p = primes[j]
            if p > rem:
                break
            q = rem // p
            while q >= 1:
                total += rec(j + 1, q)
                q //= p
        return total

    return rec(0, x)


def mertens_sum(spec: PrimeSetSpec, lo: float, hi: float) -> float:
    """Sum of 1/p over realized primes in (lo, hi]; empty ranges give 0."""
    if lo >= hi:
        return 0.0
    arr = spec.realize()
    hi = min(float(hi), float(spec.x))
    a = int(np.searchsorted(arr, lo, side="right"))
    b = int(np.searchsorted(arr, hi, side="right"))
    return math.fsum(1.0 / int(p) for p in arr[a:b])


def complement_product(spec: PrimeSetSpec) -> float:
    """prod (1 - 1/p) over the primes <= x outside the realized set."""
    comp = spec.complement()
    if comp.size == 0:
        return 1.0
    return float(np.prod(1.0 - 1.0 / comp.astype(np.float64)))


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------

_RHO_STEPS = 8192  # grid points per unit interval; 1/step divides 1 so delays align
_RHO_UMAX = 20


@lru_cache(maxsize=1)
def _rho_blocks() -> tuple[np.ndarray, ...]:
    """rho sampled on [k, k+1] for k = 0..19, marching the delay ODE blockwise.

    Each block integrates rho(t-1)/t with a trapezoid rule plus the
    endpoint-derivative term that cancels the O(h^2) Euler-Maclaurin error;
    all inputs are previous blocks, so each block is one vectorized pass.
    """
    m = _RHO_STEPS
    # Extended precision for the march: rho spans ten orders of magnitude on
    # [2, 10], so float64 carry noise (~1e-16 absolute) would swamp the tail.
    ld = np.longdouble
    h = ld(1) / m
    i = np.arange(m + 1, dtype=ld)
    blocks = [np.ones(m + 1, dtype=ld), 1.0 - np.log(1.0 + i * h)]
    for k in range(2, _RHO_UMAX):
        t = k + i * h
        rho_delay1 = blocks[k - 1]  # rho(t-1) on the aligned grid
        rho_delay2 = blocks[k - 2]  # rho(t-2)
        g = rho_delay1 / t
        gp = -rho_delay2 / ((t - 1.0) * t) - rho_delay1 / (t * t)
        trap = h * (np.cumsum(g) - 0.5 * (g[0] + g))
        integral = trap - (h * h / 12.0) * (gp - gp[0])
        # Noise floor (far below the [0, 10] accuracy domain) must not go negative.
        blocks.append(np.maximum(blocks[k - 1][-1] - integral, ld(0)))
    return tuple(b.astype(np.float64) for b in blocks)


def dickman_rho(u: float) -> float:
    """Dickman rho: the density of x**(1/u)-smooth integers below x."""
    if u < 0:
        raise ValueError(f"dickman_rho requires u >= 0, got {u}")
    if u > _RHO_UMAX:
        raise ValueError(f"dickman_rho supports u <= {_RHO_UMAX}, got {u}")
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - math.log(u)
    blocks = _rho_blocks()
    k = min(int(math.floor(u)), _RHO_UMAX - 1)
    arr = blocks[k]
    frac = (u - k) * _RHO_STEPS
    j = int(math.floor(frac))
    if j >= _RHO_STEPS:
        return float(arr[_RHO_STEPS])
    w = frac - j
    return float(arr[j] * (1.0 - w) + arr[j + 1] * w)


# ---------------------------------------------------------------------------
# Hypothesis / conclusion checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveReport:
    """Exact Psi, the inclusion-exclusion prediction, and the harmonic hypothesis."""

    x: int
    u: float
    v: float
    epsilon: float
    psi: int
    expected: float
    hypothesis_sum: float
    hypothesis_holds: bool
    a_v_reference: float
    conclusion_ratio: float
    v_in_window: bool


def sieve_bound_check(spec: PrimeSetSpec, u: float, v: float, epsilon: float) -> SieveReport:
    """Check the harmonic hypothesis sum >= (1+eps)/u and report Psi against
    the sieve prediction; v outside ln(x)/(1000 ln ln x) is flagged, not refused."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if u > v:
        raise ValueError(f"need u <= v, got u={u} v={v}")
    x = spec.x
    if x > PSI_LIMIT:
        # Before mertens_sum, whose realize() would sieve to x**(1/u) first.
        raise ResourceLimitError(f"psi_count is exact only up to x={PSI_LIMIT:.0e}")
    lo = x ** (1.0 / v)
    hi = x ** (1.0 / u)
    hyp = mertens_sum(spec, lo, hi)
    psi = psi_count(spec)
    expected = x * complement_product(spec)
    loglog = math.log(math.log(x)) if x > math.e else 0.0
    window = loglog > 0 and v <= math.log(x) / (1000.0 * loglog)
    return SieveReport(
        x=x,
        u=float(u),
        v=float(v),
        epsilon=float(epsilon),
        psi=psi,
        expected=expected,
        hypothesis_sum=hyp,
        hypothesis_holds=hyp >= (1.0 + epsilon) / u,
        a_v_reference=float(v) ** (-float(v)),
        conclusion_ratio=psi / expected if expected > 0 else math.inf,
        v_in_window=window,
    )

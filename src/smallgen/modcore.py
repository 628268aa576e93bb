"""Exact modular arithmetic over F_p*: primality, factorization, orders, power-residue tests.

Everything here is deterministic and exact for inputs below 2**63; the
Miller-Rabin witness set is valid far beyond 64 bits, so no probabilistic
answers ever leak out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Witnesses sufficient for a deterministic Miller-Rabin below 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division strips only the small primes: Pollard rho finishes the
# cofactor in about q**0.5 steps for its smallest prime q, where dividing
# on up to q would take q/2.
_TRIAL_DIVISION_LIMIT = 4096

MAX_PRIME = 2**63  # supported field size: p < 2**63


def is_prime(n: int) -> bool:
    """Deterministic primality test (exact for all n < 2**64 and well beyond)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Floyd-cycle rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    # Deterministic parameter sweep keeps factorizations reproducible.
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete factorization of n as [(prime, multiplicity), ...], primes increasing."""
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    while n % 2 == 0:
        factors[2] = factors.get(2, 0) + 1
        n //= 2
    d = 3
    while d * d <= n and d <= _TRIAL_DIVISION_LIMIT:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            f = _pollard_rho(m)
            stack.append(f)
            stack.append(m // f)
    return sorted(factors.items())


@dataclass(frozen=True)
class FieldSpec:
    """An odd prime p together with the full factorization of p-1.

    divisors holds (q, alpha) pairs with q strictly increasing; r is the
    number of distinct prime divisors of p-1.
    """

    p: int
    divisors: tuple[tuple[int, int], ...]
    r: int

    def __post_init__(self):
        if not (3 <= self.p < MAX_PRIME):
            raise ValueError(f"p must satisfy 3 <= p < 2**63, got {self.p}")
        if self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r != len(self.divisors):
            raise ValueError("r must equal the number of divisor entries")
        prod = 1
        prev_q = 0
        for q, alpha in self.divisors:
            if q <= prev_q:
                raise ValueError("divisor primes must be strictly increasing")
            if alpha < 1:
                raise ValueError("divisor multiplicities must be >= 1")
            if not is_prime(q):
                raise ValueError(f"divisor {q} is not prime")
            prod *= q**alpha
            prev_q = q
        if prod != self.p - 1:
            raise ValueError("divisors do not reconstruct p - 1")


def field_spec(p: int) -> FieldSpec:
    """Build the FieldSpec for an odd prime p by factorizing p-1."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    divisors = tuple(factorize(p - 1))
    return FieldSpec(p=p, divisors=divisors, r=len(divisors))


def _reduce_to_group(n: int, p: int) -> int:
    m = n % p
    if m == 0:
        raise ValueError(f"{n} is divisible by {p}; 0 is not in the multiplicative group")
    return m


def residue_signature(n: int, field: FieldSpec) -> int:
    """Non-residue mask of n: bit i set iff n is not a q_i-th power mod p.

    The identity has mask 0; a primitive root has all r bits set.
    """
    p = field.p
    m = _reduce_to_group(n, p)
    mask = 0
    for i, (q, _) in enumerate(field.divisors):
        if pow(m, (p - 1) // q, p) != 1:
            mask |= 1 << i
    return mask


def multiplicative_order(n: int, field: FieldSpec) -> int:
    """Exact order of n in F_p*, by stripping divisor primes from p-1."""
    p = field.p
    m = _reduce_to_group(n, p)
    d = p - 1
    for q, alpha in field.divisors:
        for _ in range(alpha):
            if pow(m, d // q, p) == 1:
                d //= q
            else:
                break
    return d

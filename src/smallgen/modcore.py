"""Exact modular arithmetic over F_p*: primality, factorization, orders, power-residue tests.

Everything here is deterministic and exact for inputs below 2**63: is_prime
reads n below 2**17 off a table of the package's one sieve, built on first
use, and above it runs Miller-Rabin with witnesses chosen by the size of n
from sets proven to leave no strong pseudoprime below their bound (the full
set is valid far beyond 64 bits), so no probabilistic answers ever leak out.
The one vectorized kernel, _pow_mod, works in int64 and so accepts only
moduli up to isqrt(2**63 - 1).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass
from types import MemberDescriptorType

import numpy as np

# Witnesses sufficient for a deterministic Miller-Rabin below 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Which prefix of the witnesses decides n, by size: below _MR_TIER_BOUNDS[i]
# the first _MR_TIER_SIZES[i] suffice.  Each bound is the least strong
# pseudoprime to its witness prefix, so the test is n < bound (Pomerance,
# Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang and Deng 2014).  n below
# the sieve table never gets here, so the tiers start at witnesses {2, 3}.
_MR_TIER_BOUNDS = (
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)
_MR_TIER_SIZES = (2, 3, 4, 5, 6, 7, 9, len(_MR_WITNESSES))
# 37#: gcd(n, 37#) > 1 iff a witness divides n, and then an n above the table is composite.
_WITNESS_PRODUCT = math.prod(_MR_WITNESSES)

# Trial division strips only the small primes: Pollard rho finishes the
# cofactor in about q**0.5 steps for its smallest prime q, where dividing
# on up to q would take q/2.
_TRIAL_DIVISION_LIMIT = 4096

MAX_PRIME = 2**63  # supported field size: p < 2**63

# isqrt(2**63 - 1): below it a product of two residues fits in an int64.
_POW_MOD_MAX = 3037000499

_DIVISORS_FORM = "divisors must be a tuple of (q, alpha) int tuples"

# is_prime reads n below this off a table of odd flags: 64 KiB, built in about
# 0.1 ms, and covering p and every q of a survey to 1e5.  Every process that
# asks a small n pays the build, and it grows with the limit (0.6 ms at 2**20).
_TABLE_LIMIT = 1 << 17


@functools.cache
def _odd_prime_flags() -> bytes:
    """Byte i is 1 iff 2i + 1 is prime, for 2i + 1 < _TABLE_LIMIT: the package's one sieve."""
    from .sievelab import prime_flags  # sievelab imports this module

    return prime_flags(_TABLE_LIMIT - 1).tobytes()


def is_prime(n: int) -> bool:
    """Deterministic primality test (exact for all n < 2**64 and well beyond)."""
    if n < 2:
        return False
    if n < _TABLE_LIMIT:
        return _odd_prime_flags()[n >> 1] == 1 if n & 1 else n == 2
    if math.gcd(n, _WITNESS_PRODUCT) != 1:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _MR_WITNESSES[: _MR_TIER_SIZES[bisect_right(_MR_TIER_BOUNDS, n)]]:
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
    """Complete factorization of n as [(prime, multiplicity), ...], primes increasing.

    n >= 2**63 is refused up front: rho takes ~q**0.5 steps for the smallest
    prime q of the cofactor, minutes at q ~ 2**60.
    """
    if not 1 <= n < MAX_PRIME:
        raise ValueError(f"factorize requires 1 <= n < 2**63, got {n}")
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


def _frozen_init(cls):
    """Class decorator giving a frozen, slotted dataclass one generated __init__
    that sets each field through its slot's member descriptor, where the
    dataclass's own goes through object.__setattr__ at about twice the cost.

    Parameter names, order and defaults come from dataclasses.fields, and
    __post_init__ runs where the class defines one, so replace, pickling,
    ==, hash, repr and FrozenInstanceError are the dataclass's own.  A class
    that is not frozen and slotted, or that has a default_factory, InitVar,
    kw_only or init=False field, is refused.
    """
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    slots = [cls.__dict__.get(n) for n in names]
    if not cls.__dataclass_params__.frozen or any(type(s) is not MemberDescriptorType for s in slots):
        raise TypeError(f"{cls.__name__} must be a frozen dataclass with slots=True")
    # The dataclass's own __init__ also takes each InitVar.
    if list(inspect.signature(cls.__init__).parameters)[1:] != names or any(
        not f.init or f.kw_only or f.default_factory is not MISSING for f in fields
    ):
        raise TypeError(f"{cls.__name__} may have only positional init fields without default_factory")
    env = {f"_set_{n}": s.__set__ for n, s in zip(names, slots)}
    env.update({f"_default_{f.name}": f.default for f in fields if f.default is not MISSING})
    params = ", ".join(f"{n}=_default_{n}" if f"_default_{n}" in env else n for n in names)
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {params}):\n{body}", env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_frozen_init
@dataclass(frozen=True, slots=True)
class FieldSpec:
    """An odd prime p together with the full factorization of p-1.

    divisors holds (q, alpha) pairs with q strictly increasing, a tuple of
    int tuples, so that FieldSpecs hash and compare by value.  Left out, it
    is factorize(p - 1), computed only once p has passed its checks, so a
    bad p is refused before any factoring.
    """

    p: int
    divisors: tuple[tuple[int, int], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if not (3 <= self.p < MAX_PRIME):
            raise ValueError(f"p must satisfy 3 <= p < 2**63, got {self.p}")
        if self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.divisors is None:
            object.__setattr__(self, "divisors", tuple(factorize(self.p - 1)))
        elif type(self.divisors) is not tuple:
            raise ValueError(_DIVISORS_FORM)
        prod = 1
        prev_q = 0
        try:
            for pair in self.divisors:
                if type(pair) is not tuple:
                    raise ValueError(_DIVISORS_FORM)
                q, alpha = pair
                if q <= prev_q:
                    raise ValueError("divisor primes must be strictly increasing")
                if alpha < 1:
                    raise ValueError("divisor multiplicities must be >= 1")
                if not is_prime(q):
                    raise ValueError(f"divisor {q} is not prime")
                prod *= q**alpha
                prev_q = q
        except TypeError as e:  # a q that is_prime cannot take, or a pair that is not two numbers
            raise ValueError(f"{_DIVISORS_FORM}: {e}") from None
        # A q or alpha that is_prime took but is not an int (a numpy integer, a float alpha) makes prod one.
        if type(prod) is not int:
            raise ValueError(_DIVISORS_FORM)
        if prod != self.p - 1:
            raise ValueError("divisors do not reconstruct p - 1")

    @property
    def r(self) -> int:
        """The number of distinct prime divisors of p-1."""
        return len(self.divisors)


def field_spec(p: int) -> FieldSpec:
    """The FieldSpec of an odd prime p; FieldSpec checks p, then factorizes p-1."""
    return FieldSpec(p)


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


def _pow_mod(base, exp, mod) -> np.ndarray:
    """pow(base, exp, mod) elementwise over int64 arrays, broadcast together.

    Square-and-multiply over the bits of exp.  Exact for 1 <= mod <=
    _POW_MOD_MAX and exp >= 0: every residue is below mod, so each product
    is below 2**63.  Any other mod or exp raises ValueError.
    """
    mod = np.asarray(mod)
    if mod.size and not (1 <= mod.min() and mod.max() <= _POW_MOD_MAX):
        raise ValueError(f"_pow_mod requires 1 <= mod <= {_POW_MOD_MAX}")
    exp = np.asarray(exp, dtype=np.int64)
    if exp.size and exp.min() < 0:
        raise ValueError("_pow_mod requires exp >= 0")
    mod = mod.astype(np.int64)
    base = np.asarray(base, dtype=np.int64) % mod
    result = np.ones(np.broadcast_shapes(base.shape, exp.shape, mod.shape), dtype=np.int64) % mod
    while exp.any():
        result = np.where(exp & 1, result * base % mod, result)
        base = base * base % mod
        exp = exp >> 1
    return result

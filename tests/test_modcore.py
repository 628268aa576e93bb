import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallgen import modcore
from smallgen.modcore import (
    _POW_MOD_MAX,
    FieldSpec,
    _pow_mod,
    factorize,
    field_spec,
    is_prime,
    multiplicative_order,
    residue_signature,
)
from smallgen.sievelab import prime_flags


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# is_prime / factorize
# ---------------------------------------------------------------------------


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert is_prime(1000003) == trial_division_is_prime(1000003)


def test_is_prime_against_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def twelve_witness_is_prime(n):
    """The reference: trial division by all 12 witnesses, then all 12 strong tests."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    return strong_probable_prime(n, WITNESSES)


def test_is_prime_matches_sieve_below_2e6():
    n_max = 2_000_000
    flags = prime_flags(n_max - 1)  # flags[i] iff 2i + 1 is prime
    assert [is_prime(n) for n in range(1, n_max, 2)] == flags.tolist()
    assert [is_prime(n) for n in range(0, n_max, 2)] == [n == 2 for n in range(0, n_max, 2)]


# Odd n spread over every bit length up to 63, so each witness tier is drawn.
@given(st.integers(1, 63).flatmap(lambda bits: st.integers(0, 2 ** (bits - 1) - 1)).map(lambda k: 2 * k + 1))
@settings(max_examples=1000)
def test_is_prime_matches_twelve_witnesses(n):
    assert is_prime(n) == twelve_witness_is_prime(n)


# (bound, k): below bound the first k witnesses decide, and bound is the least
# strong pseudoprime to them, so a tier that took n <= bound would pass it.
@pytest.mark.parametrize(
    "bound, k",
    [
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
    ],
)
def test_is_prime_false_at_tier_bounds(bound, k):
    assert strong_probable_prime(bound, WITNESSES[:k])
    assert not is_prime(bound)


def loop_is_prime(n):
    """The reference: is_prime with its witness trial loop and halving loop."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    if n < 1681:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in WITNESSES[: modcore._MR_TIER_SIZES[bisect_right(modcore._MR_TIER_BOUNDS, n)]]:
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


def test_is_prime_matches_the_loop_reference():
    # A seeded sample near 2**62, every integer of a short run there (evens
    # and witness multiples included), every integer from 1 to just past the
    # sieve table's limit, and the strong pseudoprime at each tier bound with
    # its neighbours.
    rng = random.Random(62)
    sample = [rng.randrange(2**62 - 2**40, 2**62 + 2**40) for _ in range(3000)]
    sample += range(2**62 - 200, 2**62 + 200)
    sample += range(1, modcore._TABLE_LIMIT + 200)
    sample += [b + k for b in modcore._MR_TIER_BOUNDS for k in (-2, -1, 0, 1, 2)]
    assert [is_prime(n) for n in sample] == [loop_is_prime(n) for n in sample]
    assert not any(is_prime(b) for b in modcore._MR_TIER_BOUNDS)


def test_import_builds_no_prime_table():
    # The table is built on the first small n, not at import, so importing
    # the package stays cheap and a cleared functools cache rebuilds it.
    code = "import smallgen; from smallgen import modcore; print(modcore._odd_prime_flags.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(modcore.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "0"


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(40) == [(2, 3), (5, 1)]
    assert factorize(720720) == [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_domain_ends_below_2_63():
    assert factorize(2**63 - 1) == [(7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)]
    with pytest.raises(ValueError):
        factorize(2**63)


def test_factorize_rho_path():
    n = (10**9 + 7) * (10**9 + 9)
    assert factorize(n) == [(10**9 + 7, 1), (10**9 + 9, 1)]


def assert_factorization(n, factors):
    assert math.prod(q**a for q, a in factors) == n
    assert all(is_prime(q) and a >= 1 for q, a in factors)
    assert [q for q, _ in factors] == sorted({q for q, _ in factors})


@given(st.integers(1, 2**48))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    assert_factorization(n, factorize(n))


# Trial division stops at 4096 and Pollard rho finishes the cofactor, so these
# cofactors have no prime factor that trial division would reach.
@pytest.mark.parametrize(
    "q1, q2",
    [
        (2147483647, 2147483659),  # 2**31 - 1 and the next prime
        (2146483643, 2148483661),  # primes near 2**31 -+ 10**6
        (1610612741, 2147483659),
    ],
)
def test_factorize_semiprimes_near_2_62(q1, q2):
    n = q1 * q2
    assert n.bit_length() >= 62
    assert_factorization(n, factorize(n))
    assert factorize(n) == [(q1, 1), (q2, 1)]


@pytest.mark.parametrize("q", [4099, 65537, 999983])
@pytest.mark.parametrize("k", [2, 3])
def test_factorize_prime_powers_past_trial_limit(q, k):
    assert 4096 < q <= 10**6
    assert_factorization(q**k, factorize(q**k))
    assert factorize(q**k) == [(q, k)]


@pytest.mark.parametrize("p", [7, 41, 577, 10007, 8608456956238879741])
def test_factorize_p_minus_one_of_pinned_primes(p):
    assert_factorization(p - 1, factorize(p - 1))


def trial_division_factors(n):
    factors = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            factors.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


@given(st.integers(1, 10**12 - 1))
@settings(max_examples=100, deadline=None)
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division_factors(n)


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------


def test_field_spec_smallest_case():
    f = field_spec(3)
    assert f.divisors == ((2, 1),)
    assert f.r == 1


def test_field_spec_invariants(small_primes):
    for p in small_primes:
        f = field_spec(p)
        assert math.prod(q**a for q, a in f.divisors) == p - 1
        assert f.r == len(f.divisors)
        primes = [q for q, _ in f.divisors]
        assert primes == sorted(primes)


def test_field_spec_refuses_p_before_factoring(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho started on {n}")

    monkeypatch.setattr("smallgen.modcore._pollard_rho", no_rho)
    # 4611685994204118855 is composite, and its p - 1 = 2 * q1 * q2 with
    # q1, q2 near 2**30.5 needs rho.  The messages name p, not p - 1.
    for bad, named in [
        (1, "3 <= p < 2**63, got 1"),
        (2**63 + 1, f"3 <= p < 2**63, got {2**63 + 1}"),
        (4611685994204118855, "odd prime, got 4611685994204118855"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            field_spec(bad)


def test_field_spec_tests_p_once(monkeypatch):
    tested = []
    original = is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    monkeypatch.setattr("smallgen.modcore.is_prime", counting)
    f = field_spec(10007)  # 10006 = 2 * 5003
    assert f.divisors == ((2, 1), (5003, 1))
    assert tested.count(10007) == 1


def test_field_spec_checks_supplied_divisors():
    # Callers that factor p - 1 themselves (the survey's batch pass) get every
    # check.  1373653 and 341550071728321 (as q) and 3825123056546413051 (as p)
    # are strong pseudoprimes to the witnesses of the tier below them.
    for p, divisors, named in [
        (31, ((2, 1), (15, 1)), "divisor 15 is not prime"),
        (5494613, ((2, 2), (1373653, 1)), "divisor 1373653 is not prime"),
        (6147901291109779, ((2, 1), (3, 2), (341550071728321, 1)), "divisor 341550071728321 is not prime"),
        (3825123056546413051, ((2, 1),), "odd prime, got 3825123056546413051"),
        (31, ((2, 1), (3, 1), (5, 0)), "multiplicities must be >= 1"),
        # A list would leave the FieldSpec unhashable and unequal to
        # FieldSpec(7); a float or numpy q or alpha breaks the orders read from it.
        (7, [(2, 1), (3, 1)], "divisors must be a tuple of"),
        (7, ((2, 1), [3, 1]), "divisors must be a tuple of"),
        (7, ((2, 1.0), (3, 1)), "divisors must be a tuple of"),
        (7, ((2.0, 1), (3, 1)), "divisors must be a tuple of"),
        (7, ((2, 1), (np.int64(3), 1)), "divisors must be a tuple of"),
        (7, ((2, np.int64(1)), (3, 1)), "divisors must be a tuple of"),
        (7, ((2, 1), 3), "divisors must be a tuple of"),
        (7, (("2", 1), (3, 1)), "divisors must be a tuple of"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            FieldSpec(p, divisors)


def test_field_spec_rejects_bad_input():
    for bad in (1, 2, 4, 100):
        with pytest.raises(ValueError):
            field_spec(bad)
    with pytest.raises(ValueError):
        FieldSpec(p=7, divisors=((2, 1),))  # does not reconstruct 6
    with pytest.raises(ValueError):
        FieldSpec(p=7, divisors=((3, 1), (2, 1)))  # not increasing


def test_frozen_init_refuses_what_it_cannot_build():
    @dataclasses.dataclass(frozen=True)
    class NotSlotted:
        a: int

    @dataclasses.dataclass(slots=True)
    class NotFrozen:
        a: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class Factory:
        a: list = dataclasses.field(default_factory=list)

    @dataclasses.dataclass(frozen=True, slots=True)
    class HasInitVar:
        a: int
        b: dataclasses.InitVar[int]

    @dataclasses.dataclass(frozen=True, slots=True)
    class NoInit:
        a: int
        b: int = dataclasses.field(default=0, init=False)

    @dataclasses.dataclass(frozen=True, slots=True)
    class KeywordOnly:
        a: int = dataclasses.field(kw_only=True)

    for cls in (NotSlotted, NotFrozen, Factory, HasInitVar, NoInit, KeywordOnly):
        with pytest.raises(TypeError):
            modcore._frozen_init(cls)


# ---------------------------------------------------------------------------
# residue signatures
# ---------------------------------------------------------------------------


def qth_power_set(p, q):
    return {pow(n, q, p) for n in range(1, p)}


def test_signature_examples_p7():
    f = field_spec(7)  # divisors (2, 3): bit 0 = q=2, bit 1 = q=3
    assert residue_signature(1, f) == 0b00
    # cubes mod 7 are {1, 6}; 2 is not among them
    assert qth_power_set(7, 3) == {1, 6}
    assert residue_signature(2, f) == 0b10
    assert residue_signature(3, f) == 0b11


def test_signature_matches_power_sets(small_primes):
    for p in small_primes[:30]:
        f = field_spec(p)
        for i, (q, _) in enumerate(f.divisors):
            members = qth_power_set(p, q)
            for n in range(1, p):
                assert bool(residue_signature(n, f) >> i & 1) == (n not in members)


def test_signature_rejects_zero():
    f = field_spec(7)
    with pytest.raises(ValueError):
        residue_signature(7, f)
    with pytest.raises(ValueError):
        residue_signature(0, f)


def test_residue_count_identity(small_primes):
    # exactly (p-1)/q elements are q-th residues, for every q | p-1
    for p in small_primes[:50]:
        f = field_spec(p)
        for q, _ in f.divisors:
            e = (p - 1) // q
            count = sum(1 for n in range(1, p) if pow(n, e, p) == 1)
            assert count == (p - 1) // q


@given(st.data())
def test_qth_residues_form_subgroup(small_primes, data):
    p = data.draw(st.sampled_from(small_primes[:40]))
    f = field_spec(p)
    x = data.draw(st.integers(1, p - 1))
    y = data.draw(st.integers(1, p - 1))
    mx = residue_signature(x, f)
    my = residue_signature(y, f)
    mxy = residue_signature(x * y % p, f)
    # bits clear for both x and y stay clear for x*y
    assert mxy & ~(mx | my) == 0


# ---------------------------------------------------------------------------
# orders and primitive roots
# ---------------------------------------------------------------------------


def naive_order(n, p):
    acc, k = n % p, 1
    while acc != 1:
        acc = acc * n % p
        k += 1
    return k


def test_order_examples():
    f7 = field_spec(7)
    assert multiplicative_order(1, f7) == 1
    assert multiplicative_order(2, f7) == 3
    assert multiplicative_order(3, f7) == 6


def test_order_matches_naive(small_primes):
    for p in small_primes[:15]:
        f = field_spec(p)
        for n in range(1, p):
            assert multiplicative_order(n, f) == naive_order(n, p)


def is_primitive_root(n, f):
    return residue_signature(n, f) == (1 << f.r) - 1


def test_primitive_root_examples():
    f7 = field_spec(7)
    assert is_primitive_root(3, f7)
    assert not is_primitive_root(1, f7)
    assert not is_primitive_root(2, f7)


def test_primitive_root_iff_full_order(small_primes):
    # cross-check of the two independent code paths, all p <= 1000
    for p in small_primes:
        f = field_spec(p)
        for n in range(1, p):
            assert is_primitive_root(n, f) == (multiplicative_order(n, f) == p - 1)


# ---------------------------------------------------------------------------
# int64 modpow kernel
# ---------------------------------------------------------------------------


def test_pow_mod_bound_is_isqrt_int64_max():
    assert _POW_MOD_MAX == math.isqrt(2**63 - 1)


def test_pow_mod_matches_pow_random():
    rng = random.Random(7)
    base = [rng.randrange(-(2**40), 2**40) for _ in range(3000)]
    exp = [rng.randrange(2**62) for _ in range(3000)]
    mod = [rng.choice((rng.randrange(1, 2**20), rng.randrange(1, _POW_MOD_MAX + 1), _POW_MOD_MAX)) for _ in range(3000)]
    got = _pow_mod(base, exp, mod)
    assert got.dtype == np.int64
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(base, exp, mod)]


def test_pow_mod_edges_and_broadcasting():
    p = 1000003
    bases = np.array([0, 1, 2, p - 1, p, p + 5, 3 * p, -1])  # 0, base >= mod, negative
    for e in (0, 1, 2, (p - 1) // 2, p - 1, 2**62):
        assert _pow_mod(bases, e, p).tolist() == [pow(int(b), e, p) for b in bases]
    assert _pow_mod(5, 0, 1).tolist() == pow(5, 0, 1) == 0
    assert _pow_mod(0, 0, 7).tolist() == 1
    grid = _pow_mod(np.arange(2, 6)[:, None], [[3, 5]], [7, 11])
    assert grid.tolist() == [[pow(b, e, m) for e, m in ((3, 7), (5, 11))] for b in range(2, 6)]
    top = _POW_MOD_MAX
    assert int(_pow_mod(top - 1, 2**61 + 3, top)) == pow(top - 1, 2**61 + 3, top)


@pytest.mark.parametrize("mod", [_POW_MOD_MAX + 1, 2**62, 2**64, 0, -5])
def test_pow_mod_refuses_mod_outside_its_exact_range(mod):
    with pytest.raises(ValueError):
        _pow_mod(2, 3, mod)
    with pytest.raises(ValueError):
        _pow_mod([2, 3], 3, [7, mod])


def test_pow_mod_refuses_negative_exp():
    with pytest.raises(ValueError):
        _pow_mod(2, -1, 7)

import math

import pytest
from hypothesis import given, settings, strategies as st

from smallgen.modcore import (
    FieldSpec,
    factorize,
    field_spec,
    is_prime,
    multiplicative_order,
    residue_signature,
)


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


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(40) == [(2, 3), (5, 1)]
    assert factorize(720720) == [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


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


def test_field_spec_rejects_bad_input():
    for bad in (1, 2, 4, 100):
        with pytest.raises(ValueError):
            field_spec(bad)
    with pytest.raises(ValueError):
        FieldSpec(p=7, divisors=((2, 1),), r=1)  # does not reconstruct 6
    with pytest.raises(ValueError):
        FieldSpec(p=7, divisors=((3, 1), (2, 1)), r=2)  # not increasing


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

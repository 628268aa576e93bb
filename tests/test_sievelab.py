import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallgen import sievelab
from smallgen.cli import run
from smallgen.modcore import field_spec, is_prime
from smallgen.sievelab import (
    PrimeSetSpec,
    ResourceLimitError,
    complement_product,
    dickman_rho,
    mertens_sum,
    prime_flags,
    primes_upto,
    psi_count,
    sieve_bound_check,
)

# ---------------------------------------------------------------------------
# prime generation
# ---------------------------------------------------------------------------


def test_primes_upto_small():
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1).size == 0


def test_prime_flags_against_miller_rabin():
    flags = prime_flags(10**4)
    for n in range(10**4 + 1):
        assert bool(flags[n]) == is_prime(n), n


def test_segmented_matches_simple():
    # limit above the segment span exercises the segmented path
    from smallgen.sievelab import _SEGMENT_SPAN, _simple_prime_flags

    limit = _SEGMENT_SPAN + 10_000
    assert np.array_equal(prime_flags(limit), _simple_prime_flags(limit))


# ---------------------------------------------------------------------------
# prime set specs
# ---------------------------------------------------------------------------


def test_threshold_set():
    spec = PrimeSetSpec.threshold(30, 1.0)
    assert spec.realize().tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    spec2 = PrimeSetSpec.threshold(10**6, 2.0)
    assert spec2.realize()[-1] == 997  # primes <= 10**3


def test_threshold_boundary_prime_included():
    # a prime sitting exactly at x**(1/u) belongs to the set
    assert PrimeSetSpec.threshold(49, 2.0).realize().tolist() == [2, 3, 5, 7]
    assert PrimeSetSpec.threshold(121, 2.0).realize().tolist() == [2, 3, 5, 7, 11]


def test_explicit_set_validation():
    with pytest.raises(ValueError):
        PrimeSetSpec.explicit(30, [2, 3, 4])
    spec = PrimeSetSpec.explicit(30, [5, 2, 3, 101])  # 101 > x is dropped
    assert spec.realize().tolist() == [2, 3, 5]


def test_residue_set_members_are_residues():
    f = field_spec(31)
    for i, (q, _) in enumerate(f.divisors):
        spec = PrimeSetSpec.residue(500, f, i)
        members = set(spec.realize().tolist())
        residues = {pow(n, q, 31) for n in range(1, 31)}
        for t in primes_upto(500):
            t = int(t)
            if t % 31 == 0:
                assert t not in members
            else:
                assert (t in members) == (t % 31 in residues)


def test_complement_partitions():
    spec = PrimeSetSpec.explicit(50, [2, 3, 5])
    inside = set(spec.realize().tolist())
    outside = set(spec.complement().tolist())
    assert inside & outside == set()
    assert inside | outside == set(primes_upto(50).tolist())


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_examples():
    assert psi_count(PrimeSetSpec.explicit(30, [2, 3, 5])) == 18
    assert psi_count(PrimeSetSpec.threshold(30, 1.0)) == 30
    assert psi_count(PrimeSetSpec.explicit(30, [])) == 1


def test_psi_against_sieve_oracle():
    # knock out multiples of every prime outside the set, count survivors
    def smooth_count(x, y):
        keep = np.ones(x + 1, dtype=bool)
        keep[0] = False
        for p in primes_upto(x):
            if p > y:
                keep[p::p] = False
        return int(keep[1:].sum())

    assert psi_count(PrimeSetSpec.threshold(10**4, 2.0)) == smooth_count(10**4, 100) == 3716
    assert psi_count(PrimeSetSpec.threshold(10**4, 3.0)) == smooth_count(10**4, 21) == 1169


def test_psi_resource_cap():
    with pytest.raises(ResourceLimitError):
        psi_count(PrimeSetSpec.threshold(10**8 + 1, 2.0))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_psi_monotone_in_set(data):
    x = data.draw(st.integers(10, 10**4))
    pool = [int(p) for p in primes_upto(50)]
    small = data.draw(st.sets(st.sampled_from(pool), max_size=6))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=6))
    a = psi_count(PrimeSetSpec.explicit(x, sorted(small)))
    b = psi_count(PrimeSetSpec.explicit(x, sorted(small | extra)))
    assert a <= b


# ---------------------------------------------------------------------------
# mertens sums and complement products
# ---------------------------------------------------------------------------


def test_mertens_examples():
    all10 = PrimeSetSpec.threshold(10, 1.0)
    assert math.isclose(mertens_sum(all10, 0, 10), 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    assert mertens_sum(all10, 5, 5) == 0.0
    spec = PrimeSetSpec.explicit(10, [2, 3, 5])
    assert math.isclose(mertens_sum(spec, 2, 5), 1 / 3 + 1 / 5)


def test_complement_product_examples():
    assert complement_product(PrimeSetSpec.threshold(100, 1.0)) == 1.0
    assert complement_product(PrimeSetSpec.explicit(10, [3, 5, 7])) == 0.5
    # Mertens third theorem band at x = 100
    val = complement_product(PrimeSetSpec.explicit(100, []))
    assert 0.5 / math.log(100) < val < 2 / math.log(100)


def test_partition_union_bound():
    # residue subsets overlap, so their sums dominate the union's sum
    f = field_spec(31)
    x = 500
    union = set()
    total = 0.0
    for i in range(f.r):
        spec = PrimeSetSpec.residue(x, f, i)
        union |= set(spec.realize().tolist())
        total += mertens_sum(spec, 0, x)
    union_sum = math.fsum(1.0 / t for t in sorted(union))
    assert total >= union_sum


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------

# Frozen from the independent series oracle below (mpmath, 50 digits):
RHO_ORACLE = {
    2.0: 0.30685281944005469058,
    2.5: 0.13031956183225074561,
    3.0: 0.048608388291131566907,
    4.0: 0.0049109256477608323527,
    5.0: 0.00035472470045603972983,
    7.5: 1.717867492033985818e-7,
    10.0: 2.7701718377259589888e-11,
}


def rho_series_oracle(points, dps=30, terms=60):
    """Per-interval Taylor series about midpoints; independent of the
    production trapezoid march."""
    from mpmath import mp, mpf, log as mplog

    mp.dps = dps
    half = mpf(1) / 2

    def seed():
        a = [mpf(1) - mplog(mpf(3) / 2)]
        for j in range(1, terms):
            a.append(mpf(-1) ** j / (j * (mpf(3) / 2) ** j))
        return a

    def advance(prev, k):
        c = mpf(k) + half
        coeffs = []
        for n in range(terms):
            s = mpf(0)
            for j in range(n + 1):
                s += prev[j] * mpf(-1) ** (n - j) / c ** (n - j + 1)
            coeffs.append(s)
        rho_k = sum(prev[j] * half**j for j in range(terms))
        head = rho_k + sum(coeffs[n] * (-half) ** (n + 1) / (n + 1) for n in range(terms))
        return [head] + [-coeffs[n] / (n + 1) for n in range(terms - 1)]

    blocks = {1: seed()}
    for k in range(2, 20):
        blocks[k] = advance(blocks[k - 1], k)

    out = {}
    for u in points:
        k = min(int(math.floor(u)), 19)
        if u == k:
            k -= 1
        s = mpf(u) - (mpf(k) + half)
        out[u] = float(sum(blocks[k][j] * s**j for j in range(terms)))
    return out


def test_rho_closed_forms():
    assert dickman_rho(0.0) == 1.0
    assert dickman_rho(0.5) == 1.0
    assert dickman_rho(1.0) == 1.0
    assert abs(dickman_rho(2.0) - (1 - math.log(2))) <= 1e-6
    assert dickman_rho(1.5) == 1 - math.log(1.5)


def test_rho_domain():
    with pytest.raises(ValueError):
        dickman_rho(-0.1)
    with pytest.raises(ValueError):
        dickman_rho(20.5)


def test_rho_against_frozen_oracle():
    for u, ref in RHO_ORACLE.items():
        got = dickman_rho(u)
        assert abs(got - ref) <= 1e-6 * ref, (u, got, ref)


def test_frozen_oracle_self_check():
    live = rho_series_oracle(sorted(RHO_ORACLE))
    for u, ref in RHO_ORACLE.items():
        assert abs(live[u] - ref) <= 1e-12 * ref, (u, live[u], ref)


def test_rho_strictly_decreasing_positive():
    us = [1 + 0.005 * k for k in range(1801)]  # [1, 10]
    vals = [dickman_rho(u) for u in us]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rho_asymptotic_shape():
    # rho(u) tracks u**-u within the o(1) exponent slack at moderate u
    for u in (5.0, 8.0, 10.0):
        exponent = math.log(dickman_rho(u)) / (-u * math.log(u))
        assert 0.9 < exponent < 1.4


# ---------------------------------------------------------------------------
# hypothesis checker
# ---------------------------------------------------------------------------


def test_sieve_bound_check_full_set_trivial():
    # all primes kept: empty complement, expected = x, Psi = x exactly
    spec = PrimeSetSpec.threshold(30, 1.0)
    rep = sieve_bound_check(spec, 1.0, 2.0, 0.1)
    assert rep.psi == 30
    assert rep.conclusion_ratio == 1.0
    # dropping one prime sieves out fewer integers than the prediction claims
    spec2 = PrimeSetSpec.explicit(30, [int(p) for p in primes_upto(30) if p != 29])
    rep2 = sieve_bound_check(spec2, 1.0, 2.0, 0.1)
    assert rep2.psi == 29
    assert rep2.conclusion_ratio > 1.0


def test_sieve_bound_check_main_example():
    spec = PrimeSetSpec.threshold(10**6, 2.0)
    rep = sieve_bound_check(spec, 2.0, 10.0, 0.1)
    assert rep.hypothesis_holds
    assert rep.hypothesis_sum >= (1 + 0.1) / 2
    assert rep.a_v_reference == 10.0**-10
    assert not rep.v_in_window  # desk-scale x never satisfies the window
    assert rep.psi == 344299


def test_sieve_bound_check_validation():
    spec = PrimeSetSpec.threshold(100, 2.0)
    with pytest.raises(ValueError):
        sieve_bound_check(spec, 3.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        sieve_bound_check(spec, 0.5, 2.0, 0.1)


def test_sieve_bound_check_caps_before_sieving(monkeypatch, capsys):
    # Past PSI_LIMIT the check must refuse before realize() sieves to x**(1/u):
    # 1e12 for x = 1e12, u = 1, and 1e9 for x = 1e18, u = 2.
    sieved = []

    def no_sieve(limit):
        sieved.append(limit)
        raise AssertionError(f"primes_upto({limit}) called past the cap")

    monkeypatch.setattr(sievelab, "primes_upto", no_sieve)
    for x, u, v in ((10**12, 1.0, 2.0), (10**18, 2.0, 10.0)):
        with pytest.raises(ResourceLimitError):
            sieve_bound_check(PrimeSetSpec.threshold(x, u), u, v, 0.1)
        assert run(["sieve", "check", "--x", str(x), "--u", str(u), "--v", str(v)]) == 1
    assert sieved == []
    assert capsys.readouterr().err.startswith("error:")


def test_hypothesis_sum_is_plain_mertens_sum():
    spec = PrimeSetSpec.threshold(10**4, 2.0)
    rep = sieve_bound_check(spec, 2.0, 4.0, 0.05)
    manual = math.fsum(
        1.0 / int(p)
        for p in spec.realize()
        if (10**4) ** (1 / 4.0) < p <= (10**4) ** (1 / 2.0)
    )
    assert math.isclose(rep.hypothesis_sum, manual)

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallgen import experiments, sievelab
from smallgen.cli import run
from smallgen.experiments import density_experiment, survey
from smallgen.modcore import factorize, field_spec, is_prime
from smallgen.sievelab import (
    PrimeSetSpec,
    ResourceLimitError,
    complement_product,
    dickman_rho,
    mertens_sum,
    p_minus_one_divisors,
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
    # One flag per odd n <= limit; 2 comes from primes_upto alone.
    for limit in range(65):
        assert prime_flags(limit).size == (limit + 1) // 2, limit
        primes = primes_upto(limit)
        assert primes.tolist() == [n for n in range(limit + 1) if is_prime(n)], limit
        assert primes.dtype == np.int64
    for sieve in (prime_flags, primes_upto):
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            sieve(-1)


def test_prime_flags_against_miller_rabin():
    flags = prime_flags(10**4)
    assert flags.size == 5000
    for i in range(flags.size):
        assert bool(flags[i]) == is_prime(2 * i + 1), 2 * i + 1


def test_p_minus_one_divisors_match_factorize():
    # Every odd prime to 1e5, then 2000 consecutive primes from each of three
    # seeded points below 1e8 (found by is_prime, so nothing sieves to 1e8).
    windows = [primes_upto(10**5)[1:]]
    rng = random.Random(12)
    for _ in range(3):
        n = rng.randrange(10**6, 10**8 - 50_000) | 1
        window = []
        while len(window) < 2000:
            if is_prime(n):
                window.append(n)
            n += 2
        windows.append(np.array(window, dtype=np.int64))
    for window in windows:
        got = list(p_minus_one_divisors(window))
        assert [p for p, _ in got] == window.tolist()
        for p, divisors in got:
            assert divisors == tuple(factorize(p - 1)), p


def test_p_minus_one_divisors_edges():
    assert list(p_minus_one_divisors(np.array([], dtype=np.int64))) == []
    assert list(p_minus_one_divisors([2, 3, 97])) == [(2, ()), (3, ((2, 1),)), (97, ((2, 5), (3, 1)))]
    with pytest.raises(ValueError):
        list(p_minus_one_divisors([1, 7]))  # p - 1 = 0 has no factorization


def stride_pass(p_min, p_max):
    """(p, divisors) for the odd primes of [p_min, p_max], from the stride pass."""
    return list(sievelab._p_minus_one_blocks(p_min, p_max))


def block_starts(monkeypatch, p_min, p_max):
    """The first indices of the blocks that the stride pass over [p_min, p_max]
    asks of the sieve to p_max, by a spy on _odd_blocks."""
    starts = []
    odd_blocks = sievelab._odd_blocks

    def spy(limit, outside=None, begin=0):
        for lo, block in odd_blocks(limit, outside, begin):
            if limit == p_max:
                starts.append(lo)
            yield lo, block

    with monkeypatch.context() as m:
        m.setattr(sievelab, "_odd_blocks", spy)
        stride_pass(p_min, p_max)
    return starts


def test_stride_pass_matches_p_minus_one_divisors():
    # Every odd prime to 1e6, and every prime of the last 2e5 below 1e8 (its
    # primes listed by is_prime, so nothing but the pass sieves to 1e8).
    primes = primes_upto(10**6)[1:]
    assert stride_pass(3, 10**6) == list(p_minus_one_divisors(primes))
    lo, hi = 10**8 - 2 * 10**5, 10**8
    window = [n for n in range(lo + 1, hi, 2) if is_prime(n)]
    assert stride_pass(lo, hi) == list(p_minus_one_divisors(window))


def test_stride_pass_edges(monkeypatch):
    # p_min inside the second block of [0, p_max]: the pass starts at p_min's
    # index, so it sieves one block, and none below p_min.
    span = sievelab._SEGMENT_SPAN
    p_min, p_max = 2 * span + 5001, 2 * span + 20_000
    assert block_starts(monkeypatch, p_min, p_max) == [p_min // 2]
    primes = primes_upto(p_max)
    assert stride_pass(p_min, p_max) == list(p_minus_one_divisors(primes[np.searchsorted(primes, p_min) :]))
    assert stride_pass(90, 100) == [(97, ((2, 5), (3, 1)))]
    assert stride_pass(3, 5) == [(3, ((2, 1),)), (5, ((2, 2),))]
    for p_max in (0, 1, 2):
        assert stride_pass(2, p_max) == []
    assert [r.p for r in survey(3, 5)] == [3, 5]


def test_stride_pass_windows_match_p_minus_one_divisors(monkeypatch):
    # Windows that hold their own base primes (3, 5 and 7 below 50), whose
    # first index is a base prime's first strike (25 = 5 * 5, 49 = 7 * 7),
    # that sit inside the first block or start mid-block, and one wider than
    # a block at an odd offset, which the pass sieves in three blocks.
    span = sievelab._SEGMENT_SPAN
    wide = (777_777, 777_777 + 4 * span + 12_345)
    primes = primes_upto(wide[1])[1:]
    windows = [(3, 50), (25, 130), (49, 200), (1000, 1100)]
    windows += [(span + 1, span + 3001), (3 * span + 777, 3 * span + 60_000), wide]
    for p_min, p_max in windows:
        inside = primes[(primes >= p_min) & (primes <= p_max)]
        assert stride_pass(p_min, p_max) == list(p_minus_one_divisors(inside)), (p_min, p_max)
    starts = [lo for lo, _ in sievelab._odd_blocks(wide[1], begin=wide[0] // 2)]
    assert starts == [wide[0] // 2 + k * span for k in range(3)]
    assert block_starts(monkeypatch, *wide) == starts


def test_survey_sieves_from_p_min(monkeypatch):
    # An unsampled survey near the cap sieves [p_min, p_max] alone: the only
    # sieve to p_max starts at p_min's index, and no other reaches p_min.
    p_min, p_max = 10**8 - 2 * 10**5, 10**8
    sieved = []
    odd_blocks = sievelab._odd_blocks

    def spy(limit, outside=None, begin=0):
        for lo, block in odd_blocks(limit, outside, begin):
            sieved.append((limit, begin, lo))
            yield lo, block

    monkeypatch.setattr(sievelab, "_odd_blocks", spy)
    assert [r.p for r in survey(p_min, p_max)] == [n for n in range(p_min + 1, p_max, 2) if is_prime(n)]
    assert [(begin, lo) for limit, begin, lo in sieved if limit == p_max] == [(p_min // 2, p_min // 2)]
    assert max(limit for limit, _, _ in sieved if limit != p_max) < p_min


def test_stride_pass_refuses_past_the_cap_when_called(monkeypatch):
    # The refusal is _odd_blocks' own, made when the pass is called and not
    # iterated; the spy records a limit only if the sieve accepted it, and no
    # numpy constructor may allocate an element.
    sieved = []
    odd_blocks = sievelab._odd_blocks

    def spy(limit, *args, **kwargs):
        blocks = odd_blocks(limit, *args, **kwargs)
        sieved.append(limit)
        return blocks

    monkeypatch.setattr(sievelab, "_odd_blocks", spy)
    monkeypatch.setattr(sievelab, "np", capped_numpy(0))
    with pytest.raises(ResourceLimitError):
        sievelab._p_minus_one_blocks(3, sievelab.SIEVE_LIMIT + 1)
    assert sieved == []


@pytest.mark.parametrize("p", [19131877, 57395629, 86093443])
def test_p_minus_one_with_an_odd_prime_power_past_a_block(p):
    # p = 4 * 3**14 + 1, 4 * 3**15 + 1 and 2 * 3**16 + 1: a power of 3 above
    # one block's index span (2**21) divides p - 1, so a stride of that power
    # would start past the block's end.
    assert is_prime(p) and 3**14 > 2 * sievelab._SEGMENT_SPAN
    window = stride_pass(p - 50, p + 50)
    assert (p, tuple(factorize(p - 1))) in window
    for n, divisors in window:
        assert divisors == tuple(factorize(n - 1)), n
    assert list(p_minus_one_divisors([p])) == [(p, tuple(factorize(p - 1)))]


def test_p_minus_one_divisors_with_nine_prime_factors():
    # p - 1 can have nine distinct prime factors once it reaches 23# =
    # 223092870, and past 2**31 the q slots are int64: 4294967387 - 1 is
    # 2 * 2147483693, a prime factor that int32 would not hold.
    primes = [892371481, 2454021571, 2677114441, 4294967387]
    got = list(p_minus_one_divisors(primes))
    assert got == [(p, tuple(factorize(p - 1))) for p in primes]
    assert [len(divisors) for _, divisors in got] == [9, 9, 9, 2]
    assert got[-1][1] == ((2, 1), (2147483693, 1))


def test_p_minus_one_divisors_refuses_at_the_call():
    with pytest.raises(ValueError, match="p - 1 must be >= 1, got p = 1"):
        p_minus_one_divisors([1, 7])


@pytest.mark.parametrize("p", [2, 3, 7, 31, 211, 2309, 2311])
def test_slot_table_is_as_wide_as_omega_allows(monkeypatch, p):
    # The slot table has one slot for each distinct prime factor that an
    # integer <= max(p - 1) can have, and no more.  p - 1 is 1, 2, 6, 30, 210
    # and 2310, each a primorial, and 2308 lies just below one.
    widths = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, *args, **kwargs):
            if np.ndim(shape) == 1 and len(shape) == 2:
                widths.append(shape[1])
            return np.zeros(shape, *args, **kwargs)

    monkeypatch.setattr(sievelab, "np", RecordingNumpy())
    omega = max((len(factorize(n)) for n in range(2, p)), default=0)
    assert list(p_minus_one_divisors([p])) == [(p, tuple(factorize(p - 1)))]
    if p > 2:
        assert stride_pass(p, p) == [(p, tuple(factorize(p - 1)))]
    assert widths and set(widths) == {omega}


def test_segmented_matches_simple(simple_prime_flags):
    # every small limit, and the limits around the first three segment ends;
    # a segment of odd flags spans 2 * _SEGMENT_SPAN integers
    ends = [2 * k * sievelab._SEGMENT_SPAN + d for k in (1, 2, 3) for d in range(-2, 3)]
    for limit in [*range(3000), *ends]:
        assert np.array_equal(prime_flags(limit), simple_prime_flags(limit)[1::2]), limit


def test_prime_count_bound():
    # _collect sizes each side by _prime_count_bound(x); it must hold pi(x).
    # The bound is tightest at x = 113, where pi(x) = 30 and 1.25506 x / ln x
    # is 30.003.
    top = 2 * 10**5
    pi = np.searchsorted(primes_upto(top), np.arange(top + 1), side="right")
    slack = [sievelab._prime_count_bound(x) - int(pi[x]) for x in range(2, top + 1)]
    assert min(slack) >= 0
    assert slack[113 - 2] == 2
    assert sievelab._prime_count_bound(1) == 0


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
    with pytest.raises(ValueError, match="non-prime 33"):
        PrimeSetSpec.explicit(30, [2, 33])  # a composite above x is refused too
    with pytest.raises(ValueError):
        PrimeSetSpec(x=0, kind="explicit", members=())
    spec = PrimeSetSpec.explicit(30, [5, 2, 3, 101])  # 101 > x is dropped
    assert spec.realize().tolist() == [2, 3, 5]
    with pytest.raises(ValueError, match="unknown prime set kind"):
        PrimeSetSpec(x=10, kind="bogus").realize()


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param(dict(x=10, kind="threshold"), "u must be >= 1, got None", id="threshold-without-u"),
        pytest.param(dict(x=1000, kind="threshold", u=0.5), "u must be >= 1, got 0.5", id="threshold-u-below-1"),
        pytest.param(dict(x=1000, kind="threshold", u=math.nan), "u must be >= 1, got nan", id="threshold-u-nan"),
        pytest.param(dict(x=10, kind="residue"), "divisor index None out of range for r=None", id="residue-without-field"),
        pytest.param(dict(x=10, kind="residue", field=field_spec(7), divisor_index=5), "divisor index 5 out of range for r=2", id="residue-index-out-of-range"),
        pytest.param(dict(x=10, kind="explicit"), "explicit prime set contains non-prime None", id="explicit-without-members"),
        pytest.param(dict(x=30, kind="explicit", members=(4, 9)), "explicit prime set contains non-prime 4", id="explicit-composites"),
        pytest.param(dict(x=10, kind="bogus"), "unknown prime set kind 'bogus'", id="unknown-kind"),
    ],
)
def test_prime_set_spec_refuses_at_construction(monkeypatch, fields, message):
    # The constructor itself refuses what the classmethods refuse, before any
    # realize() and before any sieve block is asked for.
    asked = []
    monkeypatch.setattr(sievelab, "_odd_blocks", lambda *args, **kwargs: asked.append(args))
    with pytest.raises(ValueError) as info:
        PrimeSetSpec(**fields)
    assert str(info.value) == message
    assert asked == []


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: PrimeSetSpec.threshold(10.5, 2), "x must be >= 1, got 10.5", id="float-x"),
        pytest.param(lambda: PrimeSetSpec.threshold(np.int64(1000), 2), "x must be >= 1, got np.int64(1000)", id="numpy-x"),
        pytest.param(lambda: PrimeSetSpec.residue(100, field_spec(7), 1.0), "divisor index 1.0 out of range for r=2", id="float-divisor-index"),
        pytest.param(lambda: PrimeSetSpec.residue(100, field_spec(7), True), "divisor index True out of range for r=2", id="bool-divisor-index"),
        pytest.param(lambda: PrimeSetSpec(x=30, kind="explicit", members=(2.0, 3)), "explicit prime set contains non-prime 2.0", id="float-member"),
        pytest.param(lambda: PrimeSetSpec(x=30, kind="explicit", members=[2, 3]), "explicit prime set members must be a tuple, got [2, 3]", id="list-members"),
    ],
)
def test_prime_set_spec_refuses_wrong_types_at_construction(monkeypatch, make, message):
    # A field of the wrong type is a ValueError when the spec is made, not a
    # TypeError or AttributeError from a later sieve or cache.
    asked = []
    monkeypatch.setattr(sievelab, "_odd_blocks", lambda *args, **kwargs: asked.append(args))
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
    assert asked == []


def test_explicit_members_are_checked_once(monkeypatch):
    # realize() asks _membership for the test that the spec was checked by
    # when it was made; the members' primality is not tested again.
    checked = []
    monkeypatch.setattr(sievelab, "is_prime", lambda n: checked.append(n) or is_prime(n))
    sievelab._membership.cache_clear()
    sievelab._split.cache_clear()
    spec = PrimeSetSpec.explicit(100, [5, 3, 2, 101])
    assert spec.realize().tolist() == [2, 3, 5]
    assert checked == [2, 3, 5, 101]


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
    # Against the per-prime pow filter: p <= x (t = p is a candidate), p > x,
    # p = x, and p on both sides of the _pow_mod bound.
    for x, p in ((500, 31), (10**4, 1009), (200, 1009), (31, 31), (2 * 10**5, 1000003), (10**4, 4611686018427388039)):
        f = field_spec(p)
        for i, (q, _) in enumerate(f.divisors):
            expected = [t for t in primes_upto(x).tolist() if t % p and pow(t, (p - 1) // q, p) == 1]
            assert PrimeSetSpec.residue(x, f, i).realize().tolist() == expected, (x, p, q)


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


def strike_oracle(spec):
    """Psi by striking each outside prime's multiples over the whole array."""
    keep = np.ones(spec.x + 1, dtype=bool)
    for p in spec.complement().tolist():
        keep[p::p] = False
    return int(np.count_nonzero(keep[1:]))


def test_psi_blocked_strike_matches_unblocked():
    # x's odd flags span two blocks, so every outside prime <= sqrt(x) strikes
    # at a nonzero block offset.  The first two sets hold 2 and keep the even
    # numbers; the last two strike them (2 is a non-residue mod 13).
    x = 3 * sievelab._SEGMENT_SPAN + 12345
    specs = [
        PrimeSetSpec.residue(x, field_spec(31), 0),
        PrimeSetSpec.explicit(x, [2, 3, 5, 7, 1009, 1777, 3_000_017]),
        PrimeSetSpec.explicit(x, [3, 5, 7]),
        PrimeSetSpec.residue(x, field_spec(13), 0),
    ]
    for spec in specs:
        assert np.count_nonzero(spec.complement() <= math.isqrt(x)) > 100  # the blocked strikers
        assert psi_count(spec) == strike_oracle(spec), spec


def test_psi_counts_big_primes_like_striking():
    # The outside primes above sqrt(x) are counted, not struck: with x around
    # 1009**2 the split between the two kinds sits at p = isqrt(x), and 1009
    # moves from one side to the other.
    for x in (3 * sievelab._SEGMENT_SPAN + 12345, 1009**2 - 1, 1009**2, 1009**2 + 1):
        all_but_1009 = [p for p in primes_upto(x).tolist() if p != 1009]
        specs = [
            PrimeSetSpec.threshold(x, 2.0),
            PrimeSetSpec.threshold(x, 1.3),
            PrimeSetSpec.explicit(x, all_but_1009),
        ]
        for spec in specs:
            assert psi_count(spec) == strike_oracle(spec), spec


def test_psi_resource_cap():
    with pytest.raises(ResourceLimitError):
        psi_count(PrimeSetSpec.threshold(10**8 + 1, 2.0))


def psi_dfs(spec):
    """Oracle: visit every P-smooth n <= x once, as products of the primes of P
    taken in increasing order with multiplicity."""
    primes = [int(p) for p in spec.realize()]

    def rec(j0, rem):
        total = 1
        for j in range(j0, len(primes)):
            p = primes[j]
            if p > rem:
                break
            q = rem // p
            while q >= 1:
                total += rec(j + 1, q)
                q //= p
        return total

    return rec(0, spec.x)


def oracle_specs(x, rng):
    """Threshold, explicit and residue sets at x, some with members above sqrt(x)."""
    pool = [int(p) for p in primes_upto(x)]
    specs = [PrimeSetSpec.threshold(x, u) for u in (1.0, 1.5, 2.0, rng.uniform(1.0, 4.0))]
    specs.append(PrimeSetSpec.explicit(x, []))
    specs.append(PrimeSetSpec.explicit(x, rng.sample(pool, min(len(pool), rng.randint(1, 12)))))
    f = field_spec(rng.choice([7, 13, 31, 61, 211]))
    specs.append(PrimeSetSpec.residue(x, f, rng.randrange(f.r)))
    return specs


def test_psi_matches_dfs_oracle():
    rng = random.Random(20260418)
    cases = [spec for x in range(1, 201) for spec in oracle_specs(x, rng)]
    for x in sorted(rng.randrange(201, 10**6 + 1) for _ in range(3)):
        cases += oracle_specs(x, rng)
    for spec in cases:
        assert psi_count(spec) == psi_dfs(spec), spec


def capped_numpy(limit):
    """numpy, with its array constructors failing past limit elements."""

    class CappedNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("zeros", "ones", "empty", "full"):
                return attr

            def guarded(shape, *args, **kwargs):
                assert math.prod(np.atleast_1d(shape)) <= limit, f"np.{name}({shape}) past {limit}"
                return attr(shape, *args, **kwargs)

            return guarded

    return CappedNumpy()


def test_every_sieve_refuses_past_the_cap(monkeypatch):
    # Each call below once asked prime_flags for 10**12 flags. With numpy's
    # allocators guarded, an uncapped sieve fails here instead of exhausting
    # memory.
    monkeypatch.setattr(sievelab, "np", capped_numpy(10**8 + 1))
    x = 10**12
    for call in (
        lambda: primes_upto(x),
        lambda: mertens_sum(PrimeSetSpec.threshold(x, 1), 0, 10),
        lambda: complement_product(PrimeSetSpec.explicit(x, [2])),
        lambda: PrimeSetSpec.residue(x, field_spec(7), 0).realize(),
        lambda: PrimeSetSpec.threshold(x, 2).realize(),
        lambda: PrimeSetSpec.explicit(x, [2]).realize(),
    ):
        with pytest.raises(ResourceLimitError):
            call()


def test_streamed_sieves_hold_no_flag_per_odd_number(monkeypatch):
    # density_experiment, the prime-set split and psi_count stream the
    # odd-number flags in blocks, so none allocates an array of (x + 1) // 2
    # elements or more.
    x = 7 * sievelab._SEGMENT_SPAN + 12345
    capped = capped_numpy((x + 1) // 2 - 1)
    with monkeypatch.context() as m:
        m.setattr(sievelab, "np", capped)
        m.setattr(experiments, "np", capped)
        for l_values in ([2.0, 3.0], [150.0]):
            density_experiment(x, l_values)
    for spec in (
        PrimeSetSpec.threshold(x, 2),
        PrimeSetSpec.residue(x, field_spec(31), 0),
        PrimeSetSpec.explicit(x, [2, 3, 5, 7]),
        PrimeSetSpec.explicit(x, [3, 5, 7]),
    ):
        sievelab._split.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(sievelab, "np", capped)
            spec.complement()
            psi_count(spec)
            mertens_sum(spec, 1, x)
            complement_product(spec)


def test_primes_upto_and_survey_hold_no_flag_per_odd_number(monkeypatch):
    # primes_upto streams the sieve's blocks into its int64 primes, so
    # neither it nor a sampled survey, which lists every prime up to p_max,
    # allocates an array of (x + 1) // 2 elements or more.
    x = 7 * sievelab._SEGMENT_SPAN + 12345
    flags = prime_flags(x)
    capped = capped_numpy((x + 1) // 2 - 1)
    monkeypatch.setattr(sievelab, "np", capped)
    monkeypatch.setattr(experiments, "np", capped)
    primes = primes_upto(x)
    rows = survey(3, x, sample=40)
    assert primes[0] == 2 and np.array_equal(primes[1:], 2 * np.flatnonzero(flags) + 1)
    assert [r.p for r in rows] == primes[1 :: -(-(primes.size - 1) // 40)].tolist()


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


def test_mertens_sum_matches_per_prime_terms():
    # mertens_sum takes its terms as float64 1.0 / p in chunks; each must be
    # Python's 1.0 / int(p) and the fsum the same.  At 4e6 the quadratic
    # residues mod 31 span two chunks.
    for x in (10**5, 4 * 10**6):
        spec = PrimeSetSpec.residue(x, field_spec(31), 0)
        arr = spec.realize()
        for lo, hi in ((1, x), (x**0.1, x**0.5), (2, 3)):
            expected = math.fsum(1.0 / int(p) for p in arr if lo < p <= hi)
            assert mertens_sum(spec, lo, hi).hex() == expected.hex(), (x, lo, hi)
    assert arr.size > sievelab._SEGMENT_SPAN // 8


def test_chunked_product_matches_whole_array_prod():
    # complement_product chains np.prod(chunk, initial=acc) over chunks.  That
    # equals np.prod of the whole array bit for bit only while numpy reduces
    # float multiplication in order, which this pins for chunk sizes that do
    # not divide the array.
    terms = 1.0 - 1.0 / primes_upto(10**6).astype(np.float64)
    whole = float(np.prod(terms))
    for size in (5, 13, 1000, 4099, 65537, terms.size - 1):
        assert terms.size % size
        acc = 1.0
        for lo in range(0, terms.size, size):
            acc = np.prod(terms[lo : lo + size], initial=acc)
        assert float(acc).hex() == whole.hex(), size
    # And complement_product itself, over a complement of several chunks.
    spec = PrimeSetSpec.explicit(2 * 10**6, [2, 3])
    comp = spec.complement()
    assert comp.size > sievelab._SEGMENT_SPAN // 8
    assert complement_product(spec).hex() == float(np.prod(1.0 - 1.0 / comp.astype(np.float64))).hex()


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
    with pytest.raises(ValueError):
        dickman_rho(20 + 1e-9)
    # nan fails the domain check before the table is built.
    sievelab._rho_blocks.cache_clear()
    with pytest.raises(ValueError, match="dickman_rho requires 0 <= u <= 20"):
        dickman_rho(math.nan)
    assert sievelab._rho_blocks.cache_info().currsize == 0


def test_rho_at_the_top_of_its_domain():
    # u = 20 reads the last grid point of the last block.
    top = dickman_rho(20.0)
    assert top > 0
    assert top == float(sievelab._rho_blocks()[19][-1])
    assert math.isclose(top, dickman_rho(20 - 1e-9), rel_tol=1e-6)


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
    for epsilon in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            sieve_bound_check(spec, 2.0, 4.0, epsilon)


def test_sieve_bound_check_caps_before_sieving(monkeypatch, capsys):
    # Past SIEVE_LIMIT the check must refuse before anything sieves to x or
    # x**(1/u): 1e12 for x = 1e12, u = 1, and 1e9 for x = 1e18, u = 2.  The
    # refusal is _odd_blocks' own, so the spy records a limit only if the
    # sieve accepted it.
    sieved = []
    odd_blocks = sievelab._odd_blocks

    def spy(limit, *args, **kwargs):
        blocks = odd_blocks(limit, *args, **kwargs)
        sieved.append(limit)
        return blocks

    monkeypatch.setattr(sievelab, "_odd_blocks", spy)
    for x, u, v in ((10**12, 1.0, 2.0), (10**18, 2.0, 10.0)):
        with pytest.raises(ResourceLimitError):
            sieve_bound_check(PrimeSetSpec.threshold(x, u), u, v, 0.1)
        assert run(["sieve", "check", "--x", str(x), "--u", str(u), "--v", str(v)]) == 1
    assert sieved == []
    assert capsys.readouterr().err.startswith("error:")


def test_sieve_bound_check_sieves_once(monkeypatch):
    # mertens_sum, psi_count and complement_product share one sieve of [0, x]
    # for every kind of prime set.  The prime sieve is _odd_blocks with no
    # outside primes; its other passes find the base primes, up to sqrt(x).
    limits = []
    odd_blocks = sievelab._odd_blocks

    def spy(limit, outside=None):
        if outside is None:
            limits.append(limit)
        return odd_blocks(limit, outside)

    monkeypatch.setattr(sievelab, "_odd_blocks", spy)
    specs = [
        PrimeSetSpec.threshold(10**7, 2),
        PrimeSetSpec.residue(10**6, field_spec(31), 0),
        PrimeSetSpec.explicit(10**6, [2, 3, 5, 7, 1009]),
    ]
    psis = []
    for spec in specs:
        sievelab._split.cache_clear()
        limits.clear()
        psis.append(sieve_bound_check(spec, 1, 2, 0.1).psi)
        assert [n for n in limits if n > math.isqrt(spec.x)] == [spec.x], spec
    assert psis[0] == 3362157


def test_hypothesis_sum_is_plain_mertens_sum():
    spec = PrimeSetSpec.threshold(10**4, 2.0)
    rep = sieve_bound_check(spec, 2.0, 4.0, 0.05)
    manual = math.fsum(
        1.0 / int(p)
        for p in spec.realize()
        if (10**4) ** (1 / 4.0) < p <= (10**4) ** (1 / 2.0)
    )
    assert math.isclose(rep.hypothesis_sum, manual)

"""Desk-scale sieve diagnostics: exact smooth counts, Mertens sums, Dickman rho.

Each prime set P is one sieve of [0, x], split into P and its complement as
it streams: each block's primes go straight to their side, so the split
holds the two sides and one block.  Psi(x; P) counts integers up to x all of
whose prime factors lie in P, computed exactly by striking out the multiples
of the primes outside P up to sqrt(x) and subtracting the survivors that the
larger ones divide; the inclusion-exclusion prediction
x * prod_{p not in P} (1 - 1/p) and the harmonic hypothesis sum are
evaluated from the same split, a chunk at a time.
Every sieve is one private generator, _odd_blocks, which keeps one flag per
odd number, strikes them one _SEGMENT_SPAN block at a time from any start
and refuses limits over SIEVE_LIMIT; its base primes come from itself, run
to sqrt(limit).  No other module reads its blocks.  primes_upto and the
split stream them through one collector, psi_count strikes its own, and
_one_mod_counts counts the primes p = 1 mod q for density_experiment, so
none holds an x-sized flag array; only prime_flags copies them into one, and
modcore.is_prime keeps that copy below 2**17 as its table.  One kernel,
_divisor_runs, factors p - 1 for many primes at once and yields (p, divisors),
so no caller sees its arrays; its two sources differ only in how they find
the odd primes q dividing each p - 1.  _p_minus_one_blocks reads them off
the sieve blocks of [p_min, p_max] by strides: an unsampled survey window's.
p_minus_one_divisors trial-divides a given list of primes: a sampled
survey's, which would otherwise factor every prime below p_max.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modcore import _POW_MOD_MAX, FieldSpec, _pow_mod, is_prime

# Sieves stream 1 MiB blocks, but prime_flags' odd flags (50 MB at 1e8),
# _collect's primes (46 MB) and a sampled survey's primes_upto(p_max) grow with x.
SIEVE_LIMIT = 10**8

# 1 MiB of odd flags per segment (2 MiB of integers) fits a core's L2 cache.
# On a 2-vCPU Xeon VM with 2 MiB of L2 per core, prime_flags(1e8) took a
# median 0.14-0.16 s with 1 MiB segments, 0.18-0.20 s with 512 KiB and
# 0.16-0.21 s with 2 MiB.  It is also the one block that every reader of the
# streaming sieve holds, so it bounds their working memory.
_SEGMENT_SPAN = 1 << 20

# _one_mod_counts slices each block once per stride up to this; slicing every
# q of density_experiment(1e7, [150]) made it nine times slower.  Larger
# strides are gathered _STRIDE_CHUNK at a time, so no temporary grows with
# pi(x): a chunk of strides above 4096 gathers under half a block of positions.
_BLOCKED_STRIDE_MAX = 4096
_STRIDE_CHUNK = 1 << 14


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the exact-computation caps."""


def _odd_count(limit: int) -> int:
    """(limit + 1) // 2, the number of odd n <= limit, once the sieve accepts limit.

    Raises ValueError for limit < 0 and ResourceLimitError for limit > SIEVE_LIMIT.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(f"sieving to {limit} exceeds the cap {SIEVE_LIMIT:.0e}")
    return (limit + 1) // 2


def _odd_blocks(limit: int, outside=None, begin: int = 0):
    """Sieve the odd n <= limit one _SEGMENT_SPAN block of flags at a time
    (index i <-> n = 2i + 1), from index begin on, and yield (lo, block), lo
    the block's first index.

    With outside None this is the prime sieve: every odd prime p <= sqrt(limit)
    strikes its odd multiples from p * p, so p keeps its flag, and 1 is struck.
    Otherwise outside lists primes <= sqrt(limit), ascending; each odd one
    strikes from p itself and 1 is kept, so a kept n has no such prime
    factor.  The blocks are views of one reused array, so a block is valid
    until the next is asked for.  The limit is checked here, before any
    allocation and before the first block is asked for.
    """
    n = _odd_count(limit)
    root = math.isqrt(limit)
    if outside is None:
        # The odd base primes come from the same sieve, run to sqrt(limit).
        strikers = primes_upto(root)[1:].tolist() if root >= 3 else []
        firsts = [p * p // 2 for p in strikers]
    else:
        strikers = [p for p in outside.tolist() if p != 2]
        firsts = [p // 2 for p in strikers]
    buf = np.empty(min(n, _SEGMENT_SPAN), dtype=bool)

    def blocks():
        for lo in range(begin, n, _SEGMENT_SPAN):
            block = buf[: n - lo]
            block[:] = True
            if lo == 0 and outside is None:
                block[0] = False
            # p's odd multiples sit at the indices i = p // 2 (mod p).
            for p, first in zip(strikers, firsts):
                start = first - lo
                if start >= _SEGMENT_SPAN:
                    break
                block[max(start, (p // 2 - lo) % p) :: p] = False
            yield lo, block

    return blocks()


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array f of (limit + 1) // 2 odd-number flags: f[i] iff 2i + 1 is
    prime.  Copied block by block from the sieve _odd_blocks; 2 has no flag.

    Raises ResourceLimitError, before allocating, when limit > SIEVE_LIMIT.
    """
    flags = np.empty(_odd_count(limit), dtype=bool)
    for lo, block in _odd_blocks(limit):
        flags[lo : lo + block.size] = block
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64; no flag array of limit's size is held."""
    return _collect(limit)[0]


def _collect(limit: int, inside=None) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= limit as two ascending int64 arrays, those that inside
    (primes -> boolean mask) keeps and the rest; with inside None, all and none.
    Each block's primes go straight to their side as the sieve streams."""
    blocks = _odd_blocks(limit)
    # Each side is allocated for every prime <= limit; the pages never written
    # are never touched, and resize() gives them back.
    parts = tuple(np.empty(_prime_count_bound(limit), dtype=np.int64) for _ in range(2))
    sizes = [0, 0]
    for lo, block in blocks:
        primes = _flagged_primes(lo, block, limit)
        mask = None if inside is None else inside(primes)
        sides = (primes,) if mask is None else (primes[mask], primes[~mask])
        for side, arr in enumerate(sides):
            parts[side][sizes[side] : sizes[side] + arr.size] = arr
            sizes[side] += arr.size
    for arr, size in zip(parts, sizes):
        arr.resize(size, refcheck=False)
    return parts


def _flagged_primes(lo: int, flags: np.ndarray, limit: int) -> np.ndarray:
    """The primes of a block of odd flags whose first index is lo, as int64.

    Index 0 stands for 1, so in the first block it holds the place of 2 when
    limit >= 2 (flags is written there).  The arithmetic is done in place.
    """
    if lo == 0:
        flags[:1] = limit >= 2
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes += lo
    primes *= 2
    primes += 1
    if lo == 0:
        primes[:1] = 2
    return primes


def _prime_count_bound(x: int) -> int:
    """An upper bound on pi(x): pi(x) < 1.25506 x / ln x for x > 1
    (Rosser and Schoenfeld 1962, Corollary 1), with 2 to spare for rounding."""
    return int(1.25506 * x / math.log(x)) + 2 if x > 1 else 0


def p_minus_one_divisors(primes):
    """(p, divisors) for each p in primes, in order, where divisors holds the
    (q, alpha) pairs of p - 1 with q increasing: FieldSpec's divisors.

    A vectorized trial division, which refuses a p < 2 at the call: each odd
    prime q <= sqrt(max p - 1) is found by one rem % q over the whole array,
    so the cost is pi(sqrt(max p)) array passes the size of primes."""
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size and int(primes.min()) < 2:
        raise ValueError(f"p - 1 must be >= 1, got p = {int(primes.min())}")
    rem = primes - 1
    odd_qs = primes_upto(math.isqrt(int(primes.max(initial=2)) - 1))[1:].tolist()
    return _divisor_runs(primes, rem, ((q, np.flatnonzero(rem % q == 0)) for q in odd_qs))


def _p_minus_one_blocks(p_min: int, p_max: int):
    """Yield (p, divisors) for each odd prime p in [p_min, p_max], in order, as
    p_minus_one_divisors does, one sieve block at a time from p_min's index,
    so no block below p_min is sieved; p_max is checked at the call, before
    any allocation, as _odd_blocks checks it.

    Index i stands for p = 2i + 1, so an odd q <= sqrt(p_max - 1) divides
    p - 1 = 2i iff it divides i: at the flagged indices of stride q from
    (-lo) mod q, found with no division.  A block's rank array is freed with
    its last q, before a caller builds rows while the pass is suspended."""
    blocks = _odd_blocks(p_max, begin=p_min // 2)  # p = 2i + 1 >= p_min iff i >= p_min // 2
    odd_qs = primes_upto(math.isqrt(max(p_max - 1, 0)))[1:].tolist()

    def strides(lo, block):
        rank = np.cumsum(block, dtype=np.int32) - 1  # a flagged index's place among the primes
        for q in odd_qs:
            start = (-lo) % q
            yield q, rank[start::q][block[start::q]]

    def factored():
        for lo, block in blocks:
            rem = 2 * (np.flatnonzero(block) + lo)
            yield from _divisor_runs(rem + 1, rem, strides(lo, block))

    return factored()


def _divisor_runs(primes, rem, found):
    """Yield (p, divisors) for each p in primes, in order: the one factoring
    kernel of both sources.  rem holds each p - 1 (int64, divided in place),
    and found yields (q, idx) for each odd prime q <= sqrt(max rem),
    ascending, idx the places where q divides rem.

    2 goes by rem's lowest set bit, each q**alpha is divided out at its idx,
    and a rem left above 1 is the one prime factor above the bound.  The
    pairs fill each p's row of the slot table in q order before any is
    yielded, a slot for each distinct prime factor an integer <= max(rem) can
    have, and memoryviews yield them as Python ints without a list."""
    top = int(rem.max(initial=1))
    primorials = itertools.accumulate(filter(is_prime, itertools.count(2)), lambda a, b: a * b)  # 2, 2 * 3, ...
    width = sum(1 for _ in itertools.takewhile(lambda n: n <= top, primorials))
    q_slots = np.zeros((rem.size, width), dtype=np.int32 if top < 2**31 else np.int64)
    alpha_slots = np.zeros((rem.size, width), dtype=np.int8)
    counts = np.zeros(rem.size, dtype=np.int8)

    def put(own, q, alpha):
        slot = counts[own]
        q_slots[own, slot] = q
        alpha_slots[own, slot] = alpha
        counts[own] = slot + 1

    alpha = np.frexp(rem & -rem)[1] - 1  # rem & -rem = 2**alpha
    rem >>= alpha
    own = np.flatnonzero(alpha)
    put(own, 2, alpha[own])
    for q, own in found:
        if own.size == 0:
            continue
        sub, alpha = rem[own] // q, np.ones(own.size, dtype=np.int8)
        while (hit := sub % q == 0).any():
            sub[hit] //= q
            alpha += hit
        rem[own] = sub
        put(own, q, alpha)
    own = np.flatnonzero(rem > 1)
    put(own, rem[own], 1)
    filled = np.arange(width) < counts[:, None]
    pairs = zip(memoryview(q_slots[filled]), memoryview(alpha_slots[filled]))
    del q_slots, alpha_slots, filled
    for p, count in zip(memoryview(primes), memoryview(counts)):
        yield p, tuple(itertools.islice(pairs, count))


@dataclass(frozen=True)
class PrimeSetSpec:
    """A subset of the primes <= x: threshold (p <= x**(1/u)), residue
    (q_i-th power residues mod p), or an explicit list.

    A spec is checked when it is made, by the constructor or a classmethod:
    __post_init__ checks x and that members is a tuple (the caches hash it),
    and _membership the kind and its parameters, each refusal a ValueError
    raised before anything is sieved.  x, divisor_index and each member must
    be of type int, not a float, a bool or a numpy integer.
    """

    x: int
    kind: str
    u: float | None = None
    field: FieldSpec | None = None
    divisor_index: int | None = None
    members: tuple[int, ...] | None = None

    def __post_init__(self):
        if type(self.x) is not int or self.x < 1:
            raise ValueError(f"x must be >= 1, got {self.x!r}")
        if self.members is not None and type(self.members) is not tuple:
            raise ValueError(f"explicit prime set members must be a tuple, got {self.members!r}")
        _membership(self)

    @classmethod
    def threshold(cls, x: int, u: float) -> "PrimeSetSpec":
        """The primes p <= x**(1/u); u >= 1."""
        return cls(x=x, kind="threshold", u=float(u))

    @classmethod
    def residue(cls, x: int, field: FieldSpec, divisor_index: int) -> "PrimeSetSpec":
        """The primes t <= x with t**((p - 1) / q) = 1 mod p, for the
        divisor_index-th prime q of field's p - 1."""
        return cls(x=x, kind="residue", field=field, divisor_index=divisor_index)

    @classmethod
    def explicit(cls, x: int, primes) -> "PrimeSetSpec":
        """The given primes, sorted and deduplicated; those above x are kept
        but never realized."""
        return cls(x=x, kind="explicit", members=tuple(sorted({int(p) for p in primes})))

    def realize(self) -> np.ndarray:
        """The realized prime set, ascending (read-only array)."""
        return _split(self)[0]

    def complement(self) -> np.ndarray:
        """Primes <= x missing from the realized set, ascending (read-only array)."""
        return _split(self)[1]


# realize() and complement() split one sieve of [0, x], so the mertens_sum,
# psi_count and complement_product of one check share it.
@lru_cache(maxsize=1)
def _split(spec: PrimeSetSpec) -> tuple[np.ndarray, np.ndarray]:
    parts = _collect(spec.x, _membership(spec))
    for arr in parts:
        arr.flags.writeable = False
    return parts


# Made at construction and asked for again by _split, so an explicit set's
# members are checked once, not again when the spec is first realized.
@lru_cache(maxsize=1)
def _membership(spec: PrimeSetSpec):
    """The set's membership test: ascending int64 primes -> boolean mask.

    Each branch checks the fields it reads before it builds the test, and an
    unknown kind is refused; PrimeSetSpec.__post_init__ calls it, so no bad
    spec is made."""
    if spec.kind == "threshold":
        if spec.u is None or not spec.u >= 1:  # nan fails it too
            raise ValueError(f"u must be >= 1, got {spec.u}")
        limit = math.exp(math.log(spec.x) / spec.u) if spec.x > 1 else 1.0
        cut = int(limit * (1.0 + 1e-12))
        return lambda primes: primes <= cut
    if spec.kind == "residue":
        field = spec.field
        r = field.r if isinstance(field, FieldSpec) else None
        if r is None or type(spec.divisor_index) is not int or spec.divisor_index not in range(r):
            raise ValueError(f"divisor index {spec.divisor_index} out of range for r={r}")
        p = field.p
        q, _ = field.divisors[spec.divisor_index]
        exp = (p - 1) // q

        def inside(primes):
            # One pow per residue class of the block, all in one _pow_mod
            # call while it is exact; class 0 (t = p) gives pow(0, exp, p) = 0.
            residues = primes % p
            classes = np.unique(residues)
            if p <= _POW_MOD_MAX:
                hits = classes[_pow_mod(classes, exp, p) == 1]
            else:
                hits = [c for c in classes.tolist() if pow(c, exp, p) == 1]
            return np.isin(residues, hits)

        return inside
    if spec.kind == "explicit":
        for p in (None,) if spec.members is None else spec.members:
            if type(p) is not int or not is_prime(p):
                raise ValueError(f"explicit prime set contains non-prime {p!r}")
        return lambda primes: np.isin(primes, spec.members)
    raise ValueError(f"unknown prime set kind {spec.kind!r}")


def psi_count(spec: PrimeSetSpec) -> int:
    """Exact number of integers <= x whose prime factors all lie in the set.

    Counts n = 1 as well.  Strikes out the odd multiples of every odd outside
    prime <= sqrt(x), one _SEGMENT_SPAN block of odd-number flags at a time,
    so the work is bounded by x and the memory by a block.  Unless 2 is an
    outside prime <= sqrt(x), an even n = 2**a * m (m odd) is kept with m,
    so the kept even n are the kept odd m <= x >> a, a >= 1.  A survivor has
    at most one prime factor above sqrt(x), so those an outside prime
    p > sqrt(x) would strike are the k * p with k <= x // p and k still kept:
    they are counted and subtracted, not struck.
    """
    x = spec.x
    outside = spec.complement()
    root = math.isqrt(x)
    split = int(np.searchsorted(outside, root, side="right"))
    evens = split == 0 or outside[0] != 2
    # The odd m <= y are the first (y + 1) // 2 flags.
    cuts = [((x >> a) + 1) // 2 for a in range(1, x.bit_length())] if evens else []
    odd = even = 0
    for lo, block in _odd_blocks(x, outside[:split]):
        if lo == 0:  # root <= 1e4 lies in the first block
            k = 2 * np.flatnonzero(block[: (root + 1) // 2]) + 1
        for cut in cuts:
            if lo < cut <= lo + block.size:
                even += odd + int(np.count_nonzero(block[: cut - lo]))
        odd += int(np.count_nonzero(block))
    # The kept k <= sqrt(x): the odd ones, and 2**a times them when evens are kept.
    k = np.concatenate([k << a for a in range(root.bit_length() if evens else 1)])
    struck = np.searchsorted(outside[split:], x // k[k <= root], side="right").sum()
    return int(odd + even - struck)


def _one_mod_counts(x: int, qs: np.ndarray) -> tuple[int, np.ndarray]:
    """pi(x), and per prime q of qs (ascending) the number of primes p <= x
    with p = 1 mod q, read off the prime sieve's blocks as they stream.

    Every odd prime is 1 mod 2, and for odd q an odd prime 2i + 1 is 1 mod q
    iff q divides i: q's count is that of the flags at stride q, whose first
    hit is at index q, as the flag of 1 is never set.  Each block slices the
    strides up to _BLOCKED_STRIDE_MAX and gathers the larger ones below its end.
    """
    k = int(qs.size > 0 and qs[0] == 2)  # q = 2 is counted apart
    hits = np.zeros(qs.size, dtype=np.int64)
    odd, odd_hits = qs[k:], hits[k:]
    small = odd[: int(np.searchsorted(odd, _BLOCKED_STRIDE_MAX, side="right"))].tolist()
    tallies = [0] * len(small)
    count = 1  # 2
    for lo, block in _odd_blocks(x):
        count += int(np.count_nonzero(block))
        for i, m in enumerate(small):
            tallies[i] += np.count_nonzero(block[(-lo) % m :: m])
        end = int(np.searchsorted(odd, lo + block.size))
        for c in range(len(small), end, _STRIDE_CHUNK):
            d = min(c + _STRIDE_CHUNK, end)
            odd_hits[c:d] += _stride_hits(block, lo, odd[c:d])
    odd_hits[: len(small)] = tallies
    hits[:k] = count - 1
    return count, hits


def _stride_hits(block: np.ndarray, lo: int, strides: np.ndarray) -> np.ndarray:
    """Per stride m, the number of set flags at the block indices i with
    lo + i = 0 mod m: i = first, first + m, ... below the block's end.

    One gather serves every stride: the positions run through the strides in
    turn, as one cumulative sum of steps that jumps back to each stride's
    first index, and each hit is charged to the stride whose run holds it.
    Only the positions and their flags are block-sized; the rest is per
    stride or per hit.
    """
    first = (-lo) % strides
    count = (block.size - 1 - first) // strides + 1  # 0 when first is past the end
    starts = np.cumsum(count) - count
    hit = count > 0
    last = first[hit] + (count[hit] - 1) * strides[hit]
    pos = np.repeat(strides, count)
    pos[starts[hit]] = first[hit] - np.concatenate(([0], last[:-1]))
    hits = np.flatnonzero(block[np.cumsum(pos, out=pos)])
    # A stride with no positions shares its start with the next one; side
    # "right" charges the hit to the last of them, the one that has positions.
    return np.bincount(np.searchsorted(starts, hits, side="right") - 1, minlength=strides.size)


def mertens_sum(spec: PrimeSetSpec, lo: float, hi: float) -> float:
    """Sum of 1/p over realized primes in (lo, hi]; empty ranges give 0."""
    if lo >= hi:
        return 0.0
    arr = spec.realize()
    hi = min(float(hi), float(spec.x))
    a = int(np.searchsorted(arr, lo, side="right"))
    b = int(np.searchsorted(arr, hi, side="right"))
    # 1.0 / p in float64 is Python's 1.0 / int(p) for p < 2**53, and fsum is
    # correctly rounded, so the chunks change neither the terms nor the sum.
    terms = ((1.0 / c).tolist() for c in _float_chunks(arr[a:b]))
    return math.fsum(itertools.chain.from_iterable(terms))


def complement_product(spec: PrimeSetSpec) -> float:
    """prod (1 - 1/p) over the primes <= x outside the realized set."""
    # numpy multiplies a float reduction in order, so chaining the chunks
    # through initial= gives np.prod over the whole array bit for bit.
    acc = 1.0
    for c in _float_chunks(spec.complement()):
        acc = np.prod(1.0 - 1.0 / c, initial=acc)
    return float(acc)


def _float_chunks(arr: np.ndarray):
    """arr as float64, in chunks of one _SEGMENT_SPAN of bytes each."""
    step = _SEGMENT_SPAN // 8
    for lo in range(0, arr.size, step):
        yield arr[lo : lo + step].astype(np.float64)


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
    if not 0 <= u <= _RHO_UMAX:  # nan fails it too
        raise ValueError(f"dickman_rho requires 0 <= u <= {_RHO_UMAX}, got {u}")
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - math.log(u)
    blocks = _rho_blocks()
    k = min(int(math.floor(u)), _RHO_UMAX - 1)
    arr = blocks[k]
    frac = (u - k) * _RHO_STEPS
    j = min(int(frac), _RHO_STEPS - 1)  # u = 20 gives w = 1, the last grid point
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
    the sieve prediction; v outside ln(x)/(1000 ln ln x) is flagged, not refused.

    Raises ValueError, before any sieve, unless u >= 1, u <= v < inf and
    0 < epsilon < inf (so nan fails each); x past SIEVE_LIMIT is refused by
    the sieve itself before it allocates anything."""
    if not u >= 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if not u <= v < math.inf:
        raise ValueError(f"v must be finite and >= u, got u={u} v={v}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    x = spec.x
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

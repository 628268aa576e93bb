"""Construct, minimize, and certify generating sets of F_p* from small integers.

A subset of the cyclic group F_p* generates iff for every prime q | p-1 some
element is a q-th power non-residue (every maximal subgroup is the set of
q-th powers for some q).  Generation therefore reduces to covering the
divisor indices of p-1 with non-residue masks, and minimization is an exact
set-cover problem over the masks realized below a search radius.  One loop,
_scan, builds every table of masks; candidate_table and _candidate_tables
differ only in the mask kernel they pass it (Python pow, int64 modpow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .modcore import FieldSpec, _frozen_init, _pow_mod, multiplicative_order, residue_signature

# Search radius grows like p**(1/(4*sqrt(e)) + epsilon).
GENERATION_EXPONENT = 1.0 / (4.0 * math.sqrt(math.e))


class InfeasibleCoverError(RuntimeError):
    """Raised when the search radius cap is reached with divisors still uncovered."""

    def __init__(self, p: int, radius: int, uncovered: tuple[int, ...]):
        self.p = p
        self.radius = radius
        self.uncovered = uncovered
        qs = ", ".join(str(q) for q in uncovered)
        super().__init__(
            f"no cover for p={p} within radius {radius}: uncovered divisor(s) q={qs}"
        )


@dataclass(frozen=True)
class SearchPolicy:
    """Radius policy: start at ceil(p**(exponent+epsilon)), double on failure
    up to cap(p).

    hard_cap=None means p-1, which always suffices since a primitive root
    exists below p; otherwise it is an int >= 2 (a bool or a float is
    refused), so n_used stays an int.  expand_on_failure=False caps the
    radius at the initial one, so a scan that fails there raises instead of
    doubling.  epsilon and hard_cap are checked when the policy is made.
    """

    epsilon: float = 0.05
    expand_on_failure: bool = True
    hard_cap: int | None = None

    def __post_init__(self):
        # 16 is the largest whole epsilon whose initial radius is a finite float for every p < 2**63.
        if not 0 < self.epsilon <= 16:
            raise ValueError(f"epsilon must lie in (0, 16], got {self.epsilon}")
        if self.hard_cap is not None and type(self.hard_cap) is not int:
            raise ValueError(f"hard_cap must be an int, got {self.hard_cap!r}")
        if self.hard_cap is not None and self.hard_cap < 2:
            raise ValueError(f"hard_cap must be >= 2, got {self.hard_cap}")

    def initial_radius(self, p: int) -> int:
        return max(2, math.ceil(p ** (GENERATION_EXPONENT + self.epsilon)))

    def cap(self, p: int) -> int:
        """The largest radius the search may reach: p - 1 or hard_cap, and at
        most the initial radius when expand_on_failure is off."""
        cap = p - 1 if self.hard_cap is None else self.hard_cap
        return cap if self.expand_on_failure else min(cap, self.initial_radius(p))


class Certificate(NamedTuple):
    """An element g of F_p* and its multiplicative order; order p-1 makes g a primitive root."""

    g: int
    order: int


@dataclass(frozen=True)
class GenSetResult:
    """A generating set of F_p* with its coverage map and primitive-root certificate.

    p is the prime of the field; coverage maps each divisor index to the
    element chosen to cover it; n_used is the final search radius;
    asymptotic_violation records whether that radius exceeded the initial
    one; exact is set only when minimal cardinality was proven.
    """

    p: int
    method: str
    elements: tuple[int, ...]
    coverage: dict[int, int]
    n_used: int
    asymptotic_violation: bool
    certificate: Certificate
    exact: bool


def generates(elements, field: FieldSpec) -> bool:
    """True iff the elements' non-residue masks jointly cover every divisor index."""
    full = (1 << field.r) - 1
    union = 0
    for n in elements:
        union |= residue_signature(n, field)
        if union == full:
            return True
    return union == full


@_frozen_init
@dataclass(frozen=True, slots=True)
class CandidateTable:
    """Non-residue masks of the candidates n in [2, stop] for one field.

    masks maps n to its residue_signature, keys ascending.  stop is the first
    n with a full mask (the smallest primitive root) if the scan meets one,
    else min(radius, p - 1).  radius is where the doubling stopped because
    the masks jointly cover every divisor index, and initial is the policy's
    starting radius.  All three constructions and their certificates read
    this one table; stopping at a full mask changes none of their answers,
    since that mask alone is a minimum cover and every smallest q-th
    non-residue sits at or below it.
    """

    field: FieldSpec
    radius: int
    initial: int
    masks: dict[int, int]


def _scan(fields, policy: SearchPolicy, masks) -> list[CandidateTable]:
    """The candidate tables of the fields, scanned together from n = 2 upward.

    masks(n, live) gives candidate n's mask for each field index in live,
    indexed by field index.  A field stops at its first full mask, or at the
    end of a radius step, min(radius, p - 1), with every divisor index
    covered; else its radius doubles while it is below policy.cap(p).  The
    policy is read only through initial_radius and cap.  The first field in
    order that stops uncovered raises InfeasibleCoverError at the radius it
    reached.
    """
    initial = [policy.initial_radius(f.p) for f in fields]
    cap = [policy.cap(f.p) for f in fields]
    radius = [min(i, c) for i, c in zip(initial, cap)]
    limit = [min(x, f.p - 1) for x, f in zip(radius, fields)]  # n = 1 and n = p never contribute
    full = [(1 << f.r) - 1 for f in fields]
    union = [0] * len(fields)
    tables = [{} for _ in fields]
    live = list(range(len(fields)))
    n = 2
    while live:
        mask_of = masks(n, live)
        stay = []
        for j in live:
            mask = tables[j][n] = mask_of[j]
            union[j] |= mask
            if mask != full[j] and n < limit[j]:
                stay.append(j)
            elif union[j] != full[j] and radius[j] < cap[j]:
                radius[j] = min(2 * radius[j], cap[j])
                limit[j] = min(radius[j], fields[j].p - 1)
                stay.append(j)
        live = stay
        n += 1
    for j, f in enumerate(fields):
        if union[j] != full[j]:
            uncovered = tuple(q for i, (q, _) in enumerate(f.divisors) if not union[j] >> i & 1)
            raise InfeasibleCoverError(f.p, radius[j], uncovered)
    return [CandidateTable(f, radius[j], initial[j], tables[j]) for j, f in enumerate(fields)]


def candidate_table(field: FieldSpec, policy: SearchPolicy = SearchPolicy()) -> CandidateTable:
    """Scan candidates from 2 upward, doubling the radius until every divisor
    index has a coverer, or raise InfeasibleCoverError when the cap bites.

    Each mask is taken by Python pow, exact for every p, so this one-field
    scan is the oracle that _candidate_tables is tested against.
    """
    p = field.p
    divs = [(1 << i, (p - 1) // q) for i, (q, _) in enumerate(field.divisors)]
    return _scan([field], policy, lambda n, live: [sum(bit for bit, exp in divs if pow(n, exp, p) != 1)])[0]


def _candidate_tables(fields, policy: SearchPolicy = SearchPolicy()) -> list[CandidateTable]:
    """[candidate_table(f, policy) for f in fields], with the fields scanned together.

    The masks come from the int64 kernel: one _pow_mod call per prime n
    tests every live (field, q) pair (a composite n = a * b multiplies a's
    and b's powers), and one bincount over the field ids gives each field's
    mask.  Every p must be at most _POW_MOD_MAX, as every survey prime is,
    else _pow_mod raises ValueError.
    """
    # The (field, q) pairs of the live fields: the field's id, p, (p - 1) / q,
    # q's mask bit and the pair's index among all pairs.
    r = [f.r for f in fields]
    owner = np.repeat(np.arange(len(fields)), r)
    mod = np.repeat(np.array([f.p for f in fields], dtype=np.int64), r)
    exp = (mod - 1) // np.array([q for f in fields for q, _ in f.divisors], dtype=np.int64)
    bit = 1 << np.array([i for f in fields for i in range(f.r)], dtype=np.int64)
    pair = np.arange(owner.size)
    n_pairs = owner.size
    n_live = len(fields)
    powers = {}  # n -> n**((p - 1) / q) % p of each pair live at n, by pair index

    def masks(n, live):
        nonlocal owner, mod, exp, bit, pair, n_live
        if len(live) < n_live:  # fields dropped out: compact their pairs away
            keep = np.isin(owner, live, kind="table")  # a sort would unique live and import numpy.ma
            owner, mod, exp, bit, pair = owner[keep], mod[keep], exp[keep], bit[keep], pair[keep]
            n_live = len(live)
        a = next((a for a in range(2, math.isqrt(n) + 1) if n % a == 0), None)
        if a is None:  # n is prime
            value = _pow_mod(n, exp, mod)
        else:
            value = powers[a][pair] * powers[n // a][pair] % mod
        powers[n] = np.empty(n_pairs, dtype=np.int64)
        powers[n][pair] = value
        nonres = value != 1
        return np.bincount(owner[nonres], weights=bit[nonres], minlength=len(fields)).astype(np.int64).tolist()

    return _scan(fields, policy, masks)


def _combine(coverage: dict[int, int], field: FieldSpec) -> int:
    """Primitive root from one covering element per divisor: the product of
    their powers of prime-power order q**alpha, over every q | p - 1."""
    p = field.p
    g = 1
    for i, (q, alpha) in enumerate(field.divisors):
        x = coverage[i]
        # x is a q-th non-residue, so this power has order exactly q**alpha.
        g = g * pow(x, (p - 1) // q**alpha, p) % p
    return g


def elementary_generating_set(table: CandidateTable) -> tuple[int, ...]:
    """One element per divisor: the smallest q_i-th non-residue for each q_i, ascending.

    One pass over the masks in ascending n: an n is the smallest non-residue
    for some q_i exactly when its mask adds a bit the smaller n left uncovered.
    """
    full = (1 << table.field.r) - 1
    covered = 0
    picks = []
    for n, mask in table.masks.items():
        if mask & ~covered:
            picks.append(n)
            covered |= mask
            if covered == full:
                break
    return tuple(picks)


def greedy_block_generating_set(table: CandidateTable) -> tuple[int, ...]:
    """Pick candidates covering the most still-uncovered divisors (ties: smallest n), in pick order."""
    masks = table.masks
    full = (1 << table.field.r) - 1
    covered = 0
    picks: list[int] = []
    while covered != full:
        best_n, best_gain = 0, 0
        for n in masks:
            gain = (masks[n] & ~covered).bit_count()
            if gain > best_gain:
                best_n, best_gain = n, gain
        picks.append(best_n)  # best_gain >= 1: the radius guarantees full coverage
        covered |= masks[best_n]
    return tuple(picks)


def exact_min_generating_set(table: CandidateTable, size_cap: int | None = None) -> tuple[int, ...] | None:
    """Minimum-cardinality generating set below the radius, by subset search.

    For k = 1, 2, ..., size_cap the k-subsets of the smallest representatives
    of the distinct nonempty masks are walked in lexicographic element order,
    and the first whose masks cover every divisor index wins.  That is also
    the lexicographically smallest minimum cover among all candidates: in a
    minimum cover no two elements share a mask, and swapping an element for
    the smaller representative of its mask keeps it a cover.  size_cap bounds
    the work (default r, which always suffices); None is returned when no
    cover exists within it.
    """
    if size_cap is None:
        size_cap = table.field.r
    full = (1 << table.field.r) - 1
    rep_of: dict[int, int] = {}  # distinct nonempty mask -> smallest n, in element order
    for n, m in table.masks.items():
        if m:
            rep_of.setdefault(m, n)
    for k in range(1, size_cap + 1):
        for subset in combinations(rep_of, k):
            union = 0
            for m in subset:
                union |= m
            if union == full:
                return tuple(rep_of[m] for m in subset)
    return None


METHODS = {
    "elementary": elementary_generating_set,
    "greedy": greedy_block_generating_set,
    "exact": exact_min_generating_set,
}


def certify(table: CandidateTable, method: str = "elementary", size_cap: int | None = None) -> GenSetResult:
    """Run the named construction on the table and package its picks as a certified GenSetResult.

    When no exact cover fits within size_cap, greedy's picks stand in with
    exact=False.  Each divisor index is covered by the first pick, in pick
    order, whose mask has its bit.  The certificate is the smallest primitive
    root among the elements, else the prime-power-order combination of the
    coverers; its order is computed, not assumed.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(sorted(METHODS))}, got {method!r}")
    if size_cap is not None and size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    exact = method == "exact"
    picks = exact_min_generating_set(table, size_cap) if exact else METHODS[method](table)
    if picks is None:  # no cover within size_cap
        picks, exact = greedy_block_generating_set(table), False
    field, masks = table.field, table.masks
    full = (1 << field.r) - 1
    elements = tuple(sorted(picks))
    coverage = {i: next(n for n in picks if masks[n] >> i & 1) for i in range(field.r)}
    g = next((n for n in elements if masks[n] == full), None) or _combine(coverage, field)
    return GenSetResult(
        p=field.p,
        elements=elements,
        method=method,
        coverage=coverage,
        n_used=table.radius,
        asymptotic_violation=table.radius > table.initial,
        certificate=Certificate(g, multiplicative_order(g, field)),
        exact=exact,
    )


"""Construct, minimize, and certify generating sets of F_p* from small integers.

A subset of the cyclic group F_p* generates iff for every prime q | p-1 some
element is a q-th power non-residue (every maximal subgroup is the set of
q-th powers for some q).  Generation therefore reduces to covering the
divisor indices of p-1 with non-residue masks, and minimization is an exact
set-cover problem over the masks realized below a search radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .modcore import FieldSpec, multiplicative_order, residue_signature

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
    """Radius policy: start at ceil(p**(exponent+epsilon)), double on failure.

    hard_cap=None means p-1, which always suffices since a primitive root
    exists below p.
    """

    epsilon: float = 0.05
    expand_on_failure: bool = True
    hard_cap: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.hard_cap is not None and self.hard_cap < 2:
            raise ValueError(f"hard_cap must be >= 2, got {self.hard_cap}")

    def initial_radius(self, p: int) -> int:
        return max(2, math.ceil(p ** (GENERATION_EXPONENT + self.epsilon)))

    def cap(self, p: int) -> int:
        return p - 1 if self.hard_cap is None else self.hard_cap


class Certificate(NamedTuple):
    """An element g of F_p* and its multiplicative order; order p-1 makes g a primitive root."""

    g: int
    order: int


@dataclass(frozen=True)
class GenSetResult:
    """A generating set with its coverage map and primitive-root certificate.

    coverage maps each divisor index to the element chosen to cover it;
    n_used is the final search radius; asymptotic_violation records whether
    that radius exceeded the initial one; exact is set only when minimal
    cardinality was proven.
    """

    method: str
    elements: tuple[int, ...]
    coverage: dict[int, int]
    n_used: int = 0
    asymptotic_violation: bool = False
    certificate: Certificate | None = None
    exact: bool = False


def generates(elements, field: FieldSpec) -> bool:
    """True iff the elements' non-residue masks jointly cover every divisor index."""
    full = (1 << field.r) - 1
    union = 0
    for n in elements:
        union |= residue_signature(n, field)
        if union == full:
            return True
    return union == full


@dataclass(frozen=True)
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


def candidate_table(field: FieldSpec, policy: SearchPolicy = SearchPolicy()) -> CandidateTable:
    """Scan candidates from 2 upward, doubling the radius until every divisor
    index has a coverer, or raise InfeasibleCoverError when the cap bites.

    n = 1 and n = p never contribute, so the scan stops at p - 1.  It also
    stops at the first full mask: the union is then full, so the current
    step is the last one and radius is the same as for a scan to its end.
    """
    p = field.p
    full = (1 << field.r) - 1
    divs = [(1 << i, (p - 1) // q) for i, (q, _) in enumerate(field.divisors)]
    initial = policy.initial_radius(p)
    cap = policy.cap(p)
    masks: dict[int, int] = {}
    union = 0
    lo, radius = 2, min(initial, cap)
    while True:
        for n in range(lo, min(radius, p - 1) + 1):
            mask = 0
            for bit, exp in divs:
                if pow(n, exp, p) != 1:
                    mask |= bit
            masks[n] = mask
            union |= mask
            if mask == full:
                break
        if union == full:
            return CandidateTable(field=field, radius=radius, initial=initial, masks=masks)
        if radius >= cap or not policy.expand_on_failure:
            uncovered = tuple(
                q for i, (q, _) in enumerate(field.divisors) if not union >> i & 1
            )
            raise InfeasibleCoverError(p, radius, uncovered)
        lo, radius = radius + 1, min(2 * radius, cap)


def _result(table: CandidateTable, method: str, picks, exact: bool = False) -> GenSetResult:
    """Package covering picks, read off the table, as a certified GenSetResult.

    Each divisor index is covered by the first pick, in the given order, whose
    mask has its bit.  The certificate is the smallest element with a full
    mask (a primitive root) if there is one, else the prime-power-order
    combination of the covering elements.
    """
    field, masks = table.field, table.masks
    full = (1 << field.r) - 1
    elements = tuple(sorted(picks))
    coverage = {i: next(n for n in picks if masks[n] >> i & 1) for i in range(field.r)}
    primitive = next((n for n in elements if masks[n] == full), None)
    if primitive is not None:
        certificate = Certificate(primitive, field.p - 1)
    else:
        g = _combine(coverage, field)
        certificate = Certificate(g, multiplicative_order(g, field))
    return GenSetResult(
        elements=elements,
        method=method,
        coverage=coverage,
        n_used=table.radius,
        asymptotic_violation=table.radius > table.initial,
        certificate=certificate,
        exact=exact,
    )


def _combine(coverage: dict[int, int], field: FieldSpec) -> int:
    p = field.p
    g = 1
    for i, (q, alpha) in enumerate(field.divisors):
        x = coverage[i]
        # x is a q-th non-residue, so this power has order exactly q**alpha.
        g = g * pow(x, (p - 1) // q**alpha, p) % p
    return g


def combine_primitive_root(result: GenSetResult, field: FieldSpec) -> int:
    """Fold one covering element per divisor into a primitive root.

    For each divisor index i the covering element x is raised to
    (p-1)/q_i**alpha_i, giving an element of order q_i**alpha_i; the product
    over i has order p-1.
    """
    if not generates(result.elements, field):
        raise ValueError("combine_primitive_root requires a generating set")
    coverage = dict(result.coverage)
    for i in range(field.r):
        if i not in coverage or not residue_signature(coverage[i], field) >> i & 1:
            raise ValueError(f"coverage map does not cover divisor index {i}")
    return _combine(coverage, field)


def elementary_generating_set(table: CandidateTable) -> GenSetResult:
    """One element per divisor: the smallest q_i-th non-residue for each q_i."""
    masks = table.masks
    picks = {next(n for n in masks if masks[n] >> i & 1) for i in range(table.field.r)}
    return _result(table, "elementary", sorted(picks))


def greedy_block_generating_set(table: CandidateTable) -> GenSetResult:
    """Pick candidates covering the most still-uncovered divisors (ties: smallest n)."""
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
    return _result(table, "greedy", picks)


def exact_min_generating_set(table: CandidateTable, size_cap: int | None = None) -> GenSetResult:
    """Minimum-cardinality generating set below the radius, by set-cover search.

    Iterative deepening over cardinality with depth-first branch-and-bound on
    the distinct masks present; among equal-cardinality optima the
    lexicographically smallest element list wins.  If no cover exists within
    size_cap the greedy result is returned with the exact flag cleared.
    """
    r = table.field.r
    if r > 64:
        raise ValueError("exact search supports at most 64 divisor indices")
    if size_cap is None:
        size_cap = r
    if size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    full = (1 << r) - 1
    # Smallest representative per distinct nonempty mask, in element order.
    rep_of: dict[int, int] = {}
    for n, m in table.masks.items():
        if m and m not in rep_of:
            rep_of[m] = n
    reps = sorted(rep_of.items(), key=lambda item: item[1])  # (mask, element)
    for k in range(1, size_cap + 1):
        best = _cover_of_size(reps, full, k)
        if best is not None:
            return _result(table, "exact", best, exact=True)
    return replace(greedy_block_generating_set(table), method="exact")


def _cover_of_size(reps, full: int, k: int) -> tuple[int, ...] | None:
    """First cover of exactly k masks in lexicographic element order, or None."""
    suffix_union = [0] * (len(reps) + 1)
    for j in range(len(reps) - 1, -1, -1):
        suffix_union[j] = suffix_union[j + 1] | reps[j][0]
    chosen: list[int] = []

    def dfs(start: int, covered: int, slots: int):
        if covered == full:
            return tuple(chosen)
        if slots == 0 or covered | suffix_union[start] != full:
            return None
        for j in range(start, len(reps)):
            mask, elem = reps[j]
            if mask & ~covered == 0:
                continue
            if covered | suffix_union[j] != full:
                return None  # later masks only shrink the reachable union
            chosen.append(elem)
            hit = dfs(j + 1, covered | mask, slots - 1)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    return dfs(0, 0, k)

import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smallgen.genset import (
    GENERATION_EXPONENT,
    CandidateTable,
    GenSetResult,
    InfeasibleCoverError,
    SearchPolicy,
    candidate_table,
    combine_primitive_root,
    elementary_generating_set,
    exact_min_generating_set,
    generates,
    greedy_block_generating_set,
)
from smallgen.cli import genset_result_json
from smallgen.experiments import survey_row
from smallgen.modcore import field_spec, multiplicative_order, residue_signature
from smallgen.sievelab import primes_upto


def closure_size(p, gens):
    """Brute-force subgroup closure, by repeated multiplication to a fixpoint."""
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for g in gens:
            y = x * g % p
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


# ---------------------------------------------------------------------------
# generates
# ---------------------------------------------------------------------------


def test_generates_examples():
    f7 = field_spec(7)
    assert generates([3], f7)
    assert not generates([1], f7)
    assert generates([2, 6], f7)
    # brute-force closure agrees on {2, 6}
    assert closure_size(7, [2, 6]) == 6


def test_generates_empty_and_zero():
    f7 = field_spec(7)
    assert not generates([], f7)
    with pytest.raises(ValueError):
        generates([7], f7)


def test_generates_agrees_with_closure_small():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        f = field_spec(p)
        pool = [n for n in range(1, 13) if n % p != 0]
        for size in (1, 2):
            for subset in combinations(pool, size):
                want = closure_size(p, [n % p for n in subset]) == p - 1
                assert generates(subset, f) == want, (p, subset)


# ---------------------------------------------------------------------------
# policy and radius
# ---------------------------------------------------------------------------


def test_initial_radius():
    pol = SearchPolicy()
    assert pol.initial_radius(7) == 2
    assert pol.initial_radius(13) == 2
    assert pol.initial_radius(41) == 3
    assert pol.initial_radius(3) == 2  # floor of 2 everywhere
    assert math.isclose(GENERATION_EXPONENT, 0.15163266492815836)


def test_policy_validation():
    with pytest.raises(ValueError):
        SearchPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        SearchPolicy(hard_cap=1)


# ---------------------------------------------------------------------------
# candidate table
# ---------------------------------------------------------------------------

PRIMES_BELOW_1E6 = [int(p) for p in primes_upto(10**6) if p >= 3]


@given(st.sampled_from(PRIMES_BELOW_1E6), st.none() | st.integers(2, 64), st.booleans())
@settings(max_examples=60, deadline=None)
def test_candidate_table_matches_pow_scan(p, hard_cap, expand):
    f = field_spec(p)
    policy = SearchPolicy(hard_cap=hard_cap, expand_on_failure=expand)
    full = (1 << f.r) - 1
    # Slow path: walk the capped doubling sequence, rescanning [2, radius] by
    # residue_signature at every step, and stop at the first full union.
    radius = min(policy.initial_radius(p), policy.cap(p))
    while True:
        union = 0
        for n in range(2, min(radius, p - 1) + 1):
            union |= residue_signature(n, f)
        if union == full or radius >= policy.cap(p) or not expand:
            break
        radius = min(2 * radius, policy.cap(p))
    if union != full:
        with pytest.raises(InfeasibleCoverError) as err:
            candidate_table(f, policy)
        assert err.value.radius == radius
        assert err.value.uncovered == tuple(q for i, (q, _) in enumerate(f.divisors) if not union >> i & 1)
        with pytest.raises(InfeasibleCoverError):
            survey_row(p, policy=policy)
        return
    # The table stops at the first primitive root, if the scan meets one.
    top = min(radius, p - 1)
    stop = next((n for n in range(2, top + 1) if residue_signature(n, f) == full), top)
    table = candidate_table(f, policy)
    assert table.radius == radius
    assert table.initial == policy.initial_radius(p)
    assert list(table.masks) == list(range(2, stop + 1))
    for n, mask in table.masks.items():
        assert mask == residue_signature(n, f)
    assert survey_row(p, policy=policy).n_used == table.radius


# ---------------------------------------------------------------------------
# elementary
# ---------------------------------------------------------------------------


def test_elementary_p7():
    r = elementary_generating_set(candidate_table(field_spec(7)))
    assert r.elements == (2, 3)
    assert r.coverage == {0: 3, 1: 2}  # q=2 <- 3, q=3 <- 2
    assert r.asymptotic_violation
    assert r.n_used == 4


def test_elementary_p13():
    r = elementary_generating_set(candidate_table(field_spec(13)))
    assert r.elements == (2,)
    assert not r.asymptotic_violation
    assert r.certificate == (2, 12)


def test_elementary_p41():
    r = elementary_generating_set(candidate_table(field_spec(41)))
    assert r.elements == (2, 3)
    assert r.coverage == {0: 3, 1: 2}


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


def test_greedy_p31():
    r = greedy_block_generating_set(candidate_table(field_spec(31)))
    assert r.elements == (3,)


def test_greedy_p7():
    r = greedy_block_generating_set(candidate_table(field_spec(7)))
    assert r.elements == (3,)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_p7():
    r = exact_min_generating_set(candidate_table(field_spec(7)))
    assert r.elements == (3,)
    assert r.exact
    assert r.method == "exact"


def test_exact_p13():
    r = exact_min_generating_set(candidate_table(field_spec(13)))
    assert r.elements == (2,)
    assert r.certificate == (2, 12)


def test_exact_infeasible_radius_two():
    # only masks reachable with n <= 2 are 00 and the q=3-only mask of n=2
    with pytest.raises(InfeasibleCoverError) as err:
        candidate_table(field_spec(7), SearchPolicy(expand_on_failure=False))
    assert err.value.uncovered == (2,)


def test_hard_cap_stops_expansion():
    with pytest.raises(InfeasibleCoverError):
        candidate_table(field_spec(7), SearchPolicy(hard_cap=2))
    # cap = 4 is just enough to reach the non-residue 3
    r = elementary_generating_set(candidate_table(field_spec(7), SearchPolicy(hard_cap=4)))
    assert r.elements == (2, 3)
    assert r.n_used == 4


def test_exact_size_cap_falls_back_to_greedy():
    f = field_spec(41)  # needs two elements below its radius
    full = exact_min_generating_set(candidate_table(f))
    assert len(full.elements) == 2 and full.exact
    capped = exact_min_generating_set(candidate_table(f), size_cap=1)
    greedy = greedy_block_generating_set(candidate_table(f))
    assert capped.method == "exact"
    assert not capped.exact
    assert capped.elements == greedy.elements


def test_exact_lexicographic_tie_break():
    # p = 31: masks of 2 (q=5 only) and 3 (all) both exist; the minimum is {3},
    # and among 1-element covers the smallest element wins by construction.
    f = field_spec(31)
    r = exact_min_generating_set(candidate_table(f))
    assert r.elements == (3,)
    for n in range(2, r.elements[0]):
        assert not generates([n], f)


# ---------------------------------------------------------------------------
# combine_primitive_root
# ---------------------------------------------------------------------------


def test_combine_examples():
    f13 = field_spec(13)
    r = GenSetResult(elements=(2,), method="exact", coverage={0: 2, 1: 2})
    assert combine_primitive_root(r, f13) == 11
    f7 = field_spec(7)
    r = GenSetResult(elements=(3,), method="exact", coverage={0: 3, 1: 3})
    assert combine_primitive_root(r, f7) == 5
    f3 = field_spec(3)
    r = GenSetResult(elements=(2,), method="exact", coverage={0: 2})
    assert combine_primitive_root(r, f3) == 2


def test_combine_rejects_non_generating():
    f7 = field_spec(7)
    r = GenSetResult(elements=(2,), method="exact", coverage={1: 2})
    with pytest.raises(ValueError):
        combine_primitive_root(r, f7)


# ---------------------------------------------------------------------------
# cross-method invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def method_results(small_primes):
    out = []
    for p in small_primes:
        f = field_spec(p)
        t = candidate_table(f)
        out.append(
            (
                f,
                exact_min_generating_set(t),
                greedy_block_generating_set(t),
                elementary_generating_set(t),
            )
        )
    return out


def test_size_chain_and_lemma_bound(method_results):
    for f, exact, greedy, elementary in method_results:
        assert len(exact.elements) <= len(greedy.elements) <= len(elementary.elements)
        assert len(elementary.elements) <= f.r


def test_all_methods_generate(method_results):
    for f, *results in method_results:
        for r in results:
            assert generates(r.elements, f)
            assert 1 not in r.elements
            assert all(e <= r.n_used for e in r.elements)


def test_methods_share_final_radius(method_results):
    for _, exact, greedy, elementary in method_results:
        assert exact.n_used == greedy.n_used == elementary.n_used
        assert exact.asymptotic_violation == elementary.asymptotic_violation


def test_certificates_sound(method_results):
    for f, *results in method_results:
        for r in results:
            g, order = r.certificate
            assert order == f.p - 1
            assert multiplicative_order(g, f) == f.p - 1
            # g is a q-th non-residue for every divisor
            assert residue_signature(g, f) == (1 << f.r) - 1


def test_combine_sound_even_without_primitive_element(method_results):
    for f, exact, _, elementary in method_results:
        for r in (exact, elementary):
            g = combine_primitive_root(r, f)
            assert multiplicative_order(g, f) == f.p - 1


def test_determinism():
    for p in (7, 13, 41, 97, 577):
        f = field_spec(p)
        assert candidate_table(f) == candidate_table(f)
        for construct in (exact_min_generating_set, greedy_block_generating_set, elementary_generating_set):
            assert construct(candidate_table(f)) == construct(candidate_table(f))


@given(st.sampled_from([101, 103, 107, 109, 113, 127, 131, 137, 139, 149]))
@settings(max_examples=10, deadline=None)
def test_coverage_map_is_consistent(p):
    f = field_spec(p)
    t = candidate_table(f)
    for r in (exact_min_generating_set(t), greedy_block_generating_set(t)):
        assert sorted(r.coverage) == list(range(f.r))
        for i, n in r.coverage.items():
            assert n in r.elements
            assert residue_signature(n, f) >> i & 1


# sha256 of cli.genset_result_json(p, result) per method.  Coverage maps and
# certificates never reach the survey CSV, so these pins are what guards their
# bytes across versions.
GENSET_JSON_SHA256 = {
    7: {
        "elementary": "ea8ed833f8b136a7f9b16f085124b367f92f91bba9b55b5fb8d47d9d40c7a5bd",
        "greedy": "9f491f804af8c7935c965ea15234f34391ca6a4670bb714ab9ecf82b9514ffce",
        "exact": "8f48adde6c914514ec61793800d0482b113d57c8348d73c7edb0aa8e8992a492",
    },
    41: {
        "elementary": "5c9923f6b5b65b70cb682f1525239fc6b6387df1557868b1ec0c1b98551fc5ff",
        "greedy": "bee93d896acc9178017f636aed13003fcbebf7d55e037a74997889c25c38aabf",
        "exact": "7f484dec3da9a944c94a6fcc350bb5d0ad2c7e43555170a3dc5263ea394e90d2",
    },
    577: {
        "elementary": "ddf0790d68daaafefc7659278d3175a88eaee72a141830797b88ad598a526676",
        "greedy": "bd8c1f6b01b848bfa8fb457d8d4d7f7f24547ce0a1b17c4885e078564244095e",
        "exact": "33d4fbc889d236072f60ac7acef2870ff664a32147fab220b2b7dcc090d2f52b",
    },
    10007: {
        "elementary": "2db5b2f9c76f43c3ea4b8c4e66a61050847be33c47b346115115bc08f4b10bb6",
        "greedy": "8bd5fd9b9c5934a03ead31b0d61526b9dbd4fefaf1b0fd0725098cbfe28aa7d7",
        "exact": "db8897a4128796b0f0bccc6b2c8ffd0092f4b89b9c0d186ab425767deb432074",
    },
    8608456956238879741: {
        "elementary": "ef121eef9e678a7588a3fd90a3efc19ee9314e2d24df128cd1b50f3495dc244d",
        "greedy": "56ad09b4f6f41819a8ef875f8d4f2ab252173279678a1c59297fff8233fb0fab",
        "exact": "b4f447c5302fe3fe41395d71f7ddfac9dc39c5424554d65f5c368d964c41cd75",
    },
}


def test_genset_json_pinned():
    constructions = {
        "elementary": elementary_generating_set,
        "greedy": greedy_block_generating_set,
        "exact": exact_min_generating_set,
    }
    for p, pins in GENSET_JSON_SHA256.items():
        table = candidate_table(field_spec(p))
        for method, construct in constructions.items():
            text = genset_result_json(p, construct(table))
            assert hashlib.sha256(text.encode()).hexdigest() == pins[method], (p, method)


def test_early_exit_matches_full_scan():
    # Differential oracle: the table that stops at the first primitive root
    # must give byte-identical results to a table pow-scanned over all of
    # [2, min(radius, p - 1)] with the same radius and initial radius.
    constructions = {
        "elementary": elementary_generating_set,
        "greedy": greedy_block_generating_set,
        "exact": exact_min_generating_set,
        "exact size_cap=1": lambda t: exact_min_generating_set(t, size_cap=1),
    }
    policies = [
        SearchPolicy(),
        SearchPolicy(expand_on_failure=False),
        SearchPolicy(hard_cap=4),
        SearchPolicy(hard_cap=64),
    ]
    stopped_early = 0
    for p in primes_upto(3999)[1:]:
        f = field_spec(int(p))
        for policy in policies:
            try:
                table = candidate_table(f, policy)
            except InfeasibleCoverError:
                continue  # the raise is checked against the pow-scan above
            top = min(table.radius, f.p - 1)
            masks = {n: residue_signature(n, f) for n in range(2, top + 1)}
            full = CandidateTable(f, table.radius, table.initial, masks)
            stopped_early += len(table.masks) < len(masks)
            for name, construct in constructions.items():
                want = genset_result_json(f.p, construct(full))
                assert genset_result_json(f.p, construct(table)) == want, (f.p, policy, name)
    assert stopped_early > 0

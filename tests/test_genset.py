import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smallgen.genset import (
    GENERATION_EXPONENT,
    METHODS,
    CandidateTable,
    InfeasibleCoverError,
    SearchPolicy,
    _candidate_tables,
    candidate_table,
    certify,
    elementary_generating_set,
    exact_min_generating_set,
    generates,
    greedy_block_generating_set,
)
from smallgen import genset
from smallgen.codec import to_json
from smallgen.experiments import survey_row
from smallgen.modcore import FieldSpec, field_spec, is_prime, multiplicative_order, residue_signature
from smallgen.sievelab import p_minus_one_divisors, primes_upto


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
    # The initial radius overflows a float past 16.1 at p = 2**63 - 25.
    for epsilon in (math.inf, math.nan, 16.2, 1000.0):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 16\]"):
            SearchPolicy(epsilon=epsilon)
    assert SearchPolicy(epsilon=16.0).initial_radius(2**63 - 25) > 10**306
    with pytest.raises(ValueError):
        SearchPolicy(hard_cap=1)


def test_policy_refuses_a_hard_cap_that_is_not_an_int():
    # A float cap would come back as a float n_used, written to JSON for an int field.
    for hard_cap in (2.5, 64.0, True, "8"):
        with pytest.raises(ValueError) as info:
            SearchPolicy(hard_cap=hard_cap)
        assert str(info.value) == f"hard_cap must be an int, got {hard_cap!r}"
    with pytest.raises(ValueError, match="hard_cap must be >= 2, got 1"):
        SearchPolicy(hard_cap=1)
    assert certify(candidate_table(field_spec(41), SearchPolicy(hard_cap=64)), "elementary").n_used == 3


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
    # The pow scan and the int64 batch kernel share one stop rule; both are
    # checked against this walk.
    scans = (lambda: candidate_table(f, policy), lambda: _candidate_tables([f], policy)[0])
    if union != full:
        for scan in scans:
            with pytest.raises(InfeasibleCoverError) as err:
                scan()
            assert err.value.radius == radius
            assert err.value.uncovered == tuple(q for i, (q, _) in enumerate(f.divisors) if not union >> i & 1)
        with pytest.raises(InfeasibleCoverError):
            survey_row(p, policy=policy)
        return
    # The table stops at the first primitive root, if the scan meets one.
    top = min(radius, p - 1)
    stop = next((n for n in range(2, top + 1) if residue_signature(n, f) == full), top)
    for scan in scans:
        table = scan()
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
    r = certify(candidate_table(field_spec(7)), "elementary")
    assert r.elements == (2, 3)
    assert r.coverage == {0: 3, 1: 2}  # q=2 <- 3, q=3 <- 2
    assert r.asymptotic_violation
    assert r.n_used == 4


def test_elementary_p13():
    r = certify(candidate_table(field_spec(13)), "elementary")
    assert r.elements == (2,)
    assert not r.asymptotic_violation
    assert r.certificate == (2, 12)


def test_elementary_p41():
    r = certify(candidate_table(field_spec(41)), "elementary")
    assert r.elements == (2, 3)
    assert r.coverage == {0: 3, 1: 2}


def elementary_by_divisor(table):
    """Reference: for each divisor index, the first candidate whose mask has its bit."""
    masks = table.masks
    return tuple(sorted({next(n for n in masks if masks[n] >> i & 1) for i in range(table.field.r)}))


def test_elementary_matches_per_divisor_scan():
    # Every table of survey(3, 3000), and the rows of
    # test_survey_row_factorizes_once, the last one near 2^63.
    primes = primes_upto(3000).tolist()[1:] + [7, 41, 577, 10007, 8608456956238879741]
    for p in primes:
        table = candidate_table(field_spec(p))
        assert elementary_generating_set(table) == elementary_by_divisor(table), p


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


def test_greedy_p31():
    r = certify(candidate_table(field_spec(31)), "greedy")
    assert r.elements == (3,)


def test_greedy_p7():
    r = certify(candidate_table(field_spec(7)), "greedy")
    assert r.elements == (3,)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_p7():
    r = certify(candidate_table(field_spec(7)), "exact")
    assert r.elements == (3,)
    assert r.exact
    assert r.method == "exact"


def test_exact_p13():
    r = certify(candidate_table(field_spec(13)), "exact")
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
    r = certify(candidate_table(field_spec(7), SearchPolicy(hard_cap=4)), "elementary")
    assert r.elements == (2, 3)
    assert r.n_used == 4


def test_no_expand_caps_the_radius_at_the_initial_one():
    # cap is the one ceiling _scan reads: without expansion it is the
    # initial radius, unless p - 1 or hard_cap lies below it.
    for p, epsilon in ((3, 1.0), (7, 0.05), (577, 0.05), (10007, 0.3), (8608456956238879741, 0.05)):
        policy = SearchPolicy(epsilon=epsilon, expand_on_failure=False)
        assert policy.cap(p) == min(p - 1, policy.initial_radius(p))
        for hard_cap in (2, 5, 10**30):
            policy = SearchPolicy(epsilon=epsilon, expand_on_failure=False, hard_cap=hard_cap)
            assert policy.cap(p) == min(hard_cap, policy.initial_radius(p))
            assert SearchPolicy(epsilon=epsilon, hard_cap=hard_cap).cap(p) == hard_cap


def test_exact_size_cap_falls_back_to_greedy():
    f = field_spec(41)  # needs two elements below its radius
    t = candidate_table(f)
    full = certify(t, "exact")
    assert len(full.elements) == 2 and full.exact
    assert exact_min_generating_set(t, size_cap=1) is None
    capped = certify(t, "exact", 1)
    greedy = certify(t, "greedy")
    assert capped.method == "exact"
    assert not capped.exact
    assert capped.elements == greedy.elements
    assert capped.coverage == greedy.coverage and capped.certificate == greedy.certificate


def test_certify_checks_method_and_size_cap():
    t = candidate_table(field_spec(13))
    for method in METHODS:
        with pytest.raises(ValueError, match="size_cap must be >= 1, got 0"):
            certify(t, method, 0)
    with pytest.raises(ValueError, match="method must be one of elementary, exact, greedy, got 'bogus'"):
        certify(t, "bogus")
    assert certify(t) == certify(t, "elementary")


def test_constructions_return_picks():
    # p = 151: p - 1 = 2 * 3 * 5^2.  Greedy takes 3 (q = 2 and 5) before 2
    # (q = 3); certify sorts the elements but reads the picks in that order.
    t = candidate_table(field_spec(151))
    assert greedy_block_generating_set(t) == (3, 2)
    r = certify(t, "greedy")
    assert r.elements == (2, 3)
    assert r.coverage == {0: 3, 1: 2, 2: 3}
    for p in primes_upto(3000)[1:].tolist():
        t = candidate_table(field_spec(p))
        for picks in (elementary_generating_set(t), exact_min_generating_set(t)):
            assert picks == tuple(sorted(set(picks))), p


def test_exact_lexicographic_tie_break():
    # p = 31: masks of 2 (q=5 only) and 3 (all) both exist; the minimum is {3},
    # and among 1-element covers the smallest element wins by construction.
    f = field_spec(31)
    r = certify(candidate_table(f), "exact")
    assert r.elements == (3,)
    for n in range(2, r.elements[0]):
        assert not generates([n], f)


def test_exact_matches_first_generating_subset():
    # Differential oracle: the first k-subset of all the table's candidates,
    # in lexicographic order and at the smallest k, that the pow-residue
    # generation test accepts.
    policies = [SearchPolicy(), SearchPolicy(hard_cap=16), SearchPolicy(hard_cap=64)]
    checked = 0
    for p in primes_upto(1999)[1:]:
        f = field_spec(int(p))
        for policy in policies:
            try:
                table = candidate_table(f, policy)
            except InfeasibleCoverError:
                continue
            want = next(
                subset
                for k in range(1, f.r + 1)
                for subset in combinations(sorted(table.masks), k)
                if generates(subset, f)
            )
            assert exact_min_generating_set(table) == want, (f.p, policy)
            assert certify(table, "exact").exact
            checked += 1
    assert checked > 2 * len(primes_upto(1999))


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
                certify(t, "exact"),
                certify(t, "greedy"),
                certify(t, "elementary"),
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


def test_determinism():
    for p in (7, 13, 41, 97, 577):
        f = field_spec(p)
        assert candidate_table(f) == candidate_table(f)
        for method in METHODS:
            assert certify(candidate_table(f), method) == certify(candidate_table(f), method)


@given(st.sampled_from([101, 103, 107, 109, 113, 127, 131, 137, 139, 149]))
@settings(max_examples=10, deadline=None)
def test_coverage_map_is_consistent(p):
    f = field_spec(p)
    t = candidate_table(f)
    for r in (certify(t, "exact"), certify(t, "greedy")):
        assert sorted(r.coverage) == list(range(f.r))
        for i, n in r.coverage.items():
            assert n in r.elements
            assert residue_signature(n, f) >> i & 1


# sha256 of to_json(result), the genset --format json document, per
# method.  Coverage maps and certificates never reach the survey CSV, so these
# pins are what guards their bytes across versions.
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
    for p, pins in GENSET_JSON_SHA256.items():
        table = candidate_table(field_spec(p))
        for method, pin in pins.items():
            text = to_json(certify(table, method))
            assert hashlib.sha256(text.encode()).hexdigest() == pin, (p, method)


def test_early_exit_matches_full_scan():
    # Differential oracle: the table that stops at the first primitive root
    # must give byte-identical results to a table pow-scanned over all of
    # [2, min(radius, p - 1)] with the same radius and initial radius.
    constructions = {
        "elementary": lambda t: certify(t, "elementary"),
        "greedy": lambda t: certify(t, "greedy"),
        "exact": lambda t: certify(t, "exact"),
        "exact size_cap=1": lambda t: certify(t, "exact", 1),
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
                want = to_json(construct(full))
                assert to_json(construct(table)) == want, (f.p, policy, name)
    assert stopped_early > 0


# ---------------------------------------------------------------------------
# candidate tables scanned together
# ---------------------------------------------------------------------------


def fields_of(primes):
    return [FieldSpec(p, divisors) for p, divisors in p_minus_one_divisors(primes)]


@pytest.mark.parametrize("epsilon", [0.05, 0.01])
def test_candidate_tables_match_scalar_below_1e5(epsilon):
    # Differential oracle: every prime <= 1e5, where at epsilon = 0.01 a
    # radius doubles in 1219 of the 9591 fields.
    fields = fields_of(primes_upto(10**5)[1:])
    policy = SearchPolicy(epsilon=epsilon)
    want = [candidate_table(f, policy) for f in fields]
    assert _candidate_tables(fields, policy) == want
    doubled = sum(t.radius > t.initial for t in want)
    assert doubled == {0.05: 682, 0.01: 1219}[epsilon]


def test_candidate_tables_match_scalar_sampled_to_1e8():
    rng = random.Random(18)
    primes = set()
    while len(primes) < 2000:
        n = rng.randrange(3, 10**8, 2)
        if is_prime(n):
            primes.add(n)
    fields = fields_of(sorted(primes))
    assert _candidate_tables(fields) == [candidate_table(f) for f in fields]


def test_candidate_tables_take_p_up_to_the_kernel_bound_only():
    # p = 3037000493 is the largest prime <= isqrt(2**63 - 1); a batch with
    # a p above the bound is refused by _pow_mod, not scanned wrongly.
    fields = fields_of([7, 41, 3037000493])
    assert _candidate_tables(fields) == [candidate_table(f) for f in fields]
    assert _candidate_tables([]) == []
    with pytest.raises(ValueError, match="_pow_mod requires"):
        _candidate_tables(fields + [field_spec(4611686018427388039)])


POLICIES_THAT_BITE = [SearchPolicy(expand_on_failure=False), SearchPolicy(hard_cap=4), SearchPolicy(hard_cap=2)]


@pytest.mark.parametrize(
    "policy",
    POLICIES_THAT_BITE
    + [SearchPolicy(hard_cap=16), SearchPolicy(epsilon=0.3), SearchPolicy(epsilon=6.0, hard_cap=10**30)],
)
def test_candidate_tables_match_scalar_under_caps(policy):
    # The fields whose scan succeeds, with radii capped short of p - 1.
    good = []
    for f in fields_of(primes_upto(5000)[1:]):
        try:
            good.append((f, candidate_table(f, policy)))
        except InfeasibleCoverError:
            pass
    assert len(good) > 100
    assert _candidate_tables([f for f, _ in good], policy) == [t for _, t in good]


@pytest.mark.parametrize("policy", POLICIES_THAT_BITE)
def test_candidate_tables_raise_like_the_scalar_scan(policy):
    # The first field in order whose scan fails raises the scalar error.
    fields = fields_of(primes_upto(2000)[1:])
    first = None
    for f in fields:
        try:
            candidate_table(f, policy)
        except InfeasibleCoverError as err:
            first = err
            break
    assert first is not None
    with pytest.raises(InfeasibleCoverError) as err:
        _candidate_tables(fields, policy)
    assert (err.value.p, err.value.radius, err.value.uncovered) == (first.p, first.radius, first.uncovered)
    assert str(err.value) == str(first)


@pytest.mark.parametrize("policy", POLICIES_THAT_BITE)
def test_candidate_tables_raise_without_the_scalar_scan(monkeypatch, policy):
    # The batch raises its own error for an uncovered field, with no
    # rescan by candidate_table.
    def no_scalar_scan(field, policy):
        raise AssertionError(f"candidate_table({field.p}) called by the batch")

    monkeypatch.setattr(genset, "candidate_table", no_scalar_scan)
    with pytest.raises(InfeasibleCoverError):
        _candidate_tables(fields_of(primes_upto(2000)[1:]), policy)

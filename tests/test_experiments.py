import dataclasses
import inspect
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from smallgen.codec import from_csv, from_json, to_json
from smallgen.experiments import (
    MEISSEL_MERTENS,
    DensityRow,
    SurveyRow,
    density_csv,
    density_experiment,
    quantile_report,
    survey,
    survey_csv,
    survey_row,
)
from smallgen import anatomy, experiments, genset, modcore, sievelab
from smallgen.genset import generates
from smallgen.modcore import factorize, field_spec
from smallgen.sievelab import ResourceLimitError, primes_upto


@pytest.fixture(scope="module")
def rows_50():
    return survey(3, 50, l_values=(2.0, 3.0))


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_range_3_50(rows_50):
    # primes 3,5,7,...,47; p = 2 cannot form a field spec (p-1 = 1)
    assert [r.p for r in rows_50] == [int(p) for p in primes_upto(50) if p >= 3]
    assert len(rows_50) == 14
    for r in rows_50:
        assert r.h_exact <= r.h_greedy <= r.h_elementary <= r.omega


def test_survey_known_rows(rows_50):
    r7 = next(r for r in rows_50 if r.p == 7)
    assert r7.h_exact == 1 and r7.h_elementary == 2
    assert r7.asymptotic_violation
    r13 = next(r for r in rows_50 if r.p == 13)
    assert r13.h_exact == r13.h_greedy == r13.h_elementary == 1


def test_survey_rows_reverify(rows_50):
    for r in rows_50:
        f = field_spec(r.p)
        for elements in (r.exact_elements, r.greedy_elements, r.elementary_elements):
            assert generates(elements, f)


def test_survey_empty_range(monkeypatch):
    assert survey(3, 2) == []

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for a range with no primes")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    assert survey(24, 28, threads=2) == []


def test_survey_validation():
    with pytest.raises(ValueError):
        survey(2, 50)
    with pytest.raises(ValueError):
        survey(3, 50, sample=0)
    with pytest.raises(ValueError):
        survey(3, 2, sample=0)  # checked although the range is empty
    with pytest.raises(ValueError):
        survey(3, 50, threads=0)
    with pytest.raises(ValueError):
        survey(3, 50, l_values=(201.0,))


def test_survey_caps_sieve_range():
    # The sieve would need a flag per integer up to 2**62.
    with pytest.raises(ResourceLimitError):
        survey(2**62, 2**62 + 100)


def test_survey_stride_sampling():
    full = survey(3, 1000)
    sampled = survey(3, 1000, sample=10)
    stride = math.ceil(len(full) / 10)
    assert [r.p for r in sampled] == [r.p for r in full][::stride]
    assert sampled == full[::stride]


def test_survey_threads_deterministic(rows_50):
    # 3..10000 holds 1228 primes, more than one survey task.
    rows_10k = survey(3, 10_000)
    assert len(rows_10k) > experiments._SCAN_CHUNK
    for p_max, rows in ((50, rows_50), (10_000, rows_10k)):
        rows_mt = survey(3, p_max, l_values=(2.0, 3.0), threads=2)
        assert rows_mt == rows
        assert survey_csv(rows_mt) == survey_csv(rows)


def test_survey_threads_match_serial_across_a_sieve_block():
    # The second sieve block starts at p = 2 * _SEGMENT_SPAN + 1 = 2097153.
    assert 2_000_000 < 2 * sievelab._SEGMENT_SPAN + 1 < 2_300_000
    rows = survey(2_000_000, 2_300_000)
    assert len(rows) == 20578
    assert survey(2_000_000, 2_300_000, threads=2) == rows


def test_survey_takes_divisors_from_one_source(monkeypatch):
    # An unsampled survey factors by the stride pass alone, a sampled one by
    # p_minus_one_divisors per task alone; both give the same rows.
    def refuse(*args):
        raise AssertionError("the other divisor source was called")

    full = survey(3, 3000)
    with monkeypatch.context() as m:
        m.setattr(experiments, "primes_upto", refuse)
        m.setattr(experiments, "p_minus_one_divisors", refuse)
        assert survey(3, 3000) == full
    monkeypatch.setattr(experiments, "_p_minus_one_blocks", refuse)
    assert survey(3, 3000, sample=len(full)) == full


def test_survey_starts_no_more_workers_than_tasks(monkeypatch, rows_50):
    # A fake pool records max_workers and maps serially, so no process
    # starts.  Unsampled, 3..50 is one window, so no pool starts at all;
    # sampled, 10**5 threads cut its 14 primes into 14 one-prime tasks; and
    # two threads cut 3..10000 into five windows of 2 * _SCAN_CHUNK integers.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    assert survey(3, 50, threads=10**5) == rows_50
    assert started == []
    assert survey(3, 50, sample=50, threads=10**5) == rows_50
    assert survey(3, 10_000, threads=2) == survey(3, 10_000)
    assert started == [len(rows_50), 2]


def test_survey_row_matches_batch(rows_50):
    assert survey_row(7, (2.0, 3.0)) == rows_50[2]
    # Every row of a survey is the oracle's row: 1228 primes in two tasks,
    # and a sample whose tasks each factor by the primes up to the square
    # root of their own largest p - 1.
    for rows in (survey(3, 10_000), survey(10**6, 10**8, sample=1500, threads=2)):
        assert len(rows) > experiments._SCAN_CHUNK
        for r in rows:
            assert r == survey_row(r.p), r.p


def test_survey_constructs_once_per_distinct_mask_sequence(monkeypatch):
    # Across a serial survey's chunks, fields with the same r and the same
    # masks over 2..stop share their constructions; survey_row never memoizes.
    calls = []
    exact = genset.exact_min_generating_set

    def counting_exact(table, *args):
        calls.append(table.field.p)
        return exact(table, *args)

    primes = primes_upto(10_000)[1:].tolist()
    tables = [genset.candidate_table(field_spec(p)) for p in primes]
    distinct = len({(t.field.r, *t.masks.values()) for t in tables})
    monkeypatch.setattr(experiments, "exact_min_generating_set", counting_exact)
    rows = survey(3, 10_000)
    assert len(primes) > experiments._SCAN_CHUNK and len(rows) == len(primes) == 1228
    assert len(calls) == distinct < len(rows) // 4
    calls.clear()
    for p in (7, 11, 13):  # 11 and 13 share r = 2 and the masks {2: 3}
        survey_row(p)
    assert calls == [7, 11, 13]


def test_survey_row_scans_once(monkeypatch):
    # One candidate table per row; constructions and certificates read its
    # masks instead of recomputing residue signatures.
    scanned = []

    def counting_table(field, policy):
        scanned.append(field.p)
        return genset.candidate_table(field, policy)

    def no_signature(n, field):
        raise AssertionError(f"residue_signature({n}) called after the scan")

    monkeypatch.setattr(experiments, "candidate_table", counting_table)
    monkeypatch.setattr(genset, "residue_signature", no_signature)
    primes = [7, 41, 577, 10007]  # 41 certifies by combination
    for p in primes:
        survey_row(p)
    assert scanned == primes


def test_survey_row_factorizes_once(monkeypatch):
    # field_spec factorizes p - 1 and the row's anatomy reuses field.divisors.
    factored = []
    factorize = modcore.factorize

    def counting_factorize(n):
        factored.append(n)
        return factorize(n)

    for module in (modcore, anatomy):
        monkeypatch.setattr(module, "factorize", counting_factorize)
    primes = [7, 41, 577, 10007, 8608456956238879741]
    rows = [survey_row(p) for p in primes]
    assert factored == [p - 1 for p in primes]
    assert [row.omega for row in rows] == [2, 2, 2, 2, 15]


def test_survey_factorizes_nothing_and_checks_every_field(monkeypatch):
    # The batch pass hands each row the divisors of p - 1, so no row
    # factorizes, and FieldSpec still tests p and each q of p - 1 once.
    expected = Counter()
    for p in primes_upto(3000)[1:].tolist():
        expected.update([p] + [q for q, _ in factorize(p - 1)])
    factored, tested = [], Counter()
    is_prime = modcore.is_prime

    def counting_factorize(n):
        factored.append(n)
        return factorize(n)

    def counting_is_prime(n):
        tested[n] += 1
        return is_prime(n)

    for module in (modcore, anatomy):
        monkeypatch.setattr(module, "factorize", counting_factorize)
    monkeypatch.setattr(modcore, "is_prime", counting_is_prime)
    rows = survey(3, 3000)
    assert len(rows) == 429
    assert factored == []
    assert tested == expected


def test_survey_builds_no_certificate(monkeypatch):
    # Rows persist the elements only, so a survey builds no GenSetResult and
    # computes no multiplicative order; certifying the same rows would.
    orders, results = [], []
    order, result = modcore.multiplicative_order, genset.GenSetResult

    def counting_order(g, field):
        orders.append(g)
        return order(g, field)

    def counting_result(**fields):
        results.append(fields["elements"])
        return result(**fields)

    for module in (modcore, genset):
        monkeypatch.setattr(module, "multiplicative_order", counting_order)
    monkeypatch.setattr(genset, "GenSetResult", counting_result)
    rows = survey(3, 3000)
    assert len(rows) == 429
    assert orders == [] and results == []
    genset.certify(genset.candidate_table(field_spec(41)), "exact")  # 41 certifies by combination
    assert len(orders) == 1 and results == [(2, 3)]


def test_survey_rows_match_certify():
    # Differential: each persisted element list is what certify reports for its method.
    for row in survey(3, 3000):
        table = genset.candidate_table(field_spec(row.p))
        for method in genset.METHODS:
            result = genset.certify(table, method)
            assert result.elements == getattr(row, f"{method}_elements"), (row.p, method)
            assert (result.n_used, result.asymptotic_violation) == (row.n_used, row.asymptotic_violation)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_survey_csv_shape(rows_50):
    text = survey_csv(rows_50)
    lines = text.split("\r\n")
    assert lines[0].split(",")[:2] == ["p", "omega"]
    assert len([ln for ln in lines if ln]) == len(rows_50) + 1
    # RFC 4180 line endings
    assert text.endswith("\r\n")


def test_survey_csv_round_trip(rows_50):
    back = from_csv(SurveyRow, survey_csv(rows_50))
    for a, b in zip(rows_50, back):
        assert (a.p, a.omega, a.omega_l, a.h_exact, a.h_greedy, a.h_elementary) == (
            b.p,
            b.omega,
            b.omega_l,
            b.h_exact,
            b.h_greedy,
            b.h_elementary,
        )
        assert (a.n_used, a.asymptotic_violation) == (b.n_used, b.asymptotic_violation)
        assert a.exact_elements == b.exact_elements
        assert a.greedy_elements == b.greedy_elements
        assert a.elementary_elements == b.elementary_elements
        for l, v in a.bounds.items():
            assert math.isclose(v, b.bounds[l], rel_tol=1e-11)  # 12 significant digits
    assert from_csv(SurveyRow, "") == []  # the empty survey's CSV is empty


def test_survey_json_round_trip_exact(rows_50):
    assert from_json(SurveyRow, to_json(rows_50)) == rows_50


def test_loaded_rows_reverify(rows_50):
    back = from_csv(SurveyRow, survey_csv(rows_50))
    for r in back:
        f = field_spec(r.p)
        for elements in (r.exact_elements, r.greedy_elements, r.elementary_elements):
            assert generates(elements, f)


def test_survey_row_pickles_and_replaces(rows_50):
    # Rows cross the survey's process pool by pickle; perfbench uses replace.
    row = rows_50[10]
    assert not hasattr(row, "__dict__")  # slots
    assert pickle.loads(pickle.dumps(row)) == row
    other = dataclasses.replace(row, n_used=row.n_used + 1)
    assert other.n_used == row.n_used + 1 and other.exact_elements == row.exact_elements
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.p = 5


RECORDS = {
    "FieldSpec": lambda: modcore.FieldSpec(7),
    "CandidateTable": lambda: genset.candidate_table(field_spec(41)),
    "SurveyRow": lambda: survey_row(577),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    # The per-row records keep the dataclass contract under _frozen_init's
    # __init__: same parameters, frozen, slotted, pickled and replaced as before.
    x = RECORDS[name]()
    cls = type(x)
    assert cls.__name__ == name
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    params = inspect.signature(cls.__init__).parameters
    assert list(params)[1:] == names
    assert [params[f.name].default for f in fields] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields
    ]
    args = tuple(getattr(x, n) for n in names)
    assert cls(*args) == cls(**dict(zip(names, args))) == x
    assert dataclasses.replace(x) == x == pickle.loads(pickle.dumps(x))
    assert repr(x).startswith(f"{name}({names[0]}={getattr(x, names[0])!r}, ")
    assert not hasattr(x, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, names[0], args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(x, names[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, extra=1)


def test_field_spec_contract():
    f = modcore.FieldSpec(7)
    assert f.divisors == ((2, 1), (3, 1))
    assert f == modcore.FieldSpec(7, ((2, 1), (3, 1))) and hash(f) == hash(modcore.FieldSpec(p=7))
    assert dataclasses.replace(f, divisors=None) == f
    assert repr(f) == "FieldSpec(p=7, divisors=((2, 1), (3, 1)))"
    with pytest.raises(ValueError):
        modcore.FieldSpec(9)
    with pytest.raises(ValueError):
        dataclasses.replace(f, p=9)  # replace reaches the checks too


def test_csv_deterministic(rows_50):
    again = survey(3, 50, l_values=(2.0, 3.0))
    assert survey_csv(again) == survey_csv(rows_50)


# ---------------------------------------------------------------------------
# density experiment
# ---------------------------------------------------------------------------


def density_mean_by_factorization(x, l):
    """Independent slow path for the density mean: factorize each p-1 directly."""
    power_log = l * math.log(l) if l > 0 else 0.0
    threshold = math.inf if power_log > 700.0 else math.log(x) * l**l
    primes = [int(p) for p in primes_upto(x)]
    total = 0
    for p in primes:
        if p > 2:  # p = 2 has p-1 = 1, no divisors
            total += sum(1 for q, _ in factorize(p - 1) if q <= threshold)
    return total / len(primes)


def test_density_cross_check_exact():
    # l = 150 has an infinite threshold; at x = 7, l = 1 is degenerate next to a real row.
    for x, l_values in ((10**4, [2.0, 3.0, 1.0, 150.0]), (100, [1.0, 2.0, 3.0, 150.0]), (7, [1.0, 2.0])):
        rows = density_experiment(x, l_values)
        for r in rows:
            slow = density_mean_by_factorization(x, r.l)
            assert r.empirical_mean == slow  # identical double count, exact equality
            # x = 7, l = 2 has threshold 7.78, so the last q is x itself
            qs = [q for q in primes_upto(x).tolist() if q <= r.threshold]
            assert r.prediction_harmonic == math.fsum(1.0 / (q - 1) for q in qs)
            assert to_json(density_experiment(x, [r.l])) == to_json([r])
        assert [r.degenerate for r in rows] == [x == 7 and r.l == 1.0 for r in rows]


def test_density_blocked_counts_match_unblocked(simple_prime_flags):
    # x's odd flags span four blocks, so the blocked counts start at nonzero
    # offsets; the oracle counts p = 1 mod q over the whole bitmap of every
    # integer <= x, one pass per q.
    x = 7 * sievelab._SEGMENT_SPAN + 12345
    assert -(-((x + 1) // 2) // sievelab._SEGMENT_SPAN) == 4
    rows = density_experiment(x, [1.0, 2.0, 3.0, 150.0])
    flags = simple_prime_flags(x)
    primes = np.flatnonzero(flags)
    for r in rows:
        qs = primes[primes <= r.threshold].tolist()
        total = sum(int(np.count_nonzero(flags[1::q])) for q in qs)
        assert r.empirical_mean == total / primes.size, r.l
    assert math.isinf(rows[-1].threshold)  # l = 150: every prime <= x is a q


def test_density_blocks_only_small_strides(monkeypatch):
    # With l = 150 every prime <= x is a q.  Only the strides up to
    # _BLOCKED_STRIDE_MAX are counted per block, so the counting calls stay
    # within pi(x) + (blocked strides) * (blocks); blocking every q would
    # make about pi(x) * (blocks).  The flags are of odd n, so q's stride is
    # q (1 for q = 2) and a block spans 2 * _SEGMENT_SPAN integers.
    x = 7 * sievelab._SEGMENT_SPAN + 12345
    primes = primes_upto(x)
    blocked = int(np.count_nonzero(np.where(primes == 2, 1, primes) <= sievelab._BLOCKED_STRIDE_MAX))
    blocks = -(-((x + 1) // 2) // sievelab._SEGMENT_SPAN)
    calls = Counter()
    count_nonzero = np.count_nonzero

    def spy(*args, **kwargs):
        calls["count_nonzero"] += 1
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    density_experiment(x, [150.0])
    assert blocks == 4 and 0 < blocked < primes.size
    assert calls["count_nonzero"] <= primes.size + blocked * blocks


def test_density_known_row():
    (r,) = density_experiment(10**6, [3.0])
    assert math.isclose(r.threshold, math.log(10**6) * 27)
    assert math.isclose(r.prediction, math.log(math.log(r.threshold)) + MEISSEL_MERTENS)
    # the empirical mean tracks the harmonic variant tightly at this scale
    assert abs(r.ratio_harmonic - 1.0) < 0.02
    assert not r.degenerate


def test_density_degenerate_row():
    (r,) = density_experiment(7, [1.0])  # T = ln 7 < 2
    assert r.degenerate
    assert r.empirical_mean == 0.0
    assert math.isnan(r.ratio)


def test_density_ratio_approaches_one():
    small = density_experiment(10**4, [3.0])[0]
    large = density_experiment(10**6, [3.0])[0]
    assert abs(large.ratio - 1) < abs(small.ratio - 1)
    assert abs(large.ratio_harmonic - 1) < abs(small.ratio_harmonic - 1)


def test_density_validation():
    with pytest.raises(ValueError):
        density_experiment(2, [3.0])
    with pytest.raises(ValueError):
        density_experiment(100, [0.5])
    with pytest.raises(ValueError):
        density_experiment(100, [201])


def test_density_round_trips():
    rows = density_experiment(10**4, [1.0, 2.0, 3.0])
    back_csv = from_csv(DensityRow, density_csv(rows))
    for a, b in zip(rows, back_csv):
        assert a.x == b.x and a.l == b.l and a.degenerate == b.degenerate
        assert math.isclose(a.empirical_mean, b.empirical_mean, rel_tol=1e-11)
    assert from_json(DensityRow, to_json(rows)) == rows


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_quantiles_constant_column(rows_50):
    ones = [r for r in rows_50 if r.h_exact == 1]
    report = quantile_report(ones, "h_exact", [0.0, 0.25, 0.5, 1.0])
    assert all(v == 1 for _, v in report)


def test_quantiles_min_max(rows_50):
    report = dict(quantile_report(rows_50, "h_elementary", [0.0, 1.0]))
    values = [r.h_elementary for r in rows_50]
    assert report[0.0] == min(values)
    assert report[1.0] == max(values)


def test_quantiles_validation(rows_50):
    with pytest.raises(ValueError):
        quantile_report([], "h_exact", [0.5])
    with pytest.raises(ValueError):
        quantile_report(rows_50, "h_exact", [1.5])
    with pytest.raises(ValueError):
        quantile_report(rows_50, "nope", [0.5])


# ---------------------------------------------------------------------------
# Meissel-Mertens constant
# ---------------------------------------------------------------------------


def test_meissel_mertens_recompute():
    # M = gamma + sum_p (ln(1 - 1/p) + 1/p), tail beyond X estimated by the
    # integral of 1/(2 t^2 ln t)
    X = 10**7
    ps = primes_upto(X).astype(np.float64)
    s = float(np.sum(np.log1p(-1.0 / ps) + 1.0 / ps))
    tail = -1.0 / (2 * X * math.log(X))
    recomputed = float(np.euler_gamma) + s + tail
    assert abs(recomputed - MEISSEL_MERTENS) <= 1e-6

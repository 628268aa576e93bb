import math

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
from smallgen import anatomy, experiments, genset, modcore
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


def test_survey_empty_range():
    assert survey(3, 2) == []


def test_survey_validation():
    with pytest.raises(ValueError):
        survey(2, 50)
    with pytest.raises(ValueError):
        survey(3, 50, sample=0)


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
    rows_mt = survey(3, 50, l_values=(2.0, 3.0), threads=2)
    assert rows_mt == rows_50
    assert survey_csv(rows_mt) == survey_csv(rows_50)


def test_survey_row_matches_batch(rows_50):
    assert survey_row(7, (2.0, 3.0)) == rows_50[2]


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
    # field_spec factorizes p - 1 and anatomy_record reuses field.divisors.
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


def test_survey_json_round_trip_exact(rows_50):
    assert from_json(SurveyRow, to_json(rows_50)) == rows_50


def test_loaded_rows_reverify(rows_50):
    back = from_csv(SurveyRow, survey_csv(rows_50))
    for r in back:
        f = field_spec(r.p)
        for elements in (r.exact_elements, r.greedy_elements, r.elementary_elements):
            assert generates(elements, f)


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
    rows = density_experiment(10**4, [2.0, 3.0])
    for r in rows:
        slow = density_mean_by_factorization(10**4, r.l)
        assert r.empirical_mean == slow  # identical double count, exact equality


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


def test_quantiles_median_omega_l(rows_50):
    report = dict(quantile_report(rows_50, "omega_l", [0.5], l=3.0))
    values = sorted(r.omega_l[3.0] for r in rows_50)
    assert report[0.5] == values[math.ceil(0.5 * len(values)) - 1]


def test_quantiles_validation(rows_50):
    with pytest.raises(ValueError):
        quantile_report([], "h_exact", [0.5])
    with pytest.raises(ValueError):
        quantile_report(rows_50, "h_exact", [1.5])
    with pytest.raises(ValueError):
        quantile_report(rows_50, "nope", [0.5])
    with pytest.raises(ValueError):
        quantile_report(rows_50, "omega_l", [0.5])  # ambiguous l


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

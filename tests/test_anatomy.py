import math

import pytest
from hypothesis import given, strategies as st

from smallgen.anatomy import (
    anatomy_record,
    bound_general,
    dyadic_schedule,
    smallness_threshold,
    _iterated_log,
)
from smallgen.modcore import factorize


def omega(n):
    return anatomy_record(n, []).omega


def omega_l(n, l):
    return anatomy_record(n, [l]).omega_l[float(l)]


def test_omega_examples():
    assert omega(6) == 2
    assert omega(1) == 0
    assert omega(720720) == 6
    with pytest.raises(ValueError):
        omega(0)


def test_omega_l_examples():
    assert omega_l(6, 1) == 0  # threshold ln 7 ~ 1.946 < 2
    assert omega_l(6, 2) == 2  # threshold 4 ln 7 ~ 7.78 >= 3
    assert math.isclose(smallness_threshold(6, 2), 4 * math.log(7))
    with pytest.raises(ValueError):
        smallness_threshold(0, 2)


def test_omega_l_saturates():
    for n in (6, 30, 720720):
        largest = factorize(n)[-1][0]
        l = 4.0
        while smallness_threshold(n, l) < largest:
            l += 1.0
        assert omega_l(n, l) == omega(n)
    # extreme l saturates via the inf threshold
    assert smallness_threshold(6, 180.0) == math.inf
    assert omega_l(6, 180.0) == 2


def test_omega_l_guard():
    with pytest.raises(ValueError):
        omega_l(6, 0.5)
    with pytest.raises(ValueError):
        omega_l(6, 201)


@given(st.integers(2, 2**40), st.integers(1, 9))
def test_omega_l_monotone_in_l(n, l):
    assert omega_l(n, l) <= omega_l(n, l + 1) <= omega(n)


def test_anatomy_record():
    rec = anatomy_record(720720, [1.0, 2.0, 3.0])
    assert rec.omega == 6
    assert rec.omega_l[1.0] <= rec.omega_l[2.0] <= rec.omega_l[3.0] <= rec.omega
    assert rec.thresholds[2.0] == smallness_threshold(720720, 2.0)
    assert math.isnan(rec.bounds[1.0])  # ln 1 = 0: no bound shape at l = 1
    for l in (2.0, 3.0):
        assert rec.bounds[l] == bound_general(rec.omega, rec.omega_l[l], l)


def test_anatomy_record_floats_match_threshold_and_bound():
    # anatomy_record takes ln(n + 1) once for smallness_threshold's cutoff;
    # the floats must be the same bits, including the threshold that
    # saturates to inf (l = 150 and 200), and for int l as well as float l.
    ls = (1, 1.5, 2, 3, 150, 200, 2.0, 3.0)
    ns = [1, 2, 6, 12, 720720, 10**6 - 1, 2**61 - 2, 2**63 - 25] + list(range(3, 400, 7))
    saw_inf = False
    for n in ns:
        factors = factorize(n) if n > 1 else []
        rec = anatomy_record(n, ls)
        for l in ls:
            t = smallness_threshold(n, l)
            saw_inf |= t == math.inf
            assert rec.thresholds[float(l)].hex() == t.hex()
            w = sum(1 for q, _ in factors if q <= t)
            assert rec.omega_l[float(l)] == w
            if l > 1:
                assert rec.bounds[float(l)].hex() == bound_general(len(factors), w, float(l)).hex()
            else:
                assert math.isnan(rec.bounds[float(l)])
    assert saw_inf


def test_anatomy_record_keeps_its_checks():
    with pytest.raises(ValueError, match="anatomy requires n >= 1"):
        anatomy_record(0, [2.0])
    for bad in (0.5, 200.5, math.nan):
        with pytest.raises(ValueError, match="l must lie in"):
            anatomy_record(12, [2.0, bad])


# ---------------------------------------------------------------------------
# bound shapes
# ---------------------------------------------------------------------------


def test_bound_general_examples():
    assert bound_general(5, 5, math.e) == 5.0
    assert bound_general(5, 2, math.e) == 5.0
    assert bound_general(10, 2, math.e**2) == 6.0


def test_bound_general_validation():
    with pytest.raises(ValueError):
        bound_general(5, 6, math.e)
    with pytest.raises(ValueError):
        bound_general(5, 2, 1.0)


@given(st.integers(0, 50), st.floats(1.001, 100.0))
def test_bound_general_collapses_when_all_small(om, l):
    assert math.isclose(bound_general(om, om, l), om)


# ---------------------------------------------------------------------------
# dyadic schedule
# ---------------------------------------------------------------------------


def test_iterated_log_chain_pinned_values():
    # values pinned for p = 10**100: ln, ln ln ~ 5.44, ln ln ln ~ 1.69, ~0.53
    assert math.isclose(_iterated_log(10**100, 1), 230.25850929940458)
    assert math.isclose(_iterated_log(10**100, 2), 5.439202631236047, rel_tol=1e-12)
    assert math.isclose(_iterated_log(10**100, 3), 1.693632474984233, rel_tol=1e-12)
    assert math.isclose(_iterated_log(10**100, 4), 0.5268756157752692, rel_tol=1e-12)
    # level-1 value the schedule would produce: exp(log2 / (2 log3)) ~ 5.0
    assert math.isclose(
        math.exp(5.439202631236047 / (2 * 1.693632474984233)), 4.981744318338499
    )
    # log3(10**6) < 1, so the fourth iterate is undefined
    assert _iterated_log(10**6, 3) < 1
    assert _iterated_log(10**6, 4) is None


def test_dyadic_degenerate_small_p():
    # log3 <= 1 up to p ~ e**(e**e) ~ 3.8e6, so the fourth iterate is undefined
    for p in (17, 1009, 10**6 + 3):
        s = dyadic_schedule(p)
        assert s.degenerate
        assert s.levels == ()
        assert s.n_levels == 0


def test_dyadic_single_level_large_p():
    s = dyadic_schedule(2**61 - 1)
    assert not s.degenerate
    assert s.n_levels == 1
    log2p = _iterated_log(2**61 - 1, 2)
    log3p = _iterated_log(2**61 - 1, 3)
    assert s.levels == (math.exp(log2p / (2 * log3p)),)
    assert s.levels[0] > 1.0


def test_dyadic_degenerate_huge():
    # log3(10**100) ~ 1.69 sits in the window where N rounds down to zero
    s = dyadic_schedule(10**100)
    assert s.degenerate  # N = floor(0.92) = 0


def test_dyadic_validation():
    with pytest.raises(ValueError):
        dyadic_schedule(13)


def test_degenerate_schedule_falls_back_to_single_level():
    # documented fallback: evaluate the one-level bound shape instead
    s = dyadic_schedule(10**6 + 3)
    assert s.degenerate
    om = omega(10**6 + 2)
    assert bound_general(om, omega_l(10**6 + 2, 3.0), 3.0) > 0

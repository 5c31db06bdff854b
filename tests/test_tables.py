"""The per-precision tables of x-free summand halves and derivative chains,
and the coffey panel carry: each returns the bits a fresh computation
returns."""

import pytest
from mpmath import log, mp, mpf, workdps, workprec

from stieltjes.core import PREC_TABLES_MAX, PrecTable, comp_sum, working_dps
from stieltjes.gamma import (_SERIES_C_STEPS, _coffey_panels, _lattice_plan,
                             _series_c_steps, gamma_diff, gamma_n, incgamma_int)
from stieltjes.logpoly import _CHAINS, LogPoly, pow_diff
from stieltjes.related import digamma
from stieltjes.zeta import _DERIV_TABLES, _deriv_tables, zeta_deriv0_diff

TOL = mpf("1e-15")

# name -> call at x; every route that reads a table or a cached chain
CALLS = {
    "series_c": lambda x: gamma_n(3, x, "series_c", TOL),
    "coffey": lambda x: gamma_n(3, x, "coffey", TOL),
    "zeta_deriv0_diff": lambda x: zeta_deriv0_diff(2, x, TOL),
    "digamma": lambda x: digamma(x, TOL),
    "gamma_diff": lambda x: gamma_diff(2, x, x + 2, TOL),
}


def _clear():
    for table in (_CHAINS, _SERIES_C_STEPS, _DERIV_TABLES):
        table.clear()


def _bits(sv):
    return repr(sv.value), repr(sv.abs_err), sv.terms_used


@pytest.fixture(autouse=True)
def cold_tables():
    _clear()
    yield
    _clear()


@pytest.mark.parametrize("name", CALLS)
def test_cache_hits_have_cold_bits(name):
    call = CALLS[name]
    x = mpf("0.7")
    cold = _bits(call(x))
    assert _bits(call(x)) == cold
    # tables filled at another x serve this one too
    _clear()
    call(mpf("5.3"))
    assert _bits(call(x)) == cold


def test_tables_are_keyed_by_precision():
    x = mpf("1.3")
    cold = {}
    for dps in (20, 50):
        mp.dps = dps
        for name, call in CALLS.items():
            _clear()
            cold[name, dps] = _bits(call(x))
    _clear()
    for _ in range(2):
        for dps in (20, 50):
            mp.dps = dps
            for name, call in CALLS.items():
                assert _bits(call(x)) == cold[name, dps], (name, dps)


def test_table_entries_are_the_fresh_computation():
    with workdps(42):
        q = 4
        steps = _series_c_steps(q, 40)
        for k in (0, 1, 17, 39):
            la = log(k + 1)
            delta = log((mpf(k + 2) + 0) / (k + 1))
            assert steps[k] == pow_diff(la, la + delta, delta, q) / q
        logs, diffs = _deriv_tables(q, 40)
        for n in (1, 2, 17, 40):
            d2 = log(1 + mpf(1) / n)
            assert logs[n] == log(n)
            assert diffs[n] == pow_diff(log(n), log(n) + d2, d2, q)


def test_prec_table_holds_the_most_recent_precisions():
    table = PrecTable()
    precs = list(range(100, 100 + PREC_TABLES_MAX + 2))
    for prec in precs:
        with workprec(prec):
            table.at_prec()["prec"] = prec
    with workprec(precs[2]):  # used again, so the next drop passes it over
        assert table.at_prec()["prec"] == precs[2]
    with workprec(200):
        table.at_prec()
    for prec in [precs[2]] + precs[4:]:
        with workprec(prec):
            assert table.at_prec()["prec"] == prec
    for prec in precs[:2] + precs[3:4]:
        with workprec(prec):
            assert table.at_prec() == {}


def _reference_panel(n, j, x, q):
    """Panel defect D_j with every logarithm and incomplete gamma computed
    afresh."""
    a = j + x
    b = j + 1 + x
    la, lb = log(a), log(b)
    delta = log((mpf(j + 1) + x) / (j + x))
    dlog = pow_diff(la, la + delta, delta, q) / q
    if a >= 1:
        dGn = incgamma_int(n, la) - incgamma_int(n, lb)
        dGn1 = incgamma_int(n + 1, la) - incgamma_int(n + 1, lb)
        return (lb ** n - la ** n) - dlog - (a + mpf(1) / 2) * (n * dGn - dGn1)
    return (la ** n / a + lb ** n / b) / 2 - dlog


@pytest.mark.parametrize("x", ["0.05", "1.5"])
@pytest.mark.parametrize("n", [1, 4])
def test_coffey_carry_matches_fresh_panels(n, x):
    # x = 0.05 switches from the a < 1 form to the incomplete gammas at the
    # second panel; x = 1.5 starts them at the first
    x = mpf(x)
    q = n + 1
    with workdps(working_dps(TOL)):
        assert list(_coffey_panels(n, x, 12)) == [
            _reference_panel(n, j, x, q) for j in range(12)]
        f = LogPoly.single(1, n, 1)
        K, tail = _lattice_plan(n, x, TOL, 32)
        partial = comp_sum(_reference_panel(n, j, x, q) for j in range(K))
        want = (f(x) - log(x) ** q / q - f(x) / 2
                + partial + tail.value - f(K + x) / 2)
    assert gamma_n(n, x, "coffey", TOL).value == want

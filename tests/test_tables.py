"""The per-precision table of x-free log steps and the coffey panel carry:
each returns the bits a fresh computation returns.  Also the accuracy of the
log-power step they rest on.  (The Euler-Maclaurin derivatives come from
logpoly's exact integer table, which does not depend on the precision; its
test is in test_logpoly.)"""

import pytest
from mpmath import log, mp, mpf, workdps, workprec

from stieltjes.core import PREC_TABLES_MAX, PrecTable, comp_sum, working_dps
from stieltjes.gamma import (_coffey_panels, _lattice_plan, gamma_diff, gamma_n,
                             incgamma_int)
from stieltjes.logpoly import _LOG_STEPS, LogPoly, log_steps, pow_step
from stieltjes.related import digamma
from stieltjes.zeta import zeta_deriv0_diff

TOL = mpf("1e-15")

# name -> call at x; every route that reads a table
CALLS = {
    "series_c": lambda x: gamma_n(3, x, "series_c", TOL),
    "coffey": lambda x: gamma_n(3, x, "coffey", TOL),
    "zeta_deriv0_diff": lambda x: zeta_deriv0_diff(2, x, TOL),
    "digamma": lambda x: digamma(x, TOL),
    "gamma_diff": lambda x: gamma_diff(2, x, x + 2, TOL),
}


def _clear():
    _LOG_STEPS.clear()


def _bits(sv):
    # the exact binary values: repr rounds to the ambient precision
    return sv.value._mpf_, sv.abs_err._mpf_, sv.terms_used


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
        logs, steps = log_steps(q, 40)
        for n in (1, 2, 17, 40):
            assert logs[n] == log(n)
            assert steps[n] == pow_step(log(n), n, mpf(n + 1), q)


def test_series_c_fill_serves_zeta_deriv0_diff():
    # at 34 digits both calls work at 50: series_c at 1e-21, and
    # zeta_deriv0_diff, which adds 8 guard digits, at 1e-15; gamma_2 and
    # zeta^(3)(0, x) both step log^3
    tol_c, tol_z = mpf("1e-21"), mpf("1e-15")
    assert working_dps(tol_c) == working_dps(tol_z) + 8 == 50
    x = mpf("0.7")
    cold = _bits(zeta_deriv0_diff(2, x, tol_z))
    _clear()
    K_c = gamma_n(2, x, "series_c", tol_c).terms_used
    with workdps(50):
        assert len(_LOG_STEPS.at_prec()[3]) == K_c + 1
    assert _bits(zeta_deriv0_diff(2, x, tol_z)) == cold


@pytest.mark.parametrize("q", [1, 2, 5, 9])
def test_pow_step_is_accurate(q):
    # the ratio b/a rounds once, so the step is relative-accurate up to the
    # condition a/(b - a) of log(b/a)
    for a in ("0.05", "0.7", "1", "3", "1e3", "1e6"):
        for h in ("0.2546", "1", "3.7", "500"):
            a_ = mpf(a)
            b_ = a_ + mpf(h)
            got = pow_step(log(a_), a_, b_, q)
            with workdps(90):
                want = log(b_) ** q - log(a_) ** q
                rel = abs(got - want) / abs(want)
            assert rel <= mpf(2) ** (6 - mp.prec) * (1 + a_ / (b_ - a_)), (a, h)


@pytest.mark.parametrize("q", [1, 2])
def test_pow_step_short_sums_keep_their_bits(q):
    # the step as the term-by-term sum it replaced; at q <= 2 the
    # recurrence rounds exactly as that sum does
    def written_out(la, a, b, q):
        delta = log(b / a)
        lb = la + delta
        return delta * sum(lb ** i * la ** (q - 1 - i) for i in range(q))

    for dps in (15, 34, 50):
        with workdps(dps):
            for a in ("0.05", "0.7", "1", "3", "17", "1e3", "1e6"):
                for h in ("1e-3", "0.2546", "1", "3.7", "500"):
                    a_ = mpf(a)
                    b_ = a_ + mpf(h)
                    got = pow_step(log(a_), a_, b_, q)
                    want = written_out(log(a_), a_, b_, q)
                    assert got._mpf_ == want._mpf_, (dps, a, h)


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
    dlog = pow_step(la, a, mpf(j + 1) + x, q) / q
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
        panels = _coffey_panels(n, x, 12, *mp._prec_rounding)
        assert [mp.make_mpf(d) for d in panels] == [
            _reference_panel(n, j, x, q) for j in range(12)]
        f = LogPoly.single(1, n, 1)
        K, tail = _lattice_plan(n, x, TOL, 32)
        partial = comp_sum(_reference_panel(n, j, x, q) for j in range(K))
        want = (f(x) - log(x) ** q / q - f(x) / 2
                + partial + tail.value - f(K + x) / 2)
    assert gamma_n(n, x, "coffey", TOL).value == want

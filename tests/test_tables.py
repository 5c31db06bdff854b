"""The per-precision tables: the Euler-Maclaurin weights, the fixed-point
logarithms of the integer lattice points, gamma1_alt's x-independent
brackets, which it shares with dilcher_power_series, and the x-free
constants and rational nodes of the closed forms.  Each
returns the bits a fresh computation returns.  Also the accuracy of the mpf
log-power step the references take (oracles.pow_step_ref), and the coffey
panel carry against fresh panels.  (The Euler-Maclaurin derivatives come from
logpoly's exact integer table, which does not depend on the precision; its
test is in test_logpoly.)"""

import pytest
from mpmath import log, mp, mpf, workdps, workprec

from stieltjes import gamma
from stieltjes.core import (PREC_TABLE_ENTRIES_MAX, PREC_TABLES_MAX, PrecTable,
                            rounding_floor, working_dps)
from stieltjes.gamma import (_BRACKETS, _CONSTANTS, RationalArg, _coffey_sum, _lattice_plan,
                             gamma1_alt, gamma1_rational, gamma_diff, gamma_n, incgamma_int,
                             rational_node, stieltjes_const)
from stieltjes.fixedpoint import _INT_LOGS, INT_LOG_GUARD, fixed_log, lattice_err
from oracles import LogPolyRef, pow_step_ref
from stieltjes.related import digamma, dilcher_log_gamma_k, dilcher_power_series, eta
from stieltjes.verifier import run_suite
from stieltjes.zeta import hurwitz_em, zeta_deriv0_diff, zeta_prime_int

TOL = mpf("1e-15")

# name -> call at x; every route that reads a table
CALLS = {
    "series_c": lambda x: gamma_n(3, x, "series_c", TOL),
    "coffey": lambda x: gamma_n(3, x, "coffey", TOL),
    "zeta_deriv0_diff": lambda x: zeta_deriv0_diff(2, x, TOL),
    "digamma": lambda x: digamma(x, TOL),
    "gamma_diff": lambda x: gamma_diff(2, x, x + 2, TOL),
    "dilcher_log_gamma_k": lambda x: dilcher_log_gamma_k(2, x, TOL),
    "gamma1_alt": lambda x: gamma1_alt(TOL),
    "dilcher_power_series": lambda x: dilcher_power_series(x / 8, TOL),
    "gamma1_rational": lambda x: gamma1_rational(RationalArg(2, 7), TOL),
    "eta": lambda x: eta(3, tol=TOL),
}


def _clear():
    _INT_LOGS.clear()
    _BRACKETS.clear()
    _CONSTANTS.clear()


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
    tol = mpf("1e-15")
    gamma1_alt(tol)
    with workdps(working_dps(tol)):
        table = _BRACKETS.at_prec()
        assert len(table) > 20
        for (n, inner_tol), (z, zp) in list(table.items())[::5]:
            assert z == hurwitz_em(n + 1, 1, inner_tol).value
            assert zp == zeta_prime_int(n + 1, inner_tol).value
    # the s = 0 derivative series reads log n at every point 1..K + 1 of its
    # integer stream (its probes at K and K + 1, its partial sum 1..K)
    _clear()
    K = zeta_deriv0_diff(2, mpf("0.7"), TOL).terms_used
    with workdps(working_dps(TOL) + 8):
        logs = _INT_LOGS.at_prec()
        assert sorted(logs) == list(range(1, K + 2))
        for n, L in logs.items():
            assert L == fixed_log(mpf(n)._mpf_, mp.prec + INT_LOG_GUARD)


def test_gamma1_alt_fill_serves_dilcher_power_series():
    # both sum the brackets at the inner tol tol/(1000 K) of the same K, so
    # gamma1_alt's fill is a cache hit for dilcher_power_series's first
    # brackets, with a cold call's bits
    x = mpf("0.3")
    cold = _bits(dilcher_power_series(x, TOL))
    _clear()
    gamma1_alt(TOL)
    with workdps(working_dps(TOL)):
        filled = len(_BRACKETS.at_prec())
    assert _bits(dilcher_power_series(x, TOL)) == cold
    with workdps(working_dps(TOL)):
        assert len(_BRACKETS.at_prec()) == max(filled, cold[2] + 1)


def test_constants_and_nodes_are_the_fresh_computation():
    const, node = stieltjes_const(1, TOL), rational_node(1, 2, 7, TOL)
    assert stieltjes_const(1, TOL) is const
    assert rational_node(1, 2, 7, TOL) is node
    _clear()
    assert _bits(stieltjes_const(1, TOL)) == _bits(const)
    assert _bits(rational_node(1, 2, 7, TOL)) == _bits(node)
    assert _bits(const) == _bits(gamma_n(1, 1, "series_b", TOL))
    assert _bits(node) == _bits(zeta_deriv0_diff(1, mpf(2) / 7, TOL))


def test_constants_are_keyed_by_precision():
    at_34 = stieltjes_const(1, TOL), rational_node(0, 3, 7, TOL)
    mp.dps = 50
    at_50 = stieltjes_const(1, TOL), rational_node(0, 3, 7, TOL)
    assert all(a is not b for a, b in zip(at_34, at_50))
    assert _bits(at_50[0]) == _bits(gamma_n(1, 1, "series_b", TOL))
    assert _bits(at_50[1]) == _bits(zeta_deriv0_diff(0, mpf(3) / 7, TOL))
    mp.dps = 34
    assert stieltjes_const(1, TOL) is at_34[0]


def test_prec_table_get_drops_the_least_recently_used():
    table = PrecTable()
    computed = []

    def value(key):
        computed.append(key)
        return key

    for key in range(PREC_TABLE_ENTRIES_MAX):
        table.get(key, lambda key=key: value(key))
    table.get(0, lambda: value(0))  # a hit: 0 becomes the most recent
    for key in range(PREC_TABLE_ENTRIES_MAX, PREC_TABLE_ENTRIES_MAX + 10):
        table.get(key, lambda key=key: value(key))
        assert len(table.at_prec()) == PREC_TABLE_ENTRIES_MAX
    held = table.at_prec()
    assert 0 in held and all(key not in held for key in range(1, 11))
    assert computed == list(range(PREC_TABLE_ENTRIES_MAX + 10))


def _counting(monkeypatch, module, name, keep):
    """Wrap module.name so that each call's keep(args) is recorded."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(keep(args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_sweep_over_p_computes_each_node_once(monkeypatch):
    calls = _counting(monkeypatch, gamma, "zeta_deriv0_diff", lambda a: (a[0], a[1]))
    for p in range(1, 7):
        gamma1_rational(RationalArg(p, 7), TOL)
    # zeta''(0, j/7) and log Gamma(j/7) for j = 1..6, not once per p
    assert len(calls) == 12 and len(set(calls)) == 12


def test_g_functions_computes_each_constant_once(monkeypatch):
    calls = _counting(monkeypatch, gamma, "gamma_n", lambda a: (a[0], a[1]))
    run_suite(["g_functions"])
    assert sorted(calls) == [(1, 1), (2, 1)]


@pytest.mark.parametrize("q", [1, 2, 5, 9])
def test_pow_step_is_accurate(q):
    # the references' mpf step: the ratio b/a rounds once, so the step is
    # relative-accurate up to the condition a/(b - a) of log(b/a)
    for a in ("0.05", "0.7", "1", "3", "1e3", "1e6"):
        for h in ("0.2546", "1", "3.7", "500"):
            a_ = mpf(a)
            b_ = a_ + mpf(h)
            got = pow_step_ref(log(a_), a_, b_, q)
            with workdps(90):
                want = log(b_) ** q - log(a_) ** q
                rel = abs(got - want) / abs(want)
            assert rel <= mpf(2) ** (6 - mp.prec) * (1 + a_ / (b_ - a_)), (a, h)


@pytest.mark.parametrize("q", [1, 2])
def test_pow_step_short_sums_keep_their_bits(q):
    # the references' mpf step as the term-by-term sum; at q <= 2 the
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
                    got = pow_step_ref(log(a_), a_, b_, q)
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
    afresh, in mpf."""
    a = j + x
    b = j + 1 + x
    la, lb = log(a), log(b)
    dlog = pow_step_ref(la, a, mpf(j + 1) + x, q) / q
    if a >= 1:
        dGn = incgamma_int(n, la) - incgamma_int(n, lb)
        dGn1 = incgamma_int(n + 1, la) - incgamma_int(n + 1, lb)
        return (lb ** n - la ** n) - dlog - (a + mpf(1) / 2) * (n * dGn - dGn1)
    return (la ** n / a + lb ** n / b) / 2 - dlog


@pytest.mark.parametrize("x", ["0.05", "1.5"])
@pytest.mark.parametrize("n", [1, 4])
def test_coffey_carry_matches_fresh_panels(n, x):
    # x = 0.05 switches from the a < 1 form to the incomplete gammas at the
    # second panel; x = 1.5 starts them at the first.  The carried sum, end
    # terms included, is within its 2^-prec of the fresh panels at twice
    # the digits, and the route's value within that and its rounding floor
    # of the fresh sum.
    x = mpf(x)
    q = n + 1
    dps = working_dps(TOL)
    with workdps(dps):
        carried = _coffey_sum(n, x, 12)
        bound = lattice_err()
        K, tail = _lattice_plan(n, x, TOL)
        value = gamma_n(n, x, "coffey", TOL).value
        floor = rounding_floor(value)
    with workdps(2 * dps + 20):
        f = LogPolyRef.single(1, n, 1)

        def with_ends(K):  # f(x)/2 - log^q x/q + the panels - f(K+x)/2
            panels = mp.fsum(_reference_panel(n, j, x, q) for j in range(K))
            return f(x) / 2 - log(x) ** q / q + panels - f(K + x) / 2

        assert abs(carried - with_ends(12)) <= bound
        assert abs(value - (with_ends(K) + tail.value)) <= bound + floor

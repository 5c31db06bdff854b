"""Claim audit of the Euler-Maclaurin routes whose order rises with the
digits asked for: log_gamma, digamma, dilcher_log_gamma_k, hurwitz_em and
zeta_prime_int; of hurwitz_hasse, whose start shift and term budget grow
with them; of dilcher_power_series inside the unit disc; and of em_tail
on the golden sample's grid.

Every claim must bound the true error, taken against mpmath at 40 more
digits than the route works at, and meet the tolerance.  The grids reach
the first rung of each ladder (at 1e-12) and orders past 13 (at 1e-50, and
for gamma_n, log-gamma and digamma at 1e-100 and 1e-200).  The log-lattice
routes' plans stop at their first rung, ladder_start(tol), from 6 to 150
digits, and a seeded random audit draws their inputs, tolerances and
ambient precisions; a second one does so for digamma, hurwitz_em,
hurwitz_hasse, delta and em_tail.
"""

import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import factorial, log, loggamma, mp, mpf, psi, stieltjes, workdps, zeta

from stieltjes.core import ConvergenceError, DomainError, tol_digits, working_dps
from stieltjes.gamma import gamma_diff, gamma_n
from stieltjes.logpoly import em_tail, ladder_start
from stieltjes.related import (delta, digamma, dilcher_log_gamma_k, dilcher_power_series,
                               log_gamma)
from stieltjes.zeta import hurwitz_em, hurwitz_hasse, zeta_deriv0_diff, zeta_prime_int

TOLS = ("1e-12", "1e-30", "1e-50")
XS = ("0.05", "0.7", "1.37", "3.3", "7.9", "40.5")


def _audit(sv, tol, reference):
    """|value - reference| <= abs_err <= tol, the reference evaluated at
    working_dps(tol) + 40."""
    with workdps(working_dps(tol) + 40):
        ref = reference()
        assert abs(sv.value - ref) <= sv.abs_err <= tol


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("x", XS)
def test_log_gamma_claims(x, tol):
    x, tol = mpf(x), mpf(tol)
    _audit(log_gamma(x, tol), tol, lambda: loggamma(x))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("x", XS)
def test_digamma_claims(x, tol):
    x, tol = mpf(x), mpf(tol)
    _audit(digamma(x, tol), tol, lambda: psi(0, x))


def test_digamma_keeps_a_small_x_at_a_low_ambient_precision():
    # 1 + 1e-20 rounds to 1 at 15 digits; the sum must see it exactly
    with workdps(15):
        x, tol = mpf("1e-20"), mpf("1e-30")
        _audit(digamma(x, tol), tol, lambda: psi(0, x))


@pytest.mark.parametrize("route,n", [("digamma", 0), ("series_c", 2), ("coffey", 2),
                                     ("series_c", 0), ("coffey", 1)])
def test_tiny_x_claims_meet_tol(route, n):
    # at x = 1e-20 the largest term, 1/x for digamma and |log^(n+1) x|/x for
    # the gamma_n routes, adds its guard digits at mp.dps 15, so the rounding
    # floor of a value near 1e20 stays below tol; gamma_n(x) = gamma_n(1 + x)
    # + log^n x / x is the reference
    with workdps(15):
        x, tol = mpf("1e-20"), mpf("1e-12")
        if route == "digamma":
            _audit(digamma(x, tol), tol, lambda: psi(0, x))
        else:
            _audit(gamma_n(n, x, route, tol), tol,
                   lambda: stieltjes(n, 1 + x) + log(x) ** n / x)


@lru_cache(maxsize=None)
def _tiny_x_reference(n, x):
    # gamma_n(x) = gamma_n(1 + x) + log^n x / x at the binary x the routes
    # read (re-parsing the text at more digits reads another x), 40 digits
    # past working_dps(1e-30)
    with workdps(working_dps(mpf("1e-30")) + 40):
        return stieltjes(n, 1 + x) + log(x) ** n / x


@pytest.mark.parametrize("tol", ("1e-12", "1e-30"))
@pytest.mark.parametrize("x", ("9.9e-7", "1e-20"))
@pytest.mark.parametrize("n", (1, 8))
@pytest.mark.parametrize("route", ("series_b", "series_c", "coffey"))
def test_every_route_takes_a_tiny_x(route, n, x, tol):
    # one domain for the three routes: series_b takes x below 1e-6 as the
    # others do, each adding the guard digits of its largest term
    x, tol = mpf(x), mpf(tol)
    sv = gamma_n(n, x, route, tol)
    with workdps(working_dps(mpf("1e-30")) + 40):
        assert abs(sv.value - _tiny_x_reference(n, x)) <= sv.abs_err <= tol


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("x", ("-0.9", "-0.5", "0.05", "1.37", "7.9", "40.5"))
@pytest.mark.parametrize("k", (0, 1, 2, 4))
def test_dilcher_log_gamma_k_claims(k, x, tol):
    # log Gamma_k(x+1) = (-1)^k [zeta^(k+1)(0, x+1) - zeta^(k+1)(0)]/(k+1)
    x, tol = mpf(x), mpf(tol)
    _audit(dilcher_log_gamma_k(k, x, tol), tol,
           lambda: (-1) ** k * (zeta(0, x + 1, k + 1) - zeta(0, 1, k + 1)) / (k + 1))


@pytest.mark.parametrize("x", ("-0.9", "-0.5", "0.1", "0.5", "0.9"))
def test_dilcher_power_series_claims(x):
    # log Gamma_1(x+1) + gamma_1 x = -[zeta''(0, x+1) - zeta''(0)]/2 + gamma_1 x
    x, tol = mpf(x), mpf("1e-12")
    _audit(dilcher_power_series(x, tol), tol,
           lambda: -(zeta(0, x + 1, 2) - zeta(0, 1, 2)) / 2 + stieltjes(1) * x)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("x", ("0.05", "1.37", "8"))
@pytest.mark.parametrize("s", ("-10.5", "-2.5", "0.5", "1.5", "4.5", "10"))
def test_hurwitz_em_claims(s, x, tol):
    s, x, tol = mpf(s), mpf(x), mpf(tol)
    _audit(hurwitz_em(s, x, tol), tol, lambda: zeta(s, x))


@pytest.mark.parametrize("s,x", [("-5.5", "1e4"), ("-10.5", "1e3"), ("0.5", "1e40")])
@pytest.mark.parametrize("route", [hurwitz_em, hurwitz_hasse])
def test_large_x_claims_meet_tol_at_s_below_1(route, s, x):
    # at s < 1 the boundary term and the head sum are about x^(1-s), 1e26,
    # 1e34 and 1e20 here; its guard digits hold the rounding floor below tol
    # at mp.dps 15, where hurwitz_em claimed 3.1e-6, 712 and 3.9e-11
    # without them
    with workdps(15):
        s, x, tol = mpf(s), mpf(x), mpf("1e-12")
        _audit(route(s, x, tol), tol, lambda: zeta(s, x))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("x", XS[:5])
@pytest.mark.parametrize("s", ("-2.5", "-0.5", "0.5", "1.5", "2", "4.5"))
def test_hurwitz_hasse_claims(s, x, tol):
    s, x, tol = mpf(s), mpf(x), mpf(tol)
    _audit(hurwitz_hasse(s, x, tol), tol, lambda: zeta(s, x))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("s", ("1.1", "1.5", "2", "3.3", "10", "25"))
def test_zeta_prime_int_claims(s, tol):
    s, tol = mpf(s), mpf(tol)
    _audit(zeta_prime_int(s, tol), tol, lambda: zeta(s, 1, 1))


def _em_tail_reference(m, p, a):
    """sum_{k>=0} f(a+k) - int_a^inf f for f = log^m t / t^p, by mpmath."""
    la = log(a)
    if p == 1:
        return stieltjes(m, a) + la ** (m + 1) / (m + 1)
    integral = (factorial(m) / (p - 1) ** (m + 1) * a ** (1 - p)
                * sum(((p - 1) * la) ** j / factorial(j) for j in range(m + 1)))
    return (-1) ** m * zeta(p, a, m) - integral


# the golden sample's em_tail entries: log^n t / t at 32.2546 for n 0..8,
# and log^m t / t^p for m 0..3, p 1..3 at starts on both sides of the
# certified start
EM_TAIL_CASES = ([(n, 1, "32.2546", J) for n in range(9) for J in (4, 13)]
                 + [(m, p, a, J) for m in range(4) for p in (1, 2, 3)
                    for a in ("4.5", "12.25", "30.5", "100.75", "500.5") for J in (4, 8)])


def test_em_tail_claims():
    # the claim is the certified remainder and the fixed-point value's own
    # bound, with no rounding floor: it must bound the true error alone,
    # against mpmath at 50 digits (the orders J share one reference)
    refs = {}
    for m, p, a, J in EM_TAIL_CASES:
        with workdps(34):
            start = mpf(a)
            sv = em_tail(m, p, start, J)
        with workdps(50):
            if (m, p, a) not in refs:  # at the start's binary value
                refs[m, p, a] = _em_tail_reference(m, p, start)
            assert abs(sv.value - refs[m, p, a]) <= sv.abs_err, (m, p, a, J)


def test_the_grids_reach_the_first_rung():
    # the ladders of log_gamma (zeta_deriv0_diff), digamma (series_b) and
    # dilcher_log_gamma_k start at ladder_start(1e-12) = 8 terms, hurwitz_em's
    # at |s| + 14 and zeta_prime_int's at 8
    tol = mpf("1e-12")
    assert ladder_start(tol) == 8
    for x in XS[:4]:
        x = mpf(x)
        assert log_gamma(x, tol).terms_used == 8
        assert digamma(x, tol).terms_used == 8
        assert dilcher_log_gamma_k(2, x, tol).terms_used == 8
        assert hurwitz_em(mpf("1.5"), x, tol).terms_used == 15
    assert zeta_prime_int(2, tol).terms_used == 8


def test_fifty_digits_take_a_few_hundred_terms():
    # with fixed orders each of these took 65536 terms (3840 in hurwitz_em);
    # with orders up to 13, 128, 128, 256, 240 and 128.  With orders up to
    # J_PLAN_MAX they take 32, 32, 32, 60 and 32, and gamma_1 32 at J = 23:
    # Gamma_2 took 64 from a first rung of 16, which raised J to 49 and failed
    x, tol = mpf("1.37"), mpf("1e-50")
    with workdps(100):
        plans = [sv.terms_used for sv in (
            log_gamma(x, tol), digamma(x, tol), dilcher_log_gamma_k(2, x, tol),
            hurwitz_em(mpf("1.5"), x, tol), zeta_prime_int(2, tol))]
        assert plans == [32, 32, 32, 60, 32]
        sv = gamma_n(1, x, "series_b", tol)
        assert (sv.terms_used, sv.order) == (32, 23)
        assert abs(sv.value - stieltjes(1, x)) <= sv.abs_err <= tol


def test_gamma2_at_fifty_digits_probes_one_rung(monkeypatch):
    # Gamma_2(1.37) at 1e-50: the first rung, K = 32, passes at J = 24.  The
    # probes are the em_tail_shifted calls keyed d = 1 (gamma_2's own plan,
    # inside, keys d = 0)
    import stieltjes.logpoly as logpoly_mod

    probes = []
    real = logpoly_mod.em_tail_shifted

    def counted(v, start, J=4, bound=None, key=None, integral=True):
        if key is not None and key[2] == 1:
            probes.append(start)
        return real(v, start, J, bound, key, integral)

    monkeypatch.setattr(logpoly_mod, "em_tail_shifted", counted)
    x, tol = mpf("1.37"), mpf("1e-50")
    with workdps(100):
        sv = dilcher_log_gamma_k(2, x, tol)
    assert probes == [32] and (sv.terms_used, sv.order) == (32, 24)


FIRST_RUNG_DIGITS = (6, 12, 15, 20, 30, 50, 100, 150)
FIRST_RUNG_XS = ("0.05", "0.2546", "1", "3.7", "8", "500")


@pytest.mark.parametrize("digits", FIRST_RUNG_DIGITS)
def test_first_rungs_pass_through_150_digits(digits):
    # every plan of the three gamma_n routes (n 0..8) and of
    # zeta_deriv0_diff (k 0..6) stops at the first rung it probes,
    # ladder_start(tol), series_c's at 3/2 of it so that its tail starts
    # at a different K from series_b's.  At 200 digits the first rung,
    # K = 128, fails at J_PLAN_MAX (test_logpoly's failing-rung test)
    tol = mpf(10) ** -digits
    K0 = ladder_start(tol)
    for x in map(mpf, FIRST_RUNG_XS):
        for n in range(9):
            Ks = {method: gamma_n(n, x, method, tol).terms_used
                  for method in ("series_b", "series_c", "coffey")}
            assert Ks == {"series_b": K0, "series_c": K0 + K0 // 2, "coffey": K0}, (n, x)
        for k in range(7):
            assert zeta_deriv0_diff(k, x, tol).terms_used == K0, (k, x)


@pytest.mark.parametrize("dps,n,x,y,tol", [(15, 1, "1e-30", "1", "1e-20"),
                                           (34, 1, "1e-30", "1", "1e-20"),
                                           (15, 1, "1e-20", "2e-20", "1e-12")])
def test_gamma_diff_tiny_x_claims_meet_tol(dps, n, x, y, tol):
    # the largest term f(1e-30) is about 7e31; without its guard digits the
    # rounding floor alone was 3.78e-16 at tol 1e-20.  gamma_n(x) =
    # gamma_n(1 + x) + log^n x / x is the reference, at the ambient digits
    # plus those of the value and of tol and 20 more
    with workdps(dps):
        x, y, tol = mpf(x), mpf(y), mpf(tol)
        sv = gamma_diff(n, x, y, tol)
        digits = dps + max(0, int(mp.log10(abs(sv.value)))) + tol_digits(tol) + 20
    with workdps(digits):
        ref = (stieltjes(n, 1 + x) + log(x) ** n / x
               - stieltjes(n, 1 + y) - log(y) ** n / y)
        assert abs(sv.value - ref) <= sv.abs_err <= tol


# gamma_n at 100 and 200 digits, where the orders pass 13 at the first
# rungs, and log-gamma and digamma at 100: each reference once per module,
# at the digits asked for plus 40 (mpmath's stieltjes at 240 digits takes
# about 2.5 s)
HIGH_X = mpf("0.7")


@lru_cache(maxsize=None)
def _high_reference(n, digits):
    with workdps(digits + 40):
        return +stieltjes(n, HIGH_X)


@pytest.mark.parametrize("digits", (100, 200))
@pytest.mark.parametrize("method", ("series_b", "series_c", "coffey"))
@pytest.mark.parametrize("n", (1, 4))
def test_gamma_claims_at_100_and_200_digits(n, method, digits):
    tol = mpf(10) ** -digits
    sv = gamma_n(n, HIGH_X, method, tol)
    assert sv.order > 13
    with workdps(digits + 40):
        assert abs(sv.value - _high_reference(n, digits)) <= sv.abs_err <= tol


@pytest.mark.parametrize("route,reference",
                         [(log_gamma, loggamma), (digamma, lambda x: psi(0, x))],
                         ids=["log_gamma", "digamma"])
def test_claims_at_100_digits(route, reference):
    tol = mpf(10) ** -100
    sv = route(HIGH_X, tol)
    assert sv.order > 13
    with workdps(140):
        assert abs(sv.value - reference(HIGH_X)) <= sv.abs_err <= tol


# The seeded random audit: each example draws an order n, two points x and y
# log-uniform in [1e-6, 1e4], a tolerance from 1e-6 to 1e-32 and an ambient
# precision, and audits every lattice route whose plan starts at
# ladder_start(tol) on them.  The references are taken at the ambient digits
# plus those of the largest term and of tol, and REF_MARGIN more.
AUDIT_DPS = (15, 20, 34, 50)
AUDIT_EXAMPLES = 20
REF_MARGIN = 20


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _audit_calls(n, x, y, tol):
    """A (text, call, reference) triple per audited route, reference(g)
    taking g(m) = gamma_n(m), and a bound on the largest term the routes and
    their references sum."""
    k, kd = n % 7, n % 5

    def dilcher(m):  # log Gamma_kd(m + 1) from zeta^(kd+1)(0, m + 1)
        return (-1) ** kd * (zeta(0, m + 1, kd + 1) - zeta(0, 1, kd + 1)) / (kd + 1)

    calls = [(f"gamma_n({n}, x, {method!r}, tol)",
              lambda method=method: gamma_n(n, x, method, tol), lambda g: g(x))
             for method in ("series_b", "series_c", "coffey")]
    calls += [(f"gamma_diff({n}, x, y, tol)", lambda: gamma_diff(n, x, y, tol),
               lambda g: g(x) - g(y)),
              (f"zeta_deriv0_diff({k}, x, tol)", lambda: zeta_deriv0_diff(k, x, tol),
               lambda g: zeta(0, x, k + 1) - zeta(0, 1, k + 1)),
              (f"dilcher_log_gamma_k({kd}, x, tol)", lambda: dilcher_log_gamma_k(kd, x, tol),
               lambda g: dilcher(x))]
    # |log^(n+1) m|/m bounds the gamma_n routes' largest term, (m + 1)
    # |log^7(m + 1)| the zeta and Gamma_k series'
    size = max(abs(log(m)) ** (n + 1) / m + (m + 1) * abs(log(m + 1)) ** 7 for m in (x, y))
    return calls, size


def test_random_claims_bound_the_true_error():
    # |value - reference| <= abs_err <= tol on every case; every drawn input
    # is in every route's domain and these tolerances inside every route's
    # budget, so a DomainError or a ConvergenceError is a finding
    outcomes = Counter()

    @settings(derandomize=True, max_examples=AUDIT_EXAMPLES, deadline=None)
    @given(st.integers(0, 8), _log_uniform(1e-6, 1e4), _log_uniform(1e-6, 1e4),
           st.floats(6, 32), st.sampled_from(AUDIT_DPS))
    def audit(n, xf, yf, digits, dps):
        outcomes["examples"] += 1
        with workdps(dps):
            x, y, tol = mpf(xf), mpf(yf), mpf(10.0 ** -digits)
            calls, size = _audit_calls(n, x, y, tol)
            ref_dps = dps + int(mp.log10(size + 1)) + tol_digits(tol) + REF_MARGIN
            gammas = {}

            def g(m):  # gamma_n(m) at ref_dps, once per point
                if m not in gammas:
                    # gamma_n(m) = gamma_n(1 + m) + log^n m / m keeps mpmath
                    # off a small m
                    gammas[m] = (stieltjes(n, 1 + m) + log(m) ** n / m if m < 1
                                 else stieltjes(n, m))
                return gammas[m]

            for text, call, reference in calls:
                repro = (f"x, y, tol = mpf({xf!r}), mpf({yf!r}), mpf({10.0 ** -digits!r}) "
                         f"at mp.dps {dps}: {text}")
                try:
                    sv = call()
                except (DomainError, ConvergenceError) as exc:
                    raise AssertionError(repro) from exc
                outcomes["audited"] += 1
                with workdps(ref_dps):
                    gap = abs(sv.value - reference(g))
                assert gap <= sv.abs_err <= tol, repro

    audit()
    assert outcomes["audited"] == 6 * outcomes["examples"]


# The seeded audit of the other claimed routes: digamma, hurwitz_em and
# hurwitz_hasse at a drawn x and s, delta at a drawn order, each at the
# drawn tol, and em_tail of log^m t / t^p from a drawn start, p in
# EM_TAIL_PS (p = 1 needs mpmath's stieltjes at a general start, a few
# hundred ms per reference; test_em_tail_claims audits it on the golden
# grid).  Each reference is taken at the ambient digits plus those of the
# value and of tol or of the claim, whichever asks more, and REF_MARGIN
# more.
OTHER_EXAMPLES = 100
EM_TAIL_PS = (mpf("1.5"), 2, mpf("2.5"), 3)


def _other_calls(n, s, x, a, p, tol):
    """A (text, call, reference, tol or None) quadruple per audited route;
    None where the route reads tol as the bound its order rises to and may
    stop short of (em_tail, whose turning point near a start of 2 allows
    only a few orders)."""
    k = n % 3
    return [("digamma(x, tol)", lambda: digamma(x, tol), lambda: psi(0, x), tol),
            ("hurwitz_em(s, x, tol)", lambda: hurwitz_em(s, x, tol), lambda: zeta(s, x), tol),
            ("hurwitz_hasse(s, x, tol)", lambda: hurwitz_hasse(s, x, tol),
             lambda: zeta(s, x), tol),
            (f"delta({k}, tol)", lambda: delta(k, tol),
             lambda: (-1) ** k * (zeta(0, 1, k) + factorial(k)), tol),
            (f"em_tail({n}, {p}, a, 4, tol)", lambda: em_tail(n, p, a, 4, tol),
             lambda: _em_tail_reference(n, p, a), None)]


def test_random_claims_of_the_other_routes():
    # |value - reference| <= abs_err on every case, and abs_err <= tol where
    # the route promises it; as in the audit above, a DomainError or a
    # ConvergenceError is a finding
    outcomes = Counter()

    @settings(derandomize=True, max_examples=OTHER_EXAMPLES, deadline=None)
    @given(st.integers(0, 8), st.floats(-10.5, 10.5).filter(lambda s: abs(s - 1) > 1e-3),
           _log_uniform(1e-6, 1e3), _log_uniform(2, 1e4), st.sampled_from(EM_TAIL_PS),
           st.floats(12, 32), st.sampled_from(AUDIT_DPS))
    def audit(n, sf, xf, af, p, digits, dps):
        outcomes["examples"] += 1
        with workdps(dps):
            s, x, a, tol = mpf(sf), mpf(xf), mpf(af), mpf(10.0 ** -digits)
            for text, call, reference, promised in _other_calls(n, s, x, a, p, tol):
                repro = (f"s, x, a, tol = mpf({sf!r}), mpf({xf!r}), mpf({af!r}), "
                         f"mpf({10.0 ** -digits!r}) at mp.dps {dps}: {text}")
                try:
                    sv = call()
                except (DomainError, ConvergenceError) as exc:
                    raise AssertionError(repro) from exc
                outcomes["audited"] += 1
                size = max(0, int(mp.log10(abs(sv.value) + 1)))
                # a claim far below tol needs its own digits: hurwitz_hasse
                # at s = 3.4e-72, x = 1 claims 4.4e-74 of a value 3.2e-72
                # from -1/2
                claim = tol_digits(sv.abs_err) if sv.abs_err else 0
                with workdps(dps + size + max(tol_digits(tol), claim) + REF_MARGIN):
                    gap = abs(sv.value - reference())
                assert gap <= sv.abs_err, repro
                assert promised is None or sv.abs_err <= promised, repro

    audit()
    assert outcomes["audited"] == 5 * outcomes["examples"]

"""Claim audit of the Euler-Maclaurin routes whose order rises with the
digits asked for: log_gamma, digamma, dilcher_log_gamma_k, hurwitz_em and
zeta_prime_int; of hurwitz_hasse, whose start shift and term budget grow
with them; of dilcher_power_series inside the unit disc; and of em_tail
on the golden sample's grid.

Every claim must bound the true error, taken against mpmath at 40 more
digits than the route works at, and meet the tolerance.  The grids reach
the first rung of each ladder (at 1e-12) and orders past 13 (at 1e-50, and
for gamma_n, log-gamma and digamma at 1e-100 and 1e-200).
"""

from functools import lru_cache

import pytest
from mpmath import factorial, log, loggamma, mpf, psi, stieltjes, workdps, zeta

from stieltjes.core import working_dps
from stieltjes.gamma import gamma_n
from stieltjes.logpoly import em_tail
from stieltjes.related import digamma, dilcher_log_gamma_k, dilcher_power_series, log_gamma
from stieltjes.zeta import hurwitz_em, hurwitz_hasse, zeta_prime_int

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
    # the ladders start at 32 terms in log_gamma (zeta_deriv0_diff) and
    # digamma (series_b), at 16 in dilcher_log_gamma_k (2x + 2 past x = 7),
    # at |s| + 14 in hurwitz_em and at 8 in zeta_prime_int
    tol = mpf("1e-12")
    for x in XS[:4]:
        x = mpf(x)
        assert log_gamma(x, tol).terms_used == 32
        assert digamma(x, tol).terms_used == 32
        assert dilcher_log_gamma_k(2, x, tol).terms_used == 16
        assert hurwitz_em(mpf("1.5"), x, tol).terms_used == 15
    assert zeta_prime_int(2, tol).terms_used == 8


def test_fifty_digits_take_a_few_hundred_terms():
    # with fixed orders each of these took 65536 terms (3840 in hurwitz_em);
    # with orders up to 13, 128, 128, 256, 240 and 128.  With orders up to
    # J_PLAN_MAX they take 32, 32, 64, 60 and 32, and gamma_1 32 at J = 23
    x, tol = mpf("1.37"), mpf("1e-50")
    with workdps(100):
        plans = [sv.terms_used for sv in (
            log_gamma(x, tol), digamma(x, tol), dilcher_log_gamma_k(2, x, tol),
            hurwitz_em(mpf("1.5"), x, tol), zeta_prime_int(2, tol))]
        assert plans == [32, 32, 64, 60, 32]
        sv = gamma_n(1, x, "series_b", tol)
        assert (sv.terms_used, sv.order) == (32, 23)
        assert abs(sv.value - stieltjes(1, x)) <= sv.abs_err <= tol


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

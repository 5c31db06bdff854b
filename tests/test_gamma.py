import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import (e as e_const, exp, gammainc, log, mp, mpf, polyroots, quad,
                    stieltjes, workdps)
from mpmath.libmp import from_man_exp, to_fixed

import oracles
from oracles import LogPolyRef
from stieltjes.core import DomainError, working_dps
from stieltjes.gamma import (METHODS, RationalArg, _incgamma_pair, _incgamma_wp,
                             _lattice_plan, gamma1_alt, gamma1_rational, gamma_diff, gamma_n,
                             gamma_recurrence_check, incgamma_int,
                             stieltjes_integral)
from stieltjes.logpoly import _certified_start
from stieltjes.quadrature import quad_gl
from stieltjes.zeta import zeta_deriv0_diff

TOL = mpf("1e-15")


class TestGammaN:
    def test_euler_constant_series_b(self, gamma_ref):
        sv = gamma_n(0, 1, "series_b", TOL)
        assert abs(sv.value - gamma_ref) < TOL

    def test_gamma1_series_b(self, gamma1_ref):
        sv = gamma_n(1, 1, "series_b", TOL)
        assert abs(sv.value - gamma1_ref) < mpf("1e-15")

    def test_gamma1_series_c_matches_b(self):
        b = gamma_n(1, 1, "series_b", TOL)
        c = gamma_n(1, 1, "series_c", TOL)
        assert abs(b.value - c.value) <= b.abs_err + c.abs_err

    def test_gamma2_shift_invariance(self):
        one = gamma_n(2, 1, "series_b", TOL)
        two = gamma_n(2, 2, "series_b", TOL)
        assert abs(one.value - two.value) <= one.abs_err + two.abs_err

    def test_limit_method_rough_agreement(self):
        # the raw partial sum of the defining limit carries no bound; its
        # defect is ~ f(N)/2
        N = 20000
        with workdps(42):
            raw = oracles.gamma_n_partial_sum(1, mpf("1.5"), N)
        ref = gamma_n(1, mpf("1.5"), "series_b", TOL)
        defect = log(N) ** 1 / (2 * N)
        assert abs(raw - ref.value) < 3 * defect

    def test_series_c_allows_tiny_x(self):
        sv = gamma_n(1, mpf("1e-7"), "series_c", mpf("1e-12"))
        assert sv.value < 0  # dominated by log(x)/x

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            gamma_n(9, 1)
        with pytest.raises(DomainError):
            gamma_n(1, 0)
        with pytest.raises(DomainError):
            gamma_n(1, 1, "nonsense")
        with pytest.raises(DomainError):
            gamma_n(1, 1, "limit")  # the raw partial sum lives in the oracles

    def test_coffey_order_zero_delegates(self):
        a = gamma_n(0, mpf("1.5"), "coffey", TOL)
        b = gamma_n(0, mpf("1.5"), "series_b", TOL)
        assert a.value == b.value
        assert a.method == "series_b"

    @pytest.mark.parametrize("n,x", [(1, "1.0"), (2, "1.5"), (1, "0.5"),
                                     (3, "2.0"), (4, "0.25")])
    def test_coffey_agrees_with_series_b(self, n, x):
        a = gamma_n(n, mpf(x), "coffey", TOL)
        b = gamma_n(n, mpf(x), "series_b", TOL)
        assert abs(a.value - b.value) <= 10 * (a.abs_err + b.abs_err)

    def test_routes_agree_at_large_shift(self):
        b = gamma_n(1, mpf(500), "series_b", mpf("1e-13"))
        c = gamma_n(1, mpf(500), "series_c", mpf("1e-13"))
        assert abs(b.value - c.value) <= b.abs_err + c.abs_err

    def test_routes_agree_at_order_cap(self):
        b = gamma_n(8, mpf("1.5"), "series_b", mpf("1e-12"))
        c = gamma_n(8, mpf("1.5"), "series_c", mpf("1e-12"))
        assert abs(b.value - c.value) <= b.abs_err + c.abs_err

    def test_bit_identical_across_calls(self):
        a = gamma_n(2, mpf("1.37"), "series_b", mpf("1e-14"))
        b = gamma_n(2, mpf("1.37"), "series_b", mpf("1e-14"))
        assert a.value == b.value and a.abs_err == b.abs_err
        assert a.terms_used == b.terms_used

    def test_sign_structure_near_zero(self):
        x = mpf("0.001")
        g2 = gamma_n(2, x, "series_c", mpf("1e-10"))
        assert g2.value > mpf("0.9") * 1000 * log(1000) ** 2 - 10
        g1 = gamma_n(1, x, "series_c", mpf("1e-10"))
        assert g1.value < 0


class TestRecurrence:
    def test_order_zero_at_one(self, gamma_ref):
        rep = gamma_recurrence_check(0, 1, mpf("1e-13"))
        assert rep.passed
        # gamma_0(2) = gamma - 1
        two = gamma_n(0, 2, "series_b", TOL)
        assert abs(two.value - (gamma_ref - 1)) < mpf("1e-14")

    def test_order_one_at_one(self):
        rep = gamma_recurrence_check(1, 1, mpf("1e-13"))
        assert rep.passed and rep.residual < 2 * mpf("1e-13")

    def test_order_two_at_e(self):
        rep = gamma_recurrence_check(2, +e_const, mpf("1e-13"))
        assert rep.passed
        lhs = gamma_n(2, 1 + e_const, "series_b", TOL).value \
            - gamma_n(2, +e_const, "series_b", TOL).value
        assert abs(lhs + 1 / e_const) < mpf("1e-14")

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.integers(0, 3), st.floats(0.1, 5.0))
    def test_recurrence_property(self, n, xf):
        x = mpf(xf)
        rep = gamma_recurrence_check(n, x, mpf("1e-12"))
        assert rep.passed


class TestGammaDiff:
    def test_equal_arguments(self):
        sv = gamma_diff(2, mpf("1.3"), mpf("1.3"))
        assert sv.value == 0 and sv.abs_err == 0

    def test_digamma_half_vs_brute_oracle(self):
        sv = gamma_diff(0, mpf("0.5"), 1, mpf("1e-14"))
        assert abs(sv.value - mpf(oracles.PSI_ONE_MINUS_PSI_HALF)) < mpf("1e-14")
        assert abs(sv.value - 2 * log(2)) < mpf("1e-14")

    def test_order_one_shift(self):
        sv = gamma_diff(1, 1, 2, mpf("1e-14"))
        assert abs(sv.value) <= sv.abs_err + mpf("1e-14")

    def test_matches_direct_difference(self):
        for n, x, y in [(1, "0.3", "1.7"), (3, "0.25", "2.0")]:
            d = gamma_diff(n, mpf(x), mpf(y), TOL)
            a = gamma_n(n, mpf(x), "series_c", TOL)
            b = gamma_n(n, mpf(y), "series_c", TOL)
            assert abs(d.value - (a.value - b.value)) <= \
                d.abs_err + a.abs_err + b.abs_err + mpf("1e-25")

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.integers(0, 4), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_difference_property(self, n, xf, yf):
        x, y = mpf(xf), mpf(yf)
        d = gamma_diff(n, x, y, mpf("1e-13"))
        a = gamma_n(n, x, "series_c", mpf("1e-13"))
        b = gamma_n(n, y, "series_c", mpf("1e-13"))
        assert abs(d.value - (a.value - b.value)) <= \
            d.abs_err + a.abs_err + b.abs_err + mpf("1e-20")


class TestLatticePlan:
    """The (K, J) plan of the lattice routes: orders above 4 only where
    certified, and there the claimed error bounds the true one."""

    @pytest.mark.parametrize("n,J", [(0, 13), (1, 5), (1, 13), (2, 9),
                                     (3, 7), (5, 6), (8, 5)])
    def test_certified_orders_keep_one_sign(self, n, J):
        t_J = mpf(_certified_start(n, J))
        with workdps(80):
            d = LogPolyRef.single(1, n, 1)
            for _ in range(2 * J + 2):
                d = d.diff()
            for g in (d, d.diff().diff()):  # f^(2J+2), f^(2J+4)
                for i in range(81):
                    assert g(t_J * exp(mpf(i) / 8)) > 0

    def test_claims_bound_the_true_error(self):
        # orders above 4 at tolerances past point-evaluation sizes; plans of
        # more than 512 terms are left out to keep the audit short
        rng = random.Random(20190203)
        audited = 0
        for digits in (25, 30, 40, 50):
            tol = mpf(10) ** -digits
            for _ in range(6):
                n = rng.randint(0, 8)
                x = mpf(math.exp(rng.uniform(math.log(0.05), math.log(8))))
                routes = []
                for route in ("series_b", "series_c", "coffey"):
                    with workdps(2 * digits), workdps(working_dps(tol)):
                        K, tail = _lattice_plan(n, x, tol, route == "series_c")
                    if tail.terms_used > 4 and K <= 512:
                        routes.append(route)
                if not routes:
                    continue
                with workdps(digits + 20):
                    ref = stieltjes(n, x)
                with workdps(2 * digits):
                    for route in routes:
                        sv = gamma_n(n, x, route, tol)
                        assert abs(sv.value - ref) <= sv.abs_err <= tol, (n, x, route, digits)
                        audited += 1
        assert audited >= 12

    def test_fifty_digit_gamma1_plan_is_short(self):
        with workdps(100):
            sv = gamma_n(1, mpf("1.5"), "series_b", mpf("1e-50"))
        assert sv.terms_used <= 1024

    @pytest.mark.parametrize("n,x,y", [(0, "0.5", "4.2"), (1, "0.3", "1.7"),
                                       (2, "2.9", "1.1")])
    def test_gamma_diff_at_40_digits(self, n, x, y):
        x, y = mpf(x), mpf(y)
        tol = mpf("1e-40")
        with workdps(80):
            sv = gamma_diff(n, x, y, tol)
        with workdps(60):
            ref = stieltjes(n, x) - stieltjes(n, y)
        assert abs(sv.value - ref) <= sv.abs_err <= tol


@pytest.mark.parametrize("n", [6, 7, 8])
def test_tol_1e20_plans_stop_at_the_first_rung(n):
    # at tol 1e-20, n = 6..8 need J > 4 at the first rung, K = 16, far
    # below that order's certified start t_J; the remainder bound certifies
    # it there, so the plan stays at the first rung where, from K = 32 with
    # orders up to 13, it used to climb to K = 512.  The claim bounds the
    # true error and meets tol
    tol = mpf("1e-20")
    for x in ("0.2546", "3.7"):
        x = mpf(x)
        with workdps(mp.dps + 30):
            ref = stieltjes(n, x)
        for route in ("series_b", "coffey"):
            sv = gamma_n(n, x, route, tol)
            assert sv.terms_used == 16
            assert abs(sv.value - ref) <= sv.abs_err <= tol, (route, x)


def _roots_of_f9(n):
    """The roots t > 1 of f^(9), f = log^n t / t, from mpmath.polyroots at 60
    digits on the log-polynomial of LogPolyRef.diff (f^(9) = P(log t)/t^10)."""
    with workdps(60):
        g = LogPolyRef.single(1, n, 1)
        for _ in range(9):
            g = g.diff()
        coeffs = [int(g.terms.get((m, 10), 0)) for m in range(n + 1)]
        roots = polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
        return [exp(r.real) for r in roots
                if abs(r.imag) < mpf(10) ** -40 and r.real > 0]


def test_claims_hold_in_the_root_windows():
    # at K + x = r, a root of f^(9), the first omitted order-4 correction
    # vanishes, and an estimate built on it claims the rounding floor.  x =
    # r - K for the rungs K of the routes' ladders (the first rungs at these
    # tolerances, 8 and 16 for series_b and coffey, 12 and 24 for series_c,
    # and the later rungs 32, 48 and 128) puts a tail start there; every
    # route is run at each such x.  Every claim bounds the true error and
    # meets tol
    cases = 0
    for n in range(2, 9):
        for r in _roots_of_f9(n):
            for K in (8, 12, 16, 24, 32, 48, 128):
                if not 0 < r - K <= 200:
                    continue
                x = +(r - K)
                with workdps(mp.dps + 30):
                    ref = stieltjes(n, x)
                for tol in (mpf("1e-12"), mpf("1e-15"), mpf("1e-20")):
                    for route in METHODS:
                        sv = gamma_n(n, x, route, tol)
                        assert abs(sv.value - ref) <= sv.abs_err <= tol, \
                            (n, x, route, tol)
                        cases += 1
    assert cases == 423


class TestIncGamma:
    def test_order_one(self):
        assert incgamma_int(1, 0) == 1
        assert abs(incgamma_int(1, 2) - exp(-2)) < mpf("1e-30")

    def test_order_three_vs_quadrature(self):
        # independent oracle: direct numerical quadrature of the defining integral
        want = quad(lambda u: u**2 * exp(-u), [1, mp.inf])
        assert abs(incgamma_int(3, 1) - want) < mpf("1e-25")

    def test_rejects_order_zero_and_negative_t(self):
        with pytest.raises(DomainError):
            incgamma_int(0, 1)
        with pytest.raises(DomainError):
            incgamma_int(2, -1)

    T_GRID = ("0", "0.3", "1", "log500")

    @staticmethod
    def _t(t):
        return log(500) if t == "log500" else mpf(t)

    @pytest.mark.parametrize("t", T_GRID)
    def test_pair_has_the_bits_of_incgamma_int(self, t):
        # coffey's panels take both orders from one running sum; at the
        # working bits incgamma_int takes for an order, the pair's value of
        # that order rounds to incgamma_int's
        t = self._t(t)

        def rounded(n, order):
            wp = _incgamma_wp(order, t)
            G = _incgamma_pair(n, to_fixed(t._mpf_, wp), wp)[order - n]
            return mp.make_mpf(from_man_exp(G, -wp, *mp._prec_rounding))

        for n in range(1, 10):
            assert rounded(n, n) == incgamma_int(n, t), n
            assert rounded(n, n + 1) == incgamma_int(n + 1, t), n

    @pytest.mark.parametrize("t", T_GRID)
    def test_within_4n_ulps_of_mpmath(self, t):
        t = self._t(t)
        ulp = mpf(2) ** (1 - mp.prec)
        for n in range(1, 10):
            got = incgamma_int(n, t)
            with workdps(mp.dps + 40):
                ref = gammainc(n, t)
                assert abs(got - ref) <= 4 * n * ulp * abs(ref), n


class TestRationalClosedForm:
    def test_quarter_pair_identity(self, gamma_ref, gamma1_ref):
        a = gamma1_rational(RationalArg(1, 4), mpf("1e-12"))
        b = gamma1_rational(RationalArg(3, 4), mpf("1e-12"))
        want = 2 * gamma1_ref - 7 * log(2) ** 2 - 6 * gamma_ref * log(2)
        assert abs(a.value + b.value - want) < mpf("1e-8")

    def test_half_vs_series(self):
        closed = gamma1_rational(RationalArg(1, 2), mpf("1e-12"))
        series = gamma_n(1, mpf("0.5"), "series_b", mpf("1e-14"))
        assert abs(closed.value - series.value) <= closed.abs_err + series.abs_err

    def test_half_known_form(self, gamma_ref, gamma1_ref):
        closed = gamma1_rational(RationalArg(1, 2), mpf("1e-12"))
        want = gamma1_ref - 2 * gamma_ref * log(2) - log(2) ** 2
        assert abs(closed.value - want) < mpf("1e-10")

    def test_fifth_vs_series(self):
        closed = gamma1_rational(RationalArg(1, 5), mpf("1e-12"))
        series = gamma_n(1, mpf("0.2"), "series_b", mpf("1e-14"))
        assert abs(closed.value - series.value) < mpf("1e-7")

    def test_rational_arg_validation(self):
        with pytest.raises(DomainError):
            RationalArg(2, 4)
        with pytest.raises(DomainError):
            RationalArg(3, 2)


class TestGamma1Alt:
    def test_first_bracket_sign(self):
        # H_1 zeta(2) ~ 1.6449 dominates |zeta'(2)| ~ 0.9375
        assert mpf(oracles.ZETA2) > abs(mpf(oracles.ZETA_PRIME_2))

    def test_value(self, gamma1_ref):
        sv = gamma1_alt(mpf("1e-10"))
        assert abs(sv.value - gamma1_ref) < mpf("1e-8")

    def test_consistent_with_series_b(self):
        alt = gamma1_alt(mpf("1e-10"))
        b = gamma_n(1, 1, "series_b", mpf("1e-12"))
        assert abs(alt.value - b.value) <= alt.abs_err + b.abs_err


class TestStieltjesIntegral:
    def test_vanishes_at_two(self):
        for n in (0, 1):
            sv = stieltjes_integral(n, 2, mpf("1e-13"))
            assert abs(sv.value) <= sv.abs_err + mpf("1e-13")

    def test_log_gamma_antiderivative_at_three(self):
        # int_1^3 gamma_0 = -log Gamma(3): quadrature of the series confirms
        # the sign and value
        sv = stieltjes_integral(0, 3, mpf("1e-13"))
        assert abs(sv.value + log(2)) < mpf("1e-12")
        q = quad_gl(lambda t: gamma_n(0, t, "series_c", mpf("1e-13")).value,
                    1, 3, panels=6, nodes_per_panel=16)
        assert abs(q.value - sv.value) <= q.abs_err + sv.abs_err + mpf("1e-10")

    def test_domain(self):
        with pytest.raises(DomainError):
            stieltjes_integral(7, 2)


class TestScaling:
    def test_bisection_finds_digamma_zero(self):
        from stieltjes.core import find_root_bisect

        root = find_root_bisect(
            lambda t: gamma_n(0, t, "series_c", mpf("1e-13")).value,
            1, 2, mpf("1e-10"))
        assert abs(root - mpf("1.461632144968")) < mpf("1e-9")

    def test_precision_policy_scales_with_ambient(self, gamma_ref):
        # at 50 ambient digits a 1e-22 tolerance is genuinely honored
        # (the frozen oracle itself is good to ~8e-26)
        mp.dps = 50
        try:
            sv = gamma_n(0, 1, "series_b", mpf("1e-22"))
            assert abs(sv.value - gamma_ref) < mpf("1e-22")
            assert sv.abs_err < mpf("1e-22")
        finally:
            mp.dps = 34

    def test_digamma_large_argument_vs_recurrence(self, gamma_ref):
        # psi(1000) = -gamma + H_999, an independent harmonic-number route
        from stieltjes.core import harmonic
        from stieltjes.related import digamma

        sv = digamma(1000, mpf("1e-13"))
        assert abs(sv.value - (-gamma_ref + harmonic(999))) < mpf("1e-12")

    def test_log_gamma_large_argument_vs_recurrence(self):
        # log Gamma(51.5) = log Gamma(1.5) + sum_{j<=50} log(j + 0.5),
        # with log Gamma(1.5) = log(pi)/2 - log 2 in closed form
        from stieltjes.core import comp_sum
        from stieltjes.related import log_gamma

        want = log(mp.pi) / 2 - log(2) + comp_sum(
            log(j + mpf("0.5")) for j in range(1, 51))
        sv = log_gamma(mpf("51.5"), mpf("1e-13"))
        assert abs(sv.value - want) < mpf("1e-12")


class TestDerivativeLaw:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("x", ["0.5", "1.5"])
    def test_finite_difference_of_deriv0(self, n, x):
        # d/dx zeta^(n+1)(0, x) = (n+1) (-1)^(n+1) gamma_n(x)
        x = mpf(x)
        with workdps(44):
            h = mpf("1e-8")
            hi = zeta_deriv0_diff(n, x + h, mpf("1e-24"))
            lo = zeta_deriv0_diff(n, x - h, mpf("1e-24"))
            fd = (hi.value - lo.value) / (2 * h)
        g = gamma_n(n, x, "series_b", mpf("1e-15"))
        want = (n + 1) * (-1) ** (n + 1) * g.value
        assert abs(fd - want) < max(mpf("1e-6"), 10 * g.abs_err)

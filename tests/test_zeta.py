from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import e as e_const, exp, log, mpf, pi, workdps, zeta

import oracles
from oracles import LogPolyRef, bernoulli_mpf
from stieltjes.core import (ConvergenceError, DomainError, comp_sum,
                            rounding_floor, tail_claim, working_dps)
from stieltjes.gamma import gamma_n
from stieltjes.logpoly import J_PLAN_MAX, _certified_start
from stieltjes.zeta import (_head_guard, hurwitz_em, hurwitz_hasse,
                            zeta_deriv0_const, zeta_deriv0_diff, zeta_prime_int)

TOL8 = mpf("1e-8")


class TestHasse:
    def test_zeta_zero_at_one(self):
        sv = hurwitz_hasse(0, 1, TOL8)
        assert abs(sv.value + mpf("0.5")) <= TOL8

    def test_zeta_two(self):
        tol = mpf("1e-30")
        sv = hurwitz_hasse(2, 1, tol)
        with workdps(60):
            assert abs(sv.value - pi ** 2 / 6) <= sv.abs_err <= tol

    def test_minus_one_vs_em(self):
        sv = hurwitz_hasse(-1, 1, TOL8)
        em = hurwitz_em(-1, 1, mpf("1e-20"))
        assert abs(sv.value - em.value) <= sv.abs_err + em.abs_err
        assert abs(sv.value + mpf(1) / 12) <= TOL8

    def test_pole_exclusion(self):
        with pytest.raises(DomainError):
            hurwitz_hasse(1 + mpf("1e-7"), 1, TOL8)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_hasse(2, 0, TOL8)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr("stieltjes.zeta.HASSE_TERMS_PER_DIGIT", 0)
        with pytest.raises(ConvergenceError):
            hurwitz_hasse(2, mpf("0.25"), mpf("1e-30"))


class TestLargeHead:
    # zeta(2, 1e-20) is about 1e40: the head term's rounding, not the tail,
    # would set the claim at the working precision of tol alone
    @pytest.mark.parametrize("dps", [34, 15])
    @pytest.mark.parametrize("route", [hurwitz_em, hurwitz_hasse])
    def test_claim_holds_tol(self, route, dps):
        x = mpf(1e-20)
        with workdps(dps):
            sv = route(2, x, TOL8)
        with workdps(60):
            assert abs(sv.value - zeta(2, x)) <= sv.abs_err <= TOL8

    def test_no_guard_where_the_head_is_modest(self):
        # x >= 0.05 and s <= 4.5, as every point_mix request
        for tol in (mpf("1e-8"), mpf("1e-12"), mpf("1e-20")):
            assert _head_guard(mpf("4.5"), mpf("0.05"), tol, working_dps(tol)) == 0

    def test_over_the_guard_budget_raises(self):
        with pytest.raises(ConvergenceError):
            hurwitz_em(2, mpf("1e-80"), TOL8)


def _rising(s, m):
    out = mpf(1)
    for i in range(m):
        out *= s + i
    return out


def _hurwitz_reference(s, x, tol):
    """hurwitz_em with each rising factorial and each correction built
    afresh, each rung's order raised from the least certified one, and the
    winning rung's order and error found a second time."""
    def err_at(N, J):
        return abs(bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2)
                   * _rising(s, 2 * J + 1) * (N + x) ** (-s - 2 * J - 1))

    def order_at(N):
        J = 4
        while not s + 2 * J + 1 > 0:
            J += 1
        while not err_at(N, J) < tol / 2:
            if J == J_PLAN_MAX:
                return None
            J += 1
        return J

    with workdps(working_dps(tol)):
        N = max(8, int(abs(s)) + 14)
        while order_at(N) is None:
            N *= 4
        a = N + x
        J = order_at(N)
        err = err_at(N, J)
        terms = [(k + x) ** (-s) for k in range(N)]
        total = comp_sum(terms)
        boundary = a ** (1 - s) / (s - 1)
        total += boundary + a ** (-s) / 2
        for j in range(1, J + 1):
            total += (bernoulli_mpf(2 * j) / factorial(2 * j) * _rising(s, 2 * j - 1)
                      * a ** (-s - 2 * j + 1))
        scale = max(abs(terms[-1]), abs(boundary), abs(total))
        return total, err + 4 * rounding_floor(scale), N


def _zeta_prime_reference(s, tol):
    """zeta_prime_int with the derivative recurrence and the root sums run
    afresh for the certified error of every rung and order, and once more
    for the corrections."""
    def derivative(m):
        a, b = mpf(1), mpf(0)
        for i in range(m):
            a, b = -(s + i) * a, a - (s + i) * b
        return a, b

    def root(m):
        L = mpf(0)
        for i in range(m):
            L += 1 / (s + i)
        return L

    def err_at(K, J):
        w = bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2)
        a, b = derivative(2 * J + 1)
        lK = log(mpf(K))
        err = abs(w * (a * lK + b) * mpf(K) ** (-s - 2 * J - 1))
        if lK < root(2 * J + 4):
            err *= 2
            if lK < root(2 * J + 2):
                p = s + 2 * J + 1
                err += 4 * abs(w * a) / p * exp(-p * root(2 * J + 2))
        return err

    def order_at(K):
        for J in range(4, J_PLAN_MAX + 1):
            if err_at(K, J) < tol / 2:
                return J
        return None

    with workdps(working_dps(tol)):
        K = 8
        while order_at(K) is None:
            K *= 2
        J = order_at(K)
        err = err_at(K, J)
        partial = comp_sum(log(k) * k ** (-s) for k in range(2, K))
        Km = mpf(K)
        tail = Km ** (1 - s) * (log(Km) / (s - 1) + (s - 1) ** (-2))
        tail += log(Km) * Km ** (-s) / 2
        for j in range(1, J + 1):
            a, b = derivative(2 * j - 1)
            tail -= (bernoulli_mpf(2 * j) / factorial(2 * j) * (a * log(Km) + b)
                     * Km ** (-s - (2 * j - 1)))
        value = -(partial + tail)
        return value, tail_claim(err, value), K


def _assert_within_the_reference(sv, reference):
    value, claim, terms_used = reference
    assert sv.terms_used == terms_used
    assert abs(sv.value - value) <= sv.abs_err <= mpf("1.001") * claim


class TestHurwitzEM:
    @pytest.mark.parametrize("s", ["-2.5", "-1", "0.3", "2", "2.1", "7.3"])
    @pytest.mark.parametrize("x", ["0.07", "1", "3.3"])
    def test_bits_of_the_fresh_correction_loop(self, s, x):
        # the shared order loop rounds its corrections in another order
        # than the fresh loop: the same N, a value within the claim, and a
        # claim no looser than the reference's
        s, x = mpf(s), mpf(x)
        for tol in (mpf("1e-12"), mpf("1e-25")):
            _assert_within_the_reference(hurwitz_em(s, x, tol), _hurwitz_reference(s, x, tol))

    def test_zeta2_half(self):
        # zeta(2, 1/2) = 3 zeta(2) by even/odd splitting of the brute sum
        sv = hurwitz_em(2, mpf("0.5"))
        assert abs(sv.value - 3 * mpf(oracles.ZETA2)) < mpf("1e-15")

    def test_agrees_with_hasse_at_three_halves(self):
        em = hurwitz_em(mpf("1.5"), 1)
        ha = hurwitz_hasse(mpf("1.5"), 1, mpf("1e-20"))
        assert abs(em.value - ha.value) <= em.abs_err + ha.abs_err

    def test_zeta0_affine_in_x(self):
        # zeta(0, x) = 1/2 - x: confirm intercept and slope numerically
        a = hurwitz_em(0, mpf("0.25"))
        b = hurwitz_em(0, mpf("0.75"))
        one = hurwitz_em(0, 1)
        assert abs(one.value + mpf("0.5")) < mpf("1e-15")
        slope = (b.value - a.value) / mpf("0.5")
        assert abs(slope + 1) < mpf("1e-15")
        assert abs(a.value - mpf("0.25")) < mpf("1e-15")

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            hurwitz_em(1, 1)

    def test_pole_residue_property(self):
        # (s-1) zeta(s,x) -> 1 at rate governed by gamma_0(x)
        for x in (mpf("0.25"), mpf(1), mpf("1.7")):
            g0 = abs(gamma_n(0, x, "series_c", mpf("1e-15")).value)
            for d in range(2, 7):
                eps = mpf(10) ** (-d)
                for s in (1 + eps, 1 - eps):
                    z = hurwitz_em(s, x, mpf("1e-20"))
                    assert abs((s - 1) * z.value - 1) <= 5 * g0 * eps

    def test_shift_recurrence(self):
        for s, x in ((mpf("2.5"), mpf("0.7")), (mpf("-0.5"), mpf("1.3")),
                     (mpf("3"), mpf("0.25"))):
            a = hurwitz_em(s, 1 + x)
            b = hurwitz_em(s, x)
            assert abs(a.value - b.value + x ** (-s)) <= a.abs_err + b.abs_err + mpf("1e-25")

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.floats(-3.0, 4.0), st.floats(0.1, 3.0))
    def test_shift_recurrence_property(self, sf, xf):
        s, x = mpf(sf), mpf(xf)
        assume(abs(s - 1) > mpf("0.05"))
        a = hurwitz_em(s, 1 + x, mpf("1e-16"))
        b = hurwitz_em(s, x, mpf("1e-16"))
        assert abs(a.value - b.value + x ** (-s)) <= a.abs_err + b.abs_err + mpf("1e-22")

    @pytest.mark.slow
    def test_route_agreement_grid(self):
        tol = mpf("1e-20")
        for s in (mpf(-2), mpf(-1), mpf("-0.5"), mpf("1.5"), mpf("2.5")):
            for xs in ("0.25", "0.7", "1.5", "2.0", "2.718", "3.0", "3.14159"):
                x = mpf(xs)
                ha = hurwitz_hasse(s, x, tol)
                em = hurwitz_em(s, x, tol)
                assert abs(ha.value - em.value) <= ha.abs_err + em.abs_err


class TestDeriv0Diff:
    def test_at_one_is_zero(self):
        sv = zeta_deriv0_diff(0, 1)
        assert abs(sv.value) <= sv.abs_err

    def test_log_gamma_values(self):
        # zeta'(0,x) - zeta'(0) = log Gamma(x)
        two = zeta_deriv0_diff(0, 2, mpf("1e-21"))
        assert abs(two.value) < mpf("1e-20")
        three = zeta_deriv0_diff(0, 3, mpf("1e-21"))
        assert abs(three.value - log(2)) < mpf("1e-20")

    def test_second_derivative_shift_vanishes_at_two(self):
        sv = zeta_deriv0_diff(1, 2)
        assert abs(sv.value) <= sv.abs_err + mpf("1e-25")

    def test_derivative_shift_law(self):
        # zeta^(n)(0,1+x) - zeta^(n)(0,x) = (-1)^(n+1) log^n x
        for n in (1, 2, 3):
            for x in (mpf("0.5"), mpf("1.5"), +e_const):
                a = zeta_deriv0_diff(n - 1, 1 + x)
                b = zeta_deriv0_diff(n - 1, x)
                want = (-1) ** (n + 1) * log(x) ** n
                assert abs((a.value - b.value) - want) <= a.abs_err + b.abs_err + mpf("1e-25")

    def test_order_cap(self):
        with pytest.raises(DomainError):
            zeta_deriv0_diff(7, 1)

    @pytest.mark.parametrize("k,J", [(0, 13), (1, 5), (1, 13), (2, 8), (4, 6), (6, 5)])
    def test_certified_orders_keep_one_sign(self, k, J):
        # the summand is a second difference of log^(k+1) t, certified through
        # f^(2J+3) and f^(2J+5) of f = log^k t / t, both negative far out
        t_J = mpf(_certified_start(k, J, 1))
        with workdps(80):
            d = LogPolyRef.single(1, k, 1)
            for _ in range(2 * J + 3):
                d = d.diff()
            for g in (d, d.diff().diff()):
                for i in range(81):
                    assert g(t_J * exp(mpf(i) / 8)) < 0

    @pytest.mark.parametrize("k,x,digits", [(0, "0.3", 40), (1, "1.5", 30),
                                            (1, "0.05", 40), (2, "3.7", 30),
                                            (3, "1.2", 30)])
    def test_claims_bound_the_true_error(self, k, x, digits):
        x, tol = mpf(x), mpf(10) ** -digits
        with workdps(2 * digits):
            sv = zeta_deriv0_diff(k, x, tol)
        with workdps(digits + 20):
            ref = zeta(0, x, k + 1) - zeta(0, 1, k + 1)
        assert abs(sv.value - ref) <= sv.abs_err <= tol

    @pytest.mark.parametrize("x", ["78.8754769771", "78.87548", "78.875"])
    def test_claims_hold_in_a_root_window(self, x):
        # at x = 78.8754769771, k = 5, the order-4 correction x(x-1)
        # g^(9)[32, 33, 32+x] of g = log^6 t changes sign, so the first
        # omitted correction at K = 32 vanishes.  These tolerances plan from
        # K = 8 or 16, where that correction has no root for x <= 500, and
        # raise J; every claim bounds the true error and meets tol
        x = mpf(x)
        with workdps(64):
            ref = zeta(0, x, 6) - zeta(0, 1, 6)
        for tol in (mpf("1e-12"), mpf("1e-15"), mpf("1e-20")):
            sv = zeta_deriv0_diff(5, x, tol)
            assert abs(sv.value - ref) <= sv.abs_err <= tol, tol

    def test_thirty_digit_plan_is_short_across_x(self):
        # the order rises with the digits and the remainder bound certifies
        # it at any K, so the plan stays on the first rung, where a fixed
        # order needed 512 to 2048 terms depending on x
        with workdps(60):
            for x in ("1.1", "1.5", "1.9"):
                assert zeta_deriv0_diff(1, mpf(x), mpf("1e-30")).terms_used == 32


class TestDeriv0Const:
    def test_zeta0(self):
        assert zeta_deriv0_const(0).value == mpf("-0.5")

    def test_zeta_prime_0(self):
        sv = zeta_deriv0_const(1)
        assert abs(sv.value + log(2 * pi) / 2) == 0
        assert abs(sv.value - mpf("-0.918938533204672741780329736405618")) < mpf("1e-30")

    def test_zeta_second_0_vs_oracle_constants(self, gamma_ref, gamma1_ref):
        sv = zeta_deriv0_const(2, mpf("1e-15"))
        want = gamma1_ref + gamma_ref**2 / 2 - pi**2 / 24 - log(2 * pi) ** 2 / 2
        assert abs(sv.value - want) < mpf("1e-15")
        assert abs(sv.value - mpf("-2.00635645590858")) < mpf("1e-13")

    def test_higher_orders_not_provided(self):
        with pytest.raises(DomainError):
            zeta_deriv0_const(3)


class TestZetaPrime:
    @pytest.mark.parametrize("s", ["1.1", "1.5", "2", "3.3", "10"])
    def test_bits_of_the_fresh_correction_loop(self, s):
        # as for hurwitz_em: the certificate of the key (1, K, 0, 1, s)
        # encloses the closed-form root term, so the claim may not drop
        s = mpf(s)
        for tol in (mpf("1e-12"), mpf("1e-25")):
            _assert_within_the_reference(zeta_prime_int(s, tol), _zeta_prime_reference(s, tol))

    @pytest.mark.parametrize("digits", [6, 7, 8, 9, 10])
    def test_certified_term_alone_bounds_the_error(self, digits):
        # at K = 8, f^(12) of log t / t^2 changes sign at t ~ 8.85 > K, and
        # the true error was 1.005 times the first omitted order-4
        # correction: only tail_claim's 5/4 pad covered it.  The certified
        # term, the claim less its pad and rounding floor, covers it alone.
        tol = mpf(10) ** -digits
        sv = zeta_prime_int(2, tol)
        with workdps(working_dps(tol)):
            certified = 4 * (sv.abs_err - rounding_floor(sv.value)) / 5
        with workdps(working_dps(tol) + 40):
            assert abs(sv.value - zeta(2, 1, 1)) <= certified

    def test_large_s_bound(self):
        sv = zeta_prime_int(10)
        assert abs(sv.value) < 2 * log(2) / 2**10

    def test_s2_vs_brute_oracle(self):
        sv = zeta_prime_int(2, mpf("1e-14"))
        assert abs(sv.value - mpf(oracles.ZETA_PRIME_2)) < mpf("1e-12")

    def test_s3_vs_finite_difference(self):
        with workdps(44):
            h = mpf("1e-10")
            fd = (hurwitz_em(3 + h, 1, mpf("1e-30")).value
                  - hurwitz_em(3 - h, 1, mpf("1e-30")).value) / (2 * h)
        sv = zeta_prime_int(3)
        assert abs(sv.value - fd) < mpf("1e-8")

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_prime_int(1)

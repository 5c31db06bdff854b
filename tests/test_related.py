import math
import time
from functools import lru_cache

import pytest
from mpmath import (exp, factorial, fsum, log, mp, mpf, pi, stieltjes, taylor,
                    workdps, zeta)

import oracles
from stieltjes.core import (ConvergenceError, DomainError, SeriesValue, default_tol,
                            rounding_floor, tol_digits)
from stieltjes.fixedpoint import lattice_err, lattice_sum
from stieltjes.gamma import RationalArg
from stieltjes.logpoly import em_tail_shifted
from stieltjes.quadrature import quad_gl
from stieltjes.related import (delta, digamma,
                               digamma_rational, dilcher_log_gamma_k,
                               dilcher_power_series, eta, log_gamma,
                               mangoldt_gap_sums, von_mangoldt)
from stieltjes.zeta import zeta_deriv0_const, zeta_deriv0_diff

TOL = mpf("1e-14")
# references for the log-power sums: log k at 90 digits, 40 past the
# highest precision the tests run at
REF_DPS = 90
REF_N = 10 ** 4


@lru_cache(maxsize=None)
def _ref_logs() -> tuple:
    """log k for 0 < k <= REF_N at REF_DPS digits (index 0 unused)."""
    with workdps(REF_DPS):
        return (None,) + tuple(log(k) for k in range(1, REF_N + 1))


def _ref_lambda(k: int) -> mpf:
    """Lambda(k) by trial division, independent of the library's sieve."""
    p = next(d for d in range(2, k + 1) if k % d == 0) if k > 1 else 1
    while k > 1 and k % p == 0:
        k //= p
    return _ref_logs()[p] if p > 1 and k == 1 else mpf(0)


@lru_cache(maxsize=None)
def _ref_gap_terms(n: int) -> tuple:
    """(Lambda(k) - 1) log^n k / k for 0 < k <= REF_N at REF_DPS digits."""
    logs = _ref_logs()
    with workdps(REF_DPS):
        return tuple((_ref_lambda(k) - 1) * logs[k] ** n / k
                     for k in range(1, REF_N + 1))


class TestVonMangoldt:
    def test_prime_power_values(self):
        t = von_mangoldt(20)
        assert t.value(9) == log(3)
        assert t.value(12) == 0
        assert t.value(2) + t.value(4) + t.value(8) == 3 * log(2)

    def test_lcm_invariant(self):
        N = 200
        t = von_mangoldt(N)
        lcm = math.lcm(*range(1, N + 1))
        rebuilt = 1
        for p, m in t.prime_exponents().items():
            rebuilt *= p**m
        assert rebuilt == lcm

    def test_domain(self):
        with pytest.raises(DomainError):
            von_mangoldt(1)


class TestEta:
    def test_order_zero_is_minus_gamma(self, gamma_ref):
        sv = eta(0, "from_gamma", tol=mpf("1e-13"))
        assert abs(sv.value + gamma_ref) < mpf("1e-12")

    def test_order_one_sign_and_closed_form(self, gamma_ref, gamma1_ref):
        sv = eta(1, "from_gamma", tol=mpf("1e-13"))
        assert sv.value > 0
        # exact algebra: eta_1 = gamma^2 + 2 gamma_1
        assert abs(sv.value - (gamma_ref**2 + 2 * gamma1_ref)) < mpf("1e-12")

    def test_alternating_signs(self):
        values = [eta(n, "from_gamma", tol=mpf("1e-10")).value for n in range(4)]
        assert values[0] < 0 and values[1] > 0 and values[2] < 0 and values[3] > 0

    def test_within_its_claim_of_minus_f_prime_over_f(self):
        # eta_n = [w^n] -F'/F, F(w) = 1 + sum_j (-1)^j gamma_j w^(j+1)/j!,
        # with F from mpmath's gamma_j and the quotient's Taylor
        # coefficients from mpmath.taylor, at 60 digits
        tol = mpf("1e-20")
        with workdps(60):
            c = [mpf(1)] + [(-1) ** j * stieltjes(j) / factorial(j) for j in range(8)]

            def minus_log_derivative(w):
                F = fsum(ck * w ** k for k, ck in enumerate(c))
                dF = fsum(k * ck * w ** (k - 1) for k, ck in enumerate(c) if k)
                return -dF / F

            want = taylor(minus_log_derivative, 0, 6)
        for n in range(7):
            sv = eta(n, tol=tol)
            assert sv.abs_err < tol
            with workdps(60):
                assert abs(sv.value - want[n]) <= sv.abs_err, n

    def test_series_route_has_no_bound(self):
        sv = eta(0, "series", K=10**4)
        assert sv.abs_err == mp.inf
        assert sv.method == "mangoldt_series"

    def test_series_route_needs_budget(self):
        with pytest.raises(DomainError):
            eta(0, "series")

    @pytest.mark.parametrize("K", (0, 1, -3))
    def test_series_route_names_a_budget_below_two(self, K):
        with pytest.raises(DomainError, match=f"K = {K} is below 2"):
            eta(0, "series", K=K)

    def test_mangoldt_gap_trend_small_scale(self, gamma_ref):
        sums = mangoldt_gap_sums(0, [10**3, 10**4, 10**5])
        gaps = [sums[k] + 2 * gamma_ref for k in (10**3, 10**4, 10**5)]
        # approaches -2 gamma from one side, shrinking each decade
        assert abs(gaps[2]) < abs(gaps[1]) < abs(gaps[0])
        assert abs(gaps[2]) < mpf("0.05")

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_mangoldt_gap_sums_at_one_alone(self, n):
        # Lambda(1) = 0 and log^n 1 / 1 = 0^n: the N = 1 sum is -1 at n = 0
        # and 0 past it, alone as beside a later checkpoint
        want = -1 if n == 0 else 0
        assert mangoldt_gap_sums(n, [1])[1] == mangoldt_gap_sums(n, [1, 2])[1] == want

    def test_mangoldt_gap_sums_past_every_rung(self):
        # at 700 digits no rung up to K_CAP certifies a tail below 2^-prec,
        # and every checkpoint is summed directly
        with workdps(700):
            got = mangoldt_gap_sums(0, [10])[10]
            lam = fsum(log(p) / k for k, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7),
                                               (8, 2), (9, 3)))
            assert abs(got - (lam - fsum(mpf(1) / k for k in range(1, 11)))) < mpf(10) ** -690

    def test_mangoldt_gap_sums_needs_a_checkpoint(self):
        with pytest.raises(DomainError):
            mangoldt_gap_sums(0, [])

    @pytest.mark.parametrize("dps", [15, 34, 50])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_mangoldt_gap_sums_match_term_by_term(self, n, dps):
        # prime powers plus Euler-Maclaurin tails against every term summed
        # at 90 digits, at checkpoints inside and past the direct head
        mp.dps = dps
        checkpoints = (1, 7, 97, 500, REF_N)
        got = mangoldt_gap_sums(n, checkpoints)
        terms = _ref_gap_terms(n)
        with workdps(REF_DPS):
            for N in checkpoints:
                ref = fsum(terms[:N])
                assert abs(got[N] - ref) < mpf(10) ** -(dps + 4)


class TestDelta:
    def test_order_zero_exact(self):
        sv = delta(0)
        assert sv.value == mpf("0.5") and sv.abs_err == 0

    def test_order_one(self):
        sv = delta(1)
        assert abs(sv.value - (-1 + log(2 * pi) / 2)) < mpf("1e-8")

    def test_order_two_vs_constant_route(self):
        sv = delta(2)
        zpp = zeta_deriv0_const(2, mpf("1e-13"))
        assert abs(sv.value - (zpp.value + 2)) < mpf("1e-8")

    def test_apostol_normalized_derivatives_near_minus_one(self):
        # zeta^(n)(0)/n! stays in (-1.2, -0.8); reconstruct from delta
        zp0 = -delta(1).value - 1
        assert mpf("-1.2") < zp0 / 1 < mpf("-0.8")
        zpp0 = delta(2).value - 2
        assert mpf("-1.2") < zpp0 / 2 < mpf("-0.8")

    @pytest.mark.parametrize("dps", [15, 34, 50])
    @pytest.mark.parametrize("n", [1, 2])
    def test_claim_is_a_bound(self, n, dps):
        # at the default tol: the partial sum and the tail are each about
        # N log^n N; their rounding must be inside the claim, not just the
        # value's
        mp.dps = dps
        sv, tol = delta(n), default_tol()
        with workdps(dps + 40):
            ref = (-1) ** n * (zeta(0, 1, n) + factorial(n))
            assert abs(sv.value - ref) <= sv.abs_err <= tol

    @pytest.mark.parametrize("dps", [15, 34, 50])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tol", ["1e-12", "1e-20", "1e-30", "1e-50", "1e-100"])
    def test_claim_is_a_bound_at_tol(self, tol, n, dps):
        # N and the order are planned from tol whatever the ambient digits
        mp.dps = dps
        tol = mpf(tol)
        sv = delta(n, tol)
        with workdps(dps + tol_digits(tol) + 20):
            ref = (-1) ** n * (zeta(0, 1, n) + factorial(n))
            assert abs(sv.value - ref) <= sv.abs_err <= tol

    def test_certified_term_alone_bounds_the_error(self):
        # at N = 16 and order 4 the true error of delta_2, 1.37e-15, is
        # above the first omitted correction, 1.34e-15, so the claim must
        # be certified: the claim of the tail delta takes at N under its key
        # (1, 16, -1, 2), before tail_claim's 5/4 pad, covers the error
        # alone (the partial sum and the rounding add about 1e-31)
        tail = em_tail_shifted([(1, 0, 2, 0)], 16, 4, key=(1, 16, -1, 2))
        assert tail.order == 4
        value = lattice_sum([(1, 0, 2, 0)])(1, 16) + 2 + tail.value
        with workdps(mp.dps + 40):
            ref = zeta(0, 1, 2) + 2
            assert abs(value - ref) <= tail.abs_err

    @pytest.mark.parametrize("n", [1, 2])
    def test_order_rises_to_the_fifty_digit_floor(self, n):
        # 48 digits at mp.dps 50: the order loop raises J from 4, far past
        # the turning point's cap of 13, until the remainder is below tol/4
        mp.dps = 50
        sv = delta(n, mpf("1e-48"))
        assert sv.abs_err < mpf("1e-48") and sv.order > 13
        with workdps(90):
            ref = (-1) ** n * (zeta(0, 1, n) + factorial(n))
            assert abs(sv.value - ref) <= sv.abs_err

    @pytest.mark.parametrize("dps", [15, 34, 50])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("N", [10, 11, 97, 128, 9973, REF_N])
    def test_log_power_sum_within_rounding_floor(self, N, n, dps):
        # S_n(N) = sum log^n k, delta's partial sum, is a lattice_sum within
        # 2^(-prec-3), far inside its rounding floor: against the sum term
        # by term at 90 digits; N = 97 is a prime and N = 128 a prime power
        mp.dps = dps
        with workdps(dps + 8):
            got = lattice_sum([(1, 0, n, 0)])(1, N + 1)
            err = lattice_err() / 8
            assert err < rounding_floor(got)
        logs = _ref_logs()
        with workdps(REF_DPS):
            ref = fsum(logs[k] ** n for k in range(2, N + 1))
            assert abs(got - ref) <= err

    def test_caps(self):
        with pytest.raises(DomainError):
            delta(3)
        with pytest.raises(DomainError):
            delta(-1)

    def test_term_budget_is_capped(self, monkeypatch):
        # a tol no rung up to K_CAP meets raises before the partial sum:
        # with the cap at 16, the ladder for 1e-30 starts past it, at 32
        import stieltjes.logpoly as logpoly_mod
        monkeypatch.setattr(logpoly_mod, "K_CAP", 16)
        with pytest.raises(ConvergenceError):
            delta(1, mpf("1e-30"))
        assert delta(0, mpf("1e-30")).value == mpf(1) / 2

    @pytest.mark.parametrize("tol", [0, -1, math.inf, math.nan])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_tol_that_is_not_positive_and_finite_raises(self, n, tol):
        # delta_0 = 1/2 takes no terms, but its tol is checked all the same
        with pytest.raises(DomainError, match="tolerance"):
            delta(n, tol)


BAD_BUDGETS = {
    "eta(1, series, K=2.5)": lambda: eta(1, "series", K=2.5),
    "mangoldt_gap_sums(1, [inf])": lambda: mangoldt_gap_sums(1, [math.inf]),
    "mangoldt_gap_sums(1, [10.7])": lambda: mangoldt_gap_sums(1, [10.7]),
}


@pytest.mark.parametrize("call", sorted(BAD_BUDGETS))
def test_a_term_budget_or_checkpoint_that_is_not_an_int_raises(call):
    # a float or a string budget raised TypeError or ValueError, and a
    # float checkpoint was read as its floor (10.7 returned checkpoint 10)
    with pytest.raises(DomainError, match="must be an int"):
        BAD_BUDGETS[call]()


class TestDigamma:
    def test_at_one(self, gamma_ref):
        sv = digamma(1, TOL)
        assert abs(sv.value + gamma_ref) < TOL

    def test_at_two(self, gamma_ref):
        sv = digamma(2, TOL)
        assert abs(sv.value - (1 - gamma_ref)) < TOL

    def test_at_half_vs_brute_oracle(self, gamma_ref):
        sv = digamma(mpf("0.5"), TOL)
        want = -gamma_ref - mpf(oracles.PSI_ONE_MINUS_PSI_HALF)
        assert abs(sv.value - want) < TOL

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0)


class TestDigammaRational:
    def test_half(self, gamma_ref):
        sv = digamma_rational(RationalArg(1, 2), mpf("1e-12"))
        assert abs(sv.value - (-gamma_ref - 2 * log(2))) < mpf("1e-11")

    def test_quarter_closed_form(self, gamma_ref):
        sv = digamma_rational(RationalArg(1, 4), mpf("1e-12"))
        want = -gamma_ref - 3 * log(2) - pi / 2
        assert abs(sv.value - want) < mpf("1e-11")

    def test_agreement_up_to_q8(self):
        for q in range(2, 9):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    closed = digamma_rational(RationalArg(p, q), mpf("1e-11"))
                    direct = digamma(mpf(p) / q, mpf("1e-11"))
                    assert abs(closed.value - direct.value) <= \
                        closed.abs_err + direct.abs_err


def _reduced(q_max):
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


class TestDigammaRationalElementary:
    """Gauss's digamma theorem in elementary terms: gamma from the shared
    table, then logarithms of sines and a cotangent, no log Gamma series."""

    @pytest.mark.parametrize("dps", [15, 34])
    def test_claims_bound_the_error_through_q40(self, dps):
        mp.dps = dps
        worst = mpf(0)
        for p, q in _reduced(40):
            with workdps(dps + 40):
                ref = mp.psi(0, mpf(p) / q)
            for tol in ("1e-12", "1e-20", "1e-30"):
                sv = digamma_rational(RationalArg(p, q), mpf(tol))
                assert sv.abs_err <= mpf(tol), (p, q, tol)
                with workdps(dps + 40):
                    gap = abs(sv.value - ref)
                assert gap <= sv.abs_err, (p, q, tol, gap / sv.abs_err)
                worst = max(worst, gap / sv.abs_err)
        assert worst > mpf("0.01")  # the claim is a bound, not a wide guess

    def test_no_log_gamma_series(self, monkeypatch):
        import stieltjes.gamma as gamma_mod
        import stieltjes.related as related_mod

        def refuse(*args, **kwargs):
            raise AssertionError("zeta_deriv0_diff called")

        for module in (gamma_mod, related_mod):
            monkeypatch.setattr(module, "zeta_deriv0_diff", refuse)
        for p, q in ((1, 2), (2, 5), (3, 7), (5, 12)):
            digamma_rational(RationalArg(p, q), mpf("1e-20"))

    def test_a_perturbed_gamma_fails_the_cross_check(self, monkeypatch):
        import stieltjes.related as related_mod

        const = related_mod.stieltjes_const

        def bumped(n, tol):
            sv = const(n, tol)
            return SeriesValue(sv.value + mpf("1e-9"), sv.abs_err, sv.terms_used, sv.method)

        monkeypatch.setattr(related_mod, "stieltjes_const", bumped)
        with pytest.raises(ArithmeticError):
            digamma_rational(RationalArg(3, 7), mpf("1e-12"))


class TestLogGamma:
    def test_at_one_and_two(self):
        assert abs(log_gamma(1, TOL).value) < TOL
        two = log_gamma(2, TOL)
        assert abs(two.value) < TOL
        three = log_gamma(3, TOL)
        assert abs(three.value - (two.value + log(2))) < 2 * TOL

    def test_half_by_duplication(self):
        sv = log_gamma(mpf("0.5"), TOL)
        # Gamma(1/2)^2 = pi
        assert abs(exp(2 * sv.value) - pi) < mpf("1e-13")
        assert abs(sv.value - log(pi) / 2) < TOL

    def test_raabe_unit_integral(self):
        q = quad_gl(lambda t: log_gamma(t, mpf("1e-13")).value, 0, 1,
                    panels=30, nodes_per_panel=16, singular_left=True)
        assert abs(q.value - log(2 * pi) / 2) < mpf("1e-10")

    def test_recurrence_along_x(self):
        for xs in ("0.3", "1.3", "2.3"):
            x = mpf(xs)
            a = log_gamma(x + 1, TOL)
            b = log_gamma(x, TOL)
            assert abs(a.value - (b.value + log(x))) <= a.abs_err + b.abs_err + TOL


class TestDilcher:
    def test_order_zero_is_log_gamma(self):
        for xs in ("1.5", "0.3", "-0.5"):
            x = mpf(xs)
            a = dilcher_log_gamma_k(0, x, TOL)
            b = log_gamma(x + 1, TOL)
            assert abs(a.value - b.value) <= a.abs_err + b.abs_err + TOL

    def test_vanishes_at_zero_and_one(self):
        for k in range(5):
            assert dilcher_log_gamma_k(k, 0, TOL).value == 0
            one = dilcher_log_gamma_k(k, 1, TOL)
            assert abs(one.value) <= one.abs_err + TOL

    def test_zero_returns_before_gamma_k(self, monkeypatch):
        import stieltjes.related as related

        def no_gamma_n(*args, **kwargs):
            raise AssertionError("gamma_n called for x = 0")

        monkeypatch.setattr(related, "gamma_n", no_gamma_n)
        sv = dilcher_log_gamma_k(4, 0, mpf("1e-20"))
        assert sv == SeriesValue(mpf(0), mpf(0), 1, "log_series")

    @pytest.mark.parametrize("xs", ["30000.25", "1e6"])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_large_x_starts_at_sixteen(self, k, xs):
        # the d = 1 certificate reads the window from K + min(0, x), so K
        # need not exceed x: the ladder starts at ladder_start(tol) whatever
        # x is, and the call is short
        x, tol = mpf(xs), mpf("1e-12")
        t0 = time.perf_counter()
        sv = dilcher_log_gamma_k(k, x, tol)
        assert time.perf_counter() - t0 < 5
        with workdps(60):
            ref = (-1) ** k * (zeta(0, x + 1, k + 1) - zeta(0, 1, k + 1)) / (k + 1)
            assert abs(sv.value - ref) <= sv.abs_err <= tol

    def test_series61_zero(self):
        assert dilcher_power_series(0).value == 0

    def test_series61_at_one_recovers_gamma1(self, gamma1_ref):
        sv = dilcher_power_series(1, mpf("1e-10"))
        assert abs(sv.value - gamma1_ref) < mpf("1e-8")

    def test_series61_matches_product_route_at_half(self, gamma1_ref):
        x = mpf("0.5")
        a = dilcher_power_series(x, mpf("1e-12"))
        b = dilcher_log_gamma_k(1, x, mpf("1e-12"))
        gap = abs(a.value - (b.value + gamma1_ref * x))
        assert gap <= a.abs_err + b.abs_err + mpf("1e-11")

    def test_series61_domain(self):
        with pytest.raises(DomainError):
            dilcher_power_series(mpf("1.5"))
        with pytest.raises(DomainError):
            dilcher_power_series(-1)

    @pytest.mark.parametrize("xs", ["0.25", "0.5", "0.75"])
    def test_second_derivative_consistency(self, xs, gamma1_ref):
        # zeta''(0,x) - zeta''(0) - 2 gamma_1 x = log^2 x - 2 * series(x)
        x = mpf(xs)
        zd = zeta_deriv0_diff(1, x, mpf("1e-13"))
        s = dilcher_power_series(x, mpf("1e-13"))
        lhs = zd.value - 2 * gamma1_ref * x
        rhs = log(x) ** 2 - 2 * s.value
        assert abs(lhs - rhs) <= zd.abs_err + 2 * s.abs_err + mpf("1e-11")

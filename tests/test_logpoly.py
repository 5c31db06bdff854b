from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import exp, log, mp, mpf, polyroots, quad, workdps, workprec, zeta

import oracles
from stieltjes.core import ConvergenceError, DomainError, SeriesValue, comp_sum, rounding_floor
from stieltjes.fixedpoint import lattice_sum
from stieltjes.gamma import gamma_diff, gamma_n, stieltjes_integral
from oracles import (LogPoint, LogPolyRef, bernoulli_mpf, logpoly_integral_to_inf,
                     logpow_antiderivative_ref)
from stieltjes.logpoly import (DIRECT, J_PLAN_MAX, K_CAP, POLY_CACHE_MAX, ROOT_CACHE_MAX,
                               _ROOT_WIDTH, _TailPoint, _certificate, _certified_start, _isolated,
                               _log_polys, _real_roots, _root_table, _tail_rows, bernoulli,
                               em_series, em_start_for, em_tail, em_tail_error,
                               em_tail_shifted, ladder_start, tail_err)
from stieltjes.related import delta, digamma, dilcher_log_gamma_k, log_gamma
from stieltjes.zeta import _deriv0_parts, hurwitz_em, zeta_deriv0_diff, zeta_prime_int


def test_bernoulli_pinned_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)


def test_bernoulli_cache_order_invariant():
    # asking for a high index first must not change lower values
    high = bernoulli(18)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(18) == high


def test_bernoulli_matches_the_recurrence():
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, written out in Fractions
    want = [Fraction(1)]
    for m in range(1, 67):
        want.append(-sum(comb(m + 1, j) * want[j] for j in range(m)) / (m + 1))
    assert [bernoulli(i) for i in range(len(want))] == want
    assert bernoulli(1) == Fraction(-1, 2)
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_diff_of_constant_is_zero():
    assert not LogPolyRef.single(1, 0, 0).diff().terms


def test_diff_product_rule():
    got = LogPolyRef.single(1, 1, 1).diff()
    want = LogPolyRef({(0, 2): mpf(1), (1, 2): mpf(-1)})
    assert got == want


def test_double_diff_matches_finite_difference():
    f = LogPolyRef.single(1, 2, 1)  # log^2 t / t
    d2 = f.diff().diff()
    t = mpf(10)
    with workdps(40):
        h = mpf("1e-8")
        fd = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
    assert abs(d2(t) - fd) < mpf("1e-20")


coeff_st = st.integers(-8, 8)
term_st = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(derandomize=True, max_examples=50)
@given(st.dictionaries(term_st, coeff_st, max_size=4),
       st.dictionaries(term_st, coeff_st, max_size=4),
       st.integers(-5, 5), st.integers(-5, 5))
def test_diff_linearity_exact(f_terms, g_terms, a, b):
    f = LogPolyRef({k: mpf(c) for k, c in f_terms.items()})
    g = LogPolyRef({k: mpf(c) for k, c in g_terms.items()})
    lhs = (f.scaled(a) + g.scaled(b)).diff()
    rhs = f.diff().scaled(a) + g.diff().scaled(b)
    assert lhs == rhs


def test_evaluation_at_one():
    # log^0 is 1 everywhere, so only m = 0 terms survive at t = 1
    f = LogPolyRef({(0, 1): mpf(1), (2, 1): mpf(5), (1, 0): mpf(-3)})
    assert f(1) == 1


def test_em_tail_rejects_divergent():
    with pytest.raises(DomainError):
        em_tail(2, 0, 10)
    with pytest.raises(DomainError):
        em_tail(0, mpf("0.5"), 10)


def test_em_tail_rejects_a_log_power_that_is_not_a_natural_number():
    for m in (-1, 1.0, mpf(2)):
        with pytest.raises(DomainError):
            em_tail(m, 1, 10)


def test_em_tail_rejects_large_order():
    # the limit is the largest order the order loop plans
    assert em_tail(0, 1, 10, J=J_PLAN_MAX).terms_used == J_PLAN_MAX
    with pytest.raises(DomainError):
        em_tail(0, 1, 10, J=J_PLAN_MAX + 1)


def test_em_tail_inverse_t_vs_exact_harmonic():
    # sum_{k>=N} 1/k - int_N^inf dt/t  ==  gamma - (H_{N-1} - log N)
    N = 10**6
    with workdps(50):
        want = oracles.gamma_oracle() - (mpf(oracles.H_1E6_MINUS_1) - log(N))
        sv = em_tail(0, 1, N)
    assert abs(sv.value - want) < mpf("1e-25")


def test_em_tail_logt2_vs_brute_oracle():
    sv = em_tail(1, 2, 10**4)
    assert abs(sv.value - mpf(oracles.EM_TAIL_LOGT2_1E4)) < mpf("1e-18")


@pytest.mark.parametrize("m,p,a", [(0, 1, 2), (1, 1, "7.5"), (3, 2, 100), (2, 3, "33.25")])
def test_em_tail_is_the_shifted_loop_on_f_prime(m, p, a):
    # every single term log^m t / t^p carries em_tail_error's key d = 0,
    # f(a) is the tail's own and the integral is left out; the claim is
    # em_tail_shifted's SeriesValue as it is, with no rounding floor added
    a = mpf(a)
    key = (m, a, 0, 1, p)
    assert em_tail(m, p, a) == em_tail_shifted([(1, 0, m, p)], a, key=key, integral=False)


@pytest.mark.parametrize("bound", ["1e-8", "1e-20", "1e-30", "1e-300"])
def test_em_tail_shifted_raises_the_order_to_the_bound(bound):
    # 1/t at 20: the order rises from J = 4 to the first whose omitted
    # correction is below bound, or stops at the series' turning point, the
    # first J past DIRECT whose next row's weight A_(J+2) is not below
    # A_(J+1) 20^2 (J = 62 here, about pi 20), with the bits of a call at
    # that order
    parts, a, bound = [(1, 0, 0, 1)], mpf(20), mpf(bound)
    plain = [em_tail_shifted(parts, a, J, integral=False) for J in range(4, J_PLAN_MAX + 1)]
    weights = [A for _, A in (_tail_rows(0, 1)[0][j] for j in range(J_PLAN_MAX + 2))]
    turn = next(J for J in range(DIRECT, J_PLAN_MAX + 1)
                if J == J_PLAN_MAX or not weights[J + 2] < weights[J + 1] * 400)
    assert turn == 62
    J = next((J for J, p in enumerate(plain, 4) if p.abs_err < bound and J <= turn), turn)
    assert em_tail_shifted(parts, a, bound=bound, integral=False) == plain[J - 4]
    # J is the least order
    assert em_tail_shifted(parts, a, 6, bound, integral=False) == plain[max(J, 6) - 4]


def test_log_point_has_the_bits_of_a_call():
    u = mpf("33.25")
    point = LogPoint(u)
    f = LogPolyRef({(0, 1): 2, (3, 1): 1, (2, 3): -5})
    for poly in (f, f.diff(), f.diff().diff().diff(), LogPolyRef.single(1, 0, 2)):
        assert point.eval(poly) == poly(u)


def _antiderivative(m, p, u):
    """int log^m u / u^p du for p = 0 or 1, in mpf."""
    return logpow_antiderivative_ref(m, u) if p == 0 else log(u) ** (m + 1) / (m + 1)


def _reference_tail(v, start, J, integral):
    """The correction loop with every derivative re-derived by LogPolyRef.diff
    and every order evaluated afresh, one logarithm per part and order."""
    start = mpf(start)
    parts = [(mpf(c), mpf(sh), LogPolyRef.single(1, m, p)) for c, sh, m, p in v]

    def at(polys):
        total = mpf(0)
        for (c, sh, _), poly in zip(parts, polys):
            total += c * poly(start + sh)
        return total

    polys = [poly for _, _, poly in parts]
    value = at(polys) / 2
    if integral:
        value -= mp.fsum(mpf(c) * _antiderivative(m, p, start + sh) for c, sh, m, p in v)
    order = 0
    for j in range(1, J + 1):
        while order < 2 * j - 1:
            polys = [poly.diff() for poly in polys]
            order += 1
        value -= bernoulli_mpf(2 * j) / factorial(2 * j) * at(polys)
    while order < 2 * J + 1:
        polys = [poly.diff() for poly in polys]
        order += 1
    return value, abs(bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2) * at(polys))


@pytest.mark.parametrize("J", [4, 9])
def test_em_tail_shifted_matches_the_fresh_loop(J):
    x = mpf("0.3")
    # 1/(t+x) - log(t+1+x) + log(t+x): two parts share the shift x
    h_parts = [(1, x, 0, 1), (-1, 1 + x, 1, 0), (1, x, 1, 0)]
    for (v, start), integral in product(((h_parts, 40), ([(1, 0, 3, 1)], mpf("32.75"))),
                                        (True, False)):
        got = em_tail_shifted(v, start, J, integral=integral)
        E = tail_err()
        # the loop runs 40 digits higher; the value is within tail_err() of
        # it, and the claim is the first omitted correction, itself within
        # tail_err(), plus twice tail_err()
        with workdps(mp.dps + 40):
            value, err = _reference_tail(v, start, J, integral)
            assert abs(got.value - value) <= E
            assert abs(got.abs_err - 2 * E - err) <= E
        # and a repeat call is bit-identical
        assert em_tail_shifted(v, start, J, integral=integral) == got


# every (m, p) a route passes to em_tail_shifted, and those of
# test_em_tail_self_consistency
TABLE_CASES = ([(n, 1) for n in range(9)] + [(q, 0) for q in range(1, 8)]
               + [(m, p) for m in range(4) for p in (2, 3)])


@pytest.mark.parametrize("m,p", TABLE_CASES)
def test_log_polys_are_the_diff_chain(m, p):
    # the rows through 2 J_PLAN_MAX + 5, the last em_tail_error reads; 1024
    # bits hold every coefficient there (at most 800 bits) exactly, so the
    # chain must match coefficient for coefficient
    rows = _log_polys(m, p)
    with workprec(1024):
        g = LogPolyRef.single(1, m, p)
        for k in range(2 * J_PLAN_MAX + 6):
            P = rows[k]
            assert max(abs(c) for c in P).bit_length() <= 800
            assert g.terms == {(j, p + k): c for j, c in enumerate(P) if c}
            g = g.diff()
    assert len(rows) == 2 * J_PLAN_MAX + 6


def test_em_start_for_keeps_the_winning_shifted_probe():
    # x log(t+1) + (1-x) log t - log(t+x), its whole tail probed at each rung
    x = mpf("0.3")
    h_parts = [(x, 1, 1, 0), (1 - x, 0, 1, 0), (-1, x, 1, 0)]
    bound = mpf("1e-22")

    def probe(K):
        return em_tail_shifted(h_parts, K)

    K, tail = em_start_for(probe, bound, 16)
    assert K > 16 and probe(K // 4).abs_err >= bound > tail.abs_err
    assert tail == probe(K)


def _rung(K, err):
    return SeriesValue(mpf(K), err, 1, "probe")


def test_em_start_for_returns_smallest_passing_rung():
    probes = []

    def probe(K):
        probes.append(K)
        return _rung(K, mpf(1) / K)

    # the winning rung comes back with its own probe's tail, and every
    # rung is probed exactly once
    assert em_start_for(probe, mpf(1) / 1000, 16) == (1024, _rung(1024, mpf(1) / 1024))
    assert probes == [16, 64, 256, 1024]
    # the bound is strict: a rung whose error equals it does not pass
    assert em_start_for(probe, mpf(1) / 256, 16)[0] == 1024
    probes.clear()
    assert em_start_for(probe, mpf(1) / 1000, 8, factor=2)[0] == 1024
    assert probes == [8, 16, 32, 64, 128, 256, 512, 1024]


@pytest.mark.parametrize("digits,K", [(-2, 8), (1, 8), (6, 8), (12, 8), (14, 8), (15, 16),
                                      (20, 16), (29, 16), (30, 32), (50, 32), (59, 32),
                                      (60, 64), (100, 64), (150, 128), (200, 128)])
def test_ladder_start_is_a_power_of_two_near_the_digits_over_186(digits, K):
    # max(8, 2^ceil(log2(d / (2 log10(pi e))))): the 30- and 50-digit plans
    # keep K = 32
    for tol in (mpf(10) ** -digits, 2 * mpf(10) ** -digits):
        assert ladder_start(tol) == K


def test_em_start_for_raises_past_the_budget():
    probes = []

    def probe(K):
        probes.append(K)
        return _rung(K, mpf(1))

    with pytest.raises(ConvergenceError):
        em_start_for(probe, mpf("1e-10"), 16)
    # the ladder stops before its first rung past the cap
    assert probes[-1] <= K_CAP < 4 * probes[-1]
    # a start past the cap raises without a probe
    probes.clear()
    with pytest.raises(ConvergenceError):
        em_start_for(probe, mpf("1e-10"), K_CAP + 1)
    assert probes == []


@pytest.mark.parametrize("J", [0, J_PLAN_MAX + 1, 2.5])
def test_em_tail_shifted_rejects_an_order_outside_the_plan(J):
    with pytest.raises(DomainError):
        em_tail_shifted([(1, 0, 1, 1)], 10, J)


@pytest.mark.parametrize("m", [-1, 1.0])
def test_em_tail_shifted_rejects_a_log_power_that_is_not_a_natural_number(m):
    with pytest.raises(DomainError):
        em_tail_shifted([(1, 0, m, 1)], 10, 4)


@pytest.mark.parametrize("bound,dps,rung", [("1e-30", 60, 32), ("1e-45", 60, 32),
                                             ("1e-170", 250, 512)],
                         ids=["1e-30", "1e-45", "1e-170"])
def test_em_series_is_the_ladder_and_the_lattice_sum(bound, dps, rung):
    # zeta_deriv0_diff's summand at k = 1, x = 0.3: em_series returns the
    # rung em_start_for picks over em_tail_shifted's tails with the key
    # (n, K + offset, d, scale), that rung's tail as it is, and the lattice
    # sum from lo to that rung, bit for bit; 1e-30 (J = 9) and 1e-45
    # (J = 19) pass at the first rung, 1e-170 at the third (J = 41)
    mp.dps = dps
    x, bound = mpf("0.3"), mpf(bound)
    parts, scale = _deriv0_parts(2, x), abs(x * (x - 1))
    K, partial, tail = em_series(parts, 1, 32, bound, (1, 0, 1, scale))

    def probe(K):
        return em_tail_shifted(parts, K, 4, bound, (1, K, 1, scale))

    assert (K, tail) == em_start_for(probe, bound, 32)
    assert K == rung
    assert partial._mpf_ == lattice_sum(parts)(1, K)._mpf_


def test_em_series_reads_the_certificate_from_a_negative_offset(monkeypatch):
    # dilcher_log_gamma_k at x = -0.5: each rung K's certificate reads its
    # window from a = K - 0.5, formed exactly, and the last rung probed is
    # the K the route reports
    import stieltjes.logpoly as logpoly_mod

    keys = []
    real = logpoly_mod.em_tail_shifted

    def recorded(v, start, J=4, bound=None, key=None, integral=True):
        if key is not None and key[2] == 1:
            keys.append((start, key))
        return real(v, start, J, bound, key, integral)

    monkeypatch.setattr(logpoly_mod, "em_tail_shifted", recorded)
    # at 1e-200 the first rung, K = 128, fails at J_PLAN_MAX
    sv = dilcher_log_gamma_k(1, mpf("-0.5"), mpf("1e-200"))
    assert [K for K, _ in keys] == [128 * 4 ** i for i in range(len(keys))]
    assert keys[-1][0] == sv.terms_used > 128
    for K, (n, a, d, scale) in keys:
        assert (n, d, scale) == (1, 1, mpf("0.125"))
        assert type(a) is mpf and a == K - mpf("0.5")


@pytest.mark.parametrize("call", [
    lambda: gamma_n(1, 1, "series_b", mpf("1e-700")),
    lambda: gamma_n(1, 1, "series_c", mpf("1e-700")),
    lambda: gamma_n(1, 1, "coffey", mpf("1e-700")),
    lambda: digamma(mpf("0.5"), mpf("1e-700")),
    lambda: log_gamma(mpf("0.5"), mpf("1e-700")),
    lambda: dilcher_log_gamma_k(1, mpf("0.5"), mpf("1e-700")),
    lambda: zeta_deriv0_diff(1, mpf("0.5"), mpf("1e-700")),
    lambda: hurwitz_em(2, mpf("0.5"), mpf("1e-700")),
], ids=["series_b", "series_c", "coffey", "digamma", "log_gamma",
        "dilcher_log_gamma_k", "zeta_deriv0_diff", "hurwitz_em"])
def test_unreachable_tolerance_raises_convergence_error(call):
    # past about 1e-620 no rung up to K_CAP reaches tol/4, even at J_PLAN_MAX
    with pytest.raises(ConvergenceError):
        call()


def test_integral_to_inf_closed_form():
    # int_N^inf log t / t^2 = (log N + 1)/N
    N = mpf(50)
    got = logpoly_integral_to_inf(LogPolyRef.single(1, 1, 2), N)
    assert abs(got - (log(N) + 1) / N) < mpf("1e-30")
    with pytest.raises(ValueError):
        logpoly_integral_to_inf(LogPolyRef.single(1, 0, 1), N)


def test_antiderivative_of_log_squared():
    # d/du [u (log^2 u - 2 log u + 2)] = log^2 u
    u = mpf("7.3")
    F = logpow_antiderivative_ref
    with workdps(44):
        h = mpf("1e-9")
        fd = (F(2, u + h) - F(2, u - h)) / (2 * h)
    assert abs(fd - log(u) ** 2) < mpf("1e-16")


def _self_consistency_cases(count=20, seed=20190201):
    import random

    rng = random.Random(seed)
    return [(rng.randint(0, 3), rng.choice([2, 3]), rng.randint(8, 24))
            for _ in range(count)]


def _tail_reference(f, m, p, N):
    """sum_{k>=N} log^m k / k^p = (-1)^m zeta^(m)(p, N), by mpmath at 60
    digits, less the closed-form integral from N."""
    with workdps(60):
        return (-1) ** m * zeta(p, N, m) - logpoly_integral_to_inf(f, mpf(N))


@pytest.mark.parametrize("m,p,N", _self_consistency_cases())
def test_em_tail_self_consistency(m, p, N):
    f = LogPolyRef.single(1, m, p)
    sv = em_tail(m, p, N)
    want = _tail_reference(f, m, p, N)
    assert abs(sv.value - want) <= sv.abs_err


@pytest.mark.slow
def test_em_tail_reference_against_brute_force():
    # cross-check of the mpmath reference on the first case: brute partial to
    # M, closed integral remainder, trapezoid term and the hand-written first
    # endpoint correction -f'(M)/12; the leftover is ~|f'''(M)| ~ 1e-20
    m, p, N = _self_consistency_cases()[0]
    f = LogPolyRef.single(1, m, p)
    M = mpf(10**5)
    brute = comp_sum(f(k) for k in range(N, 10**5))
    lM = log(M)
    fprime_M = m * lM ** (m - 1) / M ** (p + 1) - p * lM ** m / M ** (p + 1)
    rest = logpoly_integral_to_inf(f, M) + f(M) / 2 - fprime_M / 12
    want = brute + rest - logpoly_integral_to_inf(f, mpf(N))
    assert abs(_tail_reference(f, m, p, N) - want) <= mpf("1e-19")
    sv = em_tail(m, p, N)
    assert abs(sv.value - want) <= sv.abs_err + mpf("1e-19")


# (n, J, d): the root table of f^(2J+2+d), f = log^n t / t, and the
# enclosures of f^(2J+1+d) at its roots
ROOT_CASES = [(1, 4, 1), (2, 4, 0), (5, 4, 0), (8, 4, 0), (6, 9, 0), (3, 6, 1),
              (8, 13, 1)]


def _derivative(n, k):
    """f^(k) for f = log^n t / t by LogPolyRef.diff, at the caller's precision."""
    g = LogPolyRef.single(1, n, 1)
    for _ in range(k):
        g = g.diff()
    return g


def _fraction_mpf(q):
    return mpf(q.numerator) / q.denominator


def _positive_roots(n, k):
    """The real roots L > 0 of P with f^(k)(t) = P(log t)/t^(k+1), by
    mpmath.polyroots at 60 digits on LogPolyRef.diff's coefficients."""
    with workdps(60):
        terms = _derivative(n, k).terms
        coeffs = [int(terms.get((m, k + 1), 0)) for m in range(n + 1)]
        roots = polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
        return sorted(r.real for r in roots
                      if abs(r.imag) < mpf(10) ** -40 and r.real > 0)


def test_real_roots_keeps_exact_dyadic_roots():
    # P(L) = (L + 2)(3L - 1)(2L - 1)(8L - 5)(L - 3): the negative root is
    # dropped, 1/3 gets a narrow interval and each dyadic root lo = hi
    P = [1]
    for c0, c1 in ((2, 1), (-1, 3), (-1, 2), (-5, 8), (-3, 1)):
        P = [c0 * a + c1 * b for a, b in zip(P + [0], [0] + P)]
    got = _real_roots(P)
    assert [r for r in got if r[0] == r[1]] == [(Fraction(q), Fraction(q))
                                                for q in ("1/2", "5/8", "3")]
    (lo, hi), = [r for r in got if r[0] != r[1]]
    assert lo < Fraction(1, 3) < hi and hi - lo <= _ROOT_WIDTH
    assert len(got) == 4


@pytest.mark.parametrize("n,J,d", ROOT_CASES)
def test_root_intervals_isolate_one_root_each(n, J, d):
    intervals = _real_roots(_log_polys(n, 1)[2 * J + 2 + d])
    roots = _positive_roots(n, 2 * J + 2 + d)
    assert len(intervals) == len(roots) == n
    with workdps(60):
        for lo, hi in intervals:
            assert 0 < hi - lo <= Fraction(1, 2 ** 16)
            inside = [r for r in roots if _fraction_mpf(lo) <= r <= _fraction_mpf(hi)]
            assert len(inside) == 1
    # the table keeps each interval's upper end, rounded up
    table = _root_table(n, J, d)
    assert len(table) == len(intervals)
    assert all(h >= hi for (h, _), (_, hi) in zip(table, intervals))


@pytest.mark.parametrize("n,J,d", ROOT_CASES)
def test_root_enclosures_bound_g_across_the_interval(n, J, d):
    with workdps(60):
        g = _derivative(n, 2 * J + 1 + d)
        for (lo, hi), (_, g_max) in zip(_real_roots(_log_polys(n, 1)[2 * J + 2 + d]),
                                        _root_table(n, J, d)):
            samples = [abs(g(exp(_fraction_mpf(lo + (hi - lo) * Fraction(i, 16)))))
                       for i in range(17)]
            # an upper bound, and a tight one: the interval is 2^-16 wide
            assert max(samples) <= g_max <= (1 + mpf("1e-3")) * max(samples)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("J", [4, 7, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_certified_start_is_just_past_the_last_root(n, J, d):
    # t_J is past every real root of f^(2J+2+d) and f^(2J+4+d), found here
    # by polyroots, and within the isolating width of the largest in log t
    t_J = _certified_start(n, J, d)
    roots = _positive_roots(n, 2 * J + 2 + d) + _positive_roots(n, 2 * J + 4 + d)
    with workdps(60):
        assert all(mpf(t_J) > exp(r) for r in roots)
        assert log(mpf(t_J)) - max(roots) <= 2 * _fraction_mpf(_ROOT_WIDTH) + mpf("1e-9")


@pytest.mark.parametrize("p", [2, 3, Fraction(3, 2)])
@pytest.mark.parametrize("m", range(4))
def test_isolated_terminates_for_other_inverse_powers(m, p):
    # the certificate of log^m t / t^p reads rows up to 2 J_PLAN_MAX + 5
    # (d = 1); the bisection ends on each, at p = 3/2 the integer row b^k
    # P_k, and each interval brackets a sign change
    for k in range(2 * J_PLAN_MAX + 6):
        P = _log_polys(m, p)[k]
        intervals = _isolated(m, k, p)
        assert len(intervals) <= m
        for lo, hi in intervals:
            assert 0 <= hi - lo <= _ROOT_WIDTH
            ends = [sum(c * L ** j for j, c in enumerate(P)) for L in (lo, hi)]
            assert ends[0] * ends[1] <= 0


def test_certificate_key_needs_a_positive_inverse_power():
    # each row leads with (-1)^k (p)_k, which vanishes for p = 0, -1, ...,
    # and g = f^(2J+1+d) must vanish at infinity
    for p in (0, mpf("-0.5")):
        with pytest.raises(DomainError):
            em_tail_error(1, mpf(10), 4, mpf(0), 0, 1, p)


@pytest.mark.parametrize("n,J,d,a", [(5, 4, 0, "32.2546"), (2, 4, 0, "58.5"),
                                     (8, 4, 0, "169.25"), (6, 7, 0, "40"),
                                     (1, 4, 1, "8"), (3, 5, 1, "32"),
                                     (5, 4, 1, "32"), (8, 13, 1, "128")])
def test_certified_variation_bounds_the_integral(n, J, d, a):
    # em_tail_error below t_J is 2|B_2J+2|/(2J+2)! times a bound on the
    # total variation of f^(2J+1+d) on [a, inf), which is the integral of
    # |f^(2J+2+d)| there, taken by quadrature split at its roots; for d = 0
    # it reads |f^(2J+1)(a)| from the first omitted correction of f's tail
    a = mpf(a)
    assert a < _certified_start(n, J, d)
    weight = 2 * abs(bernoulli_mpf(2 * J + 2)) / factorial(2 * J + 2)
    omitted = em_tail_shifted([(1, 0, n, 1)], a, J, integral=False).abs_err if d == 0 else mpf(0)
    tv = em_tail_error(n, a, J, omitted, d) / weight
    with workdps(40):
        h = _derivative(n, 2 * J + 2 + d)
        cuts = [exp(L) for L in _positive_roots(n, 2 * J + 2 + d) if exp(L) > a]
        integral = quad(lambda t: abs(h(t)), [a] + cuts + [mpf("inf")])
    assert tv >= integral > 0
    # past t_J the theta-bound is the first omitted correction itself
    t_J = mpf(_certified_start(n, J, d))
    assert em_tail_error(n, 2 * t_J, J, mpf("1e-30"), d) == mpf("1e-30")


# (parts, start, key, integral): gamma_n's f = log t / t at 33.5 (d = 0),
# as em_tail takes it, and zeta_deriv0_diff's second difference at k = 1,
# x = 0.3, K = 32 (d = 1)
_X = mpf("0.3")
LOOP_CASES = {
    "d0": ([(1, 0, 1, 1)], mpf("33.5"), (1, mpf("33.5"), 0, 1), False),
    "d1": ([(1, _X, 2, 0), (_X - 1, 0, 2, 0), (-_X, 1, 2, 0)], 32,
           (1, 32, 1, 2 * abs(_X * (_X - 1)) / 2), True),
}


@pytest.mark.parametrize("bound", ["1e-12", "1e-28", "1e-29", "1e-60"])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_order_loop_returns_the_least_certified_order(case, bound):
    # by brute force over J: the loop stops at the least order whose
    # certified claim is below bound, with the bits of a call at that
    # order; at 1e-60 no order up to J_PLAN_MAX is, and the rung fails
    # with the claim at J_PLAN_MAX.  1e-28 (d = 0) and 1e-29 (d = 1) lie
    # between the first omitted correction at J = 8 and its certified
    # claim, so J = 8 does not pass there.
    parts, start, key, integral = LOOP_CASES[case]
    bound = mpf(bound)
    plain = [em_tail_shifted(parts, start, J, key=key, integral=integral)
             for J in range(4, J_PLAN_MAX + 1)]
    assert [p.terms_used for p in plain] == list(range(4, J_PLAN_MAX + 1))
    J = next((p.terms_used for p in plain if p.abs_err < bound), J_PLAN_MAX)
    got = em_tail_shifted(parts, start, 4, bound, key, integral)
    assert got == plain[J - 4]
    # 1e-12 passes at J = 4, 1e-28 and 1e-29 raise J, and 1e-60 fails
    assert (got.terms_used == 4) == (bound > mpf("1e-20"))
    assert (got.abs_err < bound) == (bound > mpf("1e-50"))


def test_failing_rung_takes_a_tail_and_gamma1_lands_at_k512(monkeypatch):
    # a rung fails on its certified claim at J_PLAN_MAX, so the 200-digit
    # first rung, K = 128, takes a tail too; the plan stops at K = 512
    import stieltjes.gamma as gamma_mod

    calls = []
    real = gamma_mod.em_tail

    def counted(m, p, start, J=4, bound=None):
        calls.append(start)
        return real(m, p, start, J, bound)

    monkeypatch.setattr(gamma_mod, "em_tail", counted)
    with workdps(400):
        sv = gamma_n(1, mpf("1.5"), "series_b", mpf("1e-200"))
    assert sv.terms_used == 512 and calls == [128 + mpf("1.5"), 512 + mpf("1.5")]


def test_em_tail_claim_holds_the_rounding_of_its_value():
    # log^8 t / t at 32.2546, J = 13, 34 digits: the remainder bound is
    # 1.07e-34 for a value near 1e3, whose rounding in mpf operators erred
    # by 1.75e-33.  In fixed point the value is within tail_err() of the
    # order-13 sum, so the claim (1.1e-34), with no rounding floor added,
    # holds the true error (5.3e-35); the value's floor alone is 2.5e-31
    with workdps(34):
        a = mpf("32.2546")
        sv = em_tail(8, 1, a, 13)
        floor = rounding_floor(sv.value)
    with workdps(80):
        gap = abs(sv.value - (mp.stieltjes(8, a) + log(a) ** 9 / 9))
    assert gap <= sv.abs_err < floor


@pytest.mark.parametrize("J", [8, 13])
def test_em_tail_claims_the_certified_remainder(J):
    # f = log t / t at 32.2546 sits below t_J, where the first omitted
    # correction is not a bound: at J = 8 the true error is 7.42e-29 and
    # that correction 7.30e-29.  em_tail claims em_tail_error's bound on
    # that correction plus tail_err(), and tail_err() more; the key-less
    # claim is the correction plus twice tail_err()
    with workdps(80):
        a = mpf("32.2546")
        sv = em_tail(1, 1, a, J)
        assert a < _certified_start(1, J)
        E = tail_err()
        omitted = em_tail_shifted([(1, 0, 1, 1)], a, J, integral=False).abs_err - E
        assert sv.abs_err == em_tail_error(1, a, J, omitted) + E
        assert abs(sv.value - (mp.stieltjes(1, a) + log(a) ** 2 / 2)) <= sv.abs_err


def test_mp_keyed_caches_stay_bounded():
    # every fresh s of hurwitz_em and zeta_prime_int adds (m, p)-keyed
    # entries; after 200 of them each cache is at or below its cap, and a
    # value at an s whose entries were evicted has the bits of a cold call
    caches = {_log_polys: POLY_CACHE_MAX, _tail_rows: POLY_CACHE_MAX,
              _certificate: POLY_CACHE_MAX, _isolated: ROOT_CACHE_MAX,
              _certified_start: ROOT_CACHE_MAX}
    tol = mpf("1e-20")
    for cache in caches:
        cache.cache_clear()

    def at(s):
        return [(sv.value, sv.abs_err, sv.terms_used)
                for sv in (hurwitz_em(s, mpf("1.37"), tol), zeta_prime_int(s, tol))]

    s0 = mpf("2.0001")
    cold = at(s0)
    for i in range(1, 201):
        at(s0 + mpf(i) / 256)
    for cache, cap in caches.items():
        assert cache.cache_info().currsize <= cap
    misses = _log_polys.cache_info().misses
    assert at(s0) == cold
    assert _log_polys.cache_info().misses > misses  # s0's rows were evicted


ORDER_ROUTES = {
    "series_b": lambda tol: gamma_n(2, mpf("0.7"), "series_b", tol),
    "series_c": lambda tol: gamma_n(2, mpf("0.7"), "series_c", tol),
    "coffey": lambda tol: gamma_n(2, mpf("0.7"), "coffey", tol),
    "gamma_diff": lambda tol: gamma_diff(1, mpf("0.7"), mpf("2.5"), tol),
    "digamma": lambda tol: digamma(mpf("0.7"), tol),
    "log_gamma": lambda tol: log_gamma(mpf("0.7"), tol),
    "zeta_deriv0_diff": lambda tol: zeta_deriv0_diff(2, mpf("0.7"), tol),
    "stieltjes_integral": lambda tol: stieltjes_integral(1, mpf("1.7"), tol),
    "dilcher_log_gamma_k": lambda tol: dilcher_log_gamma_k(1, mpf("0.7"), tol),
    "hurwitz_em": lambda tol: hurwitz_em(mpf("1.5"), mpf("0.7"), tol),
    "zeta_prime_int": lambda tol: zeta_prime_int(mpf("2.5"), tol),
    "delta": lambda tol: delta(2, 97),
}


@pytest.mark.parametrize("tol", ["1e-12", "1e-40"])
@pytest.mark.parametrize("route", sorted(ORDER_ROUTES))
def test_routes_carry_the_winning_tails_order(route, tol, monkeypatch):
    # every route whose plan ends in one tail reports that tail's J as its
    # order: the last em_tail_shifted call of the plan is the winning rung's
    import stieltjes.related as related_mod
    import stieltjes.zeta as zeta_mod
    import stieltjes.logpoly as logpoly_mod

    orders = []
    real = logpoly_mod.em_tail_shifted

    def recorded(*args, **kwargs):
        tail = real(*args, **kwargs)
        orders.append(tail.order)
        return tail

    for module in (logpoly_mod, zeta_mod, related_mod):
        monkeypatch.setattr(module, "em_tail_shifted", recorded)
    sv = ORDER_ROUTES[route](mpf(tol))
    assert sv.order == orders[-1] and 1 <= sv.order <= J_PLAN_MAX


def test_a_cold_1e12_tail_builds_todays_rows_at_todays_bits(monkeypatch):
    # the tail a 1e-12 gamma_1 plan settles on, its (m, p) caches cold,
    # builds no row past the 2 13 + 6 of _log_polys and the 15 of
    # _tail_rows that the cap of 13 built, and works at the bits it did:
    # prec + bitlen(B) + 7 with A the largest weight of rows 0..14 and the
    # integral (row 0: 1), computed here from the diff chain
    for cache in (_log_polys, _tail_rows, _certificate, _isolated, _certified_start):
        cache.cache_clear()
    seen = []
    real = _TailPoint.__init__

    def recorded(self, u, wp, M, q, e0, h=0):
        seen.append((mp.make_mpf(u), wp, mp.prec, M, e0, h))
        real(self, u, wp, M, q, e0, h)

    monkeypatch.setattr(_TailPoint, "__init__", recorded)
    x = mpf("1.5")
    sv = gamma_n(1, x, "series_b", mpf("1e-12"))
    assert (sv.terms_used, sv.order) == (8, 5)
    assert len(_log_polys(1, 1)) <= 2 * 13 + 6 and len(_tail_rows(1, 1)[0]) <= 13 + 2
    u, wp, prec, M, e0, h = seen[-1]
    assert (u, M, e0, h) == (8 + x, 3, 1, 0)
    with workprec(512):
        g, A = LogPolyRef.single(1, 1, 1), 1
        for j in range(1, 15):
            while max(p for _, p in g.terms) < 2 * j:  # f^(2j-1): inverse power 2j
                g = g.diff()
            w = (sum(abs(c) for c in g.terms.values()) * abs(bernoulli_mpf(2 * j))
                 / factorial(2 * j))
            A = max(A, int(mp.ceil(w)))
    # B = 2^4 q (|c| + 1)(A + 1) G M^q with q = 2, c = 1, G = 1
    assert wp == prec + (16 * 2 * 2 * (A + 1) * M ** 2).bit_length() + 7

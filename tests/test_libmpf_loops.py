"""The lattice partial sums and the Euler-Maclaurin tails run in fixed
point: every log-polynomial route's partial sum on logpoly's one kernel,
lattice_sum, over the parts list the route builds, and so the single
boundary steps over a telescoped pair; coffey's panel defects and end terms
on their own loop; and every tail, delta's own ends included, on
em_tail_shifted's.  Each states a bound,
2^-prec for a whole partial sum and tail_err() for a tail's value and each
of its corrections, and is checked here against its mpf form, written out
operator for operator as the loops read when they ran on mpf values,
evaluated at twice the working digits plus 20.  Grid: n = 0..8, x
log-uniform in [0.05, 8] plus 0.05 (coffey's a < 1 panel), 1, 500 and 1e6,
at the working precisions of tol 1e-12, 1e-20 and 1e-50; x = 1e-20 for
series_c and coffey, and K = 2048 at 1e-50.  Random parts lists check the
kernel against the same sum in mpf, and random keys the certificate table
against the certificate in mpf."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import exp, ldexp, log, mp, mpf, workdps, workprec
from mpmath.libmp import from_man_exp, to_fixed

import stieltjes.fixedpoint as fixedpoint
from oracles import (LogPoint, LogPolyRef, em_tail_error_mpf, em_tail_shifted_mpf, exact_p,
                     logpow_antiderivative_ref, pow_step_ref)
from stieltjes.core import working_dps
from stieltjes.fixedpoint import (INT_LOG_CAP, INT_LOG_GUARD, LOG_GUARD, LOG_PRODUCT_PRECS,
                                  LOG_TAYLOR_PREC, fixed_div, fixed_log, fixed_log_ints,
                                  fixed_log_sum, fixed_pow, lattice_err, lattice_sum)
from stieltjes.gamma import (_coffey_sum, _incgamma_pair, _series_b_parts,
                             _series_c_parts, _step_parts)
from stieltjes.logpoly import (DIRECT, J_PLAN_MAX, _certified_start, _log_ceil, _TailPoint,
                               _tail_rows, em_tail_error, em_tail_shifted, tail_err)
from stieltjes.related import _dilcher_parts
from stieltjes.verifier import _g_parts
from stieltjes.zeta import _deriv0_parts

_rng = random.Random(20190201)
XS = ([str(mpf(0.05) * mpf(160) ** _rng.random()) for _ in range(4)]
      + ["0.05", "1", "500", "1e6"])
DPS = [working_dps(mpf(t)) for t in ("1e-12", "1e-20", "1e-50")]
K = 12
# the long loop: K = 2048 at the working precision of 1e-50
LONG_K, LONG_DPS = 2048, DPS[-1]


def _within_bound(got, ref_terms, dps):
    """|got - sum(ref_terms())| <= 2^-prec: the kernel sum at dps against
    its mpf form at 2 dps + 20 digits."""
    with workdps(dps):
        bound = lattice_err()
    with workdps(2 * dps + 20):
        gap = abs(got - mp.fsum(ref_terms()))
    return gap <= bound


def incgamma_pair_mpf(n, t):
    term = total = mpf(1)
    for m in range(1, n):
        term = term * t / m
        total += term
    e = exp(-t)
    return (factorial(n - 1) * e * total,
            factorial(n) * e * (total + term * t / n))


def coffey_sum_mpf(n, x, K):
    """coffey's end terms f(x)/2 - log^q x/q and -f(K+x)/2 around its K
    panel defects."""
    q = n + 1
    a = x
    la = log(a)
    la_n = la ** n
    gammas_a = None
    yield la_n / a / 2 - la ** q / q
    for j in range(K):
        b = j + 1 + x
        lb = log(b)
        lb_n = lb ** n
        dlog = pow_step_ref(la, a, b, q) / q
        if a >= 1:
            if gammas_a is None:
                gammas_a = incgamma_pair_mpf(n, la)
            gammas_b = incgamma_pair_mpf(n, lb)
            dGn = gammas_a[0] - gammas_b[0]
            dGn1 = gammas_a[1] - gammas_b[1]
            yield (lb_n - la_n) - dlog - (a + mpf(1) / 2) * (n * dGn - dGn1)
            gammas_a = gammas_b
        else:
            yield (la_n / a + lb_n / b) / 2 - dlog
        a, la, la_n = b, lb, lb_n
    yield -la_n / a / 2


def series_b_mpf(n, x, K):
    f = LogPolyRef.single(1, n, 1)
    q = n + 1
    for k in range(K):
        a = LogPoint(k + x)
        yield a.eval(f) - pow_step_ref(a.lu, a.u, mpf(k + 1) + x, q) / q


def series_c_mpf(n, x, K):
    f = LogPolyRef.single(1, n, 1)
    q = n + 1
    for k in range(K):
        yield f(k + x) - pow_step_ref(log(k + 1), mpf(k + 1), mpf(k + 2), q) / q


def diff_mpf(n, x, y, K):
    f = LogPolyRef.single(1, n, 1)
    for k in range(K):
        yield f(k + x) - f(k + y)


def deriv0_mpf(q, x, lo, hi):
    for n in range(lo, hi):
        ln = log(n)
        yield pow_step_ref(ln, n, n + x, q) - x * pow_step_ref(ln, n, mpf(n + 1), q)


def dilcher_mpf(k, x, lo, hi):
    fk = LogPolyRef.single(1, k, 1)
    q = k + 1
    for j in range(lo, hi):
        a = LogPoint(mpf(j))
        yield x * a.eval(fk) - pow_step_ref(a.lu, a.u, j + x, q) / q


def g_mpf(q, x, lo, hi):
    for k in range(lo, hi):
        a = LogPoint(mpf(k + 1))
        yield pow_step_ref(a.lu, a.u, k + x, q) - q * (x - 1) * a.lu ** (q - 1) / a.u


def _grid(n_range=range(9)):
    for dps in DPS:
        for x in XS:
            for n in n_range:
                yield dps, mpf(x), n


def _m_pow(points, q):
    """M^q for M the power of two >= max(1, |log u|) over points."""
    M = max(max(1, abs(float(log(u)))) for u in points)
    return 2 ** (q * int(M).bit_length())


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("q", range(1, 10))
def test_pow_step(dps, q):
    # the step of coffey's panels and of the kernel's telescoped parts, a
    # difference of carried powers: within 10 q M^q units of log^q b - log^q a
    with workdps(dps):
        wp = mp.prec + 30
        for x in XS:
            a = mpf(x)
            for b in (a + mpf("0.2546"), a + 1, 2 * a + 3, mpf(501)):
                got = (fixed_pow(fixed_log(b._mpf_, wp), q, wp)
                       - fixed_pow(fixed_log(a._mpf_, wp), q, wp))
                with workdps(2 * dps + 20):
                    ref = (log(b) ** q - log(a) ** q) * mpf(2) ** wp
                    assert abs(got - ref) <= 10 * q * _m_pow((a, b), q), (x, b)


def test_int_logs():
    # from the table, shifted down, across its cap, and afresh where the
    # working bits pass the table's: within 3M units each
    with workdps(DPS[1]):
        P = mp.prec + INT_LOG_GUARD
        for lo, hi in ((1, 40), (INT_LOG_CAP - 3, INT_LOG_CAP + 3)):
            for wp in (mp.prec + 20, P, P + 1):
                got = list(fixed_log_ints(lo, hi, wp))
                assert len(got) == hi - lo
                with workdps(2 * DPS[1] + 20):
                    for n, L in zip(range(lo, hi), got):
                        ref = log(n) * mpf(2) ** wp
                        assert abs(L - ref) <= 3 * _m_pow((n,), 1), (lo, wp, n)


def _rule1_points(wp):
    """Rule (1)'s edges at wp: powers of two, points within 2^-100 of 1 on
    both sides, points near 1e-7 and near 10^6 + x, and an exact product of
    lattice points of about LOG_PRODUCT_PRECS wp bits, as fixed_log_sum
    takes it."""
    one = mpf(1)
    yield from (ldexp(one, e) for e in (0, 1, -1, -40, 77))
    yield from (mp.fadd(one, s * ldexp(one, -e), exact=True)
                for s in (1, -1) for e in (100, wp + 30))
    with workprec(wp):
        tiny, big = mpf("1e-7"), mpf(10) ** 6 + mpf(XS[0])
        yield from (tiny, tiny * (1 + ldexp(one, -60)), big, mp.fadd(big, 1, exact=True))
    man, e2, j = 1, 0, 0
    while man.bit_length() <= LOG_PRODUCT_PRECS * wp:
        _, m, e, _ = mp.fadd(big, j, exact=True)._mpf_
        man, e2, j = man * m, e2 + e, j + 1
    yield mp.make_mpf(from_man_exp(man, e2))


@pytest.mark.parametrize("wp", [DPS[0] * 4, DPS[-1] * 4, 1000]
                         + [LOG_TAYLOR_PREC - LOG_GUARD + d for d in (-1, 0, 1)])
def test_fixed_log_at_the_edges_of_rule_1(wp, monkeypatch):
    # within 3M units of log u, and on mpmath's Taylor core (w = wp + 20 <=
    # LOG_TAYLOR_PREC) within 1 + (2^9 + 2 + 3M) 2^-20; past it, and only
    # there, on mpf_log
    calls = []
    real = fixedpoint.mpf_log
    monkeypatch.setattr(fixedpoint, "mpf_log", lambda *a: calls.append(1) or real(*a))
    points = list(_rule1_points(wp))
    for u in points:
        got = fixed_log(u._mpf_, wp)
        with workprec(2 * wp + 70):
            ref = log(u) * mpf(2) ** wp
            M = max(1, int(mp.ceil(abs(log(u)))))
            gap = abs(got - ref)
            assert gap <= 3 * M, (wp, u)
            if wp + LOG_GUARD <= LOG_TAYLOR_PREC:
                assert gap <= 1 + mpf(2 ** 9 + 2 + 3 * M) / 2 ** 20, (wp, u)
    assert len(calls) == (len(points) if wp + LOG_GUARD > LOG_TAYLOR_PREC else 0)
    assert fixed_log(mpf(1)._mpf_, wp) == 0


def test_series_b_terms():
    for dps, x, n in _grid():
        with workdps(dps):
            got = lattice_sum(_series_b_parts(n, x))(0, K)
        assert _within_bound(got, lambda: series_b_mpf(n, x, K), dps), (dps, x, n)


def test_series_c_terms():
    for dps, x, n in _grid():
        with workdps(dps):
            got = lattice_sum(_series_c_parts(n, x))(0, K)
        assert _within_bound(got, lambda: series_c_mpf(n, x, K), dps), (dps, x, n)


def test_coffey_panels():
    # x = 0.05 takes the direct defect at the first panel, every other x
    # the incomplete gammas throughout; the end terms f(x)/2, log^q x/q and
    # f(K+x)/2 come from the first and last panels' logarithms
    for dps, x, n in _grid(range(1, 9)):
        with workdps(dps):
            got = _coffey_sum(n, x, K)
        assert _within_bound(got, lambda: coffey_sum_mpf(n, x, K), dps), (dps, x, n)


def _step_within(parts, lo, hi, ref, dps):
    """lattice_sum(parts)(lo, hi) at dps within 2^(-prec-3) of ref() at
    2 dps + 20."""
    with workdps(dps):
        got = lattice_sum(parts)(lo, hi)
        bound = lattice_err() / 8
    with workdps(2 * dps + 20):
        return abs(got - ref()) <= bound


def test_boundary_steps():
    # series_c's step (log^q(K+1) - log^q(K+x))/q and gamma_diff's
    # (log^q(K+y) - log^q(K+x))/q, each on (K, K+1), against the step in
    # mpf: within 2^(-prec-3), the bound of a lattice sum
    for dps, x, n in _grid():
        q = n + 1
        for k in (K, LONG_K):
            for y in (1, x + mpf("0.75"), mpf(2)):
                assert _step_within(_step_parts(q, x, y), k, k + 1,
                                    lambda: (log(k + y) ** q - log(k + x) ** q) / q, dps), \
                    (dps, x, y, n, k)


def test_telescoped_steps():
    # mangoldt_gap_sums' int_a^(N+1) log^n t / t = (log^q(N+1) - log^q a)/q,
    # the telescoped pair summed over (a, N+1): within 2^(-prec-3)
    for dps in DPS:
        for n in range(9):
            q = n + 1
            for a in (16, 1024):
                for N in (a, a + 1, 9973, 10 ** 6):
                    assert _step_within(_step_parts(q, 0, 1), a, N + 1,
                                        lambda: (log(N + 1) ** q - log(a) ** q) / q, dps), \
                        (dps, n, a, N)


@pytest.mark.parametrize("n", [1, 2])
def test_delta_takes_the_tails_own_ends(n):
    # delta_n = S_n(N-1) + F(1) + the tail of log^n t from N, its own ends
    # v(N)/2 and -F(N), F(u) = u sum_j (-1)^(n-j) n!/j! log^j u: against
    # delta's former form S_n(N) - (F(N) - F(1)) - log^n N/2 less the
    # corrections, in mpf, within tail_err()
    F = logpow_antiderivative_ref
    assert F(n, 1) == (-1) ** n * factorial(n)
    for dps in DPS:
        for N in (10, 97, 9973, 10 ** 4):
            for J in (4, 9, J_PLAN_MAX):
                with workdps(dps):
                    tail = em_tail_shifted([(1, 0, n, 0)], N, J).value
                    E = tail_err()
                with workdps(2 * dps + 20):
                    v = log(N) ** n
                    # v(N)/2 less the corrections
                    ends = em_tail_shifted_mpf([(1, 0, n, 0)], N, J, integral=False)[0]
                    former = v - (F(n, N) - F(n, 1)) - v / 2 + (ends - v / 2)
                    assert abs(F(n, 1) + tail - former) <= E, (dps, N, J)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_tiny_x_heads(n):
    # at x = 1e-20 the head f(x) is about 1e20 log^n x: the guard takes its
    # 1/x, so the whole sum stays within 2^-prec
    x = mpf("1e-20")
    for dps in DPS:
        with workdps(dps):
            c, d = lattice_sum(_series_c_parts(n, x))(0, K), _coffey_sum(n, x, K)
        assert _within_bound(c, lambda: series_c_mpf(n, x, K), dps), dps
        assert _within_bound(d, lambda: coffey_sum_mpf(n, x, K), dps), dps


def test_long_loops():
    x, n = mpf(XS[0]), 4
    with workdps(LONG_DPS):
        sums = {"series_b": lattice_sum(_series_b_parts(n, x))(0, LONG_K),
                "series_c": lattice_sum(_series_c_parts(n, x))(0, LONG_K),
                "coffey": _coffey_sum(n, x, LONG_K),
                "deriv0": lattice_sum(_deriv0_parts(n + 1, x))(1, LONG_K)}
    refs = {"series_b": lambda: series_b_mpf(n, x, LONG_K),
            "series_c": lambda: series_c_mpf(n, x, LONG_K),
            "coffey": lambda: coffey_sum_mpf(n, x, LONG_K),
            "deriv0": lambda: deriv0_mpf(n + 1, x, 1, LONG_K)}
    for name, got in sums.items():
        assert _within_bound(got, refs[name], LONG_DPS), name


@pytest.mark.parametrize("dps", DPS)
def test_incgamma_pair(dps):
    # at an exact t, Gamma(n, t) within (n-1)! 10 n^2 M^n units and
    # Gamma(n+1, t) within n! 10 (n+1)^2 M^(n+1)
    with workdps(dps):
        wp = mp.prec + 30
        for t in (mpf(0), mpf("0.3"), mpf(1), log(mpf(500))):
            T = to_fixed(t._mpf_, wp)
            M = 2 ** max(1, int(t) + 1).bit_length()
            for n in range(1, 10):
                got = _incgamma_pair(n, T, wp)
                with workdps(2 * dps + 20):
                    ref = [v * mpf(2) ** wp for v in incgamma_pair_mpf(n, ldexp(T, -wp))]
                    assert abs(got[0] - ref[0]) <= factorial(n - 1) * 10 * n * n * M ** n, (t, n)
                    assert (abs(got[1] - ref[1])
                            <= factorial(n) * 10 * (n + 1) ** 2 * M ** (n + 1)), (t, n)


def test_diff_terms():
    for dps, x, n in _grid():
        for y in (x + mpf("0.75"), mpf(2)):
            with workdps(dps):
                got = lattice_sum([(1, x, n, 1), (-1, y, n, 1)])(0, K)
            assert _within_bound(got, lambda: diff_mpf(n, x, y, K), dps), (dps, x, y, n)


def test_deriv0_summand():
    for dps, x, k in _grid(range(7)):
        q = k + 1
        with workdps(dps):
            v = lattice_sum(_deriv0_parts(q, x))
            got, one = v(1, K + 1), v(K, K + 1)
        assert _within_bound(got, lambda: deriv0_mpf(q, x, 1, K + 1), dps), (dps, x, k)
        assert _within_bound(one, lambda: deriv0_mpf(q, x, K, K + 1), dps), (dps, x, k)


def test_dilcher_summand():
    # dilcher_log_gamma_k takes x > -1
    for dps, x0, k in _grid(range(5)):
        for x in (x0, x0 - 1):
            with workdps(dps):
                got = lattice_sum(_dilcher_parts(k, x))(1, K + 1)
            assert _within_bound(got, lambda: dilcher_mpf(k, x, 1, K + 1), dps), (dps, x, k)


@pytest.mark.parametrize("x", ["500", "1e6"])
def test_dilcher_takes_two_logarithms_a_term(x, monkeypatch):
    # shifts 0 and x far apart keep two streams: at most two logarithms per
    # lattice term, the integer table's included, and no window spanning them;
    # every logarithm the kernel takes goes through fixed_log
    calls = []
    real = fixedpoint.fixed_log
    monkeypatch.setattr(fixedpoint, "fixed_log", lambda *a: calls.append(1) or real(*a))
    fixedpoint._INT_LOGS.clear()
    with workdps(DPS[1]):
        v = lattice_sum(_dilcher_parts(2, mpf(x)))
        v(1, K + 1)
        v(K, K + 1)
    assert 0 < len(calls) <= 2 * (K + 1)


def test_g_summand():
    for dps, x, _ in _grid(range(1)):
        for q in (2, 3):
            with workdps(dps):
                got = lattice_sum(_g_parts(q, x))(0, K)
            assert _within_bound(got, lambda: g_mpf(q, x, 0, K), dps), (dps, x, q)


def test_log_sum_of_products():
    # the sum of log u over a segment from the logarithms of exact
    # products: within 3M units per point
    with workdps(DPS[-1]):
        wp = mp.prec + 30
        for x in XS:
            us = [mpf(x) + j for j in range(300)]
            got = fixed_log_sum([u._mpf_ for u in us], wp)
            with workdps(2 * DPS[-1] + 20):
                ref = mp.fsum(log(u) for u in us) * mpf(2) ** wp
            assert abs(got - ref) <= 3 * len(us) * _m_pow(us, 1), x


# random parts lists: 1-4 parts (c, shift, m, p), m <= 9, p in {0, 1}, c an
# exact dyadic or +-1/q, the shift x or x + 1 formed exactly or an integer
# 0-2, x from 1e-20 to 1e6; the kernel against the same sum in mpf
_coeffs = st.one_of(
    st.builds(lambda man, e: mp.make_mpf(from_man_exp(man, e)),
              st.integers(-(1 << 80), 1 << 80), st.integers(-60, 20)),
    st.builds(lambda sign, q: Fraction(sign, q), st.sampled_from([1, -1]),
              st.integers(1, 9)))
_parts = st.lists(st.tuples(_coeffs, st.sampled_from(["x", "x+1", 0, 1, 2]),
                            st.integers(0, 9), st.sampled_from([0, 1])),
                  min_size=1, max_size=4)


def _shift(s, x):
    return {"x": x, "x+1": mp.fadd(x, 1, exact=True)}.get(s, s)


def _mpf_sum(parts, lo, hi):
    for k in range(lo, hi):
        for c, shift, m, p in parts:
            c = mpf(c.numerator) / c.denominator if type(c) is Fraction else c
            u = k + shift
            yield c * log(u) ** m / u ** p


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_parts, st.floats(-20, 6), st.integers(0, 3), st.integers(1, 12),
       st.sampled_from([15, 34, 50]))
@example([(mpf(2) ** 40, "x+1", 1, 0)], -20.0, 0, 3, 15)
@example([(Fraction(-1, 3), "x", 9, 0), (Fraction(1, 3), "x+1", 9, 0)], 6.0, 1, 12, 15)
def test_lattice_sum_random_parts(spec, e, lo, n, dps):
    x = mpf(10.0 ** e)
    parts = [(c, _shift(s, x), m, p) for c, s, m, p in spec]
    if lo == 0:  # every point must be > 0
        parts = [(c, sh, m, p) for c, sh, m, p in parts if sh != 0] or [(1, x, 0, 1)]
    with workdps(dps):
        got = lattice_sum(parts)(lo, lo + n)
    assert _within_bound(got, lambda: _mpf_sum(parts, lo, lo + n), dps)


def _route_parts(x):
    """The parts each route hands em_tail_shifted, and a summand mixing
    (m, p) = (0, 1) and (1, 0) at two shifts."""
    q = 3
    return [
        [(1, 0, 0, 1)], [(1, 0, 4, 1)], [(1, 0, 8, 1)],                 # gamma_n
        _deriv0_parts(q, x), _dilcher_parts(2, x), _g_parts(q, x),
        [(1, x, 0, 1), (-1, 1 + x, 1, 0), (1, x, 1, 0)],                # two shifts
        # rational inverse powers p = s, read exactly
        [(1, x, 0, mpf("-2.5"))], [(1, x, 0, mpf("2.1"))],              # hurwitz_em
        [(1, 0, 1, mpf("1.1"))], [(1, 0, 1, mpf(3))],                   # zeta_prime_int
    ]


def _tail_summands(x):
    """Summands beside the routes': one part each of m <= 9 at p 0, 1, 2
    and a rational s."""
    return [[(Fraction(1, 3), 0, m, p)] for m in (0, 5, 9)
            for p in (0, 1, 2, mpf("2.5"))] + [[(mpf("-0.75"), x, 9, mpf("-2.5"))]]


TAIL_STARTS = (2, mpf(32), 1000, 10 ** 6)


def _tail_within_bound(v, start, J, bound, integral, dps):
    """em_tail_shifted at dps against its mpf form at 2 dps + 20 digits
    plus the digits of the value's size (from start 2 at J = 64 the
    corrections, and so the value, pass 1e70): the value within tail_err(),
    the claim |omitted| + 2 tail_err() with |omitted| within tail_err() of
    the reference's, and the same order."""
    with workdps(dps):
        tail = em_tail_shifted(v, start, J, bound, integral=integral)
        value, err, got_J = tail.value, tail.abs_err, tail.terms_used
        E = tail_err()
    size = max(0, mp.mag(abs(value) + err)) * 0.302
    with workdps(2 * dps + 20 + int(size) + 1):
        ref, omitted, ref_J = em_tail_shifted_mpf(v, start, J, bound, integral)
        return (abs(value - ref) <= E and abs(err - 2 * E - omitted) <= E
                and got_J == ref_J)


def test_em_tail_shifted():
    # the routes' parts at 32 + x for every x of XS, and summands of m <= 9,
    # p in {0, 1, 2, s} from starts 2 to 1e6 (at one x: only the last
    # summand reads x), each with and without its integral, at J = 4, 9,
    # J_PLAN_MAX and with the order loop
    for dps in DPS:
        bound = mpf(10) ** -(dps // 2)
        for x in XS:
            x = mpf(x)
            cases = [(v, mpf(32) + x) for v in _route_parts(x)]
            if x == 500:
                cases += [(v, start) for v in _tail_summands(x) for start in TAIL_STARTS]
            for v, start in cases:
                for integral in (True, False):
                    for J in (4, 9, J_PLAN_MAX):
                        assert _tail_within_bound(v, start, J, None, integral, dps), \
                            (dps, x, v, start, J)
                    assert _tail_within_bound(v, start, 4, bound, integral, dps), \
                        (dps, x, v, start)


def test_horner_and_em_tail_error():
    # a row of _tail_rows at a point, by rule (8) with c = 1: within
    # 2^4 q 2 (A + 1) G M^q units of the row in mpf, A the row's weight
    for dps in DPS:
        with workdps(dps):
            for x in XS:
                u = (mpf(x) + 30)._mpf_
                wp = mp.prec + 40
                point = _TailPoint(u, wp, _log_ceil(u), 10, 1)
                for n in range(10):
                    rows = _tail_rows(n, 1)[0]
                    for j in (1, 5, DIRECT + 1, J_PLAN_MAX + 1):
                        row, A = rows[j]
                        got = point.term(row, 2 * j - 1, 1, 1)
                        q = n + 1
                        with workdps(2 * dps + 20 + 130):
                            U = mp.make_mpf(u)
                            N, D = row
                            ref = (mp.fsum(c * log(U) ** k for k, c in enumerate(N)) / D
                                   / U ** (2 * j) * mpf(2) ** wp)
                            assert abs(got - ref) <= 32 * q * (A + 1) * point.M ** q, (x, n, j)
                        if j > DIRECT:
                            # by rule (9), at 2^-2wp: within (2^10 q G M^q a +
                            # G u^-n + 2) 2^wp units, a = A u^-n, n = 2j - 1
                            got = point.fine_term(row, 2 * j - 1, 1, 1)
                            with workdps(2 * dps + 20 + 130):
                                a = A / U ** (2 * j - 1)
                                bound = (1024 * q * point.G * point.M ** q * a
                                         + point.G / U ** (2 * j - 1) + 2) * mpf(2) ** wp
                                assert abs(got - ref * mpf(2) ** wp) <= bound, (x, n, j)
            # below the certified start the d = 1 bound evaluates |g(a)| by
            # the fixed-point row; against the certificate in mpf
            for n, J in ((3, 4), (8, 9)):
                a = mpf(_certified_start(n, J, 1)) / 2
                got = em_tail_error(n, a, J, 0, 1, 3)
                E, rounding = tail_err(), mpf(2) ** (2 - mp.prec)
                with workdps(2 * dps + 20):
                    want = em_tail_error_mpf(n, a, J, 0, 1, 3)
                    assert want * (1 - rounding) <= got <= want * (1 + mpf(2) ** -60) + 3 * E


def test_certificate_table_matches_the_mpf_certificate():
    # random keys (n, a, J, d, p): the table's bound is at least the
    # certificate in mpf (at twice the digits), less the table's final
    # rounding, and at most it plus the table's 64-bit rounding and, for
    # d = 1, scale times tail_err()
    rng = random.Random(20190204)
    for _ in range(200):
        n, J, d = rng.randint(0, 8), rng.randint(4, J_PLAN_MAX), rng.choice((-1, 0, 1))
        p = rng.choice((1, 1, 2, mpf("2.5")))
        dps = rng.choice((15, 34, 50))
        with workdps(dps):
            t_J = _certified_start(n, J, d, exact_p(p))
            a = mpf(2) * mpf(max(1, t_J) ** rng.uniform(0, 1.2))
            omitted = mpf(10) ** rng.uniform(-40, -5)
            scale = mpf(rng.uniform(0.1, 4))
            got = em_tail_error(n, a, J, omitted, d, scale, p)
            E, rounding = tail_err(), mpf(2) ** (2 - mp.prec)
        with workdps(2 * dps + 20):
            want = em_tail_error_mpf(n, a, J, omitted, d, scale, p)
            assert want * (1 - rounding) <= got, (n, a, J, d, p)
            assert got <= (want * (1 + mpf(2) ** -60) + scale * E) * (1 + rounding), (n, a, J, d, p)


@pytest.mark.parametrize("dps", DPS)
def test_incgamma_pair_at_a_panel_end(dps):
    # coffey's pair at t = log b takes e^-t = 1/b by fixed_div: Gamma(n, t)
    # within (n-1)! 5 n^2 M^n units and Gamma(n+1, t) within n! 5 (n+1)^2
    # M^(n+1) of the pair at the exact t
    with workdps(dps):
        wp = mp.prec + 30
        for b in (mpf(1), mpf("1.3"), mpf("500.7"), mpf(10) ** 6 + mpf("0.3")):
            T, E = fixed_log(b._mpf_, wp), fixed_div(1 << wp, b._mpf_)
            M = 2 ** (int(log(b)) + 1).bit_length()
            for n in range(1, 10):
                got = _incgamma_pair(n, T, wp, E)
                with workdps(2 * dps + 20):
                    ref = [v * mpf(2) ** wp for v in incgamma_pair_mpf(n, log(b))]
                    assert abs(got[0] - ref[0]) <= factorial(n - 1) * 5 * n * n * M ** n, (b, n)
                    assert (abs(got[1] - ref[1])
                            <= factorial(n) * 5 * (n + 1) ** 2 * M ** (n + 1)), (b, n)


def _route_integrals(x, K):
    """(parts, old closed integral) of the routes whose probes formed it
    before the tail took it from its own logarithms."""
    q, k = 3, 2
    F = logpow_antiderivative_ref
    s = mpf("2.5")
    Km = mpf(K)
    return [
        (_deriv0_parts(q, x),
         -F(q, K + x) + (1 - x) * F(q, Km) + x * F(q, Km + 1)),
        (_dilcher_parts(k, x),
         -x * log(Km) ** (k + 1) / (k + 1) + (F(k + 1, K + x) - F(k + 1, Km)) / (k + 1)),
        (_g_parts(q, x),
         -F(q, K + x) + F(q, Km + 1) + (x - 1) * log(Km + 1) ** q),
        ([(1, x, 0, s)], (K + x) ** (1 - s) / (s - 1)),
        ([(1, 0, 1, s)], Km ** (1 - s) * (log(Km) / (s - 1) + (s - 1) ** -2)),
    ]


def test_closed_integrals_from_the_tails_own_logarithms():
    # each route's integral, as its probe formed it, equals the tail's own
    # within 2^-prec: two tails at one order, with and without it
    K = 32
    for dps in DPS:
        for x in XS:
            with workdps(dps):
                x = mpf(x)
                tails = [(em_tail_shifted(v, K, 4).value,
                          em_tail_shifted(v, K, 4, integral=False).value)
                         for v, _ in _route_integrals(x, K)]
                bound = lattice_err()
            with workdps(2 * dps + 20):
                for (with_it, without), (v, ref) in zip(tails, _route_integrals(x, K)):
                    assert abs(with_it - without - ref) <= bound, (dps, x, v)

"""The lattice partial sums run in fixed point: every log-polynomial route
on logpoly's one kernel, lattice_sum, over the parts list the route builds,
and coffey's panel defects on their own loop.  Each states a bound, 2^-prec
for a whole sum, and is checked here against its mpf form, written out
operator for operator as the loops read when they ran on mpf values,
evaluated at twice the working digits plus 20.  Grid: n = 0..8, x
log-uniform in [0.05, 8] plus 0.05 (coffey's a < 1 panel), 1, 500 and 1e6,
at the working precisions of tol 1e-12, 1e-20 and 1e-50; x = 1e-20 for
series_c and coffey, and K = 2048 at 1e-50.  Random parts lists check the
kernel against the same sum in mpf.  The Euler-Maclaurin correction loop
still runs on raw _mpf_ tuples through libmpf and must return, bit for bit,
what its mpf form returns."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import exp, ldexp, log, mp, mpf, workdps
from mpmath.libmp import from_man_exp, to_fixed, to_rational

import stieltjes.logpoly as logpoly
from oracles import LogPoint
from stieltjes.core import working_dps
from stieltjes.gamma import (_coffey_sum, _incgamma_pair, _series_b_parts,
                             _series_c_parts)
from stieltjes.logpoly import (INT_LOG_CAP, INT_LOG_GUARD, J_PLAN_MAX, LogPoly,
                               _certified_start, _horner, _log_polys,
                               _root_table, bernoulli_mpf, em_tail_error,
                               em_tail_shifted, fixed_log, fixed_log_ints,
                               fixed_log_sum, fixed_pow, lattice_err, lattice_sum)
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


def _bits(values):
    return [v if type(v) in (tuple, int) else v._mpf_ for v in values]


def _within_bound(got, ref_terms, dps):
    """|got - sum(ref_terms())| <= 2^-prec: the kernel sum at dps against
    its mpf form at 2 dps + 20 digits."""
    with workdps(dps):
        bound = lattice_err()
    with workdps(2 * dps + 20):
        gap = abs(got - mp.fsum(ref_terms()))
    return gap <= bound


def pow_step_mpf(la, a, b, q):
    delta = log(b / a)
    lb = la + delta
    s = p = 1
    for _ in range(q - 1):
        p *= la
        s = s * lb + p
    return delta * s


def incgamma_pair_mpf(n, t):
    term = total = mpf(1)
    for m in range(1, n):
        term = term * t / m
        total += term
    e = exp(-t)
    return (factorial(n - 1) * e * total,
            factorial(n) * e * (total + term * t / n))


def coffey_panels_mpf(n, x, K):
    q = n + 1
    a = x
    la = log(a)
    la_n = la ** n
    gammas_a = None
    for j in range(K):
        b = j + 1 + x
        lb = log(b)
        lb_n = lb ** n
        dlog = pow_step_mpf(la, a, b, q) / q
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


def series_b_mpf(n, x, K):
    f = LogPoly.single(1, n, 1)
    q = n + 1
    for k in range(K):
        a = LogPoint(k + x)
        yield a.eval(f) - pow_step_mpf(a.lu, a.u, mpf(k + 1) + x, q) / q


def series_c_mpf(n, x, K):
    f = LogPoly.single(1, n, 1)
    q = n + 1
    for k in range(K):
        yield f(k + x) - pow_step_mpf(log(k + 1), mpf(k + 1), mpf(k + 2), q) / q


def diff_mpf(n, x, y, K):
    f = LogPoly.single(1, n, 1)
    for k in range(K):
        yield f(k + x) - f(k + y)


def deriv0_mpf(q, x, lo, hi):
    for n in range(lo, hi):
        ln = log(n)
        yield pow_step_mpf(ln, n, n + x, q) - x * pow_step_mpf(ln, n, mpf(n + 1), q)


def dilcher_mpf(k, x, lo, hi):
    fk = LogPoly.single(1, k, 1)
    q = k + 1
    for j in range(lo, hi):
        a = LogPoint(mpf(j))
        yield x * a.eval(fk) - pow_step_mpf(a.lu, a.u, j + x, q) / q


def g_mpf(q, x, lo, hi):
    for k in range(lo, hi):
        a = LogPoint(mpf(k + 1))
        yield pow_step_mpf(a.lu, a.u, k + x, q) - q * (x - 1) * a.lu ** (q - 1) / a.u


def horner_mpf(P, L):
    s = mpf(0)
    for c in reversed(P):
        s = s * L + (c if type(c) is int else mp.fdiv(c.numerator, c.denominator))
    return s


def _exact(p):
    """An int p as it is, an mpf p as the rational it is."""
    if type(p) is int:
        return p
    num, den = to_rational(p._mpf_)
    return num if den == 1 else Fraction(num, den)


def em_tail_shifted_mpf(v, v_at_start, integral, start, J=4, bound=None):
    start = mpf(start)
    points = {}
    terms = []
    for c, sh, m, p in v:
        sh = mpf(sh)
        point = points.get(sh)
        if point is None:
            point = points[sh] = LogPoint(start + sh)
        c = mp.fdiv(c.numerator, c.denominator) if type(c) is Fraction else mpf(c)
        terms.append((c, point, _log_polys(m, _exact(p)), p))

    def at(i):
        total = mpf(0)
        for c, point, rows, p in terms:
            e = p + i if type(p) is int else mp.fadd(p, i, exact=True)
            total += c * (horner_mpf(rows[i], point.lu) / point._upow(e))
        return total

    def correction(j):
        return bernoulli_mpf(2 * j) / factorial(2 * j) * at(2 * j - 1)

    value = mpf(integral) + mpf(v_at_start) / 2
    for j in range(1, J + 1):
        value -= correction(j)
    omitted = correction(J + 1)
    if bound is not None:
        while not abs(omitted) < bound and J < J_PLAN_MAX:
            value -= omitted
            J += 1
            omitted = correction(J + 1)
    return value, abs(omitted), J


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
    # the incomplete gammas throughout
    for dps, x, n in _grid(range(1, 9)):
        with workdps(dps):
            got = _coffey_sum(n, x, K)
        assert _within_bound(got, lambda: coffey_panels_mpf(n, x, K), dps), (dps, x, n)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_tiny_x_heads(n):
    # at x = 1e-20 the head f(x) is about 1e20 log^n x: the guard takes its
    # 1/x, so the whole sum stays within 2^-prec
    x = mpf("1e-20")
    for dps in DPS:
        with workdps(dps):
            c, d = lattice_sum(_series_c_parts(n, x))(0, K), _coffey_sum(n, x, K)
        assert _within_bound(c, lambda: series_c_mpf(n, x, K), dps), dps
        assert _within_bound(d, lambda: coffey_panels_mpf(n, x, K), dps), dps


def test_long_loops():
    x, n = mpf(XS[0]), 4
    with workdps(LONG_DPS):
        sums = {"series_b": lattice_sum(_series_b_parts(n, x))(0, LONG_K),
                "series_c": lattice_sum(_series_c_parts(n, x))(0, LONG_K),
                "coffey": _coffey_sum(n, x, LONG_K),
                "deriv0": lattice_sum(_deriv0_parts(n + 1, x))(1, LONG_K)}
    refs = {"series_b": lambda: series_b_mpf(n, x, LONG_K),
            "series_c": lambda: series_c_mpf(n, x, LONG_K),
            "coffey": lambda: coffey_panels_mpf(n, x, LONG_K),
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
    # lattice term, the integer table's included, and no window spanning them
    calls = []
    real = logpoly.mpf_log
    monkeypatch.setattr(logpoly, "mpf_log", lambda *a: calls.append(1) or real(*a))
    logpoly._INT_LOGS.clear()
    with workdps(DPS[1]):
        v = lattice_sum(_dilcher_parts(2, mpf(x)))
        v(1, K + 1)
        v(K, K + 1)
    assert len(calls) <= 2 * (K + 1)


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


def test_em_tail_shifted():
    for dps in DPS:
        with workdps(dps):
            for x in XS:
                x = mpf(x)
                for v in _route_parts(x):
                    args = (v, mpf("0.125"), mpf("0.5"), mpf(32) + x)
                    for J in (4, J_PLAN_MAX):
                        got = em_tail_shifted(*args, J)
                        assert _bits(got) == _bits(em_tail_shifted_mpf(*args, J)), (dps, x, v, J)
                    bound = mpf(10) ** -(dps // 2)
                    got = em_tail_shifted(*args, bound=bound)
                    assert _bits(got) == _bits(em_tail_shifted_mpf(*args, bound=bound))


def test_horner_and_em_tail_error():
    for dps in DPS:
        with workdps(dps):
            for x in XS:
                L = log(mpf(x) + 30)
                for n in range(9):
                    for P in _log_polys(n, 1)[::7]:
                        assert _horner(P, L._mpf_, *mp._prec_rounding) == horner_mpf(P, L)._mpf_
            # below the certified start the d = 1 bound evaluates g(a) by
            # _horner; written out with the mpf Horner's rule
            for n, J in ((3, 4), (8, 9)):
                t_J = _certified_start(n, J, 1)
                a = mpf(t_J) / 2
                La = log(a)
                weight = 2 * abs(bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2))
                roots = 2 * sum(g for hi, g in _root_table(n, J, 1) if hi >= float(La))
                g_a = horner_mpf(_log_polys(n, 1)[2 * J + 2], La)
                want = 3 * weight * (abs(g_a) / a ** (2 * J + 3) + roots)
                assert em_tail_error(n, a, J, 0, 1, 3)._mpf_ == want._mpf_, (dps, n, J)

"""The lattice summand loops run on raw _mpf_ tuples through libmpf.  Each
must return, bit for bit, what its mpf form returns: that form is written
out here, operator for operator, as the loop read before it moved onto
tuples.  Grid: n = 0..8, x log-uniform in [0.05, 8] plus 0.05 (coffey's
a < 1 panel), 1 and 500, at the working precisions of tol 1e-12, 1e-20
and 1e-50."""

import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import exp, log, mp, mpf, workdps
from mpmath.libmp import to_rational

from oracles import LogPoint
from stieltjes.core import working_dps
from stieltjes.gamma import (_coffey_panels, _diff_terms, _incgamma_pair,
                             _series_b_terms, _series_c_terms)
from stieltjes.logpoly import (J_PLAN_MAX, LogPoly, _certified_start, _horner,
                               _log_polys, _root_table, bernoulli_mpf,
                               em_tail_error, em_tail_shifted, log_steps,
                               pow_step)
from stieltjes.related import _dilcher_summand
from stieltjes.verifier import _g_summand
from stieltjes.zeta import _deriv0_summand

_rng = random.Random(20190201)
XS = ([str(mpf(0.05) * mpf(160) ** _rng.random()) for _ in range(4)]
      + ["0.05", "1", "500"])
DPS = [working_dps(mpf(t)) for t in ("1e-12", "1e-20", "1e-50")]
K = 12


def _bits(values):
    return [v if type(v) in (tuple, int) else v._mpf_ for v in values]


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
        terms.append((mpf(c), point, _log_polys(m, _exact(p)), p))

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


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("q", range(1, 10))
def test_pow_step(dps, q):
    with workdps(dps):
        for x in XS:
            a = mpf(x)
            for b in (a + mpf("0.2546"), a + 1, 2 * a + 3, mpf(501)):
                assert pow_step(log(a), a, b, q)._mpf_ == pow_step_mpf(log(a), a, b, q)._mpf_
            # int ends enter exactly, as they do in mpf arithmetic
            assert pow_step(log(7), 7, a + 7, q)._mpf_ == pow_step_mpf(log(7), 7, a + 7, q)._mpf_


def test_series_b_terms():
    for dps, x, n in _grid():
        with workdps(dps):
            f = LogPoly.single(1, n, 1)
            q = n + 1
            want = []
            for k in range(K):
                a = LogPoint(k + x)
                want.append(a.eval(f) - pow_step_mpf(a.lu, a.u, mpf(k + 1) + x, q) / q)
            got = _series_b_terms(n, x, K, *mp._prec_rounding)
            assert _bits(got) == _bits(want), (dps, x, n)


def test_series_c_terms():
    for dps, x, n in _grid():
        with workdps(dps):
            f = LogPoly.single(1, n, 1)
            q = n + 1
            _, steps = log_steps(q, K)
            want = [f(k + x) - steps[k + 1] / q for k in range(K)]
            got = _series_c_terms(n, x, K, steps, *mp._prec_rounding)
            assert _bits(got) == _bits(want), (dps, x, n)


def test_coffey_panels():
    # x = 0.05 takes the direct defect at the first panel, every other x
    # the incomplete gammas throughout
    for dps, x, n in _grid(range(1, 9)):
        with workdps(dps):
            want = coffey_panels_mpf(n, x, K)
            got = _coffey_panels(n, x, K, *mp._prec_rounding)
            assert _bits(got) == _bits(want), (dps, x, n)


@pytest.mark.parametrize("dps", DPS)
def test_incgamma_pair(dps):
    with workdps(dps):
        for t in (mpf(0), mpf("0.3"), mpf(1), log(mpf(500))):
            for n in range(1, 10):
                got = _incgamma_pair(n, t._mpf_, *mp._prec_rounding)
                assert list(got) == _bits(incgamma_pair_mpf(n, t)), (t, n)


def test_diff_terms():
    for dps, x, n in _grid():
        with workdps(dps):
            f = LogPoly.single(1, n, 1)
            for y in (x + mpf("0.75"), mpf(2)):
                want = [f(k + x) - f(k + y) for k in range(K)]
                got = _diff_terms(n, x, y, K, *mp._prec_rounding)
                assert _bits(got) == _bits(want), (dps, x, y, n)


def test_deriv0_summand():
    for dps, x, k in _grid(range(7)):
        with workdps(dps):
            q = k + 1
            logs, steps = log_steps(q, K)
            for n in range(1, K + 1):
                want = pow_step_mpf(logs[n], n, n + x, q) - x * steps[n]
                got = _deriv0_summand(q, x, n, logs[n]._mpf_, steps[n]._mpf_,
                                      *mp._prec_rounding)
                assert got == want._mpf_, (dps, x, k, n)


def test_dilcher_summand():
    # dilcher_log_gamma_k takes x > -1
    for dps, x0, k in _grid(range(5)):
        for x in (x0, x0 - 1):
            with workdps(dps):
                fk = LogPoly.single(1, k, 1)
                q = k + 1
                for j in range(1, K + 1):
                    a = LogPoint(mpf(j))
                    want = x * a.eval(fk) - pow_step_mpf(a.lu, a.u, j + x, q) / q
                    got = _dilcher_summand(k, x, j, *mp._prec_rounding)
                    assert got == want._mpf_, (dps, x, k, j)


def test_g_summand():
    for dps, x, _ in _grid(range(1)):
        with workdps(dps):
            for q in (2, 3):
                for k in range(K):
                    a = LogPoint(mpf(k + 1))
                    want = (pow_step_mpf(a.lu, a.u, k + x, q)
                            - q * (x - 1) * a.lu ** (q - 1) / a.u)
                    got = _g_summand(q, x, k, *mp._prec_rounding)
                    assert got == want._mpf_, (dps, x, q, k)


def _route_parts(x):
    """The parts each route hands em_tail_shifted, and a summand mixing
    (m, p) = (0, 1) and (1, 0) at two shifts."""
    q = 3
    return [
        [(1, 0, 0, 1)], [(1, 0, 4, 1)], [(1, 0, 8, 1)],                 # gamma_n
        [(1, x, q, 0), (x - 1, 0, q, 0), (-x, 1, q, 0)],                # zeta_deriv0_diff
        [(x, 0, 2, 1), (-mpf(1) / q, x, q, 0), (mpf(1) / q, 0, q, 0)],  # dilcher
        [(1, x, q, 0), (-1, 1, q, 0), (-q * (x - 1), 1, q - 1, 1)],     # g-series
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

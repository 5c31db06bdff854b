"""Executable identity suite: every structural identity the library's series
rest on becomes a residual check with an explicit tolerance.

lemma31 takes Lemma 3.1's sum and integral step from the fixed-point kernel
and its end terms from mpmath, so a faulty kernel fails it.

Cross-representation checks (cotangent, vanishing_integrals, g_functions)
use the sum of the claimed error bounds as their tolerance, with no fixed
slack, so a failure indicts a claimed bound rather than merely a value.

The integrand checks sample each function once: gamma_n on [1, 2] and the
regular part of zeta^(k)(0, t) on [0, 1] become one Chebyshev model each
(quadrature.chebyshev_model), built from library values and their claims.
The gamma_n model is kept per (n, precision) and shared by
vanishing_integrals and zero_structure.

The g-series of g_functions is logpoly.em_series on its parts (_g_parts).
"""

from __future__ import annotations

import random
import time
from math import factorial

from mpmath import log, mp, mpf, pi, workdps

from .core import (GUARD_DIGITS, DomainError, PrecTable, SeriesValue, check_order,
                   comp_sum, find_root_bisect, rounding_floor)
from .gamma import gamma_n, stieltjes_const
from .fixedpoint import lattice_err, lattice_sum
from .logpoly import em_series, em_tail
from .quadrature import ChebyshevModel, chebyshev_model
from .related import digamma, _cot_pi
from .reporting import SubCheck, VerifyReport
from .zeta import zeta_deriv0_const, zeta_deriv0_diff

LEMMA_SEED = 20190201
# series tolerance of the values the checks compare and the models sample
CHECK_TOL = mpf("1e-12")


class UnknownCheckError(KeyError):
    """Requested a check id that is not in the registry."""


def check_lemma31(n: int, x, N: int) -> VerifyReport:
    """Lemma 3.1, the telescoping rewrite of log^q(N+x), q = n + 1:

        log^q(N+x) = log^q(1+x)
            - q int_N^(N+1) log^n(x+t)/(x+t) dt
            + sum_{k=1..N} [log^q(k+1+x) - log^q(k+x)]

    The sum and the step q int_N^(N+1) ... = log^q(N+1+x) - log^q(N+x) are
    the kernel's (_lemma31_kernel); the end terms log^q(N+x) and log^q(1+x)
    are mpmath's at 20 more digits, where the residual is assembled.  The
    tolerance is the claims: each kernel sum's 2^(-prec-3) and the
    reference's own error.
    """
    if type(n) is not int or n < 0:
        raise DomainError("check_lemma31: the order must be an int >= 0")
    if type(N) is not int or N < 1:
        raise DomainError("check_lemma31: N must be an int >= 1")
    x = mpf(x)
    if not 0 <= x < mp.inf:
        raise DomainError("check_lemma31: x must be finite and >= 0")
    t0 = time.perf_counter()
    q, prec = n + 1, mp.prec
    telescoped, step = _lemma31_kernel(q, x, N)
    with workdps(mp.dps + 20):
        lhs, first = (log(mp.fadd(x, k, exact=True)) ** q for k in (N, 1))
        residual = abs(lhs - (first - step + telescoped))
        # a log and its power within (q + 2) 2^(1-R) relatively at R =
        # mp.prec here, and three roundings within 2^-R of the summed sizes
        tolerance = mp.ldexp(1, -prec - 2) + (
            (abs(lhs) + abs(first) + abs(step) + abs(telescoped))
            * mp.ldexp(1, q.bit_length() + 4 - mp.prec))
    return VerifyReport.build(check_id="lemma31", inputs={"n": n, "x": str(x), "N": N},
                              residual=residual, tolerance=tolerance,
                              elapsed=time.perf_counter() - t0)


def _lemma31_kernel(q: int, x, N: int) -> tuple[mpf, mpf]:
    """(sum_{k=1..N} [log^q(k+1+x) - log^q(k+x)], log^q(N+1+x) - log^q(N+x))
    as lattice_sum of the telescoped pair (1, x + 1, q, 0), (-1, x, q, 0) on
    (1, N + 1) and (N, N + 1): the interior coefficients merge exactly, so
    each takes its two end points' logarithms only, and is within
    2^(-prec-3) (the proof above fixedpoint.LATTICE_GUARD)."""
    h = lattice_sum([(1, mp.fadd(x, 1, exact=True), q, 0), (-1, x, q, 0)])
    return h(1, N + 1), h(N, N + 1)


def check_cotangent(x) -> VerifyReport:
    """pi cot(pi x) against both the digamma reflection psi(1-x) - psi(x) and
    the partial-fraction sum 1/x + sum 2x/(x^2 - n^2).

    The partial-fraction tail pairs 1/(n+x) - 1/(n-x) into two lattice tails
    plus the boundary log((K-x)/(K+x)).
    """
    x = mpf(x)
    if not 0 < x < 1:
        raise DomainError("check_cotangent: need 0 < x < 1")
    t0 = time.perf_counter()
    with workdps(mp.dps + GUARD_DIGITS):
        target = pi * _cot_pi(x)

        da = digamma(1 - x, CHECK_TOL)
        db = digamma(x, CHECK_TOL)
        res_psi = abs(target - (da.value - db.value))
        tol_psi = da.abs_err + db.abs_err

        K = 64
        partial = 1 / x + comp_sum(2 * x / (x * x - n * n) for n in range(1, K))
        tp = em_tail(0, 1, K + x)
        tm = em_tail(0, 1, K - x)
        pf = partial + tp.value - tm.value + log((K - x) / (K + x))
        res_pf = abs(target - pf)
        tol_pf = tp.abs_err + tm.abs_err
    subs = [
        SubCheck("digamma_reflection", res_psi, tol_psi),
        SubCheck("partial_fractions", res_pf, tol_pf),
    ]
    return VerifyReport.from_subchecks(
        check_id="cotangent",
        inputs={"x": str(x)},
        subchecks=subs,
        elapsed=time.perf_counter() - t0,
        notes="both routes written with the pi and 2x factors the algebra forces",
    )


# order -> SeriesValue of int_0^1 zeta^(order)(0, t) dt
_UNIT_INTEGRAL_CACHE = PrecTable()
# n -> ChebyshevModel of gamma_n(n, t, "series_c", CHECK_TOL) on [1, 2]
_GAMMA_MODELS = PrecTable()


def _unit_deriv_integral(order: int) -> SeriesValue:
    """int_0^1 zeta^(order)(0, t) dt.

    zeta(s, t) = t^-s + zeta(s, t+1), so zeta^(order)(0, t) - (-log t)^order
    is zeta^(order)(0, t+1), analytic on [0, 1].  The model integrates that
    difference of library values, and int_0^1 (-log t)^order dt = order! is
    added back.  Computed once per (order, precision).
    """
    return _UNIT_INTEGRAL_CACHE.get(order, lambda: _unit_integral(order))


def _unit_integral(order: int) -> SeriesValue:
    const = zeta_deriv0_const(order, mpf("1e-14"))

    def regular(t):
        d = zeta_deriv0_diff(order - 1, t, CHECK_TOL)
        singular = (-log(t)) ** order
        return SeriesValue(d.value + const.value - singular,
                           d.abs_err + const.abs_err + rounding_floor(singular),
                           d.terms_used, d.method)

    q = chebyshev_model(regular, 0, 1).integral
    value = q.value + factorial(order)
    return SeriesValue(value, q.abs_err + rounding_floor(value), q.terms_used, q.method)


def _gamma_model(n: int) -> ChebyshevModel:
    """The shared Chebyshev model of gamma_n on [1, 2], built once per (n,
    precision)."""
    return _GAMMA_MODELS.get(n, lambda: chebyshev_model(
        lambda t: gamma_n(n, t, "series_c", CHECK_TOL), 1, 2))


def check_vanishing_integrals(n: int) -> VerifyReport:
    """Three integrals that must vanish: int_1^2 gamma_n, int_0^1 zeta'(0,x),
    int_0^1 zeta''(0,x)."""
    check_order(n, 3, "check_vanishing_integrals")
    t0 = time.perf_counter()
    q = _gamma_model(n).integral
    subs = [SubCheck("gamma_over_unit_interval", abs(q.value), q.abs_err)]
    u1 = _unit_deriv_integral(1)
    subs.append(SubCheck("zeta_prime0_over_unit", abs(u1.value), u1.abs_err))
    u2 = _unit_deriv_integral(2)
    subs.append(SubCheck("zeta_second0_over_unit", abs(u2.value), u2.abs_err))
    return VerifyReport.from_subchecks(
        check_id="vanishing_integrals",
        inputs={"n": n},
        subchecks=subs,
        elapsed=time.perf_counter() - t0,
    )


# the zero of digamma to 12 decimals, so within half a unit in the last
# decimal of the true zero, held in 53 bits; ALPHA_DIGAMMA_ZERO_ERR bounds its
# distance from the true zero: that half unit, plus a 53-bit ulp of a value
# in [1, 2) for the binary rounding of the literal and of the half unit
ALPHA_DIGAMMA_ZERO = mpf("1.461632144968", prec=53)
ALPHA_DIGAMMA_ZERO_ERR = mpf("5e-13") + mpf(2) ** -52
ROOT_STEP = mpf("1e-11")
# points of the grid on [1, 2] whose sign changes _gamma_roots bisects
ROOT_GRID = 256
# ROOT_GRID -> the grid points 1 + i/(ROOT_GRID - 1)
_ROOT_GRIDS = PrecTable()


def _root_grid() -> tuple[mpf, ...]:
    """The ROOT_GRID points 1 + i/(ROOT_GRID - 1) on [1, 2], built once per
    precision."""
    return _ROOT_GRIDS.get(ROOT_GRID, lambda: tuple(
        1 + mpf(i) / (ROOT_GRID - 1) for i in range(ROOT_GRID)))


def _gamma_roots(n: int) -> list[mpf]:
    """Roots of gamma_n on [1, 2]: sign changes of the model on a grid of
    ROOT_GRID points, bisected to ROOT_STEP.  Every sign is read by
    ChebyshevModel.sign, so it is the mpf model's, and every midpoint and
    root is that of bisection on the mpf model.  A root r counts only when
    the library values at r - ROOT_STEP and r + ROOT_STEP have opposite
    signs and each exceeds its claimed error in magnitude."""
    model = _gamma_model(n)
    pts = _root_grid()
    signs = [model.sign(t) > 0 for t in pts]
    roots = []
    for i in range(ROOT_GRID - 1):
        if signs[i] == signs[i + 1]:
            continue
        r = find_root_bisect(model.sign, pts[i], pts[i + 1], ROOT_STEP)
        lo, hi = (gamma_n(n, r + s, "series_c", CHECK_TOL)
                  for s in (-ROOT_STEP, ROOT_STEP))
        if ((lo.value > 0) != (hi.value > 0) and abs(lo.value) > lo.abs_err
                and abs(hi.value) > hi.abs_err):
            roots.append(r)
    return roots


def check_zero_structure(n: int) -> VerifyReport:
    """Sign changes of gamma_n on [1, 2]: at least one for n = 0 (located and
    compared against the digamma zero), at least two for n >= 1."""
    check_order(n, 3, "check_zero_structure")
    t0 = time.perf_counter()
    roots = _gamma_roots(n)
    notes = "sign changes at ~" + ", ".join(mp.nstr(r, 12) for r in roots)
    if n == 0 and roots:
        r = roots[0]
        residual = abs(r - ALPHA_DIGAMMA_ZERO)
        # the zero lies between the library points r -+ ROOT_STEP, each
        # rounded at most by the rounding floor
        tolerance = ROOT_STEP + rounding_floor(r + ROOT_STEP) + ALPHA_DIGAMMA_ZERO_ERR
    elif n == 0:
        residual, tolerance = mpf(1), mpf(0)
    else:
        residual = mpf(max(0, 2 - len(roots)))
        tolerance = mpf(0)
    return VerifyReport.build(
        check_id="zero_structure",
        inputs={"n": n},
        residual=residual,
        tolerance=tolerance,
        elapsed=time.perf_counter() - t0,
        notes=notes,
    )


def _g_series(q: int, x, tol) -> tuple[mpf, mpf]:
    """sum_{n>=0} [log^q(n+x) - log^q(n+1) - q(x-1) log^(q-1)(n+1)/(n+1)]
    with its lattice tail and claimed error; the series route to the g
    functions.

    With G = log^q, the summand is G(t+x) - G(t+1) - (x-1) G'(t+1) =
    (x-1)^2 G[t+1, t+1, t+x], so its m-th derivative is q (x-1)^2/2 times a
    weighted mean of f^(m+1), f = log^(q-1) t / t, over [t + min(1, x),
    t + max(1, x)]: em_series' order loop on the certified remainder of
    em_tail_error's key d = 1, read from a = K + min(1, x).  The ladder
    starts at 64 terms, so a 1e-12 check stays as sharp as the values it
    compares.  The remainder is certified, so the claim adds only the
    rounding floor of the partial sum and the tail, and the partial sum's
    2^-prec.
    """
    _, partial, tail = em_series(_g_parts(q, x), 0, 64, tol / 4,
                                 (q - 1, min(1, x), 1, q * (x - 1) ** 2 / 2))
    return (partial + tail.value,
            tail.abs_err + rounding_floor(abs(partial) + abs(tail.value)) + lattice_err())


def _g_parts(q: int, x) -> list:
    """The g-series summand log^q(k+x) - log^q(k+1) - q(x-1) log^(q-1)(k+1)/(k+1)
    as the parts its lattice sum and its tail read, q(x - 1) formed
    exactly."""
    return [(1, x, q, 0), (-1, 1, q, 0),
            (mp.fmul(-q, mp.fsub(x, 1, exact=True), exact=True), 1, q - 1, 1)]


def check_g_functions(x) -> VerifyReport:
    """The integrated zeta'(2, x) and zeta''(2, x) antiderivatives two ways:
    once from zeta-derivative closed forms, once from their direct series.

        g1 = [zeta''(0,x) - zeta''(0)]/2 - (x-1) gamma_1 - [log Gamma(x) + (x-1) gamma]
        g2 = -[zeta'''(0,x) - zeta'''(0)]/3 - (x-1) gamma_2 - 2 g1

    The bracket of g1 and the 2 g1 of g2 enter both routes alike, so each
    residual compares the remaining terms only.
    """
    x = mpf(x)
    if not x > 0:
        raise DomainError("check_g_functions: need x > 0")
    t0 = time.perf_counter()
    with workdps(mp.dps + GUARD_DIGITS):
        g1c = stieltjes_const(1, CHECK_TOL)
        g2c = stieltjes_const(2, CHECK_TOL)
        zd1 = zeta_deriv0_diff(1, x, CHECK_TOL)
        g1_closed = zd1.value / 2 - (x - 1) * g1c.value
        s1, e1 = _g_series(2, x, CHECK_TOL)
        res1 = abs(g1_closed - s1 / 2)
        tol1 = zd1.abs_err / 2 + abs(x - 1) * g1c.abs_err + e1 / 2

        zd2 = zeta_deriv0_diff(2, x, CHECK_TOL)
        g2_closed = -zd2.value / 3 - (x - 1) * g2c.value
        s2, e2 = _g_series(3, x, CHECK_TOL)
        res2 = abs(g2_closed - s2 / 3)
        tol2 = zd2.abs_err / 3 + abs(x - 1) * g2c.abs_err + e2 / 3
    subs = [SubCheck("g1_routes", res1, tol1), SubCheck("g2_routes", res2, tol2)]
    return VerifyReport.from_subchecks(
        check_id="g_functions",
        inputs={"x": str(x)},
        subchecks=subs,
        elapsed=time.perf_counter() - t0,
    )


def _lemma31_grid() -> list[VerifyReport]:
    rng = random.Random(LEMMA_SEED)
    reports = [
        check_lemma31(0, mpf(0), 1),
        check_lemma31(3, pi, 100),
        check_lemma31(1, mpf(0), 1000),
        # N past what a term-by-term sum could afford
        check_lemma31(8, mpf(10) ** 5, 10 ** 6),
        check_lemma31(8, mpf("0.5"), 10 ** 6),
        check_lemma31(0, mpf("3.25"), 10 ** 8),
    ]
    for _ in range(50):
        n = rng.randint(0, 5)
        x = mpf(rng.uniform(0.0, 10.0))
        N = rng.randint(1, 1000)
        reports.append(check_lemma31(n, x, N))
    return reports


# check id -> its default grid
CHECKS = {
    "lemma31": _lemma31_grid,
    "cotangent": lambda: [check_cotangent(mpf(a) / b)
                          for a, b in ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3))],
    "vanishing_integrals": lambda: [check_vanishing_integrals(n) for n in (1, 2, 3)],
    "zero_structure": lambda: [check_zero_structure(n) for n in (0, 1, 2, 3)],
    "g_functions": lambda: [check_g_functions(x) for x in (mpf(1) / 2, mpf(1), mpf(2))],
}


def run_suite(selection) -> list[VerifyReport]:
    """Run the selected checks over their default grids.

    selection is an iterable of check ids (or the string "all"); report order
    is canonical (sorted by check id, then inputs) regardless of execution
    order.
    """
    if selection == "all":
        ids = sorted(CHECKS)
    else:
        ids = sorted(set(selection))
        unknown = [i for i in ids if i not in CHECKS]
        if unknown:
            raise UnknownCheckError(f"unknown check ids: {', '.join(unknown)}")
    reports: list[VerifyReport] = []
    for cid in ids:
        reports.extend(CHECKS[cid]())
    reports.sort(key=lambda r: r.sort_key())
    return reports

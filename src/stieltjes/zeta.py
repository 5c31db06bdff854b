"""Hurwitz and Riemann zeta values on the real line, their s-derivatives at
s = 0 expressed as differences against x = 1, and zeta'(s) for s > 1.

Two independent routes to zeta(s, x) are provided:

* hurwitz_em: truncated power sum plus integral and Bernoulli endpoint
  corrections,
      zeta(s,x) = sum_{k<N} (k+x)^-s + (N+x)^(1-s)/(s-1) + (N+x)^-s / 2
                  + sum_j B_2j/(2j)! (s)_(2j-1) (N+x)^(-s-2j+1) + R,
  with j <= J, for real s > -11; the workhorse and in-package reference.
  The tail is logpoly's em_tail_shifted on (t + x)^-s, a log-polynomial
  term with the rational inverse power s, and its order loop plans J.

* hurwitz_hasse: the globally convergent double sum
      zeta(s,x) = 1/(s-1) sum_n 1/(n+1) sum_k C(n,k) (-1)^k (k+x)^(1-s),
  run past a direct head sum at a start sized from tol.  Its inner sums are
  forward differences from one streamed difference triangle, whose next
  diagonal bounds the tail; roundoff grows like 2^n, so the precision is
  fixed from the term budget, past which the routine raises.  It uses no
  Bernoulli number, so it stays independent of hurwitz_em.

The derivative differences zeta^(k+1)(0,x) - zeta^(k+1)(0) come from the
logarithmic series

    (-1)^(k+1) [zeta^(k+1)(0,x) - zeta^(k+1)(0)]
        = log^(k+1) x
          + sum_{n>=1} [log^(k+1)(n+x) - log^(k+1) n
                        - x (log^(k+1)(n+1) - log^(k+1) n)]

accelerated by Euler-Maclaurin corrections: logpoly.em_series on its parts
(_deriv0_parts).  zeta'(s) sums log k / k^s with the same tail engine,
certified by the key p = s.  No Bernoulli table, order loop, certificate or
fixed-point loop lives here.
"""

from __future__ import annotations

import math

from mpmath import floor, log, mp, mpf, pi, workdps

from .core import (ConvergenceError, DomainError, SeriesValue, check_order, comp_sum,
                   default_tol, head_guard, log_abs, rounding_floor, tail_claim,
                   tol_digits, working_dps)
from .fixedpoint import lattice_err
from .logpoly import em_series, em_start_for, em_tail_shifted, ladder_start

POLE_EXCLUSION = mpf("1e-6")
# hurwitz_em's domain is s > HURWITZ_EM_S_MIN; there the least certified
# order is at most 5
HURWITZ_EM_S_MIN = -11
# hurwitz_hasse's outer terms per digit of tol (its budget adds 16, and 2 per unit of 1 - s)
HASSE_TERMS_PER_DIGIT = 4


def _head_guard(s, x, tol, dps: int) -> int:
    """core.head_guard for the largest term of a zeta(s, x) sum: x^-s, or
    where x > 1 the boundary term x^(1-s), the size of the head sum at
    s < 1.  Where it is modest (x >= 1 with s >= 1, x >= 0.05 with
    0 < s <= 4.5, or x <= 8 with s >= -2.5) the guard is 0."""
    lx = log_abs(x) / math.log(10)
    return head_guard(float(-s) * lx + max(lx, 0), tol, dps, "zeta(s, x)")


def _validate_x(x) -> mpf:
    x = mpf(x)
    if not 0 < x < mp.inf:
        raise DomainError("the shift x must be finite and > 0")
    return x


def hurwitz_em(s, x, tol=None) -> SeriesValue:
    """zeta(s, x) by power sum plus Euler-Maclaurin corrections.

    The tail sum_{k>=N} (k+x)^-s is em_tail_shifted's on the part
    (1, x, 0, s), v(t) = (t+x)^-s, whose v^(m) = (-1)^m (s)_m (t+x)^(-s-m).
    From the least order J_min >= 4 with s + 2J + 1 > 0, v^(2J+1) vanishes
    at infinity and (s)_(2J+2), (s)_(2J+4) share a sign, so the first
    omitted correction bounds the remainder at every N (em_tail_error's
    theta-bound) and the tail takes no key.  At each rung the order rises
    from J_min until that correction is below tol/2; the tail takes v(N)
    and the integral (N+x)^(1-s)/(s-1) from its own (N+x)^(1-s).  A large
    head, x^-s or x^(1-s), adds guard digits (_head_guard), so its rounding
    floor stays a small share of tol.
    """
    s = mpf(s)
    x = _validate_x(x)
    if s == 1:
        raise DomainError("hurwitz_em: pole at s = 1")
    if not HURWITZ_EM_S_MIN < s < mp.inf:
        raise DomainError(f"hurwitz_em: needs a finite s > {HURWITZ_EM_S_MIN}")
    tol = default_tol() if tol is None else mpf(tol)
    dps = working_dps(tol)
    with workdps(dps + _head_guard(s, x, tol, dps)):
        J_min = max(4, int(floor((-s - 1) / 2)) + 1)
        # the ladder starts 14 terms past |s|, where the corrections decay fast
        N, tail = em_start_for(lambda N: em_tail_shifted([(1, x, 0, s)], N, J_min, tol / 2),
                               tol / 2, max(8, int(abs(s)) + 14))
        terms = [(k + x) ** (-s) for k in range(N)]
        total = comp_sum(terms) + tail.value
        # for s < 0 the power sum dwarfs the result; dust scales with it
        boundary = (N + x) ** (1 - s) / (s - 1)
        scale = max(abs(terms[-1]), abs(boundary), abs(total))
        return SeriesValue(total, tail.abs_err + 4 * rounding_floor(scale), N, "em",
                           tail.order)


def hurwitz_hasse(s, x, tol=None) -> SeriesValue:
    """zeta(s, x) by the binomial double sum at y = x + m, after a head
    sum_{k<m} (x+k)^-s with m sized from tol and s.

    I_n(t) = sum_k (-1)^k C(n,k) (t+k)^(1-s) keeps one sign for n > 1 - s,
    so the tail after N outer terms is at most |I_N(y-1)|/(N+1).  Row n of
    one difference triangle on y - 1 + n ends in I_{n-1}(y), the term, and
    I_n(y-1), the certificate, each within r_n = 2^n (n+1) u F, F the largest
    |(y-1+k)^(1-s)|.  The pass stops once tail plus rounding is below
    |s-1| tol/2, at a budget and precision fixed from tol and s, plus the
    guard digits of a large head, x^-s or x^(1-s) (_head_guard).
    """
    s = mpf(s)
    x = _validate_x(x)
    if not POLE_EXCLUSION < abs(s - 1) < mp.inf:
        raise DomainError("hurwitz_hasse: s must be finite and outside the pole exclusion of 1")
    tol = default_tol() if tol is None else mpf(tol)
    p, digits = mp.fsub(1, s, exact=True), tol_digits(tol)
    # the certificate needs N > p, and 1/Gamma(s-1) slows the tail as p
    # grows: the start and the budget move 2 per unit of p
    lift = 2 * max(0, int(p))
    n_max = HASSE_TERMS_PER_DIGIT * digits + 16 + lift
    m = max(0, int(mp.ceil(mpf(3 * digits + 2) / 2 + lift - x)))
    # the triangle's rounding grows like 2^n F, and F <= (x + m + n_max)^p
    pad = int(0.302 * n_max) + 2 + int(max(p, 0) * mp.log10(x + m + n_max))
    dps = working_dps(tol) + pad
    with workdps(dps + _head_guard(s, x, tol, dps)):
        head = comp_sum(mp.fadd(x, k, exact=True) ** (-s) for k in range(m))
        u = mpf(2) ** (1 - mp.prec)
        prev, terms, F = [], [], mpf(0)
        for n in range(n_max + 1):
            row = [mp.fadd(x, m - 1 + n, exact=True) ** p]
            for j in range(n):
                row.append(prev[j] - row[j])
            F = max(F, abs(row[0]))
            if n:
                terms.append(row[-2] / n)
            if n > max(p, 0):
                r = 2 ** n * (n + 1) * u * F
                tail = (abs(row[-1]) + r) / (n + 1) + 2 * r
                if tail < abs(p) * tol / 2:
                    hasse = comp_sum(terms) / (s - 1)
                    return SeriesValue(head + hasse,
                                       tail / abs(p) + rounding_floor(abs(head) + abs(hasse)),
                                       m + n + 1, "hasse")
            prev = row
    raise ConvergenceError(
        f"hurwitz_hasse: tol {tol} not certified in {n_max} outer terms")


def zeta_deriv0_diff(k: int, x, tol=None) -> SeriesValue:
    """zeta^(k+1)(0, x) - zeta^(k+1)(0) from the logarithmic series.

    em_series' order loop raises the Euler-Maclaurin order at each rung.
    The summand is a second difference of g = log^q t, so its
    corrections are about scale = q |x(x-1)|/2 times those of
    f = log^k t / t, and its remainder is certified by the key (k, K, 1,
    scale) of em_tail_error: scale times the total variation of f^(2J+2) on
    [K, inf), or the first omitted correction past the certified start of
    J.
    """
    check_order(k, 6, "zeta_deriv0_diff")
    x = _validate_x(x)
    tol = default_tol() if tol is None else mpf(tol)
    q = k + 1
    with workdps(working_dps(tol) + 8):
        K, v, tail = em_series(_deriv0_parts(q, x), 1, ladder_start(tol), tol / 4,
                               (k, 0, 1, q * abs(x * (x - 1)) / 2))
        partial = log(x) ** q + v
        value = (-1) ** (k + 1) * (partial + tail.value)
        # the partial sum and the tail can be far larger than their
        # difference, and their rounding, not the value's, sets the floor
        return SeriesValue(value, tail_claim(tail.abs_err, abs(partial) + abs(tail.value))
                           + lattice_err(), K, "log_series", tail.order)


def _deriv0_parts(q: int, x) -> list:
    """The summand log^q(n+x) - log^q n - x (log^q(n+1) - log^q n) as the
    parts its lattice sum and its tail read, x - 1 and -x formed exactly."""
    return [(1, x, q, 0), (mp.fsub(x, 1, exact=True), 0, q, 0),
            (mp.fneg(x, exact=True), 1, q, 0)]


def zeta_deriv0_const(n: int, tol=None) -> SeriesValue:
    """zeta^(n)(0) for n <= 2.

    zeta(0) = -1/2; zeta'(0) = -log(2 pi)/2; zeta''(0) is assembled from the
    Stieltjes constants: gamma_1 + gamma^2/2 - pi^2/24 - log^2(2 pi)/2.
    """
    tol = default_tol() if tol is None else mpf(tol)
    if n == 0:
        return SeriesValue(mpf(-1) / 2, mpf(0), 1, "closed_form")
    if n == 1:
        value = -log(2 * pi) / 2
        return SeriesValue(value, rounding_floor(value), 1, "closed_form")
    if n == 2:
        from .gamma import stieltjes_const  # lazy: gamma imports this module
        g0 = stieltjes_const(0, tol / 8)
        g1 = stieltjes_const(1, tol / 8)
        with workdps(working_dps(tol)):
            value = (g1.value + g0.value ** 2 / 2 - pi ** 2 / 24
                     - log(2 * pi) ** 2 / 2)
            err = g1.abs_err + abs(g0.value) * 2 * g0.abs_err + rounding_floor(value)
        return SeriesValue(value, err, g0.terms_used + g1.terms_used, "closed_form")
    raise DomainError("zeta_deriv0_const: only n <= 2 has a provided constant")


def zeta_prime_int(s, tol=None) -> SeriesValue:
    """zeta'(s) = -sum_{k>=2} log k / k^s for s > 1, tail-accelerated.

    The tail sum_{k>=K} log k / k^s is em_tail_shifted's on the part
    (1, 0, 1, s), with its own closed integral K^(1-s) [log K/(s-1) +
    1/(s-1)^2].  At each rung the order rises from 4 until the claim is
    below tol/2, certified by em_tail_error's key (1, K, 0, 1, s) for
    f = log t / t^s: the first omitted correction past the certified start,
    below it twice that plus the variation at the one root of f^(2J+2).
    """
    s = mpf(s)
    if not 1 < s < mp.inf:
        raise DomainError("zeta_prime_int: needs a finite s > 1")
    tol = default_tol() if tol is None else mpf(tol)
    with workdps(working_dps(tol)):
        K, tail = em_start_for(
            lambda K: em_tail_shifted([(1, 0, 1, s)], K, 4, tol / 2, (1, K, 0, 1, s)),
            tol / 2, 8, factor=2)
        partial = comp_sum(log(k) * k ** (-s) for k in range(2, K))
        value = -(partial + tail.value)
        return SeriesValue(value, tail_claim(tail.abs_err, value), K, "log_series",
                           tail.order)

"""Generalized Stieltjes constants gamma_n(x) via four representations, their
difference and recurrence laws, the closed form at rational arguments, and the
alternating series for gamma_1.

The two production series share the summand f(u) = log^n u / u:

  series_b (shift-telescoped):
      gamma_n(x) = -log^(n+1) x/(n+1)
                   + sum_{k>=0} [f(k+x)
                        - (log^(n+1)(k+1+x) - log^(n+1)(k+x))/(n+1)]

  series_c (x only in the leading term):
      gamma_n(x) = sum_{k>=0} [f(k+x)
                        - (log^(n+1)(k+2) - log^(n+1)(k+1))/(n+1)]

Both tails reduce exactly to the Euler-Maclaurin lattice sum of f at K+x;
series_c carries the extra boundary piece
(log^(n+1)(K+1) - log^(n+1)(K+x))/(n+1).

The trapezoid-defect representation ("coffey") rewrites each panel defect with
integer-order incomplete gamma functions, using log^n u/u = Gamma(n+1, log u)
- n Gamma(n, log u); its tail telescopes to the same lattice sum minus half
the first summand.  Both orders come from one running sum of t^m/m!
(_incgamma_pair), and at every panel end t = log b, so their factor e^-t is
1/b exactly: coffey takes one logarithm per panel and no exponential.

All four lattice sums (the three routes and gamma_diff) take their
partial-sum length K and Euler-Maclaurin order J from _lattice_plan: the
ladder starts at logpoly.ladder_start(tol), 8 terms at 12 digits to 128 at
200 (series_c at 3/2 of it, so that its tail starts at a different K from
series_b's), at each rung logpoly.em_tail raises J from 4 with the digits
asked for, and every tail's abs_err is em_tail's certified remainder bound,
at every K and J.

Three partial sums are fixedpoint.lattice_sum over the route's summand as a
parts list: series_b's (_series_b_parts), series_c's (_series_c_parts) and
gamma_diff's f(k+x) - f(k+y), each within 2^(-prec-3) of the exact sum by
the kernel's one proof.  The single boundary steps, series_c's (log^q(K+1)
- log^q(K+x))/q and gamma_diff's (log^q(K+y) - log^q(K+x))/q, are
lattice_sum's too, over the telescoped pair on the one range (K, K+1),
within 2^(-prec-3) each.  coffey's panel defect is not a log-polynomial, so
_coffey_sum keeps its own fixed-point loop on the same rules, and takes
the end terms f(x)/2, log^q x/q and f(K+x)/2 from the logarithms of its
first and last panels, within 2^-prec in all.  Each claim adds 2^-prec
(fixedpoint.lattice_err), which holds a partial sum and its boundary step
together, to the tail's and the rounding floor.  series_b, series_c and
coffey add the guard digits of their largest term, |log^(n+1) x|/x at a
tiny x (_head_dps, core.head_guard), and gamma_diff those of its own, at
min(x, y).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from mpmath import cospi, log, mp, mpf, pi, sinpi, workdps
from mpmath.libmp import (fhalf, fone, from_int, from_man_exp, mpf_add, mpf_exp,
                          mpf_ge, to_fixed)

from .core import (DomainError, PrecTable, SeriesValue, accelerate_alternating,
                   check_order, cvz_terms, default_tol, head_guard, log_abs,
                   rounding_floor, tail_claim, working_dps)
from .fixedpoint import (fixed_div, fixed_log, fixed_mul, fixed_pow, from_fixed,
                         lattice_err, lattice_sum, lattice_wp)
from .logpoly import em_start_for, em_tail, ladder_start
from .reporting import VerifyReport
from .zeta import zeta_deriv0_const, zeta_deriv0_diff, zeta_prime_int, hurwitz_em

MAX_ORDER = 8
SERIES_B_MIN_X = mpf("1e-6")

METHODS = ("series_b", "series_c", "coffey")


@dataclass(frozen=True)
class RationalArg:
    """Reduced proper fraction 0 < p/q < 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (0 < self.p < self.q):
            raise DomainError("RationalArg: need 0 < p < q")
        if gcd(self.p, self.q) != 1:
            raise DomainError("RationalArg: fraction must be reduced")

    def as_mpf(self) -> mpf:
        return mpf(self.p) / self.q


def _validate(n: int, x) -> mpf:
    check_order(n, MAX_ORDER, "gamma_n")
    x = mpf(x)
    if not 0 < x < mp.inf:
        raise DomainError("gamma_n: x must be finite and > 0")
    return x


def gamma_n(n: int, x, method: str = "series_b", tol=None) -> SeriesValue:
    """gamma_n(x) by the chosen representation.

    coffey at n = 0 delegates to series_b, since the order-0 incomplete gamma
    would be the exponential integral.
    """
    x = _validate(n, x)
    if method not in METHODS:
        raise DomainError(f"gamma_n: unknown method {method!r}")
    tol = default_tol() if tol is None else mpf(tol)
    if method == "series_b":
        if x < SERIES_B_MIN_X:
            raise DomainError(
                "gamma_n: series_b rejects x < 1e-6 (log^(n+1) x cancellation); "
                "use series_c")
        return _gamma_series_b(n, x, tol)
    if method == "series_c":
        return _gamma_series_c(n, x, tol)
    if n == 0:
        return _gamma_series_b(n, x, tol)
    return _gamma_coffey(n, x, tol)


def _lattice_plan(n: int, x, tol, staggered: bool = False) -> tuple[int, SeriesValue]:
    """(K, tail) for the lattice sum of f = log^n t / t from K + x: the first
    rung K of em_start_for's ladder from ladder_start(tol), or from 3/2 of it
    where staggered, whose em_tail, its order raised at most to J_PLAN_MAX,
    is certified below tol/4, and that rung's tail."""
    start = ladder_start(tol)
    if staggered:
        start += start // 2
    return em_start_for(lambda K: em_tail(n, 1, K + x, 4, tol / 4), tol / 4, start)


def _head_dps(n: int, x, tol) -> int:
    """working_dps(tol) plus the guard digits (core.head_guard) of a gamma_n
    route's largest term at x, about |log^(n+1) x|/x where x is tiny."""
    dps = working_dps(tol)
    lx = log_abs(x)
    size = ((n + 1) * math.log10(abs(lx)) if lx else -math.inf) - lx / math.log(10)
    return dps + head_guard(size, tol, dps, "gamma_n")


def _gamma_series_b(n: int, x, tol) -> SeriesValue:
    q = n + 1
    with workdps(_head_dps(n, x, tol)):
        K, tail = _lattice_plan(n, x, tol)
        partial = lattice_sum(_series_b_parts(n, x))(0, K)
        value = -log(x) ** q / q + partial + tail.value
        return SeriesValue(value, tail_claim(tail.abs_err, value) + lattice_err(),
                           K, "series_b", tail.order)


def _series_b_parts(n: int, x) -> list:
    """series_b's summand f(k+x) - (log^q(k+1+x) - log^q(k+x))/q, q = n + 1,
    as lattice_sum's parts, x + 1 formed exactly."""
    q = n + 1
    return [(1, x, n, 1), (Fraction(-1, q), mp.fadd(x, 1, exact=True), q, 0),
            (Fraction(1, q), x, q, 0)]


def _gamma_series_c(n: int, x, tol) -> SeriesValue:
    q = n + 1
    with workdps(_head_dps(n, x, tol)):
        # ladder staggered from series_b's so that route agreement compares
        # tail corrections at distinct points, not just the partial-sum algebra
        K, tail = _lattice_plan(n, x, tol, staggered=True)
        partial = lattice_sum(_series_c_parts(n, x))(0, K)
        # the boundary piece (log^q(K+1) - log^q(K+x))/q, within 2^(-prec-3)
        # as the partial sum is: lattice_err() holds both
        value = partial + tail.value + lattice_sum(_step_parts(q, x, 1))(K, K + 1)
        return SeriesValue(value, tail_claim(tail.abs_err, value) + lattice_err(),
                           K, "series_c", tail.order)


def _series_c_parts(n: int, x) -> list:
    """series_c's summand f(k+x) - (log^q(k+2) - log^q(k+1))/q, q = n + 1,
    as lattice_sum's parts."""
    q = n + 1
    return [(1, x, n, 1), (Fraction(-1, q), 2, q, 0), (Fraction(1, q), 1, q, 0)]


def _step_parts(q: int, a, b) -> list:
    """(log^q(k+b) - log^q(k+a))/q as lattice_sum's parts: on (K, K+1) the
    one step at K, on (lo, hi) with b = a + 1 the telescoped
    (log^q(hi-1+b) - log^q(lo+a))/q.  The kernel merges the interior
    coefficients exactly, so only the two end points take a logarithm."""
    return [(Fraction(1, q), b, q, 0), (Fraction(-1, q), a, q, 0)]


def incgamma_int(n: int, t) -> mpf:
    """Gamma(n, t) = (n-1)! e^-t sum_{m<n} t^m/m! for integer n >= 1, t >= 0,
    by _incgamma_pair at _incgamma_wp(n, t): within 2^-prec of its value,
    relative, before the one rounding to prec."""
    if n < 1:
        raise DomainError("incgamma_int: order 0 would be the exponential integral")
    t = mpf(t)
    if t < 0:
        raise DomainError("incgamma_int: t must be >= 0")
    wp = _incgamma_wp(n, t)
    G = _incgamma_pair(n, to_fixed(t._mpf_, wp), wp)[0]
    return mp.make_mpf(from_man_exp(G, -wp, *mp._prec_rounding))


def _incgamma_wp(n: int, t) -> int:
    """Working bits of incgamma_int: the pair's fixed-point error, at most
    (n-1)! 10 n^2 M^n units with M >= max(1, t) (below), is below 2^-prec
    times Gamma(n, t) >= (n-1)! e^-t."""
    M = max(1, int(t) + 1)
    return (mp.prec + 2 * n.bit_length() + n * M.bit_length()
            + int(float(t) * 1.4426950408889634) + 5)


def _incgamma_pair(n: int, T: int, wp: int, E: int | None = None) -> tuple[int, int]:
    """(Gamma(n, t), Gamma(n+1, t)) in fixed point at wp, t = T 2^-wp >= 0,
    from one forward running sum of the terms t^m/m!, term = term t / m:
    Gamma(n, t) takes the prefix through m = n-1 and Gamma(n+1, t) one term
    more, each times E = e^-t, mpf_exp's at wp unless the caller gives it.

    With t within 3M units of its value and t <= M, M >= 1 (a fixed log, or
    an exact t), the term t^m/m! is within 5 m M^m units (rule (2) of
    fixedpoint, the division by m only shrinking it), and the sum of
    the n terms, at most n M^(n-1), within 3 n^2 M^n.  mpf_exp's e^-t <= 1
    is within 6M (3M from t, 3 from mpf_exp and the floor), so Gamma(n, t)
    is within (n-1)! 10 n^2 M^n units and Gamma(n+1, t) within n! 10
    (n+1)^2 M^(n+1); coffey's E = 1/b at t = log b is within 1 unit, which
    halves both: (n-1)! 5 n^2 M^n and n! 5 (n+1)^2 M^(n+1)."""
    term = total = 1 << wp
    for m in range(1, n):
        term = (term * T >> wp) // m
        total += term
    last = (term * T >> wp) // n
    if E is None:
        E = to_fixed(mpf_exp(from_man_exp(-T, -wp), wp), wp)
    return (factorial(n - 1) * (E * total >> wp),
            factorial(n) * (E * (total + last) >> wp))


def _gamma_coffey(n: int, x, tol) -> SeriesValue:
    """Trapezoid-defect form with the incomplete-gamma panel rewrite:

        gamma_n(x) = f(x)/2 - log^(n+1) x/(n+1) + sum_{j>=0} D_j

    Panel defect over [j, j+1], a = j+x, b = j+1+x:
        D_j = (log^n b - log^n a) - (log^(n+1) b - log^(n+1) a)/(n+1)
              - (a + 1/2) (n dGn - dGn1),
    dGq = Gamma(q, log a) - Gamma(q, log b).  Panels with a < 1 fall back to
    the algebraically identical direct defect (f(a)+f(b))/2 - integral, since
    the incomplete gammas would need negative second argument.  Gamma(n, t)
    and Gamma(n+1, t) at each panel end share one running sum of t^m/m!,
    and log b and both gammas carry into the next panel.
    """
    with workdps(_head_dps(n, x, tol)):
        K, tail = _lattice_plan(n, x, tol)
        value = _coffey_sum(n, x, K) + tail.value
        return SeriesValue(value, tail_claim(tail.abs_err, value) + lattice_err(),
                           K, "coffey", tail.order)


def _coffey_sum(n: int, x, K: int) -> mpf:
    """f(x)/2 - log^(n+1) x/(n+1) + sum_{j<K} D_j - f(K+x)/2, f = log^n t / t:
    the sum of the panel defects D_j and coffey's three end terms, in fixed
    point (fixedpoint's rules; the defect is not a log-polynomial, so not
    lattice_sum).

    Panel j's b = j + 1 + x is panel j+1's a, so log b, log^n b, log^q b
    and the incomplete gammas at log b carry into the next panel, and the
    step log^q b - log^q a is a difference of carried powers.  The
    incomplete gammas start afresh at the first panel with a >= 1.  Their
    e^-t is at t = log b, so it is 1/b exactly, taken by fixed_div (rule
    (4)): the route takes no exponential.

    Per panel with a >= 1: the log powers are within 5 q M^q units each
    (rule (2)), so the step over q within 10 M^q + 1, and n dG_n - dG_(n+1),
    from _incgamma_pair's bounds at E = 1/b, within 20 n! q^2 M^q, which the
    weight a + 1/2 <= K + x + 1 multiplies (rule (5)); a panel with a < 1
    divides its log powers by a >= x (rule (4)).  The end terms take the
    first panel's log^n x and log^q x and the last panel's log^n(K+x):
    f(x)/2 and f(K+x)/2 by rule (4) and a halving, each within 5 q M^q s +
    2, and log^q x/q within 5 M^q + 1.  Each of these K + 3 terms is at most
    2^7 q^2 M^q s with s = (K + x + 1) n! max(1, 1/x), so lattice_wp, which
    counts them all, holds the sum within 2^-prec.
    """
    q = n + 1
    wp = lattice_wp(K + 3, q, sum(x._mpf_[2:]), sum((K + x)._mpf_[2:]),
                    int(mp.ceil((K + x + 1) * factorial(n) * max(1, 1 / x))))
    one = 1 << wp
    xv = x._mpf_
    a = xv
    La = fixed_log(a, wp)
    Pa = fixed_pow(La, n, wp)
    Qa = Pa * La >> wp
    gammas_a = None
    S = fixed_div(Pa, a) // 2 - Qa // q  # f(x)/2 - log^q x/q
    for j in range(1, K + 1):
        b = mpf_add(xv, from_int(j))
        Lb = fixed_log(b, wp)
        Pb = fixed_pow(Lb, n, wp)
        Qb = Pb * Lb >> wp
        dlog = (Qb - Qa) // q
        if mpf_ge(a, fone):
            if gammas_a is None:
                gammas_a = _incgamma_pair(n, La, wp, fixed_div(one, a))
            gammas_b = _incgamma_pair(n, Lb, wp, fixed_div(one, b))
            dG = n * (gammas_a[0] - gammas_b[0]) - (gammas_a[1] - gammas_b[1])
            S += Pb - Pa - dlog - fixed_mul(dG, mpf_add(a, fhalf))
            gammas_a = gammas_b
        else:
            S += (fixed_div(Pa, a) + fixed_div(Pb, b)) // 2 - dlog
        a, La, Pa, Qa = b, Lb, Pb, Qb
    return from_fixed(S - fixed_div(Pa, a) // 2, wp)  # less f(K+x)/2


def gamma_diff(n: int, x, y, tol=None) -> SeriesValue:
    """gamma_n(x) - gamma_n(y) = sum_{k>=0} [f(k+x) - f(k+y)].

    The difference decays one order faster than either series alone.  Where
    m = min(x, y) < 1/e, its largest term |f(m)| is below _head_dps' size
    |log^(n+1) m|/m, whose guard digits it takes.
    """
    x = _validate(n, x)
    y = _validate(n, y)
    tol = default_tol() if tol is None else mpf(tol)
    if x == y:
        return SeriesValue(mpf(0), mpf(0), 1, "difference")
    q = n + 1
    with workdps(_head_dps(n, min(x, y), tol)):
        K, tail = _lattice_plan(n, min(x, y), tol)
        partial = lattice_sum([(1, x, n, 1), (-1, y, n, 1)])(0, K)
        other = em_tail(n, 1, K + max(x, y), tail.order)
        tx, ty = (tail, other) if x < y else (other, tail)
        # (log^q(K+y) - log^q(K+x))/q, within 2^(-prec-3) as the partial sum
        # is: lattice_err() holds both
        boundary = lattice_sum(_step_parts(q, x, y))(K, K + 1)
        value = partial + tx.value - ty.value + boundary
        err = tail_claim(tx.abs_err + ty.abs_err, value) + lattice_err()
        return SeriesValue(value, err, K, "difference", tail.order)


def gamma_recurrence_check(n: int, x, tol=None) -> VerifyReport:
    """Residual of gamma_n(1+x) - gamma_n(x) = -log^n x / x, both sides from
    series_b."""
    x = _validate(n, x)
    tol = default_tol() if tol is None else mpf(tol)
    t0 = time.perf_counter()
    lhs_hi = gamma_n(n, 1 + x, "series_b", tol)
    lhs_lo = gamma_n(n, x, "series_b", tol)
    with workdps(working_dps(tol)):
        rhs = -log(x) ** n / x
        residual = abs((lhs_hi.value - lhs_lo.value) - rhs)
    tolerance = lhs_hi.abs_err + lhs_lo.abs_err + 2 * tol
    return VerifyReport.build(
        check_id="gamma_recurrence",
        inputs={"n": n, "x": str(x)},
        residual=residual,
        tolerance=tolerance,
        elapsed=time.perf_counter() - t0,
    )


def gamma1_rational(r: RationalArg, tol=None) -> SeriesValue:
    """gamma_1(p/q) in closed form:

        gamma_1 + [gamma + log(2 pi q)][gamma + psi(p/q)]
        + sum_{j<q} cos(2 pi j p/q) zeta''(0, j/q)
        + pi sum_{j<q} sin(2 pi j p/q) log Gamma(j/q)
        + log^2 q / 2 + log q log(2 pi)

    zeta''(0, j/q) routes through the s = 0 derivative series plus zeta''(0)
    to stay independent of gamma_1 values at rationals.
    """
    if not isinstance(r, RationalArg):
        r = RationalArg(*r)
    tol = default_tol() if tol is None else mpf(tol)
    from .related import digamma, log_gamma
    p, q = r.p, r.q
    part = tol / (6 * q)
    g0 = gamma_n(0, 1, "series_b", part)
    g1 = gamma_n(1, 1, "series_b", part)
    zpp0 = zeta_deriv0_const(2, part)
    psi_pq = digamma(r.as_mpf(), part)
    with workdps(working_dps(tol)):
        err = g1.abs_err
        value = g1.value
        coeff = g0.value + log(2 * pi * q)
        value += coeff * (g0.value + psi_pq.value)
        err += abs(coeff) * (g0.abs_err + psi_pq.abs_err) \
            + abs(g0.value + psi_pq.value) * g0.abs_err
        terms = g1.terms_used
        for j in range(1, q):
            c = cospi(mpf(2 * j * p) / q)
            s = sinpi(mpf(2 * j * p) / q)
            if c:
                zd = zeta_deriv0_diff(1, mpf(j) / q, part)
                value += c * (zd.value + zpp0.value)
                err += abs(c) * (zd.abs_err + zpp0.abs_err)
                terms += zd.terms_used
            if s:
                lg = log_gamma(mpf(j) / q, part)
                value += pi * s * lg.value
                err += pi * abs(s) * lg.abs_err
                terms += lg.terms_used
        value += log(q) ** 2 / 2 + log(q) * log(2 * pi)
        return SeriesValue(value, err + rounding_floor(value), terms, "rational_closed_form")


def _harmonic_prefix(H: list, n: int) -> mpf:
    """Extend H = [H_0, H_1, ...] through H_n and return H_n."""
    while len(H) <= n:
        H.append(H[-1] + mpf(1) / len(H))
    return H[n]


# (n, inner_tol) -> (zeta(n+1), zeta'(n+1)) of _gamma1_bracket, per working
# precision
_BRACKETS = PrecTable()


def _gamma1_bracket(n: int, H: list, inner_tol) -> tuple[mpf, mpf]:
    """a_n = [H_n zeta(n+1) + zeta'(n+1)]/(n+1), the n-th coefficient of the
    alternating gamma_1 series, and b_n = [H_n zeta(n+1) - zeta'(n+1)]/(n+1);
    H caches the harmonic numbers.  zeta'(n+1) < 0, so b_n bounds |a_n|, and
    b_n does not increase (H_n/(n+1) and zeta(n+1) do not, and |zeta'(n+1)|
    falls).

    The bracket a_n is positive for every n >= 1; a sign failure would
    indicate a zeta' defect, so it aborts loudly.

    zeta(n+1) and zeta'(n+1) do not depend on x, so gamma1_alt and
    dilcher_power_series share them through _BRACKETS.
    """
    zetas = _BRACKETS.at_prec()
    key = (n, inner_tol)
    pair = zetas.get(key)
    if pair is None:
        pair = zetas[key] = (hurwitz_em(n + 1, 1, inner_tol).value,
                             zeta_prime_int(n + 1, inner_tol).value)
    z, zp = pair
    hz = _harmonic_prefix(H, n) * z
    val = (hz + zp) / (n + 1)
    if not val > 0:
        raise ArithmeticError(
            f"gamma1_alt: bracket H_n zeta + zeta' not positive at n={n}; "
            "this indicates a zeta' defect")
    return val, (hz - zp) / (n + 1)


def gamma1_alt(tol=None) -> SeriesValue:
    """gamma_1 = sum_{n>=1} (-1)^n/(n+1) [H_n zeta(n+1) + zeta'(n+1)],
    summed by alternating-series acceleration."""
    tol = default_tol() if tol is None else mpf(tol)
    with workdps(working_dps(tol)):
        K = cvz_terms(tol)
        inner_tol = tol / (1000 * K)
        H = [mpf(0)]
        acc = accelerate_alternating(lambda k: _gamma1_bracket(k + 1, H, inner_tol)[0], K)
        value = -acc.value
        # the combination weights sum to K/sqrt(2); each bracket carries up to
        # (H_K + 2) * inner_tol of claimed error
        propagated = K * mp.sqrt(2) / 2 * (_harmonic_prefix(H, K + 1) + 2) * inner_tol
        return SeriesValue(value, acc.abs_err + propagated + rounding_floor(value),
                           acc.terms_used, "alternating")


def stieltjes_integral(n: int, u, tol=None) -> SeriesValue:
    """int_1^u gamma_n(x) dx = (-1)^(n+1)/(n+1) [zeta^(n+1)(0,u) - zeta^(n+1)(0)]."""
    check_order(n, 6, "stieltjes_integral")
    zd = zeta_deriv0_diff(n, u, tol)
    sign = mpf((-1) ** (n + 1)) / (n + 1)
    return SeriesValue(sign * zd.value, zd.abs_err / (n + 1), zd.terms_used,
                       "antiderivative", zd.order)

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
(_incgamma_pair).

All four lattice sums (the three routes and gamma_diff) take their
partial-sum length K and Euler-Maclaurin order J from _lattice_plan: at each
rung, logpoly.em_tail raises J from 4 with the digits asked for, and every
tail's abs_err is em_tail's certified remainder bound, at every K and J.
Every log-power difference is logpoly.pow_step, and series_c reads its
x-free steps from logpoly.log_steps, the table zeta_deriv0_diff shares.

The four partial sums are generators of raw _mpf_ tuples (_series_b_terms,
_series_c_terms, _coffey_panels with _incgamma_pair, _diff_terms), fed to
comp_sum.  They call mpmath.libmp at the call's mp._prec_rounding, and each
step is the call the mpf operator makes, in the same order: mpf*int is
mpf_mul_int; mpf+-int and mpf/int are from_int, then mpf_add, mpf_sub or
mpf_div; **int is mpf_pow_int; log and exp are mpf_log and mpf_exp.  So
every term has the bits of the mpf loop it replaced, and every value and
abs_err is unchanged; what is saved is the operators' type dispatch and
object allocation around those calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial, gcd

from mpmath import cospi, log, mp, mpf, pi, sinpi, workdps
from mpmath.libmp import (fhalf, fone, from_int, mpf_add, mpf_div, mpf_exp,
                          mpf_ge, mpf_log, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pow_int, mpf_sub)

from .core import (DomainError, SeriesValue, accelerate_alternating,
                   comp_sum, cvz_terms, default_tol, rounding_floor, tail_claim,
                   working_dps)
from .logpoly import (LogPoly, _f_at, _pow_step, em_start_for, em_tail,
                      log_steps, pow_step)
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
    if not 0 <= n <= MAX_ORDER:
        raise DomainError(f"gamma_n: order must be 0..{MAX_ORDER}")
    x = mpf(x)
    if not x > 0:
        raise DomainError("gamma_n: x must be > 0")
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


def _lattice_plan(n: int, x, tol, start: int) -> tuple[int, SeriesValue]:
    """(K, tail) for the lattice sum of f = log^n t / t from K + x: the first
    rung K of em_start_for's ladder whose em_tail, its order raised at most
    to J_PLAN_MAX, is certified below tol/4, and that rung's tail."""
    f = LogPoly.single(1, n, 1)
    bound = tol / 4

    def probe(K):
        tail = em_tail(f, K + x, 4, bound)
        return tail, tail.abs_err

    K, tail, _ = em_start_for(probe, bound, start)
    return K, tail


def _gamma_series_b(n: int, x, tol) -> SeriesValue:
    q = n + 1
    with workdps(working_dps(tol)):
        K, tail = _lattice_plan(n, x, tol, 32)
        partial = comp_sum(_series_b_terms(n, x, K, *mp._prec_rounding))
        value = -log(x) ** q / q + partial + tail.value
        return SeriesValue(value, tail_claim(tail.abs_err, value), K, "series_b")


def _series_b_terms(n: int, x, K: int, prec: int, rnd):
    """The _mpf_ terms f(k+x) - (log^q(k+1+x) - log^q(k+x))/q, k < K."""
    q = n + 1
    xv, qv = x._mpf_, from_int(q)
    for k in range(K):
        u = mpf_add(xv, from_int(k), prec, rnd)
        lu = mpf_log(u, prec, rnd)
        b = mpf_add(from_int(k + 1, prec, rnd), xv, prec, rnd)
        yield mpf_sub(_f_at(lu, u, n, prec, rnd),
                      mpf_div(_pow_step(lu, u, b, q, prec, rnd), qv, prec, rnd),
                      prec, rnd)


def _gamma_series_c(n: int, x, tol) -> SeriesValue:
    q = n + 1
    with workdps(working_dps(tol)):
        # ladder offset from series_b so that route agreement compares tail
        # corrections at distinct points, not just the partial-sum algebra
        K, tail = _lattice_plan(n, x, tol, 48)
        _, steps = log_steps(q, K)
        partial = comp_sum(_series_c_terms(n, x, K, steps, *mp._prec_rounding))
        value = partial + tail.value + pow_step(log(K + x), K + x, mpf(K + 1), q) / q
        return SeriesValue(value, tail_claim(tail.abs_err, value), K, "series_c")


def _series_c_terms(n: int, x, K: int, steps, prec: int, rnd):
    """The _mpf_ terms f(k+x) - steps[k+1]/q, k < K, for the x-free steps
    log^q(k+2) - log^q(k+1) of log_steps."""
    xv, qv = x._mpf_, from_int(n + 1)
    for k in range(K):
        u = mpf_add(xv, from_int(k), prec, rnd)
        yield mpf_sub(_f_at(mpf_log(u, prec, rnd), u, n, prec, rnd),
                      mpf_div(steps[k + 1]._mpf_, qv, prec, rnd), prec, rnd)


def incgamma_int(n: int, t) -> mpf:
    """Gamma(n, t) = (n-1)! e^-t sum_{m<n} t^m/m! for integer n >= 1, t >= 0."""
    if n < 1:
        raise DomainError("incgamma_int: order 0 would be the exponential integral")
    t = mpf(t)
    if t < 0:
        raise DomainError("incgamma_int: t must be >= 0")
    return mp.make_mpf(_incgamma_pair(n, t._mpf_, *mp._prec_rounding)[0])


def _incgamma_pair(n: int, t, prec: int, rnd) -> tuple[tuple, tuple]:
    """(Gamma(n, t), Gamma(n+1, t)) on the _mpf_ tuple t, rounded at (prec,
    rnd), from one forward running sum of the terms t^m/m!, term = term *
    t / m: Gamma(n, t) takes the prefix through m = n-1 and Gamma(n+1, t)
    one term more.  Every term is >= 0 for t >= 0, so the plain sum is
    within about 2n ulps.  Gamma(n+1, t) has the bits of
    incgamma_int(n+1, t)."""
    term = total = fone
    for m in range(1, n):
        term = mpf_div(mpf_mul(term, t, prec, rnd), from_int(m), prec, rnd)
        total = mpf_add(total, term, prec, rnd)
    e = mpf_exp(mpf_neg(t, prec, rnd), prec, rnd)
    last = mpf_div(mpf_mul(term, t, prec, rnd), from_int(n), prec, rnd)
    return (mpf_mul(mpf_mul_int(e, factorial(n - 1), prec, rnd), total, prec, rnd),
            mpf_mul(mpf_mul_int(e, factorial(n), prec, rnd),
                    mpf_add(total, last, prec, rnd), prec, rnd))


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
    q = n + 1
    with workdps(working_dps(tol)):
        f = LogPoly.single(1, n, 1)
        K, tail = _lattice_plan(n, x, tol, 32)
        fx = f(x)
        partial = comp_sum(_coffey_panels(n, x, K, *mp._prec_rounding))
        value = (fx - log(x) ** q / q - fx / 2
                 + partial + tail.value - f(K + x) / 2)
        return SeriesValue(value, tail_claim(tail.abs_err, value), K, "coffey")


def _coffey_panels(n: int, x, K: int, prec: int, rnd):
    """The panel defects D_j for j = 0..K-1, in order, as _mpf_ tuples.

    Panel j's b = j + 1 + x has the bits of panel j+1's a, so log b, log^n b
    and the incomplete gammas at log b carry into the next panel.  The
    incomplete gammas start afresh at the first panel with a >= 1.
    """
    q = n + 1
    qv, two = from_int(q), from_int(2)
    a = x._mpf_
    la = mpf_log(a, prec, rnd)
    la_n = mpf_pow_int(la, n, prec, rnd)
    gammas_a = None
    for j in range(K):
        b = mpf_add(x._mpf_, from_int(j + 1), prec, rnd)
        lb = mpf_log(b, prec, rnd)
        lb_n = mpf_pow_int(lb, n, prec, rnd)
        dlog = mpf_div(_pow_step(la, a, b, q, prec, rnd), qv, prec, rnd)
        if mpf_ge(a, fone):
            if gammas_a is None:
                gammas_a = _incgamma_pair(n, la, prec, rnd)
            gammas_b = _incgamma_pair(n, lb, prec, rnd)
            dGn = mpf_sub(gammas_a[0], gammas_b[0], prec, rnd)
            dGn1 = mpf_sub(gammas_a[1], gammas_b[1], prec, rnd)
            weight = mpf_mul(mpf_add(a, fhalf, prec, rnd),
                             mpf_sub(mpf_mul_int(dGn, n, prec, rnd), dGn1, prec, rnd),
                             prec, rnd)
            yield mpf_sub(mpf_sub(mpf_sub(lb_n, la_n, prec, rnd), dlog, prec, rnd),
                          weight, prec, rnd)
            gammas_a = gammas_b
        else:
            ends = mpf_add(mpf_div(la_n, a, prec, rnd), mpf_div(lb_n, b, prec, rnd),
                           prec, rnd)
            yield mpf_sub(mpf_div(ends, two, prec, rnd), dlog, prec, rnd)
        a, la, la_n = b, lb, lb_n


def gamma_diff(n: int, x, y, tol=None) -> SeriesValue:
    """gamma_n(x) - gamma_n(y) = sum_{k>=0} [f(k+x) - f(k+y)].

    The difference decays one order faster than either series alone.
    """
    x = _validate(n, x)
    y = _validate(n, y)
    tol = default_tol() if tol is None else mpf(tol)
    if x == y:
        return SeriesValue(mpf(0), mpf(0), 1, "difference")
    q = n + 1
    with workdps(working_dps(tol)):
        K, tail = _lattice_plan(n, min(x, y), tol, 32)
        partial = comp_sum(_diff_terms(n, x, y, K, *mp._prec_rounding))
        other = em_tail(LogPoly.single(1, n, 1), K + max(x, y), tail.terms_used)
        tx, ty = (tail, other) if x < y else (other, tail)
        boundary = -pow_step(log(K + y), K + y, K + x, q) / q
        value = partial + tx.value - ty.value + boundary
        err = tail_claim(tx.abs_err + ty.abs_err, value)
        return SeriesValue(value, err, K, "difference")


def _diff_terms(n: int, x, y, K: int, prec: int, rnd):
    """The _mpf_ terms f(k+x) - f(k+y), k < K."""
    xv, yv = x._mpf_, y._mpf_
    for k in range(K):
        u = mpf_add(xv, from_int(k), prec, rnd)
        w = mpf_add(yv, from_int(k), prec, rnd)
        yield mpf_sub(_f_at(mpf_log(u, prec, rnd), u, n, prec, rnd),
                      _f_at(mpf_log(w, prec, rnd), w, n, prec, rnd), prec, rnd)


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


def _gamma1_bracket(n: int, H: list, inner_tol) -> tuple[mpf, mpf]:
    """a_n = [H_n zeta(n+1) + zeta'(n+1)]/(n+1), the n-th coefficient of the
    alternating gamma_1 series, and b_n = [H_n zeta(n+1) - zeta'(n+1)]/(n+1);
    H caches the harmonic numbers.  zeta'(n+1) < 0, so b_n bounds |a_n|, and
    b_n does not increase (H_n/(n+1) and zeta(n+1) do not, and |zeta'(n+1)|
    falls).

    The bracket a_n is positive for every n >= 1; a sign failure would
    indicate a zeta' defect, so it aborts loudly.
    """
    z = hurwitz_em(n + 1, 1, inner_tol)
    zp = zeta_prime_int(n + 1, inner_tol)
    hz = _harmonic_prefix(H, n) * z.value
    val = (hz + zp.value) / (n + 1)
    if not val > 0:
        raise ArithmeticError(
            f"gamma1_alt: bracket H_n zeta + zeta' not positive at n={n}; "
            "this indicates a zeta' defect")
    return val, (hz - zp.value) / (n + 1)


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
    if not 0 <= n <= 6:
        raise DomainError("stieltjes_integral: need 0 <= n <= 6")
    u = mpf(u)
    if not u > 0:
        raise DomainError("stieltjes_integral: u must be > 0")
    tol = default_tol() if tol is None else mpf(tol)
    zd = zeta_deriv0_diff(n, u, tol)
    sign = mpf((-1) ** (n + 1)) / (n + 1)
    return SeriesValue(sign * zd.value, zd.abs_err / (n + 1), zd.terms_used,
                       "antiderivative")

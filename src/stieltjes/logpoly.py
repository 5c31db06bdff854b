"""Log-polynomial calculus and the Euler-Maclaurin tail engine.

A LogPoly is a finite sum of terms c * log(t)^m / t^p with m, p >= 0.  The
family is closed under differentiation:

    d/dt [log^m t / t^p] = m log^(m-1) t / t^(p+1)  -  p log^m t / t^(p+1)

which is all that is needed to turn slowly convergent logarithmic series into
a short partial sum plus Bernoulli-weighted endpoint corrections:

    sum_{k>=0} f(a+k) - int_a^inf f(t) dt
        = f(a)/2 - sum_{j=1..J} B_2j/(2j)! f^(2j-1)(a) + R_J

with |R_J| at most 2 |B_2J+2|/(2J+2)! int_a^inf |f^(2J+2)| (Johansson,
arXiv:1309.2877).  The same corrections apply to summands built from log
powers at several shifted arguments, c log^m(t + shift) / (t + shift)^p,
where only the closed-form integral differs.

Every series route is one probe function, probe(K) -> (result, err): the
claimed tail error at a partial-sum length K and, in most routes, the tail
itself.  The one ladder em_start_for walks K through start * factor^i, calls
the probe once per rung, and returns the first passing rung with that
probe's result, so no route evaluates its chosen K a second time.

Every derivative the engine reads comes from one exact table, _log_polys(m,
p): the integer polynomials P_k with (d/dt)^k [log^m t / t^p] =
P_k(log t)/t^(p+k), independent of the precision.  The correction loop
em_tail_shifted evaluates each order from it by Horner's rule, from one
logarithm per shifted point.

Every lattice route but delta raises the order J with the digits asked
for, from 4 to at most J_PLAN_MAX, and claims a certified remainder at
every order and start:

- digamma and log_gamma: their summands are completely monotone, or the
  negative of one, so the first omitted correction bounds the remainder
  (the theta-bound of em_tail_error).  em_tail_shifted, given a bound,
  raises J until that correction is below it.
- the gamma_n series and gamma_diff (d = 0), and the second divided
  differences of zeta_deriv0_diff, dilcher_log_gamma_k and the verifier's
  g-series (d = 1): em_order_for picks J and em_tail_error certifies it,
  by the theta-bound past the certified start t_J and below it from the
  total variation of f^(2J+1+d).  Both read the real roots of the integer
  polynomials P_k in log t of f^(k), isolated once per (n, k) by _isolated:
  t_J (_certified_start) is past the last root of f^(2J+2+d) and
  f^(2J+4+d), and the extrema of f^(2J+1+d) are the roots of f^(2J+2+d)
  (_root_table).
- hurwitz_em and zeta_prime_int, whose summands t^-s and log t / t^s are
  not log-polynomials, state the same two certificates in closed form in
  zeta.py.

The lattice routes' differences log^q b - log^q a of nearby points are all
pow_step, which sums its q powers by Horner's rule in q - 1 multiply-adds,
and their x-free steps log^q(n+1) - log^q n, with log n, sit in the one
per-precision table of log_steps.

The loops that run once per term or per order work on raw _mpf_ tuples
through mpmath.libmp, at the caller's mp._prec_rounding: _pow_step (pow_step
is its mpf wrapper), _f_at, and the correction loop's Horner's rule
(_horner) in em_tail_shifted.  Each step is the libmpf call the mpf operator
makes, in the same order: mpf*int is mpf_mul_int, mpf+-int and mpf/int
convert the int by from_int, **int is mpf_pow_int, log is mpf_log.  Where
the mpf form multiplied by the int 1 or added to 0 (pow_step's start
s = p = 1, a LogPoly's unit coefficient and zero total), the tuple form
multiplies by fone or drops the step, which a correctly rounded product or
sum of a working-precision value cannot tell apart.  So the results have the
bits of the mpf forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import bernfrac, iv, log, mp, mpf
from mpmath.libmp import (fone, fzero, from_int, mpf_add, mpf_div, mpf_log,
                          mpf_mul, mpf_pow_int)

from .core import ConvergenceError, DomainError, PrecTable, SeriesValue


@lru_cache(maxsize=None)
def bernoulli(idx: int) -> Fraction:
    """Exact Bernoulli number B_idx (B_1 = -1/2 convention)."""
    if idx < 0:
        raise DomainError("bernoulli: index must be >= 0")
    return Fraction(*bernfrac(idx))


def bernoulli_mpf(idx: int) -> mpf:
    b = bernoulli(idx)
    return mpf(b.numerator) / b.denominator


class LogPoly:
    """Finite sum of c * log(t)^m / t^p terms, keyed by (m, p).

    log^0 t is 1 everywhere (including t = 1), so evaluation at 1 keeps the
    m = 0 terms and kills every m > 0 term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged: dict[tuple[int, int], mpf] = {}
        for (m, p), c in (terms or {}).items():
            if m < 0 or p < 0:
                raise DomainError("LogPoly: powers must be >= 0")
            c = mpf(c)
            if c:
                merged[(m, p)] = merged.get((m, p), mpf(0)) + c
        self.terms = {k: v for k, v in merged.items() if v}

    @classmethod
    def single(cls, coeff, log_power: int, inv_power: int) -> "LogPoly":
        return cls({(log_power, inv_power): mpf(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_inv_power(self) -> int:
        return min((p for _, p in self.terms), default=0)

    def diff(self) -> "LogPoly":
        out: dict[tuple[int, int], mpf] = {}
        for (m, p), c in self.terms.items():
            if m:
                key = (m - 1, p + 1)
                out[key] = out.get(key, mpf(0)) + c * m
            if p:
                key = (m, p + 1)
                out[key] = out.get(key, mpf(0)) - c * p
        return LogPoly(out)

    def __call__(self, t) -> mpf:
        t = mpf(t)
        lt = log(t)
        total = mpf(0)
        for (m, p), c in self.terms.items():
            total += c * lt ** m / t ** p
        return total

    def __add__(self, other: "LogPoly") -> "LogPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, mpf(0)) + c
        return LogPoly(out)

    def scaled(self, factor) -> "LogPoly":
        factor = mpf(factor)
        return LogPoly({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LogPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "LogPoly(0)"
        bits = [f"{c}*log^{m}/t^{p}" for (m, p), c in sorted(self.terms.items())]
        return "LogPoly(" + " + ".join(bits) + ")"


class LogPoint:
    """A point u with log u taken once; the powers of u and log u that the
    terms ask for are kept, so several terms are evaluated from them."""

    __slots__ = ("u", "lu", "upow", "lpow")

    def __init__(self, u):
        self.u = u
        self.lu = log(u)
        self.upow: dict[int, mpf] = {}
        self.lpow: dict[int, mpf] = {}

    def _upow(self, p: int) -> mpf:
        up = self.upow.get(p)
        if up is None:
            up = self.upow[p] = self.u ** p
        return up

    def eval(self, poly: LogPoly) -> mpf:
        """poly(u), with the bits of LogPoly.__call__."""
        total = mpf(0)
        for (m, p), c in poly.terms.items():
            lm = self.lpow.get(m)
            if lm is None:
                lm = self.lpow[m] = self.lu ** m
            total += c * lm / self._upow(p)
        return total


def logpow_antiderivative(q: int, u) -> mpf:
    """int log^q u du = u * sum_{j<=q} (-1)^(q-j) (q!/j!) log^j u."""
    u = mpf(u)
    lu = log(u)
    total = mpf(0)
    for j in range(q + 1):
        total += (-1) ** (q - j) * mpf(factorial(q)) / factorial(j) * lu ** j
    return u * total


def pow_step(la, a, b, q: int) -> mpf:
    """log^q b - log^q a, given la = log a, without large-minus-large loss:
    delta * sum_{i<q} lb^i la^(q-1-i) with delta = log(b/a), lb = la + delta.

    The sum is Horner's rule in lb, s = s*lb + la^i, with the powers of la
    kept as a running product: q - 1 multiply-adds.  For q <= 2 the bits are
    those of the sum written out term by term.  The mpf form of _pow_step;
    an int argument enters exactly, as in mpf arithmetic.
    """
    la, a, b = (mp.convert(v)._mpf_ for v in (la, a, b))
    return mp.make_mpf(_pow_step(la, a, b, q, *mp._prec_rounding))


def _pow_step(la, a, b, q: int, prec: int, rnd) -> tuple:
    """pow_step on _mpf_ tuples, rounded at (prec, rnd): the one
    cancellation-free log-power step of every lattice loop."""
    delta = mpf_log(mpf_div(b, a, prec, rnd), prec, rnd)
    lb = mpf_add(la, delta, prec, rnd)
    s = p = fone
    for _ in range(q - 1):
        p = mpf_mul(p, la, prec, rnd)
        s = mpf_add(mpf_mul(s, lb, prec, rnd), p, prec, rnd)
    return mpf_mul(delta, s, prec, rnd)


def _f_at(lu, u, n: int, prec: int, rnd) -> tuple:
    """f(u) = log^n u / u on _mpf_ tuples, from lu = log u: the bits of
    LogPoly.single(1, n, 1)(u)."""
    return mpf_div(mpf_pow_int(lu, n, prec, rnd), u, prec, rnd)


# 0 -> [log n]; q -> [log^q(n+1) - log^q n], both indexed by n >= 1: the
# x-free integer steps of the lattice routes
_LOG_STEPS = PrecTable()


def log_steps(q: int, K: int) -> tuple[list, list]:
    """(logs, steps): log n and pow_step(log n, n, n + 1, q) for 1 <= n <= K,
    kept per working precision (index 0 is unused)."""
    tables = _LOG_STEPS.at_prec()
    logs = tables.setdefault(0, [None])
    steps = tables.setdefault(q, [None])
    for n in range(len(logs), K + 1):
        logs.append(log(n))
    for n in range(len(steps), K + 1):
        steps.append(pow_step(logs[n], n, mpf(n + 1), q))
    return logs, steps


def logpoly_integral_to_inf(f: LogPoly, a) -> mpf:
    """int_a^inf f(t) dt for a LogPoly whose terms all have inv_power >= 2.

    Per term: int_a^inf log^m t / t^p dt
        = m!/(p-1)^(m+1) * a^(1-p) * sum_{j<=m} ((p-1) log a)^j / j!
    """
    a = mpf(a)
    la = log(a)
    total = mpf(0)
    for (m, p), c in f.terms.items():
        if p < 2:
            raise DomainError("integral_to_inf: needs inv_power >= 2 on every term")
        y = (p - 1) * la
        inner = mpf(0)
        for j in range(m + 1):
            inner += y ** j / factorial(j)
        total += c * mpf(factorial(m)) / (p - 1) ** (m + 1) * a ** (1 - p) * inner
    return total


K_CAP = 10 ** 6
# Largest correction order em_tail accepts: well past the orders any series
# route plans (J_PLAN_MAX), while B_2J+2 from a cold cache stays a few
# milliseconds' work.
EM_ORDER_MAX = 32


def em_tail(f: LogPoly, start, J: int = 4) -> SeriesValue:
    """sum_{k>=0} f(start + k) - int_start^inf f(t) dt by Euler-Maclaurin.

    Value = f(start)/2 - sum_{j<=J} B_2j/(2j)! f^(2j-1)(start); abs_err is the
    magnitude of the first omitted correction, an estimate that is a bound
    only where f^(2J+2) and f^(2J+4) keep one sign from start on
    (em_tail_error certifies the tail of f = log^n t / t at every start);
    terms_used is J.  start may be any real >= 2 (unit-step lattice starting
    there); every term of f must have inv_power >= 1 or the paired tail
    diverges.
    """
    if f.is_zero():
        return SeriesValue(mpf(0), mpf(0), 1, "euler_maclaurin")
    if f.min_inv_power < 1:
        raise DomainError("em_tail: term with inv_power = 0 has a divergent tail")
    if J > EM_ORDER_MAX:
        raise DomainError(f"em_tail: correction order J must be <= {EM_ORDER_MAX}")
    if mpf(start) < 2:
        raise DomainError("em_tail: start must be >= 2")
    parts = [(c, 0, m, p) for (m, p), c in f.terms.items()]
    value, err = em_tail_shifted(parts, f(start), 0, start, J)
    return SeriesValue(value, err, J, "euler_maclaurin")


def em_tail_shifted(v, v_at_start, integral, start, J: int = 4,
                    bound=None) -> tuple[mpf, mpf]:
    """sum_{k>=0} v(start + k) for v given by its parts (c, shift, m, p),
    v(t) = sum c log^m(t + shift) / (t + shift)^p, where the caller supplies
    v(start) and the closed-form int_start^inf v(t) dt.

    Returns (value, err): the integral plus v(start)/2 minus the Bernoulli
    corrections B_2j/(2j)! v^(2j-1)(start) of order j <= J, and the magnitude
    of the first omitted one.  Each distinct point u = start + shift takes
    its logarithm once; every order i of a part is then c P_i(log u)/u^(p+i),
    one Horner's rule over the integer row P_i of _log_polys(m, p).

    With a bound, J is the least order and the order rises from it, at most
    to J_PLAN_MAX, until the first omitted correction is below bound: the
    order plan of a completely monotone summand (or the negative of one),
    whose first omitted correction bounds the remainder at every start and
    order (em_tail_error).  The value has the bits of a call at the order
    reached.
    """
    prec, rnd = mp._prec_rounding
    start = mpf(start)
    # shift -> (u, log u, {k: u^k}), _mpf_ tuples
    points: dict[mpf, tuple] = {}
    terms = []
    for c, sh, m, p in v:
        sh = mpf(sh)
        point = points.get(sh)
        if point is None:
            u = (start + sh)._mpf_
            point = points[sh] = (u, mpf_log(u, prec, rnd), {})
        terms.append((mpf(c)._mpf_, point, _log_polys(m, p), p))

    def at(i):  # v^(i)(start)
        total = fzero
        for c, (u, lu, upow), rows, p in terms:
            up = upow.get(p + i)
            if up is None:
                up = upow[p + i] = mpf_pow_int(u, p + i, prec, rnd)
            ratio = mpf_div(_horner(rows[i], lu, prec, rnd), up, prec, rnd)
            total = mpf_add(total, mpf_mul(c, ratio, prec, rnd), prec, rnd)
        return mp.make_mpf(total)

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
    return value, abs(omitted)


def em_start_for(probe, bound, start: int, factor: int = 4) -> tuple:
    """(K, result, err) for the first rung K of the ladder start * factor^i
    whose probe(K) = (result, err) claims err below bound.

    Each rung is probed once, and the winning probe's result is returned
    with its K.  Raises ConvergenceError once a rung past K_CAP fails: the
    partial sum would need more terms than the library spends on one series.
    """
    K = start
    while True:
        result, err = probe(K)
        if err < bound:
            return K, result, err
        if K > K_CAP:
            raise ConvergenceError(
                f"tolerance unreachable within {K_CAP} series terms; raise tol")
        K *= factor


# Largest Euler-Maclaurin order em_order_for picks.  J = 13 is the smallest
# order that takes a 50-digit gamma_1 to the second rung (K = 128).  The cap
# also sets where the term budget ends: past about 1e-175 no rung up to K_CAP
# reaches tol/4 and the gamma routes raise ConvergenceError (about 1e-65 at
# J = 4 alone).
J_PLAN_MAX = 13
# the isolating interval of each root is refined to this width in log t
_ROOT_WIDTH = Fraction(1, 2 ** 16)


def em_order_for(n: int, a, bound, d: int = 0) -> int | None:
    """Smallest order J in 4..J_PLAN_MAX whose certified remainder bound
    at a (em_tail_error) is estimated in floats below bound; None when no
    order is.

    The summand v has v^(m) close to f^(m+d) for f = log^n t / t near a,
    up to a factor scale the caller takes out of bound.  d = 0 is the
    lattice sum of f.  d = 1 is a second divided difference of g with
    g' = f, such as v(t) = g(t+x) + (x-1) g(t) - x g(t+1) = x(x-1)
    g[t, t+1, t+x]: v^(m)(t) is then scale times a weighted mean of f^(m+1)
    over a window [t + c, t + c'] with a nonnegative weight (scale
    |x(x-1)|/2 there), and a is where the first window, at t = K, starts.
    So int_K^inf |v^(2J+2)| is at most scale times int_a^inf |f^(2J+3)|, the
    total variation of f^(2J+2) on [a, inf).  The estimate only picks J;
    em_start_for tests the tail's own error.
    """
    L = float(log(a))
    lb = float(log(bound))
    for J, (lw, coeffs) in enumerate(_order_table(n, d), 4):
        q = abs(sum(c * L ** m for m, c in enumerate(coeffs)))
        logs = [math.log(q) - (2 * J + 2 + d) * L] if q else []
        if a < _certified_start(n, J, d):
            # 2 (|g(a)| + 2 sum |g(r)|), g = f^(2J+1+d), over (2J+1)!
            logs = [math.log(2) + lg for lg in logs]
            logs += [math.log(4) + lg - math.lgamma(2 * J + 2)
                     for hi, _, lg in _root_table(n, J, d) if hi >= L]
        if not logs or lw + _log_sum(logs) < lb:
            return J
    return None


def _log_sum(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def em_tail_error(n: int, a, J: int, omitted, d: int = 0, scale=1) -> mpf:
    """Certified bound on the remainder of the order-J Euler-Maclaurin tail
    of a summand v whose first omitted correction is omitted, for the
    summands of em_order_for (f = log^n t / t; d and scale as there).  For
    d = 0, v = scale f and the tail starts at a; for d = 1, v^(m)(t) is
    scale times a weighted mean of f^(m+1) over a window that starts at or
    past a.

    Where a >= t_J, f^(2J+2+d) and f^(2J+4+d) keep one sign on [a, inf), so
    do v^(2J+2) and v^(2J+4), and the remainder is theta times the first
    omitted correction with 0 <= theta <= 1 (Graham, Knuth, Patashnik,
    Concrete Mathematics, eq. 9.78): the bound is omitted itself.

    Below t_J it is the integral bound |R_J| <= 2 |B_2J+2|/(2J+2)!
    int_a^inf |v^(2J+2)| (Johansson, arXiv:1309.2877), with the integral at
    most scale times the total variation of g = f^(2J+1+d) on [a, inf).  g
    is monotone between the roots of f^(2J+2+d), so that variation is at
    most |g(a)| + 2 sum |g(r)| over those roots r >= a, each |g(r)| taken
    from _root_table's enclosure.  For d = 0, scale |B_2J+2|/(2J+2)! |g(a)|
    is omitted itself, so |g(a)| is not evaluated again.
    """
    if a >= _certified_start(n, J, d):
        return omitted
    La = log(a)
    b = bernoulli(2 * J + 2)
    weight = mpf(2 * abs(b.numerator)) / (b.denominator * factorial(2 * J + 2))
    # float(La) is within half an ulp of log a, and each hi was rounded up
    # past its root by at least that much, so no root r >= a is missed
    L = float(La)
    roots = 2 * sum(g for hi, g, _ in _root_table(n, J, d) if hi >= L)
    if d == 0:
        return 2 * omitted + scale * weight * roots
    g_a = mp.make_mpf(_horner(_log_polys(n, 1)[2 * J + 1 + d], La._mpf_,
                              *mp._prec_rounding))
    return scale * weight * (abs(g_a) / mpf(a) ** (2 * J + 2 + d) + roots)


@lru_cache(maxsize=None)
def _log_polys(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """P_k for k = 0..2 EM_ORDER_MAX + 1, integer coefficients low degree
    first, with (d/dt)^k [log^m t / t^p] = P_k(log t)/t^(p+k):
    d/dt [P(L)/t^(p+k)] = (P'(L) - (p+k) P(L))/t^(p+k+1).  Independent of
    the precision."""
    P = (0,) * m + (1,)
    rows = [P]
    for k in range(p, p + 2 * EM_ORDER_MAX + 1):
        P = tuple((j + 1) * P[j + 1] - k * P[j] for j in range(m)) + (-k * P[m],)
        rows.append(P)
    return tuple(rows)


def _horner(P, L, prec: int, rnd) -> tuple:
    """P(L) for integer coefficients P, low degree first, by Horner's rule
    on the _mpf_ tuple L, rounded at (prec, rnd)."""
    s = fzero
    for c in reversed(P):
        s = mpf_add(mpf_mul(s, L, prec, rnd), from_int(c), prec, rnd)
    return s


@lru_cache(maxsize=None)
def _order_table(n: int, d: int = 0) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """For J = 4..J_PLAN_MAX: log(|B_2J+2|/(2J+2)) and the coefficients of
    P/(2J+1)! where f^(2J+1+d)(t) = P(log t)/t^(2J+2+d).

    The estimated first omitted correction at a is
    exp(lw) |P(log a)/(2J+1)!| a^-(2J+2+d).
    """
    polys = _log_polys(n, 1)
    table = []
    for J in range(4, J_PLAN_MAX + 1):
        b = bernoulli(2 * J + 2)
        lw = math.log(abs(b.numerator)) - math.log(b.denominator) - math.log(2 * J + 2)
        table.append((lw, tuple(c / factorial(2 * J + 1) for c in polys[2 * J + 1 + d])))
    return tuple(table)


@lru_cache(maxsize=None)
def _isolated(n: int, k: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """_real_roots of P_k, f^(k)(t) = P_k(log t)/t^(k+1) for f = log^n t / t:
    each polynomial is isolated once, for every order and start that reads
    it."""
    return tuple(_real_roots(_log_polys(n, 1)[k]))


@lru_cache(maxsize=None)
def _certified_start(n: int, J: int, d: int = 0) -> float:
    """The certified start t_J of order J: past the last real root of
    f^(2J+2+d) and of f^(2J+4+d), f = log^n t / t, so that both keep their
    eventual sign (-1)^d on [t_J, inf).

    exp of the largest isolating interval's upper end (0 when neither has
    a root t > 1), rounded up, so that a >= t_J implies that log a is past
    every root.
    """
    last = max((hi for k in (2 * J + 2 + d, 2 * J + 4 + d) for _, hi in _isolated(n, k)),
               default=0)
    return math.exp(math.nextafter(float(last), math.inf)) * (1 + 1e-12)


@lru_cache(maxsize=None)
def _root_table(n: int, J: int, d: int = 0) -> tuple[tuple[float, mpf, float], ...]:
    """One entry (hi, g_max, log g_max) per real root r > 1 of f^(2J+2+d),
    f = log^n t / t: log r <= hi, and g_max >= |f^(2J+1+d)| on the root's
    isolating interval [lo, hi] of log t.

    With g = f^(2J+1+d) = Q(L)/t^p, L = log t, p = 2J+2+d: on [lo, hi],
    |Q(lo + h)| <= sum_j |q_j| (hi - lo)^j from Q's exact Taylor
    coefficients q_j at lo, and t^-p <= exp(-p lo), taken in interval
    arithmetic and rounded up.  Independent of x and of the precision.
    """
    polys = _log_polys(n, 1)
    Q = polys[2 * J + 1 + d]
    p = 2 * J + 2 + d
    saved = iv.prec
    iv.prec = 53
    try:
        table = []
        for lo, hi in _isolated(n, 2 * J + 2 + d):
            q_max = sum(abs(q) * (hi - lo) ** j
                        for j, q in enumerate(_taylor_shift(Q, lo)))
            enc = (iv.mpf(q_max.numerator) / q_max.denominator
                   * iv.exp(-p * iv.mpf(lo.numerator) / lo.denominator))
            g_max = mp.make_mpf(enc._mpi_[1])
            _, man, exp2, _ = g_max._mpf_
            table.append((math.nextafter(float(hi), math.inf), g_max,
                          math.log(man) + exp2 * math.log(2)))
        return tuple(table)
    finally:
        iv.prec = saved


def _taylor_shift(P, c) -> list:
    """Coefficients of P(w + c), low degree first: exact for integer or
    Fraction c and coefficients."""
    r = list(P)
    deg = len(r) - 1
    for j in range(deg):
        for m in range(deg - 1, j - 1, -1):
            r[m] += c * r[m + 1]
    return r


def _sign_changes(P) -> int:
    signs = [c > 0 for c in P if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _real_roots(P) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals [lo, hi] of the real roots L > 0 of the
    squarefree integer polynomial P (low degree first), in increasing order,
    each of width at most _ROOT_WIDTH; an exact dyadic root gets lo = hi.

    Descartes bisection in integers: a node at depth k is an interval
    (lo, lo + width) of L, width = 2^(s-k), held as S(z) = 2^(k deg)
    P(lo + z width) for z in (0, 1); at depth 0 it reaches past every
    positive root (Cauchy's bound).  The sign changes of (1+z)^deg
    S(1/(1+z)) bound its number of roots in (0, 1) with the same parity:
    0 means none and 1 exactly one, and for squarefree P every small enough
    interval reads 0 or 1 (Vincent's theorem).  Halves are 2^deg S(z/2) and
    its shift by 1.  A node with one root keeps the half where S changes
    sign, S(1/2) being the coefficient sum of 2^deg S(z/2), until it is
    _ROOT_WIDTH wide: the interval that bisecting on the sign changes would
    reach, without counting them.
    """
    deg = len(P) - 1
    if deg < 1:
        return []
    bound = 1 + max(abs(Fraction(c, P[-1])) for c in P)  # Cauchy
    s = math.ceil(bound).bit_length()
    roots = []

    def halve(S):  # 2^deg S(z/2)
        m = len(S) - 1
        return [v << (m - i) for i, v in enumerate(S)]

    def visit(S, lo, width):
        while S[0] == 0:  # a root at lo itself
            roots.append((lo, lo))
            S = S[1:]
        count = _sign_changes(_taylor_shift(S[::-1], 1))
        if count == 0:
            return
        if count > 1:
            left = halve(S)
            visit(left, lo, width / 2)
            visit(_taylor_shift(left, 1), lo + width / 2, width / 2)
            return
        while width > _ROOT_WIDTH:
            S = halve(S)
            mid = sum(S)
            width /= 2
            if mid == 0:  # the root is the midpoint
                roots.append((lo + width, lo + width))
                return
            if (mid > 0) == (S[0] > 0):  # no sign change on the left half
                S = _taylor_shift(S, 1)
                lo += width
        roots.append((lo, lo + width))

    visit([v << (s * i) for i, v in enumerate(P)], Fraction(0), Fraction(1 << s))
    return [r for r in roots if r[1] > 0]

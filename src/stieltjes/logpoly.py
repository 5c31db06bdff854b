"""Log-polynomial calculus and the Euler-Maclaurin tail engine.

A LogPoly is a finite sum of terms c * log(t)^m / t^p with m, p >= 0.  The
family is closed under differentiation:

    d/dt [log^m t / t^p] = m log^(m-1) t / t^(p+1)  -  p log^m t / t^(p+1)

which is all that is needed to turn slowly convergent logarithmic series into
a short partial sum plus Bernoulli-weighted endpoint corrections:

    sum_{k>=0} f(a+k) - int_a^inf f(t) dt
        = f(a)/2 - sum_{j=1..J} B_2j/(2j)! f^(2j-1)(a) + R_J

with |R_J| estimated by the first omitted correction.  The same corrections
apply to summands built from log powers at several shifted arguments
(ShiftedLogSum below), where only the closed-form integral differs.

Every series route is one probe function, probe(K) -> (result, err): the
claimed tail error at a partial-sum length K and, in most routes, the tail
itself.  The one ladder em_start_for walks K through start * factor^i, calls
the probe once per rung, and returns the first passing rung with that
probe's result, so no route evaluates its chosen K a second time.  The correction loop em_tail_shifted
evaluates every order from one logarithm per shifted point and keeps each
summand's derivative chain per working precision.  On the gamma_n series,
gamma_diff and the s = 0 derivative series, em_order_for raises the order J
with the digits asked for, above 4 only where that order is certified.

The lattice routes' differences log^q b - log^q a of nearby points are all
pow_step, which sums its q powers by Horner's rule in q - 1 multiply-adds,
and their x-free steps log^q(n+1) - log^q n, with log n, sit in the one
per-precision table of log_steps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from mpmath import log, mpf, workprec

from .core import ConvergenceError, DomainError, PrecTable, SeriesValue

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(idx: int) -> Fraction:
    """Exact Bernoulli number B_idx (B_1 = -1/2 convention)."""
    if idx < 0:
        raise DomainError("bernoulli: index must be >= 0")
    while len(_BERNOULLI_CACHE) <= idx:
        m = len(_BERNOULLI_CACHE)
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-s / (m + 1))
    return _BERNOULLI_CACHE[idx]


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
    terms ask for are kept, so several LogPolys are evaluated from them."""

    __slots__ = ("u", "lu", "upow", "lpow")

    def __init__(self, u):
        self.u = u
        self.lu = log(u)
        self.upow: dict[int, mpf] = {}
        self.lpow: dict[int, mpf] = {}

    def eval(self, poly: LogPoly) -> mpf:
        """poly(u), with the bits of LogPoly.__call__."""
        total = mpf(0)
        for (m, p), c in poly.terms.items():
            lm = self.lpow.get(m)
            if lm is None:
                lm = self.lpow[m] = self.lu ** m
            up = self.upow.get(p)
            if up is None:
                up = self.upow[p] = self.u ** p
            total += c * lm / up
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
    those of the sum written out term by term.
    """
    delta = log(b / a)
    lb = la + delta
    s = p = 1
    for _ in range(q - 1):
        p *= la
        s = s * lb + p
    return delta * s


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
    magnitude of the first omitted correction (alternating-envelope bound);
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
    value, err = em_tail_shifted(f.diff(), f(start), 0, start, J)
    return SeriesValue(value, err, J, "euler_maclaurin")


class ShiftedLogSum:
    """Sum of coeff * poly(t + shift) parts; the summand shape of series whose
    terms mix log powers at several shifted arguments."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple((mpf(c), mpf(sh), poly) for c, sh, poly in parts)


# tuple(poly.terms.items()) -> [poly, poly', poly'', ...] at one precision
_CHAINS = PrecTable()


def _derivatives(poly: LogPoly, order: int) -> list[LogPoly]:
    """poly and its derivatives through the given order, each built by
    LogPoly.diff() once per working precision."""
    chains = _CHAINS.at_prec()
    key = tuple(poly.terms.items())
    chain = chains.get(key)
    if chain is None:
        chain = chains[key] = [poly]
    while len(chain) <= order:
        chain.append(chain[-1].diff())
    return chain


def em_tail_shifted(v_prime, v_at_start, integral, start,
                    J: int = 4) -> tuple[mpf, mpf]:
    """sum_{k>=0} v(start + k) where the caller supplies v(start), the
    closed-form int_start^inf v(t) dt, and v' as a LogPoly or ShiftedLogSum.

    Returns (value, err): the integral plus v(start)/2 minus the Bernoulli
    corrections B_2j/(2j)! v^(2j-1)(start) of order j <= J, and the magnitude
    of the first omitted one.  Each distinct point start + shift takes its
    logarithm once, and every order is evaluated from it.
    """
    start = mpf(start)
    if isinstance(v_prime, LogPoly):
        v_prime = ShiftedLogSum([(1, 0, v_prime)])
    points: dict[mpf, LogPoint] = {}
    parts = []
    for c, sh, poly in v_prime.parts:
        point = points.get(sh)
        if point is None:
            point = points[sh] = LogPoint(start + sh)
        parts.append((c, point, _derivatives(poly, 2 * J)))

    def at(i):  # v^(i+1)(start)
        total = mpf(0)
        for c, point, chain in parts:
            total += c * point.eval(chain[i])
        return total

    value = mpf(integral) + mpf(v_at_start) / 2
    for j in range(1, J + 1):
        value -= bernoulli_mpf(2 * j) / factorial(2 * j) * at(2 * j - 2)
    err = abs(bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2) * at(2 * J))
    return value, err


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
# certified starts are searched on the grid log t = i / _GRID
_GRID = 64


def em_order_for(n: int, a, bound, d: int = 0) -> int:
    """Smallest order J whose first omitted correction at a is estimated
    below bound, among J = 4 and the orders certified at a; 4 if none is.

    The summand v has v^(m) close to f^(m+d) for f = log^n t / t near a,
    up to a factor the caller takes out of bound.  d = 0 is the lattice sum
    of f.  d = 1 is a second difference v(t) = g(t+x) + (x-1) g(t) - x g(t+1)
    with g' = f: v^(m)(t) = x(x-1) g^(m)[t, t+1, t+x], a divided difference,
    which is x(x-1)/2 times a weighted mean of f^(m+1) over [t, t+max(1, x)]
    with a nonnegative weight.

    An order J > 4 is certified at a when f^(2J+2+d) and f^(2J+4+d) keep one
    sign on [a, inf); then so do v^(2J+2) and v^(2J+4), and the
    Euler-Maclaurin remainder is theta times the first omitted correction
    with 0 <= theta <= 1 (Graham, Knuth, Patashnik, Concrete Mathematics,
    eq. 9.78), so em_tail_shifted's err is a bound.  The estimate only
    picks J; em_start_for tests the tail's own err.
    """
    L = float(log(a))
    lb = float(log(bound))
    for J, (lw, coeffs, t_J) in enumerate(_order_table(n, d), 4):
        if J > 4 and a < t_J:
            break
        p = abs(sum(c * L ** m for m, c in enumerate(coeffs)))
        if p == 0 or lw + math.log(p) - (2 * J + 2 + d) * L < lb:
            return J
    return 4


@lru_cache(maxsize=None)
def _order_table(n: int, d: int = 0) -> tuple[tuple[float, tuple[float, ...], float], ...]:
    """For J = 4..J_PLAN_MAX: log(|B_2J+2|/(2J+2)), the coefficients of
    P/(2J+1)! where f^(2J+1+d)(t) = P(log t)/t^(2J+2+d), and the certified
    start t_J of order J (unused at J = 4, which keeps its uncertified plans).

    The estimated first omitted correction at a is
    exp(lw) |P(log a)/(2J+1)!| a^-(2J+2+d).
    """
    with workprec(512):  # exact: every coefficient is below (n + 2J + 5)!
        g = LogPoly.single(1, n, 1)
        polys = []
        for k in range(1, 2 * J_PLAN_MAX + 5 + d):
            g = g.diff()
            polys.append([int(g.terms.get((m, k + 1), 0)) for m in range(n + 1)])
    sign = (-1) ** d  # f^(m) is eventually of sign (-1)^m
    table = []
    for J in range(4, J_PLAN_MAX + 1):
        b = bernoulli(2 * J + 2)
        lw = math.log(abs(b.numerator)) - math.log(b.denominator) - math.log(2 * J + 2)
        coeffs = tuple(c / factorial(2 * J + 1) for c in polys[2 * J + d])
        i = _descartes_start([sign * c for c in polys[2 * J + 1 + d]],
                             [sign * c for c in polys[2 * J + 3 + d]])
        # rounded up, so that a >= t_J implies log a >= i / _GRID
        table.append((lw, coeffs, math.exp(i / _GRID) * (1 + 1e-12)))
    return tuple(table)


def _descartes_start(*polys) -> int:
    """Smallest i >= 0 at which every polynomial P (integer coefficients,
    low degree first) has no negative Taylor coefficient about
    L = i / _GRID.

    Such a P stays >= 0 for L >= i / _GRID (Descartes' rule of signs), and
    the property persists for every larger i, so bisection finds the first.
    """
    def nonneg_at(i):
        for P in polys:
            deg = len(P) - 1
            # Taylor shift of R(w) = _GRID^deg P(w / _GRID) to w = i, in integers
            r = [c * _GRID ** (deg - m) for m, c in enumerate(P)]
            for j in range(deg):
                for m in range(deg - 1, j - 1, -1):
                    r[m] += i * r[m + 1]
            if any(c < 0 for c in r):
                return False
        return True

    if nonneg_at(0):
        return 0
    lo, hi = 0, 1
    while not nonneg_at(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if nonneg_at(mid):
            hi = mid
        else:
            lo = mid
    return hi

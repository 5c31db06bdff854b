"""Log-polynomial calculus and the Euler-Maclaurin tail engine, on the
fixed-point kernel of fixedpoint.

Every series summand here is a short list of parts c log^m(t + shift) /
(t + shift)^p.  The family is closed under differentiation, for any real p:

    d/dt [log^m t / t^p] = m log^(m-1) t / t^(p+1)  -  p log^m t / t^(p+1)

which turns a slowly convergent logarithmic series into a partial sum plus
Bernoulli-weighted endpoint corrections:

    sum_{k>=0} f(a+k) - int_a^inf f(t) dt
        = f(a)/2 - sum_{j=1..J} B_2j/(2j)! f^(2j-1)(a) + R_J

with |R_J| at most 2 |B_2J+2|/(2J+2)! int_a^inf |f^(2J+2)| (Johansson,
arXiv:1309.2877).  A rational p, such as the real s of (t + x)^-s, is read
exactly: an mpf is a dyadic rational.

em_series sums such a summand from its one parts list, read by both halves
of the series, each in fixed point at wp = prec + guard bits (an int X
stands for X 2^-wp) with a stated bound that the route's claim adds:

- fixedpoint.lattice_sum, the partial sum: one logarithm and one power
  chain per lattice point, the coefficients a point takes from several
  parts merged exactly, within 2^-prec (lattice_err()).
- em_tail_shifted, the tail: one logarithm per point and one chain of
  inverse powers by exact divisions, each correction one integer dot
  product with exact weights B_2j/(2j)! P_(2j-1)[k] (_tail_rows), P_k from
  the one table _log_polys(m, p) with (d/dt)^k [log^m t / t^p] =
  P_k(log t) / t^(p+k); the value and each correction within tail_err()
  (the proof above TAIL_GUARD).

A route's single boundary steps and end terms come from the same two (a
lattice_sum of a telescoped pair on one range, a tail's own v(start)/2 and
integral), so no log-polynomial is evaluated in mpf.  em_tail is the tail
of the one term log^m t / t^p without its integral, the tail the gamma
routes plan with.

The one ladder em_start_for walks K through start * factor^i, calling
probe(K) -> SeriesValue, a tail, once per rung.  em_series probes
em_tail_shifted on its parts; gamma's routes probe em_tail of log^n t / t,
and hurwitz_em and zeta_prime_int, whose power partial sums are not lattice
sums, em_tail_shifted on their one part.  Given a bound, em_tail_shifted's
order loop raises J from 4, at most to J_PLAN_MAX, until the claimed
remainder is below it.  That claim is certified at every order and start:
hurwitz_em's (t+x)^-s is completely monotone from its least order on, so
the first omitted correction bounds the remainder; every other route passes
em_tail_error's key (n, a, d, scale, p), which certifies the remainder by
that theta-bound past the certified start t_J and below it from the total
variation of f^(2J+1+d), f = log^n t / t^p, read from the real roots of the
P_k (_certified_start, and the table _certificate of _root_table's
enclosures).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from mpmath import bernfrac, iv, mp, mpf
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero, mpf_add,
                          mpf_div, mpf_mul, mpf_pow, mpf_sub, round_up, to_fixed,
                          to_rational)

from .core import ConvergenceError, DomainError, SeriesValue
from .fixedpoint import fixed_div, fixed_log, fixed_log_ints, from_fixed, lattice_sum


@lru_cache(maxsize=None)
def bernoulli(idx: int) -> Fraction:
    """Exact Bernoulli number B_idx (B_1 = -1/2 convention)."""
    if idx < 0:
        raise DomainError("bernoulli: index must be >= 0")
    return Fraction(*bernfrac(idx))


K_CAP = 10 ** 6
# Largest Euler-Maclaurin order: the most em_tail_shifted's order loop
# reaches and accepts.  J = 13 is the smallest order that takes a
# 50-digit gamma_1 to the second rung (K = 128).  The cap also sets where the
# term budget ends: past about 1e-175 no rung up to K_CAP reaches tol/4 and
# the gamma routes raise ConvergenceError (about 1e-65 at J = 4 alone).
J_PLAN_MAX = 13


def em_tail(m: int, p, start, J: int = 4, bound=None) -> SeriesValue:
    """sum_{k>=0} f(start + k) - int_start^inf f(t) dt by Euler-Maclaurin,
    for f = log^m t / t^p, an int m >= 0, p >= 1 (an int, or an mpf read
    exactly), and a start >= 2.

    em_tail_shifted's SeriesValue on the one part (1, 0, m, p), without its
    integral: f(start)/2 - sum_{j<=J} B_2j/(2j)! f^(2j-1)(start) as its
    exact fixed-point sum, J rising when a bound is given, and its claim
    with the certificate key (m, start, 0, 1, p).
    """
    if p < 1:
        raise DomainError("em_tail: term with inv_power < 1 has a divergent tail")
    start = mpf(start)
    return em_tail_shifted([(1, 0, m, p)], start, J, bound, (m, start, 0, 1, p),
                           integral=False)


# The Euler-Maclaurin tail runs on fixedpoint's kernel and its rules
# (1)-(5), at the points u = start + shift of its parts, each formed exactly
# and >= 2.  At a point, M = floor(log u) + 1 is an int >= max(1, log u),
# and G = 2^g >= max(1, u^-e0) for the least exponent e0 read there (p, or
# p - 1 where the tail forms the integral).  In units of 2^-wp:
#
# (6) _TailPoint's chain: u^-e within 2 units, and at most G.  The least
#     exponent of a chain: an int e <= 0 as the exact integer power,
#     floored; an int e > 0 from 1 by e divisions (rule (4), each within
#     e'/u + 1 <= 2 as u >= 2); a rational e by mpf_pow at w = wp + g +
#     bitlen(2 + (1 + M) ceil|e|) bits, floored (mpmath takes a logarithm or
#     a square root at w + 10 bits, scales it by e, then an exponential or
#     an integer power at w: within (2 + (1 + log u)|e|) 2^-w, relative).
#     Then u^-(e+1) = u^-e / u by rule (4), again within 2.
# (7) a row X = sum_k W_k L^k, its weights exact over one denominator,
#     W_k = N_k / D, as (sum_k N_k L^k) // D: within 5 q M^q A + 1 for
#     A = sum |W_k| and degree at most q (rule (2)), and |X| <= A M^q.
# (8) a part's term c X u^-e, c = num / den exact, as floor((X R >> wp)
#     num / den): within |c| (2 A M^q + G (5 q M^q A + 1) + 1) + 1, which is
#     at most 2^4 q (|c| + 1)(A + 1) G M^q.
#
# em_tail_shifted's one proof: a part of (m, p) reads rows of degree at most
# q = m + 1 (the integral's, at p = 1), each with A at most _tail_rows(m, p)'s
# bound, so v(start)/2, the integral and every correction is within B, the
# sum over the parts of 2^4 q (|c| + 1)(A + 1) G M^q units, and the value,
# at most J_PLAN_MAX + 2 of them, within 2^4 B.  At wp = prec + bitlen(B) +
# TAIL_GUARD both are below tail_err() = 2^(-prec-3), which the claim adds
# to the first omitted correction before its certificate reads it, and to
# the certified bound.

# bits of 2^4 (the count of a value's terms) and 2^3 (the margin): see above
TAIL_GUARD = 7


def tail_err() -> mpf:
    """2^(-prec-3): the bound every tail keeps on its value and on each
    correction at the current precision, which its claim adds."""
    return mp.make_mpf(from_man_exp(1, -mp.prec - 3))


class _TailPoint:
    """A tail's point u >= 2, an exact _mpf_, in fixed point at wp: its
    logarithm L (rule (1); fixed_log_ints' table at an integer u), the powers
    L^k (rule (2)) through a degree, and the chain R[i] = u^-(e0 + i)
    (rule (6))."""

    __slots__ = ("u", "wp", "M", "e0", "powers", "R")

    def __init__(self, u, wp: int, M: int, q: int, e0):
        _, man, exp, _ = u
        L = (next(fixed_log_ints(man << exp, (man << exp) + 1, wp)) if exp >= 0
             else fixed_log(u, wp))
        self.u, self.wp, self.M, self.e0, self.powers = u, wp, M, e0, [1 << wp, L]
        self.R = [_inv_first(u, e0, wp, M)]
        self.extend(q)

    def extend(self, q: int) -> None:
        """L^k for every k <= q."""
        powers, L, wp = self.powers, self.powers[1], self.wp
        while len(powers) <= q:
            powers.append(powers[-1] * L >> wp)

    def term(self, row, k: int, num: int, den: int) -> int:
        """num/den X(L) u^-(e0+k) for the row X = (N, D): rule (8)."""
        R = self.R
        while len(R) <= k:
            R.append(fixed_div(R[-1], self.u))
        N, D = row
        X = sum(map(mul, N, self.powers)) // D * R[k] >> self.wp
        return X if num == den else X * num // den

    def log_below(self) -> float:
        """A float at most log u: L less its 3M units, rounded down."""
        return math.nextafter((self.powers[1] - 3 * self.M) / (1 << self.wp), -math.inf)


def _inv_first(u, e, wp: int, M: int) -> int:
    """u^-e, the first of a chain: rule (6)."""
    if type(e) is int:
        if e <= 0:
            _, man, exp, _ = u
            s = wp - exp * e
            return man ** -e << s if s >= 0 else man ** -e >> -s
        X = 1 << wp
        for _ in range(e):
            X = fixed_div(X, u)
        return X
    g = max(0, math.ceil(-e * (u[2] + u[3])))
    w = wp + g + (2 + (1 + M) * math.ceil(abs(e))).bit_length()
    return to_fixed(mpf_pow(u, from_man_exp(-e.numerator, 1 - e.denominator.bit_length()), w),
                    wp)


def _log_ceil(u) -> int:
    """An int M >= max(1, log u) for an _mpf_ u > 0: floor(log u) + 1, from a
    float of its mantissa and exponent widened past the float's error."""
    _, man, exp, _ = u
    return max(1, int((math.log(man) + exp * math.log(2)) * (1 + 1e-12) + 1e-12) + 1)


def _exact(x):
    """An int or an mpf as its exact _mpf_."""
    return x._mpf_ if type(x) is mpf else from_int(x) if type(x) is int else mpf(x)._mpf_


def em_tail_shifted(v, start, J: int = 4, bound=None, key=None,
                    integral: bool = True) -> SeriesValue:
    """sum_{k>=0} v(start + k) for v given by its parts (c, shift, m, p),
    v(t) = sum c log^m(t + shift) / (t + shift)^p, each c (an int, a
    Fraction or an mpf), shift (an int or an mpf) and p (an int, or an mpf
    as the rational it is) read exactly, each m an int >= 0, every point
    start + shift >= 2, and J an int in 1..J_PLAN_MAX.

    A SeriesValue (value, claim, J, "euler_maclaurin"): v(start)/2 (row 0
    of each part) plus int_start^inf v minus the Bernoulli corrections
    B_2j/(2j)! v^(2j-1)(start) of order j <= J, the claimed remainder, and
    J.  The integral is -sum c F(start + shift) with F the antiderivative
    of log^m u / u^p (_tail_rows), which the parts must make vanish at
    infinity (or, as hurwitz_em's (t + x)^-s, continue analytically; delta
    adds its F(1) to the tail of log^n t); integral=False leaves it out.

    In fixed point (the proof above TAIL_GUARD): the parts at one point u
    whose p differ by integers share one logarithm, its powers, and one
    chain of u^-e by exact divisions (its first by mpf_pow at a rational
    p); a part's correction j is one integer dot product of the powers with
    _tail_rows' exact weights B_2j/(2j)! P_(2j-1)[k], times u^-(p+2j-1).
    The value is the integer sum S 2^-wp, with all its bits, within
    tail_err() = E.

    The claim is em_tail_error(n, a, J, |omitted| + E, d, scale, p) + E for
    the certificate key (n, a, d, scale[, p]) described there (p is 1 when
    the key leaves it out), read at the tail's own point when a = start +
    shift for one of the shifts; with no key, |omitted| + 2E, the
    theta-bound of a completely monotone summand (or the negative of one),
    as hurwitz_em's.  With a bound, J is the least order and rises, at most
    to J_PLAN_MAX, while the claim is not below bound: the one order plan
    of every lattice route.
    """
    if type(J) is not int or not 1 <= J <= J_PLAN_MAX:
        raise DomainError(f"em_tail_shifted: the order J must be an int in 1..{J_PLAN_MAX}")
    start = _exact(start)
    specs, parts = {}, []  # (shift, p mod 1) -> [u, least exponent, degree]
    for c, shift, m, p in v:
        if type(m) is not int or m < 0:
            raise DomainError("em_tail_shifted: a log power m must be an int >= 0")
        shift, p = _exact(shift), _rational(p)
        e = p - 1 if integral else p
        at = (shift, e - math.floor(e))
        spec = specs.setdefault(at, [mpf_add(start, shift), e, 1])
        spec[1], spec[2] = min(spec[1], e), max(spec[2], m + 1)
        num, den = to_rational(c._mpf_) if type(c) is mpf else (c.numerator, c.denominator)
        parts.append((at, m, p, num, den))
    B = 0
    for at, m, p, num, den in parts:
        u, e0, _ = specs[at]
        if u[0] or u[2] + u[3] < 2:
            raise DomainError("em_tail_shifted: every point start + shift must be >= 2")
        G = 1 << max(0, math.ceil(-e0 * (u[2] + u[3])))
        B += (16 * (m + 1) * (-(-abs(num) // den) + 1) * (_tail_rows(m, p)[2] + 1)
              * _log_ceil(u) ** (m + 1) * G)
    wp = mp.prec + B.bit_length() + TAIL_GUARD
    points = {at: _TailPoint(u, wp, _log_ceil(u), q, e0) for at, (u, e0, q) in specs.items()}
    terms = [(points[at], int(p - specs[at][1]), *_tail_rows(m, p)[:2], num, den)
             for at, m, p, num, den in parts]

    S = sum(point.term(rows[0], k, num, 2 * den) for point, k, rows, _, num, den in terms)
    if integral:
        S += sum(point.term(F, k - 1, num, den) for point, k, _, F, num, den in terms)

    def correction(j):  # B_2j/(2j)! v^(2j-1)(start)
        return sum(point.term(rows[j], k + 2 * j - 1, num, den)
                   for point, k, rows, _, num, den in terms)

    E = 1 << (wp - mp.prec - 3)
    if key is None:
        def claim(J, omitted):
            return from_fixed(abs(omitted) + 2 * E, wp)
    else:
        n, a, d, scale, *p_key = key
        p_key = _rational(p_key[0] if p_key else 1)
        at_a = points.get((mpf_sub(_exact(a), start), p_key - math.floor(p_key)))
        E_mpf = from_fixed(E, wp)

        def claim(J, omitted):
            return em_tail_error(n, a, J, from_fixed(abs(omitted) + E, wp), d, scale,
                                 p_key, at_a) + E_mpf

    for j in range(1, J + 1):
        S -= correction(j)
    omitted = correction(J + 1)
    err = claim(J, omitted)
    if bound is not None:
        while not err < bound and J < J_PLAN_MAX:
            S -= omitted
            J += 1
            omitted = correction(J + 1)
            err = claim(J, omitted)
    return SeriesValue(from_fixed(S, wp), err, J, "euler_maclaurin")


def em_start_for(probe, bound, start: int, factor: int = 4) -> tuple[int, SeriesValue]:
    """(K, tail) for the first rung K of the ladder start * factor^i whose
    tail = probe(K), a SeriesValue, claims abs_err below bound.

    Each rung is probed once, and the winning probe's tail is returned with
    its K.  Raises ConvergenceError before it probes a rung past K_CAP: the
    partial sum would need more terms than the library spends on one
    series.
    """
    K = start
    while K <= K_CAP:
        tail = probe(K)
        if tail.abs_err < bound:
            return K, tail
        K *= factor
    raise ConvergenceError(
        f"tolerance unreachable within {K_CAP} series terms; raise tol")


def em_series(parts, lo: int, start: int, bound, key) -> tuple[int, mpf, SeriesValue]:
    """(K, partial, tail) of the series sum_{k>=lo} v(k) whose summand v is
    one parts list (c, shift, m, p), p in {0, 1}: fixedpoint.lattice_sum
    reads it for the partial sum over [lo, K), and em_tail_shifted for the
    tail from K, with its v(K) and integral.

    K is em_start_for's first rung from start, factor 4, whose tail, its
    order raised from 4 at most to J_PLAN_MAX, claims below bound, certified
    by em_tail_error's key (n, K + offset, d, scale) for key = (n, offset,
    d, scale), K + offset formed exactly: offset places a at the start of
    the window the certificate reads from the tail's start K.
    """
    n, offset, d, scale = key
    K, tail = em_start_for(
        lambda K: em_tail_shifted(parts, K, 4, bound,
                                  (n, mp.fadd(K, offset, exact=True), d, scale)),
        bound, start)
    return K, lattice_sum(parts)(lo, K), tail


# the isolating interval of each root is refined to this width in log t
_ROOT_WIDTH = Fraction(1, 2 ** 16)


def em_tail_error(n: int, a, J: int, omitted, d: int = 0, scale=1, p=1,
                  point=None) -> mpf:
    """Certified bound on the remainder of the order-J Euler-Maclaurin tail
    of a summand v whose first omitted correction has magnitude at most
    omitted.  (n, a, d, scale, p) is v's certificate key, for f = log^n t /
    t^p with a rational p > 0 (an int, or an mpf, read exactly):

    - d = 0: v = scale f, and the tail starts at a.
    - d = 1: v is a second divided difference of g with g' = f, such as
      v(t) = g(t+x) + (x-1) g(t) - x g(t+1) = x(x-1) g[t, t+1, t+x].  Its
      m-th derivative is scale times a weighted mean of f^(m+1) over a
      window [t + c, t + c'] with a nonnegative weight (scale |x(x-1)|/2
      there), and a is where the first window, at the tail's start, begins.
    - d = -1: v' = scale f, as delta's log^(n+1) t, scale n + 1, and the
      tail starts at a.

    So v^(m) is scale times f^(m+d), or a mean of it, on [a, inf).

    Where a >= t_J, f^(2J+2+d) and f^(2J+4+d) keep one sign on [a, inf), so
    do v^(2J+2) and v^(2J+4), and the remainder is theta times the first
    omitted correction with 0 <= theta <= 1 (Graham, Knuth, Patashnik,
    Concrete Mathematics, eq. 9.78): the bound is omitted itself.

    Below t_J it is the integral bound |R_J| <= 2 |B_2J+2|/(2J+2)!
    int_a^inf |v^(2J+2)| (Johansson, arXiv:1309.2877), with the integral at
    most scale times the total variation of g = f^(2J+1+d) on [a, inf).  g
    is monotone between the roots of f^(2J+2+d) and vanishes at infinity
    (p > 0), so that variation is at most |g(a)| + 2 sum |g(r)| over those
    roots r >= a.  Below t_J (_certified_start), _certificate holds the
    roots' upper ends and the suffix sums of 2|B_2J+2|/(2J+2)! 2|g(r)|, and
    one bisect on a float at most log a (point's, a tail's point at a, or a
    fresh one) picks the roots r >= a.  For d <= 0, scale |B_2J+2|/(2J+2)! |g(a)| is omitted
    itself, so |g(a)| is not evaluated again; for d = 1 it is the point's
    fixed-point row of that weight times f^(2J+2) (rule (8)), its bound
    added.
    """
    p = _rational(p)
    if not p > 0:
        raise DomainError("em_tail_error: the key's inverse power p must be > 0")
    if a >= _certified_start(n, J, d, p):
        return omitted
    his, suffix, g_row = _certificate(n, J, d, p)
    e = p + 2 * J + 1 + d  # g's inverse power
    q = n + 1
    if point is None or e < point.e0:
        u = _exact(a)
        M = _log_ceil(u)
        wp = mp.prec + (32 * q * (g_row[1] + 1 if g_row else 1) * M ** q).bit_length()
        point = _TailPoint(u, wp + TAIL_GUARD, M, q, e)
    # each hi is at least its root's log, so no root r >= a is left out
    roots = suffix[bisect_left(his, point.log_below())]
    if d <= 0:
        return 2 * omitted + scale * roots
    row, A = g_row
    point.extend(q)
    X = abs(point.term(row, int(e - point.e0), 1, 1))
    return scale * (from_fixed(X + 32 * q * (A + 1) * point.M ** q, point.wp) + roots)


def _rational(p):
    """p exactly: an int or a Fraction as it is, an mpf (a dyadic rational)
    as a Fraction, or as an int when it is whole."""
    if type(p) in (int, Fraction):
        return p
    num, den = to_rational(_exact(p))
    return num if den == 1 else Fraction(num, den)


# entries each (m, p)-keyed cache holds: about twice the integer-keyed
# entries that point_mix and verify --suite all read (68 of _log_polys, 73
# of _root_table, 255 of _isolated, 213 of _certified_start).  Each rational
# p, such as every s hurwitz_em and zeta_prime_int are called at, takes
# entries of its own; past the cap the least recently used go.
POLY_CACHE_MAX = 128
ROOT_CACHE_MAX = 512


@lru_cache(maxsize=POLY_CACHE_MAX)
def _log_polys(m: int, p) -> tuple[tuple, ...]:
    """P_k for k = 0..2 J_PLAN_MAX + 5, coefficients low degree first,
    with (d/dt)^k [log^m t / t^p] = P_k(log t)/t^(p+k):
    d/dt [P(L)/t^(p+k)] = (P'(L) - (p+k) P(L))/t^(p+k+1).  Integers for an
    int p, exact Fractions for a Fraction p.  Row 2J + 4 + d, d <= 1, is
    the last em_tail_error reads at the largest order J = J_PLAN_MAX.
    Independent of the precision."""
    P = (0,) * m + (1,)
    rows = [P]
    for i in range(2 * J_PLAN_MAX + 5):
        k = p + i
        P = tuple((j + 1) * P[j + 1] - k * P[j] for j in range(m)) + (-k * P[m],)
        rows.append(P)
    return tuple(rows)


def _weights(ws) -> tuple[tuple, int]:
    """((N, D), A): exact weights ws as integers N over one denominator D,
    and A >= sum |w|, an int."""
    D = math.lcm(*(Fraction(w).denominator for w in ws))
    N = tuple(int(w * D) for w in ws)
    return (N, D), -(-sum(map(abs, N)) // D)


@lru_cache(maxsize=POLY_CACHE_MAX)
def _tail_rows(m: int, p) -> tuple[tuple, tuple, int]:
    """(rows, integral, A) of log^m t / t^p for em_tail_shifted, each row
    (N, D) over one denominator: rows[0] = P_0 = log^m (v(start)), rows[j] =
    B_2j/(2j)! P_(2j-1) for 1 <= j <= J_PLAN_MAX + 1 (the corrections), and
    the integral's -F, read at u^-(p-1) (F as in em_tail_shifted); A >= the
    largest sum |W_k| of them (below 2^38 for m <= 9 at p = 1).  Independent
    of the precision."""
    P = _log_polys(m, p)
    rows = [_weights((0,) * m + (1,))]
    rows += [_weights([bernoulli(2 * j) / factorial(2 * j) * c for c in P[2 * j - 1]])
             for j in range(1, J_PLAN_MAX + 2)]
    if p == 1:
        F = (0,) * (m + 1) + (Fraction(-1, m + 1),)
    else:
        F = [-(-1) ** (m - k) * Fraction(factorial(m), factorial(k)) / (1 - p) ** (m - k + 1)
             for k in range(m + 1)]
    integral = _weights(F)
    return (tuple(row for row, _ in rows), integral[0],
            max(A for _, A in rows + [integral]))


@lru_cache(maxsize=POLY_CACHE_MAX)
def _certificate(n: int, J: int, d: int = 0, p=1) -> tuple:
    """em_tail_error's table below t_J for f = log^n t / t^p, order J and d:
    (his, suffix, g_row).  his are the upper ends of _root_table's roots,
    increasing; suffix[i] >= w 2 sum_{i' >= i} g_max(r_i'), w = 2|B_2J+2| /
    (2J+2)!, rounded up at 64 bits (suffix[len(his)] = 0); g_row, for d = 1,
    ((N, D), A), the row of w P_(2J+1+d) (_weights).  Independent of x and
    of the precision."""
    table = _root_table(n, J, d, p)
    w = 2 * abs(bernoulli(2 * J + 2)) / factorial(2 * J + 2)
    total, suffix = fzero, [fzero]
    for _, g in reversed(table):
        total = mpf_add(total, g._mpf_)
        suffix.append(mpf_div(mpf_mul(total, from_int(2 * w.numerator)),
                              from_int(w.denominator), 64, round_up))
    g_row = _weights([w * c for c in _log_polys(n, p)[2 * J + 1 + d]]) if d > 0 else None
    return (tuple(hi for hi, _ in table), tuple(mp.make_mpf(s) for s in reversed(suffix)),
            g_row)


@lru_cache(maxsize=ROOT_CACHE_MAX)
def _isolated(n: int, k: int, p=1) -> tuple[tuple[Fraction, Fraction], ...]:
    """_real_roots of P_k, f^(k)(t) = P_k(log t)/t^(p+k) for
    f = log^n t / t^p, its denominators cleared: each polynomial is
    isolated once, for every order and start that reads it."""
    P = _log_polys(n, p)[k]
    den = math.lcm(*(c.denominator for c in P))
    return tuple(_real_roots([int(c * den) for c in P]))


@lru_cache(maxsize=ROOT_CACHE_MAX)
def _certified_start(n: int, J: int, d: int = 0, p=1) -> mpf:
    """The certified start t_J of order J: past the last real root of
    f^(2J+2+d) and of f^(2J+4+d), f = log^n t / t^p, so that both keep
    their eventual sign (-1)^d on [t_J, inf).

    exp of the largest isolating interval's upper end (0 when neither has
    a root t > 1), rounded up as a float, so that a >= t_J implies that
    log a is past every root; an mpf, exactly that float.
    """
    last = max((hi for k in (2 * J + 2 + d, 2 * J + 4 + d)
                for _, hi in _isolated(n, k, p)), default=0)
    return mp.make_mpf(from_float(math.exp(math.nextafter(float(last), math.inf))
                                  * (1 + 1e-12)))


@lru_cache(maxsize=POLY_CACHE_MAX)
def _root_table(n: int, J: int, d: int = 0, p=1) -> tuple[tuple[float, mpf], ...]:
    """One entry (hi, g_max) per real root r > 1 of f^(2J+2+d),
    f = log^n t / t^p: log r <= hi, and g_max >= |f^(2J+1+d)| on the
    root's isolating interval [lo, hi] of log t.

    With g = f^(2J+1+d) = Q(L)/t^e, L = log t, e = p+2J+1+d: on [lo, hi],
    |Q(lo + h)| <= sum_j |q_j| (hi - lo)^j from Q's exact Taylor
    coefficients q_j at lo, and t^-e <= exp(-e lo), taken in interval
    arithmetic and rounded up.  Independent of x and of the precision.
    """
    Q = _log_polys(n, p)[2 * J + 1 + d]
    e = p + 2 * J + 1 + d
    saved = iv.prec
    iv.prec = 53
    try:
        table = []
        for lo, hi in _isolated(n, 2 * J + 2 + d, p):
            q_max = sum(abs(q) * (hi - lo) ** j
                        for j, q in enumerate(_taylor_shift(Q, lo)))
            enc = (iv.mpf(q_max.numerator) / q_max.denominator
                   * iv.exp(-e.numerator * iv.mpf(lo.numerator)
                            / (lo.denominator * e.denominator)))
            table.append((math.nextafter(float(hi), math.inf),
                          mp.make_mpf(enc._mpi_[1])))
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

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
sums, em_tail_shifted on their one part.  The log-lattice routes start the
ladder at ladder_start(tol), a power of two near d/1.86 for the d digits
asked for, where the order loop below reaches tol at the first rung.  Given
a bound, em_tail_shifted's order loop raises J from 4, at most to
J_PLAN_MAX = 64, until the claimed remainder is below it; past order DIRECT
= 13 only while the rows' weights at the start still fall, to the series'
turning point near j = pi start, and rule (9) reaches them.  So each rung
raises J before the ladder moves K, and the tables a call builds
(_log_polys, _tail_rows, the certificates) reach only the order it gets to.
That claim is certified at every order and start: hurwitz_em's (t+x)^-s is
completely monotone from its least order on, so the first omitted
correction bounds the remainder; every other route passes em_tail_error's
key (n, a, d, scale, p), which certifies the remainder by that theta-bound
past the certified start t_J and below it from the total variation of
f^(2J+1+d), f = log^n t / t^p, read from the real roots of the P_k
(_certified_start, and the table _certificate of _root_table's enclosures).

Those tables do not depend on the precision, and each is built in integers:
the Bernoulli numbers from a tangent table extended two rows of Seidel's
triangle at a time; the rows R_k = b^k P_k at p = a/b; each weight row an
integer row times one fraction, over its least denominator by one gcd; the
roots isolated by Descartes bisection, each refined by one Horner sign per
midpoint; and each enclosure from an integer Taylor shift and the 53-bit
directed roundings of interval arithmetic, taken by libmpf calls.  The
tables equal, bit for bit, their direct forms in Fraction and interval
arithmetic, which the tests keep as references.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero, mpf_add, mpf_div,
                          mpf_exp, mpf_mul, mpf_pow, mpf_sub, round_ceiling, round_floor,
                          round_up, to_fixed, to_rational)

from .core import ConvergenceError, DomainError, SeriesValue, tol_digits
from .fixedpoint import fixed_div, fixed_log, fixed_log_ints, from_fixed, lattice_sum


@lru_cache(maxsize=None)
def bernoulli(idx: int) -> Fraction:
    """Exact Bernoulli number B_idx (B_1 = -1/2 convention): B_2n =
    (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the tangent number T_n."""
    if idx < 0:
        raise DomainError("bernoulli: index must be >= 0")
    if idx < 2:
        return Fraction(1) if idx == 0 else Fraction(-1, 2)
    if idx % 2:
        return Fraction(0)
    n = idx // 2
    return Fraction((-1) ** (n - 1) * 2 * n * _tangent(n), 4 ** n * (4 ** n - 1))


_TANGENTS = [0, 1]  # T_0 (unused) and T_1, extended on demand
_ZIGZAG = [0, 1]  # row 2 len(_TANGENTS) - 3 of Seidel's triangle


def _tangent(n: int) -> int:
    """The tangent number T_n, tan z = sum T_n z^(2n-1)/(2n-1)!: the zigzag
    number A_(2n-1), the last entry of row 2n - 1 of Seidel's boustrophedon
    triangle, each row the running sums of the one before read backwards
    (Millar, Sloane and Young, A new operation on sequences: the
    boustrophedon transform, 1996).  The table keeps its last row and
    extends by two rows per tangent number, additions only."""
    while len(_TANGENTS) <= n:
        row = list(accumulate(reversed(_ZIGZAG), initial=0))
        _ZIGZAG[:] = accumulate(reversed(row), initial=0)
        _TANGENTS.append(_ZIGZAG[-1])
    return _TANGENTS[n]


@lru_cache(maxsize=None)
def _em_weight(j: int) -> tuple[int, int]:
    """B_2j/(2j)! as (num, den) in lowest terms, den > 0, for j >= 1:
    (-1)^(j-1) T_j / (4^j (4^j - 1) (2j - 1)!), by one gcd."""
    num = (-1) ** (j - 1) * _tangent(j)
    den = 4 ** j * (4 ** j - 1) * factorial(2 * j - 1)
    g = math.gcd(num, den)
    return num // g, den // g


K_CAP = 10 ** 6
# Largest Euler-Maclaurin order: the most em_tail_shifted's order loop
# reaches and accepts.  At a start u the corrections shrink until j is about
# pi u, so from a start of 32 on every order through 64 serves, and a
# 50-digit gamma_1 stops at its first rung, K = 32 (J = 23).  The cap also
# sets where the term budget ends: past about 1e-620 no rung up to K_CAP
# reaches tol/4 and the gamma routes raise ConvergenceError (about 1e-65 at
# J = 4 alone).
J_PLAN_MAX = 64


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
# (9) a correction past the orders rule (8) takes, c X u^-(e0+i) for a row
#     of order j and weight A (a = A u^-n, n = 2j - 1 <= i), at 2^-2wp: X
#     times F[i] = u^-(e0+i) at 2^-(wp+s_i), s_i = floor(i beta) for a float
#     beta <= log2 u within 1e-6, shifted down s_i bits and scaled by
#     num/den, each floored.  F[0] = R[0], and F[i] = F[i-1] 2^(s_i -
#     s_(i-1)) / u by rule (4) is within 2(i + 1) of its units (2^(s_i -
#     s_k) <= 2 u^(i-k)), and 2^-s_i <= 2.0002 u^-i, so the term is within
#     |c|((5 q G + 4.0004 (i + 1)) M^q A + G) u^-i + 2^(1-wp), at most |c|
#     (2^10 q G M^q a + G u^-n) + 2^(1-wp) as n + 1 <= 131 and (i + 1) u^-i
#     <= (n + 1) u^-n.  A point reaches the row when a <= 2^(h-16), for the
#     call's h extra bits (_TailPoint.reaches): then it is within 2^(h-5)
#     |c| q G M^q + 2^(1-wp).  X's error shrinks with u^-n, where rule (8)
#     would carry A, about 2^380 at j = 65.
#
# em_tail_shifted's one proof: a part of (m, p) reads rows of degree at most
# q = m + 1 (the integral's, at p = 1), and the value has at most 2^4 terms:
# v(start)/2, the integral and the corrections of order j <= DIRECT by rule
# (8), each within B, the sum over the parts of 2^4 q (|c| + 1)(A + 1) G M^q
# units for A, _tail_rows(m, p)'s bound on the rows through DIRECT + 1; and
# every later correction by rule (9), at most J_PLAN_MAX - DIRECT of them,
# within 2^(h+1) |c| q G M^q + 1 over the parts together, at most 2^h B.  So
# at wp = prec + bitlen(B) + TAIL_GUARD + h, for the least h at which the
# points reach every row the call reads (h = 0 through order DIRECT, and
# the order loop raises J only to rows they reach), the value is within
# 2^(h+4) B and each correction within 2^h B, below tail_err() =
# 2^(-prec-3), which the claim adds to the first omitted correction before
# its certificate reads it, and to the certified bound.

# bits of 2^4 (the count of a value's terms) and 2^3 (the margin): see above
TAIL_GUARD = 7
# the orders whose corrections rule (8) takes: the count's 2^4 terms less
# v(start)/2, the integral and the one share of every later order (rule (9))
DIRECT = (1 << (TAIL_GUARD - 3)) - 3


def tail_err() -> mpf:
    """2^(-prec-3): the bound every tail keeps on its value and on each
    correction at the current precision, which its claim adds."""
    return mp.make_mpf(from_man_exp(1, -mp.prec - 3))


class _TailPoint:
    """A tail's point u >= 2, an exact _mpf_, in fixed point at wp = prec +
    guard + h: its logarithm L (rule (1); fixed_log_ints' table at an
    integer u), the powers L^k (rule (2)) through a degree, the chain R[i] =
    u^-(e0 + i) (rule (6)), and the chain F[i] = u^-(e0 + i) at 2^-(wp +
    floor(i beta)) of the corrections past DIRECT (rule (9))."""

    __slots__ = ("u", "wp", "h", "M", "G", "e0", "beta", "powers", "R", "F")

    def __init__(self, u, wp: int, M: int, q: int, e0, h: int = 0):
        _, man, exp, _ = u
        L = (next(fixed_log_ints(man << exp, (man << exp) + 1, wp)) if exp >= 0
             else fixed_log(u, wp))
        self.u, self.wp, self.h, self.M, self.e0 = u, wp, h, M, e0
        self.G, self.beta, self.powers = _inv_bound(u, e0), _log2_below(u), [1 << wp, L]
        self.R = [_inv_first(u, e0, wp, M)]
        self.F = self.R[:]
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

    def fine_term(self, row, k: int, num: int, den: int) -> int:
        """num/den X(L) u^-(e0+k) for the row X = (N, D), at 2^-2wp: rule
        (9)."""
        F, beta = self.F, self.beta
        while len(F) <= k:
            i = len(F)
            F.append(fixed_div(F[-1] << math.floor(i * beta) - math.floor((i - 1) * beta),
                               self.u))
        N, D = row
        X = sum(map(mul, N, self.powers)) // D * F[k] >> math.floor(k * beta)
        return X if num == den else X * num // den

    def reaches(self, A: int, n: int) -> bool:
        """Whether a row of weight A read at u^-n has A u^-n <= 2^(h-16), from
        A 2^16 <= 2^(h + floor(n beta)): rule (9)."""
        return A.bit_length() + 16 <= self.h + math.floor(n * self.beta)

    def falls(self, A: int, A_next: int) -> bool:
        """Whether the next row's weight at u, A_next u^-(n+2), is below
        this row's, A u^-n: A_next < A u^2, exactly."""
        _, man, exp, _ = self.u
        if exp >= 0:
            return A_next < A * man * man << 2 * exp
        return A_next << -2 * exp < A * man * man

    def log_below(self) -> float:
        """A float at most log u: L less its 3M units, rounded down."""
        return math.nextafter((self.powers[1] - 3 * self.M) / (1 << self.wp), -math.inf)


def _inv_bound(u, e0) -> int:
    """G = 2^g >= max(1, u^-e0) for an _mpf_ u >= 1: g from u's magnitude."""
    return 1 if e0 >= 0 else 1 << math.ceil(-e0 * (u[2] + u[3]))


def _log2_below(u) -> float:
    """A float beta <= log2 u within 1e-6, for an _mpf_ u > 0: rule (9)."""
    _, man, exp, _ = u
    return math.log2(man) + exp - 1e-6


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

    A SeriesValue (value, claim, J, "euler_maclaurin", J): v(start)/2 (row 0
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
    _tail_rows' exact weights B_2j/(2j)! P_(2j-1)[k], times u^-(p+2j-1):
    by rule (8) through order DIRECT, by rule (9) past it.  The value is
    the integer sum S 2^-wp (S 2^-2wp past DIRECT), with all its bits,
    within tail_err() = E.

    The claim is em_tail_error(n, a, J, |omitted| + E, d, scale, p) + E for
    the certificate key (n, a, d, scale[, p]) described there (p is 1 when
    the key leaves it out), read at the tail's own point when a = start +
    shift for one of the shifts; with no key, |omitted| + 2E, the
    theta-bound of a completely monotone summand (or the negative of one),
    as hurwitz_em's.  With a bound, J is the least order and rises, at most
    to J_PLAN_MAX, while the claim is not below bound, and past DIRECT
    only while at every part the next rows' weights at u still fall (the
    series' turning point, about j = pi u) and the point reaches them
    (rule (9)): the one order plan of every lattice route.
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
    B = h = 0
    for at, m, p, num, den in parts:
        u, e0, _ = specs[at]
        if u[0] or u[2] + u[3] < 2:
            raise DomainError("em_tail_shifted: every point start + shift must be >= 2")
        rows, _, A = _tail_rows(m, p)
        B += (16 * (m + 1) * (-(-abs(num) // den) + 1) * (A + 1)
              * _log_ceil(u) ** (m + 1) * _inv_bound(u, e0))
        # the bits rule (9) needs at the rows past DIRECT that order J reads
        if J > DIRECT:
            beta = _log2_below(u)
            h = max(h, *(rows[j][1].bit_length() + 16 - math.floor((2 * j - 1) * beta)
                         for j in range(DIRECT + 1, J + 2)))
    wp = mp.prec + B.bit_length() + TAIL_GUARD + h
    points = {at: _TailPoint(u, wp, _log_ceil(u), q, e0, h)
              for at, (u, e0, q) in specs.items()}
    terms = [(points[at], int(p - specs[at][1]), *_tail_rows(m, p)[:2], num, den)
             for at, m, p, num, den in parts]

    # rule (8) reads rows through DIRECT + 1, which _tail_rows builds for A
    S = sum(point.term(rows.built[0][0], k, num, 2 * den)
            for point, k, rows, _, num, den in terms)
    if integral:
        S += sum(point.term(F, k - 1, num, den) for point, k, _, F, num, den in terms)

    def rule8(j):  # B_2j/(2j)! v^(2j-1)(start) at 2^-wp
        return sum(point.term(rows.built[j][0], k + 2 * j - 1, num, den)
                   for point, k, rows, _, num, den in terms)

    def rule9(j):  # the same at 2^-2wp
        return sum(point.fine_term(rows[j][0], k + 2 * j - 1, num, den)
                   for point, k, rows, _, num, den in terms)

    def omitted_at(J):  # order J + 1, by rule (8) through DIRECT + 1
        return rule8(J + 1) if J <= DIRECT else rule9(J + 1)

    def may_raise(J):  # rows J + 1 and J + 2 reached, and their weights falling
        return all(point.falls(rows[J + 1][1], rows[J + 2][1])
                   and point.reaches(rows[J + 1][1], 2 * J + 1)
                   and point.reaches(rows[J + 2][1], 2 * J + 3)
                   for point, _, rows, _, _, _ in terms)

    E = 1 << (wp - mp.prec - 3)
    if key is None:
        def claim(J, omitted):  # omitted at 2^-wp through DIRECT, at 2^-2wp past it
            w = wp if J <= DIRECT else 2 * wp
            return from_fixed(abs(omitted) + (2 * E << w - wp), w)
    else:
        n, a, d, scale, *p_key = key
        p_key = _rational(p_key[0] if p_key else 1)
        at_a = points.get((mpf_sub(_exact(a), start), p_key - math.floor(p_key)))
        E_mpf = from_fixed(E, wp)

        def claim(J, omitted):
            w = wp if J <= DIRECT else 2 * wp
            return em_tail_error(n, a, J, from_fixed(abs(omitted) + (E << w - wp), w), d,
                                 scale, p_key, at_a) + E_mpf

    def settle(J, omitted):  # (claim, whether it is below bound)
        # with no key or d <= 0 the claim is at least |omitted|, so an
        # omitted correction not below bound fails without its certificate
        if (key is None or d <= 0) and not _below(abs(omitted), wp if J <= DIRECT else 2 * wp,
                                                  bound):
            return None, False
        err = claim(J, omitted)
        return err, err < bound

    for j in range(1, min(J, DIRECT) + 1):
        S -= rule8(j)
    fine = -sum(rule9(j) for j in range(DIRECT + 1, J + 1))  # at 2^-2wp
    omitted = omitted_at(J)
    err, done = (claim(J, omitted), True) if bound is None else settle(J, omitted)
    while not done and J < J_PLAN_MAX and (J < DIRECT or may_raise(J)):
        if J < DIRECT:
            S -= omitted
        else:  # order DIRECT + 1 enters the value by rule (9), its claim by (8)
            fine -= rule9(J + 1) if J == DIRECT else omitted
        J += 1
        omitted = omitted_at(J)
        err, done = settle(J, omitted)
    if err is None:
        err = claim(J, omitted)
    value = from_fixed(S, wp) if J <= DIRECT else from_fixed((S << wp) + fine, 2 * wp)
    return SeriesValue(value, err, J, "euler_maclaurin", J)


def _below(X: int, w: int, bound) -> bool:
    """Whether X 2^-w < bound, for an int X >= 0 and an mpf bound, exactly:
    X against bound's mantissa and exponent."""
    sign, man, exp, _ = _exact(bound)
    if not man:  # zero, an infinity or nan
        return bound > 0
    if sign:
        return False
    shift = exp + w
    return X < man << shift if shift >= 0 else X << -shift < man


# 2 log10(pi e), about 1.86: the digits a log lattice's tail gains per term
# of its start (ladder_start)
LADDER_DIGITS_PER_TERM = 2 * math.log10(math.pi * math.e)


def ladder_start(tol) -> int:
    """The first rung K_0 of a log-lattice route's ladder for the digits d =
    tol_digits(tol) asked for: max(8, 2^ceil(log2(d/1.86))).  At a start a
    the order-J correction is about (J/(pi e a))^(2J), 10^(-1.86 a) at J
    near a, so a near d/1.86 splits the work between the partial sum and
    the order loop (Johansson, arXiv:1309.2877, grows both linearly with
    the precision).  The power of two keeps neighbouring digit counts on
    the same lattice points: 8 terms at 12 digits, 16 at 15-20, 32 at
    30-50, 64 at 100 and 128 at 150-200."""
    a = tol_digits(tol) / LADDER_DIGITS_PER_TERM
    return 8 if a <= 8 else 1 << math.ceil(math.log2(a))


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
    fresh one) picks the roots r >= a.  For d <= 0, scale |B_2J+2|/(2J+2)!
    |g(a)| is omitted itself, so |g(a)| is not evaluated again; for d = 1 it
    is the point's fixed-point row of that weight times f^(2J+2), its bound
    added: by rule (8) through order DIRECT, by rule (9) past it where the
    tail's point reaches the row (2^h q G M^q units of 2^-wp), and by rule
    (8) at a fresh point whose bits hold the row's weight elsewhere.
    """
    p = _rational(p)
    if not p > 0:
        raise DomainError("em_tail_error: the key's inverse power p must be > 0")
    if a >= _certified_start(n, J, d, p):
        return omitted
    his, suffix, g_row = _certificate(n, J, d, p)
    k = 2 * J + 1 + d  # g = f^(k), of inverse power e
    e = p + k
    q = n + 1
    fine = (J > DIRECT and d > 0 and point is not None and e - point.e0 >= k
            and point.reaches(g_row[1], k))
    if point is None or e < point.e0 or J > DIRECT and d > 0 and not fine:
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
    if fine:
        X = abs(point.fine_term(row, int(e - point.e0), 1, 1))
        return scale * (from_fixed(X + (q * point.G * point.M ** q << point.wp + point.h),
                                   2 * point.wp) + roots)
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


class _Rows:
    """A table built on demand: reading row k builds every row through k,
    once, each from the one before (row k = step(row k - 1, k)).  len()
    counts the rows built so far.  It has no end, so it is read by index
    and not iterated."""

    __slots__ = ("built", "step")

    def __init__(self, first, step):
        self.built, self.step = [first], step

    def __getitem__(self, k: int):
        built = self.built
        if k >= len(built):
            for i in range(len(built), k + 1):
                built.append(self.step(built[-1], i))
        return built[k]

    def __len__(self) -> int:
        return len(self.built)

    __iter__ = None


@lru_cache(maxsize=POLY_CACHE_MAX)
def _log_polys(m: int, p) -> _Rows:
    """Integer rows R_k, coefficients low degree first, with (d/dt)^k
    [log^m t / t^p] = P_k(log t)/t^(p+k) and P_k = R_k / b^k for p = a/b in
    lowest terms (b = 1 for an int p): d/dt [P(L)/t^(p+k)] = (P'(L) -
    (p+k) P(L))/t^(p+k+1), so R_(k+1) = b R_k' - (a + k b) R_k.  R_k leads
    with (-1)^k prod_(i<k) (a + i b), prime to b, so R_k is P_k with its
    denominators cleared.  Built on demand, through the row a call reads:
    row 2J - 1 for a correction of order J, row 2J + 4 + d, d <= 1, for
    em_tail_error at order J.  Independent of the precision."""
    a, b = p.numerator, p.denominator
    steps = [(j + 1) * b for j in range(m)]

    def step(R, k):
        c = a + (k - 1) * b
        return tuple(s * R[j + 1] - c * R[j] for j, s in enumerate(steps)) + (-c * R[m],)

    return _Rows((0,) * m + (1,), step)


def _weights(row, num: int, den: int) -> tuple[tuple, int]:
    """((N, D), A): the exact weights num c / den of an integer row c, den >
    0, as integers N over their one least denominator D, and A >= sum |w|,
    an int.  w_k's denominator in lowest terms is den / gcd(den, num c_k),
    so D = den / g for g = gcd(den, num gcd(c)), and N_k = num c_k / g."""
    g = math.gcd(den, num * math.gcd(*row))
    N = tuple(num * c // g for c in row)
    D = den // g
    return (N, D), -(-sum(map(abs, N)) // D)


@lru_cache(maxsize=POLY_CACHE_MAX)
def _tail_rows(m: int, p) -> tuple[_Rows, tuple, int]:
    """(rows, integral, A) of log^m t / t^p for em_tail_shifted.  rows[j] =
    ((N, D), A_j), a row over one denominator and an int A_j >= its sum
    |W_k|, built on demand: rows[0] for P_0 = log^m (v(start)), rows[j] for
    B_2j/(2j)! P_(2j-1), j >= 1 (the corrections).  integral is (N, D) of
    the integral's -F, read at u^-(p-1) (F as in em_tail_shifted).  A >=
    every A_j through DIRECT + 1 and the integral's sum, the rows rule (8)
    reads (below 2^38 for m <= 9 at p = 1).  Past them A_j grows about like
    (2j - 1)!/(2 pi)^2j, to below 2^403 at j = 65 for m <= 9 at p = 1,
    which rule (9) reads at u^-(2j-1).  Independent of the precision."""
    P = _log_polys(m, p)
    a, b = p.numerator, p.denominator

    def row(_, j):  # B_2j/(2j)! R_(2j-1) / b^(2j-1)
        num, den = _em_weight(j)
        return _weights(P[2 * j - 1], num, den * b ** (2 * j - 1))

    rows = _Rows(_weights((0,) * m + (1,), 1, 1), row)
    if p == 1:
        integral, A = _weights((0,) * (m + 1) + (-1,), 1, m + 1)
    else:
        # -F_k = -(-1)^(m-k) m!/k! / (1 - p)^(m-k+1), 1 - p = c/b, over c^(m+1)
        c = b - a
        F = [(-1) ** (m - k + 1) * (factorial(m) // factorial(k)) * b ** (m - k + 1) * c ** k
             for k in range(m + 1)]
        den = c ** (m + 1)
        integral, A = _weights(F, 1 if den > 0 else -1, abs(den))
    return rows, integral, max(A, *(rows[j][1] for j in range(DIRECT + 2)))


@lru_cache(maxsize=POLY_CACHE_MAX)
def _certificate(n: int, J: int, d: int = 0, p=1) -> tuple:
    """em_tail_error's table below t_J for f = log^n t / t^p, order J and d:
    (his, suffix, g_row).  his are the upper ends of _root_table's roots,
    increasing; suffix[i] >= w 2 sum_{i' >= i} g_max(r_i'), w = 2|B_2J+2| /
    (2J+2)!, rounded up at 64 bits (suffix[len(his)] = 0); g_row, for d = 1,
    ((N, D), A), the row of w P_(2J+1+d) (_weights).  Independent of x and
    of the precision."""
    table = _root_table(n, J, d, p)
    num, den = _em_weight(J + 1)
    g = math.gcd(2 * num, den)
    w_num, w_den = 2 * abs(num) // g, den // g  # w in lowest terms
    total, suffix = fzero, [fzero]
    for _, g_max in reversed(table):
        total = mpf_add(total, g_max._mpf_)
        suffix.append(mpf_div(mpf_mul(total, from_int(2 * w_num)), from_int(w_den), 64,
                              round_up))
    k = 2 * J + 1 + d
    g_row = (_weights(_log_polys(n, p)[k], w_num, w_den * p.denominator ** k) if d > 0
             else None)
    return (tuple(hi for hi, _ in table), tuple(mp.make_mpf(s) for s in reversed(suffix)),
            g_row)


@lru_cache(maxsize=ROOT_CACHE_MAX)
def _isolated(n: int, k: int, p=1) -> tuple[tuple[Fraction, Fraction], ...]:
    """_real_roots of P_k, f^(k)(t) = P_k(log t)/t^(p+k) for
    f = log^n t / t^p, its denominators cleared (_log_polys' integer row):
    each polynomial is isolated once, for every order and start that reads
    it."""
    return tuple(_real_roots(_log_polys(n, p)[k]))


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
    |Q(lo + h)| <= q_max = sum_j |q_j| (hi - lo)^j from Q's exact Taylor
    coefficients q_j at lo, and t^-e <= exp(-e lo).  For Q = R / b^k
    (_log_polys) and lo = A / 2^E, q_j = u_j / (2^(E(deg-j)) b^k) with u the
    integer Taylor shift by A of R_i 2^(E(deg-i)).  g_max is q_max exp(-e
    lo) in interval arithmetic at 53 bits: q_max and e lo from their
    numerators and denominators in lowest terms, each rounded outward, so
    its upper end is the one _enclosure_hi takes.  Independent of x and of
    the precision.
    """
    k = 2 * J + 1 + d
    R = _log_polys(n, p)[k]
    deg = len(R) - 1
    a, b = p.numerator, p.denominator
    e_num, e_den = a + k * b, b  # e = p + k in lowest terms
    table = []
    for lo, hi in _isolated(n, k + 1, p):
        A, two_E = lo.numerator, lo.denominator
        u = _taylor_shift([c * two_E ** (deg - i) for i, c in enumerate(R)], A)
        w = hi - lo  # 2^-E' or 0
        wn, wd = w.numerator, w.denominator
        # q_max = sum_j |u_j| wn^j wd^(deg-j) 2^(Ej) / (2^(E deg) wd^deg b^k)
        num = sum(abs(c) * wn ** j * wd ** (deg - j) * two_E ** j for j, c in enumerate(u))
        den = (two_E * wd) ** deg * b ** k
        g = math.gcd(num, den)
        table.append((math.nextafter(float(hi), math.inf),
                      mp.make_mpf(_enclosure_hi(num // g, den // g, e_num, A, e_den * two_E))))
    return tuple(table)


def _enclosure_hi(q_num: int, q_den: int, e_num: int, lo_num: int, den: int):
    """The upper end, an _mpf_, of (q_num / q_den) exp(-e_num lo_num / den)
    in mpmath's 53-bit interval arithmetic (iv), for ints q_num, lo_num >= 0
    and e_num, q_den, den > 0: each int an interval rounded outward, then a
    quotient, a product, a quotient, exp and a product, each rounded
    outward.  For these signs mpi_div, mpi_mul and mpi_exp take the upper
    end from the upper and lower ends used here, so the bits are iv's."""
    prec = 53
    if not q_num:
        return fzero
    q_hi = mpf_div(from_int(q_num, prec, round_ceiling), from_int(q_den, prec, round_floor),
                   prec, round_ceiling)
    x_hi = fzero  # of -e_num lo_num / den, at most 0
    if lo_num:
        x_hi = mpf_div(mpf_mul(from_int(-e_num, prec, round_ceiling),
                               from_int(lo_num, prec, round_floor), prec, round_ceiling),
                       from_int(den, prec, round_ceiling), prec, round_ceiling)
    return mpf_mul(q_hi, mpf_exp(x_hi, prec, round_ceiling), prec, round_ceiling)


def _taylor_shift(P, c) -> list:
    """Coefficients of P(w + c), low degree first, for an integer c and
    integer coefficients."""
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
    its shift by 1.  A node with one root keeps the half where P changes
    sign, P's sign at each dyadic midpoint read by one integer Horner pass
    (_sign_at) against its sign just past lo, until it is _ROOT_WIDTH wide:
    the interval that bisecting on the sign changes would reach, without
    counting them.
    """
    deg = len(P) - 1
    if deg < 1:
        return []
    bound = 1 - (-max(map(abs, P)) // abs(P[-1]))  # Cauchy, rounded up
    s = bound.bit_length()
    depth = _ROOT_WIDTH.denominator.bit_length() - 1  # _ROOT_WIDTH = 2^-depth
    roots = []  # (a, b, e): the interval [a, b] 2^-e

    def halve(S):  # 2^deg S(z/2)
        m = len(S) - 1
        return [v << (m - i) for i, v in enumerate(S)]

    def visit(S, a, e):  # the node (a 2^-e, (a + 1) 2^-e), its ends in integers
        while S[0] == 0:  # a root at lo itself
            roots.append((a, a, e))
            S = S[1:]
        count = _sign_changes(_taylor_shift(S[::-1], 1))
        if count == 0:
            return
        if count > 1:
            left = halve(S)
            visit(left, 2 * a, e + 1)
            visit(_taylor_shift(left, 1), 2 * a + 1, e + 1)
            return
        left = S[0] > 0  # P's sign just past lo, and at each later lo
        while e < depth:
            a, e = 2 * a, e + 1
            mid = _sign_at(P, a + 1, e)
            if mid == 0:  # the root is the midpoint
                roots.append((a + 1, a + 1, e))
                return
            if (mid > 0) == left:  # no sign change on the left half
                a += 1
        roots.append((a, a + 1, e))

    visit([v << (s * i) for i, v in enumerate(P)], 0, -s)
    roots = [(Fraction(a << -e if e < 0 else a, 1 << max(e, 0)),
              Fraction(b << -e if e < 0 else b, 1 << max(e, 0))) for a, b, e in roots]
    return [r for r in roots if r[1] > 0]


def _sign_at(P, a: int, e: int) -> int:
    """The sign of P(a 2^-e), -1, 0 or 1, for an integer polynomial P (low
    degree first): 2^(e deg) P(a 2^-e) by one Horner pass in integers."""
    if e <= 0:
        x, acc = a << -e, 0
        for c in reversed(P):
            acc = acc * x + c
    else:
        acc, shift = 0, 0
        for c in reversed(P):
            acc = acc * a + (c << shift)
            shift += e
    return (acc > 0) - (acc < 0)

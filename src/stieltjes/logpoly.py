"""Log-polynomial calculus, the Euler-Maclaurin tail engine and the one
fixed-point kernel for lattice partial sums.

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

Every route that sums such a summand builds its parts list once and hands
it to both halves of the series:

- lattice_sum, the partial sum, in fixed point at wp = prec + guard bits:
  one logarithm and one power chain per lattice point, the coefficients a
  point takes from several parts merged exactly, and one proof (above
  LATTICE_GUARD) that the sum is within 2^-prec; each route adds
  lattice_err() = 2^-prec to its claim.
- em_tail_shifted, the tail: each order from one exact table _log_polys(m,
  p) of the polynomials P_k with (d/dt)^k [log^m t / t^p] = P_k(log t) /
  t^(p+k), by Horner's rule on raw _mpf_ tuples (the libmpf calls of the
  mpf operators, so with their bits), with the weights of em_weights.

The one ladder em_start_for walks K through start * factor^i, calling the
route's probe(K) -> (result, err) once per rung.  Given a bound,
em_tail_shifted's order loop raises J from 4, at most to J_PLAN_MAX, until
the claimed remainder is below it.  That claim is certified at every order
and start: hurwitz_em's (t+x)^-s is completely monotone from its least
order on, so the first omitted correction bounds the remainder; every other
route passes em_tail_error's key (n, a, d, scale, p), which certifies the
remainder by that theta-bound past the certified start t_J and below it
from the total variation of f^(2J+1+d), f = log^n t / t^p, read from the
real roots of the P_k (_isolated, _certified_start, _root_table).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial

from mpmath import bernfrac, iv, log, mp, mpf
from mpmath.libmp import (fzero, from_int, from_man_exp, from_rational,
                          mpf_add, mpf_div, mpf_log, mpf_mul, mpf_pow,
                          mpf_pow_int, to_fixed, to_rational)

from .core import (ConvergenceError, DomainError, PrecTable, SeriesValue,
                   rounding_floor)


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
    """Finite sum of c * log(t)^m / t^p terms, {(m, p): c}; em_tail takes a
    single one.  log^0 t is 1 everywhere, so at t = 1 only m = 0 remains."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        if any(m < 0 or p < 0 for m, p in terms):
            raise DomainError("LogPoly: powers must be >= 0")
        self.terms = {k: mpf(c) for k, c in terms.items() if c}

    @classmethod
    def single(cls, coeff, log_power: int, inv_power: int) -> "LogPoly":
        return cls({(log_power, inv_power): mpf(coeff)})

    def __call__(self, t) -> mpf:
        t = mpf(t)
        lt = log(t)
        total = mpf(0)
        for (m, p), c in self.terms.items():
            total += c * lt ** m / t ** p
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
    those of the sum written out term by term.  The relative-accurate step
    of the single boundary terms; the lattice loops take the fixed-point
    fixed_step.
    """
    delta = log(mpf(b) / a)
    lb = la + delta
    s = p = mpf(1)
    for _ in range(q - 1):
        p *= la
        s = s * lb + p
    return delta * s


# Every lattice partial sum runs in fixed point: an int X stands for
# X 2^-wp.  Errors are counted in units of 2^-wp, with M a power of two
# >= max(1, |log u|) over the points u a sum reads; each is far below 2^wp,
# so a product's second-order error term is absorbed by the constants.
#
# (1) fixed_log: mpf_log at wp is within 2 |log u| units (an ulp of its
#     mantissa, relative), and to_fixed floors: |L - log u| <= 3M.
# (2) fixed_pow: P_i = floor(P_(i-1) L / 2^wp) is within 5 i M^i of
#     log^i u, by induction: (M + 2^-20) 5(i-1) M^(i-1) + 3M M^(i-1) + 1.
# (3) a rational c = num / (2^sh den), den odd, applied to X as
#     floor(floor(X num / 2^sh) / den): within |c| e_X + 2.
# (4) fixed_div: X/u for an exact dyadic u, floored: within e_X/u + 1.
# (5) fixed_mul: X c for an exact dyadic c, floored: within |c| e_X + 1.
#
# lattice_sum's one proof: a run of points that take the same merged terms
# (m, p, c) sums, for each, P_m(u) or P_m(u)/u for p = 1 over them (rules (1),
# (2), (4), or fixed_log_sum for m = 1, p = 0 alone: within 5 q M^q s + 1
# each, s = max(1, 1/u)) and applies each c once (rule (3)); a merged |c| is
# at most the sum of the |c| it merges.  With C the sum of |c| over the parts
# list and T its length, each point is within (5 q M^q s + 1) C + 2 T <=
# 2^3 q M^q (C + T) s units.  lattice_wp adds
# guard bits for the N points of a call at 2^7 q^2 M^q scale each, scale =
# (C + T) s / 2^4 rounded up, and 3 more, so the integer sum S is within
# 2^(-prec-3) of the exact partial sum; S 2^-wp is returned as one mpf with
# all its bits.  (R. Brent and P. Zimmermann, Modern Computer Arithmetic,
# CUP 2010, ch. 3-4, for the fixed-point technique.)

# bits of 2^7 (the per-point constant) and 2^3 (the margin): see above
LATTICE_GUARD = 10


def lattice_wp(K: int, q: int, lo: int, hi: int, scale: int) -> int:
    """Working bits of a fixed-point sum of K terms over points u from
    2^(lo-1) to 2^hi (magnitudes exp + bc of the end points' _mpf_
    tuples), with log powers up to q and multipliers up to the int scale
    >= 1: prec + bitlen(K) + q bitlen(M) + 2 bitlen(q) + bitlen(scale) +
    LATTICE_GUARD, so that K terms of 2^7 q^2 M^q scale units sum to at most
    2^(-prec-3).  M >= max(1, |log u|) reads the ends, where |log u| is
    largest, each u in [2^(mag-1), 2^mag) with |log u| <= |log2 u|."""
    M = max(1, abs(lo), abs(lo - 1), abs(hi), abs(hi - 1))
    return (mp.prec + K.bit_length() + q * M.bit_length() + 2 * q.bit_length()
            + scale.bit_length() + LATTICE_GUARD)


def lattice_err() -> mpf:
    """2^-prec: the bound every lattice sum keeps at the current precision,
    which each route adds to its claim."""
    return mp.make_mpf(from_man_exp(1, -mp.prec))


def fixed_log(u, wp: int) -> int:
    """log u in fixed point for an _mpf_ u > 0: rule (1)."""
    return to_fixed(mpf_log(u, wp), wp)


# log n for 1 <= n <= INT_LOG_CAP in fixed point at prec + INT_LOG_GUARD
# bits, per precision: the integer lattice points the routes share
INT_LOG_CAP = 1 << 12
INT_LOG_GUARD = 64
_INT_LOGS = PrecTable()


def fixed_log_ints(lo: int, hi: int, wp: int):
    """log n in fixed point for lo <= n < hi: rule (1).

    Where n <= INT_LOG_CAP and wp <= P = prec + INT_LOG_GUARD, log n is the
    table's fixed_log at P shifted down to wp, within (2 |log n| + 1)/2^(P-wp)
    + 1 <= 3M units (log 1 = 0 exactly); elsewhere it is fixed_log at wp.
    The table keeps each entry the routes ask for and holds at most
    INT_LOG_CAP entries per precision, whatever K is."""
    P = mp.prec + INT_LOG_GUARD
    top = lo
    if wp <= P:
        logs = _INT_LOGS.at_prec()
        top = max(lo, min(hi, INT_LOG_CAP + 1))
        shift = P - wp
        for n in range(lo, top):
            L = logs.get(n)
            if L is None:
                L = logs[n] = fixed_log(from_int(n), P)
            yield L >> shift
    for n in range(top, hi):
        yield fixed_log(from_int(n), wp)


# a product of lattice points is taken to one logarithm once it passes this
# many times the working bits
LOG_PRODUCT_PRECS = 8


def fixed_log_sum(us, wp: int) -> int:
    """sum log u over the _mpf_ points us > 0 in fixed point, from the
    logarithms of their exact products of at most about LOG_PRODUCT_PRECS wp
    bits: rule (1) for each, within 2 sum |log u| + 1, so 3M per point."""
    S, man, exp = 0, 1, 0
    for _, m, e, _ in us:
        man, exp = man * m, exp + e
        if man.bit_length() > LOG_PRODUCT_PRECS * wp:
            S, man, exp = S + fixed_log(from_man_exp(man, exp), wp), 1, 0
    return S + fixed_log(from_man_exp(man, exp), wp)


def fixed_pow(L: int, n: int, wp: int) -> int:
    """L^n in fixed point by n products, the first exact: rule (2)."""
    P = 1 << wp
    for _ in range(n):
        P = P * L >> wp
    return P


def fixed_div(X: int, u) -> int:
    """X / u in fixed point for an _mpf_ u > 0, through its exact mantissa
    and exponent: rule (4)."""
    _, man, exp, _ = u
    return (X << -exp) // man if exp < 0 else X // (man << exp)


def fixed_mul(X: int, c) -> int:
    """X c in fixed point for an _mpf_ c, through its exact mantissa and
    exponent: rule (5)."""
    sign, man, exp, _ = c
    if sign:
        man = -man
    return X * man >> -exp if exp < 0 else X * man << exp


def from_fixed(S: int, wp: int) -> mpf:
    """The fixed-point S as one mpf, exactly."""
    return mp.make_mpf(from_man_exp(S, -wp))


# shifts whose exact difference is an integer of at most CARRY_WINDOW share
# one stream of lattice points
CARRY_WINDOW = 2


def lattice_sum(parts):
    """The lattice partial sum of a summand given by its parts (c, shift, m,
    p), p in {0, 1}, v(k) = sum c log^m(k + shift) / (k + shift)^p, the
    tuples em_tail_shifted reads: a function (lo, hi) -> sum_{lo <= k < hi}
    v(k), within 2^(-prec-3) of the exact sum (the proof above
    LATTICE_GUARD), its working bits from lattice_wp at each call.

    Each c (an int, a Fraction such as -1/q, or an mpf) and each shift (an
    int or an mpf) is read exactly, an mpf through its _mpf_ tuple: form
    x - 1 or x + 1 with mp.fsub/mp.fadd at exact=True.  Shifts whose
    difference is an integer of at most CARRY_WINDOW share one stream, so
    each point takes one logarithm (fixed_log_ints' on integer points) and
    one power chain L, ..., L^q; shifts further apart, such as 0 and x = 500,
    keep separate streams.  The coefficients a point takes from its offsets
    are summed exactly and applied once per run of points that take the
    same ones: a telescoped step log^q(u+1) - log^q u costs nothing inside
    a range, a run of m = 0 alone takes no logarithm, and one of m = 1,
    p = 0 alone takes those of exact products (fixed_log_sum).  Every point
    must be > 0.
    """
    q, weight, rows = 1, len(parts), []
    for c, shift, m, p in parts:
        if p not in (0, 1) or m < 0:
            raise DomainError("lattice_sum: a part needs m >= 0 and p in {0, 1}")
        num, den = to_rational(c._mpf_) if type(c) is mpf else (c.numerator, c.denominator)
        sn, sd = to_rational(shift._mpf_) if type(shift) is mpf else (shift, 1)
        if type(sn) is not int or sd & (sd - 1):
            raise DomainError("lattice_sum: a shift must be an int or an mpf")
        q, weight = max(q, m), weight - (-abs(num) // den)
        rows.append((sn, sd, m, p, num, den))
    # every shift as an integer over one power of two D, ascending; each
    # stream (start, offsets {d: [(m, p, num, den)]}) from its least shift
    D = max(row[1] for row in rows)
    scaled = sorted((sn * (D // sd), m, p, num, den) for sn, sd, m, p, num, den in rows)
    starts = []
    for shift, m, p, num, den in scaled:
        for start, offsets in starts:
            d, r = divmod(shift - start, D)
            if not r and d <= CARRY_WINDOW:
                break
        else:
            d, offsets = 0, {}
            starts.append((shift, offsets))
        offsets.setdefault(d, []).append((m, p, num, den))
    # (int base or None, exact _mpf_ base, offsets, span)
    streams = [(start // D if start % D == 0 else None,
                from_man_exp(start, 1 - D.bit_length()), offsets, max(offsets))
               for start, offsets in starts]
    least, largest, merged = scaled[0][0], scaled[-1][0], {}
    spans, e = sum(s[3] for s in streams), D.bit_length() - 1

    def run_terms(offsets, active):
        # (m, p, num, sh, den) for each nonzero summed coefficient of the
        # offsets in active, ordered by m: rule (3)'s c = num / (2^sh den)
        terms = merged.get((id(offsets), active))
        if terms is None:
            total = {}
            for d in active:
                for m, p, num, den in offsets[d]:
                    n0, d0 = total.get((m, p), (0, 1))
                    total[m, p] = (n0 * den + num * d0, d0 * den)
            terms = merged[id(offsets), active] = tuple(
                (m, p, num, (den & -den).bit_length() - 1, den // (den & -den))
                for (m, p), (num, den) in sorted(total.items()) if num)
        return terms

    def total(lo: int, hi: int) -> mpf:
        first = least + lo * D  # the first point, scaled by D = 2^e
        if first <= 0:
            raise DomainError("lattice_sum: every point must be > 0")
        # the magnitude of u = first/D; (C + T) s / 2^4 rounded up, s = 1/u
        # <= 2^(1 - mag) at u < 1
        mag = first.bit_length() - e
        scale = max(1, ((weight << max(0, 1 - mag)) + 15) >> 4)
        wp = lattice_wp(len(streams) * (hi - lo) + spans, q, mag,
                        (largest + (hi - 1) * D).bit_length() - e, scale)
        one, S = 1 << wp, 0
        for stream in streams:
            base, exact, offsets, span = stream
            # the points in [a, b) take the offsets d with a - d in [lo, hi)
            cuts = sorted({d + k for d in offsets for k in (lo, hi)}) if span else (lo, hi)
            for a, b in zip(cuts, cuts[1:]):
                terms = run_terms(offsets, tuple(d for d in offsets if a - hi < d <= a - lo))
                if not terms:
                    continue
                top = terms[-1][0]
                if base is not None:
                    us = range(base + a, base + b)
                    logs = list(fixed_log_ints(base + a, base + b, wp)) if top else None
                else:
                    us = [mpf_add(exact, from_int(j)) for j in range(a, b)]
                    if terms[0][:2] == (1, 0) and len(terms) == 1:
                        _, _, num, sh, den = terms[0]
                        S += (fixed_log_sum(us, wp) * num >> sh) // den
                        continue
                    logs = [fixed_log(u, wp) for u in us] if top else None
                for m, p, num, sh, den in terms:
                    X, chain = 0, range(m - 1)
                    for u, L in zip(us, logs or repeat(0)):
                        P = L if m else one
                        for _ in chain:
                            P = P * L >> wp
                        X += (P // u if type(u) is int else fixed_div(P, u)) if p else P
                    S += (X * num >> sh) // den
        return from_fixed(S, wp)

    return total


K_CAP = 10 ** 6
# Largest Euler-Maclaurin order: the most em_tail_shifted's order loop
# reaches and em_tail accepts.  J = 13 is the smallest order that takes a
# 50-digit gamma_1 to the second rung (K = 128).  The cap also sets where the
# term budget ends: past about 1e-175 no rung up to K_CAP reaches tol/4 and
# the gamma routes raise ConvergenceError (about 1e-65 at J = 4 alone).
J_PLAN_MAX = 13


def em_tail(f: LogPoly, start, J: int = 4, bound=None,
            floor: bool = True) -> SeriesValue:
    """sum_{k>=0} f(start + k) - int_start^inf f(t) dt by Euler-Maclaurin,
    for a single term f = c log^m t / t^p, p >= 1, and a start >= 2.

    Value = f(start)/2 - sum_{j<=J} B_2j/(2j)! f^(2j-1)(start); terms_used is
    J, at most J_PLAN_MAX, rising from J as in em_tail_shifted when a bound
    is given.  abs_err is the certified remainder bound em_tail_error of
    the key (m, start, 0, |c|, p), plus rounding_floor(value) unless
    floor=False (the lattice routes add their own floor to the whole sum).
    A LogPoly of several terms raises DomainError: its remainder has no
    certificate here (em_tail_shifted takes such a summand with its key).
    """
    if not f.terms:
        return SeriesValue(mpf(0), mpf(0), 1, "euler_maclaurin")
    if len(f.terms) > 1:
        raise DomainError("em_tail: f must be a single term c log^m t / t^p")
    (m, p), c = next(iter(f.terms.items()))
    if p < 1:
        raise DomainError("em_tail: term with inv_power = 0 has a divergent tail")
    if J > J_PLAN_MAX:
        raise DomainError(f"em_tail: correction order J must be <= {J_PLAN_MAX}")
    start = mpf(start)
    if start < 2:
        raise DomainError("em_tail: start must be >= 2")
    value, err, J = em_tail_shifted([(c, 0, m, p)], f(start), 0, start, J, bound,
                                    (m, start, 0, abs(c), p))
    if floor:
        err += rounding_floor(value)
    return SeriesValue(value, err, J, "euler_maclaurin")


# j -> B_2j/(2j)!: one list per working precision, indexed by j >= 1
_EM_WEIGHTS = PrecTable()


def em_weights(J: int) -> list:
    """B_2j/(2j)! for 1 <= j <= J (index 0 is unused), kept per working
    precision: the weights of every Euler-Maclaurin correction and
    certificate."""
    weights = _EM_WEIGHTS.at_prec().setdefault(0, [None])
    for j in range(len(weights), J + 1):
        weights.append(bernoulli_mpf(2 * j) / factorial(2 * j))
    return weights


def em_tail_shifted(v, v_at_start, integral, start, J: int = 4, bound=None,
                    key=None) -> tuple[mpf, mpf, int]:
    """sum_{k>=0} v(start + k) for v given by its parts (c, shift, m, p),
    v(t) = sum c log^m(t + shift) / (t + shift)^p, where the caller supplies
    v(start) and the closed-form int_start^inf v(t) dt; a c is an int, an
    mpf or a Fraction, rounded once to the working precision.

    Returns (value, err, J): the integral plus v(start)/2 minus the
    Bernoulli corrections B_2j/(2j)! v^(2j-1)(start) of order j <= J, the
    claimed remainder, and J.  Each distinct point u = start + shift takes
    its logarithm once; order i of a part is c P_i(log u)/u^(p+i), one
    Horner's rule over the row P_i of _log_polys(m, p), p an int or an mpf
    read exactly (_rational), u^(p+i) by mpf_pow_int or mpf_pow.

    The claim is em_tail_error(n, a, J, |omitted|, d, scale, p) for the
    certificate key (n, a, d, scale[, p]) described there (p is 1 when the
    key leaves it out); with no key, the magnitude of the first omitted
    correction, the theta-bound of a completely monotone summand (or the
    negative of one), as hurwitz_em's.  With a bound, J is the least order
    and rises, at most to J_PLAN_MAX, while the claim is not below bound:
    the one order plan of every lattice route.  The value has the bits of a
    call at the order reached.
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
        c = (from_rational(c.numerator, c.denominator, prec, rnd)
             if type(c) is Fraction else mpf(c)._mpf_)
        p = _rational(p)
        terms.append((c, point, _log_polys(m, p), p))
    weights = em_weights(J_PLAN_MAX + 1)

    def at(i):  # v^(i)(start)
        total = fzero
        for c, (u, lu, upow), rows, p in terms:
            up = upow.get(p + i)
            if up is None:
                up = upow[p + i] = _pow(u, p + i, prec, rnd)
            ratio = mpf_div(_horner(rows[i], lu, prec, rnd), up, prec, rnd)
            total = mpf_add(total, mpf_mul(c, ratio, prec, rnd), prec, rnd)
        return mp.make_mpf(total)

    def correction(j):
        return weights[j] * at(2 * j - 1)

    if key is None:
        def claim(J, omitted):
            return abs(omitted)
    else:
        n, a, *rest = key
        log_a = log(a)

        def claim(J, omitted):
            return em_tail_error(n, a, J, abs(omitted), *rest, log_a=log_a)

    value = mpf(integral) + mpf(v_at_start) / 2
    for j in range(1, J + 1):
        value -= correction(j)
    omitted = correction(J + 1)
    err = claim(J, omitted)
    if bound is not None:
        while not err < bound and J < J_PLAN_MAX:
            value -= omitted
            J += 1
            omitted = correction(J + 1)
            err = claim(J, omitted)
    return value, err, J


def em_start_for(probe, bound, start: int, factor: int = 4) -> tuple:
    """(K, result, err) for the first rung K of the ladder start * factor^i
    whose probe(K) = (result, err) claims err below bound.

    Each rung is probed once, and the winning probe's result is returned
    with its K.  Raises ConvergenceError before it probes a rung past K_CAP:
    the partial sum would need more terms than the library spends on one
    series.
    """
    K = start
    while K <= K_CAP:
        result, err = probe(K)
        if err < bound:
            return K, result, err
        K *= factor
    raise ConvergenceError(
        f"tolerance unreachable within {K_CAP} series terms; raise tol")


# the isolating interval of each root is refined to this width in log t
_ROOT_WIDTH = Fraction(1, 2 ** 16)


def em_tail_error(n: int, a, J: int, omitted, d: int = 0, scale=1, p=1,
                  log_a=None) -> mpf:
    """Certified bound on the remainder of the order-J Euler-Maclaurin tail
    of a summand v whose first omitted correction has magnitude omitted.
    (n, a, d, scale, p) is v's certificate key, for f = log^n t / t^p with
    a rational p > 0 (an int, or an mpf, read exactly):

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
    roots r >= a, each |g(r)| taken from _root_table's enclosure.  For
    d <= 0, scale |B_2J+2|/(2J+2)! |g(a)| is omitted itself, so |g(a)| is
    not evaluated again.  log_a, when given, is log a: the order loop takes
    it once per start.
    """
    p = _rational(p)
    if not p > 0:
        raise DomainError("em_tail_error: the key's inverse power p must be > 0")
    if a >= _certified_start(n, J, d, p):
        return omitted
    La = log(a) if log_a is None else log_a
    weight = 2 * abs(em_weights(J + 1)[J + 1])
    # float(La) is within half an ulp of log a, and each hi was rounded up
    # past its root by at least that much, so no root r >= a is missed
    L = float(La)
    roots = 2 * sum(g for hi, g in _root_table(n, J, d, p) if hi >= L)
    if d <= 0:
        return 2 * omitted + scale * weight * roots
    prec, rnd = mp._prec_rounding
    g_a = mp.make_mpf(_horner(_log_polys(n, p)[2 * J + 1 + d], La._mpf_, prec, rnd))
    a_pow = mp.make_mpf(_pow(mpf(a)._mpf_, p + 2 * J + 1 + d, prec, rnd))
    return scale * weight * (abs(g_a) / a_pow + roots)


def _rational(p):
    """p exactly: an int as it is, an mpf (a dyadic rational) as a Fraction,
    or as an int when it is whole."""
    if type(p) is int:
        return p
    num, den = to_rational(mpf(p)._mpf_)
    return num if den == 1 else Fraction(num, den)


def _pow(u, e, prec: int, rnd) -> tuple:
    """u^e for an _mpf_ tuple u > 0 and an int or dyadic Fraction e, rounded
    at (prec, rnd): mpf_pow_int for an int, else mpf_pow at e exactly."""
    if type(e) is int:
        return mpf_pow_int(u, e, prec, rnd)
    return mpf_pow(u, from_man_exp(e.numerator, 1 - e.denominator.bit_length()),
                   prec, rnd)


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


def _horner(P, L, prec: int, rnd) -> tuple:
    """P(L) for int or Fraction coefficients P, low degree first, by
    Horner's rule on the _mpf_ tuple L, rounded at (prec, rnd); a Fraction
    enters through from_rational."""
    s = fzero
    for c in reversed(P):
        c = (from_int(c) if type(c) is int
             else from_rational(c.numerator, c.denominator, prec, rnd))
        s = mpf_add(mpf_mul(s, L, prec, rnd), c, prec, rnd)
    return s


@lru_cache(maxsize=ROOT_CACHE_MAX)
def _isolated(n: int, k: int, p=1) -> tuple[tuple[Fraction, Fraction], ...]:
    """_real_roots of P_k, f^(k)(t) = P_k(log t)/t^(p+k) for
    f = log^n t / t^p, its denominators cleared: each polynomial is
    isolated once, for every order and start that reads it."""
    P = _log_polys(n, p)[k]
    den = math.lcm(*(c.denominator for c in P))
    return tuple(_real_roots([int(c * den) for c in P]))


@lru_cache(maxsize=ROOT_CACHE_MAX)
def _certified_start(n: int, J: int, d: int = 0, p=1) -> float:
    """The certified start t_J of order J: past the last real root of
    f^(2J+2+d) and of f^(2J+4+d), f = log^n t / t^p, so that both keep
    their eventual sign (-1)^d on [t_J, inf).

    exp of the largest isolating interval's upper end (0 when neither has
    a root t > 1), rounded up, so that a >= t_J implies that log a is past
    every root.
    """
    last = max((hi for k in (2 * J + 2 + d, 2 * J + 4 + d)
                for _, hi in _isolated(n, k, p)), default=0)
    return math.exp(math.nextafter(float(last), math.inf)) * (1 + 1e-12)


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

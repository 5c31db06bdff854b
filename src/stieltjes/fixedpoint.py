"""The fixed-point kernel: an int X stands for X 2^-wp at wp = prec + guard
bits, and every operation is one of five rules, each with a stated error in
units of 2^-wp (the comment above LATTICE_GUARD).  The lattice partial sums
(lattice_sum, and gamma's coffey loop) run on it, and so does logpoly's
Euler-Maclaurin tail, whose rules (6)-(8) build on these.  Each route adds
the bound of its sum (lattice_err(), logpoly.tail_err()) to its claim.
(R. Brent and P. Zimmermann, Modern Computer Arithmetic, CUP 2010, ch. 3-4,
for the fixed-point technique.)
"""

from __future__ import annotations

from itertools import repeat

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_log, to_fixed, to_rational
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, ln2_fixed, log_taylor_cached

from .core import DomainError, PrecTable


# An int X stands for X 2^-wp.  Errors are counted in units of 2^-wp, with
# M >= max(1, |log u|) over the points u a sum reads (lattice_wp takes a
# power of two); each is far below 2^wp, so a product's second-order error
# term is absorbed by the constants.
#
# (1) fixed_log: log u = log(m 2^-w) + E ln 2 at w = wp + LOG_GUARD bits,
#     for u = m 2^(E-w) with m u's mantissa scaled to [2^(w-1), 2^w) (or
#     truncated to it, within 2 units of 2^-w in the logarithm): the core
#     log_taylor_cached(m, w) that mpf_log itself takes is within 2^9 units
#     of 2^-w (at most w/36 + 2 series terms of two floors each, doubled, and
#     log a from its cache at 20 or more extra bits), and ln2_fixed(w) within
#     one, so E ln 2 within |E| <= |log2 u| + 1 <= 3M units of 2^-w; a
#     power of two takes (E - 1) ln 2 alone (log 1 = 0 exactly).  Shifted
#     down LOG_GUARD bits, floored: |L - log u| <= 1 + (2^9 + 2 + 3M) 2^-20
#     <= 3M.  Past w = LOG_TAYLOR_PREC, where mpmath takes the AGM, L is
#     mpf_log at wp (within 2 |log u| units, an ulp of its mantissa,
#     relative), floored by to_fixed: again within 3M.
# (2) fixed_pow: P_i = floor(P_(i-1) L / 2^wp) is within 5 i M^i of
#     log^i u, by induction: (M + 2^-20) 5(i-1) M^(i-1) + 3M M^(i-1) + 1.
# (3) a rational c = num / (2^sh den), den odd, applied to X as
#     floor(floor(X num / 2^sh) / den): within |c| e_X + 2.
# (4) fixed_div: X/u for an exact dyadic u, floored: within e_X/u + 1.
# (5) X c for an exact dyadic c = C/2^s, as X C >> s, floored: within
#     |c| e_X + 1.
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
# all its bits.

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


# the guard bits fixed_log's core takes past wp, as mpf_log does
LOG_GUARD = 20


def fixed_log(u, wp: int) -> int:
    """log u in fixed point for an _mpf_ u > 0: rule (1).  mpmath's Taylor
    core log_taylor_cached(m, w) plus E ln2_fixed(w) at w = wp + LOG_GUARD,
    shifted down to wp and so floored, with no mpf round trip; mpf_log where
    w passes LOG_TAYLOR_PREC."""
    _, man, exp, bc = u
    w = wp + LOG_GUARD
    if w > LOG_TAYLOR_PREC:
        return to_fixed(mpf_log(u, wp), wp)
    if man == 1:
        return exp * ln2_fixed(w) >> LOG_GUARD
    L = log_taylor_cached(man << w - bc if bc <= w else man >> bc - w, w)
    if exp + bc:
        L += (exp + bc) * ln2_fixed(w)
    return L >> LOG_GUARD


# log n for 1 <= n <= INT_LOG_CAP in fixed point at prec + INT_LOG_GUARD
# bits, per precision: the integer lattice points the routes share
INT_LOG_CAP = 1 << 12
INT_LOG_GUARD = 64
_INT_LOGS = PrecTable()


def fixed_log_ints(lo: int, hi: int, wp: int):
    """log n in fixed point for lo <= n < hi: rule (1).

    Where n <= INT_LOG_CAP and wp <= P = prec + INT_LOG_GUARD, log n is the
    table's fixed_log at P shifted down to wp, within 3M/2^(P-wp) + 1 <= 3M
    units (log 1 = 0 exactly); elsewhere it is fixed_log at wp.
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


# an exact product is taken to one logarithm once it passes this many times
# the working bits: fixed_log_sum's lattice points, related._log_factorials'
# consecutive integers
LOG_PRODUCT_PRECS = 8


def fixed_log_sum(us, wp: int) -> int:
    """sum log u over the _mpf_ points us > 0 in fixed point, from the
    logarithms of their exact products of at most about LOG_PRODUCT_PRECS wp
    bits: rule (1) for each, within 3 max(1, sum |log u|), so 3M per point."""
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


def from_fixed(S: int, wp: int) -> mpf:
    """The fixed-point S as one mpf, exactly."""
    return mp.make_mpf(from_man_exp(S, -wp))


def lattice_points(x, a: int, b: int):
    """The points x + j for a <= j < b of an _mpf_ x, each the exact tuple
    mpf_add(x, from_int(j)) returns, every one of them > 0: for x not an
    integer, the odd mantissa +-man + (j << -exp) at x's own exponent, so no
    mpf_add per point."""
    sign, man, exp, _ = x
    if exp >= 0:
        n = (-man if sign else man) << exp
        for j in range(a, b):
            yield from_int(n + j)
        return
    step = 1 << -exp
    first = (-man if sign else man) + a * step
    for n in range(first, first + (b - a) * step, step):
        yield 0, n, exp, n.bit_length()


# shifts whose exact difference is an integer of at most CARRY_WINDOW share
# one stream of lattice points
CARRY_WINDOW = 2


def lattice_sum(parts):
    """The lattice partial sum of a summand given by its parts (c, shift, m,
    p), p in {0, 1}, v(k) = sum c log^m(k + shift) / (k + shift)^p, the
    tuples logpoly.em_tail_shifted reads: a function (lo, hi) ->
    sum_{lo <= k < hi} v(k), within 2^(-prec-3) of the exact sum (the proof
    above LATTICE_GUARD), its working bits from lattice_wp at each call.

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
                    us = list(lattice_points(exact, a, b))
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

"""Precision substrate: working-precision policy, exact summation,
series-value container, bisection, and alternating-series acceleration.

All real arithmetic runs on mpmath ``mpf`` values, or on their raw
``_mpf_`` tuples through the libmpf calls the mpf operators make, so with the
same bits; the lattice partial sums and the Euler-Maclaurin tails run on
the fixed-point kernel (fixedpoint), each within a stated bound that its
claim adds.  Public entry points accept a target tolerance and run at a
working precision of at least twice the requested number of digits
(log10 of tol at 53 bits, memoised per tolerance), so results
carry genuine (not optimistic) error claims.  Every function here is a pure
function of its arguments; repeated calls with identical inputs and
precision produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, sqrt, workprec
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_mul_int, mpf_shift, mpf_sum

GUARD_DIGITS = 8
# Precisions a PrecTable holds at once.  A request mix runs its lattice
# routes at a few working precisions (a gamma_1 ladder from 12 to 50 digits
# uses seven); past the cap the least recently used precision is dropped.
PREC_TABLES_MAX = 8
# Entries PrecTable.get keeps per precision, the least recently used dropped
# past it: a table of gamma_1(p/q) over p at one tolerance reads 2(q - 1)
# nodes and four constants.
PREC_TABLE_ENTRIES_MAX = 256


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(ArithmeticError):
    """The requested tolerance cannot be met within the allowed budget."""


def default_tol() -> mpf:
    """Half the ambient precision, the safe default for series truncation."""
    return mpf(10) ** (-(mp.dps // 2))


def tol_digits(tol) -> int:
    """Decimal digits a tolerance of ``tol`` asks for: ceil of -log10 tol,
    the logarithm rounded to 53 bits, so that the count reads tol's value
    and not the precision it is read at (mpf("1e-12") parsed at 15 digits
    lies a little below 1e-12, and at 34 digits -log10 of it would read
    just past 12)."""
    tol = mpf(tol)
    if not 0 < tol < mp.inf:
        raise DomainError("tolerance must be positive and finite")
    return _tol_digits(tol._mpf_)


def check_order(n, top: int, what: str) -> None:
    """DomainError unless the order n is an int in 0..top."""
    if type(n) is not int or not 0 <= n <= top:
        raise DomainError(f"{what}: order must be an int in 0..{top}")


# Distinct tolerances a run reads: a request mix asks a few, so the cache
# hits on nearly every call.
TOL_DIGITS_CACHE_MAX = 256


@lru_cache(maxsize=TOL_DIGITS_CACHE_MAX)
def _tol_digits(tol_mpf) -> int:
    with workprec(53):
        return max(1, int(mp.ceil(-mp.log10(mp.make_mpf(tol_mpf)))))


def working_dps(tol) -> int:
    """Working precision for a target tolerance: at least 2x the requested
    digits, never below the ambient setting, plus guard digits for internal
    cancellation."""
    return max(mp.dps, 2 * tol_digits(tol)) + GUARD_DIGITS


# most guard digits head_guard adds for a route's largest term
HEAD_GUARD_MAX = 100


def head_guard(size, tol, dps: int, what: str) -> int:
    """Guard digits past dps >= working_dps(tol) that hold the rounding
    floor of a route's largest term v, log10 |v| = size, below tol/64: at d
    digits that floor is (|v| + 1) 2^(6 - prec) <= (|v| + 1) 9.1 * 10^-d,
    so d >= D = log10(|v| + 1) + tol_digits(tol) + 3 holds it.  As dps >=
    2 tol_digits(tol) + 8, D <= dps wherever log10(|v| + 1) <= (dps + 2)/2,
    and tol is not read.  Past HEAD_GUARD_MAX digits: ConvergenceError.
    """
    digits = math.ceil(max(size, 0) + math.log10(1 + 10.0 ** -abs(size)))
    if 2 * digits <= dps + 2:
        return 0
    guard = max(0, digits + tol_digits(tol) + 3 - dps)
    if guard > HEAD_GUARD_MAX:
        raise ConvergenceError(
            f"{what}: the largest term, about 1e{size:.0f}, needs {guard} guard "
            f"digits to hold tol {mp.nstr(tol, 3)}, over the budget of "
            f"{HEAD_GUARD_MAX}")
    return guard


def log_abs(v) -> float:
    """log |v| of a nonzero mpf as a float, from its mantissa and exponent:
    defined where float(v) would underflow or overflow."""
    _, man, exp, _ = mpf(v)._mpf_
    return math.log(man) + exp * math.log(2)


def _rounding_floor(v, prec: int, rnd):
    # (|v| + 1) 2^(6 - prec) as the mpf operators take it: |v| and the sum
    # rounded at prec, the power of two exact
    return mpf_shift(mpf_add(mpf_abs(v, prec, rnd), fone, prec, rnd), 6 - prec)


def _mpf_of(v):
    return v._mpf_ if isinstance(v, mpf) else mpf(v)._mpf_


def rounding_floor(value) -> mpf:
    """Rounding dust of a value assembled at the current working precision:
    (|value| + 1) 2^(6 - prec), by the libmpf calls the mpf operators make,
    so with their bits."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpf(_rounding_floor(_mpf_of(value), prec, rnd))


def tail_claim(err, value) -> mpf:
    """Claimed bound for a value whose Euler-Maclaurin remainder is bounded
    by ``err``, a certified remainder bound in every caller: err is padded
    by a quarter, 5 err / 4, then the rounding floor is added, by the libmpf
    calls of the mpf operators at the same precision and rounding."""
    prec, rnd = mp._prec_rounding
    padded = mpf_shift(mpf_mul_int(_mpf_of(err), 5, prec, rnd), -2)
    return mp.make_mpf(mpf_add(padded, _rounding_floor(_mpf_of(value), prec, rnd), prec, rnd))


class PrecTable:
    """Values that depend only on a key and the working precision mp.prec.

    Callers fill the table of the current precision lazily, with the same
    computation at the same precision they would otherwise repeat, so a
    cached value has the bits of a fresh one.  Tables of at most
    PREC_TABLES_MAX precisions are held; get keeps at most
    PREC_TABLE_ENTRIES_MAX entries in each.
    """

    __slots__ = ("_by_prec",)

    def __init__(self):
        self._by_prec: dict[int, dict] = {}

    def at_prec(self) -> dict:
        """The table of the current working precision."""
        table = self._by_prec.pop(mp.prec, None)
        if table is None:
            table = {}
            if len(self._by_prec) >= PREC_TABLES_MAX:
                del self._by_prec[next(iter(self._by_prec))]
        self._by_prec[mp.prec] = table
        return table

    def get(self, key, compute):
        """The value at key in the table of the current precision, compute()
        (never None) on a miss.  Past PREC_TABLE_ENTRIES_MAX entries the
        least recently used is dropped."""
        table = self.at_prec()
        value = table.pop(key, None)
        if value is None:
            value = compute()
            if len(table) >= PREC_TABLE_ENTRIES_MAX:
                del table[next(iter(table))]
        table[key] = value
        return value

    def clear(self) -> None:
        self._by_prec.clear()


@dataclass(frozen=True)
class SeriesValue:
    """Result of a series evaluation.

    abs_err is a claimed bound on truncation plus tail error; mp.inf marks
    routes for which no effective bound exists (raw limit partial sums,
    conditionally convergent sums).  order is the Euler-Maclaurin order J
    of the tail a route's plan settled on, where one tail sets it, else
    None.
    """

    value: mpf
    abs_err: mpf
    terms_used: int
    method: str
    order: int | None = None

    def __post_init__(self):
        if not (self.abs_err >= 0):
            raise DomainError("abs_err must be >= 0")
        if self.terms_used < 1:
            raise DomainError("terms_used must be >= 1")


def comp_sum(terms) -> mpf:
    """Exact sum: the terms' mantissas are added as integers and the result
    is never rounded, so it can carry more bits than the working precision
    and does not depend on the order of the terms.  (mpf_sum keeps this
    contract while the terms' exponents lie within 10^6 bits of each other.)
    A term is an mpf or a raw _mpf_ tuple, which enter with all their bits,
    or anything else, which enters through mpf(t).  Infinities and nan
    combine as in mpf addition; empty input sums to 0.
    """
    return mp.make_mpf(mpf_sum(
        (t if type(t) is tuple else (t if isinstance(t, mpf) else mpf(t))._mpf_
         for t in terms), prec=0))


def harmonic(n: int) -> mpf:
    """H_n = sum_{k=1..n} 1/k, each 1/k rounded, then summed exactly."""
    if type(n) is not int or n < 1:
        raise DomainError("harmonic: n must be an int >= 1")
    one = mpf(1)
    return comp_sum(one / k for k in range(1, n + 1))


def find_root_bisect(f, lo, hi, tol) -> mpf:
    """Deterministic bisection; returns the final midpoint.

    Requires a sign change: f(lo) * f(hi) < 0.  Only the signs of f's
    values are read, so f may be a sign function returning -1, 0 or 1
    (quadrature.ChebyshevModel.sign): bisection on it takes the same
    midpoints and returns the same bits as bisection on any f with those
    signs.

    tol must be finite and > 0, else DomainError.  A midpoint that rounds
    to an end at the working precision would stop the bracket from
    shrinking, so while its width is above tol that raises
    ConvergenceError.
    """
    lo, hi, tol = mpf(lo), mpf(hi), mpf(tol)
    if not 0 < tol < mp.inf:
        raise DomainError("find_root_bisect: tol must be finite and > 0")
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise DomainError("find_root_bisect: endpoints do not bracket a root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            raise ConvergenceError(
                f"find_root_bisect: the midpoint of [{lo}, {hi}] rounds to an "
                f"end at mp.prec {mp.prec}, above tol {mp.nstr(tol, 3)}")
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def accelerate_alternating(a, K: int) -> SeriesValue:
    """Chebyshev-weighted estimate of sum_{k>=0} (-1)^k a_k (Cohen,
    Rodriguez Villegas, Zagier).

    ``a`` maps k to a_k >= 0; convergence at rate (3+sqrt 8)^-K presumes the
    terms are (close to) totally monotone, which is the caller's
    responsibility.  The abs_err is the heuristic 3*(3+sqrt 8)^-K times the
    absolute weighted sum.
    """
    if K < 4:
        raise DomainError("accelerate_alternating: need K >= 4")
    d = (3 + 2 * sqrt(2)) ** K
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    s = mpf(0)
    wsum = mpf(0)
    for k in range(K):
        c = b - c
        ak = mpf(a(k))
        s += c * ak
        wsum += abs(c * ak)
        b = (k + K) * (k - K) * b / ((k + mpf(1) / 2) * (k + 1))
    rate = (3 + 2 * sqrt(2)) ** (-K)
    return SeriesValue(value=s / d, abs_err=3 * rate * wsum / d,
                       terms_used=K, method="cvz")


def cvz_terms(tol) -> int:
    """Term count at which the Cohen-Rodriguez Villegas-Zagier acceleration
    reaches ``tol``: its rate is (3+sqrt 8)^-K, plus six spare terms."""
    digits = -mp.log10(mpf(tol))
    return int(mp.ceil(digits * mp.log(10) / mp.log(3 + 2 * sqrt(2)))) + 6

"""Independent reference values for the test suite.

Every frozen constant below was produced by the stated method using plain
mpmath arithmetic only (no package code), so the oracles stay independent of
the paths they check.  Run this module to regenerate them:

    python tests/oracles.py   (takes a few minutes)

Frozen values carry more digits than any tolerance that consumes them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import iv, mp, mpf, log, nstr, workdps
from mpmath.libmp import (from_float, from_int, fzero, mpf_add, mpf_div, mpf_mul, round_up,
                          to_rational)

from stieltjes.core import DomainError
from stieltjes.logpoly import _ROOT_WIDTH, DIRECT, J_PLAN_MAX, _log2_below

# the root intervals' width, 2^-ROOT_WIDTH_BITS in log t
ROOT_WIDTH_BITS = _ROOT_WIDTH.denominator.bit_length() - 1

# --- exact harmonic numbers -------------------------------------------------
# H_n as exact rationals via divide-and-conquer integer arithmetic (no
# intermediate rounding, no gcd reduction), then rounded once at 50 digits.
H_1E6 = "14.392726722865723631381127493188587676644800013744"
H_1E6_MINUS_1 = "14.392725722865723631381127493188587676644800013744"

# --- Euler's constant -------------------------------------------------------
# gamma = H_N - log N - 1/(2N) + 1/(12 N^2) at N = 10^6; the next asymptotic
# term is -1/(120 N^4), so the value is good to ~8.4e-26.
GAMMA = "0.57721566490153286060651209841574"

# --- gamma_1 ----------------------------------------------------------------
# Richardson extrapolation of S_N = sum_{k<=N} log k / k - log^2 N / 2 on the
# model {1, log N/N, log N/N^2, 1/N^2}; checked against the next omitted
# order, good to ~1e-20.
GAMMA1_PARTIALS = {
    10**4: "-0.07235533530702821955642921959635101978443",
    10**5: "-0.07275828094395958592576453024501740475276",
    5 * 10**5: "-0.07280272312434010832425828955251903661798",
    10**6: "-0.07280893772946570193669791155773605656038",
}
GAMMA1 = "-0.072815845483676724861674238606077"

# --- zeta values ------------------------------------------------------------
# zeta(2): brute sum to 10^4 plus the tail 1/N - 1/(2N^2) + 1/(6N^3);
# good to ~3e-22.
ZETA2 = "1.64493406684822643647274849998"

# zeta'(2): brute -sum_{k<=10^6} log k/k^2 plus closed integral and two
# endpoint corrections at 10^6 + 1; good to ~4e-31.
ZETA_PRIME_2 = "-0.937548254315843753702574094568"

# --- digamma differences ----------------------------------------------------
# psi(1) - psi(1/2): brute sum_{k<=10^6} [1/(k+1/2) - 1/(k+1)] plus a
# three-term endpoint expansion; good to ~2e-32.  Equals 2 log 2.
PSI_ONE_MINUS_PSI_HALF = "1.3862943611198906188344642429164"

# --- Euler-Maclaurin lattice tail for log t/t^2 at 10^4 ----------------------
# sum_{k>=N} log k/k^2 - int_N^inf log t/t^2 dt at N = 10^4 via brute
# summation to 10^6, closed integral remainder and a trapezoid correction;
# good to ~1e-29.
EM_TAIL_LOGT2_1E4 = "4.60531535832735340418218615426e-8"


def gamma_oracle() -> mpf:
    """gamma from the frozen exact H_1e6 (live formula evaluation)."""
    N = 10**6
    return mpf(H_1E6) - log(N) - mpf(1) / (2 * N) + mpf(1) / (12 * N**2)


def gamma1_oracle() -> mpf:
    """Richardson-extrapolated gamma_1 from the frozen partial sums."""
    rows = []
    rhs = []
    for n, s in sorted(GAMMA1_PARTIALS.items()):
        n = mpf(n)
        rows.append([mpf(1), log(n) / n, log(n) / n**2, 1 / n**2])
        rhs.append(mpf(s))
    return solve_linear(rows, rhs)[0]


def solve_linear(rows, rhs):
    """Gaussian elimination without pivoting (well-conditioned systems only)."""
    m = len(rows)
    A = [row[:] + [r] for row, r in zip(rows, rhs)]
    for i in range(m):
        for j in range(i + 1, m):
            f = A[j][i] / A[i][i]
            for c in range(m + 1):
                A[j][c] -= f * A[i][c]
    x = [mpf(0)] * m
    for i in range(m - 1, -1, -1):
        acc = A[i][m]
        for j in range(i + 1, m):
            acc -= A[i][j] * x[j]
        x[i] = acc / A[i][i]
    return x


def gamma_n_partial_sum(n: int, x, N: int) -> mpf:
    """The defining limit of gamma_n(x) stopped at N:
    sum_{k<=N} log^n(k+x)/(k+x) - log^(n+1)(N+x)/(n+1), summed plainly.
    It carries no bound; its defect is about log^n(N+x)/(2(N+x))."""
    x = mpf(x)
    s = mpf(0)
    for k in range(N + 1):
        s += log(k + x) ** n / (k + x)
    return s - log(N + x) ** (n + 1) / (n + 1)


# --- log-polynomial algebra ---------------------------------------------------
# A finite sum of terms c log^m t / t^p, its evaluation and its algebra term
# by term in mpf: the reference that logpoly._log_polys, the library's one
# exact derivative table, log_poly_row below, and the fixed-point
# evaluations are checked against.

class LogPolyRef:
    """A finite sum of c log^m t / t^p terms, {(m, p): c}, with its
    derivative, sum and scaling, term by term:

        d/dt [log^m t / t^p] = m log^(m-1) t / t^(p+1)  -  p log^m t / t^(p+1)

    log^0 t is 1 everywhere, so at t = 1 only m = 0 remains.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        if any(m < 0 or p < 0 for m, p in terms):
            raise DomainError("LogPolyRef: powers must be >= 0")
        self.terms = {k: mpf(c) for k, c in terms.items() if c}

    @classmethod
    def single(cls, coeff, log_power: int, inv_power: int) -> "LogPolyRef":
        return cls({(log_power, inv_power): mpf(coeff)})

    def __call__(self, t) -> mpf:
        t = mpf(t)
        lt = log(t)
        total = mpf(0)
        for (m, p), c in self.terms.items():
            total += c * lt ** m / t ** p
        return total

    def diff(self) -> "LogPolyRef":
        out: dict = {}
        for (m, p), c in self.terms.items():
            if m:
                key = (m - 1, p + 1)
                out[key] = out.get(key, mpf(0)) + c * m
            if p:
                key = (m, p + 1)
                out[key] = out.get(key, mpf(0)) - c * p
        return LogPolyRef(out)

    def __add__(self, other: "LogPolyRef") -> "LogPolyRef":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, mpf(0)) + c
        return LogPolyRef(out)

    def scaled(self, factor) -> "LogPolyRef":
        factor = mpf(factor)
        return LogPolyRef({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LogPolyRef) and self.terms == other.terms


def logpow_antiderivative_ref(q: int, u) -> mpf:
    """int log^q u du = u * sum_{j<=q} (-1)^(q-j) (q!/j!) log^j u."""
    u = mpf(u)
    lu = log(u)
    total = mpf(0)
    for j in range(q + 1):
        total += (-1) ** (q - j) * mpf(factorial(q)) / factorial(j) * lu ** j
    return u * total


def pow_step_ref(la, a, b, q: int) -> mpf:
    """log^q b - log^q a, given la = log a, without large-minus-large loss:
    delta * sum_{i<q} lb^i la^(q-1-i) with delta = log(b/a), lb = la + delta,
    by Horner's rule in lb with the powers of la as a running product."""
    delta = log(mpf(b) / a)
    lb = la + delta
    s = p = mpf(1)
    for _ in range(q - 1):
        p *= la
        s = s * lb + p
    return delta * s


# --- reference forms of log-polynomial evaluation ----------------------------
# Written term by term in plain mpf arithmetic, from a LogPolyRef's terms
# {(m, p): c}, each the term c log^m t / t^p.

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

    def eval(self, poly) -> mpf:
        """poly(u), with the bits of LogPolyRef.__call__."""
        total = mpf(0)
        for (m, p), c in poly.terms.items():
            lm = self.lpow.get(m)
            if lm is None:
                lm = self.lpow[m] = self.lu ** m
            total += c * lm / self._upow(p)
        return total


def logpoly_integral_to_inf(f, a) -> mpf:
    """int_a^inf f(t) dt for a LogPolyRef whose terms all have inv_power >= 2.

    Per term: int_a^inf log^m t / t^p dt
        = m!/(p-1)^(m+1) * a^(1-p) * sum_{j<=m} ((p-1) log a)^j / j!
    """
    a = mpf(a)
    la = log(a)
    total = mpf(0)
    for (m, p), c in f.terms.items():
        if p < 2:
            raise ValueError("integral_to_inf: needs inv_power >= 2 on every term")
        y = (p - 1) * la
        inner = mpf(0)
        for j in range(m + 1):
            inner += y ** j / factorial(j)
        total += c * mpf(factorial(m)) / (p - 1) ** (m + 1) * a ** (1 - p) * inner
    return total


# --- the Euler-Maclaurin tail in mpf operators ------------------------------
# logpoly.em_tail_shifted and em_tail_error as they read on mpf values, each
# order by Horner's rule on its log_poly_row: the references the
# fixed-point tail and the certificate table are checked against, at twice
# the working digits.

def bernoulli_mpf(idx: int) -> mpf:
    b = bernoulli_ref(idx)
    return mpf(b.numerator) / b.denominator


def horner_mpf(P, L) -> mpf:
    s = mpf(0)
    for c in reversed(P):
        s = s * L + (c if type(c) in (int, mpf) else mp.fdiv(c.numerator, c.denominator))
    return s


def exact_p(p):
    """An int p as it is, an mpf p as the rational it is."""
    if type(p) is int:
        return p
    num, den = to_rational(p._mpf_ if isinstance(p, mpf) else mpf(p)._mpf_)
    return num if den == 1 else Fraction(num, den)


def _as_mpf(c):
    return mp.fdiv(c.numerator, c.denominator) if type(c) is Fraction else mpf(c)


_MPF_ROWS: dict = {}
_EM_WEIGHTS: dict = {}


def _em_weight(j) -> mpf:
    """B_2j/(2j)! at the current precision, once per precision."""
    w = _EM_WEIGHTS.get((j, mp.prec))
    if w is None:
        w = _EM_WEIGHTS[j, mp.prec] = bernoulli_mpf(2 * j) / factorial(2 * j)
    return w


def _mpf_row(rows, i) -> list:
    """log_poly_row(m, p, i), rows = (m, p), with each coefficient an mpf
    at the current precision (an int as it is, a Fraction divided once)."""
    key = (rows, i, mp.prec)
    row = _MPF_ROWS.get(key)
    if row is None:
        row = _MPF_ROWS[key] = [mpf(c) if type(c) is int else _as_mpf(c)
                                for c in log_poly_row(*rows, i)]
    return row


def em_tail_shifted_mpf(v, start, J=4, bound=None, integral=True):
    """(value, |first omitted correction|, J) of em_tail_shifted's key-less
    order loop, from v(start)/2 and, unless integral is False,
    -sum c F(start + shift), F the antiderivative of log^m u / u^p."""
    start = mpf(start)
    points = {}
    terms = []
    for c, sh, m, p in v:
        u = start + sh
        point = points.get(u)
        if point is None:
            point = points[u] = LogPoint(u)
        p = exact_p(p)
        terms.append((_as_mpf(c), point, (m, p), m, _as_mpf(p)))
    # u^-p once per part, and each row's coefficients as mpf once per
    # precision: the orders reach J_PLAN_MAX + 1
    inverse = [point.u ** -p for _, point, _, _, p in terms]

    def at(i):
        return mp.fsum(c * horner_mpf(_mpf_row(rows, i), point.lu) * w / point._upow(i)
                       for (c, point, rows, _, p), w in zip(terms, inverse))

    def antiderivative(m, p, point):
        if p == 1:
            return point.lu ** (m + 1) / (m + 1)
        return point.u ** (1 - p) * mp.fsum(
            (-1) ** (m - k) * mpf(factorial(m)) / factorial(k) * point.lu ** k
            / (1 - p) ** (m - k + 1) for k in range(m + 1))

    def correction(j):
        return _em_weight(j) * at(2 * j - 1)

    def weight(rows, j):  # sum |B_2j/(2j)! P_(2j-1)[k]|, rounded up
        w = sum(abs(bernoulli_ref(2 * j) / factorial(2 * j) * c)
                for c in log_poly_row(*rows, 2 * j - 1))
        return -(-w.numerator // w.denominator)

    def may_raise(J):
        # the stop rule past DIRECT as the library states it: at every part,
        # the weights A of rows J + 1 and J + 2 fall (A_(J+2) < A_(J+1) u^2),
        # and a row of order j has A 2^16 <= 2^floor((2j-1) beta)
        for _, point, rows, _, _ in terms:
            A1, A2 = weight(rows, J + 1), weight(rows, J + 2)
            beta = _log2_below(point.u._mpf_)
            if not A2 < A1 * point.u ** 2:
                return False
            for j, A in ((J + 1, A1), (J + 2, A2)):
                if A.bit_length() + 16 > int((2 * j - 1) * beta):
                    return False
        return True

    value = at(0) / 2
    if integral:
        value -= mp.fsum(c * antiderivative(m, p, point) for c, point, _, m, p in terms)
    for j in range(1, J + 1):
        value -= correction(j)
    omitted = correction(J + 1)
    if bound is not None:
        while not abs(omitted) < bound and J < J_PLAN_MAX and (J < DIRECT or may_raise(J)):
            value -= omitted
            J += 1
            omitted = correction(J + 1)
    return value, abs(omitted), J


def em_tail_error_mpf(n, a, J, omitted, d=0, scale=1, p=1) -> mpf:
    """em_tail_error as it read on mpf values: log a and the sum over the
    root table taken afresh, |g(a)| by Horner's rule, and the certified
    start and the root enclosures from the reference tables (isolated_ref,
    root_table_ref), not from the library's."""
    p = exact_p(p)
    if a >= certified_start_ref(n, J, d, p):
        return omitted
    La = log(a)
    weight = 2 * abs(bernoulli_mpf(2 * J + 2) / factorial(2 * J + 2))
    roots = 2 * sum(g for hi, g in root_table_ref(n, J, d, p) if hi >= float(La))
    if d <= 0:
        return 2 * omitted + scale * weight * roots
    g_a = horner_mpf(log_poly_row(n, p, 2 * J + 1 + d), La)
    return scale * weight * (abs(g_a) / mpf(a) ** (_as_mpf(p) + 2 * J + 1 + d) + roots)


# --- the exact tables in Fractions and interval arithmetic -------------------
# logpoly builds its precision-independent tables in integers: the Bernoulli
# numbers from a stepwise tangent table, the log-polynomial rows at a rational
# p as integer rows over b^k, the weights with one gcd, the root isolation
# with a Horner sign per midpoint and the root enclosures from libmpf's
# directed roundings.  These are the direct forms, in Fraction and iv
# arithmetic, that each integer table must equal bit for bit.

@lru_cache(maxsize=None)
def bernoulli_ref(idx: int) -> Fraction:
    """B_idx from the tangent numbers T_1..T_n, all recomputed by Brent and
    Harvey's integer recurrence (Fast computation of Bernoulli, tangent and
    secant numbers, 2011)."""
    if idx < 2:
        return Fraction(1) if idx == 0 else Fraction(-1, 2)
    if idx % 2:
        return Fraction(0)
    n = idx // 2
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return Fraction((-1) ** (n - 1) * 2 * n * T[n], 4 ** n * (4 ** n - 1))


_REF_ROWS: dict = {}


def log_poly_row(m: int, p, k: int) -> tuple:
    """The row P_k, (d/dt)^k [log^m t / t^p] = P_k(log t)/t^(p+k), each
    coefficient an int or a Fraction: P_(k+1) = P_k' - (p + k) P_k, the
    rows of each (m, p) kept as they are built."""
    rows = _REF_ROWS.setdefault((m, p), [(0,) * m + (1,)])
    while len(rows) <= k:
        P, c = rows[-1], p + len(rows) - 1
        rows.append(tuple((j + 1) * P[j + 1] - c * P[j] for j in range(m)) + (-c * P[m],))
    return rows[k]


def weights_ref(ws) -> tuple[tuple, int]:
    """((N, D), A) of exact weights ws: D the lcm of their denominators, N =
    ws D, and A = ceil(sum |N| / D)."""
    D = math.lcm(*(Fraction(w).denominator for w in ws))
    N = tuple(int(w * D) for w in ws)
    return (N, D), -(-sum(map(abs, N)) // D)


def tail_row_ref(m: int, p, j: int) -> tuple[tuple, int]:
    """_tail_rows(m, p)[0][j]: P_0 at j = 0, B_2j/(2j)! P_(2j-1) past it."""
    if j == 0:
        return weights_ref((0,) * m + (1,))
    w = bernoulli_ref(2 * j) / factorial(2 * j)
    return weights_ref([w * c for c in log_poly_row(m, p, 2 * j - 1)])


def tail_integral_ref(m: int, p) -> tuple[tuple, int]:
    """_tail_rows(m, p)'s integral row -F with its weight bound."""
    if p == 1:
        return weights_ref((0,) * (m + 1) + (Fraction(-1, m + 1),))
    return weights_ref([-(-1) ** (m - k) * Fraction(factorial(m), factorial(k))
                        / (1 - p) ** (m - k + 1) for k in range(m + 1)])


def _taylor_shift_ref(P, c) -> list:
    r = list(P)
    deg = len(r) - 1
    for j in range(deg):
        for i in range(deg - 1, j - 1, -1):
            r[i] += c * r[i + 1]
    return r


def real_roots_ref(P) -> list[tuple[Fraction, Fraction]]:
    """logpoly._real_roots with its one-root nodes refined by a Taylor shift
    per halving: a half is 2^deg S(z/2) or its shift by 1, and the root is
    in the left one when its coefficient sum S(1/2) differs in sign from
    S(0)."""
    deg = len(P) - 1
    if deg < 1:
        return []
    bound = 1 + max(abs(Fraction(c, P[-1])) for c in P)
    s = math.ceil(bound).bit_length()
    depth = ROOT_WIDTH_BITS
    roots = []

    def halve(S):
        m = len(S) - 1
        return [v << (m - i) for i, v in enumerate(S)]

    def changes(S):
        signs = [c > 0 for c in S if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def visit(S, a, e):
        while S[0] == 0:
            roots.append((a, a, e))
            S = S[1:]
        count = changes(_taylor_shift_ref(S[::-1], 1))
        if count == 0:
            return
        if count > 1:
            left = halve(S)
            visit(left, 2 * a, e + 1)
            visit(_taylor_shift_ref(left, 1), 2 * a + 1, e + 1)
            return
        while e < depth:
            S = halve(S)
            mid = sum(S)
            a, e = 2 * a, e + 1
            if mid == 0:
                roots.append((a + 1, a + 1, e))
                return
            if (mid > 0) == (S[0] > 0):
                S = _taylor_shift_ref(S, 1)
                a += 1
        roots.append((a, a + 1, e))

    visit([v << (s * i) for i, v in enumerate(P)], 0, -s)
    roots = [(Fraction(a << -e if e < 0 else a, 1 << max(e, 0)),
              Fraction(b << -e if e < 0 else b, 1 << max(e, 0))) for a, b, e in roots]
    return [r for r in roots if r[1] > 0]


@lru_cache(maxsize=None)
def isolated_ref(n: int, k: int, p=1) -> tuple:
    """real_roots_ref of P_k with its denominators cleared."""
    P = log_poly_row(n, p, k)
    den = math.lcm(*(Fraction(c).denominator for c in P))
    return tuple(real_roots_ref([int(c * den) for c in P]))


@lru_cache(maxsize=None)
def root_table_ref(n: int, J: int, d: int = 0, p=1) -> tuple:
    """logpoly._root_table by Fraction Taylor coefficients at each root's
    lower end and 53-bit interval arithmetic in mpmath's iv."""
    Q = log_poly_row(n, p, 2 * J + 1 + d)
    e = Fraction(p) + 2 * J + 1 + d
    table = []
    saved = iv.prec
    iv.prec = 53
    try:
        for lo, hi in isolated_ref(n, 2 * J + 2 + d, p):
            q_max = Fraction(sum(abs(q) * (hi - lo) ** j
                                 for j, q in enumerate(_taylor_shift_ref(Q, lo))))
            enc = (iv.mpf(q_max.numerator) / q_max.denominator
                   * iv.exp(-e.numerator * iv.mpf(lo.numerator)
                            / (lo.denominator * e.denominator)))
            table.append((math.nextafter(float(hi), math.inf), mp.make_mpf(enc._mpi_[1])))
    finally:
        iv.prec = saved
    return tuple(table)


def certified_start_ref(n: int, J: int, d: int = 0, p=1) -> mpf:
    """logpoly._certified_start from isolated_ref: exp of the largest upper
    end of the roots of P_(2J+2+d) and P_(2J+4+d), rounded up as a float."""
    last = max((hi for k in (2 * J + 2 + d, 2 * J + 4 + d)
                for _, hi in isolated_ref(n, k, p)), default=0)
    return mp.make_mpf(from_float(math.exp(math.nextafter(float(last), math.inf)) * (1 + 1e-12)))


def certificate_ref(n: int, J: int, d: int = 0, p=1) -> tuple:
    """logpoly._certificate from root_table_ref, bernoulli_ref and
    weights_ref, in mpf operators rounded up at 64 bits."""
    table = root_table_ref(n, J, d, p)
    w = 2 * abs(bernoulli_ref(2 * J + 2)) / factorial(2 * J + 2)
    total, suffix = fzero, [fzero]
    for _, g in reversed(table):
        total = mpf_add(total, g._mpf_)
        suffix.append(mpf_div(mpf_mul(total, from_int(2 * w.numerator)),
                              from_int(w.denominator), 64, round_up))
    g_row = (weights_ref([w * c for c in log_poly_row(n, p, 2 * J + 1 + d)]) if d > 0
             else None)
    return (tuple(hi for hi, _ in table), tuple(mp.make_mpf(v) for v in reversed(suffix)),
            g_row)


# --- Lemma 3.1 in mpf operators ----------------------------------------------
# The two sums verifier.check_lemma31 takes from the fixed-point kernel, by
# mpmath operators at 40 more digits.

def lemma31_reference(n: int, x, N: int) -> tuple[mpf, mpf]:
    """(sum_{k=1..N} [log^q(k+1+x) - log^q(k+x)], int_N^(N+1) log^n(x+t)/(x+t)
    dt), q = n + 1: the telescoped log^q(N+x) - log^q(1+x) plus the step
    log^q(N+1+x) - log^q(N+x), and that step over q."""
    q, x = n + 1, mpf(x)
    with workdps(mp.dps + 40):
        first, lhs, last = (log(x + k) ** q for k in (1, N, N + 1))
        step = last - lhs
        return lhs - first + step, step / q


# --- the Chebyshev transform in exact rationals -------------------------------
# quadrature._chebyshev_coeffs takes the transform as one integer sum per
# coefficient; this is the transform of the same binary values, exact but
# for the cosines, which are mpmath's at 40 more digits.

def chebyshev_coeffs_exact(values) -> list[Fraction]:
    """c_k = (2/n) sum_j v_j cos(k theta_j), c_0 halved, theta_j =
    pi (2j+1)/(2n), for the mpf values v_j, as Fractions."""
    n = len(values)
    with workdps(mp.dps + 40):
        cosines = [Fraction(*to_rational(mp.cos(mp.pi * m / (2 * n))._mpf_))
                   for m in range(4 * n)]
    vs = [Fraction(*to_rational(v._mpf_)) for v in values]
    coeffs = [Fraction(2, n) * sum(v * cosines[(k * (2 * j + 1)) % (4 * n)]
                                   for j, v in enumerate(vs))
              for k in range(n)]
    coeffs[0] /= 2
    return coeffs


def ln2_alternating_oracle(N: int = 4000, levels: int = 24) -> tuple[mpf, mpf]:
    """ln 2 from partial sums of sum (-1)^k/(k+1) with repeated Richardson
    averaging: each averaging of adjacent partial sums kills one order of the
    alternating envelope.  Returns (value, heuristic bound from the last
    averaging step)."""
    s = mpf(0)
    for k in range(N - 1, -1, -1):
        s += mpf(-1) ** k / (k + 1)
    row = [s]
    for j in range(levels):
        row.append(row[-1] + mpf(-1) ** (N + j) / (N + j + 1))
    while len(row) > 1:
        row = [(a + b) / 2 for a, b in zip(row[:-1], row[1:])]
        last_step = abs(row[-1] - row[0]) if len(row) > 1 else mpf(0)
    return row[0], 10 * last_step + mpf(2) ** (-mp.prec + 10)


def pi_over_4_oracle(N: int = 60) -> tuple[mpf, mpf]:
    """pi/4 by Machin's formula 4 arctan(1/5) - arctan(1/239) with the exact
    alternating remainder bound (first omitted term) on each arctan series."""
    def arctan_inv(q: int):
        s = mpf(0)
        for k in range(N - 1, -1, -1):
            s += mpf(-1) ** k / ((2 * k + 1) * mpf(q) ** (2 * k + 1))
        bound = mpf(1) / ((2 * N + 1) * mpf(q) ** (2 * N + 1))
        return s, bound
    a5, b5 = arctan_inv(5)
    a239, b239 = arctan_inv(239)
    return 4 * a5 - a239, 4 * b5 + b239


def harmonic_exact_fraction(n: int) -> tuple[int, int]:
    """Exact H_n as an unreduced integer pair via divide and conquer."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n.bit_length() + 100))

    def rng(a, b):
        if b - a == 1:
            return 1, a
        mid = (a + b) // 2
        p1, q1 = rng(a, mid)
        p2, q2 = rng(mid, b)
        return p1 * q2 + p2 * q1, q1 * q2

    return rng(1, n + 1)


def regenerate():  # pragma: no cover - manual tool
    mp.dps = 50
    N = 10**6
    p, q = harmonic_exact_fraction(N)
    print("H_1E6 =", nstr(mpf(p) / q, 50))
    p, q = harmonic_exact_fraction(N - 1)
    print("H_1E6_MINUS_1 =", nstr(mpf(p) / q, 50))
    print("GAMMA =", nstr(gamma_oracle(), 32))

    acc = mpf(0)
    comp = mpf(0)
    partials = {}
    for k in range(1, N + 1):
        term = log(k) / k
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if k in GAMMA1_PARTIALS:
            partials[k] = acc - log(k) ** 2 / 2
    for k, v in sorted(partials.items()):
        print(f"GAMMA1_PARTIALS[{k}] =", nstr(v, 40))
    print("GAMMA1 =", nstr(gamma1_oracle(), 32))

    N2 = 10**4
    s = mpf(0)
    for k in range(N2, 0, -1):
        s += mpf(1) / k**2
    print("ZETA2 =", nstr(s + mpf(1) / N2 - mpf(1) / (2 * N2**2) + mpf(1) / (6 * N2**3), 30))

    s = mpf(0)
    comp = mpf(0)
    for k in range(N, 1, -1):
        term = log(k) / k**2
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
    Mp = mpf(N + 1)
    I = (log(Mp) + 1) / Mp
    fMp = log(Mp) / Mp**2
    fpMp = (1 - 2 * log(Mp)) / Mp**3
    print("ZETA_PRIME_2 =", nstr(-(s + I + fMp / 2 - fpMp / 12), 30))

    s_lo = mpf(0)
    for k in range(2, N2):
        s_lo += log(k) / k**2
    rest = I + fMp / 2 - fpMp / 12
    I_N2 = (log(N2) + 1) / mpf(N2)
    print("EM_TAIL_LOGT2_1E4 =", nstr(s - s_lo + rest - I_N2, 30))

    s = mpf(0)
    half = mpf(1) / 2
    one = mpf(1)
    for k in range(N, -1, -1):
        s += one / (k + half) - one / (k + 1)
    K = mpf(N + 1)
    tail = (log((K + 1) / (K + half)) + (one / (K + half) - one / (K + 1)) / 2
            + (one / (K + half) ** 2 - one / (K + 1) ** 2) / 12)
    print("PSI_ONE_MINUS_PSI_HALF =", nstr(s + tail, 32))


if __name__ == "__main__":  # pragma: no cover
    regenerate()

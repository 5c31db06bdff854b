"""Constant families adjacent to the Stieltjes constants: digamma and
log-gamma as the series they equal, Gauss's digamma theorem for psi(p/q)
in elementary terms, the von Mangoldt function and the eta constants, the
delta constants, and the generalized gamma functions whose logarithmic
structure produces gamma_k the way log Gamma produces gamma.

Series used here and their tails:

  psi(x)         = -gamma_0(1+x) - 1/x          (series_b at n = 0)
  log Gamma(x)   = zeta'(0, x) - zeta'(0)       (zeta_deriv0_diff at k = 0)
  psi(p/q)       = -gamma - log 2q - (pi/2) cot(pi p/q)
                   + sum_{j<q} cos(2 pi j p/q) log sin(pi j/q)
  log Gamma_k(x+1) = -gamma_k x
        + sum_{j>=1} [x log^k j / j - (log^(k+1)(j+x) - log^(k+1) j)/(k+1)]

  eta_n (series) = (-1)^n/n! sum_k [Lambda(k) log^n k / k
                        - (log^(n+1)(k+1) - log^(n+1) k)/(n+1)]
  eta_n (from gamma) = -[w^n] d/dw log(1 + sum_j (-1)^j gamma_j w^(j+1)/j!)

  delta_n = lim_N [sum_{k<=N} log^n k - int_1^N log^n - log^n N / 2],
            evaluated at finite N with Bernoulli endpoint corrections.

eta (from gamma) and psi(p/q) read gamma_j = gamma_j(1) from gamma's table
of x-free constants (gamma.stieltjes_const), computed once per tolerance
and working precision.

All summand tails are Euler-Maclaurin lattice corrections with closed-form
integrals over [K, inf), and every sum here of log-polynomial terms runs on
the fixed-point kernel.  The Gamma_k series is logpoly.em_series on its
parts (_dilcher_parts).  delta's tail of log^n t takes its own ends v(N)/2
and -F(N).  mangoldt_gap_sums takes its direct terms and its closed
integral from lattice_sum, the integral as the telescoped step
(gamma._step_parts).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, groupby
from math import factorial, isqrt

from mpmath import cospi, log, mp, mpf, pi, sinpi, workdps

from .core import (GUARD_DIGITS, ConvergenceError, DomainError, SeriesValue, check_order,
                   comp_sum, cvz_terms, default_tol, head_guard, log_abs, rounding_floor,
                   tail_claim, working_dps)
from .gamma import (RationalArg, _gamma1_bracket, _gamma_series_b, _step_parts, gamma1_alt,
                    gamma_n, stieltjes_const)
from .fixedpoint import LOG_PRODUCT_PRECS, lattice_err, lattice_sum
from .logpoly import K_CAP, em_series, em_start_for, em_tail, em_tail_shifted, ladder_start
from .zeta import zeta_deriv0_diff

ETA_MAX_ORDER = 6
ETA_SERIES_MAX_K = 10 ** 8


def _cot_pi(frac) -> mpf:
    """cot(pi * frac), exact where cos or sin of pi*frac is exact."""
    return cospi(frac) / sinpi(frac)


# ---------------------------------------------------------------------------
# von Mangoldt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VonMangoldtTable:
    """Lambda(k) for k <= limit, stored as {prime power k: (prime, exponent)}."""

    limit: int
    powers: dict[int, tuple[int, int]]

    def value(self, k: int) -> mpf:
        if not 1 <= k <= self.limit:
            raise DomainError(f"VonMangoldtTable covers 1..{self.limit}")
        entry = self.powers.get(k)
        return log(entry[0]) if entry else mpf(0)

    def iter_powers(self):
        """(k, p, m) for every prime power k = p^m <= limit, ascending in k."""
        for k in sorted(self.powers):
            p, m = self.powers[k]
            yield k, p, m

    def iter_log_powers(self):
        """(k, log p, m) for every prime power k = p^m <= limit, ascending in
        k, taking log p once per prime (log k is m log p)."""
        logs: dict[int, mpf] = {}
        root = isqrt(self.limit)
        for k, p, m in self.iter_powers():
            if m == 1:
                lp = log(p)
                if p <= root:
                    logs[p] = lp
            else:
                lp = logs[p]
            yield k, lp, m

    def prime_exponents(self) -> dict[int, int]:
        """p -> largest m with p^m <= limit (the lcm(1..limit) factorization)."""
        out: dict[int, int] = {}
        for _, p, m in self.iter_powers():
            out[p] = max(out.get(p, 0), m)
        return out


def _sieve(N: int) -> bytearray:
    flags = bytearray([1]) * (N + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(N) + 1):
        if flags[p]:
            flags[p * p::p] = b"\x00" * len(range(p * p, N + 1, p))
    return flags


def von_mangoldt(N: int) -> VonMangoldtTable:
    """Sieve-built exact table of Lambda on 1..N."""
    if type(N) is not int or N < 2:
        raise DomainError("von_mangoldt: N must be an int >= 2")
    flags = _sieve(N)
    powers: dict[int, tuple[int, int]] = {}
    for p in range(2, N + 1):
        if flags[p]:
            pk, m = p, 1
            while pk <= N:
                powers[pk] = (p, m)
                pk *= p
                m += 1
    return VonMangoldtTable(limit=N, powers=powers)


# ---------------------------------------------------------------------------
# eta constants
# ---------------------------------------------------------------------------

def eta(n: int, route: str = "from_gamma", K: int | None = None, tol=None) -> SeriesValue:
    """eta_n, the coefficients of -d/ds log[(s-1) zeta(s)] about s = 1.

    from_gamma: the coefficient of w^n in -F'/F, F(w) = 1 + sum (-1)^j
    gamma_j w^(j+1)/j!, error propagated by perturbing each gamma_j by its
    claimed bound.
    series: von Mangoldt partial sum with abs_err = inf (conditionally
    convergent at prime-counting rate; no effective desk-scale bound exists).
    """
    check_order(n, ETA_MAX_ORDER, "eta")
    if route == "from_gamma":
        return _eta_from_gamma(n, default_tol() if tol is None else mpf(tol))
    if route == "series":
        if K is None:
            raise DomainError("eta series route needs a term budget K")
        if type(K) is not int:
            raise DomainError("eta: the series budget K must be an int")
        if K < 2:
            raise DomainError(f"eta: series budget K = {K} is below 2")
        if K > ETA_SERIES_MAX_K:
            raise DomainError(f"eta: budget exceeds {ETA_SERIES_MAX_K}")
        return _eta_series(n, K)
    raise DomainError(f"eta: unknown route {route!r}")


def _eta_coeff_from(gammas: list, n: int) -> mpf:
    """eta_n = -(F'/F)_n for F(w) = 1 + sum_j (-1)^j gamma_j w^(j+1)/j!,
    from gammas = gamma_0..gamma_(n+1): the coefficients G_i of G = F'/F
    come one at a time from G F = F', G_i = (i+1) F_(i+1) - sum_(j=1..i)
    F_j G_(i-j)."""
    F = [mpf(1)] + [(-1) ** j * g / factorial(j) for j, g in enumerate(gammas)]
    G = []
    for i in range(n + 1):
        acc = (i + 1) * F[i + 1]
        for j in range(1, i + 1):
            acc -= F[j] * G[i - j]
        G.append(acc)
    return -G[n]


def _eta_from_gamma(n: int, tol) -> SeriesValue:
    part = tol / (4 * (n + 3))
    vals = [stieltjes_const(j, part) for j in range(n + 2)]
    with workdps(working_dps(tol)):
        gammas = [v.value for v in vals]
        value = _eta_coeff_from(gammas, n)
        err = mpf(0)
        for j in range(len(gammas)):
            bumped = list(gammas)
            bumped[j] += vals[j].abs_err
            err += abs(_eta_coeff_from(bumped, n) - value)
        terms = sum(v.terms_used for v in vals)
        return SeriesValue(value, err + rounding_floor(value), terms, "from_gamma")


def _eta_series(n: int, K: int) -> SeriesValue:
    """Partial sum to K of the von Mangoldt series; the log-power part
    telescopes to log^(n+1)(K+1)/(n+1) exactly."""
    table = von_mangoldt(K)
    with workdps(mp.dps + GUARD_DIGITS):
        acc = comp_sum(lp * (m * lp) ** n / k for k, lp, m in table.iter_log_powers())
        value = (-1) ** n * (acc - log(K + 1) ** (n + 1) / (n + 1)) / factorial(n)
    return SeriesValue(value, mp.inf, K, "mangoldt_series")


def mangoldt_gap_sums(n: int, checkpoints) -> dict[int, mpf]:
    """Partial sums of sum_{k<=N} (Lambda(k) - 1) log^n k / k at each
    checkpoint N, an int >= 1, the trend quantity behind (-1)^n n! eta_n -
    gamma_n.

    The Lambda part runs over the prime powers k = p^m <= N only, with
    log k = m log p and log p taken once per prime.  The other part,
    sum_{k<=N} f(k) with f = log^n t / t, is the direct terms below a, a
    lattice_sum of f from one checkpoint to the next, plus the
    Euler-Maclaurin tails of f at a and at N + 1, plus int_a^(N+1) f =
    [log^(n+1)(N+1) - log^(n+1) a]/(n+1), the lattice_sum of the telescoped
    pair over (a, N + 1), which takes a logarithm at its two ends only.
    a is logpoly.em_start_for's first rung from 16, factor 4, at which
    em_tail, its order raised at most to J_PLAN_MAX, certifies the tail
    below 2^-prec (prec: the working bits), or infinity where no rung up to
    K_CAP does; every checkpoint N < a is summed directly.  The same J
    serves at N + 1 > a, whose remainder integral is part of a's.  No
    gamma_n value enters, so these sums stay an independent check on the
    eta and gamma routes.
    """
    check_order(n, ETA_MAX_ORDER, "mangoldt_gap_sums")
    pending = set(checkpoints)
    if any(type(c) is not int for c in pending):
        raise DomainError("mangoldt_gap_sums: every checkpoint must be an int")
    pending = sorted(pending)
    if not pending:
        raise DomainError("mangoldt_gap_sums: need at least one checkpoint")
    if pending[0] < 1:
        raise DomainError("mangoldt_gap_sums: checkpoints must be >= 1")
    # Lambda(1) = 0: on 1..1 the table is empty
    table = von_mangoldt(pending[-1]) if pending[-1] > 1 else VonMangoldtTable(1, {})
    out: dict[int, mpf] = {}
    with workdps(mp.dps + GUARD_DIGITS):
        parts = [mpf(0)] * len(pending)
        powers = groupby(table.iter_log_powers(), lambda e: bisect_left(pending, e[0]))
        for i, group in powers:
            parts[i] = comp_sum(lp * (m * lp) ** n / k for k, lp, m in group)
        lam = accumulate(parts, lambda s, t: comp_sum([s, t]))

        bound = mpf(2) ** -mp.prec
        try:
            a, tail = em_start_for(lambda a: em_tail(n, 1, a, 4, bound), bound, 16)
        except ConvergenceError:  # past about 600 digits no rung certifies 2^-prec
            a = math.inf
        # sum_{k<e} f(k) at each end e = min(N + 1, a), in order
        f = lattice_sum([(1, 0, n, 1)])
        ends = sorted(set(min(N + 1, a) for N in pending))
        direct = dict(zip(ends, accumulate((f(lo, hi) for lo, hi in zip([1] + ends, ends)),
                                           lambda s, t: comp_sum([s, t]))))
        step = lattice_sum(_step_parts(n + 1, 0, 1))
        for N, lam_N in zip(pending, lam):
            harmonic = direct[min(N + 1, a)]
            if N >= a:
                harmonic = comp_sum([harmonic, tail.value, step(a, N + 1),
                                     -em_tail(n, 1, N + 1, tail.terms_used).value])
            out[N] = lam_N - harmonic
    return out


# ---------------------------------------------------------------------------
# delta constants
# ---------------------------------------------------------------------------

def _log_factorials(ms) -> dict[int, mpf]:
    """log M! for every M >= 1 in ms, from one ascending pass of exact
    integer products of consecutive integers.

    A product is rounded to the working precision and its logarithm taken
    once it passes LOG_PRODUCT_PRECS * mp.prec bits, and at each M; the
    logarithms are summed with comp_sum.  Each is within about an ulp of
    itself, so log M! carries the rounding error of a sum of M rounded
    logarithms, from far fewer of them.

    The integers enter a product in blocks, each one math.perm (a product
    tree in C), while the block cannot pass the limit, each of its n
    factors adding at most the bits of the largest; near the limit they
    enter one at a time.  So the products are those of one integer at a
    time, exactly.
    """
    limit = LOG_PRODUCT_PRECS * mp.prec
    out: dict[int, mpf] = {}
    total = mpf(0)
    start = 2
    for M in sorted(set(ms)):
        logs = []
        prod = 1
        k = start
        while k <= M:
            room = limit - prod.bit_length()
            n = min(M + 1 - k, room // min(M, k + room).bit_length())
            if n:  # k (k + 1) ... (k + n - 1)
                prod *= math.perm(k + n - 1, n)
                k += n
                continue
            prod *= k
            k += 1
            if prod.bit_length() > limit:
                logs.append(log(prod))
                prod = 1
        start = M + 1
        if prod > 1:
            logs.append(log(prod))
        total = comp_sum(chain([total], logs))
        out[M] = total
    return out


def _log_power_sum(n: int, N: int) -> mpf:
    """S_n(N) = sum_{k<=N} log^n k for n = 1 or 2, at the working precision.

    S_1(N) = log N!.  For n = 2, log k = sum_{d | k} Lambda(d) gives
    S_2(N) = sum over prime powers p^i <= N of log p (i M log p + log M!),
    M = floor(N / p^i): log p is taken once per prime, and log M! at the
    about 2 sqrt(N) distinct values of M from one pass of _log_factorials.
    Every term is positive, so the sum keeps the relative accuracy of its
    terms.
    """
    if n == 1:
        return _log_factorials([N])[N]
    table = von_mangoldt(N)
    log_fact = _log_factorials(N // k for k in table.powers)
    return comp_sum(lp * (m * (N // k) * lp + log_fact[N // k])
                    for k, lp, m in table.iter_log_powers())


def delta(n: int, N: int = 10000) -> SeriesValue:
    """delta_n = (-1)^n [zeta^(n)(0) + n!], by the endpoint-corrected
    evaluation of sum_{k<=N} log^n k - int_1^N log^n x dx - log^n N / 2.

    That is S_n(N-1) + F(1) + the tail of log^n t from N, F(u) = u sum_j
    (-1)^(n-j) n!/j! log^j u the antiderivative of log^n u, F(1) =
    (-1)^n n!: the tail's own ends, v(N)/2 and -F(N), in fixed point, take
    the rest.  The partial sum S_n(N-1) comes from exact integer products
    and prime powers (_log_power_sum), not from N logarithms.  The endpoint
    corrections take em_tail_shifted's order loop, J rising from 4 until
    the certified remainder of em_tail_error is below the rounding floor of
    the partial sum, which the claim adds anyway.
    """
    check_order(n, 2, "delta")
    if type(N) is not int:
        raise DomainError("delta: the term budget N must be an int")
    if N < 10:
        raise DomainError("delta: need N >= 10")
    if N > K_CAP:
        raise DomainError(f"delta: N must be <= {K_CAP}")
    with workdps(mp.dps + GUARD_DIGITS):
        if n == 0:
            # every term of the corrected form cancels identically
            return SeriesValue(mpf(1) / 2, mpf(0), N, "em_corrected")
        partial = _log_power_sum(n, N - 1)
        # the partial sum is about N log^n N, and its terms' rounding, not
        # the value's, sets the floor
        floor = rounding_floor(partial)
        # v = log^n t has v' = n f for f = log^(n-1) t / t: the key d = -1
        tail = em_tail_shifted([(1, 0, n, 0)], N, bound=floor, key=(n - 1, N, -1, n))
        value = partial + (-1) ** n * factorial(n) + tail.value
        return SeriesValue(value, tail_claim(tail.abs_err, value) + floor, N, "em_corrected",
                           tail.order)


# ---------------------------------------------------------------------------
# digamma / log gamma
# ---------------------------------------------------------------------------

def digamma(x, tol=None) -> SeriesValue:
    """psi(x) = -gamma_0(1+x) - 1/x, with gamma_0(1+x) = -psi(1+x) by the
    series_b sum, sum_{k>=1} [1/(k+x) - log(1+1/(k+x))] - log(1+x).

    1 + x is formed exactly and handed to the sum as it is: rounded to the
    ambient precision, as gamma_n's argument check would, it loses x when x
    is small (at mp.dps 15, psi(1e-20) would miss by about 1e-20)."""
    x = mpf(x)
    if not 0 < x < mp.inf:
        raise DomainError("digamma: x must be finite and > 0")
    tol = default_tol() if tol is None else mpf(tol)
    g0 = _gamma_series_b(0, mp.fadd(1, x, exact=True), tol)
    dps = working_dps(tol)
    # the value is about -1/x: its guard digits hold the rounding floor
    guard = head_guard(-log_abs(x) / math.log(10), tol, dps, "digamma")
    with workdps(dps + guard):
        value = -g0.value - 1 / x
        return SeriesValue(value, g0.abs_err + rounding_floor(value), g0.terms_used,
                           "log_series", g0.order)


def log_gamma(x, tol=None) -> SeriesValue:
    """log Gamma(x) = zeta'(0, x) - zeta'(0) (Lerch), by zeta_deriv0_diff's
    series at k = 0: log Gamma(x) = -log x - sum_{k>=1} [log(1+x/k)
    - x log(1+1/k)], which checks x."""
    return zeta_deriv0_diff(0, x, tol)


def digamma_rational(r: RationalArg, tol=None) -> SeriesValue:
    """psi(p/q) by Gauss's digamma theorem (DLMF 5.4.19) in elementary terms

        -gamma - log 2q - (pi/2) cot(pi p/q) + sum_{j<q} cos(2 pi j p/q) log sin(pi j/q),

    the Gauss-type form in -2 sum_{j<q} cos(2 pi j p/q) log Gamma(j/q) with
    j paired with q - j by Gamma(t) Gamma(1 - t) = pi / sin(pi t).  Terms j
    and q - j are equal and log sin(pi/2) = 0, so the sum runs over j < q/2
    twice; the cosines and the cotangent take arguments reduced to [0, 2)
    and [0, 1/2].

    gamma is the shared constant at tol/(2q + 2).  The claim is gamma's plus
    the rounding floor of log 2q, of (pi/2) cot and of each 2 log sin(pi
    j/q), whose floor at |2 log sin| + 1 also covers the few units of its
    cosine, and of the value: the terms are summed exactly and rounded once.
    The value is cross-checked against the series route; disagreement
    beyond the combined claimed error raises, since it would indict a
    claimed bound.
    """
    if not isinstance(r, RationalArg):
        r = RationalArg(*r)
    tol = default_tol() if tol is None else mpf(tol)
    p, q = r.p, r.q
    g0 = stieltjes_const(0, tol / (2 * q + 2))
    with workdps(working_dps(tol)):
        # cot(pi p/q) = -cot(pi (q - p)/q)
        half_cot = pi / 2 * (_cot_pi(mpf(p) / q) if 2 * p <= q else -_cot_pi(mpf(q - p) / q))
        terms = [-log(2 * q), -half_cot]
        err = g0.abs_err + rounding_floor(terms[0]) + rounding_floor(half_cot)
        for j in range(1, (q + 1) // 2):
            c = cospi(mpf(2 * (j * p % q)) / q)
            if c:
                log_sin = 2 * log(sinpi(mpf(j) / q))
                terms.append(c * log_sin)
                err += rounding_floor(log_sin)
        value = comp_sum(terms) - g0.value
        err += rounding_floor(value)
        direct = digamma(r.as_mpf(), tol)
        if abs(value - direct.value) > err + direct.abs_err:
            raise ArithmeticError(
                "digamma_rational: closed form and series route disagree beyond "
                f"claimed bounds at {p}/{q}: gap {abs(value - direct.value)}")
        return SeriesValue(value, err, g0.terms_used, "gauss_closed_form")


# ---------------------------------------------------------------------------
# generalized gamma functions
# ---------------------------------------------------------------------------

def dilcher_log_gamma_k(k: int, x, tol=None) -> SeriesValue:
    """log Gamma_k(x+1), the order-k generalization whose recurrence is
    Gamma_k(x+1) = exp(log^(k+1) x / (k+1)) Gamma_k(x):

        log Gamma_k(x+1) = -gamma_k x
            + sum_{j>=1} [x log^k j / j - (log^(k+1)(j+x) - log^(k+1) j)/(k+1)]

    With g = log^(k+1) t/(k+1), g' = f_k = log^k t / t, the summand is
    -(g(t+x) - g(t) - x g'(t)) = -x^2 g[t, t, t+x], so its m-th derivative
    is -x^2/2 times a weighted mean of f_k^(m+1) over [t + min(0, x),
    t + max(0, x)].  em_series' order loop raises the order at each rung,
    and em_tail_error's key d = 1 and scale x^2/2 certifies the remainder
    from the window's left end a = K + min(0, x).
    """
    check_order(k, 4, "dilcher_log_gamma_k")
    x = mpf(x)
    if not -1 < x < mp.inf:
        raise DomainError("dilcher_log_gamma_k: x must be finite and > -1")
    if x == 0:
        return SeriesValue(mpf(0), mpf(0), 1, "log_series")
    tol = default_tol() if tol is None else mpf(tol)
    q = k + 1
    # gamma_k enters times x, so its share of tol shrinks with |x|
    gk = gamma_n(k, 1, "series_b", tol / 4 / max(1, abs(x)))
    with workdps(working_dps(tol)):
        # K need not exceed x: the certificate reads the window from
        # K + min(0, x), so the ladder's start does not read x
        K, partial, tail = em_series(_dilcher_parts(k, x), 1, ladder_start(tol), tol / 4,
                                     (k, min(0, x), 1, x * x / 2))
        value = -gk.value * x + partial + tail.value
        err = tail_claim(tail.abs_err, value) + lattice_err() + abs(x) * gk.abs_err
        return SeriesValue(value, err, K, "log_series", tail.order)


def _dilcher_parts(k: int, x) -> list:
    """The summand h(t) = x log^k t / t - (log^q(t+x) - log^q t)/q,
    q = k + 1, as the parts its lattice sum and its tail read."""
    q = k + 1
    return [(x, 0, k, 1), (Fraction(-1, q), x, q, 0), (Fraction(1, q), 0, q, 0)]


def dilcher_power_series(x, tol=None) -> SeriesValue:
    """log Gamma_1(x+1) + gamma_1 x as the power series

        sum_{n>=1} (-1)^n/(n+1) [H_n zeta(n+1) + zeta'(n+1)] x^(n+1)

    for |x| <= 1.  At the boundary x = 1 the series is gamma_1's alternating
    series, so gamma1_alt sums it.  x = -1 is outside the domain
    (log Gamma_1(0) diverges).
    """
    x = mpf(x)
    if not abs(x) <= 1:
        raise DomainError("dilcher_power_series: needs a finite |x| <= 1")
    if x == -1:
        raise DomainError("dilcher_power_series: diverges at x = -1")
    tol = default_tol() if tol is None else mpf(tol)
    if x == 0:
        return SeriesValue(mpf(0), mpf(0), 1, "power_series")
    if x == 1:
        return replace(gamma1_alt(tol), method="power_series")
    with workdps(working_dps(tol)):
        H = [mpf(0)]
        inner_tol = tol / (1000 * cvz_terms(tol))
        total = mpf(0)
        a, b = _gamma1_bracket(1, H, inner_tol)
        n = 1
        while True:
            total += (-1) ** n * a * x ** (n + 1)
            # |a_m| <= b_m <= b_(n+1) for m > n, so the tail is at most
            # b_(n+1) |x|^(n+2)/(1 - |x|); tol/8 covers the brackets' claims
            a, b = _gamma1_bracket(n + 1, H, inner_tol)
            bound = b * abs(x) ** (n + 2) / (1 - abs(x))
            if bound < tol / 2:
                return SeriesValue(total, bound + tol / 8 + rounding_floor(total),
                                   n, "power_series")
            if n > 4000:
                raise DomainError("dilcher_power_series: slow convergence; |x| too close to 1")
            n += 1

"""Quadrature and interpolation on an interval.

- ``quad_gl``: composite Gauss-Legendre quadrature with optional geometric
  grading toward a singular left endpoint.  Nodes and weights come from
  Newton iteration on the Legendre recurrence.
- ``chebyshev_model``: one Chebyshev interpolant of an integrand that is
  analytic on [a, b] and returns a SeriesValue at each node.  The model is
  evaluated by Clenshaw's recurrence and integrated by Fejer's first rule, and
  the integral's claim carries the integrand's claims (Trefethen,
  *Approximation Theory and Approximation Practice*, chs. 3, 8 and 19).
  Its coefficients are one exact integer cosine transform of the node values,
  floored at one binary exponent, each within 7 max|v| 2^-(prec + DCT_GUARD)
  of the exact transform before its one rounding (_chebyshev_coeffs), and
  its sign is read through a float screen (ChebyshevModel.sign).

Rules are computed at the working precision plus guard digits and kept per
point count in a core.PrecTable; the tables are write-once and
result-invariant.
"""

from __future__ import annotations

from math import cos, fsum, inf, pi as _pi
from operator import mul
from sys import float_info

from mpmath import isfinite, mp, mpf, pi, workdps
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_mul_int, mpf_sub, to_fixed)

from .core import (ConvergenceError, DomainError, PrecTable, SeriesValue,
                   rounding_floor)

# n -> Gauss-Legendre (node, weight) pairs
_RULE_CACHE = PrecTable()
# Chebyshev points of a model.  An integrand analytic inside the Bernstein
# ellipse of parameter rho has coefficients of order rho^-k; gamma_n on [1, 2]
# and zeta^(k)(0, t+1) on [0, 1] have their singularity at u = -3 of the
# reference interval, rho = 3 + sqrt 8.  At n points the interpolation
# remainder is at most 2 ((b - a)/4)^n max|f^(n)|/n!: at 30 it is 1.7e-18 to
# 1.4e-16 for gamma_0..gamma_3 and 5.8e-20 and 5.4e-19 for the zeta'(0, .)
# and zeta''(0, .) rows, at most 1/500 of each model's claim from its node
# values (about 2e-14 to 2e-13), and 29 points miss that share
# (test_quadrature's remainder test).
MODEL_POINTS = 30
# n -> (nodes, cosine rows, weights) of _chebyshev_rule
_CHEB_CACHE = PrecTable()
# guard bits of the integer cosine transform (_chebyshev_coeffs), and of
# the integer Fejer weight sums above the rule's precision (_chebyshev_rule)
DCT_GUARD = 16
WEIGHT_GUARD = 8


class QuadratureError(ArithmeticError):
    """Integrand misbehaved at a quadrature node."""


def legendre_rule(n: int) -> tuple[tuple[mpf, mpf], ...]:
    """Gauss-Legendre nodes and weights on [-1, 1] at the ambient precision,
    computed once per (n, precision)."""
    return _RULE_CACHE.get(n, lambda: _newton_legendre(n))


def _newton_legendre(n: int) -> tuple[tuple[mpf, mpf], ...]:
    pairs = []
    # at the ambient precision: Newton stalls above a stop taken inside
    stop = mpf(10) ** (-(mp.dps + 5))
    with workdps(mp.dps + 10):
        for i in range(1, n + 1):
            x = mpf(cos(_pi * (i - 0.25) / (n + 0.5)))
            dp = mpf(1)
            for _ in range(100):
                p0, p1 = mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < stop:
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append((x, w))
    return tuple(pairs)


def _panel_points(a, b, panels: int, singular_left: bool):
    if singular_left:
        # geometric grading toward a: widths halve toward the singularity
        pts = [a] + [a + (b - a) * mpf(2) ** (-(panels - i)) for i in range(1, panels)]
        pts.append(b)
        return pts
    h = (b - a) / panels
    return [a + h * i for i in range(panels)] + [b]


def _composite(f, a, b, panels, rule, singular_left):
    pts = _panel_points(a, b, panels, singular_left)
    total = mpf(0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        half = (hi - lo) / 2
        mid = (hi + lo) / 2
        for x, w in rule:
            node = mid + half * x
            fx = mpf(f(node))
            if not isfinite(fx):
                raise QuadratureError(f"integrand non-finite at node {node}")
            total += half * w * fx
    return total


def quad_gl(f, a, b, panels: int = 8, nodes_per_panel: int = 24,
            singular_left: bool = False) -> SeriesValue:
    """Composite Gauss-Legendre integral of f over [a, b].

    Computes the rule at ``panels`` and at 2x panels and returns the refined
    value with abs_err = |difference between the two|.  With singular_left the
    panels are graded geometrically toward a (integrable singularities at the
    left endpoint only; nodes are interior so f is never evaluated at a).
    """
    a, b = mpf(a), mpf(b)
    if not a < b:
        raise DomainError("quad_gl: need a < b")
    if not all(type(k) is int and k >= 1 for k in (panels, nodes_per_panel)):
        raise DomainError("quad_gl: a panel or node count must be an int >= 1")
    rule = legendre_rule(nodes_per_panel)
    coarse = _composite(f, a, b, panels, rule, singular_left)
    fine = _composite(f, a, b, 2 * panels, rule, singular_left)
    return SeriesValue(value=fine, abs_err=abs(fine - coarse),
                       terms_used=3 * panels * nodes_per_panel,
                       method="gauss_legendre")


def _chebyshev_rule(n: int) -> tuple:
    """_fejer_rule(n), computed once per (n, precision)."""
    return _CHEB_CACHE.get(n, lambda: _fejer_rule(n))


def _fejer_rule(n: int) -> tuple:
    """Chebyshev points of the first kind x_j = cos(theta_j), theta_j =
    pi (2j+1)/(2n), the integer cosine rows of _chebyshev_coeffs, and
    Fejer's first-rule weights on [-1, 1].

    cos(pi m/(2n)) for m < 4n is one mp.cos each at mp.dps + 10, so
    cos(k theta_j) is entry k(2j+1) mod 4n.  Row k of the transform holds
    those entries for j < n, floored to ints at prec + DCT_GUARD bits.  The
    weights w_j = (2/n)(1 - 2 sum_(1<=k<=n/2) cos(2k theta_j)/(4k^2 - 1))
    sum floor divisions of the cosines floored at WEIGHT_GUARD more bits
    than the rule's precision, and are rounded once to it.
    """
    wp = mp.prec + DCT_GUARD
    with workdps(mp.dps + 10):
        cosines = [mp.cos(pi * m / (2 * n)) for m in range(4 * n)]
        prec, rnd = mp._prec_rounding
    nodes = tuple(cosines[2 * j + 1] for j in range(n))
    fixed = [to_fixed(c._mpf_, wp) for c in cosines]
    rows = tuple(tuple(fixed[(k * (2 * j + 1)) % (4 * n)] for j in range(n))
                 for k in range(n))
    ww = prec + WEIGHT_GUARD
    fixed = [to_fixed(c._mpf_, ww) for c in cosines]
    weights = []
    for j in range(n):
        # 1 - 2 sum cos(2k theta_j)/(4k^2 - 1) in units of 2^-ww
        w = (1 << ww) - 2 * sum(fixed[(2 * k * (2 * j + 1)) % (4 * n)] // (4 * k * k - 1)
                                for k in range(1, n // 2 + 1))
        weights.append(mp.make_mpf(mpf_div(from_man_exp(w, 1 - ww), from_int(n),
                                           prec, rnd)))
    return nodes, rows, tuple(weights)


def _chebyshev_coeffs(values) -> list[mpf]:
    """Chebyshev coefficients c_k = (2/n) sum_j v_j cos(k theta_j), c_0
    halved, of the finite mpf values v_j at the n points of
    _chebyshev_rule(n), as one integer sum each.

    With F = prec + DCT_GUARD and 2^E > max|v| the largest value's binary
    magnitude, the values are floored to ints V_j in units of 2^(E-F), and
    row k of the rule holds cos(k theta_j) floored to ints C_kj in units of
    2^-F, each within (1 + 2^-13) 2^-F, as mp.cos at dps + 10 is good to 33
    more bits.  So 2^(E-2F) sum_j V_j C_kj is within n (2^E + max|v|)
    (1 + 2^-13) 2^-F of sum_j v_j cos(k theta_j), and c_k is within
    2 (2^E + max|v|)(1 + 2^-13) 2^-F < 7 max|v| 2^-(prec + DCT_GUARD) of
    its exact value before its one rounding (from_man_exp is exact, mpf_div
    by n rounds), c_0 within half that: far below the n ulps of max|v| a
    sum of 2n rounded mpf operations may lose.  All zero values give zero
    coefficients, and values scaled by 2^s give coefficients scaled by
    2^s, bit for bit.
    """
    n = len(values)
    rows = _chebyshev_rule(n)[1]
    raw = [v._mpf_ for v in values]
    mags = [exp + bc for _, man, exp, bc in raw if man]
    if not mags:
        return [mpf(0)] * n
    prec, rnd = mp._prec_rounding
    shift = prec + DCT_GUARD - max(mags)
    fixed = [to_fixed(v, shift) for v in raw]
    den = from_int(n)
    unit = -shift - prec - DCT_GUARD  # E - 2F: the sums' binary exponent
    return [mp.make_mpf(mpf_div(from_man_exp(sum(map(mul, fixed, row)),
                                             unit + (1 if k else 0)),
                                den, prec, rnd))
            for k, row in enumerate(rows)]


class ChebyshevModel:
    """Chebyshev interpolant sum c_k T_k(u) of an integrand on [a, b], with
    u = (2t - a - b)/(b - a), and the integrand's integral over [a, b]."""

    __slots__ = ("a", "b", "coeffs", "integral", "_floats", "_screen")

    def __init__(self, a: mpf, b: mpf, coeffs: tuple[mpf, ...],
                 integral: SeriesValue):
        self.a, self.b, self.coeffs, self.integral = a, b, coeffs, integral
        # sign()'s float copies of a, b, c_0 and the other coefficients
        # reversed, and its screen, or None where the screen's bound does
        # not hold (see sign)
        floats = [float(c) for c in coeffs]
        fa, fb = float(a), float(b)
        width = float(b - a)
        if (all(not c or float_info.min <= abs(f) < inf for c, f in zip(coeffs, floats))
                and 0 < width < inf
                and max(abs(fa), abs(fb)) <= len(coeffs) * width):
            self._floats = (fa, fb, floats[0], floats[:0:-1])
            self._screen = len(coeffs) ** 3 * 2.0 ** -48 * fsum(map(abs, floats))
        else:
            self._floats = self._screen = None

    def __call__(self, t) -> mpf:
        """Model value at t by Clenshaw's recurrence, on the _mpf_ tuples of
        the mpf operators (so with their bits)."""
        prec, rnd = mp._prec_rounding
        a, b = self.a._mpf_, self.b._mpf_
        u = mpf_div(mpf_sub(mpf_sub(mpf_mul_int(mpf(t)._mpf_, 2, prec, rnd), a, prec, rnd),
                            b, prec, rnd),
                    mpf_sub(b, a, prec, rnd), prec, rnd)
        u2 = mpf_mul_int(u, 2, prec, rnd)
        b1 = b2 = fzero
        for c in reversed(self.coeffs[1:]):
            b1, b2 = mpf_add(mpf_sub(mpf_mul(u2, b1, prec, rnd), b2, prec, rnd),
                             c._mpf_, prec, rnd), b1
        return mp.make_mpf(mpf_add(mpf_sub(mpf_mul(u, b1, prec, rnd), b2, prec, rnd),
                                   self.coeffs[0]._mpf_, prec, rnd))

    def sign(self, t) -> int:
        """The sign of self(t), -1, 0 or 1: from Clenshaw's recurrence in
        floats where its value clears the screen n^3 2^-48 sum|c_k|, n the
        number of coefficients, and from the mpf model's value at every
        other point.

        The screen over-estimates the float value's distance from the mpf
        model's, so a screened sign is the model's sign.  For |u| <= 1,
        float Clenshaw is exact Clenshaw on coefficients each perturbed by
        at most 3 eps (2|b_(k+1)| + |b_(k+2)| + |c_k|), eps = 2^-53, and
        |b_k| <= n sum|c_k| since |U_m(u)| <= m + 1; as |T_k(u)| <= 1 the
        recurrence errs by at most about 9 n^2 eps sum|c_k|.  The rounding of
        t, a and b moves u by at most about 13 eps max(|a|, |b|)/(b - a)
        + 2 eps <= (13 n + 2) eps, times |p'(u)| <= n^2 sum|c_k| (Markov),
        and the float coefficients add eps sum|c_k|: in all under
        n^3 2^-49 sum|c_k|, half the screen.
        So every point falls back when a coefficient is not zero or a
        finite normal float, or max(|a|, |b|) > n (b - a); a point falls back
        when its u lies outside [-1, 1] or its value is not finite.  An
        exact zero of the model is never screened, so it reads 0.
        """
        if self._floats is not None:
            fa, fb, c0, rest = self._floats
            u = (2 * float(t) - fa - fb) / (fb - fa)
            if -1 <= u <= 1:
                u2 = 2 * u
                b1 = b2 = 0.0
                for c in rest:
                    b1, b2 = u2 * b1 - b2 + c, b1
                v = u * b1 - b2 + c0
                if self._screen < abs(v) < inf:
                    return 1 if v > 0 else -1
        v = self(t)
        return (v > 0) - (v < 0)


def chebyshev_model(f, a, b) -> ChebyshevModel:
    """Interpolate f -> SeriesValue at MODEL_POINTS Chebyshev points of the
    first kind on [a, b] and integrate it by Fejer's first rule.

    The model has degree MODEL_POINTS - 1.  The points are interior, so f
    is never evaluated at a or b.  The integral's abs_err is sum_j w_j
    abs_err_j (the weights are positive), a rounding floor, and the tail
    estimate (b - a)(|c_(n-2)| + |c_(n-1)|) of the last two coefficients.
    When that estimate exceeds the rest of the claim the integrand is not
    resolved, and ConvergenceError is raised instead of a claim.
    """
    a, b = mpf(a), mpf(b)
    if not a < b:
        raise DomainError("chebyshev_model: need a < b")
    n = MODEL_POINTS
    nodes, _, weights = _chebyshev_rule(n)
    half, mid = (b - a) / 2, (b + a) / 2
    values, errs = [], []
    for x in nodes:
        node = mid + half * x
        sv = f(node)
        if not isfinite(sv.value):
            raise QuadratureError(f"integrand non-finite at node {node}")
        values.append(sv.value)
        errs.append(sv.abs_err)
    coeffs = _chebyshev_coeffs(values)
    value = half * sum(w * v for w, v in zip(weights, values))
    claim = (half * sum(w * e for w, e in zip(weights, errs))
             + rounding_floor(half * sum(w * abs(v) for w, v in zip(weights, values))))
    tail = (b - a) * (abs(coeffs[-2]) + abs(coeffs[-1]))
    if tail > claim:
        raise ConvergenceError(
            f"chebyshev_model: {n} points do not resolve the integrand on "
            f"[{mp.nstr(a, 6)}, {mp.nstr(b, 6)}]: tail estimate "
            f"{mp.nstr(tail, 3)} exceeds the claim {mp.nstr(claim, 3)}")
    integral = SeriesValue(value=value, abs_err=claim + tail, terms_used=n,
                           method="fejer_chebyshev")
    return ChebyshevModel(a, b, tuple(coeffs), integral)

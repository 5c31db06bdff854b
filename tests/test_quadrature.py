from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import e, exp, legendre, log, mp, mpf, workdps
from mpmath.libmp import to_rational

import oracles
from stieltjes.core import (ConvergenceError, DomainError, SeriesValue,
                            find_root_bisect, rounding_floor)
from stieltjes.gamma import gamma_n
from stieltjes.logpoly import _log_polys
from stieltjes.quadrature import (DCT_GUARD, MODEL_POINTS, ChebyshevModel,
                                  QuadratureError, _chebyshev_coeffs,
                                  _chebyshev_rule, chebyshev_model, legendre_rule,
                                  quad_gl)
from stieltjes.verifier import (CHECK_TOL, ROOT_GRID, ROOT_STEP, _gamma_model,
                                _gamma_roots, _root_grid, _unit_deriv_integral)


def test_polynomial_exact():
    sv = quad_gl(lambda x: x**2, 0, 1, panels=1, nodes_per_panel=32)
    assert abs(sv.value - mpf(1) / 3) <= 2 * mpf(2) ** (-mp.prec)


def test_log_singular_left():
    sv = quad_gl(log, 0, 1, panels=40, nodes_per_panel=24, singular_left=True)
    assert abs(sv.value + 1) < mpf("1e-12")


def test_arctan_kernel():
    ref, bound = oracles.pi_over_4_oracle()
    sv = quad_gl(lambda x: 1 / (1 + x * x), 0, 1, panels=4, nodes_per_panel=24)
    assert abs(sv.value - ref) < mpf("1e-12") + bound


def test_rejects_bad_interval():
    with pytest.raises(DomainError):
        quad_gl(lambda x: x, 1, 0)


def test_nonfinite_integrand_names_node():
    def f(x):
        return mpf("nan") if x > mpf("0.3") else x

    with pytest.raises(QuadratureError) as err:
        quad_gl(f, 0, 1, panels=2, nodes_per_panel=8)
    assert "node" in str(err.value)


def test_rule_weights_sum_to_two():
    rule = legendre_rule(20)
    assert abs(sum(w for _, w in rule) - 2) < mpf("1e-30")


@pytest.mark.parametrize("n", [6, 24, 32])
def test_rule_nodes_are_legendre_roots(n):
    # the Newton step |P_n(x)/P_n'(x)| at each node, with
    # P_n'(x) = n (x P_n(x) - P_(n-1)(x)) / (x^2 - 1)
    bound = mpf(10) ** -(mp.dps + 3)
    rule = legendre_rule(n)
    with workdps(mp.dps + 20):
        for x, _ in rule:
            p = legendre(n, x)
            dp = n * (x * p - legendre(n - 1, x)) / (x * x - 1)
            assert abs(p / dp) <= bound


def test_rule_cache_write_once():
    a = legendre_rule(12)
    b = legendre_rule(12)
    assert a is b  # cached per (nodes, precision), result-invariant


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=12))
def test_gauss_exact_for_low_degree(coeffs):
    # degree <= 2*nodes-1 polynomials integrate exactly (here nodes=6, deg<=11)
    def f(x):
        acc = mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    want = mpf(0)
    for i, c in enumerate(coeffs):
        want += mpf(c) * (mpf(2) ** (i + 1) - 1) / (i + 1)  # int_1^2 x^i
    sv = quad_gl(f, 1, 2, panels=1, nodes_per_panel=6)
    # rounding scale: |f| on [1,2] is at most sum |c_i| 2^i, times node count
    fmax = sum(abs(mpf(c)) * mpf(2) ** i for i, c in enumerate(coeffs)) + 1
    assert abs(sv.value - want) <= 2 * 8 * fmax * mpf(2) ** (-mp.prec + 2)


def _exact(f):
    """An integrand whose node values are exact to rounding."""
    def g(t):
        v = f(t)
        return SeriesValue(v, rounding_floor(v), 1, "exact")
    return g


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=MODEL_POINTS))
def test_model_reproduces_polynomials(coeffs):
    # degree <= MODEL_POINTS - 1: the interpolant is the polynomial and
    # Fejer's first rule integrates it exactly; a per-node claim of 1e-9 sits
    # above the tail estimate, which reads the last two coefficients
    def p(x):
        acc = mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    model = chebyshev_model(lambda t: SeriesValue(p(t), mpf("1e-9"), 1, "poly"), 1, 2)
    fmax = sum(abs(mpf(c)) * mpf(2) ** i for i, c in enumerate(coeffs)) + 1
    dust = 4 * MODEL_POINTS ** 2 * fmax * mpf(2) ** (-mp.prec)
    for t in ("1", "1.03", "1.37", "1.5", "1.81", "2"):
        assert abs(model(mpf(t)) - p(mpf(t))) <= dust
    want = sum(mpf(c) * (mpf(2) ** (i + 1) - 1) / (i + 1) for i, c in enumerate(coeffs))
    assert abs(model.integral.value - want) <= dust


def test_model_integral_of_exp_within_claim():
    sv = chebyshev_model(_exact(exp), 0, 1).integral
    assert abs(sv.value - (e - 1)) <= sv.abs_err
    assert sv.abs_err < mpf("1e-30")


def test_model_claim_carries_node_claims():
    err = mpf("1e-20")
    sv = chebyshev_model(lambda t: SeriesValue(t * t, err, 1, "x"), 1, 3).integral
    assert sv.abs_err >= 2 * err
    assert abs(sv.value - mpf(26) / 3) <= sv.abs_err


def test_model_value_matches_unhoisted_clenshaw():
    # the model doubles u once, outside the loop; doubling is exact, so each
    # value has the bits of the recurrence that doubles it at every step
    model = chebyshev_model(_exact(exp), 1, 3)
    for i in range(81):
        t = 1 + mpf(i) / 40 + mpf("1e-7") * i
        u = (2 * mpf(t) - model.a - model.b) / (model.b - model.a)
        b1 = b2 = mpf(0)
        for c in reversed(model.coeffs[1:]):
            b1, b2 = 2 * u * b1 - b2 + c, b1
        want = u * b1 - b2 + model.coeffs[0]
        assert model(t)._mpf_ == want._mpf_


def _node_values(f, a, b):
    a, b = mpf(a), mpf(b)
    half, mid = (b - a) / 2, (b + a) / 2
    return [f(mid + half * x) for x in _chebyshev_rule(MODEL_POINTS)[0]]


@pytest.mark.parametrize("f, a, b", [(exp, 1, 3), (lambda t: exp(40 * t), -1, 1)],
                         ids=["exp_1_3", "exp40t"])
def test_integer_transform_within_its_bound(f, a, b):
    # exp(40 t)'s node values span 1e-17 to 1e17, so the small ones keep
    # few bits at the largest one's exponent; the bound of _chebyshev_coeffs
    # is absolute, 2 (2^E + max|v|)(1 + 2^-13) 2^-(prec + DCT_GUARD), c_0
    # half of it, plus the one rounding of each coefficient
    values = _node_values(f, a, b)
    want = oracles.chebyshev_coeffs_exact(values)
    vmax = max(abs(Fraction(*to_rational(v._mpf_))) for v in values)
    pow_e = Fraction(2) ** max(v._mpf_[2] + v._mpf_[3] for v in values)
    unit = Fraction(1, 2 ** (mp.prec + DCT_GUARD))
    for k, (c, ref) in enumerate(zip(_chebyshev_coeffs(values), want)):
        c = Fraction(*to_rational(c._mpf_))
        bound = (1 if k else Fraction(1, 2)) * 2 * (pow_e + vmax) * unit * Fraction(1025, 1024)
        assert abs(c - ref) <= bound + abs(c) / 2 ** mp.prec


def test_zero_integrand_gives_zero_coefficients():
    model = chebyshev_model(lambda t: SeriesValue(mpf(0), mpf(0), 1, "zero"), 1, 2)
    assert all(c == 0 for c in model.coeffs)
    assert model.integral.value == 0
    assert model.sign(mpf("1.5")) == 0


@pytest.mark.parametrize("s", [600, -600])
def test_scaled_values_scale_the_coefficients_bit_for_bit(s):
    base = chebyshev_model(_exact(exp), -1, 1).coeffs
    scaled = chebyshev_model(_exact(lambda t: mp.ldexp(exp(t), s)), -1, 1).coeffs
    assert [c._mpf_ for c in scaled] == [mp.ldexp(c, s)._mpf_ for c in base]


def test_model_never_samples_endpoints():
    seen = []

    def f(t):
        seen.append(t)
        return SeriesValue(log(t), rounding_floor(log(t)), 1, "log")

    with pytest.raises(ConvergenceError):  # log t is singular at 0
        chebyshev_model(f, 0, 1)
    assert len(seen) == MODEL_POINTS and all(0 < t < 1 for t in seen)


def test_model_raises_on_unresolved_integrand():
    with pytest.raises(ConvergenceError):
        chebyshev_model(_exact(lambda t: 1 / ((t - mpf("1.5")) ** 2 + mpf("1e-6"))), 1, 2)


def test_model_rejects_bad_interval():
    with pytest.raises(DomainError):
        chebyshev_model(_exact(lambda t: t), 1, 1)


# terms of the remainder majorants summed directly; past them a closed tail
MAJORANT_TERMS = 60


def _majorant(row, power):
    """sum_(j>=1) sum_i |c_i| log^i(j + 1)/j^power for the integer row c of
    a _log_polys row, past MAJORANT_TERMS bounded by log(j + 1) <= j and
    sum_(j>=K) j^-q <= (K - 1)^(1-q)/(q - 1)."""
    K = MAJORANT_TERMS
    head = sum(abs(c) * log(j + 1) ** i / mpf(j) ** power
               for j in range(1, K) for i, c in enumerate(row))
    return head + sum(abs(c) * mpf(K - 1) ** (1 + i - power) / (power - i - 1)
                      for i, c in enumerate(row))


def _remainder_bounds(N):
    """2 ((b - a)/4)^N max|f^(N)|/N!, the remainder of interpolation at N
    Chebyshev points, for the six verifier integrands, on intervals of width
    1.  gamma_n on [1, 2] has f^(N)(x) = sum_(k>=0) P_N(log(k + x))/(k +
    x)^(N+1), P_N from _log_polys(n, 1), majorised at j = k + 1 by log(j + 1)
    and j^-(N+1); zeta^(k)(0, t + 1) on [0, 1] has the terms P_N(log(j +
    t))/(j + t)^N over j >= 1, P_N from _log_polys(k, 0)."""
    with workdps(40):
        majorants = ([_majorant(_log_polys(n, 1)[N], N + 1) for n in range(4)]
                     + [_majorant(_log_polys(k, 0)[N], N) for k in (1, 2)])
        return [2 * mpf(4) ** -N * m / factorial(N) for m in majorants]


def test_model_points_hold_the_remainder_below_the_claims():
    # MODEL_POINTS is the fewest points whose remainder bound is at most
    # 1/500 of every verifier model's claim: at 30 points the bounds read
    # 1.7e-18 ... 1.4e-16 against claims of 2.3e-14 ... 2.0e-13 (gamma_3's
    # share 1.1e-3), and one point fewer takes gamma_3's to 4.3e-3
    claims = ([_gamma_model(n).integral.abs_err for n in range(4)]
              + [_unit_deriv_integral(k).abs_err for k in (1, 2)])
    shares = [b / c for b, c in zip(_remainder_bounds(MODEL_POINTS), claims)]
    assert max(shares) <= mpf(1) / 500
    fewer = [b / c for b, c in zip(_remainder_bounds(MODEL_POINTS - 1), claims)]
    assert max(fewer) > mpf(1) / 500


@pytest.mark.parametrize("dps", [15, 34])
def test_root_grid_is_built_once_per_precision(dps):
    with workdps(dps):
        grid = _root_grid()
        assert [t._mpf_ for t in grid] == [(1 + mpf(i) / (ROOT_GRID - 1))._mpf_
                                           for i in range(ROOT_GRID)]
        assert _root_grid() is grid


def _count_model_calls(monkeypatch) -> list:
    """Record every t at which a ChebyshevModel runs its mpf Clenshaw."""
    calls = []
    mpf_call = ChebyshevModel.__call__

    def counted(self, t):
        calls.append(t)
        return mpf_call(self, t)

    monkeypatch.setattr(ChebyshevModel, "__call__", counted)
    return calls


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_positive_matches_model_signs_on_gamma_grid(n, monkeypatch):
    model = _gamma_model(n)
    grid = _root_grid()
    want = [model(t) > 0 for t in grid]
    calls = _count_model_calls(monkeypatch)
    assert [model.sign(t) > 0 for t in grid] == want
    # gamma_0..gamma_3 stay far outside the screen on the grid
    assert calls == []


def test_positive_falls_back_inside_the_screen(monkeypatch):
    # a root exactly on grid point 100 and a double root 1e-7 past grid point
    # 180: the float values there are inside the screen, so the mpf model
    # decides those two points and no other
    grid = _root_grid()
    r1, r2 = grid[100], grid[180] + mpf("1e-7")
    model = chebyshev_model(_exact(lambda t: (t - r1) * (t - r2) ** 2), 1, 2)
    want = [model(t) > 0 for t in grid]
    calls = _count_model_calls(monkeypatch)
    assert [model.sign(t) > 0 for t in grid] == want
    assert calls == [grid[100], grid[180]]


def test_positive_falls_back_everywhere_without_normal_floats(monkeypatch):
    # a coefficient below the least normal float leaves no float screen
    exact = chebyshev_model(_exact(lambda t: t - mpf("1.5")), 1, 2)
    model = ChebyshevModel(exact.a, exact.b, exact.coeffs[:-1] + (mpf("1e-400"),),
                           exact.integral)
    grid = _root_grid()
    want = [model(t) > 0 for t in grid]
    calls = _count_model_calls(monkeypatch)
    assert [model.sign(t) > 0 for t in grid] == want
    assert len(calls) == len(grid)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_gamma_roots_match_direct_bisection(n):
    # the verifier's roots come from the model; bisect gamma_n itself around
    # each one and compare
    roots = _gamma_roots(n)
    assert len(roots) == (1 if n == 0 else 2)

    def g(t):
        return gamma_n(n, t, "series_c", CHECK_TOL).value

    for r in roots:
        direct = find_root_bisect(g, r - mpf("1e-4"), r + mpf("1e-4"), mpf("1e-11"))
        assert abs(r - direct) <= mpf("2e-11")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_model_integral_agrees_with_gauss_legendre(n):
    sv = _gamma_model(n).integral
    q = quad_gl(lambda t: gamma_n(n, t, "series_c", CHECK_TOL).value,
                1, 2, panels=1, nodes_per_panel=24)
    assert abs(sv.value - q.value) <= sv.abs_err


def _sign_changes(model):
    grid = _root_grid()
    signs = [model.sign(t) > 0 for t in grid]
    return [(grid[i], grid[i + 1]) for i in range(ROOT_GRID - 1)
            if signs[i] != signs[i + 1]]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bisection_on_the_sign_is_bisection_on_the_model(n):
    model = _gamma_model(n)
    brackets = _sign_changes(model)
    assert brackets
    for lo, hi in brackets:
        want = find_root_bisect(model, lo, hi, ROOT_STEP)
        assert find_root_bisect(model.sign, lo, hi, ROOT_STEP)._mpf_ == want._mpf_


def test_bisection_on_the_sign_falls_back_near_the_root(monkeypatch):
    # the polynomial of test_positive_falls_back_inside_the_screen: midpoints
    # near its root on grid point 100 fall inside the screen, so the mpf
    # model decides them, and the root keeps its bits
    grid = _root_grid()
    r1, r2 = grid[100], grid[180] + mpf("1e-7")
    model = chebyshev_model(_exact(lambda t: (t - r1) * (t - r2) ** 2), 1, 2)
    brackets = _sign_changes(model)
    assert brackets
    want = [find_root_bisect(model, lo, hi, ROOT_STEP) for lo, hi in brackets]
    calls = _count_model_calls(monkeypatch)
    got = [find_root_bisect(model.sign, lo, hi, ROOT_STEP) for lo, hi in brackets]
    assert [r._mpf_ for r in got] == [r._mpf_ for r in want]
    assert calls


def test_sign_of_an_exact_zero():
    # T_1(u) = u vanishes exactly at the midpoint: the float value 0 is
    # inside the screen, the mpf model reads 0, and bisection stops there
    model = ChebyshevModel(mpf(1), mpf(2), (mpf(0), mpf(1)),
                           SeriesValue(mpf(0), mpf(0), 2, "exact"))
    assert model.sign(mpf("1.5")) == 0
    assert model.sign(mpf("1.25")) == -1 and model.sign(mpf("1.75")) == 1
    assert find_root_bisect(model.sign, 1, 2, ROOT_STEP) == mpf("1.5")

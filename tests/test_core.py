import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import fadd, mp, mpf, sqrt, workdps, workprec

import oracles
from stieltjes.core import (GUARD_DIGITS, DomainError, SeriesValue, accelerate_alternating,
                            comp_sum, find_root_bisect, harmonic, rounding_floor,
                            tail_claim, tol_digits, working_dps)
from stieltjes.gamma import gamma_n, incgamma_int, stieltjes_integral
from stieltjes.logpoly import em_tail
from stieltjes.quadrature import quad_gl
from stieltjes.related import (delta, digamma, dilcher_log_gamma_k, dilcher_power_series, eta,
                               log_gamma, mangoldt_gap_sums, von_mangoldt)
from stieltjes.verifier import check_lemma31
from stieltjes.zeta import hurwitz_em, hurwitz_hasse, zeta_deriv0_diff, zeta_prime_int


def exact_sum(values):
    """Reference: fold the mpf values with exact (unrounded) additions."""
    acc = mpf(0)
    for v in values:
        acc = fadd(acc, v, exact=True)
    return acc


def test_comp_sum_empty_is_zero():
    assert comp_sum([]) == 0


def test_comp_sum_exact_cancellation():
    assert comp_sum([mpf(1), mpf(-1), mpf("2.5")]) == mpf("2.5")


def test_comp_sum_recovers_tiny_tail():
    # 1 followed by 100 copies of 1e-40 at 34 digits: naive accumulation
    # collapses to 1, compensated keeps the 1e-38 tail
    vals = [mpf(1)] + [mpf("1e-40")] * 100
    naive = mpf(0)
    for v in vals:
        naive += v
    assert naive == 1
    got = comp_sum(vals)
    want = exact_sum(vals)
    assert got != 1
    ulp = abs(want) * mpf(2) ** (-mp.prec)
    assert abs(got - want) <= ulp


def test_comp_sum_deterministic():
    vals = [mpf(3) / k for k in range(1, 200)]
    a = comp_sum(vals)
    b = comp_sum(list(vals))
    assert a == b


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(-10**6, 10**6), max_size=40),
       st.integers(-60, 0))
def test_comp_sum_matches_exact_fold(ints, scale):
    vals = [mpf(i) * mpf(2) ** scale for i in ints]
    got = comp_sum(vals)
    want = exact_sum(vals)
    slack = (sum(abs(v) for v in vals) + 1) * mpf(2) ** (-mp.prec + 8)
    assert abs(got - want) <= slack


@settings(derandomize=True, max_examples=80)
@given(st.lists(st.tuples(st.integers(-2**100, 2**100),
                          st.integers(-2000, 2000)), max_size=40))
def test_comp_sum_is_the_exact_fold_bit_for_bit(pairs):
    vals = [mp.ldexp(mpf(m), e) for m, e in pairs]
    assert comp_sum(vals)._mpf_ == exact_sum(vals)._mpf_


def test_comp_sum_keeps_a_term_far_below_the_others():
    big = mpf(2) ** 10000
    assert comp_sum([big, 1, -big])._mpf_ == mpf(1)._mpf_


@settings(derandomize=True, max_examples=30)
@given(st.permutations(range(30)))
def test_comp_sum_independent_of_order(order):
    vals = [(-1) ** k * mp.ldexp(mpf(1) / (k + 1), 7 * k - 100) for k in range(30)]
    assert comp_sum(vals[k] for k in order)._mpf_ == comp_sum(vals)._mpf_


def test_comp_sum_term_wider_than_working_precision_enters_unrounded():
    inner = comp_sum([mpf(1), mpf(2) ** -300])
    assert inner != mpf(inner)
    assert comp_sum([inner, mpf(-1)]) == mpf(2) ** -300


def test_comp_sum_of_a_generator():
    vals = [mpf(1) / k for k in range(1, 60)]
    assert comp_sum(mpf(1) / k for k in range(1, 60))._mpf_ == exact_sum(vals)._mpf_


def test_comp_sum_takes_mpf_tuples_with_the_bits_of_mpf_terms():
    vals = [mpf(1) / 3, mpf(2) ** -300, 7, -mpf(10) ** 40, mpf("0.1")]
    mixed = [v._mpf_ if i % 2 else v for i, v in enumerate(vals)]
    assert comp_sum(mixed)._mpf_ == comp_sum(vals)._mpf_
    # a generator of tuples, one wider than the working precision
    wide = comp_sum([mpf(1), mpf(2) ** -300])
    assert comp_sum(v._mpf_ for v in (wide, mpf(-1))) == mpf(2) ** -300


def test_comp_sum_tuple_infinities_and_nan_combine_as_mpf_addition():
    inf, one = mp.inf._mpf_, mpf(1)._mpf_
    assert comp_sum([inf, one]) == mp.inf
    assert comp_sum([one, (-mp.inf)._mpf_]) == -mp.inf
    assert mp.isnan(comp_sum([inf, (-mp.inf)._mpf_]))
    assert mp.isnan(comp_sum([mp.nan._mpf_, mpf(1)]))
    assert comp_sum([inf, mp.inf]) == mp.inf + mp.inf


def test_comp_sum_infinities_and_nan():
    assert comp_sum([mp.inf, mpf(1)]) == mp.inf
    assert comp_sum([mpf(1), -mp.inf]) == -mp.inf
    assert mp.isnan(comp_sum([mp.inf, -mp.inf]))
    assert mp.isnan(comp_sum([mp.nan, mpf(1)]))


def test_harmonic_small():
    assert harmonic(1) == 1
    assert harmonic(2) == mpf("1.5")


def test_harmonic_ten_vs_exact_rational():
    want = Fraction(7381, 2520)
    got = harmonic(10)
    ref = mpf(want.numerator) / want.denominator
    assert abs(got - ref) <= abs(ref) * mpf(2) ** (-mp.prec)


def test_harmonic_rejects_zero():
    with pytest.raises(DomainError):
        harmonic(0)


def test_bisect_linear():
    assert find_root_bisect(lambda t: t - 1, 0, 2, mpf("1e-15")) == 1


def test_bisect_sqrt2():
    root = find_root_bisect(lambda t: t * t - 2, 1, 2, mpf("1e-12"))
    assert abs(root - sqrt(2)) < mpf("1e-12")


def test_bisect_requires_bracket():
    with pytest.raises(DomainError):
        find_root_bisect(lambda t: t * t + 1, -1, 1, mpf("1e-10"))


def test_accelerate_zero_terms():
    sv = accelerate_alternating(lambda k: mpf(0), 16)
    assert sv.value == 0
    assert sv.abs_err == 0


def test_accelerate_ln2():
    ref, bound = oracles.ln2_alternating_oracle()
    sv = accelerate_alternating(lambda k: mpf(1) / (k + 1), 30)
    assert abs(sv.value - ref) < mpf("1e-12") + bound
    assert abs(sv.value - ref) <= sv.abs_err + bound


def test_accelerate_pi_over_4():
    ref, bound = oracles.pi_over_4_oracle()
    sv = accelerate_alternating(lambda k: mpf(1) / (2 * k + 1), 30)
    assert abs(sv.value - ref) < mpf("1e-12") + bound


def test_accelerate_rejects_small_K():
    with pytest.raises(DomainError):
        accelerate_alternating(lambda k: mpf(1), 3)


def test_working_precision_policy():
    assert working_dps(mpf("1e-12")) >= 24
    assert tol_digits(mpf("1e-12")) == 12
    with workdps(34):
        # never below ambient
        assert working_dps(mpf("1e-4")) >= 34


def _tol_digits_log10(tol):
    """tol_digits as mpmath's log10 at 53 bits reads it: the memoised value
    must be this one, whatever the precision it is read at."""
    with workprec(53):
        return max(1, int(mp.ceil(-mp.log10(mpf(tol)))))


@pytest.mark.parametrize("parse_dps", [15, 34, 108])
def test_tol_digits_is_the_log10_formula(parse_dps):
    # powers of ten 1e-1 ... 1e-300 and random mantissas, parsed at one
    # precision and read at several: the count reads the tolerance's value
    # at 53 bits, so it is the same at every precision
    rng = random.Random(parse_dps)
    with workdps(parse_dps):
        tols = [mpf(f"1e-{e}") for e in range(1, 301)]
        tols += [mpf(f"{rng.uniform(1, 10):.9f}e-{rng.randint(0, 300)}") for _ in range(300)]
        tols += [mpf(10) ** rng.uniform(-300, 3) for _ in range(100)]
    for dps in (15, 34, 42, 50, 108, 230):
        with workdps(dps):
            for tol in tols:
                assert tol_digits(tol) == _tol_digits_log10(tol), (parse_dps, dps, tol)
    # a power of ten asks for its exponent's digits, however it was parsed
    for e, tol in enumerate(tols[:300], 1):
        assert tol_digits(tol) == e, (parse_dps, e)


def test_tol_digits_of_a_tolerance_parsed_at_fifteen_digits():
    # mpf("1e-12") parsed at 15 digits lies a little below 1e-12: read at
    # 34 or 50 digits by the precision, -log10 passed 12 and working_dps
    # added two digits inside a higher workdps
    with workdps(15):
        tols = {d: mpf(f"1e-{d}") for d in (12, 15, 20, 30, 50)}
    for dps in (15, 34, 50):
        with workdps(dps):
            for d, tol in tols.items():
                assert tol_digits(tol) == d, (dps, d)
                assert working_dps(tol) == max(dps, 2 * d) + GUARD_DIGITS


def test_tail_claim_and_rounding_floor_have_the_bits_of_the_mpf_formulas():
    # values and remainder bounds wider and narrower than the precision,
    # either sign for the value, zero, and exponents far from 0: the libmpf
    # forms against (|v| + 1) 2^(6 - prec) and 5 err / 4 + that floor in mpf
    # operators, bit for bit, at 15 to 108 digits
    rng = random.Random(20190205)
    for _ in range(8000):
        with workdps(rng.randint(15, 108)):
            v = mpf(rng.getrandbits(rng.randint(1, 3 * mp.prec))) * rng.choice((1, -1))
            v = mp.ldexp(v, rng.randint(-400, 60))
            err = mp.ldexp(mpf(rng.getrandbits(rng.randint(0, 3 * mp.prec))),
                           rng.randint(-500, 0))
            floor = (abs(v) + 1) * mpf(2) ** (-mp.prec + 6)
            assert rounding_floor(v)._mpf_ == floor._mpf_, (mp.dps, v)
            assert tail_claim(err, v)._mpf_ == (5 * err / 4 + floor)._mpf_, (mp.dps, err, v)
    with workdps(34):
        assert tail_claim(mp.inf, 1) == rounding_floor(mp.inf) == mp.inf


def test_series_value_invariants():
    with pytest.raises(DomainError):
        SeriesValue(mpf(1), mpf(-1), 1, "x")
    with pytest.raises(DomainError):
        SeriesValue(mpf(1), mpf(0), 0, "x")


inf, nan = mp.inf, mp.nan
BAD_CALLS = {
    "zeta_deriv0_diff(1.5, 2)": lambda: zeta_deriv0_diff(1.5, 2),
    "delta(1.5)": lambda: delta(1.5),
    "stieltjes_integral(1.5, 2)": lambda: stieltjes_integral(1.5, 2),
    "eta(1.5)": lambda: eta(1.5),
    "mangoldt_gap_sums(1.5, [10])": lambda: mangoldt_gap_sums(1.5, [10]),
    "gamma_n(1.5, 1)": lambda: gamma_n(1.5, 1),
    "dilcher_log_gamma_k(1.5, 1)": lambda: dilcher_log_gamma_k(1.5, 1),
    "gamma_n(1, inf)": lambda: gamma_n(1, inf),
    "digamma(inf)": lambda: digamma(inf),
    "hurwitz_em(2, inf)": lambda: hurwitz_em(2, inf),
    "zeta_deriv0_diff(1, inf)": lambda: zeta_deriv0_diff(1, inf),
    "gamma_n(1, 1, tol=inf)": lambda: gamma_n(1, 1, tol=inf),
    "hurwitz_em(nan, 1)": lambda: hurwitz_em(nan, 1),
    "hurwitz_hasse(nan, 1)": lambda: hurwitz_hasse(nan, 1),
    "hurwitz_hasse(inf, 1)": lambda: hurwitz_hasse(inf, 1),
    "zeta_prime_int(inf)": lambda: zeta_prime_int(inf),
    "log_gamma(inf)": lambda: log_gamma(inf),
    "dilcher_log_gamma_k(1, inf)": lambda: dilcher_log_gamma_k(1, inf),
    "dilcher_power_series(nan)": lambda: dilcher_power_series(nan),
    "check_lemma31(1.5, 1, 10)": lambda: check_lemma31(1.5, 1, 10),
    "check_lemma31(-1, 1, 10)": lambda: check_lemma31(-1, 1, 10),
    "check_lemma31(1, inf, 10)": lambda: check_lemma31(1, inf, 10),
    "incgamma_int(1.5, 1)": lambda: incgamma_int(1.5, 1),
    "incgamma_int(1, inf)": lambda: incgamma_int(1, inf),
    "em_tail(1, 1, inf)": lambda: em_tail(1, 1, inf),
    "em_tail(1, 1, nan)": lambda: em_tail(1, 1, nan),
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
def test_entry_points_reject_a_bad_order_or_a_non_finite_input(call):
    # an order that is not an int in the route's range, and an x, s or tol
    # that is not finite, raise DomainError from the argument checks
    with pytest.raises(DomainError, match="order must be an int|finite"):
        BAD_CALLS[call]()


BAD_COUNTS = {
    "check_lemma31(1, 1, 2.5)": lambda: check_lemma31(1, 1, 2.5),
    "harmonic(2.5)": lambda: harmonic(2.5),
    "von_mangoldt(2.5)": lambda: von_mangoldt(2.5),
    "quad_gl(f, 0, 1, panels=0)": lambda: quad_gl(lambda t: t, 0, 1, panels=0),
}


@pytest.mark.parametrize("call", sorted(BAD_COUNTS))
def test_entry_points_reject_a_count_that_is_not_a_positive_int(call):
    # a float count raised TypeError or AttributeError, and zero panels
    # ZeroDivisionError
    with pytest.raises(DomainError, match="must be an int"):
        BAD_COUNTS[call]()

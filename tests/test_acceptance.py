"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Oracle constants come from tests/oracles.py
(independent computations, frozen with their generation code)."""

import math
import time

from mpmath import log, loggamma, mp, mpf, pi, workdps

import oracles
from stieltjes.gamma import (RationalArg, gamma1_alt, gamma1_rational, gamma_n)
from stieltjes.related import (delta, digamma, dilcher_log_gamma_k, eta,
                               mangoldt_gap_sums)
from stieltjes.related import _cot_pi
from stieltjes.verifier import (check_lemma31, check_vanishing_integrals,
                                check_zero_structure, run_suite, LEMMA_SEED)
from stieltjes.zeta import hurwitz_em, hurwitz_hasse, zeta_deriv0_diff

GRID_X = [mpf("0.25"), mpf("0.5"), mpf(1), mpf("1.5"), mpf(2), +pi]


def report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_euler_constant(gamma_ref):
    t0 = time.perf_counter()
    sv = gamma_n(0, 1, "series_b", mpf("1e-13"))
    elapsed = time.perf_counter() - t0
    err = abs(sv.value - gamma_ref)
    ok = err < mpf("1e-12") and elapsed < 1.0
    ok = ok and abs(sv.value - mpf("0.5772156649015329")) < mpf("1e-12")
    report(1, ok, f"gamma = 0.5772156649015329 +/- 1e-12 "
                  f"(err {mp.nstr(err, 3)}, {elapsed:.3f}s)")


def test_criterion_02_gamma1_three_routes(gamma1_ref):
    t0 = time.perf_counter()
    b = gamma_n(1, 1, "series_b", mpf("1e-12"))
    c = gamma_n(1, 1, "series_c", mpf("1e-12"))
    alt = gamma1_alt(mpf("1e-10"))
    elapsed = time.perf_counter() - t0
    devs = [abs(r.value - gamma1_ref) for r in (b, c, alt)]
    ok = all(d < mpf("1e-8") for d in devs)
    for u, v in ((b, c), (b, alt), (c, alt)):
        ok = ok and abs(u.value - v.value) <= u.abs_err + v.abs_err
    ok = ok and elapsed < 10.0
    report(2, ok, f"gamma_1 routes vs oracle: deviations "
                  f"{[mp.nstr(d, 2) for d in devs]}, {elapsed:.2f}s")


def test_criterion_03_representation_grid():
    t0 = time.perf_counter()
    worst_gap_ratio = mpf(0)
    worst_err = mpf(0)
    ok = True
    for n in range(5):
        for x in GRID_X:
            b = gamma_n(n, x, "series_b", mpf("1e-12"))
            c = gamma_n(n, x, "series_c", mpf("1e-12"))
            gap = abs(b.value - c.value)
            budget = b.abs_err + c.abs_err
            ok = ok and gap <= budget
            worst_gap_ratio = max(worst_gap_ratio, gap / budget)
            worst_err = max(worst_err, b.abs_err, c.abs_err)
    ok = ok and worst_err <= mpf("1e-10")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, f"series_b vs series_c on 5x6 grid: worst gap/budget "
                  f"{mp.nstr(worst_gap_ratio, 3)}, worst claimed err "
                  f"{mp.nstr(worst_err, 3)}, {elapsed:.2f}s")


def test_criterion_04_lerch():
    # zeta'(0,x) - zeta'(0) = log Gamma(x), against mpmath at 80 digits and
    # against the Weierstrass product route log Gamma_0((x-1)+1)
    tol = mpf("1e-13")
    worst_ref = worst_route = mpf(0)
    for x in GRID_X + [mpf(3)]:
        zd = zeta_deriv0_diff(0, x, tol)
        wp = dilcher_log_gamma_k(0, x - 1, tol)
        with workdps(80):
            ref = loggamma(x)
            worst_ref = max(worst_ref, abs(zd.value - ref) / zd.abs_err)
            worst_route = max(worst_route,
                              abs(zd.value - wp.value) / (zd.abs_err + wp.abs_err))
    ok = worst_ref <= 1 and worst_route <= 1
    report(4, ok, f"zeta'(0,x)-zeta'(0) vs log Gamma(x): worst gap/claim "
                  f"{mp.nstr(worst_ref, 3)} (mpmath), {mp.nstr(worst_route, 3)} "
                  f"(Weierstrass product)")


def test_criterion_05_digamma_zero():
    rep = check_zero_structure(0)
    ok = rep.passed and rep.residual < mpf("1e-9")
    report(5, ok, f"gamma_0 zero at 1.461632144968 +/- 1e-9 "
                  f"(residual {mp.nstr(rep.residual, 3)})")


def test_criterion_06_vanishing_integrals():
    ok = True
    residuals = {}
    for n in (1, 2, 3):
        rep = check_vanishing_integrals(n)
        sub = {s.label: abs(s.residual) for s in rep.subchecks}
        residuals[f"gamma_{n}"] = sub["gamma_over_unit_interval"]
        ok = ok and sub["gamma_over_unit_interval"] < mpf("1e-8")
        residuals["zeta_prime"] = sub["zeta_prime0_over_unit"]
        residuals["zeta_second"] = sub["zeta_second0_over_unit"]
    ok = ok and residuals["zeta_prime"] < mpf("1e-8")
    ok = ok and residuals["zeta_second"] < mpf("1e-7")
    report(6, ok, "vanishing integrals: " +
           ", ".join(f"{k}={mp.nstr(v, 2)}" for k, v in residuals.items()))


def test_criterion_07_second_derivative_constant(gamma_ref, gamma1_ref):
    from_delta = delta(2).value - 2
    closed = gamma1_ref + gamma_ref**2 / 2 - pi**2 / 24 - log(2 * pi) ** 2 / 2
    gap = abs(from_delta - closed)
    ok = gap < mpf("1e-8")
    report(7, ok, f"zeta''(0) delta-route vs Stieltjes closed form: gap {mp.nstr(gap, 3)}")


def test_criterion_08_rational_closed_forms(gamma_ref, gamma1_ref):
    quarter = gamma1_rational(RationalArg(1, 4), mpf("1e-12"))
    three_quarter = gamma1_rational(RationalArg(3, 4), mpf("1e-12"))
    want = 2 * gamma1_ref - 7 * log(2) ** 2 - 6 * gamma_ref * log(2)
    pair_gap = abs(quarter.value + three_quarter.value - want)
    ok = pair_gap < mpf("1e-8")
    worst = mpf(0)
    for q in range(2, 7):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                closed = gamma1_rational(RationalArg(p, q), mpf("1e-12"))
                series = gamma_n(1, mpf(p) / q, "series_b", mpf("1e-13"))
                worst = max(worst, abs(closed.value - series.value))
    ok = ok and worst < mpf("1e-7")
    report(8, ok, f"gamma_1 rational forms: pair gap {mp.nstr(pair_gap, 3)}, "
                  f"worst vs series over q<=6: {mp.nstr(worst, 3)}")


def test_criterion_09_eta_routes(gamma_ref):
    e0 = eta(0, "from_gamma", tol=mpf("1e-12"))
    ok = abs(e0.value + gamma_ref) < mpf("1e-10")
    e1 = eta(1, "from_gamma", tol=mpf("1e-12"))
    ok = ok and e1.value > 0
    sums = mangoldt_gap_sums(0, [10**4, 10**5, 10**6])
    gaps = [abs(sums[k] + 2 * gamma_ref) for k in (10**4, 10**5, 10**6)]
    ok = ok and gaps[2] < gaps[1] < gaps[0] and gaps[2] < mpf("0.05")
    report(9, ok, f"eta_0 = -gamma, eta_1 > 0, von Mangoldt trend gaps "
                  f"{[mp.nstr(g, 2) for g in gaps]}")


def test_criterion_10_delta_constants():
    d0 = delta(0)
    d1 = delta(1)
    ok = abs(d0.value - mpf("0.5")) < mpf("1e-8")
    gap = abs(d1.value - (-1 + log(2 * pi) / 2))
    ok = ok and gap < mpf("1e-8")
    report(10, ok, f"delta_0 = 1/2, delta_1 = -1 + log(2 pi)/2 "
                   f"(gap {mp.nstr(gap, 3)})")


def test_criterion_11_telescoping_lemma():
    import random

    rng = random.Random(LEMMA_SEED)
    worst = mpf(0)
    gated = True
    for _ in range(50):
        n = rng.randint(0, 5)
        x = mpf(rng.uniform(0.0, 10.0))
        N = rng.randint(1, 1000)
        rep = check_lemma31(n, x, N)
        worst = max(worst, rep.residual)
        # the gate of the kernel's claims is no looser than 1e-28 relative
        gated = gated and rep.tolerance <= mpf("1e-28") * max(1, abs(log(x + N) ** (n + 1)))
    ok = worst < mpf("1e-28") and gated
    report(11, ok, f"telescoping identity, 50 random cases at 34 digits: "
                   f"worst residual {mp.nstr(worst, 3)}")


def test_criterion_12_laurent_reconstruction():
    s = mpf("1.1")
    z = hurwitz_em(s, 1, mpf("1e-16"))
    series = mpf(0)
    for n in range(7):
        g = gamma_n(n, 1, "series_b", mpf("1e-14"))
        series += (-1) ** n * g.value * (s - 1) ** n / math.factorial(n)
    residual = abs(z.value - 1 / (s - 1) - series)
    ok = residual < mpf("1e-9")
    report(12, ok, f"Laurent reconstruction at s=1.1: residual {mp.nstr(residual, 3)}")


def test_criterion_13_binomial_continuation():
    a = hurwitz_hasse(-1, 1, mpf("1e-8"))
    b = hurwitz_hasse(0, mpf("0.25"), mpf("1e-8"))
    em_a = hurwitz_em(-1, 1, mpf("1e-16"))
    em_b = hurwitz_em(0, mpf("0.25"), mpf("1e-16"))
    ok = abs(a.value + mpf(1) / 12) < mpf("1e-8")
    ok = ok and abs(b.value - mpf("0.25")) < mpf("1e-8")
    ok = ok and abs(a.value - em_a.value) <= a.abs_err + em_a.abs_err
    ok = ok and abs(b.value - em_b.value) <= b.abs_err + em_b.abs_err
    report(13, ok, "binomial double sum continues to zeta(-1) = -1/12 and "
                   "zeta(0, 1/4) = 1/4")


def test_criterion_14_cotangent():
    worst = mpf(0)
    for x in (mpf(1) / 6, mpf(1) / 4, mpf(1) / 3, mpf(1) / 2, mpf(2) / 3):
        target = pi * _cot_pi(x)
        da = digamma(1 - x, mpf("1e-13"))
        db = digamma(x, mpf("1e-13"))
        worst = max(worst, abs(target - (da.value - db.value)))
    ok = worst < mpf("1e-10")
    report(14, ok, f"pi cot(pi x) = psi(1-x) - psi(x): worst residual "
                   f"{mp.nstr(worst, 3)}")


def test_criterion_15_full_suite():
    t0 = time.perf_counter()
    reports = run_suite("all")
    elapsed = time.perf_counter() - t0
    failed = [r for r in reports if not r.passed]
    ok = not failed and elapsed < 300.0
    report(15, ok, f"verify suite: {len(reports) - len(failed)}/{len(reports)} "
                   f"checks passed in {elapsed:.1f}s")

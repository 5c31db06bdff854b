import random

import pytest
from mpmath import mp, mpf, pi, stieltjes, workdps, zeta

import oracles
from stieltjes import fixedpoint, verifier
from stieltjes.core import DomainError, PrecTable
from stieltjes.reporting import SubCheck, VerifyReport
from stieltjes.verifier import (CHECKS, UnknownCheckError, _g_series, check_cotangent,
                                check_g_functions, check_lemma31,
                                check_vanishing_integrals,
                                check_zero_structure, run_suite)


def _lemma31_cases():
    """The grid's three fixed cases and its first ten seeded draws."""
    rng = random.Random(verifier.LEMMA_SEED)
    cases = [(0, mpf(0), 1), (3, pi, 100), (1, mpf(0), 1000)]
    for _ in range(10):
        n = rng.randint(0, 5)
        x = mpf(rng.uniform(0.0, 10.0))
        cases.append((n, x, rng.randint(1, 1000)))
    return cases


_LEMMA31_CASES = _lemma31_cases()


class TestLemma31:
    def test_trivial_case(self):
        rep = check_lemma31(0, 0, 1)
        assert rep.passed and rep.residual < mpf("1e-30")

    def test_pi_shift(self):
        rep = check_lemma31(3, pi, 100)
        assert rep.passed and rep.residual < mpf("1e-28") * 100

    def test_long_sum(self):
        rep = check_lemma31(1, 0, 1000)
        assert rep.passed

    @pytest.mark.parametrize("n, x, N", _LEMMA31_CASES)
    def test_kernel_sums_within_their_bounds(self, n, x, N):
        # each lattice_sum is within 2^(-prec-3) of its exact value; the
        # reference, at 40 more digits, adds its own error on top
        telescoped, step = verifier._lemma31_kernel(n + 1, mpf(x), N)
        ref_sum, ref_integral = oracles.lemma31_reference(n, x, N)
        bound = mp.ldexp(1, -mp.prec - 3)
        with workdps(mp.dps + 40):
            slack = mpf(10) ** (-mp.dps + 5) * (1 + abs(ref_sum))
            assert abs(telescoped - ref_sum) <= bound + slack
            assert abs(step / (n + 1) - ref_integral) <= bound / (n + 1) + slack

    @pytest.mark.parametrize("dps", [15, 34, 50])
    @pytest.mark.parametrize("n, x, N", [(0, "0.25", 7), (3, "pi", 100),
                                         (5, "7.3", 500), (2, "5", 4000)])
    def test_passes_at_each_precision(self, dps, n, x, N):
        mp.dps = dps
        x = pi if x == "pi" else mpf(x)
        rep = check_lemma31(n, x, N)
        # the kernel's two sums and a reference whose error is far below them
        assert rep.passed
        assert mp.ldexp(1, -mp.prec - 2) <= rep.tolerance <= mp.ldexp(1, -mp.prec - 1)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_unit_point(self, n):
        # u = 1 + x = N + x = 1: log 1 = 0, so the left side is 0
        rep = check_lemma31(n, 0, 1)
        assert rep.passed and rep.residual == 0

    def test_integer_points_read_the_table(self, monkeypatch):
        # x = 5: the kernel's points 6, 4005 and 4006 are integers up to
        # INT_LOG_CAP, whose logarithms fixed_log_ints keeps per precision;
        # a fresh table shows the check reads those end points only
        monkeypatch.setattr(fixedpoint, "_INT_LOGS", PrecTable())
        rep = check_lemma31(2, 5, 4000)
        assert rep.passed
        assert set(fixedpoint._INT_LOGS.at_prec()) == {6, 4005, 4006}

    @pytest.mark.parametrize("n, N", [(0, 0), (1, -3)])
    def test_rejects_N_below_one(self, n, N):
        with pytest.raises(DomainError):
            check_lemma31(n, mpf("0.5"), N)

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            check_lemma31(1, mpf("-0.5"), 10)

    @pytest.mark.parametrize("n, x, N", [(3, "pi", 100), (5, "7.3", 500),
                                         (1, "0.25", 10)])
    def test_fails_on_a_broken_logarithm(self, monkeypatch, n, x, N):
        # every kernel logarithm off by 2^8 units of 2^-prec, about 1e-32 at
        # 34 digits; non-integer points, so no table entry is read or kept
        x = pi if x == "pi" else mpf(x)
        assert check_lemma31(n, x, N).passed
        fixed_log = fixedpoint.fixed_log
        monkeypatch.setattr(fixedpoint, "fixed_log",
                            lambda u, wp: fixed_log(u, wp) + (1 << (wp - mp.prec + 8)))
        assert not check_lemma31(n, x, N).passed


class TestCotangent:
    def test_half_symmetric_zero(self):
        rep = check_cotangent(mpf("0.5"))
        assert rep.passed
        assert all(s.residual < mpf("1e-12") for s in rep.subchecks)

    def test_quarter(self):
        rep = check_cotangent(mpf("0.25"))
        assert rep.passed

    def test_third(self):
        rep = check_cotangent(mpf(1) / 3)
        assert rep.passed


class TestZeroStructure:
    def test_digamma_zero_location(self):
        rep = check_zero_structure(0)
        assert rep.passed
        assert rep.residual < mpf("1e-9")

    def test_digamma_zero_gate_is_propagated(self):
        rep = check_zero_structure(0)
        # ROOT_STEP, plus half a unit in the literal's 12th decimal, plus dust
        assert mpf("1.05e-11") <= rep.tolerance < mpf("1.06e-11")

    def test_literal_moved_by_1e_10_fails(self, monkeypatch):
        monkeypatch.setattr(verifier, "ALPHA_DIGAMMA_ZERO",
                            verifier.ALPHA_DIGAMMA_ZERO + mpf("1e-10"))
        rep = check_zero_structure(0)
        assert not rep.passed and rep.residual > mpf("9e-11")

    @pytest.mark.parametrize("n", [1, 2])
    def test_two_sign_changes(self, n):
        rep = check_zero_structure(n)
        assert rep.passed and rep.residual == 0


class TestGFunctions:
    @pytest.mark.parametrize("x", ["0.5", "1", "2"])
    def test_routes_agree(self, x):
        rep = check_g_functions(mpf(x))
        assert rep.passed

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("x", ["0.05", "0.5", "1", "2", "7.5", "30"])
    def test_series_claims_bound_the_true_error(self, q, x):
        # the series is (-1)^q [zeta^(q)(0, x) - zeta^(q)(0)] - q (x-1) gamma_(q-1)
        x, tol = mpf(x), mpf("1e-12")
        value, err = _g_series(q, x, tol)
        with workdps(60):
            ref = ((-1) ** q * (zeta(0, x, q) - zeta(0, 1, q))
                   - q * (x - 1) * stieltjes(q - 1))
            assert abs(value - ref) <= err <= tol


class TestVanishing:
    def test_order_one(self):
        rep = check_vanishing_integrals(1)
        assert rep.passed
        labels = [s.label for s in rep.subchecks]
        assert len(labels) == 3


class TestSuite:
    def test_empty_selection(self):
        assert run_suite([]) == []

    def test_single_id(self):
        reports = run_suite(["lemma31"])
        assert reports and all(r.passed for r in reports)

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckError):
            run_suite(["bogus"])

    def test_deterministic_ordering(self):
        a = run_suite(["cotangent", "g_functions"])
        b = run_suite(["g_functions", "cotangent"])
        assert [r.check_id for r in a] == [r.check_id for r in b]
        assert [str(r.inputs) for r in a] == [str(r.inputs) for r in b]
        assert [str(r.residual) for r in a] == [str(r.residual) for r in b]

    def test_registry_ids(self):
        assert set(CHECKS) == {"lemma31", "cotangent", "vanishing_integrals",
                               "zero_structure", "g_functions"}

    def test_passed_flag_recomputable(self):
        for rep in run_suite(["cotangent", "lemma31"]):
            assert rep.passed == (abs(rep.residual) <= rep.tolerance)
            for s in rep.subchecks:
                assert s.passed == (abs(s.residual) <= s.tolerance)


class TestReport:
    def test_aggregation(self):
        subs = [SubCheck("a", mpf("1e-12"), mpf("1e-10")),
                SubCheck("b", mpf("2e-10"), mpf("1e-10"))]
        rep = VerifyReport.from_subchecks("x", {}, subs, 0.0)
        assert not rep.passed
        assert rep.residual == mpf(2)

    def test_aggregate_fails_within_an_ulp_above_one(self):
        # a residual one 2^-(prec+8) above its tolerance, with all its bits:
        # a ratio rounded to nearest would read 1 and pass
        over = mp.fadd(1, mp.ldexp(1, -mp.prec - 8), exact=True)
        sub = SubCheck("a", over, mpf(1))
        rep = VerifyReport.from_subchecks("x", {}, [sub], 0.0)
        assert not sub.passed and not rep.passed
        assert rep.residual > 1

    def test_aggregate_passes_at_a_ratio_of_one(self):
        third = mpf(1) / 3
        subs = [SubCheck("a", -third, third), SubCheck("b", mpf(0), third)]
        rep = VerifyReport.from_subchecks("x", {}, subs, 0.0)
        assert rep.passed and rep.residual == 1

    def test_build_keeps_the_bits_of_an_mpf_tolerance(self):
        # a gate 2^-200 above 2^-60: rounded to the ambient precision, it
        # would read 2^-60
        tol = mp.fadd(mp.ldexp(1, -60), mp.ldexp(1, -200), exact=True)
        rep = VerifyReport.build("c", {}, mp.ldexp(1, -60), tol, 0.0)
        assert rep.tolerance._mpf_ == tol._mpf_ and rep.tolerance > mp.ldexp(1, -60)
        rep = VerifyReport.build("c", {}, 3, "1e-10", 0.0)
        assert rep.residual == 3 and rep.tolerance == mpf("1e-10")

    def test_lemma31_gate_keeps_its_bits_at_fifteen_digits(self):
        # the gate is 2^(-prec-2) plus the reference's own error, summed at
        # 20 more digits, and the report keeps that sum with all its bits
        with workdps(15):
            rep = check_lemma31(3, pi, 100)
            assert rep.tolerance > mp.ldexp(1, -mp.prec - 2)
            assert rep.tolerance._mpf_[3] > mp.prec
            assert rep.passed

    def test_as_dict_round_trip(self):
        rep = VerifyReport.build("c", {"n": 1}, mpf("1e-20"), mpf("1e-10"), 0.1)
        d = rep.as_dict()
        assert d["passed"] is True
        assert d["check_id"] == "c"

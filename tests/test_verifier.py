import random

import pytest
from mpmath import mpf, pi, stieltjes, workdps, zeta

import oracles
from stieltjes import verifier
from stieltjes.reporting import SubCheck, VerifyReport
from stieltjes.verifier import (CHECKS, UnknownCheckError, _g_series, check_cotangent,
                                check_g_functions, check_lemma31,
                                check_vanishing_integrals,
                                check_zero_structure, run_suite)


def _lemma31_bit_cases():
    """The grid's three fixed cases and its first ten seeded draws."""
    rng = random.Random(verifier.LEMMA_SEED)
    cases = [(0, mpf(0), 1), (3, pi, 100), (1, mpf(0), 1000)]
    for _ in range(10):
        n = rng.randint(0, 5)
        x = mpf(rng.uniform(0.0, 10.0))
        cases.append((n, x, rng.randint(1, 1000)))
    return cases


_LEMMA31_BIT_CASES = _lemma31_bit_cases()


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

    @pytest.mark.parametrize("n, x, N", _LEMMA31_BIT_CASES)
    def test_bits_match_operator_form(self, n, x, N):
        # the tuple loops make the libmpf calls of the mpf operators
        rep = check_lemma31(n, x, N)
        residual, tolerance = oracles.lemma31_operator_form(n, x, N)
        assert rep.residual._mpf_ == residual._mpf_
        assert rep.tolerance._mpf_ == tolerance._mpf_
        assert rep.passed == (residual <= tolerance)


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

    def test_as_dict_round_trip(self):
        rep = VerifyReport.build("c", {"n": 1}, mpf("1e-20"), mpf("1e-10"), 0.1)
        d = rep.as_dict()
        assert d["passed"] is True
        assert d["check_id"] == "c"

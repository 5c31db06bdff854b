import csv
import io
import json
import re

import pytest
from mpmath import log, mpf

from stieltjes.cli import main
from stieltjes.logpoly import K_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_gamma_text(capsys, gamma_ref):
    code, out, _ = run_cli(capsys, "compute", "gamma", "--n", "0", "--x", "1")
    assert code == 0
    # the value meets the 1e-12 the command asks for, within its printed claim
    shown = mpf(out.split(" = ")[1].split()[0])
    claim = mpf(re.search(r"\(± (\S+),", out).group(1))
    assert abs(shown - gamma_ref) <= claim <= mpf("1e-12")


def test_compute_gamma_at_a_tiny_x(capsys):
    # series_b, the default route, takes x below 1e-6 as the other routes do
    code, out, _ = run_cli(capsys, "--format", "json",
                           "compute", "gamma", "--n", "1", "--x", "1e-7")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "series_b"
    assert mpf(payload["abs_err"]) <= mpf("1e-12")


def test_compute_gamma_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "compute", "gamma", "--n", "0", "--x", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"constant", "params", "value", "abs_err",
                            "terms_used", "order", "method"}
    assert isinstance(payload["value"], str)
    # the winning tail's Euler-Maclaurin order at the 1e-12 first rung, K = 8
    assert (payload["terms_used"], payload["order"]) == (8, 5)
    # serialization keeps the decimal string intact
    again = json.loads(json.dumps(payload))
    assert again["value"] == payload["value"]


def test_compute_gamma1_series_c(capsys, gamma1_ref):
    code, out, _ = run_cli(capsys, "--format", "json", "compute", "gamma",
                           "--n", "1", "--x", "1", "--method", "series-c")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "series_c"
    assert abs(mpf(payload["value"]) - gamma1_ref) < mpf("1e-12")


def test_compute_digamma(capsys, gamma_ref):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "compute", "digamma", "--x", "1")
    assert code == 0
    value = mpf(json.loads(out)["value"])
    assert abs(value + gamma_ref) < mpf("1e-12")


def test_compute_rational_gamma1(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "compute", "gamma",
                           "--n", "1", "--p", "1", "--q", "2")
    assert code == 0
    assert json.loads(out)["method"] == "rational_closed_form"


def test_compute_invalid_order_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "gamma", "--n", "99", "--x", "1")
    assert code == 2
    assert "order" in err


def test_delta_term_budget_past_the_cap_exits_2(capsys):
    # delta plans its own N and reads no --terms, past the cap or not
    code, _, err = run_cli(capsys, "compute", "delta", "--n", "1",
                           "--terms", str(K_CAP + 1))
    assert code == 2
    assert "delta" in err


def test_delta_zero_terms_is_not_the_default_budget(capsys):
    # --terms 0 is a budget delta does not read, not the absence of one
    code, out, err = run_cli(capsys, "compute", "delta", "--n", "1", "--terms", "0")
    assert code == 2
    assert "--terms" in err and "delta" in err and out == ""


def test_delta_reads_tol(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "--tol", "1e-15",
                           "compute", "delta", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert mpf(payload["abs_err"]) <= mpf("1e-15") and payload["terms_used"] == 16


def test_eta_series_zero_terms_names_its_budget(capsys):
    code, out, err = run_cli(capsys, "compute", "eta", "--n", "0",
                             "--method", "series", "--terms", "0")
    assert code == 2
    assert "K = 0 is below 2" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("gamma", "--n", "1", "--x", "1"),
    ("eta", "--n", "1"),
    ("eta", "--n", "1", "--method", "from-gamma"),
    ("digamma", "--x", "1"),
    ("delta", "--n", "1"),
])
def test_terms_on_a_constant_that_ignores_it_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "compute", *argv, "--terms", "5")
    assert code == 2
    assert "--terms" in err and out == ""


def test_terms_on_eta_series_still_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "compute", "eta", "--n", "0",
                           "--method", "series", "--terms", "100")
    assert code == 0
    assert json.loads(out)["terms_used"] >= 1


def test_precision_tolerance_invariant_exits_2(capsys):
    code, _, err = run_cli(capsys, "--prec-digits", "10", "--tol", "1e-12",
                           "compute", "gamma", "--n", "0", "--x", "1")
    assert code == 2
    assert "precision" in err


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("STIELTJES_PREC_DIGITS", "40")
    code, out, _ = run_cli(capsys, "--format", "json",
                           "compute", "gamma", "--n", "0", "--x", "1")
    assert code == 0
    assert len(json.loads(out)["value"]) > 38  # 40 digits printed
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "--prec-digits", "34", "--format", "json",
                           "compute", "gamma", "--n", "0", "--x", "1")
    assert code == 0
    assert len(json.loads(out)["value"]) < 40


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma31")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_comma_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma31,cotangent")
    assert code == 0
    assert "lemma31" in out and "cotangent" in out


def test_verify_prints_elapsed_by_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma31,cotangent")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].endswith("checks passed")
    assert re.fullmatch(r"elapsed by check: cotangent \d+\.\d\d s, "
                        r"lemma31 \d+\.\d\d s", lines[-1])


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "bogus" in err


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "cotangent",
                           "--report", str(path))
    assert code == 0
    records = json.loads(path.read_text())
    assert len(records) == 5
    assert all(r["passed"] for r in records)


def test_table_gamma_rows(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv",
                           "table", "gamma", "--n", "0..2", "--x", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["constant", "n", "x", "value", "abs_err",
                       "terms_used", "method"]
    assert len(rows) == 4


def test_table_quarters_pair_identity(capsys, gamma_ref, gamma1_ref):
    code, out, _ = run_cli(capsys, "--format", "json", "table", "gamma",
                           "--n", "1", "--x", "0.25,0.5,0.75")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    by_x = {r["params"]["x"]: mpf(r["value"]) for r in rows}
    want = 2 * gamma1_ref - 7 * log(2) ** 2 - 6 * gamma_ref * log(2)
    assert abs(by_x["0.25"] + by_x["0.75"] - want) < mpf("1e-8")


def test_table_delta(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "table", "delta",
                           "--n", "0..2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4
    assert mpf(rows[1][3]) == mpf("0.5")


def test_table_empty_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "gamma", "--n", "3..1", "--x", "1")
    assert code == 2

"""The span recorder: rebinding, self-time reconciliation and the metric set."""

import json
import random
from pathlib import Path

import stieltjes
from mpmath import mp, mpf

from clock import Clock
from run import END_TO_END_UNITS, serve
from tracing import TARGETS, Tracer, metric_units
from workloads import point_mix_block

BENCH = Path(__file__).resolve().parent.parent


def test_install_rebinds_every_import_and_uninstall_restores():
    orig = stieltjes.logpoly.em_tail
    tracer = Tracer()
    tracer.install()
    try:
        for mod in ("logpoly", "gamma", "verifier"):
            assert getattr(stieltjes, mod).em_tail.__wrapped__ is orig
        assert stieltjes.em_tail.__wrapped__ is orig
    finally:
        tracer.uninstall()
    assert stieltjes.gamma.em_tail is orig and stieltjes.em_tail is orig


def test_spans_reconcile_and_nest():
    reqs = [r for r in point_mix_block(random.Random(1))
            if r.fn in ("gamma_n", "gamma1_rational", "digamma")][:12]
    tracer, clock = Tracer(), Clock()
    tracer.install()
    try:
        records = serve(stieltjes, reqs, clock, tracer)
    finally:
        tracer.uninstall()
        clock.close()
    assert all(not isinstance(out, Exception) for _, out, _ in records)
    assert tracer.reconcile() == []
    metrics = tracer.metrics(0.0)
    assert set(metrics) == set(metric_units())
    calls = sum(metrics[f"gamma.gamma_n.{r}.calls"][0]
                for r in ("series_b", "series_c", "coffey"))
    assert calls >= sum(r.fn == "gamma_n" for r in reqs)
    # em_tail runs inside gamma_n, so the inner call was traced too
    assert metrics["logpoly.em_tail.calls"][0] > 0
    assert metrics["logpoly.em_tail.probes_per_plan"][0] >= 1
    assert len(tracer.explain_lines()) == len(reqs)


def test_reconcile_reports_a_dropped_span():
    tracer = Tracer()
    tracer.install()
    try:
        mp.dps = 34
        with tracer.request(0, "request.test"):
            stieltjes.gamma_n(1, mpf(2), "series_b", mpf("1e-12"))
    finally:
        tracer.uninstall()
    assert tracer.reconcile() == []
    del tracer.spans[-1]
    assert tracer.reconcile()


def test_quadrature_counts_coarse_pass():
    tracer = Tracer()
    tracer.install()
    try:
        mp.dps = 34
        with tracer.request(0, "request.quad"):
            stieltjes.quad_gl(lambda t: t * t, 0, 1, panels=2, nodes_per_panel=4)
    finally:
        tracer.uninstall()
    m = tracer.metrics(0.0)
    assert m["quadrature.integrand_evals"][0] == 3 * 2 * 4
    assert m["quadrature.coarse_share"][0] == 1 / 3


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == ["point_mix", "precision_ladder",
                                                     "verify_all"]
    assert set(TARGETS) == {"core", "logpoly", "gamma", "zeta", "related",
                            "quadrature", "verifier", "cli"}

#!/usr/bin/env python3
"""Benchmark of the stieltjes package, run from the root of a checkout:

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 10 --trace 0

Workloads: point_mix, precision_ladder, verify_all (see README.md).  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it runs the
workload's fixed work once untraced and once traced and reports the per-layer
metrics.  Every output is checked against an mpmath reference or by the
verifier.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mpmath import mp

from clock import REF_MS, Clock
from oracle import Oracle, check
from tracing import Tracer, metric_units
from workloads import call, ladder_round, point_mix_block, warm_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("point_mix", "precision_ladder", "verify_all")
SETUP_REPS = 7
MIN_BLOCKS = 2  # point_mix: at least 2 x 118 requests, so p95 has >= 10 beyond it
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "ok_frac": "frac",
    "peak_rss_mb": "MB", "gamma1_ms.d12": "ms", "gamma1_ms.d20": "ms",
    "gamma1_ms.d30": "ms", "gamma1_ms.d50": "ms",
}


class Outcome:
    """Every attempted operation of a run and what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.raised: list[str] = []        # in-domain request raised
        self.wrong: list[str] = []         # value off by more than the tol asked for
        self.violations: list[str] = []    # |value - ref| > claimed abs_err
        self.check_failures: list[str] = []  # verifier check failed, or trace/determinism
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.wrong) + len(self.check_failures)

    @property
    def fail_frac(self) -> float:
        return (self.failed + len(self.violations)) / self.attempted

    def report(self) -> None:
        print(f"fail_frac {self.fail_frac:.6f} ({self.failed + len(self.violations)} "
              f"of {self.attempted}): raised {len(self.raised)}, wrong value "
              f"{len(self.wrong)}, claim violations {len(self.violations)}, "
              f"failed checks {len(self.check_failures)}")
        for kind, items in (("raised", self.raised), ("wrong", self.wrong),
                            ("claim violation", self.violations),
                            ("failed check", self.check_failures)):
            for line in items:
                print(f"  {kind}: {line}")
        for line in self.notes:
            print(line)


# -- serving requests ---------------------------------------------------------

def serve(S, reqs, clock, tracer=None):
    """Closed loop, one client: each request is sent when the previous one
    returned.  Returns [(req, result or exception, scaled seconds)]."""
    records = []
    for i, req in enumerate(reqs):
        mp.dps = req.dps
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = call(S, req)
            else:
                with tracer.request(i, f"request.{req.fn}"):
                    out = call(S, req)
        except (ArithmeticError, ValueError) as exc:
            out = exc
        records.append((req, out, clock.scale(t0, time.perf_counter())))
    return records


def value_string(sv) -> str:
    sign, man, exp, bc = sv.value._mpf_
    return f"{'-' if sign else '+'}{int(man):x}p{exp}"


def check_records(records, outcome: Outcome) -> None:
    """Claim check of every result against the mpmath references, and a
    determinism check: a request repeated within the run must return
    bit-identical values."""
    oracle = Oracle()
    seen: dict = {}
    for req, out, _ in records:
        outcome.attempted += 1
        if isinstance(out, Exception):
            outcome.raised.append(f"{req.label()}: {type(out).__name__}: {out}")
            continue
        vs = value_string(out)
        if seen.setdefault(req, vs) != vs:
            outcome.check_failures.append(f"{req.label()}: repeated call not bit-identical")
        gap, claim_ok, value_ok = check(oracle, req, out)
        ratio = mp.nstr(gap / out.abs_err, 3) if out.abs_err else "inf"
        detail = (f"{req.label()}: |value-ref| {mp.nstr(gap, 3)} > abs_err "
                  f"{mp.nstr(out.abs_err, 3)} (ratio {ratio})")
        if not value_ok:
            outcome.wrong.append(detail)
        elif not claim_ok:
            outcome.violations.append(detail)
    oracle.save()


def digest(records) -> tuple[str, int]:
    """sha256 of the value strings in request order, and the sum of K."""
    h = hashlib.sha256()
    k_sum = 0
    for req, out, _ in records:
        if isinstance(out, Exception):
            h.update(f"{req.label()} raised\n".encode())
            continue
        h.update(f"{req.label()} {value_string(out)} {out.terms_used}\n".encode())
        k_sum += out.terms_used
    return h.hexdigest()[:16], k_sum


def write_values(path: Path, records) -> None:
    with open(path, "w") as fh:
        for req, out, _ in records:
            if isinstance(out, Exception):
                fh.write(f"{req.label()} raised {type(out).__name__}\n")
            else:
                fh.write(f"{req.label()} value={mp.nstr(out.value, 40)} "
                         f"abs_err={mp.nstr(out.abs_err, 3)} K={out.terms_used}\n")


# -- measurements -------------------------------------------------------------

def measure_setup(workload: str, clock) -> float:
    """Median over fresh interpreters of the time from process start to the
    first request being ready (import plus the warm-up call)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), "setup", workload],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child for {workload} failed")
        times.append(clock.scale(t0, t1))
    return statistics.median(times)


def run_verify_child(traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report, result = Path(tmp) / "report.json", Path(tmp) / "result.json"
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "verify",
                               "1" if traced else "0", str(report), str(result)],
                              stdout=subprocess.PIPE, text=True, timeout=170)
        if proc.returncode != 0 and not result.exists():
            raise RuntimeError("verify child crashed")
        out = json.loads(result.read_text())
        out["report"] = json.loads(report.read_text()) if report.exists() else []
        spans = result.with_suffix(".spans.jsonl")
        if spans.exists():
            spans.replace(OUT / "spans-verify_all.jsonl")
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_ms(records) -> dict:
    """Median scaled ms of each distinct request, in first-seen order."""
    times: dict = {}
    for req, _, dt in records:
        times.setdefault(req, []).append(dt * 1e3)
    return {req: statistics.median(v) for req, v in times.items()}


def gamma1_ms(records) -> dict[str, float]:
    """Median scaled ms of gamma_1 by series_b at each rung."""
    return {f"gamma1_ms.d{req.tol[3:]}": ms for req, ms in median_ms(records).items()
            if req.fn == "gamma_n" and req.params == (1, "series_b")}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def first_of_each(records) -> list:
    seen = set()
    return [r for r in records if not (r[0] in seen or seen.add(r[0]))]


# -- workloads, untraced --------------------------------------------------------

def run_point_mix(S, clock, seed: int, seconds: float, outcome: Outcome) -> dict:
    """Blocks of the seeded stream until --seconds have passed (at least
    MIN_BLOCKS)."""
    warm_up(S, "point_mix")
    setup_s = measure_setup("point_mix", clock)
    rng = random.Random(seed)
    records, block_ms = [], []
    t_start = time.perf_counter()
    while len(block_ms) < MIN_BLOCKS or time.perf_counter() - t_start < seconds:
        block = point_mix_block(rng)
        recs = serve(S, block, clock)
        block_ms.append(sum(dt for _, _, dt in recs) * 1e3)
        records += recs
    probe = serve(S, ladder_round(seed, extra_routes=False), clock)
    peak = rss_mb()
    latencies = [dt * 1e3 for _, _, dt in records]
    first = records[:len(records) // len(block_ms)]
    h, k_sum = digest(first)
    write_values(OUT / f"values-point_mix-{seed}.txt", first)
    outcome.notes.append(f"point_mix: {len(latencies)} requests in {len(block_ms)} blocks; "
                         f"first block digest {h} K_sum {k_sum}")
    check_records(records + probe, outcome)
    return {"setup_s": setup_s, "wall_s": statistics.median(block_ms) / 1e3,
            "evals_per_s": len(latencies) / sum(latencies) * 1e3,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p95_ms": percentile(latencies, 95),
            "peak_rss_mb": peak, **gamma1_ms(probe)}


def run_precision_ladder(S, clock, seed: int, seconds: float, outcome: Outcome) -> dict:
    """Ladder rounds until --seconds have passed (at least one); each
    distinct call counts with its median time."""
    warm_up(S, "precision_ladder")
    setup_s = measure_setup("precision_ladder", clock)
    records = []
    t_start = time.perf_counter()
    while not records or time.perf_counter() - t_start < seconds:
        records += serve(S, ladder_round(seed), clock)
    peak = rss_mb()
    latencies = list(median_ms(records).values())
    first = first_of_each(records)
    h, k_sum = digest(first)
    write_values(OUT / f"values-precision_ladder-{seed}.txt", first)
    outcome.notes.append(f"precision_ladder: x={records[0][0].x}, {len(records)} calls, "
                         f"{len(latencies)} distinct; digest {h} K_sum {k_sum}")
    check_records(records, outcome)
    return {"setup_s": setup_s, "wall_s": sum(latencies) / 1e3,
            "evals_per_s": len(latencies) / sum(latencies) * 1e3,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p95_ms": percentile(latencies, 95),
            "peak_rss_mb": peak, **gamma1_ms(records)}


def check_verify_runs(runs, outcome: Outcome) -> str:
    """Every check of every run must pass, the CLI must exit 0, and the
    reports (without their timings) must be identical; returns their digest."""
    digests = set()
    for run in runs:
        outcome.attempted += len(run["report"])
        if run["rc"] != 0 or not run["report"]:
            outcome.check_failures.append(f"verify --suite all exited {run['rc']}")
        outcome.check_failures += [
            f"{e['check_id']} {json.dumps(e['inputs'], sort_keys=True)}"
            for e in run["report"] if not e["passed"]]
        h = hashlib.sha256()
        for entry in run["report"]:
            entry = {k: v for k, v in entry.items() if k != "elapsed_s"}
            h.update(json.dumps(entry, sort_keys=True).encode())
        digests.add(h.hexdigest()[:16])
    if len(digests) > 1:
        outcome.check_failures.append("verify reports differ between runs")
    return " ".join(sorted(digests))


def run_verify_all(S, clock, seed: int, seconds: float, outcome: Outcome) -> dict:
    setup_s = measure_setup("verify_all", clock)
    runs = []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < seconds:
        runs.append(run_verify_child(traced=False))
    digest_line = check_verify_runs(runs, outcome)
    probe = serve(S, ladder_round(seed, extra_routes=False), clock)
    latencies = [ms for run in runs for ms in run["check_ms"]]
    walls = [run["wall_s"] for run in runs]
    outcome.notes.append(f"verify_all: {len(runs)} fresh-interpreter runs, "
                         f"{len(latencies)} checks; report digest {digest_line}")
    check_records(probe, outcome)
    return {"setup_s": setup_s, "wall_s": statistics.median(walls),
            "evals_per_s": len(latencies) / sum(walls),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p95_ms": percentile(latencies, 95),
            "peak_rss_mb": statistics.median(run["rss_kb"] for run in runs) / 1024,
            **gamma1_ms(probe)}


# -- workloads, traced ----------------------------------------------------------

def overhead_frac(plain, traced) -> float:
    wall = sum(dt for _, _, dt in plain)
    return (sum(dt for _, _, dt in traced) - wall) / wall


def fixed_work(workload: str, seed: int):
    """The work a traced run repeats: exactly one point_mix block, or one
    ladder round with one call per distinct request."""
    if workload == "point_mix":
        return point_mix_block(random.Random(seed))
    return ladder_round(seed, reps=False)


def run_traced(S, clock, workload: str, seed: int, outcome: Outcome) -> dict:
    if workload == "verify_all":
        plain = run_verify_child(traced=False)
        traced = run_verify_child(traced=True)
        check_verify_runs([plain, traced], outcome)
        overhead = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        metrics = traced["metrics"]
        metrics["trace.overhead_frac"] = overhead
        problems, explain = traced["problems"], traced["explain"]
    else:
        warm_up(S, workload)
        reqs = fixed_work(workload, seed)
        plain = serve(S, reqs, clock)
        tracer = Tracer()
        tracer.install()
        traced = serve(S, reqs, clock, tracer)
        tracer.uninstall()
        if digest(plain) != digest(traced):
            outcome.check_failures.append("traced values differ from untraced values")
        check_records(plain + traced, outcome)
        problems = tracer.reconcile()
        metrics = {k: v for k, (v, _) in
                   tracer.metrics(overhead_frac(plain, traced)).items()}
        explain = tracer.explain_lines()
        tracer.dump(OUT / f"spans-{workload}.jsonl")
    (OUT / f"explain-{workload}-{seed}.txt").write_text("\n".join(explain) + "\n")
    if problems:
        outcome.check_failures += [f"span reconciliation: {p}" for p in problems[:20]]
    outcome.notes.append(f"traced {workload}: overhead_frac "
                         f"{metrics['trace.overhead_frac']:.4f}; self-time reconciliation "
                         f"{'failed' if problems else 'passed'}; explain view in "
                         f"{(OUT / f'explain-{workload}-{seed}.txt').relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stieltjes" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'stieltjes'}; run from "
              "the root of a stieltjes checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stieltjes
    OUT.mkdir(exist_ok=True)
    outcome = Outcome()
    clock = Clock()
    try:
        if args.trace:
            units = metric_units()
            values = run_traced(stieltjes, clock, args.workload, args.seed, outcome)
        else:
            units = dict(END_TO_END_UNITS)
            runner = {"point_mix": run_point_mix, "precision_ladder": run_precision_ladder,
                      "verify_all": run_verify_all}[args.workload]
            values = runner(stieltjes, clock, args.seed, args.seconds, outcome)
            values["ok_frac"] = 1 - outcome.fail_frac
    finally:
        clock.close()
    kernel = statistics.median(ms for _, ms, _ in clock.samples)
    outcome.notes.append(f"host speed: median kernel {kernel:.3f} ms against the "
                         f"reference {REF_MS} ms ({len(clock.samples)} samples)")
    outcome.report()
    correct = not outcome.raised and not outcome.wrong and not outcome.check_failures
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter helper for run.py; not a benchmark entry point.

    python3 perfbench/child.py setup <workload>
        import the package, make the workload's warm-up call, print "ready".
    python3 perfbench/child.py verify <trace 0|1> <report.json> <result.json>
        run ``stieltjes verify --suite all --report <report.json>`` through
        stieltjes.cli.main and write its scaled wall time, exit code and peak
        RSS to <result.json>, with the scaled time of every check or, when
        traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def setup(workload: str) -> None:
    import stieltjes
    from workloads import warm_up
    if workload == "verify_all":
        import stieltjes.cli  # noqa: F401
    warm_up(stieltjes, workload)
    print("ready", flush=True)


def time_checks(clock) -> list[float]:
    """Rebind every verifier check_* so that each call's scaled ms is
    appended to the returned list."""
    import stieltjes.verifier as verifier
    times: list[float] = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            times.append(clock.scale(t0, time.perf_counter()) * 1e3)
            return out
        return wrapper

    for name, fn in list(vars(verifier).items()):
        if name.startswith("check_"):
            setattr(verifier, name, timed(fn))
    return times


def verify(traced: bool, report: str, result_path: str) -> None:
    import stieltjes.cli
    from clock import Clock
    clock = Clock()
    tracer = check_ms = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        check_ms = time_checks(clock)
    argv = ["verify", "--suite", "all", "--report", report]
    try:
        t0 = time.perf_counter()
        if tracer is None:
            rc = stieltjes.cli.main(argv)
        else:
            with tracer.request(0, "request.verify"):
                rc = stieltjes.cli.main(argv)
        wall = clock.scale(t0, time.perf_counter())
    finally:
        clock.close()
    out = {"wall_s": wall, "check_ms": check_ms, "rc": rc,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        out["problems"] = tracer.reconcile()
        out["metrics"] = {k: v for k, (v, _) in tracer.metrics(0.0).items()}
        out["explain"] = tracer.explain_lines()
        tracer.dump(Path(result_path).with_suffix(".spans.jsonl"))
    Path(result_path).write_text(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "verify":
        verify(sys.argv[2] == "1", sys.argv[3], sys.argv[4])
    else:
        sys.exit(f"child.py: unknown mode {sys.argv[1]!r}")

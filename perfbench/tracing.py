"""Span recorder for the traced run, installed from outside the package.

Each public function listed in TARGETS is wrapped in a recorder that keeps a
span (name, start, end, parent span, request id) in memory.  The modules use
``from .x import y``, so every module namespace that holds the original
function object gets the wrapper; function-level lazy imports resolve at call
time and pick it up as well.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from contextlib import contextmanager

from mpmath import log10, mp, mpf

TARGETS = {
    "core": ("comp_sum", "working_dps", "accelerate_alternating"),
    "logpoly": ("em_start_for", "em_tail", "em_tail_shifted"),
    "gamma": ("gamma_n", "gamma1_rational", "gamma1_alt"),
    "zeta": ("hurwitz_em", "hurwitz_hasse", "zeta_deriv0_diff",
             "zeta_deriv0_const", "zeta_prime_int"),
    "related": ("digamma", "log_gamma", "digamma_rational",
                "dilcher_log_gamma_k", "eta", "delta"),
    "quadrature": ("quad_gl", "legendre_rule"),
    "verifier": ("check_lemma31", "check_cotangent", "check_vanishing_integrals",
                 "check_zero_structure", "check_g_functions", "run_suite"),
    "cli": ("main",),
}
# modules whose functions return a SeriesValue for a user's request
EVAL_MODULES = ("gamma", "zeta", "related")
GAMMA_ROUTES = ("series_b", "series_c", "coffey")
CHECK_IDS = ("lemma31", "cotangent", "vanishing_integrals", "zero_structure",
             "g_functions")


def span_names() -> list[str]:
    names = []
    for mod, fns in TARGETS.items():
        for fn in fns:
            if (mod, fn) == ("gamma", "gamma_n"):
                names += [f"gamma.gamma_n.{r}" for r in GAMMA_ROUTES]
            else:
                names.append(f"{mod}.{fn}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.self_ms": "ms",
                      f"{name}.total_ms": "ms"})
    units.update({
        "logpoly.em_tail.probes_per_plan": "ratio",
        "core.working_dps.p50": "digits",
        "plan.K_sum": "count",
        "plan.overshoot_digits.p50": "digits",
        "quadrature.integrand_evals": "count",
        "quadrature.coarse_share": "frac",
    })
    units.update({f"verifier.{c}.evals": "count" for c in CHECK_IDS})
    units["trace.overhead_frac"] = "frac"
    return units


# span record fields; CHILD is the time child spans covered, summed as each
# child closes, so self time does not depend on which spans were kept
NAME, START, END, PARENT, REQ, INFO, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.req = None
        self.integrand_evals: dict[int, list[int]] = {}  # quad_gl span -> evals per pass
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name, info=None) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.req, info, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextmanager
    def request(self, req_id, name: str):
        """Root span of one request; every span opened inside carries req_id."""
        self.req = req_id
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self.req = None

    def _wrap(self, mod: str, fname: str, fn):
        name = f"{mod}.{fname}"
        sig = inspect.signature(fn)
        is_eval = mod in EVAL_MODULES
        default_tol = sys.modules["stieltjes.core"].default_tol
        tracer = self

        def wrapper(*args, **kwargs):
            span, info = name, None
            if is_eval:
                bound = sig.bind(*args, **kwargs)
                tol = bound.arguments.get("tol")
                if tol is None and "tol" in sig.parameters:
                    tol = default_tol()
                info = {"args": bound.arguments, "tol": tol}
                if fname == "gamma_n":
                    span = f"{name}.{bound.arguments.get('method', 'series_b')}"
            elif fname == "quad_gl":
                bound = sig.bind(*args, **kwargs)
                args, kwargs = tracer._counting_integrand(bound)
            rec = tracer._open(span, info)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if is_eval and hasattr(out, "terms_used"):
                info["K"], info["abs_err"] = out.terms_used, out.abs_err
            elif fname == "working_dps":
                rec[INFO] = out
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_integrand(self, bound):
        """Count integrand evaluations of one quad_gl call, per composite
        pass; the first pass is the coarse rule used only for the error
        estimate."""
        f = bound.arguments["f"]
        quad_idx = len(self.spans)  # the span about to be opened
        passes = self.integrand_evals.setdefault(quad_idx, [])

        def counted(t):
            if not passes:
                passes.append(0)
            passes[-1] += 1
            return f(t)

        bound.arguments["f"] = counted
        return bound.args, bound.kwargs

    def _wrap_composite(self, fn):
        tracer = self

        def composite(*args, **kwargs):
            quad_idx = next((i for i in reversed(tracer.stack)
                             if tracer.spans[i][NAME] == "quadrature.quad_gl"), None)
            if quad_idx is not None:
                tracer.integrand_evals.setdefault(quad_idx, []).append(0)
            return fn(*args, **kwargs)

        return composite

    def install(self) -> None:
        """Wrap every target and rebind it in every stieltjes namespace."""
        modules = {mod: importlib.import_module(f"stieltjes.{mod}") for mod in TARGETS}
        mods = [m for k, m in list(sys.modules.items())
                if k == "stieltjes" or k.startswith("stieltjes.")]
        replacements = []
        for mod, fnames in TARGETS.items():
            module = modules[mod]
            for fname in fnames:
                orig = getattr(module, fname)
                replacements.append((orig, self._wrap(mod, fname, orig)))
        quad = sys.modules["stieltjes.quadrature"]
        if hasattr(quad, "_composite"):
            replacements.append((quad._composite, self._wrap_composite(quad._composite)))
        for orig, wrapped in replacements:
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def _ancestors(self, i: int):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def _self_ns(self) -> list[int]:
        return [s[END] - s[START] - s[CHILD] for s in self.spans]

    def _is_eval(self, i: int) -> bool:
        return self.spans[i][NAME].split(".", 1)[0] in EVAL_MODULES

    def outermost_evals(self) -> list[int]:
        return [i for i in range(len(self.spans)) if self._is_eval(i)
                and not any(self._is_eval(a) for a in self._ancestors(i))]

    def reconcile(self) -> list[str]:
        """Problems found: a child outside its parent's interval, or a request
        whose root span duration differs from the sum of its self times."""
        problems = []
        self_ns = self._self_ns()
        by_req: dict = {}
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            if p >= 0:
                ps = self.spans[p]
                if s[START] < ps[START] or s[END] > ps[END] or s[REQ] != ps[REQ]:
                    problems.append(f"span {i} {s[NAME]} escapes parent {ps[NAME]}")
            entry = by_req.setdefault(s[REQ], [0, 0])
            entry[1] += self_ns[i]
            if p < 0:
                entry[0] += s[END] - s[START]
        for req, (root_ns, self_sum) in by_req.items():
            if root_ns != self_sum:
                problems.append(f"request {req}: root {root_ns} ns != sum of self {self_sum} ns")
        return problems

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        units = metric_units()
        values = {k: 0 for k in units}
        self_ns = self._self_ns()
        for i, s in enumerate(self.spans):
            name = s[NAME]
            if f"{name}.calls" not in values:
                continue
            values[f"{name}.calls"] += 1
            values[f"{name}.self_ms"] += self_ns[i] / 1e6
            if all(self.spans[a][NAME] != name for a in self._ancestors(i)):
                values[f"{name}.total_ms"] += (s[END] - s[START]) / 1e6

        plans = probes = 0
        dps = []
        for i, s in enumerate(self.spans):
            if s[NAME] == "logpoly.em_start_for":
                plans += 1
            elif s[NAME] == "logpoly.em_tail" and any(
                    self.spans[a][NAME] == "logpoly.em_start_for" for a in self._ancestors(i)):
                probes += 1
            elif s[NAME] == "core.working_dps":
                dps.append(s[INFO])
        values["logpoly.em_tail.probes_per_plan"] = probes / plans if plans else 0
        values["core.working_dps.p50"] = statistics.median(dps) if dps else 0

        overshoot = []
        for i in self.outermost_evals():
            info = self.spans[i][INFO]
            values["plan.K_sum"] += info.get("K", 0)
            err, tol = info.get("abs_err"), info["tol"]
            if tol is not None and err is not None and 0 < err < mp.inf:
                overshoot.append(float(log10(mpf(tol) / err)))
            check = next((self.spans[a][NAME] for a in self._ancestors(i)
                          if self.spans[a][NAME].startswith("verifier.check_")), None)
            if check is not None:
                values[f"verifier.{check[len('verifier.check_'):]}.evals"] += 1
        values["plan.overshoot_digits.p50"] = statistics.median(overshoot) if overshoot else 0

        evals = [sum(p) for p in self.integrand_evals.values()]
        coarse = [p[0] for p in self.integrand_evals.values() if len(p) > 1]
        values["quadrature.integrand_evals"] = sum(evals)
        values["quadrature.coarse_share"] = sum(coarse) / sum(evals) if sum(evals) else 0
        values["trace.overhead_frac"] = overhead_frac
        return {k: (values[k], units[k]) for k in units}

    def explain_lines(self) -> list[str]:
        """One line per outermost evaluation: route, tol, working dps, K,
        abs_err/tol and wall ms."""
        lines = []
        for i in self.outermost_evals():
            s = self.spans[i]
            info = s[INFO]
            dps = None
            for t in itertools.islice(self.spans, i + 1, None):
                if t[START] > s[END]:
                    break
                if t[NAME] == "core.working_dps":
                    dps = t[INFO]
                    break
            args = ", ".join(f"{k}={_short(v)}" for k, v in info["args"].items() if k != "tol")
            tol, err = info["tol"], info.get("abs_err")
            ratio = (mp.nstr(err / mpf(tol), 3) if tol is not None and err is not None
                     else "-")
            lines.append(f"req={s[REQ]} {s[NAME]}({args}) tol={_short(tol)} dps={dps} "
                         f"K={info.get('K')} abs_err/tol={ratio} "
                         f"ms={(s[END] - s[START]) / 1e6:.3f}")
        return lines

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "req": s[REQ]}) + "\n")


def _short(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, mpf):
        return mp.nstr(v, 6)
    return str(v)

"""Request generation and dispatch for the three benchmark workloads.

A request names one public library function, its discrete parameters, the
argument ``x`` as a decimal string, the tolerance as a decimal string and the
ambient ``mp.dps`` it runs at.  The seed draws every ``x`` and the request
order; the discrete parameters (orders, routes, tolerances) are stratified, so
every ``point_mix`` block holds the same multiset of (function, parameters,
tol) and seeds change the inputs, not the mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mpmath import mp, mpf

POINT_MIX_DPS = 34
TOLS = ("1e-12", "1e-15", "1e-20")
ROUTES = ("series_b", "series_c", "coffey")
X_RANGE = (0.05, 8.0)
# gamma_n(5, x, series_b) under-claims its error for x in about [0.252, 0.314]
# at tol 1e-12 and 1e-15; one point per block is drawn there so that it shows
N5_WINDOW = (0.25, 0.31)
HASSE_TOL = "1e-8"

RUNGS = (12, 20, 30, 50)
# repetitions per call inside one ladder round; short calls are repeated so
# that their best time is steady, the 50-digit call runs once
RUNG_REPS = {12: 20, 20: 10, 30: 8, 50: 1}
EXTRA_RUNG_MAX = 30


@dataclass(frozen=True)
class Request:
    fn: str
    params: tuple = ()
    x: str | None = None
    tol: str | None = None
    dps: int = POINT_MIX_DPS

    def label(self) -> str:
        args = [str(a) for a in (*self.params, self.x, self.tol) if a is not None]
        return f"{self.fn}({', '.join(args)}) @dps{self.dps}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> str:
    return f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}"


def point_mix_block(rng: random.Random) -> list[Request]:
    """One block of the point_mix stream, shuffled: 118 requests, about two
    thirds of them gamma_n."""
    reqs: list[Request] = []
    for n in range(9):
        x = _log_uniform(rng, *X_RANGE)
        reqs += [Request("gamma_n", (n, r), x, t) for r in ROUTES for t in TOLS]
    x = f"{rng.uniform(*N5_WINDOW):.4f}"
    reqs += [Request("gamma_n", (5, r), x, t)
             for r in ("series_b", "coffey") for t in TOLS[:2]]
    reqs += [Request("zeta_deriv0_diff", (k,), _log_uniform(rng, *X_RANGE), TOLS[k % 3])
             for k in range(7)]
    for fn in ("digamma", "log_gamma"):
        reqs += [Request(fn, (), _log_uniform(rng, *X_RANGE), t) for t in TOLS]
    reqs += [Request("dilcher_log_gamma_k", (k,), _log_uniform(rng, *X_RANGE), TOLS[k % 3])
             for k in range(5)]
    reqs.append(Request("gamma1_rational", (), f"{rng.randint(1, 4)}/5", TOLS[0]))
    reqs.append(Request("digamma_rational", (), f"{rng.randint(1, 6)}/7", TOLS[1]))
    reqs.append(Request("digamma_rational", (), f"{rng.randint(1, 2)}/3", TOLS[2]))
    reqs.append(Request("eta", (1,), None, TOLS[1]))
    reqs.append(Request("eta", (4,), None, TOLS[0]))
    reqs.append(Request("gamma1_alt", (), None, TOLS[1]))
    reqs.append(Request("delta", (1,)))
    for i, s in enumerate(("-2.5", "0.5", "1.5", "2", "3", "4.5")):
        reqs.append(Request("hurwitz_em", (s,), _log_uniform(rng, *X_RANGE), TOLS[i % 3]))
    reqs.append(Request("hurwitz_hasse", ("0.5",), _log_uniform(rng, 3.0, 8.0), HASSE_TOL))
    reqs.append(Request("hurwitz_hasse", ("2",), _log_uniform(rng, 4.0, 8.0), HASSE_TOL))
    rng.shuffle(reqs)
    return reqs


def ladder_x(seed: int) -> str:
    """The precision ladder's point in [1, 2], drawn from the seed."""
    return f"{random.Random(f'ladder-{seed}').uniform(1.0, 2.0):.6f}"


def ladder_round(seed: int, extra_routes: bool = True, reps: bool = True) -> list[Request]:
    """One round of the precision ladder at mp.dps = 2 * digits.

    gamma_1 by series_b at every rung; at or below 30 digits the same point
    also by series_c, coffey, zeta_deriv0_diff(1, x) and log_gamma(x).  With
    reps, the calls of each rung repeat RUNG_REPS times in interleaved
    passes, so that the repetitions of one call sample the machine at
    different moments.
    """
    x = ladder_x(seed)
    calls = {}
    for d in RUNGS:
        tol = f"1e-{d}"
        calls[d] = [Request("gamma_n", (1, "series_b"), x, tol, 2 * d)]
        if extra_routes and d <= EXTRA_RUNG_MAX:
            calls[d] += [Request("gamma_n", (1, "series_c"), x, tol, 2 * d),
                         Request("gamma_n", (1, "coffey"), x, tol, 2 * d),
                         Request("zeta_deriv0_diff", (1,), x, tol, 2 * d),
                         Request("log_gamma", (), x, tol, 2 * d)]
    passes = max(RUNG_REPS.values()) if reps else 1
    return [req for r in range(passes) for d in RUNGS
            if r < (RUNG_REPS[d] if reps else 1) for req in calls[d]]


def warm_up(S, workload: str) -> None:
    """The one call that set-up makes before the first request is ready
    (none on verify_all, whose set-up is the import)."""
    req = {"point_mix": Request("gamma_n", (0, "series_b"), "1", TOLS[0]),
           "precision_ladder": Request("gamma_n", (1, "series_b"), "1.5", "1e-12", 24),
           }.get(workload)
    if req is not None:
        mp.dps = req.dps
        call(S, req)


def _rational(S, spec: str):
    p, q = spec.split("/")
    return S.RationalArg(int(p), int(q))


def call(S, req: Request):
    """Evaluate ``req`` through the public API of the package ``S``.

    Names are looked up on the package at call time, so a traced run that
    rebinds them is seen here too.  The caller sets mp.dps.
    """
    tol = mpf(req.tol) if req.tol is not None else None
    fn, p = req.fn, req.params
    if fn == "gamma_n":
        return S.gamma_n(p[0], mpf(req.x), p[1], tol)
    if fn == "zeta_deriv0_diff":
        return S.zeta_deriv0_diff(p[0], mpf(req.x), tol)
    if fn == "digamma":
        return S.digamma(mpf(req.x), tol)
    if fn == "log_gamma":
        return S.log_gamma(mpf(req.x), tol)
    if fn == "dilcher_log_gamma_k":
        return S.dilcher_log_gamma_k(p[0], mpf(req.x), tol)
    if fn == "gamma1_rational":
        return S.gamma1_rational(_rational(S, req.x), tol)
    if fn == "digamma_rational":
        return S.digamma_rational(_rational(S, req.x), tol)
    if fn == "eta":
        return S.eta(p[0], "from_gamma", tol=tol)
    if fn == "gamma1_alt":
        return S.gamma1_alt(tol)
    if fn == "delta":
        return S.delta(p[0])
    if fn == "hurwitz_em":
        return S.hurwitz_em(mpf(p[0]), mpf(req.x), tol)
    if fn == "hurwitz_hasse":
        return S.hurwitz_hasse(mpf(p[0]), mpf(req.x), tol)
    raise ValueError(f"unknown request function {fn!r}")

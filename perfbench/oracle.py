"""Independent references for the claim check, computed with mpmath alone at
20 digits above the request's precision.

References are memoised in memory and on disk (``out/oracle_cache.json`` in
this directory), keyed by the exact reference they stand for, so repeated
seeds skip the slow ``mpmath.stieltjes`` quadratures.  Nothing here is timed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
from mpmath import mpf, workdps

from workloads import Request

REF_EXTRA_DPS = 20
CACHE_PATH = Path(__file__).resolve().parent / "out" / "oracle_cache.json"


def _num(x: str) -> mpf:
    if "/" in x:
        p, q = x.split("/")
        return mpf(int(p)) / int(q)
    return mpf(x)


def _zeta0(x, order: int) -> mpf:
    """d^order/ds^order zeta(s, x) at s = 0."""
    return mpmath.zeta(0, x, order)


def _eta(n: int) -> mpf:
    """eta_n = -[w^n] F'(w)/F(w), F(w) = 1 + sum_j (-1)^j gamma_j w^(j+1)/j!,
    with gamma_j from mpmath.stieltjes."""
    F = [mpf(1)] + [(-1) ** j * mpmath.stieltjes(j) / math.factorial(j)
                    for j in range(n + 1)]
    dF = [(i + 1) * c for i, c in enumerate(F[1:])]
    G: list[mpf] = []
    for i in range(n + 1):
        G.append(dF[i] - sum(F[j] * G[i - j] for j in range(1, i + 1)))
    return -G[n]


def reference_key(req: Request) -> tuple:
    """What the reference depends on: never the route or the tolerance."""
    fn, p = req.fn, req.params
    if fn == "gamma_n":
        kind, args = "stieltjes", (p[0], req.x)
    elif fn in ("gamma1_alt", "gamma1_rational"):
        kind, args = "stieltjes", (1, req.x)
    elif fn in ("digamma", "digamma_rational"):
        kind, args = "psi", (req.x,)
    elif fn in ("hurwitz_em", "hurwitz_hasse"):
        kind, args = "hurwitz", (p[0], req.x)
    else:
        kind, args = fn, (*p, req.x)
    return (kind, *args, req.dps + REF_EXTRA_DPS)


def _compute(key: tuple) -> mpf:
    kind, *args, dps = key
    with workdps(dps):
        if kind == "stieltjes":
            n, x = args
            return mpmath.stieltjes(n) if x is None else mpmath.stieltjes(n, _num(x))
        if kind == "zeta_deriv0_diff":
            k, x = args
            return _zeta0(_num(x), k + 1) - _zeta0(1, k + 1)
        if kind == "psi":
            return mpmath.psi(0, _num(args[0]))
        if kind == "log_gamma":
            return mpmath.loggamma(_num(args[0]))
        if kind == "hurwitz":
            return mpmath.zeta(mpf(args[0]), _num(args[1]))
        if kind == "dilcher_log_gamma_k":
            # log Gamma_k(x+1) = (-1)^k/(k+1) [zeta^(k+1)(0, x+1) - zeta^(k+1)(0)]
            k, x = args
            return (mpf(-1) ** k / (k + 1)
                    * (_zeta0(_num(x) + 1, k + 1) - _zeta0(1, k + 1)))
        if kind == "eta":
            return _eta(args[0])
        if kind == "delta":
            # delta_n = (-1)^n [zeta^(n)(0) + n!]
            n = args[0]
            return mpf(-1) ** n * (_zeta0(1, n) + math.factorial(n))
    raise ValueError(f"no reference for {kind!r}")


class Oracle:
    def __init__(self, path: Path = CACHE_PATH):
        self.path = path
        self.cache: dict[str, str] = {}
        if path.exists():
            self.cache = json.loads(path.read_text())
        self.dirty = False

    def reference(self, req: Request) -> mpf:
        key = reference_key(req)
        text = self.cache.get(repr(key))
        if text is None:
            value = _compute(key)
            with workdps(key[-1]):
                text = mpmath.nstr(value, key[-1])
            self.cache[repr(key)] = text
            self.dirty = True
        with workdps(key[-1]):
            return mpf(text)

    def save(self) -> None:
        if self.dirty:
            self.path.parent.mkdir(exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.cache, sort_keys=True))
            tmp.replace(self.path)
            self.dirty = False


def check(oracle: Oracle, req: Request, result) -> tuple[mpf, bool, bool]:
    """(gap, claim_ok, value_ok) for one result against its reference.

    claim_ok: |value - ref| <= abs_err, the claimed bound holds.
    value_ok: |value - ref| <= tol, the value meets the request (delta has
    no tolerance argument and is held to the CLI default 1e-12).
    """
    ref = oracle.reference(req)
    with workdps(reference_key(req)[-1]):
        gap = abs(result.value - ref)
        return gap, bool(gap <= result.abs_err), bool(gap <= mpf(req.tol or "1e-12"))

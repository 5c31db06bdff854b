"""Command-line surface: compute constants, emit tables, run the verification
suite.  Values serialize as decimal strings (34-digit values do not survive
64-bit float round-trips).

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from mpmath import mp, mpf, nstr

from .core import ConvergenceError, DomainError, SeriesValue, tol_digits
from .gamma import RationalArg, gamma1_rational, gamma_n
from .related import (delta, digamma, digamma_rational, dilcher_log_gamma_k,
                      eta, log_gamma)
from .verifier import UnknownCheckError, run_suite
from .zeta import zeta_deriv0_const, zeta_deriv0_diff

DEFAULT_PREC_DIGITS = 34
DEFAULT_TOL = "1e-12"
ENV_PREC = "STIELTJES_PREC_DIGITS"


class UsageError(ValueError):
    pass


@dataclass
class CliConfig:
    precision_digits: int
    tolerance: str
    output_format: str

    def __post_init__(self):
        if self.precision_digits < 2 * tol_digits(mpf(self.tolerance)):
            raise UsageError(
                f"precision_digits ({self.precision_digits}) must be at least "
                f"twice the digits the tolerance asks for "
                f"({tol_digits(mpf(self.tolerance))})")

    @property
    def tol(self) -> mpf:
        return mpf(self.tolerance)


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand-level absence from clobbering a value parsed
    # at the top level (the flags are accepted in either position)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec-digits", type=int, default=argparse.SUPPRESS,
                        help=f"working precision in decimal digits "
                             f"(default {DEFAULT_PREC_DIGITS}; env {ENV_PREC})")
    common.add_argument("--tol", default=argparse.SUPPRESS,
                        help=f"target tolerance (default {DEFAULT_TOL})")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS, dest="output_format")
    parser = argparse.ArgumentParser(
        prog="stieltjes", parents=[common],
        description="Stieltjes constants, Hurwitz zeta derivatives at s=0, "
                    "and related constant families, with identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one constant",
                          parents=[common])
    comp.add_argument("constant", choices=(
        "gamma", "zeta_deriv0", "eta", "delta", "digamma", "loggamma", "dilcher"))
    comp.add_argument("--n", type=int, default=None, help="order")
    comp.add_argument("--x", default=None, help="argument (decimal string)")
    comp.add_argument("--p", type=int, default=None, help="rational numerator")
    comp.add_argument("--q", type=int, default=None, help="rational denominator")
    comp.add_argument("--method", default=None,
                      help="gamma: series-b|series-c|coffey; "
                           "eta: from-gamma|series")
    comp.add_argument("--terms", type=int, default=None,
                      help="term budget: K of the eta series route, N of delta")

    ver = sub.add_parser("verify", help="run identity checks", parents=[common])
    ver.add_argument("--suite", default="all",
                     help="comma-separated check ids, or 'all'")
    ver.add_argument("--report", default=None, help="write JSON report here")

    tab = sub.add_parser("table", help="tabulate a constant family",
                         parents=[common])
    tab.add_argument("constant", choices=(
        "gamma", "zeta_deriv0", "eta", "delta", "digamma", "loggamma", "dilcher"))
    tab.add_argument("--n", default="0..0", help="order range a..b or single value")
    tab.add_argument("--x", default=None, help="comma-separated x grid")
    tab.add_argument("--method", default=None)
    return parser


def _config_from(args) -> CliConfig:
    digits = getattr(args, "prec_digits", None)
    if digits is None:
        env = os.environ.get(ENV_PREC)
        digits = int(env) if env else DEFAULT_PREC_DIGITS
    return CliConfig(precision_digits=digits,
                     tolerance=getattr(args, "tol", None) or DEFAULT_TOL,
                     output_format=getattr(args, "output_format", None) or "text")


def _compute_one(constant: str, cfg: CliConfig, n, x, p, q, method, terms) -> tuple[dict, SeriesValue]:
    tol = cfg.tol
    params: dict = {}
    if terms is not None and not (constant == "delta" or (
            constant == "eta" and (method or "").replace("-", "_") == "series")):
        raise UsageError("--terms sets K of eta --method series or N of delta; "
                         f"{constant} does not read it")
    if constant == "gamma":
        if p is not None or q is not None:
            if n not in (None, 1):
                raise UsageError("rational closed form is available for n = 1")
            if p is None or q is None:
                raise UsageError("rational argument needs both --p and --q")
            result = gamma1_rational(RationalArg(p, q), tol)
            params = {"n": 1, "p": p, "q": q}
        else:
            if x is None:
                raise UsageError("gamma needs --x (or --p/--q)")
            m = (method or "series-b").replace("-", "_")
            result = gamma_n(n or 0, mpf(x), m, tol)
            params = {"n": n or 0, "x": x, "method": m}
    elif constant == "zeta_deriv0":
        if n is None:
            raise UsageError("zeta_deriv0 needs --n")
        if x is None:
            result = zeta_deriv0_const(n, tol)
            params = {"n": n}
        else:
            if n < 1:
                raise UsageError("the difference form needs --n >= 1")
            result = zeta_deriv0_diff(n - 1, mpf(x), tol)
            params = {"n": n, "x": x, "form": "difference_vs_x1"}
    elif constant == "eta":
        route = (method or "from-gamma").replace("-", "_")
        result = eta(n or 0, route, K=terms, tol=tol)
        params = {"n": n or 0, "route": route}
        if terms is not None:
            params["K"] = terms
    elif constant == "delta":
        result = delta(n or 0, N=10000 if terms is None else terms)
        params = {"n": n or 0}
    elif constant == "digamma":
        if p is not None and q is not None:
            result = digamma_rational(RationalArg(p, q), tol)
            params = {"p": p, "q": q}
        else:
            if x is None:
                raise UsageError("digamma needs --x or --p/--q")
            result = digamma(mpf(x), tol)
            params = {"x": x}
    elif constant == "loggamma":
        if x is None:
            raise UsageError("loggamma needs --x")
        result = log_gamma(mpf(x), tol)
        params = {"x": x}
    elif constant == "dilcher":
        if x is None:
            raise UsageError("dilcher needs --x")
        result = dilcher_log_gamma_k(n or 0, mpf(x), tol)
        params = {"k": n or 0, "x": x}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown constant {constant}")
    return params, result


def _payload(constant: str, params: dict, sv: SeriesValue, digits: int) -> dict:
    return {
        "constant": constant,
        "params": params,
        "value": nstr(sv.value, digits),
        "abs_err": "inf" if sv.abs_err == mp.inf else nstr(sv.abs_err, 3),
        "terms_used": sv.terms_used,
        "order": sv.order,
        "method": sv.method,
    }


def _emit_compute(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["constant", "n", "x", "value", "abs_err", "terms_used", "method"])
        w.writerow(_csv_row(payload))
        return buf.getvalue().rstrip("\n")
    p = payload["params"]
    args = ", ".join(f"{k}={v}" for k, v in p.items())
    return (f"{payload['constant']}({args}) = {payload['value']}  "
            f"(± {payload['abs_err']}, {payload['method']}, "
            f"{payload['terms_used']} terms)")


def _csv_row(payload: dict) -> list:
    p = payload["params"]
    return [payload["constant"], p.get("n", p.get("k", "")), p.get("x", ""),
            payload["value"], payload["abs_err"], payload["terms_used"],
            payload["method"]]


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise UsageError(f"empty order range {spec}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _cmd_table(args, cfg: CliConfig) -> int:
    orders = _parse_range(args.n)
    xs = args.x.split(",") if args.x else [None]
    if not orders or not xs:
        raise UsageError("table: empty grid")
    if len(orders) * len(xs) > 10 ** 4:
        raise UsageError("table: grid larger than 10^4 cells")
    rows = []
    for n in orders:
        for x in xs:
            params, sv = _compute_one(args.constant, cfg, n, x, None, None,
                                      args.method, None)
            rows.append(_payload(args.constant, params, sv, cfg.precision_digits))
    if cfg.output_format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif cfg.output_format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["constant", "n", "x", "value", "abs_err", "terms_used", "method"])
        for r in rows:
            w.writerow(_csv_row(r))
    else:
        for r in rows:
            print(_emit_compute(r, "text"))
    return 0


def _cmd_verify(args, cfg: CliConfig) -> int:
    selection = "all" if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()]
    reports = run_suite(selection)
    payload = [r.as_dict() for r in reports]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id} {json.dumps(r.inputs, sort_keys=True)} "
              f"residual={nstr(r.residual, 3)} tol={nstr(r.tolerance, 3)}")
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    elapsed: dict[str, float] = {}
    for r in reports:
        elapsed[r.check_id] = elapsed.get(r.check_id, 0.0) + r.elapsed
    print("elapsed by check: " + ", ".join(
        f"{cid} {secs:.2f} s" for cid, secs in elapsed.items()))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        mp.dps = cfg.precision_digits
        if args.command == "compute":
            params, sv = _compute_one(args.constant, cfg, args.n, args.x,
                                      args.p, args.q, args.method, args.terms)
            print(_emit_compute(_payload(args.constant, params, sv,
                                         cfg.precision_digits),
                                cfg.output_format))
            return 0
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        if args.command == "table":
            return _cmd_table(args, cfg)
        raise UsageError(f"unknown command {args.command}")
    except (UsageError, DomainError, UnknownCheckError, ConvergenceError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # an internal cross-check tripped: a verification failure, not usage
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

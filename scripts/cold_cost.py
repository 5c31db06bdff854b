#!/usr/bin/env python3
"""Cold first-call against warm cost, each row in fresh interpreters.

A cold call is the first one a process makes at its arguments and
precision: it builds the exact tables (_log_polys, _tail_rows, Bernoulli
numbers, the root certificates) and mpmath's caches at that precision.  A
command-line process is always cold, and so is the first call of a
`stieltjes verify` run.  For each row this script starts --procs fresh
interpreters; each runs the row's set-up calls, times the row's call once
(cold), then --warm more times, and reports the cold time and the median
warm time.  The table prints the medians over the processes, in raw wall
milliseconds.

Rows (d digits asked for: tol = 10^-d at mp.dps = d + 10, unless stated):
- zeta_deriv0_diff(6, 0.7) at 50, 100 and 150 digits, and gamma_n(8, 0.7)
  by series_b at 100 digits: high orders, where the certificates dominate;
- gamma_1(1.5) by series_b at 50 digits and mp.dps 100, after the calls at
  12, 20 and 30 digits (mp.dps = 2 d), as the benchmark's precision ladder
  makes them;
- zeta_prime_int(s) and hurwitz_em(s, 0.7) at 30 digits, at a fresh 53-bit
  s after a call at another one: the tables one new s builds;
- digamma_rational(3/7) at tol 1e-15, eta(4) at 1e-12, and
  gamma1_rational(p/7) at 1e-12 for p = 1..6 in one timed call, all at
  mp.dps 34 as the benchmark's point mix asks them: the closed forms and
  their x-free constants, which a warm call reads from the constants table.

Usage (from the root of a checkout):
    PYTHONPATH=src python scripts/cold_cost.py
    PYTHONPATH=src python scripts/cold_cost.py --procs 9 --rows gamma1_d50
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from mpmath import mp, mpf


def _at(digits, dps=None):
    """(mp.dps, tol) of a call at digits."""
    return (digits + 10 if dps is None else dps), mpf(10) ** -digits


def _zeta_deriv0(digits):
    def call(S):
        mp.dps, tol = _at(digits)
        return S.zeta_deriv0_diff(6, mpf("0.7"), tol)
    return [], call


def _gamma8(S):
    mp.dps, tol = _at(100)
    return S.gamma_n(8, mpf("0.7"), "series_b", tol)


def _ladder(digits):
    def call(S):
        mp.dps, tol = _at(digits, 2 * digits)
        return S.gamma_n(1, mpf("1.5"), "series_b", tol)
    return call


def _at_s(fn, s):
    def call(S):
        mp.dps, tol = _at(30)
        s_ = mpf(s)  # a float: 53 bits, exactly
        if fn == "zeta_prime_int":
            return S.zeta_prime_int(s_, tol)
        return S.hurwitz_em(s_, mpf("0.7"), tol)
    return call


def _closed_form(fn):
    def call(S):
        mp.dps = 34
        if fn == "digamma_rational":
            return S.digamma_rational(S.RationalArg(3, 7), mpf("1e-15"))
        if fn == "eta":
            return S.eta(4, tol=mpf("1e-12"))
        return [S.gamma1_rational(S.RationalArg(p, 7), mpf("1e-12")) for p in range(1, 7)]
    return call


# name -> (label, set-up calls, the timed call)
ROWS = {
    "zeta_deriv0_d50": ("zeta_deriv0_diff(6, 0.7), 50 digits", *_zeta_deriv0(50)),
    "zeta_deriv0_d100": ("zeta_deriv0_diff(6, 0.7), 100 digits", *_zeta_deriv0(100)),
    "zeta_deriv0_d150": ("zeta_deriv0_diff(6, 0.7), 150 digits", *_zeta_deriv0(150)),
    "gamma8_d100": ("gamma_n(8, 0.7), 100 digits", [], _gamma8),
    "gamma1_d50": ("gamma_1(1.5), 50 digits after 12, 20, 30",
                   [_ladder(12), _ladder(20), _ladder(30)], _ladder(50)),
    "zeta_prime_int_s": ("zeta_prime_int(s), fresh s, 30 digits",
                         [_at_s("zeta_prime_int", 2 + 1 / 3)],
                         _at_s("zeta_prime_int", 2 + 1 / 7)),
    "hurwitz_em_s": ("hurwitz_em(s, 0.7), fresh s, 30 digits",
                     [_at_s("hurwitz_em", 2 + 1 / 3)], _at_s("hurwitz_em", 2 + 1 / 7)),
    "digamma_rational": ("digamma_rational(3/7), 1e-15", [], _closed_form("digamma_rational")),
    "eta4": ("eta(4), 1e-12", [], _closed_form("eta")),
    "gamma1_rational_sweep": ("gamma1_rational(p/7), p = 1..6, 1e-12", [],
                              _closed_form("gamma1_rational")),
}


def child(name: str, warm: int) -> None:
    """One fresh process: set-up, one cold call, warm calls; prints JSON."""
    import stieltjes as S

    _, setup, call = ROWS[name]
    for step in setup:
        step(S)
    t0 = time.perf_counter()
    call(S)
    cold = time.perf_counter() - t0
    warms = []
    for _ in range(warm):
        t0 = time.perf_counter()
        call(S)
        warms.append(time.perf_counter() - t0)
    print(json.dumps({"cold_ms": cold * 1e3, "warm_ms": statistics.median(warms) * 1e3}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--procs", type=int, default=5, help="fresh processes per row (>= 5)")
    ap.add_argument("--warm", type=int, default=5, help="warm calls per process")
    ap.add_argument("--rows", default=",".join(ROWS), help="rows, comma-separated")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.warm)
        return 0
    if args.procs < 5:
        ap.error("--procs must be at least 5")
    names = args.rows.split(",")
    unknown = [n for n in names if n not in ROWS]
    if unknown:
        ap.error(f"unknown rows {unknown}; rows: {', '.join(ROWS)}")
    print("| call | cold ms | warm ms | cold / warm |")
    print("| --- | --- | --- | --- |")
    for name in names:
        runs = []
        for _ in range(args.procs):
            out = subprocess.run([sys.executable, __file__, "--child", name,
                                  "--warm", str(args.warm)],
                                 check=True, capture_output=True, text=True)
            runs.append(json.loads(out.stdout))
        cold = statistics.median(r["cold_ms"] for r in runs)
        warm = statistics.median(r["warm_ms"] for r in runs)
        print(f"| {ROWS[name][0]} | {cold:.3g} | {warm:.3g} | {cold / warm:.3g} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

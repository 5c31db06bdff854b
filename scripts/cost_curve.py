#!/usr/bin/env python3
"""Cost against requested digits: gamma_n(x) by series_b, series_c and
coffey at a range of tolerances, with each plan's K and J, the time of a
call and its true error over its claim.

For each order n, route and digits d the call is gamma_n(n, x, route,
10^-d) at mp.dps = d + 10.  One call warms the caches, then the least of
--repeat timed calls is printed (raw wall time, ms).  The reference is
mpmath's stieltjes(n, x) at d + 40 digits, taken once per (n, d) at the
binary x the calls read; gap/claim is |value - reference| / abs_err and
must stay at most 1.  A plan past the term budget prints ConvergenceError.

Usage (from the root of a checkout):
    PYTHONPATH=src python scripts/cost_curve.py
    PYTHONPATH=src python scripts/cost_curve.py --n 1 --digits 20,50,100 --repeat 1
"""

import argparse
import sys
import time

from mpmath import mp, mpf, stieltjes, workdps

from stieltjes import gamma_n
from stieltjes.core import ConvergenceError

ROUTES = ("series_b", "series_c", "coffey")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", default="1,4", help="orders, comma-separated")
    ap.add_argument("--digits", default="20,50,75,100,150,200",
                    help="digits asked for, comma-separated")
    ap.add_argument("--x", default="0.7")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per row")
    args = ap.parse_args()
    orders = [int(n) for n in args.n.split(",")]
    digits = [int(d) for d in args.digits.split(",")]
    with workdps(34):
        x = mpf(args.x)
    print("| n | digits | route | K | J | ms | gap/claim |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    worst = mpf(0)
    for n in orders:
        for d in digits:
            tol = mpf(10) ** -d
            reference = None
            for route in ROUTES:
                mp.dps = d + 10
                try:
                    sv = gamma_n(n, x, route, tol)
                except ConvergenceError:
                    print(f"| {n} | {d} | {route} | — | — | — | ConvergenceError |")
                    continue
                times = []
                for _ in range(args.repeat):
                    t0 = time.perf_counter()
                    gamma_n(n, x, route, tol)
                    times.append(time.perf_counter() - t0)
                if reference is None:
                    with workdps(d + 40):
                        reference = +stieltjes(n, x)
                with workdps(d + 40):
                    ratio = abs(sv.value - reference) / sv.abs_err
                worst = max(worst, ratio)
                order = getattr(sv, "order", None) or "—"
                print(f"| {n} | {d} | {route} | {sv.terms_used} | {order} | "
                      f"{min(times) * 1e3:.3g} | {mp.nstr(ratio, 2)} |", flush=True)
    print(f"worst gap/claim {mp.nstr(worst, 3)}")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())

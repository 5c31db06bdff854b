#!/usr/bin/env python3
"""Print a working table of every constant family the library computes.

Usage:
    python scripts/constants_table.py [--digits 34] [--tol 1e-15]
"""

import argparse

from mpmath import mp, mpf, nstr

from stieltjes import (delta, digamma, dilcher_log_gamma_k, eta, gamma1_alt,
                       gamma_n, log_gamma, zeta_deriv0_const, zeta_deriv0_diff)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--digits", type=int, default=34)
    ap.add_argument("--tol", default="1e-15")
    args = ap.parse_args()
    mp.dps = args.digits
    tol = mpf(args.tol)
    d = min(args.digits, 30)

    print(f"# generalized Stieltjes constants (tol {args.tol})")
    for n in range(5):
        for x in (mpf("0.5"), mpf(1), mpf(2)):
            sv = gamma_n(n, x, "series_b", tol)
            print(f"gamma_{n}({nstr(x, 3)}) = {nstr(sv.value, d)}  "
                  f"[{sv.method}, +/-{nstr(sv.abs_err, 2)}]")

    print("\n# gamma_1 by alternating acceleration")
    sv = gamma1_alt(mpf("1e-12"))
    print(f"gamma_1 = {nstr(sv.value, d)}  [{sv.method}, {sv.terms_used} terms]")

    print("\n# zeta derivatives at 0")
    for n in range(3):
        sv = zeta_deriv0_const(n, tol)
        print(f"zeta^({n})(0) = {nstr(sv.value, d)}")
    for x in (mpf("0.25"), mpf("0.5")):
        sv = zeta_deriv0_diff(1, x, tol)
        print(f"zeta''(0,{nstr(x, 3)}) - zeta''(0) = {nstr(sv.value, d)}")

    print("\n# eta and delta families")
    for n in range(4):
        sv = eta(n, "from_gamma", tol=tol)
        print(f"eta_{n} = {nstr(sv.value, d)}")
    for n in range(3):
        sv = delta(n, tol)
        print(f"delta_{n} = {nstr(sv.value, d)}")

    print("\n# digamma / log gamma samples")
    for x in (mpf("0.5"), mpf(1), mpf("2.5")):
        print(f"psi({nstr(x, 3)}) = {nstr(digamma(x, tol).value, d)}")
        print(f"log Gamma({nstr(x, 3)}) = {nstr(log_gamma(x, tol).value, d)}")

    print("\n# generalized gamma functions log Gamma_k(x+1)")
    for k in range(3):
        for x in (mpf("0.5"), mpf("1.5")):
            sv = dilcher_log_gamma_k(k, x, tol)
            print(f"log Gamma_{k}({nstr(x + 1, 3)}) = {nstr(sv.value, d)}")


if __name__ == "__main__":
    main()

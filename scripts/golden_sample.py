#!/usr/bin/env python3
"""Write, or compare against, a fixed golden sample of library outputs.

Every entry records repr(value), repr(abs_err), terms_used and method, and
then the exact binary value and abs_err (their _mpf_ sign, mantissa and
exponent): repr rounds to the ambient mp.dps, while a route returns its value
at its working precision.  So two checkouts can be compared both in the
ambient digits and bit for bit:

- gamma_n for n 0..8 by series_b, series_c and coffey, x in
  {0.05, 0.2546, 0.5, 1, 1.5, 3.7, 8, 500}, tol in {1e-12, 1e-15, 1e-20},
  at mp.dps 15 and 34;
- gamma_diff, zeta_deriv0_diff, digamma, log_gamma and dilcher_log_gamma_k
  at mp.dps 34;
- gamma_n for n in {1, 4} at x = 0.7 by the three routes at tol 1e-100 and
  1e-200, and log_gamma and digamma at x = 0.7 and tol 1e-100, at mp.dps
  34: the orders past 13;
- em_tail at mp.dps 34: log^n t / t at 32.2546 for n 0..8 and J in {4, 13},
  and log^m t / t^p for m 0..3, p in {1, 2, 3}, J in {4, 8} at starts
  {4.5, 12.25, 30.5, 100.75, 500.5}, on both sides of the certified start;
- hurwitz_em for s in {-2.5, -1, 0, 0.5, 1.5, 2, 3, 4.5, 10},
  x in {0.0584302, 0.25, 1, 3.7, 8}, tol in {1e-12, 1e-20, 1e-30}, and
  zeta_prime_int, gamma1_alt, dilcher_power_series, gamma1_rational,
  digamma_rational and eta at mp.dps 34;
- delta for n 0..2 at mp.dps 15, 34 and 50, at the default N and at
  N in {10, 97, 9973, 10^5};
- the verifier's Chebyshev models at mp.dps 34: the integral of the gamma_n
  model on [1, 2] for n 0..3 and the zeta'(0, x) and zeta''(0, x) rows of
  vanishing_integrals, as SeriesValues, and the roots _gamma_roots(n)
  bisects for n 0..3, repr and exact bits of each (model:... entries; the
  report's notes show the roots to 12 digits only);
- the `stieltjes verify --suite all` report, without its elapsed_s fields,
  one entry per check keyed by its id and inputs, e.g.
  verify:lemma31(N=100,n=3,x=3.14...).

Usage (from the root of a checkout):
    PYTHONPATH=src python scripts/golden_sample.py --out golden.txt
    PYTHONPATH=src python scripts/golden_sample.py --compare golden.txt
    PYTHONPATH=src python scripts/golden_sample.py --audit

--compare lists the entries that differ in the ambient digits (DIFF) and
those that differ only in the exact bits (EXACT), each changed value with its
move as a fraction of the sample's abs_err, then a tally per function (the
key's name before its arguments: its DIFF and EXACT counts and its worst
move), then the worst move of all, and exits with status 1 when any entry
differs in either way or is missing.  An
infinite or nan value or abs_err is written and read back as inf, -inf or
nan.  Write both samples with the same version of this script.

--audit checks the claim of every gamma_n, gamma_diff, log_gamma, digamma,
dilcher_log_gamma_k, hurwitz_em, zeta_prime_int, delta, em_tail,
gamma1_rational, digamma_rational and eta (from_gamma) entry, and of
zeta_deriv0_const for n 0..2 at the three zeta tolerances and of gamma_n
by the three routes at x in {1e-7, 1e-20, 1e-80}, n in {1, 4} and tol
1e-12 and 1e-30 (tiny_x: entries; these two audited, not sampled, so that
--compare against an older sample stays valid), against mpmath at 80
digits (40 past the claim and the value's magnitude where that is more),
taken at the entry's binary arguments:
stieltjes for gamma_n and gamma_diff (stieltjes(n, 1 + x) + log^n x / x
at a tiny x), loggamma, psi(0, x), (-1)^k
[zeta^(k+1)(0, x+1) - zeta^(k+1)(0)]/(k+1) from zeta(0, x+1, k+1),
zeta(s, x), zeta(s, 1, 1), (-1)^n [zeta^(n)(0) + n!] from zeta(0, 1, n),
for em_tail sum_{k>=0} f(a+k) - int_a^inf f: (-1)^m zeta(p, a, m) less
the closed integral, or stieltjes(m, a) + log^(m+1) a/(m+1) for p = 1;
stieltjes(1, p/q) and psi(0, p/q) at the exact p/q, -[w^n] F'/F by the
power series of log F from stieltjes(j), and zeta(0, 1, n).
em_tail's abs_err is the certified Euler-Maclaurin remainder bound with the
fixed-point value's own bound, and no rounding floor: the value is the
exact fixed-point sum.  It prints each entry whose gap |value - ref|
exceeds its abs_err with the ratio gap/claim,
then the worst ratio of each function, and exits with status 1 when any
ratio is above 1.  A comparison of two checkouts cannot show a claim that was
never a bound; the audit can.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from math import factorial

from mpmath import (factorial as mp_factorial, log, loggamma, mp, mpf, psi,
                    stieltjes, workdps, workprec, zeta)
from mpmath.libmp import from_man_exp

from stieltjes import (RationalArg, delta, digamma, digamma_rational,
                       dilcher_log_gamma_k, dilcher_power_series, em_tail, eta,
                       gamma1_alt, gamma1_rational, gamma_diff, gamma_n,
                       hurwitz_em, log_gamma, zeta_deriv0_const, zeta_deriv0_diff,
                       zeta_prime_int)
from stieltjes.cli import main as cli_main
from stieltjes.verifier import _gamma_model, _gamma_roots, _unit_deriv_integral

XS = ("0.05", "0.2546", "0.5", "1", "1.5", "3.7", "8", "500")
TOLS = ("1e-12", "1e-15", "1e-20")
ROUTES = ("series_b", "series_c", "coffey")
DIFF_PAIRS = (("0.5", "1"), ("1.5", "0.2546"), ("3.7", "8"), ("0.05", "2"))
ZETA_S = ("-2.5", "-1", "0", "0.5", "1.5", "2", "3", "4.5", "10")
ZETA_XS = ("0.0584302", "0.25", "1", "3.7", "8")
ZETA_TOLS = ("1e-12", "1e-20", "1e-30")
RATIONALS = ((1, 2), (1, 3), (2, 5), (3, 7))
DELTA_NS = (10, 97, 9973, 10 ** 5)
EM_TAIL_STARTS = ("4.5", "12.25", "30.5", "100.75", "500.5")
TINY_XS = ("1e-7", "1e-20", "1e-80")


NONFINITE = ("inf", "-inf", "nan")


def _exact(v) -> str:
    if mp.isnan(v):
        return "nan"
    if mp.isinf(v):
        return "-inf" if v < 0 else "inf"
    sign, man, exp, _ = v._mpf_
    return f"{'-' if sign else ''}{int(man):x}p{exp}"


def _from_exact(text) -> mpf:
    if text in NONFINITE:
        return mpf(text)
    man, exp = text.split("p")
    return mpf(from_man_exp(int(man, 16), int(exp)))


def _record(sv) -> str:
    return (f"{sv.value!r}\t{sv.abs_err!r}\t{sv.terms_used}\t{sv.method}"
            f"\t{_exact(sv.value)} {_exact(sv.abs_err)}")


def _ambient(rec) -> str:
    # the first four fields; a verify report is one JSON field
    return "\t".join(rec.split("\t")[:4])


def _move(want, got) -> tuple[str, mpf | None]:
    """(' (moved r of abs_err)', r) with r = |got - want| / want's abs_err
    from the exact fields; r is inf for a move against an abs_err of 0, and
    ('', None) is returned when an entry has no exact fields."""
    try:
        (v0, e0), (v1, _) = (rec.split("\t")[4].split() for rec in (want, got))
    except (AttributeError, IndexError):
        return "", None
    with workprec(4096):  # exact: mantissas are far shorter
        moved, err = abs(_from_exact(v1) - _from_exact(v0)), _from_exact(e0)
        if not err:
            ratio = mp.inf if moved else mpf(0)
            return f" (moved {mp.nstr(moved, 3)}, abs_err 0)", ratio
        ratio = moved / err
        return f" (moved {mp.nstr(ratio, 3)} of abs_err)", ratio


def _gamma_values():
    """(key, SeriesValue, n, args) for the gamma_n and gamma_diff entries,
    args being the binary x (and y) each call was made at."""
    for dps in (15, 34):
        mp.dps = dps
        for n in range(9):
            for route in ROUTES:
                for x in XS:
                    for tol in TOLS:
                        args = (mpf(x),)
                        sv = gamma_n(n, *args, route, mpf(tol))
                        yield f"gamma_n({n},{x},{route},{tol})@{dps}", sv, n, args
    mp.dps = 34
    for n in range(9):
        for x, y in DIFF_PAIRS:
            for tol in TOLS:
                args = (mpf(x), mpf(y))
                sv = gamma_diff(n, *args, mpf(tol))
                yield f"gamma_diff({n},{x},{y},{tol})", sv, n, args


def _route_values():
    """(key, SeriesValue, reference) for the log_gamma, digamma,
    dilcher_log_gamma_k, hurwitz_em and zeta_prime_int entries, reference
    being mpmath's value at the entry's binary arguments and the caller's
    precision."""
    mp.dps = 34
    for x in XS:
        for tol in TOLS:
            x_ = mpf(x)
            yield (f"digamma({x},{tol})", digamma(x_, mpf(tol)),
                   lambda x_=x_: psi(0, x_))
            yield (f"log_gamma({x},{tol})", log_gamma(x_, mpf(tol)),
                   lambda x_=x_: loggamma(x_))
    for k in range(5):
        for x in XS:
            for tol in TOLS:
                x_ = mpf(x)
                yield (f"dilcher_log_gamma_k({k},{x},{tol})",
                       dilcher_log_gamma_k(k, x_, mpf(tol)),
                       lambda k=k, x_=x_: (-1) ** k * (zeta(0, x_ + 1, k + 1)
                                                       - zeta(0, 1, k + 1)) / (k + 1))
    for s in ZETA_S:
        for x in ZETA_XS:
            for tol in ZETA_TOLS:
                s_, x_ = mpf(s), mpf(x)
                yield (f"hurwitz_em({s},{x},{tol})", hurwitz_em(s_, x_, mpf(tol)),
                       lambda s_=s_, x_=x_: zeta(s_, x_))
    for s in ("1.5", "2", "3", "4.5", "10", "25"):
        for tol in ZETA_TOLS:
            s_ = mpf(s)
            yield (f"zeta_prime_int({s},{tol})", zeta_prime_int(s_, mpf(tol)),
                   lambda s_=s_: zeta(s_, 1, 1))


def _series_entries():
    for key, sv, _, _ in _gamma_values():
        yield key, _record(sv)
    mp.dps = 34
    for k in range(7):
        for x in XS:
            for tol in TOLS + ("1e-30",):
                sv = zeta_deriv0_diff(k, mpf(x), mpf(tol))
                yield f"zeta_deriv0_diff({k},{x},{tol})", _record(sv)
    for key, sv, _ in _route_values():
        yield key, _record(sv)
    for key, sv, _ in _em_tail_values():
        yield key, _record(sv)
    for key, sv, _ in _high_values():
        yield key, _record(sv)


def _high_values():
    """(key, SeriesValue, reference) for gamma_1 and gamma_4 at x = 0.7 by
    the three routes at 1e-100 and 1e-200, and log_gamma and digamma there
    at 1e-100: the orders past 13."""
    mp.dps = 34
    x = mpf("0.7")
    for digits in (100, 200):
        tol = mpf(10) ** -digits
        for n in (1, 4):
            for route in ROUTES:
                yield (f"gamma_n({n},0.7,{route},1e-{digits})", gamma_n(n, x, route, tol),
                       lambda n=n: stieltjes(n, x))
    tol = mpf(10) ** -100
    yield "log_gamma(0.7,1e-100)", log_gamma(x, tol), lambda: loggamma(x)
    yield "digamma(0.7,1e-100)", digamma(x, tol), lambda: psi(0, x)


def _em_tail_values():
    """(key, SeriesValue, reference) for the em_tail entries, reference
    being sum_{k>=0} f(a+k) - int_a^inf f(t) dt from mpmath at the entry's
    binary start."""
    def reference(m, p, a):
        la = log(a)
        if p == 1:
            return stieltjes(m, a) + la ** (m + 1) / (m + 1)
        integral = (mp_factorial(m) / (p - 1) ** (m + 1) * a ** (1 - p)
                    * sum(((p - 1) * la) ** j / mp_factorial(j) for j in range(m + 1)))
        return (-1) ** m * zeta(p, a, m) - integral

    mp.dps = 34
    cases = [(f"em_tail({n},32.2546,{J})", n, 1, "32.2546", J)
             for n in range(9) for J in (4, 13)]
    cases += [(f"em_tail({m},{p},{a},{J})", m, p, a, J) for m in range(4)
              for p in (1, 2, 3) for a in EM_TAIL_STARTS for J in (4, 8)]
    for key, m, p, a, J in cases:
        a = mpf(a)
        yield (key, em_tail(m, p, a, J),
               lambda m=m, p=p, a=a: reference(m, p, a))


def _zeta_entries():
    mp.dps = 34
    for tol in ("1e-12", "1e-20"):
        yield f"gamma1_alt({tol})", _record(gamma1_alt(mpf(tol)))
    for x in ("-0.5", "0.3", "0.7", "1"):
        sv = dilcher_power_series(mpf(x), mpf("1e-12"))
        yield f"dilcher_power_series({x},1e-12)", _record(sv)
    for key, sv, _ in _closed_form_values():
        yield key, _record(sv)
    for n in (0, 1, 2):
        yield f"eta({n},series,K=1000)", _record(eta(n, "series", K=1000))
    for key, sv, _ in _delta_values():
        yield key, _record(sv)


def _closed_form_values():
    """(key, SeriesValue, reference) for the gamma1_rational,
    digamma_rational and eta (from_gamma) entries at mp.dps 34, reference
    being mpmath's stieltjes(1, p/q), psi(0, p/q) and _eta_ref(n)."""
    mp.dps = 34
    tol = mpf("1e-12")
    for p, q in RATIONALS:
        r = RationalArg(p, q)
        yield (f"gamma1_rational({p}/{q},1e-12)", gamma1_rational(r, tol),
               lambda p=p, q=q: stieltjes(1, mpf(p) / q))
        yield (f"digamma_rational({p}/{q},1e-12)", digamma_rational(r, tol),
               lambda p=p, q=q: psi(0, mpf(p) / q))
    for n in range(7):
        yield f"eta({n},from_gamma,1e-12)", eta(n, tol=tol), lambda n=n: _eta_ref(n)


def _eta_ref(n):
    """eta_n = -[w^n] F'/F = -(n+1) [w^(n+1)] log F, F(w) = 1 + h(w) with
    h = sum_j (-1)^j gamma_j w^(j+1)/j! from mpmath's stieltjes, and log F
    as the power series sum_k (-1)^(k+1) h^k / k, truncated past w^(n+1)."""
    h = [mpf(0)] + [(-1) ** j * stieltjes(j) / mp_factorial(j) for j in range(n + 1)]
    power, log_f = [mpf(1)] + [mpf(0)] * (n + 1), mpf(0)
    for k in range(1, n + 2):
        power = [sum(power[i] * h[m - i] for i in range(m + 1)) for m in range(n + 2)]
        log_f += (-1) ** (k + 1) * power[n + 1] / k
    return -(n + 1) * log_f


def _zeta_const_values():
    """(key, SeriesValue, reference) for zeta_deriv0_const, audited only:
    n 0..2 at mp.dps 34 and tol in ZETA_TOLS, reference zeta(0, 1, n)."""
    mp.dps = 34
    for n in range(3):
        for tol in ZETA_TOLS:
            yield (f"zeta_deriv0_const({n},{tol})", zeta_deriv0_const(n, mpf(tol)),
                   lambda n=n: zeta(0, 1, n))


def _tiny_x_values():
    """(key, SeriesValue, reference) for gamma_n by the three routes at
    x in TINY_XS, n in {1, 4} and tol 1e-30 and 1e-12 at mp.dps 34, audited
    only; reference gamma_n(1 + x) + log^n x / x at the entry's binary x,
    once per (n, x), at the precision of its 1e-30 entry."""
    mp.dps = 34
    refs = {}

    def reference(n, x):
        if (n, x) not in refs:
            refs[n, x] = stieltjes(n, 1 + x) + log(x) ** n / x
        return refs[n, x]

    for x in TINY_XS:
        for n in (1, 4):
            for route in ROUTES:
                for tol in ("1e-30", "1e-12"):
                    x_ = mpf(x)
                    yield (f"tiny_x:gamma_n({n},{x},{route},{tol})",
                           gamma_n(n, x_, route, mpf(tol)),
                           lambda n=n, x_=x_: reference(n, x_))


def _delta_values():
    """(key, SeriesValue, reference) for the delta entries, reference being
    (-1)^n [zeta^(n)(0) + n!] from mpmath at the caller's precision."""
    for dps in (15, 34, 50):
        mp.dps = dps
        for n in range(3):
            def ref(n=n):
                return (-1) ** n * (zeta(0, 1, n) + factorial(n))
            yield f"delta({n})@{dps}", delta(n), ref
            for N in DELTA_NS:
                yield f"delta({n},{N})@{dps}", delta(n, N), ref


def _model_entries():
    mp.dps = 34
    for n in range(4):
        yield f"model:gamma_integral({n})", _record(_gamma_model(n).integral)
        roots = _gamma_roots(n)
        # no abs_err: --compare reports any move of a root as a DIFF
        yield (f"model:gamma_roots({n})",
               f"{', '.join(map(repr, roots))}\t{' '.join(map(_exact, roots))}")
    for order in (1, 2):
        yield f"model:zeta_unit_integral({order})", _record(_unit_deriv_integral(order))


def _verify_entries():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["verify", "--suite", "all", "--report", path])
        with open(path) as fh:
            reports = json.load(fh)
    for report in reports:
        report.pop("elapsed_s", None)
        # keyed by check and inputs, so a row added to one grid moves no other
        inputs = ",".join(f"{k}={v}" for k, v in sorted(report["inputs"].items()))
        yield f"verify:{report['check_id']}({inputs})", json.dumps(report, sort_keys=True)


def sample() -> dict[str, str]:
    saved = mp.dps
    try:
        out = dict(_series_entries())
        out.update(_zeta_entries())
        out.update(_model_entries())
        out.update(_verify_entries())
    finally:
        mp.dps = saved
    return out


def _audited():
    """(key, SeriesValue, reference) for every audited entry."""
    refs = {}

    def gamma_ref(n, args):
        for arg in args:
            if (n, arg) not in refs:
                refs[n, arg] = stieltjes(n, arg)
        return refs[n, args[0]] - (refs[n, args[1]] if len(args) > 1 else 0)

    for key, sv, n, args in _gamma_values():
        yield key, sv, lambda n=n, args=args: gamma_ref(n, args)
    yield from _route_values()
    yield from _delta_values()
    yield from _em_tail_values()
    yield from _high_values()
    yield from _closed_form_values()
    yield from _zeta_const_values()
    yield from _tiny_x_values()


def audit() -> int:
    """Check every audited entry against mpmath at 80 digits, or 40 digits
    past its claim and the value's magnitude where that is more, at the
    entry's binary arguments;
    print each entry whose gap |value - ref| exceeds its abs_err, and the
    worst gap/claim of each function.  Returns 1 when any entry's does."""
    saved = mp.dps
    worst: dict[str, tuple] = {}
    bad = count = 0
    try:
        for key, sv, reference in _audited():
            claim_digits = -int(mp.log10(sv.abs_err)) if 0 < sv.abs_err < mp.inf else 0
            size = int(mp.log10(abs(sv.value))) if 1 < abs(sv.value) < mp.inf else 0
            with workdps(max(80, claim_digits + size + 40)):
                gap = abs(sv.value - reference())
                ratio = gap / sv.abs_err if sv.abs_err else (mp.inf if gap else mpf(0))
            count += 1
            if ratio > 1:
                bad += 1
                print(f"VIOLATION {key}: gap {mp.nstr(gap, 3)}, abs_err "
                      f"{mp.nstr(sv.abs_err, 3)}, gap/claim {mp.nstr(ratio, 3)}")
            fn = key.split("(")[0]
            if fn not in worst or ratio >= worst[fn][0]:
                worst[fn] = ratio, key
    finally:
        mp.dps = saved
    for fn, (ratio, key) in worst.items():
        print(f"{fn}: worst gap/claim {mp.nstr(ratio, 3)} at {key}")
    print(f"{count} entries audited, {bad} with gap/claim above 1")
    return 1 if bad else 0


def _load(path) -> dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the sample to this file")
    group.add_argument("--compare", help="compare the sample with this file")
    group.add_argument("--audit", action="store_true",
                       help="check the claims of the series entries against "
                            "mpmath")
    args = ap.parse_args()
    if args.audit:
        return audit()
    got = sample()
    if args.out:
        with open(args.out, "w") as fh:
            for key, rec in got.items():
                fh.write(f"{key}\t{rec}\n")
        print(f"{len(got)} entries written to {args.out}")
        return 0
    want = _load(args.compare)
    diffs = [key for key in sorted(want.keys() | got.keys())
             if want.get(key) != got.get(key)]
    ambient = 0
    worst, worst_key = None, None
    # per function: [DIFF count, EXACT count, worst move, its key]
    tally: dict[str, list] = {}
    for key in diffs:
        w, g = want.get(key), got.get(key)
        note, ratio = _move(w, g)
        row = tally.setdefault(key.split("(")[0], [0, 0, None, None])
        if ratio is not None and (worst is None or ratio > worst):
            worst, worst_key = ratio, key
        if ratio is not None and (row[2] is None or ratio > row[2]):
            row[2:] = ratio, key
        if w is None or g is None or _ambient(w) != _ambient(g):
            ambient += 1
            row[0] += 1
            print(f"DIFF {key}{note}\n  want {w}\n  got  {g}")
        else:
            row[1] += 1
            print(f"EXACT {key}{note}")
    for fn, (n_diff, n_exact, move, key) in sorted(tally.items()):
        at = f", worst move {mp.nstr(move, 3)} of abs_err at {key}" if move is not None else ""
        print(f"{fn}: {n_diff} DIFF, {n_exact} EXACT{at}")
    print(f"{len(got)} entries, {ambient} differ in the ambient digits, "
          f"{len(diffs)} in the exact bits")
    if worst is not None:
        print(f"worst move {mp.nstr(worst, 3)} of abs_err at {worst_key}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

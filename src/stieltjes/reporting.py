"""Structured pass/fail records for identity checks.

A report either carries one raw (residual, tolerance) pair, or aggregates
several labelled subchecks, in which case the top-level residual is the worst
residual/tolerance ratio, rounded up, against a tolerance of 1.  Either way
the passed flag is recomputable from residual and tolerance alone.  An mpf
residual or tolerance is kept with all its bits, and |residual| is taken
exactly, so a gate assembled at a higher precision is not rounded to the
ambient one, and an aggregate passes exactly when every subcheck does.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, nstr
from mpmath.libmp import mpf_abs, mpf_div, round_ceiling

REPORT_DIGITS = 20  # significant digits of residuals and tolerances in as_dict


def _as_mpf(x) -> mpf:
    """x itself when it is an mpf (all its bits), else mpf(x)."""
    return x if isinstance(x, mpf) else mpf(x)


def _within(residual: mpf, tolerance: mpf) -> bool:
    """|residual| <= tolerance, with |residual| exact."""
    return mp.make_mpf(mpf_abs(residual._mpf_)) <= tolerance


@dataclass(frozen=True)
class SubCheck:
    label: str
    residual: mpf
    tolerance: mpf

    @property
    def passed(self) -> bool:
        return _within(self.residual, self.tolerance)


@dataclass(frozen=True)
class VerifyReport:
    check_id: str
    inputs: dict
    residual: mpf
    tolerance: mpf
    passed: bool
    elapsed: float
    subchecks: tuple[SubCheck, ...] = ()
    notes: str = ""

    @classmethod
    def build(cls, check_id, inputs, residual, tolerance, elapsed,
              subchecks=(), notes="") -> "VerifyReport":
        residual = _as_mpf(residual)
        tolerance = _as_mpf(tolerance)
        return cls(check_id=check_id, inputs=dict(inputs), residual=residual,
                   tolerance=tolerance, passed=_within(residual, tolerance),
                   elapsed=elapsed, subchecks=tuple(subchecks), notes=notes)

    @classmethod
    def from_subchecks(cls, check_id, inputs, subchecks, elapsed, notes="") -> "VerifyReport":
        """Aggregate: residual = max residual/tolerance ratio, each ratio of
        the exact |residual| rounded up, tolerance = 1.  Rounding up keeps
        a ratio above 1 above 1 and one at most 1 at most 1, so the report
        passes exactly when every subcheck does."""
        subchecks = tuple(subchecks)
        worst = max((mp.make_mpf(mpf_div(mpf_abs(s.residual._mpf_), s.tolerance._mpf_,
                                         mp.prec, round_ceiling))
                     for s in subchecks), default=mpf(0))
        return cls.build(check_id, inputs, worst, mpf(1), elapsed,
                         subchecks=subchecks, notes=notes)

    def as_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "inputs": self.inputs,
            "residual": nstr(self.residual, REPORT_DIGITS),
            "tolerance": nstr(self.tolerance, REPORT_DIGITS),
            "passed": self.passed,
            "elapsed_s": round(self.elapsed, 4),
        }
        if self.subchecks:
            out["subchecks"] = [
                {"label": s.label, "residual": nstr(s.residual, REPORT_DIGITS),
                 "tolerance": nstr(s.tolerance, REPORT_DIGITS), "passed": s.passed}
                for s in self.subchecks
            ]
        if self.notes:
            out["notes"] = self.notes
        return out

    def sort_key(self) -> tuple:
        return (self.check_id, sorted((k, str(v)) for k, v in self.inputs.items()))

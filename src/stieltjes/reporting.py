"""Structured pass/fail records for identity checks.

A report either carries one raw (residual, tolerance) pair, or aggregates
several labelled subchecks, in which case the top-level residual is the worst
residual/tolerance ratio against a tolerance of 1.  Either way the passed
flag is recomputable from residual and tolerance alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf, nstr

REPORT_DIGITS = 20  # significant digits of residuals and tolerances in as_dict


@dataclass(frozen=True)
class SubCheck:
    label: str
    residual: mpf
    tolerance: mpf

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.tolerance


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
        residual = mpf(residual)
        tolerance = mpf(tolerance)
        return cls(check_id=check_id, inputs=dict(inputs), residual=residual,
                   tolerance=tolerance, passed=bool(abs(residual) <= tolerance),
                   elapsed=elapsed, subchecks=tuple(subchecks), notes=notes)

    @classmethod
    def from_subchecks(cls, check_id, inputs, subchecks, elapsed, notes="") -> "VerifyReport":
        """Aggregate: residual = max residual/tolerance ratio, tolerance = 1."""
        subchecks = tuple(subchecks)
        worst = max((abs(s.residual) / s.tolerance for s in subchecks), default=mpf(0))
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

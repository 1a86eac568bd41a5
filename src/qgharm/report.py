"""The one record every check returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Check", "check"]


@dataclass(frozen=True)
class Check:
    """Outcome of one check: named residuals against a tolerance.

    name and claim say what was checked and holds is the verdict. lhs and
    rhs are the two sides of an inequality where the check has them. details
    holds the evidence that the CLI does not print, such as a certified
    element and its Haar value.
    """

    name: str
    claim: str
    residuals: dict
    tol: Optional[float]
    holds: bool
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    details: dict = field(default_factory=dict)

    def failing(self) -> dict:
        """The residuals above tol, and those that are NaN."""
        return {k: v for k, v in self.residuals.items() if not v <= self.tol}


def check(name: str, claim: str, residuals: dict, tol: float,
          lhs: Optional[float] = None, rhs: Optional[float] = None,
          **details) -> Check:
    """The record of a check that holds when every residual is at most tol,
    so never with a NaN one. An empty residual dict raises ValueError."""
    residuals = {k: float(v) for k, v in residuals.items()}
    if not residuals:
        raise ValueError(f"check {name!r} has no residuals")
    return Check(name=name, claim=claim, residuals=residuals, tol=tol,
                 holds=all(v <= tol for v in residuals.values()), lhs=lhs,
                 rhs=rhs, details=details)

"""The two exception types of the toolkit, one per CLI exit code.

QgharmError refuses an input: bad flags, parameters, shapes or exponents,
an unknown example, or an enumeration that cannot be completed; the CLI
prints its message on one `error:` line and exits 1. AxiomFailure, a
subclass, says that the paper's identities fail on the data at hand; the
CLI prints a failing `construction` check under the failed claim and exits
2.
"""

from __future__ import annotations

__all__ = ["QgharmError", "AxiomFailure"]


class QgharmError(Exception):
    """An input is refused (exit 1)."""


class AxiomFailure(QgharmError):
    """A Hopf *-algebra, Haar or duality identity fails beyond tolerance
    (exit 2). claim names the failed claim, as a check's claim does."""

    def __init__(self, message: str, claim: str = "axioms"):
        super().__init__(message)
        self.claim = claim

"""Exception types raised across the toolkit.

Grouped by the layer that raises them; everything derives from QgharmError
so callers can catch the whole family at once.
"""

from __future__ import annotations

__all__ = [
    "QgharmError",
    "ShapeMismatch",
    "NotAGroup",
    "AxiomFailure",
    "NotUnitary",
    "OwnerMismatch",
    "DegenerateDual",
    "PlancherelInconsistent",
    "NotTracial",
    "BadExponents",
    "NotAutomorphism",
    "NotGroupLike",
    "NotProjection",
    "NotAShift",
    "CertificateMissing",
    "UnknownExample",
    "BadParameters",
    "EvalAtForbiddenMu",
    "NotABishift",
    "EnumerationIncomplete",
    "BadFlags",
]


class QgharmError(Exception):
    """Base class for all toolkit errors."""


# ---- dense linear algebra ----

class ShapeMismatch(QgharmError):
    """Operands have incompatible shapes."""


# ---- quantum group core ----

class NotAGroup(QgharmError):
    """Cayley table fails the group laws."""


class AxiomFailure(QgharmError):
    """A Hopf *-algebra or Haar axiom fails beyond tolerance."""


class NotAutomorphism(QgharmError):
    """Linear map is not a *-algebra automorphism."""


# ---- duality ----

class NotUnitary(QgharmError):
    """Candidate multiplicative unitary fails unitarity."""


class OwnerMismatch(QgharmError):
    """Element belongs to a different algebra than the operation expects."""


class DegenerateDual(QgharmError):
    """The dual quantum group fails its axioms; duality data cannot be built."""


class PlancherelInconsistent(QgharmError):
    """The dual Haar weight is not positive or fails the Plancherel identity."""


# ---- L^p / convolution ----

class NotTracial(QgharmError):
    """Weight is not tracial; the L^p formula used here needs a trace."""


class BadExponents(QgharmError):
    """Exponents outside the valid range for the requested inequality."""


# ---- subgroup-like structures ----

class NotGroupLike(QgharmError):
    """Element is not a certified group-like projection."""


class NotProjection(QgharmError):
    """Element is not a projection within tolerance."""


class NotAShift(QgharmError):
    """Element fails the shift relations for the given group-like projection."""


class CertificateMissing(QgharmError):
    """Operation needs a certificate that was not supplied or failed."""


class NotABishift(QgharmError):
    """Element fails the bi-shift equalities."""


class EnumerationIncomplete(QgharmError):
    """An exact enumeration cannot be completed, so no list is returned."""


# ---- CLI / catalog / SU_mu(2) ----

class UnknownExample(QgharmError):
    """Requested catalog example does not exist."""


class BadParameters(QgharmError):
    """Numeric parameters outside the supported range."""


class EvalAtForbiddenMu(QgharmError):
    """Rational function evaluated at a pole or at mu in {-1, 0, 1}."""


class BadFlags(QgharmError):
    """Command-line flags are inconsistent."""

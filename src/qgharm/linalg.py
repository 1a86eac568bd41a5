"""Dense complex matrix helpers: Hermitian eigendecomposition and range
projections.

Matrices are plain complex numpy arrays. Everything here is a pure function;
nothing mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, ShapeMismatch

__all__ = [
    "HermitianEigen",
    "eig_hermitian",
    "range_projection",
]

# Scale-invariant eigenvalue cutoff for rank and projection decisions.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues (real, ascending) and eigenvectors (unitary, columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def eig_hermitian(a: np.ndarray, tol: float = 1e-10) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when ||A - A*|| exceeds tol * ||A||, and NoConvergence
    if the underlying iteration fails.
    """
    a = _as_square(a)
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > tol * max(scale, 1e-300):
        raise NotHermitian(
            f"asymmetry {np.linalg.norm(a - a.conj().T):.3e} exceeds {tol:.1e} * ||A||"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise NoConvergence(str(exc)) from exc
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def range_projection(a: np.ndarray, tol: float = RANK_CUTOFF) -> np.ndarray:
    """Orthogonal projection onto the column space of A.

    Computed from the spectral decomposition of A A*, keeping eigenvectors
    whose eigenvalue exceeds tol times the largest one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {a.shape}")
    gram = a @ a.conj().T
    eig = eig_hermitian(gram, tol=1e-8)
    w = eig.eigenvalues
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if top <= 0.0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    keep = w > tol * top
    v = eig.eigenvectors[:, keep]
    return v @ v.conj().T

"""Range projections of dense complex matrices.

Matrices are plain complex numpy arrays. Everything here is a pure function;
nothing mutates its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import QgharmError

__all__ = ["range_projection"]

# Scale-invariant eigenvalue cutoff for rank and projection decisions.
RANK_CUTOFF = 1e-10


def range_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the column space of A, batched over the
    leading axes.

    Computed from the spectral decomposition of A A*, keeping eigenvectors
    whose eigenvalue exceeds RANK_CUTOFF times the matrix's largest one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise QgharmError(f"expected a matrix, got shape {a.shape}")
    w, v = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
    top = np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    keep = w > RANK_CUTOFF * top
    return (v * keep[..., None, :]) @ v.conj().swapaxes(-1, -2)

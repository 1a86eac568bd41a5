"""Convolution of elements and functionals on a finite quantum group.

The element convolution is x * y = ((x phi)R . id) Delta(y): pair the first
leg of Delta(y) against the functional z -> phi(R(z) x). With a trivial
scaling group and R = S this is the only twist-free form, and it agrees with
the functional convolution (omega * theta) = (omega . theta) Delta under
omega = x phi.
"""

from __future__ import annotations

import numpy as np

from .core import AlgebraElement, FiniteQuantumGroup

__all__ = ["convolve", "convolve_functional_form", "functional_of"]


def convolve(g: FiniteQuantumGroup, x, y) -> AlgebraElement:
    """x * y = ((x phi)R . id) Delta(y), batched over the leading axes."""
    xc = g.coeffs_of(x)
    # functional applied to the first leg: e_i -> phi(R(e_i) x)
    w = (xc @ g.q_matrix.T) @ g.antipode
    return g.element((w[..., None, :] @ g.delta(y))[..., 0, :])


def convolve_functional_form(g: FiniteQuantumGroup, omega: np.ndarray,
                             theta: np.ndarray) -> np.ndarray:
    """(omega * theta) = (omega . theta) Delta, on functional coefficient rows."""
    om = np.asarray(omega, dtype=complex).reshape(-1)
    th = np.asarray(theta, dtype=complex).reshape(-1)
    return om @ (th @ g.comult3)


def functional_of(g: FiniteQuantumGroup, x) -> np.ndarray:
    """Coefficient row of the functional x phi: y -> phi(y x)."""
    xc = g.coeffs_of(x)
    return xc @ g.q_matrix.T


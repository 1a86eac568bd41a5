"""Convolution of elements on a finite quantum group.

The element convolution is x * y = ((x phi)R . id) Delta(y): pair the first
leg of Delta(y) against the functional z -> phi(R(z) x). With a trivial
scaling group and R = S this is the only twist-free form, and it agrees with
the functional convolution (omega * theta) = (omega . theta) Delta under
omega = x phi, which the tests keep as its reference.
"""

from __future__ import annotations

import numpy as np

from .core import AlgebraElement, FiniteQuantumGroup

__all__ = ["convolve"]


def convolve(g: FiniteQuantumGroup, x, y) -> AlgebraElement:
    """x * y = ((x phi)R . id) Delta(y), batched over the leading axes.
    An infinite coefficient times a zero of a structure tensor gives NaN
    there, silently, as in Blocks.matrices."""
    xc = g.coeffs_of(x)
    with np.errstate(invalid="ignore"):
        # functional applied to the first leg: e_i -> phi(R(e_i) x)
        w = (xc @ g.q_matrix.T) @ g.antipode
        return g.element((w[..., None, :] @ g.delta(y))[..., 0, :])

"""Convolution of elements on a finite quantum group.

The element convolution is x * y = ((x phi)R . id) Delta(y): pair the first
leg of Delta(y) against the functional z -> phi(R(z) x). With a trivial
scaling group and R = S this is the only twist-free form, and it agrees with
the functional convolution (omega * theta) = (omega . theta) Delta under
omega = x phi, which the tests keep as its reference.

Holding one argument fixed makes the convolution a linear map of the other:
x * y = x K_y = y E_x, with the (n, n) matrices of right_convolution_matrix
and left_convolution_matrix.
"""

from __future__ import annotations

import numpy as np

from .core import AlgebraElement, FiniteQuantumGroup

__all__ = ["convolve", "right_convolution_matrix", "left_convolution_matrix"]


def convolve(g: FiniteQuantumGroup, x, y) -> AlgebraElement:
    """x * y = ((x phi)R . id) Delta(y), batched over the leading axes.
    An infinite coefficient times a zero of a structure tensor gives NaN
    there, silently, as in Blocks.matrices."""
    xc = g.coeffs_of(x)
    with np.errstate(invalid="ignore"):
        # functional applied to the first leg: e_i -> phi(R(e_i) x)
        w = (xc @ g.q_matrix.T) @ g.antipode
        return g.element((w[..., None, :] @ g.delta(y))[..., 0, :])


def right_convolution_matrix(g: FiniteQuantumGroup, y) -> np.ndarray:
    """K_y = Q^T S Delta(y), so that x * y = x @ K_y, batched over the
    leading axes of y: (..., n) -> (..., n, n)."""
    return (g.q_matrix.T @ g.antipode) @ g.delta(y)


def left_convolution_matrix(g: FiniteQuantumGroup, x) -> np.ndarray:
    """E_x[k, j] = sum_i (x Q^T S)_i comult3[i, j, k], so that
    x * y = y @ E_x, batched over the leading axes of x:
    (..., n) -> (..., n, n)."""
    xc = g.coeffs_of(x)
    n = g.dim
    w = (xc @ g.q_matrix.T) @ g.antipode
    return (w @ g.comult3.reshape(n, n * n)).reshape(
        xc.shape[:-1] + (n, n)).swapaxes(-1, -2)

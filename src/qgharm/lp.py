"""Noncommutative L^p norms and the Young / Hausdorff-Young checkers.

Norms are computed in the block picture of the algebra (core.Blocks):
M = (+)_i M_{d_i}, where the star is the matrix adjoint and a tracial weight
is sum_i c_i tr rho_i with c_i = weight(z_i) / d_i. So
||x||_p^p = sum_i c_i tr |rho_i(x)|^p, from the eigenvalues of
rho_i(x)* rho_i(x): sum_i d_i of them, one eigensolve per block of size
d_i > 1 and none for the characters. The eigenvalues serve every exponent,
which keeps the thousand-sample suites fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import convolve
from .core import FiniteQuantumGroup, is_automorphism
from .duality import DualPair, fourier_coeffs
from .errors import QgharmError
from .report import Check, check

__all__ = [
    "conjugate_exponent",
    "young_exponent",
    "WeightedLpSpace",
    "base_space",
    "dual_space",
    "weighted_space",
    "lp_norm",
    "lp_norms_batch",
    "spectral_data",
    "norms_from_spectral",
    "young_sides",
    "hausdorff_young_sides",
    "young_check",
    "hausdorff_young_check",
    "norm_transport_check",
    "holder_check",
]

INF = math.inf
SLACK = 1e-9
_TINY = np.finfo(float).tiny   # the least normal float64


def _as_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise QgharmError(f"exponent {p} is outside [1, inf]")
    return p


def conjugate_exponent(p) -> float:
    """p' with 1/p + 1/p' = 1; 1' = inf and inf' = 1."""
    p = _as_p(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def young_exponent(p, q) -> float:
    """r with 1/r + 1 = 1/p + 1/q; the pair is rejected when no r in [1, inf] exists."""
    p, q = _as_p(p), _as_p(q)
    inv = (0.0 if p == INF else 1.0 / p) + (0.0 if q == INF else 1.0 / q) - 1.0
    if inv < -1e-12 or inv > 1.0 + 1e-12:
        raise QgharmError(f"no Young exponent for (p, q) = ({p}, {q})")
    if inv <= 1e-15:
        return INF
    return 1.0 / inv


@dataclass(eq=False)
class WeightedLpSpace:
    """An algebra with a tracial weight for L^p norms."""

    algebra: FiniteQuantumGroup
    eigen_weights: np.ndarray   # c_i once per eigenvalue of block i


def weighted_space(g: FiniteQuantumGroup, weight) -> WeightedLpSpace:
    """L^p space over g for an arbitrary tracial positive weight vector."""
    w = np.asarray(weight, dtype=complex).reshape(-1)
    if w.shape != (g.dim,):
        raise QgharmError(f"expected {g.dim} weight values, got {w.shape}")
    blocks = g.blocks
    c = blocks.weights(w)
    gap = float(np.max(np.abs(blocks.trace_form(c) - w)))
    if gap > 1e-9 * max(float(np.max(np.abs(w))), 1.0):
        raise QgharmError(f"weight is not tracial: residual {gap:.3e}")
    return WeightedLpSpace(algebra=g, eigen_weights=np.repeat(c, blocks.sizes))


def base_space(g: FiniteQuantumGroup) -> WeightedLpSpace:
    """L^p(G) under the Haar state, whose eigen weights g keeps."""
    return WeightedLpSpace(g, g.haar_eigen_weights)


def dual_space(pair: DualPair) -> WeightedLpSpace:
    """L^p of the dual under the true Plancherel weight (not the state)."""
    return WeightedLpSpace(pair.dual_qg, pair.dual_eigen_weights)


def spectral_data(space: WeightedLpSpace, coeffs: np.ndarray):
    """Eigenvalues of |x|^2 block by block, and their weights.

    coeffs: (..., n). Returns (w, d): w of shape (..., m), m = sum_i d_i,
    holds the eigenvalues of rho_i(x)* rho_i(x) (clamped at 0), block by
    block in block order, and d of shape (m,) the weight c_i of each. Every
    L^p norm of x is then (sum_k w_k^{p/2} d_k)^{1/p}, and the operator norm
    is max_k w_k^{1/2}. Blocks of one size share one batched eigensolve; the
    one-dimensional blocks are characters, so their eigenvalues are
    |chi_i(x)|^2 with no eigensolve.
    """
    w = []
    for m in space.algebra.blocks.matrices(coeffs):
        if m.shape[-1] == 1:
            w.append(np.abs(m[..., 0, 0]) ** 2)
        else:
            eig = np.linalg.eigvalsh(np.conj(m).swapaxes(-1, -2) @ m)
            w.append(eig.reshape(eig.shape[:-2] + (-1,)))
    w = np.concatenate(w, axis=-1)
    w = np.clip(w, 0.0, None)
    # zero out eigenvalue fuzz, w^{p/2} amplifies rounding noise for p < 2;
    # a NaN compares false and stays, so no check passes on it
    scale = np.max(w, axis=-1, keepdims=True)
    w = np.where(w <= 1e-13 * scale, 0.0, w)
    return w, space.eigen_weights


def norms_from_spectral(w: np.ndarray, d: np.ndarray, p) -> np.ndarray:
    """(sum_k w_k^{p/2} d_k)^{1/p} over the last axis of w, the operator
    norm max_k w_k^{1/2} for p = inf. A term that leaves the normal range,
    as w^{p/2} does at large p, sends the batch to _norms_at_large_p."""
    p = _as_p(p)
    if p == INF:
        return np.sqrt(np.max(w, axis=-1))
    try:
        with np.errstate(over="raise", under="raise"):
            vals = _power_sums(w, d, p)
    except FloatingPointError:
        return _norms_at_large_p(w, d, p)
    return np.power(np.clip(vals, 0.0, None), 1.0 / p)


def _power_sums(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    return np.real(np.sum(np.power(w, 0.5 * p) * d, axis=-1))


def _norms_at_large_p(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    """norms_from_spectral where the plain sum overflows or leaves the
    normal range: there the row's largest eigenvalue t is factored out,
    t^{1/2} (sum_k (w_k / t)^{p/2} d_k)^{1/p}. Every other row, and a row of
    zeros or with a NaN or an infinity, keeps the plain value."""
    with np.errstate(over="ignore"):
        vals = _power_sums(w, d, p)
    top = np.max(w, axis=-1)
    fix = ~((vals >= _TINY) & (vals < INF)) & (top > 0) & (top < INF)
    t = np.where(fix, top, 1.0)
    factored = np.sqrt(t) * np.power(_power_sums(w / t[..., None], d, p),
                                     1.0 / p)
    return np.where(fix, factored, np.power(np.clip(vals, 0.0, None), 1.0 / p))


def lp_norm(space: WeightedLpSpace, x, p) -> float:
    """weight(|x|^p)^{1/p}; operator norm for p = inf."""
    coeffs = space.algebra.coeffs_of(x)
    if coeffs.ndim != 1:
        raise QgharmError(
            f"expected {space.algebra.dim} coefficients, got {coeffs.shape}")
    w, d = spectral_data(space, coeffs)
    return float(norms_from_spectral(w, d, p))


def lp_norms_batch(space: WeightedLpSpace, coeffs: np.ndarray, p) -> np.ndarray:
    """L^p norms of a (batch, n) stack of coefficient rows."""
    w, d = spectral_data(space, coeffs)
    return norms_from_spectral(w, d, p)


# ---------------------------------------------------------------------------
# inequality checkers
# ---------------------------------------------------------------------------

def _ratio(lhs, rhs):
    """lhs / rhs; 0 where both are 0, INF where only rhs is."""
    out = np.where(lhs == 0, 0.0, INF)
    return np.divide(lhs, rhs, out=out, where=rhs > 0)


def young_sides(g: FiniteQuantumGroup, x, y, p, q) -> tuple:
    """lhs = ||x * y||_r, rhs = ||x||_p ||y||_q and lhs / rhs, with
    1/r + 1 = 1/p + 1/q, over the leading axes of x and y, (..., n)."""
    r = young_exponent(p, q)
    sp = base_space(g)
    xc, yc = g.coeffs_of(x), g.coeffs_of(y)
    lhs = lp_norms_batch(sp, convolve(g, xc, yc).coeffs, r)
    rhs = lp_norms_batch(sp, xc, p) * lp_norms_batch(sp, yc, q)
    return lhs, rhs, _ratio(lhs, rhs)


def hausdorff_young_sides(pair: DualPair, x, p) -> tuple:
    """lhs = ||F(x)||_{p'} under the dual weight, rhs = ||x||_p and
    lhs / rhs, for p in [1, 2] and x of shape (..., n)."""
    p = _as_p(p)
    if p > 2.0:
        raise QgharmError("Hausdorff-Young needs p in [1, 2]")
    xc = pair.base.coeffs_of(x)
    lhs = lp_norms_batch(dual_space(pair), fourier_coeffs(pair, xc),
                         conjugate_exponent(p))
    rhs = lp_norms_batch(base_space(pair.base), xc, p)
    return lhs, rhs, _ratio(lhs, rhs)


def _bound(name: str, claim: str, sides, **details) -> Check:
    """lhs <= rhs up to the relative SLACK; the residual is the excess of
    lhs / rhs over 1, NaN where the ratio is NaN."""
    lhs, rhs, ratio = (float(v) for v in sides)
    return check(name, claim, {"excess": np.maximum(ratio - 1.0, 0.0)}, SLACK,
                 lhs=lhs, rhs=rhs, ratio=ratio, **details)


def young_check(g: FiniteQuantumGroup, x, y, p, q) -> Check:
    """||x * y||_r <= ||x||_p ||y||_q with 1/r + 1 = 1/p + 1/q."""
    r = young_exponent(p, q)
    return _bound("young-inequality", "convolution-norm-bound",
                  young_sides(g, x, y, p, q), p=float(p), q=float(q), r=r)


def hausdorff_young_check(pair: DualPair, x, p) -> Check:
    """||F(x)||_{p'} <= ||x||_p for p in [1, 2], dual side under the weight."""
    return _bound("hausdorff-young-inequality", "fourier-norm-bound",
                  hausdorff_young_sides(pair, x, p),
                  p=float(p), p_conjugate=conjugate_exponent(p))


def norm_transport_check(g: FiniteQuantumGroup, alpha: np.ndarray, x, p) -> Check:
    """||x||_{p, phi} equals ||alpha(x)||_{p, phi o alpha^{-1}}."""
    if not is_automorphism(g, alpha):
        raise QgharmError("alpha does not preserve the algebra structure")
    alpha = np.asarray(alpha, dtype=complex)
    alpha_inv = np.linalg.inv(alpha)
    moved_weight = g.haar @ alpha_inv
    sp = base_space(g)
    sp_moved = weighted_space(g, moved_weight)
    xc = g.coeffs_of(x)
    lhs = lp_norm(sp, xc, p)
    rhs = lp_norm(sp_moved, alpha @ xc, p)
    return check("norm-transport", "automorphism-invariant-norm",
                 {"relative_gap": abs(lhs - rhs) / max(lhs, 1e-300)}, SLACK,
                 lhs=lhs, rhs=rhs, p=float(p), example=g.name)


def holder_check(g: FiniteQuantumGroup, x, y, p) -> Check:
    """|phi(x* y)| <= ||x||_p ||y||_{p'} sanity bound for the norms."""
    sp = base_space(g)
    pc = conjugate_exponent(p)
    xc, yc = g.coeffs_of(x), g.coeffs_of(y)
    pairing = abs(complex(xc.conj() @ g.gram @ yc))
    bound = lp_norm(sp, xc, p) * lp_norm(sp, yc, pc)
    return _bound("hoelder", "pairing-norm-bound",
                  (pairing, bound, _ratio(pairing, bound)), p=float(p))


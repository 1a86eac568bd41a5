"""Noncommutative L^p norms and the Young / Hausdorff-Young checkers.

Norms are computed in the block picture of the algebra (core.Blocks):
M = (+)_i M_{d_i}, where the star is the matrix adjoint and a tracial weight
is sum_i c_i tr rho_i with c_i = weight(z_i) / d_i. The block maps come
from core._wedderburn: the characters chi_i, the blocks of size 1, in
closed form from the central projections, and only the matrix blocks from
an eigensolve. So
||x||_p^p = sum_i c_i tr |rho_i(x)|^p, from the eigenvalues of
rho_i(x)* rho_i(x), the squared singular values of rho_i(x): d_i of them per
block. They come in closed form for blocks of size 1 (|chi_i(x)|^2) and 2
(from the Frobenius norm and the determinant), which is every block of the
catalog, and from one batched eigensolve over the blocks of each size d >= 3.
Where the blocks of each size sit among the block entries is laid out once
per Blocks. The eigenvalues serve every exponent, which keeps the
thousand-sample suites fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import convolve
from .core import FiniteQuantumGroup, _ratio
from .duality import DualPair, fourier_coeffs
from .errors import QgharmError
from .report import Check, check

__all__ = [
    "conjugate_exponent",
    "young_exponent",
    "WeightedLpSpace",
    "base_space",
    "dual_space",
    "lp_norm",
    "lp_norms_batch",
    "spectral_data",
    "norms_from_spectral",
    "young_sides",
    "hausdorff_young_sides",
    "young_check",
    "hausdorff_young_check",
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


def base_space(g: FiniteQuantumGroup) -> WeightedLpSpace:
    """L^p(G) under the Haar state, whose eigen weights g keeps."""
    return WeightedLpSpace(g, g.haar_eigen_weights)


def dual_space(pair: DualPair) -> WeightedLpSpace:
    """L^p of the dual under the true Plancherel weight (not the state)."""
    return WeightedLpSpace(pair.dual_qg, pair.dual_eigen_weights)


def spectral_data(space: WeightedLpSpace, coeffs: np.ndarray):
    """Eigenvalues of |x|^2 block by block, and their weights.

    coeffs: (..., n). Returns (w, d): w of shape (..., m), m = sum_i d_i,
    holds the eigenvalues of rho_i(x)* rho_i(x), block by block in block
    order, and d of shape (m,) the weight c_i of each. Every L^p norm of x
    is then (sum_k w_k^{p/2} d_k)^{1/p}, and the operator norm is
    max_k w_k^{1/2}. A block with a NaN or an infinity has NaN eigenvalues.

    Blocks of size 1 (characters) give |chi_i(x)|^2, and blocks of size 2
    the closed form of _gram_eigenvalues_2x2, with no eigensolve and no
    floor. Blocks of each size d >= 3 share one batched eigvalsh, whose
    eigenvalues are only good to about eps times the row's largest: a
    singular value below about 1e-8 of the largest comes out as noise, and
    w^{p/2} at p = 1 would carry that noise into the norm. So there, and
    only there, eigenvalues at or below 1e-13 times the row's largest are
    zeroed. The floor follows the row, not the block, because a block that
    is zero in exact arithmetic holds rounding fuzz of the row's scale.
    """
    w, solved_from = [], None
    for m in space.algebra.blocks.matrices(coeffs):
        if m.shape[-1] == 1:
            w.append(np.abs(m[..., 0, 0]) ** 2)
        elif m.shape[-1] == 2:
            w.append(_gram_eigenvalues_2x2(m))
        else:
            if solved_from is None:
                solved_from = sum(v.shape[-1] for v in w)
            mm = np.conj(m).swapaxes(-1, -2) @ m
            try:
                eig = np.linalg.eigvalsh(mm)
            except np.linalg.LinAlgError:
                # LAPACK may refuse a non-finite matrix, and with it the stack
                finite = np.isfinite(mm).all(axis=(-1, -2))
                eig = np.full(mm.shape[:-1], np.nan)
                eig[finite] = np.linalg.eigvalsh(mm[finite])
            w.append(eig.reshape(eig.shape[:-2] + (-1,)).clip(0.0))
    w = w[0] if len(w) == 1 else np.concatenate(w, axis=-1)
    if solved_from is not None:
        # a NaN compares false and stays, so no check passes on it
        solved = w[..., solved_from:]
        solved[solved <= 1e-13 * w.max(axis=-1, keepdims=True)] = 0.0
    return w, space.eigen_weights


def _gram_eigenvalues_2x2(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of m* m for a stack of 2x2 blocks, (..., k, 2, 2) ->
    (..., 2k), the smaller of each block first, with no eigensolve.

    With m* m = [[p, q], [q*, r]], F = p + r = ||m||_F^2 and
    D = |det m|^2, the larger eigenvalue is (F + sqrt(F^2 - 4D)) / 2 and the
    smaller is D over the larger, or 0 for the zero block. F^2 - 4D is
    summed as (p - r)^2 + 4|q|^2, which cancels nothing where the singular
    values meet, and the smaller is |det m| (|det m| / larger), which stays
    in range where D would not. Both singular values are then within a few
    eps ||m||_F of the true ones, the smaller one included.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = m.real ** 2 + m.imag ** 2
        p, r = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
        f = p + r
        q = np.conj(a) * b + np.conj(c) * d
        large = 0.5 * (f + np.hypot(p - r, 2.0 * np.abs(q)))
        det = np.abs(a * d - b * c)
        w = np.empty(f.shape + (2,))
        w[..., 0] = det * np.divide(det, large, out=np.zeros_like(large),
                                    where=large > 0)
        w[..., 1] = large
    # f is not finite exactly when an entry is not (or its square overflows)
    w[~np.isfinite(f)] = np.nan
    return w.reshape(f.shape[:-1] + (-1,))


def norms_from_spectral(w: np.ndarray, d: np.ndarray, p) -> np.ndarray:
    """(sum_k w_k^{p/2} d_k)^{1/p} over the last axis of w, the operator
    norm max_k w_k^{1/2} for p = inf. A term that leaves the normal range,
    as w^{p/2} does at large p, sends the batch to _norms_at_large_p."""
    p = _as_p(p)
    if p == INF:
        return np.sqrt(w.max(axis=-1))
    try:
        with np.errstate(over="raise", under="raise"):
            vals = _power_sums(w, d, p)
    except FloatingPointError:
        return _norms_at_large_p(w, d, p)
    return np.power(vals.clip(0.0), 1.0 / p)


def _power_sums(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    return (np.power(w, 0.5 * p) * d).sum(axis=-1).real


def _norms_at_large_p(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    """norms_from_spectral where the plain sum overflows or leaves the
    normal range: there the row's largest eigenvalue t is factored out,
    t^{1/2} (sum_k (w_k / t)^{p/2} d_k)^{1/p}. Every other row, and a row of
    zeros or with a NaN or an infinity, keeps the plain value."""
    with np.errstate(over="ignore"):
        vals = _power_sums(w, d, p)
    top = w.max(axis=-1)
    fix = ~((vals >= _TINY) & (vals < INF)) & (top > 0) & (top < INF)
    t = np.where(fix, top, 1.0)
    factored = np.sqrt(t) * np.power(_power_sums(w / t[..., None], d, p),
                                     1.0 / p)
    return np.where(fix, factored, np.power(vals.clip(0.0), 1.0 / p))


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
    """lhs <= rhs up to the relative SLACK on the worst sample of the
    leading axis: the first of largest ratio, or the first NaN ratio. The
    residual is the excess of its ratio over 1, and lhs and rhs are its two
    sides; details gain its ratio and sample_index."""
    lhs, rhs, ratio = (np.ravel(v) for v in sides)
    i = int(np.argmax(ratio))   # argmax returns the first NaN
    return check(name, claim, {"excess": np.maximum(ratio[i] - 1.0, 0.0)},
                 SLACK, lhs=float(lhs[i]), rhs=float(rhs[i]),
                 ratio=float(ratio[i]), sample_index=i, **details)


def young_check(g: FiniteQuantumGroup, x, y, p, q) -> Check:
    """||x * y||_r <= ||x||_p ||y||_q with 1/r + 1 = 1/p + 1/q, on the
    worst of the pairs of x and y, (..., n)."""
    r = young_exponent(p, q)
    return _bound("young-inequality", "convolution-norm-bound",
                  young_sides(g, x, y, p, q), p=float(p), q=float(q), r=r)


def hausdorff_young_check(pair: DualPair, x, p) -> Check:
    """||F(x)||_{p'} <= ||x||_p for p in [1, 2], dual side under the weight,
    on the worst of the samples of x, (..., n)."""
    return _bound("hausdorff-young-inequality", "fourier-norm-bound",
                  hausdorff_young_sides(pair, x, p),
                  p=float(p), p_conjugate=conjugate_exponent(p))

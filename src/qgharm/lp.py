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
from typing import Optional

import numpy as np

from .convolution import convolve
from .core import FiniteQuantumGroup, is_automorphism
from .duality import DualPair, fourier_coeffs
from .errors import BadExponents, NotAutomorphism, NotTracial, ShapeMismatch
from .report import CheckReport

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
    "YoungReport",
    "young_check",
    "young_l1_lp_check",
    "hausdorff_young_check",
    "norm_transport_check",
    "holder_check",
    "functional_norm_submultiplicativity_check",
]

INF = math.inf


def _as_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise BadExponents(f"exponent {p} is outside [1, inf]")
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
        raise BadExponents(f"no Young exponent for (p, q) = ({p}, {q})")
    if inv <= 1e-15:
        return INF
    return 1.0 / inv


@dataclass(eq=False)
class WeightedLpSpace:
    """An algebra with a tracial weight for L^p norms."""

    algebra: FiniteQuantumGroup
    weight: np.ndarray
    owner: str
    eigen_weights: np.ndarray   # c_i once per eigenvalue of block i
    tracial: bool

    @property
    def is_state(self) -> bool:
        val = complex(self.weight @ self.algebra.unit)
        return abs(val - 1.0) <= 1e-9


def weighted_space(g: FiniteQuantumGroup, weight, owner: str = "base") -> WeightedLpSpace:
    """L^p space over g for an arbitrary tracial positive weight vector."""
    w = np.asarray(weight, dtype=complex).reshape(-1)
    if w.shape != (g.dim,):
        raise ShapeMismatch(f"expected {g.dim} weight values, got {w.shape}")
    blocks = g.blocks
    c = blocks.weights(w)
    gap = float(np.max(np.abs(blocks.trace_form(c) - w)))
    if gap > 1e-9 * max(float(np.max(np.abs(w))), 1.0):
        raise NotTracial(f"weight is not tracial: residual {gap:.3e}")
    return WeightedLpSpace(algebra=g, weight=w, owner=owner,
                           eigen_weights=np.repeat(c, blocks.sizes),
                           tracial=True)


def base_space(g: FiniteQuantumGroup) -> WeightedLpSpace:
    """L^p(G) under the Haar state."""
    return weighted_space(g, g.haar, owner="base")


def dual_space(pair: DualPair) -> WeightedLpSpace:
    """L^p of the dual under the true Plancherel weight (not the state)."""
    return weighted_space(pair.dual_qg, pair.dual_weight, owner="dual")


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
    # zero out eigenvalue fuzz: w^{p/2} amplifies rounding noise for p < 2
    scale = np.max(w, axis=-1, keepdims=True)
    w = np.where(w > 1e-13 * scale, w, 0.0)
    return w, space.eigen_weights


def norms_from_spectral(w: np.ndarray, d: np.ndarray, p) -> np.ndarray:
    p = _as_p(p)
    if p == INF:
        return np.sqrt(np.max(w, axis=-1))
    vals = np.sum(np.power(w, 0.5 * p) * d, axis=-1)
    return np.power(np.clip(np.real(vals), 0.0, None), 1.0 / p)


def lp_norm(space: WeightedLpSpace, x, p) -> float:
    """weight(|x|^p)^{1/p}; operator norm for p = inf."""
    if not space.tracial:
        raise NotTracial("norm formula needs a tracial weight")
    coeffs = space.algebra.coeffs_of(x)
    if coeffs.ndim != 1:
        raise ShapeMismatch(
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

@dataclass(frozen=True)
class YoungReport:
    p: float
    q: float
    r: float
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    slack: float = 1e-9

    def __str__(self) -> str:
        word = "ok" if self.holds else "VIOLATED"
        return (f"young p={self.p} q={self.q} r={self.r}: "
                f"{self.lhs:.6e} <= {self.rhs:.6e} ({word})")


def young_check(g: FiniteQuantumGroup, x, y, p, q,
                space: Optional[WeightedLpSpace] = None,
                slack: float = 1e-9) -> YoungReport:
    """||x * y||_r <= ||x||_p ||y||_q with 1/r + 1 = 1/p + 1/q."""
    r = young_exponent(p, q)
    sp = space if space is not None else base_space(g)
    conv = convolve(g, x, y)
    lhs = lp_norm(sp, conv, r)
    rhs = lp_norm(sp, x, p) * lp_norm(sp, y, q)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else INF)
    return YoungReport(p=float(p), q=float(q), r=float(r), lhs=lhs, rhs=rhs,
                       ratio=ratio, holds=lhs <= rhs * (1.0 + slack),
                       slack=slack)


def young_l1_lp_check(g: FiniteQuantumGroup, x, y, p,
                      space: Optional[WeightedLpSpace] = None,
                      slack: float = 1e-9) -> YoungReport:
    """||x * y||_p <= ||x||_1 ||y||_p, the q = 1 endpoint including p = inf."""
    p = _as_p(p)
    sp = space if space is not None else base_space(g)
    conv = convolve(g, x, y)
    lhs = lp_norm(sp, conv, p)
    rhs = lp_norm(sp, x, 1.0) * lp_norm(sp, y, p)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else INF)
    return YoungReport(p=1.0, q=p, r=p, lhs=lhs, rhs=rhs, ratio=ratio,
                       holds=lhs <= rhs * (1.0 + slack), slack=slack)


def hausdorff_young_check(pair: DualPair, x, p,
                          base_sp: Optional[WeightedLpSpace] = None,
                          dual_sp: Optional[WeightedLpSpace] = None,
                          slack: float = 1e-9) -> YoungReport:
    """||F(x)||_{p'} <= ||x||_p for p in [1, 2], dual side under the weight."""
    p = _as_p(p)
    if p > 2.0:
        raise BadExponents("Hausdorff-Young needs p in [1, 2]")
    pc = conjugate_exponent(p)
    bsp = base_sp if base_sp is not None else base_space(pair.base)
    dsp = dual_sp if dual_sp is not None else dual_space(pair)
    lhs = lp_norm(dsp, fourier_coeffs(pair, x), pc)
    rhs = lp_norm(bsp, x, p)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else INF)
    return YoungReport(p=p, q=pc, r=pc, lhs=lhs, rhs=rhs, ratio=ratio,
                       holds=lhs <= rhs * (1.0 + slack), slack=slack)


def norm_transport_check(g: FiniteQuantumGroup, alpha: np.ndarray, x, p,
                         tol: float = 1e-9) -> CheckReport:
    """||x||_{p, phi} equals ||alpha(x)||_{p, phi o alpha^{-1}}."""
    if not is_automorphism(g, alpha):
        raise NotAutomorphism("alpha does not preserve the algebra structure")
    alpha = np.asarray(alpha, dtype=complex)
    alpha_inv = np.linalg.inv(alpha)
    moved_weight = g.haar @ alpha_inv
    sp = base_space(g)
    sp_moved = weighted_space(g, moved_weight, owner="base")
    xc = g.coeffs_of(x)
    lhs = lp_norm(sp, xc, p)
    rhs = lp_norm(sp_moved, alpha @ xc, p)
    gap = abs(lhs - rhs) / max(lhs, 1e-300)
    return CheckReport(
        name="norm-transport",
        passed=gap <= tol,
        max_residual=gap,
        tol=tol,
        details={"p": float(p), "lhs": lhs, "rhs": rhs, "example": g.name},
    )


def holder_check(g: FiniteQuantumGroup, x, y, p,
                 space: Optional[WeightedLpSpace] = None,
                 slack: float = 1e-9) -> CheckReport:
    """|phi(x* y)| <= ||x||_p ||y||_{p'} sanity bound for the norms."""
    sp = space if space is not None else base_space(g)
    pc = conjugate_exponent(p)
    xc, yc = g.coeffs_of(x), g.coeffs_of(y)
    pairing = abs(complex(xc.conj() @ g.gram @ yc))
    bound = lp_norm(sp, xc, p) * lp_norm(sp, yc, pc)
    ok = pairing <= bound * (1.0 + slack)
    excess = 0.0 if bound == 0 else max(0.0, pairing / bound - 1.0)
    return CheckReport(name="hoelder", passed=ok, max_residual=excess,
                       tol=slack, details={"p": float(p)})


def functional_norm_submultiplicativity_check(
        g: FiniteQuantumGroup, x, y, slack: float = 1e-9) -> CheckReport:
    """||omega * theta|| <= ||omega|| ||theta|| for omega = x phi, theta = y phi,
    with the functional norm computed as the L^1 norm of the density."""
    sp = base_space(g)
    conv = convolve(g, x, y)
    lhs = lp_norm(sp, conv, 1.0)
    rhs = lp_norm(sp, x, 1.0) * lp_norm(sp, y, 1.0)
    ok = lhs <= rhs * (1.0 + slack)
    excess = 0.0 if rhs == 0 else max(0.0, lhs / rhs - 1.0)
    return CheckReport(name="functional-norm-submultiplicative", passed=ok,
                       max_residual=excess, tol=slack, details={})

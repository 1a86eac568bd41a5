"""Dual quantum group in closed form, multiplicative unitary, and Fourier
transforms.

The GNS space is the coefficient space with the Gram inner product
<x, y> = x^dagger G y, so the embedding of the algebra into its Hilbert
space is the identity on coefficients. For a finite-dimensional Kac algebra
the dual is core.transposed of the base, the linear dual with its structure
tensors transposed. The dual basis operators are B_s = F(Q^{-1} e_s), and
the dual Haar weight is the Haar integral h = Q^{-1} epsilon. The
multiplicative unitary W, defined through W*(a . b) = Delta(b)(a . 1), is
formed only on demand, as the certificate behind the pentagon and
comultiplication-conjugation checks. The Fourier transform at every
exponent is the same linear map x -> sum_s (Qx)_s B_s; only the norms
differ by exponent.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convolution import convolve
from .core import (AlgebraElement, FiniteQuantumGroup, _accept, _maxabs,
                   _on_two_legs, _real_if_exact, transposed)
from .errors import QgharmError
from .report import Check, check

__all__ = [
    "DualPair",
    "build_dual",
    "fourier",
    "fourier_coeffs",
    "dual_matrix",
    "dual_fourier",
    "pentagon_residual",
    "comult_conjugation_residual",
    "plancherel_check",
    "convolution_theorem_check",
    "biduality_check",
]

DUAL_TOL = 1e-8
FOURIER_TOL = 1e-9
PLANCHEREL_SAMPLES = 100


@dataclass(eq=False)
class DualPair:
    """The base quantum group with its dual and multiplicative unitary.

    dual_basis[s] is the operator B_s on the GNS space; dual_weight[s] is the
    true Plancherel weight of B_s and dual_weight_total its value at the
    dual unit. The dual_qg carries the normalized state so the axiom
    verifier applies. w is the multiplicative unitary on the twofold GNS
    space and w_star its inverse; both are formed from the base on first
    use. The pairs of build_dual share their arrays, which are read-only.
    """

    base: FiniteQuantumGroup
    dual_basis: np.ndarray
    dual_qg: FiniteQuantumGroup
    dual_weight: np.ndarray
    dual_weight_total: float

    @cached_property
    def w_star(self) -> np.ndarray:
        """W* from W*(a . b) = Delta(b)(a . 1) on basis pairs."""
        g = self.base
        n = g.dim
        return np.tensordot(_real_if_exact(g.comult3), _real_if_exact(g.mult),
                            axes=([0], [0])).transpose(3, 0, 2, 1).reshape(
                                n * n, n * n)

    @cached_property
    def w(self) -> np.ndarray:
        """W as the adjoint of W* under the doubled Gram form; gated on
        Gram unitarity, which makes the adjoint the inverse. W and W* are
        float64 exactly when the comult, mult and Gram tensors have no
        nonzero imaginary part, as on the catalog, so the certificates run
        in real arithmetic there; core._axiom_residuals says why the
        stored tensors stay complex."""
        gram = _real_if_exact(self.base.gram)
        gg = np.kron(gram, gram)
        adj = self.w_star.conj().T @ gg
        iso = adj @ self.w_star - gg
        if _maxabs(iso) > 1e-9 * max(_maxabs(gg), 1.0):
            raise QgharmError(f"W fails Gram unitarity by {_maxabs(iso):.3e}")
        return np.linalg.solve(gg, adj)

    @cached_property
    def dual_q_matrix(self) -> np.ndarray:
        """Qhat[s, t] = phihat(B_s B_t) under the true Plancherel weight,
        which is Delta(h)."""
        return self.base.delta(self.dual_weight)

    @cached_property
    def dual_gram_weight(self) -> np.ndarray:
        """Ghat[s, t] = phihat(B_s* B_t) under the true Plancherel weight."""
        return self.dual_qg.star.T @ self.dual_q_matrix

    @cached_property
    def dual_eigen_weights(self) -> np.ndarray:
        """The dual weight's c_i once per eigenvalue, for lp.dual_space."""
        blocks = self.dual_qg.blocks
        return np.repeat(blocks.weights(self.dual_weight), blocks.sizes)


def pentagon_residual(pair: DualPair) -> float:
    """Max-abs residual of W12 W13 W23 = W23 W12 on the threefold GNS space.
    With W4[a, b, A, B] = W[(a, b), (A, B)], at [(a, b, c), (A, B, C)]:
    W23 W12 = sum_x W4[b, c, x, C] W4[a, x, A, B] and W13 W23 =
    sum_y W4[a, c, A, y] W4[b, y, B, C], which W12 then multiplies. Each
    side is formed one column leg C at a time, which W12 does not touch.
    It reads only pair.w, so it runs in real arithmetic when W is real."""
    n = pair.base.dim
    w4 = pair.w.reshape(n, n, n, n)
    worst = 0.0
    for col in range(n):
        rhs = np.tensordot(w4[..., col], w4, axes=([2], [1]))
        mid = np.tensordot(w4, w4[..., col], axes=([3], [1]))
        lhs = pair.w @ mid.transpose(0, 3, 1, 2, 4).reshape(n * n, -1)
        worst = max(worst, _maxabs(lhs.reshape(mid.shape)
                                   - rhs.transpose(2, 0, 1, 3, 4)))
    return worst


def comult_conjugation_residual(pair: DualPair) -> float:
    """Max-abs residual of Delta(x) = W*(1 . x)W over the operator basis."""
    g = pair.base
    n = g.dim
    lreg = _real_if_exact(g.left_regular)
    w3 = pair.w.reshape(n, n, n * n)
    lhs = pair.w_star @ (lreg[:, None] @ w3).reshape(n, n * n, n * n)
    # [k, a, b, c, d] = sum_{i, j} comult3[i, j, k] L_i[a, b] L_j[c, d]
    rhs = np.tensordot(np.tensordot(_real_if_exact(g.comult3), lreg,
                                    axes=([0], [0])), lreg, axes=([0], [0]))
    rhs = rhs.transpose(0, 1, 3, 2, 4).reshape(n, n * n, n * n)
    return _maxabs(lhs - rhs)


def build_dual(g: FiniteQuantumGroup) -> DualPair:
    """Dual quantum group, dual basis and dual weight in closed form.

    Gates: the base axioms at 1e-10, a positive dual weight total, the dual
    axioms at DUAL_TOL, and Plancherel Q^dagger Ghat Q = G at DUAL_TOL.
    Built once per group: g keeps the pair without its base and a weak
    reference to the pair, so g is in no reference cycle, and the pair is
    the same while a caller holds it. A build that raises is not kept.
    """
    template, ref = vars(g).get("_dual", (None, None))
    pair = ref and ref()
    if pair is None:
        pair = replace(template, base=g) if template else _build_dual(g)
        vars(g)["_dual"] = (template or replace(pair, base=None),
                             weakref.ref(pair))
    return pair


def _build_dual(g: FiniteQuantumGroup) -> DualPair:
    _accept(g, 1e-10, "base")
    n = g.dim
    weight = np.linalg.solve(g.q_matrix, g.counit)
    total = complex(g.counit @ weight)
    if abs(total.imag) > 1e-9 or total.real <= 0:
        raise QgharmError(f"dual weight total {total} not positive")
    total = float(total.real)

    dual_qg = transposed(g, weight / total, (g.name or "base") + "-dual")
    _accept(dual_qg, DUAL_TOL, "dual")

    pair = DualPair(
        base=g,
        dual_basis=(g.antipode @ g.comult3.reshape(n, n * n)).reshape(n, n, n),
        dual_qg=dual_qg,
        dual_weight=weight,
        dual_weight_total=total,
    )
    pair.dual_basis.flags.writeable = pair.dual_weight.flags.writeable = False
    q = g.q_matrix
    presid = _maxabs(q.conj().T @ pair.dual_gram_weight @ q - g.gram)
    if presid > DUAL_TOL * max(_maxabs(g.gram), 1.0):
        raise QgharmError(f"Plancherel identity fails by {presid:.3e}")
    return pair


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

def fourier_coeffs(pair: DualPair, x) -> np.ndarray:
    """Coefficients of F(x) over the dual basis: (Qx)_s, batched over the
    leading axes."""
    return pair.base.coeffs_of(x) @ pair.base.q_matrix.T


def fourier(pair: DualPair, x) -> np.ndarray:
    """F(x) = lambda(x phi) as a matrix on the GNS space."""
    return dual_matrix(pair, fourier_coeffs(pair, x))


def dual_matrix(pair: DualPair, coeffs) -> np.ndarray:
    """Matrix of a dual element given by coefficients over the dual basis,
    batched over the leading axes."""
    c = np.asarray(coeffs, dtype=complex)
    n = pair.base.dim
    return (c @ pair.dual_basis.reshape(n, n * n)).reshape(c.shape[:-1] + (n, n))


def dual_fourier(pair: DualPair, coeffs) -> AlgebraElement:
    """Inverse-direction transform: Fhat_1 applied to the dual element X
    with coefficients c over the dual basis.

    The functional X phihat is s -> phihat(B_s X) = (Qhat c)_s, and the
    first legs of What carry it to S Qhat c. Since Qhat Q = S and S^2 = 1,
    this inverts F.
    """
    c = pair.dual_qg.coeffs_of(coeffs)
    return pair.base.element(pair.base.antipode @ pair.dual_q_matrix @ c)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def lp2_norm_base(g: FiniteQuantumGroup, x) -> np.ndarray:
    """L^2 norm under the Haar state, phi(x* x)^(1/2), batched over the
    leading axes."""
    return _gram_norm(g.coeffs_of(x), g.gram)


def lp2_norm_dual(pair: DualPair, coeffs) -> np.ndarray:
    """L^2 norm of a dual element under the true Plancherel weight, batched
    over the leading axes of its dual-basis coefficients."""
    return _gram_norm(pair.dual_qg.coeffs_of(coeffs), pair.dual_gram_weight)


def _gram_norm(c: np.ndarray, gram: np.ndarray) -> np.ndarray:
    val = np.sum((c.conj() @ gram) * c, axis=-1)
    return np.sqrt(np.maximum(val.real, 0.0))


def plancherel_check(pair: DualPair, seed: int = 42) -> Check:
    """||F(x)||_{2, dual weight} = ||x||_{2, phi} on seeded random elements."""
    g = pair.base
    draws = np.random.default_rng(seed).standard_normal(
        (PLANCHEREL_SAMPLES, 2, g.dim))
    x = draws[:, 0] + 1j * draws[:, 1]
    rhs = lp2_norm_base(g, x)
    gaps = np.abs(lp2_norm_dual(pair, fourier_coeffs(pair, x)) - rhs)
    worst = np.max(gaps / np.maximum(rhs, 1e-300), initial=0.0)
    return check("plancherel", "fourier-isometry", {"relative_gap": worst},
                 FOURIER_TOL, samples=PLANCHEREL_SAMPLES, seed=seed,
                 example=g.name)


def convolution_theorem_check(pair: DualPair, x, y) -> Check:
    """F(x * y) = F(x) F(y), measured in max-abs on the dual coefficients."""
    g = pair.base
    conv = convolve(g, x, y)
    lhs = fourier(pair, conv)
    rhs = fourier(pair, x) @ fourier(pair, y)
    scale = max(_maxabs(rhs), 1.0)
    return check("convolution-theorem", "fourier-multiplicative",
                 {"relative_gap": _maxabs(lhs - rhs) / scale}, FOURIER_TOL,
                 example=g.name)


def biduality_check(g: FiniteQuantumGroup) -> Check:
    """dual(dual(G)) matches G after the canonical GNS identification.

    The identification sends the dual-coefficient GNS vector of lambda(x phi)
    to Lambda(x); pulled back to base coefficients it is the antipode T = S,
    which must intertwine every structure tensor.
    """
    bid = build_dual(build_dual(g).dual_qg).dual_qg
    t = g.antipode
    res = {}
    res["mult"] = _maxabs(bid.mult @ t.T - _on_two_legs(t.T, g.mult))
    res["comult"] = _maxabs(_on_two_legs(t, bid.comult3) - g.comult3 @ t)
    res["unit"] = _maxabs(t @ bid.unit - g.unit)
    res["counit"] = _maxabs(bid.counit - g.counit @ t)
    res["antipode"] = _maxabs(t @ bid.antipode - g.antipode @ t)
    res["star"] = _maxabs(t @ bid.star - g.star @ np.conj(t))
    res["haar"] = _maxabs(bid.haar - g.haar @ t)
    return check("biduality", "double-dual-identification", res, DUAL_TOL,
                 example=g.name)

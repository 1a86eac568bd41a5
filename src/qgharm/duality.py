"""Dual quantum group in closed form, multiplicative unitary, and Fourier
transforms.

The GNS space is the coefficient space with the Gram inner product
<x, y> = x^dagger G y, so the embedding of the algebra into its Hilbert
space is the identity on coefficients. For a finite-dimensional Kac algebra
the dual is core.transposed of the base, the linear dual with its structure
tensors transposed, over the operators B_s = F(Q^{-1} e_s); the dual Haar
weight is the Haar integral h = Q^{-1} epsilon. The Fourier transform has
one picture at every exponent, its coefficients (Qx)_s over the B_s:
products, adjoints, blocks and norms of F(x) are those of the dual algebra,
and no operator matrix of F(x) is formed.

The multiplicative unitary is W = sum_s L_s . B_s, L_s the left regular
representation (Baaj-Skandalis: W lies in A . Ahat), with W*(a . b) =
Delta(b)(a . 1). Neither W nor W* is formed: the certificates check five
premises on the structure tensors. (0) (id . phi)(Delta(e_j)* Delta(e_k)) =
G[j, k] 1 for all j, k; as phi is faithful, this is W*^H (G . G) W* = G . G.
(1) sum_s Delta(B_s e_j)(e_s . 1) = 1 . e_j for all j; W*W(a . b) is that
sum at b times (a . 1), so this is W*W = 1, and with (0) W is unitary.
(2) L_a L_b = sum_k mult[a, b, k] L_k, (3) B_b B_c = sum_r comult3[b, c, r]
B_r and (4) sum_{a, c} C[a, c, k, r] B_a L_c = L_r B_k, where C[a, c, k, r]
= sum_b mult[a, b, k] comult3[b, c, r] (Kashaev's Heisenberg-double
relation). By (2)-(3) both sides of the pentagon W12 W13 W23 = W23 W12 are
sums of L_k . X . B_r, and by (2) those of W Delta(e_k) = (1 . L_k) W sums
of L_m . X, with the sides of (4) as the X: so (4) gives both, and (1)
turns the second into Delta(x) = W*(1 . x)W. The L_k and B_r are
independent, so the pentagon also gives (4). (0) and (1) are n^5 work and
(2)-(4) n^6, real where the tensors are: one call takes 0.15, 1.6-1.8 and
13 ms at n = 8, 16 and 24 on one BLAS thread.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (AlgebraElement, FiniteQuantumGroup, _accept, _maxabs,
                   _on_two_legs, _real_if_exact, transposed)
from .errors import QgharmError
from .report import Check, check

__all__ = ["DualPair", "build_dual", "fourier_coeffs", "dual_fourier",
           "pentagon_residual", "plancherel_check", "biduality_check"]

DUAL_TOL = 1e-8
FOURIER_TOL = 1e-9
PLANCHEREL_SAMPLES = 100


@dataclass(eq=False)
class DualPair:
    """The base quantum group with its dual.

    dual_weight[s] is the true Plancherel weight of the dual basis operator
    B_s and dual_weight_total its value at the dual unit. The dual_qg
    carries the normalized state so the axiom verifier applies. The
    multiplicative unitary W = sum_s L_s . B_s is never formed: premises
    (0)-(4) of the module docstring certify it on the base tensors. The
    pairs of build_dual share their arrays, which are read-only.
    """

    base: FiniteQuantumGroup
    dual_qg: FiniteQuantumGroup
    dual_weight: np.ndarray
    dual_weight_total: float

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
    """The pentagon and Delta(x) = W*(1 . x)W: the largest premise residual
    of the module docstring."""
    return max(_premises(*_factors(pair.base)))


def _factors(g: FiniteQuantumGroup) -> tuple:
    """mult and comult3 as (n^2, n) matrices, L_s = g.left_regular[s] and
    B_s = sum_k S[s, k] comult3[k] as (n, n, n) stacks, C as an (n^2, n^2)
    matrix [(a, c), (r, k)], then star, G and unit; each float64 when the
    tensors it is made of are real."""
    n = g.dim
    mult, comult3, s, star, gram, unit = map(_real_if_exact, (
        g.mult, g.comult3, g.antipode, g.star, g.gram, g.unit))
    lreg = np.ascontiguousarray(mult.transpose(0, 2, 1))
    legs = (s @ comult3.reshape(n, n * n)).reshape(n, n, n)
    coef = (lreg.reshape(n * n, n) @ comult3.reshape(n, n * n)).reshape(
        n, n, n, n).transpose(0, 2, 3, 1).reshape(n * n, n * n)
    return (mult.reshape(n * n, n), comult3.reshape(n * n, n), lreg, legs,
            coef, star, gram, unit)


def _premises(mult, comult3, lreg, legs, coef, star, gram, unit) -> tuple:
    """Max-abs residuals of premises (0)-(4) of the module docstring on the
    given factors; (0) and (1) are two n^5 contractions each."""
    n = len(lreg)
    c3, m3 = comult3.reshape(n, n, n), mult.reshape(n, n, n)

    def products(x, y):
        # [(a, b), (i, j)] = (x_a y_b)[i, j]
        return (x[:, None] @ y[None]).reshape(n * n, n * n)

    # [a, j, a', k] = sum_{b, b'} conj(c3[a, b, j]) G[b, b'] c3[a', b', k],
    # times the coefficients [a, a', c] of e_a* e_a'
    pairs = np.tensordot(c3.conj(), np.tensordot(gram, c3, axes=([1], [1])),
                         axes=([1], [0]))
    adjoint_products = (star.T @ mult.reshape(n, -1)).reshape(n, n, n)
    isometry = np.tensordot(pairs, adjoint_products, axes=([0, 2], [0, 1]))
    # [j, b, c] = sum_{s, i, a} B_s[i, j] c3[a, b, i] mult[a, s, c]
    inverse = np.tensordot(np.tensordot(legs, c3, axes=([1], [2])), m3,
                           axes=([0, 2], [1, 0]))
    return (_maxabs(isometry - gram[..., None] * unit),
            _maxabs(inverse - np.eye(n)[..., None] * unit),
            _maxabs(products(lreg, lreg) - mult @ lreg.reshape(n, -1)),
            _maxabs(products(legs, legs) - comult3 @ legs.reshape(n, -1)),
            _maxabs(coef.T @ products(legs, lreg) - products(lreg, legs)))


def build_dual(g: FiniteQuantumGroup) -> DualPair:
    """Dual quantum group, dual basis and dual weight in closed form.

    Gates:
    - the base axioms at 1e-10;
    - a positive dual weight total;
    - the dual axioms at DUAL_TOL. The dual is core.transposed of the
      checked base, so it takes associativity, unit, coassociativity,
      counit, Delta's homomorphism law and S^2 = 1 from the base's
      residuals (coassociativity, counit, associativity, unit, the same
      law re-indexed, and (S^2)^T = 1). It evaluates on its own tensors the
      star laws, Haar invariance and normalisation, the Gram matrix's
      hermiticity, positivity and faithfulness, traciality, delta_unital
      (the multiplicativity of the base's counit) and the antipode law
      (the base's for S^-1 and the opposite coproduct);
    - Plancherel Q^dagger Ghat Q = G at DUAL_TOL.

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
    weight = np.linalg.solve(g.q_matrix, g.counit)
    total = complex(g.counit @ weight)
    if abs(total.imag) > 1e-9 or total.real <= 0:
        raise QgharmError(f"dual weight total {total} not positive")
    total = float(total.real)

    dual_qg = transposed(g, weight / total, (g.name or "base") + "-dual")
    _accept(dual_qg, DUAL_TOL, "dual")

    pair = DualPair(base=g, dual_qg=dual_qg, dual_weight=weight,
                    dual_weight_total=total)
    pair.dual_weight.flags.writeable = False
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
    leading axes. An infinite coefficient times a zero of Q gives NaN
    there, silently, as in Blocks.matrices."""
    with np.errstate(invalid="ignore"):
        return pair.base.coeffs_of(x) @ pair.base.q_matrix.T


def dual_fourier(pair: DualPair, coeffs) -> AlgebraElement:
    """Inverse-direction transform: Fhat_1 applied to the dual element X
    with coefficients c over the dual basis, batched over the leading axes.

    The functional X phihat is s -> phihat(B_s X) = (Qhat c)_s, and the
    first legs of What carry it to S Qhat c. Since Qhat Q = S and S^2 = 1,
    this inverts F.
    """
    c = pair.dual_qg.coeffs_of(coeffs)
    return pair.base.element(
        (pair.base.antipode @ pair.dual_q_matrix @ c[..., None])[..., 0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _gram_norm(c: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """(c^dagger gram c)^(1/2), batched over the leading axes of c."""
    val = np.sum((c.conj() @ gram) * c, axis=-1)
    return np.sqrt(np.maximum(val.real, 0.0))


def plancherel_check(pair: DualPair, seed: int = 42) -> Check:
    """||F(x)||_{2, dual weight} = ||x||_{2, phi} on seeded random elements."""
    g = pair.base
    draws = np.random.default_rng(seed).standard_normal(
        (PLANCHEREL_SAMPLES, 2, g.dim))
    x = draws[:, 0] + 1j * draws[:, 1]
    rhs = _gram_norm(x, g.gram)
    gaps = np.abs(_gram_norm(fourier_coeffs(pair, x), pair.dual_gram_weight)
                  - rhs)
    worst = np.max(gaps / np.maximum(rhs, 1e-300), initial=0.0)
    return check("plancherel", "fourier-isometry", {"relative_gap": worst},
                 FOURIER_TOL, samples=PLANCHEREL_SAMPLES, seed=seed,
                 example=g.name)


def biduality_check(g: FiniteQuantumGroup) -> Check:
    """dual(dual(G)) matches G after the canonical GNS identification.

    The identification sends the dual-coefficient GNS vector of lambda(x phi)
    to Lambda(x); pulled back to base coefficients it is the antipode T = S,
    which must intertwine every structure tensor.

    The double dual is the dual put through core.transposed once more: the
    base with opposite product and coproduct. Its axiom gate, inside
    build_dual, takes the laws the dual took from the base from the dual's
    residuals (each the base's law, re-indexed twice), and evaluates the
    others on its own tensors as the dual does.
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

"""Dual quantum group in closed form, multiplicative unitary, and Fourier
transforms.

The GNS space is the coefficient space with the Gram inner product
<x, y> = x^dagger G y, so the embedding of the algebra into its Hilbert
space is the identity on coefficients. For a finite-dimensional Kac algebra
the dual is the linear dual of the base with its structure tensors
transposed: the dual product is the base coproduct, the dual coproduct the
flipped base product, unit and counit swap, and the dual antipode is the
transposed antipode. The dual basis operators are B_s = F(Q^{-1} e_s), and
the dual Haar weight is the Haar integral h = Q^{-1} epsilon. The
multiplicative unitary W, defined through W*(a . b) = Delta(b)(a . 1), is
formed only on demand, as the certificate behind the pentagon and
comultiplication-conjugation checks. The Fourier transform at every
exponent is the same linear map x -> sum_s (Qx)_s B_s; only the norms
differ by exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convolution import convolve
from .core import AlgebraElement, FiniteQuantumGroup, _maxabs, verify_axioms
from .errors import (
    AxiomFailure,
    DegenerateDual,
    NotInDual,
    NotUnitary,
    PlancherelInconsistent,
    ShapeMismatch,
)
from .report import CheckReport

__all__ = [
    "DualPair",
    "build_dual",
    "fourier",
    "fourier_coeffs",
    "to_dual_coeffs",
    "dual_matrix",
    "dual_fourier",
    "pentagon_residual",
    "comult_conjugation_residual",
    "plancherel_check",
    "convolution_theorem_check",
    "biduality_check",
    "element_to_json",
    "element_from_json",
]


@dataclass(eq=False)
class DualPair:
    """The base quantum group with its dual and multiplicative unitary.

    dual_basis[s] is the operator B_s on the GNS space; dual_weight[s] is the
    true Plancherel weight of B_s and dual_weight_total its value at the
    dual unit. The dual_qg carries the normalized state so the axiom
    verifier applies. w is the multiplicative unitary on the twofold GNS
    space and w_star its inverse; both are formed from the base on first
    use.
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
        return np.einsum("stb,sau->utab", g.comult3, g.mult,
                         optimize=True).reshape(n * n, n * n)

    @cached_property
    def w(self) -> np.ndarray:
        """W as the adjoint of W* under the doubled Gram form; gated on
        Gram unitarity, which makes the adjoint the inverse."""
        gg = np.kron(self.base.gram, self.base.gram)
        adj = self.w_star.conj().T @ gg
        iso = adj @ self.w_star - gg
        if _maxabs(iso) > 1e-9 * max(_maxabs(gg), 1.0):
            raise NotUnitary(f"W fails Gram unitarity by {_maxabs(iso):.3e}")
        return np.linalg.solve(gg, adj)

    @cached_property
    def dual_columns(self) -> np.ndarray:
        """(n^2, n) matrix whose column s is vec(dual_basis[s])."""
        n = self.base.dim
        return self.dual_basis.reshape(n, n * n).T

    @cached_property
    def dual_q_matrix(self) -> np.ndarray:
        """Qhat[s, t] = phihat(B_s B_t) under the true Plancherel weight,
        which is Delta(h)."""
        return self.base.delta(self.dual_weight)

    @cached_property
    def dual_gram_weight(self) -> np.ndarray:
        """Ghat[s, t] = phihat(B_s* B_t) under the true Plancherel weight."""
        return self.dual_qg.star.T @ self.dual_q_matrix


def _legs(w: np.ndarray, x: np.ndarray, legs: tuple) -> np.ndarray:
    """Apply w to two tensor legs of x, a (n, n, n, m) block of columns."""
    n = x.shape[0]
    rest = 3 - sum(legs)
    order = (*legs, rest, 3)
    y = (w @ x.transpose(order).reshape(n * n, -1)).reshape(x.shape)
    return y.transpose(np.argsort(order))


def pentagon_residual(pair: DualPair) -> float:
    """Max-abs residual of W12 W13 W23 = W23 W12 on the threefold GNS space."""
    n = pair.base.dim
    w = pair.w
    eye = np.eye(n ** 3).reshape(n, n, n, n ** 3)
    lhs = _legs(w, _legs(w, _legs(w, eye, (1, 2)), (0, 2)), (0, 1))
    rhs = _legs(w, _legs(w, eye, (0, 1)), (1, 2))
    return _maxabs(lhs - rhs)


def comult_conjugation_residual(pair: DualPair) -> float:
    """Max-abs residual of Delta(x) = W*(1 . x)W over the operator basis."""
    g = pair.base
    n = g.dim
    w3 = pair.w.reshape(n, n, n * n)
    lhs = pair.w_star @ np.einsum("kbc,acm->kabm", g.left_regular, w3,
                                  optimize=True).reshape(n, n * n, n * n)
    rhs = np.einsum("ijk,iab,jcd->kacbd", g.comult3, g.left_regular,
                    g.left_regular, optimize=True).reshape(n, n * n, n * n)
    return _maxabs(lhs - rhs)


def build_dual(g: FiniteQuantumGroup, tol: float = 1e-8) -> DualPair:
    """Dual quantum group, dual basis and dual weight in closed form.

    Gates: the base axioms at 1e-10, a positive dual weight total, the dual
    axioms at tol, and Plancherel Q^dagger Ghat Q = G at tol.
    """
    report = verify_axioms(g, tol=1e-10)
    if not report.passed:
        raise AxiomFailure(f"base fails axioms: {report.failing()}")
    n = g.dim
    s = g.antipode
    weight = np.linalg.solve(g.q_matrix, g.counit)
    total = complex(g.counit @ weight)
    if abs(total.imag) > 1e-9 or total.real <= 0:
        raise PlancherelInconsistent(f"dual weight total {total} not positive")
    total = float(total.real)

    dual_qg = FiniteQuantumGroup(
        dim=n,
        mult=g.comult3,
        unit=g.counit,
        comult=g.mult.transpose(1, 0, 2).reshape(n * n, n),
        counit=g.unit,
        antipode=s.T,
        star=(np.conj(g.star) @ s).T,
        haar=weight / total,
        name=(g.name or "base") + "-dual",
    )
    report = verify_axioms(dual_qg, tol=tol)
    if not report.passed:
        raise DegenerateDual(f"dual fails axioms: {report.failing()}")

    pair = DualPair(
        base=g,
        dual_basis=np.einsum("si,ijk->sjk", s, g.comult3, optimize=True),
        dual_qg=dual_qg,
        dual_weight=weight,
        dual_weight_total=total,
    )
    q = g.q_matrix
    presid = _maxabs(q.conj().T @ pair.dual_gram_weight @ q - g.gram)
    if presid > tol * max(_maxabs(g.gram), 1.0):
        raise PlancherelInconsistent(f"Plancherel identity fails by {presid:.3e}")
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


def to_dual_coeffs(pair: DualPair, x_hat: np.ndarray,
                   tol: float = 1e-8) -> np.ndarray:
    """Coefficients of a matrix over the dual basis; gated membership test."""
    n = pair.base.dim
    x_hat = np.asarray(x_hat, dtype=complex)
    if x_hat.shape != (n, n):
        raise ShapeMismatch(f"expected {(n, n)}, got {x_hat.shape}")
    sol, *_ = np.linalg.lstsq(pair.dual_columns, x_hat.reshape(-1), rcond=None)
    resid = _maxabs(pair.dual_columns @ sol - x_hat.reshape(-1))
    if resid > tol * max(_maxabs(x_hat), 1.0):
        raise NotInDual(f"matrix is outside the dual algebra by {resid:.3e}")
    return sol


def dual_matrix(pair: DualPair, coeffs) -> np.ndarray:
    """Matrix of a dual element given by coefficients over the dual basis,
    batched over the leading axes."""
    c = np.asarray(coeffs, dtype=complex)
    n = pair.base.dim
    return (c @ pair.dual_basis.reshape(n, n * n)).reshape(c.shape[:-1] + (n, n))


def dual_fourier(pair: DualPair, x_hat: np.ndarray) -> AlgebraElement:
    """Inverse-direction transform: Fhat_1 applied to a dual matrix.

    The functional X phihat is s -> phihat(B_s X) = (Qhat c)_s, and the
    first legs of What carry it to S Qhat c. Since Qhat Q = S and S^2 = 1,
    this inverts F.
    """
    c = to_dual_coeffs(pair, x_hat)
    return pair.base.element(pair.base.antipode @ pair.dual_q_matrix @ c)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def lp2_norm_base(g: FiniteQuantumGroup, x) -> float:
    """L^2 norm under the Haar state: phi(x* x)^(1/2)."""
    xc = g.coeffs_of(x)
    val = complex(xc.conj() @ g.gram @ xc)
    return float(np.sqrt(max(val.real, 0.0)))


def lp2_norm_dual(pair: DualPair, coeffs: np.ndarray) -> float:
    """L^2 norm of a dual element under the true Plancherel weight."""
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    val = complex(c.conj() @ pair.dual_gram_weight @ c)
    return float(np.sqrt(max(val.real, 0.0)))


def plancherel_check(pair: DualPair, samples: int = 100,
                     seed: int = 42, tol: float = 1e-9) -> CheckReport:
    """||F(x)||_{2, dual weight} = ||x||_{2, phi} on seeded random elements."""
    g = pair.base
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
        lhs = lp2_norm_dual(pair, fourier_coeffs(pair, x))
        rhs = lp2_norm_base(g, x)
        gap = abs(lhs - rhs) / max(rhs, 1e-300)
        worst = max(worst, gap)
    return CheckReport(
        name="plancherel",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={"samples": samples, "seed": seed, "example": g.name},
    )


def convolution_theorem_check(pair: DualPair, x, y,
                              tol: float = 1e-9) -> CheckReport:
    """F(x * y) = F(x) F(y), measured in max-abs on the dual coefficients."""
    g = pair.base
    conv = convolve(g, x, y)
    lhs = fourier(pair, conv)
    rhs = fourier(pair, x) @ fourier(pair, y)
    scale = max(_maxabs(rhs), 1.0)
    resid = _maxabs(lhs - rhs) / scale
    return CheckReport(
        name="convolution-theorem",
        passed=resid <= tol,
        max_residual=resid,
        tol=tol,
        details={"example": g.name},
    )


def biduality_check(g: FiniteQuantumGroup, tol: float = 1e-8) -> CheckReport:
    """dual(dual(G)) matches G after the canonical GNS identification.

    The identification sends the dual-coefficient GNS vector of lambda(x phi)
    to Lambda(x); pulled back to base coefficients it is the antipode T = S,
    which must intertwine every structure tensor.
    """
    bid = build_dual(build_dual(g).dual_qg).dual_qg
    t = g.antipode
    res = {}
    lhs_m = np.einsum("stu,ku->stk", bid.mult, t, optimize=True)
    rhs_m = np.einsum("is,jt,ijk->stk", t, t, g.mult, optimize=True)
    res["mult"] = _maxabs(lhs_m - rhs_m)
    lhs_c = np.einsum("uvs,iu,jv->ijs", bid.comult3, t, t, optimize=True)
    rhs_c = np.einsum("ks,ijk->ijs", t, g.comult3, optimize=True)
    res["comult"] = _maxabs(lhs_c - rhs_c)
    res["unit"] = _maxabs(t @ bid.unit - g.unit)
    res["counit"] = _maxabs(bid.counit - g.counit @ t)
    res["antipode"] = _maxabs(t @ bid.antipode - g.antipode @ t)
    res["star"] = _maxabs(t @ bid.star - g.star @ np.conj(t))
    res["haar"] = _maxabs(bid.haar - g.haar @ t)
    worst = max(res.values())
    return CheckReport(
        name="biduality",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={"example": g.name, **{k: float(v) for k, v in res.items()}},
    )


# ---------------------------------------------------------------------------
# element serialization
# ---------------------------------------------------------------------------

def element_to_json(coeffs, owner: str) -> dict:
    if owner not in ("base", "dual"):
        raise ValueError("owner must be 'base' or 'dual'")
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    return {
        "owner": owner,
        "coeffs": [[float(v.real), float(v.imag)] for v in c],
    }


def element_from_json(doc: dict) -> tuple:
    owner = doc["owner"]
    if owner not in ("base", "dual"):
        raise ValueError("owner must be 'base' or 'dual'")
    flat = np.asarray(doc["coeffs"], dtype=float)
    return owner, flat[:, 0] + 1j * flat[:, 1]

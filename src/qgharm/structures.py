"""Group-like projections, biprojections, shifts, and bi-shifts.

A group-like projection is a nonzero projection h with
Delta(h)(1 . h) = h . h. In a function algebra these are exactly the
subgroup indicators; their shifts are the coset indicators. The checks
below certify the defining relations together with the derived identities:
the Fourier transform of a group-like projection is phi(h) times a dual
group-like projection, shifts map to multiples of partial isometries, and
bi-shifts are extremal for the Young and Hausdorff-Young inequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .catalog import is_commutative
from .convolution import convolve
from .core import AlgebraElement, FiniteQuantumGroup, _maxabs
from .duality import DualPair, dual_fourier, dual_matrix, fourier_coeffs
from .errors import (
    CertificateMissing,
    NotABishift,
    NotAShift,
    NotGroupLike,
    NotProjection,
)
from .linalg import range_projection
from .lp import base_space, dual_space, hausdorff_young_check, lp_norm
from .report import CheckReport

__all__ = [
    "GroupLikeCertificate",
    "ShiftCertificate",
    "is_group_like_projection",
    "verify_glp_properties",
    "is_biprojection",
    "glpbi_check",
    "biprojection_iff_grouplike",
    "projection_candidates",
    "enumerate_group_like_projections",
    "shift_check",
    "enumerate_left_shifts",
    "bipartial_isometry_check",
    "range_projection_of_fourier",
    "bishift_construct",
    "bishift_theorem_check",
]

TRIVIAL_NOTE = "trivially satisfied (finite-dimensional tracial case)"


# ---------------------------------------------------------------------------
# group-like projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupLikeCertificate:
    element: AlgebraElement
    residuals: dict
    tol: float
    haar_value: float

    @property
    def certified(self) -> bool:
        return max(self.residuals.values()) <= self.tol


def is_group_like_projection(g: FiniteQuantumGroup, h,
                             tol: float = 1e-9) -> GroupLikeCertificate:
    """Certificate for h = h* = h^2 != 0 with Delta(h)(1 . h) = h . h."""
    hc = g.coeffs_of(h)
    dh = g.delta(hc)
    lhs = np.einsum("ij,k,jkl->il", dh, hc, g.mult, optimize=True)
    res = {
        "projection": _maxabs(g.multiply(hc, hc) - hc),
        "self_adjoint": _maxabs(g.star_of(hc) - hc),
        "nonzero": 0.0 if _maxabs(hc) > tol else 1.0,
        "defining_relation": _maxabs(lhs - np.outer(hc, hc)),
    }
    phi_h = g.haar_of(hc)
    return GroupLikeCertificate(
        element=g.element(hc),
        residuals={k: float(v) for k, v in res.items()},
        tol=tol,
        haar_value=float(phi_h.real),
    )


def _require_group_like(g: FiniteQuantumGroup, h, tol: float) -> GroupLikeCertificate:
    cert = is_group_like_projection(g, h, tol=tol)
    if not cert.certified:
        raise NotGroupLike(f"not a group-like projection: {cert.residuals}")
    return cert


def verify_glp_properties(g: FiniteQuantumGroup, h,
                          tol: float = 1e-9) -> CheckReport:
    """Derived identities of a group-like projection: fixed by S and R,
    the mirrored relation, and equality of the two weighted functionals."""
    cert = _require_group_like(g, h, tol)
    hc = cert.element.coeffs
    dh = g.delta(hc)
    mirrored = np.einsum("ij,k,ikl->lj", dh, hc, g.mult, optimize=True)
    # h phi = h psi: both are y -> haar(y h) here since the left and right
    # Haar weights coincide; assert through the two product orders.
    left_fun = np.einsum("ik,k->i", g.q_matrix, hc, optimize=True)
    right_fun = np.einsum("ki,k->i", g.q_matrix, hc, optimize=True)
    res = {
        "antipode_fixes": _maxabs(g.antipode @ hc - hc),
        "unitary_antipode_fixes": _maxabs(g.antipode @ hc - hc),
        "mirrored_relation": _maxabs(mirrored - np.outer(hc, hc)),
        "weighted_functionals_equal": _maxabs(left_fun - right_fun),
        "convolution_idempotent": _maxabs(
            convolve(g, hc, hc).coeffs - cert.haar_value * hc),
    }
    worst = max(res.values())
    return CheckReport(
        name="group-like-properties",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={**{k: float(v) for k, v in res.items()},
                 "modular_invariance": TRIVIAL_NOTE},
    )


# ---------------------------------------------------------------------------
# biprojections
# ---------------------------------------------------------------------------

def _fourier_blocks(pair: DualPair, x) -> np.ndarray:
    """F(x) in the block-diagonal picture of the dual."""
    return pair.dual_qg.blocks.diag(fourier_coeffs(pair, x))


def is_biprojection(pair: DualPair, h, tol: float = 1e-9) -> CheckReport:
    """Is F(h) a (nonzero) multiple of a projection in the dual algebra?

    Inner products are the Hilbert-Schmidt ones of the operators on L^2(G),
    where block i of the dual appears d_i times."""
    f = _fourier_blocks(pair, h)
    blocks = pair.dual_qg.blocks
    scale = float(np.sqrt(blocks.hs(f, f).real))
    if scale <= tol:
        return CheckReport(name="biprojection", passed=False,
                           max_residual=1.0, tol=tol,
                           details={"reason": "zero transform", "multiple": 0.0})
    ff = f @ f
    fit = blocks.hs(f, ff) / blocks.hs(f, f)
    res_proj = _maxabs(ff - fit * f) / max(_maxabs(f), 1e-300)
    res_sa = _maxabs(f - f.conj().T) / max(_maxabs(f), 1e-300)
    res_real = abs(fit.imag)
    worst = max(res_proj, res_sa, res_real)
    return CheckReport(
        name="biprojection",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={"multiple": float(fit.real),
                 "idempotent_after_fit": float(res_proj),
                 "self_adjoint": float(res_sa)},
    )


def range_projection_of_fourier(pair: DualPair, h) -> tuple:
    """Range projection of F(h) as a matrix plus its dual-basis coefficients."""
    p = range_projection(_fourier_blocks(pair, h))
    coeffs = pair.dual_qg.blocks.coeffs_of_diag(p)
    return dual_matrix(pair, coeffs), coeffs


def glpbi_check(pair: DualPair, h, tol: float = 1e-9) -> CheckReport:
    """Fourier image of a group-like projection: phi(h)^{-1} F(h) is a
    dual group-like projection, the dual weight of its range is 1/phi(h),
    and transporting the range back recovers phi(h)^{-1} h."""
    g = pair.base
    cert = _require_group_like(g, h, tol)
    hc = cert.element.coeffs
    phi_h = cert.haar_value
    if phi_h <= 0:
        raise NotGroupLike(f"Haar value {phi_h} is not positive")

    dual_coeffs = fourier_coeffs(pair, hc) / phi_h
    dual_cert = is_group_like_projection(pair.dual_qg, dual_coeffs, tol=tol)

    p_mat, p_coeffs = range_projection_of_fourier(pair, hc)
    weight_of_range = complex(pair.dual_weight @ p_coeffs)
    res_weight = abs(phi_h * weight_of_range - 1.0)

    back = dual_fourier(pair, p_mat).coeffs
    res_back = _maxabs(back - hc / phi_h)

    res = {
        "dual_group_like": max(dual_cert.residuals.values()),
        "weight_of_range": float(res_weight),
        "inverse_transform_of_range": float(res_back),
    }
    worst = max(res.values())
    return CheckReport(
        name="group-like-fourier-image",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={**res, "haar_value": phi_h,
                 "dual_weight_of_range": float(weight_of_range.real)},
    )


def _is_projection_vector(g: FiniteQuantumGroup, v: np.ndarray,
                          tol: float) -> bool:
    return (_maxabs(g.multiply(v, v) - v) <= tol
            and _maxabs(g.star_of(v) - v) <= tol
            and _maxabs(v) > tol)


def biprojection_iff_grouplike(pair: DualPair, candidates,
                               tol: float = 1e-9) -> CheckReport:
    """Both certificates must agree on every projection candidate."""
    g = pair.base
    checked = 0
    rejected = 0
    disagreements = []
    for v in candidates:
        v = g.coeffs_of(v)
        if not _is_projection_vector(g, v, tol):
            rejected += 1
            continue
        checked += 1
        bi = is_biprojection(pair, v, tol=tol).passed
        gl = is_group_like_projection(g, v, tol=tol).certified
        if bi != gl:
            disagreements.append({
                "coeffs": [[float(c.real), float(c.imag)] for c in v],
                "biprojection": bi,
                "group_like": gl,
            })
    return CheckReport(
        name="biprojection-iff-group-like",
        passed=not disagreements,
        max_residual=float(len(disagreements)),
        tol=0.0,
        details={"projections_checked": checked,
                 "candidates_rejected": rejected,
                 "disagreements": disagreements},
    )


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _diagonal_tensor(n: int) -> np.ndarray:
    """t[i, j, k] = 1 when i = j = k, else 0."""
    t = np.zeros((n, n, n))
    t[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    return t


def _pointwise_basis(g: FiniteQuantumGroup) -> bool:
    """True when the basis consists of orthogonal minimal projections
    (function algebra in the delta basis): e_i e_j = delta_ij e_i."""
    return _maxabs(g.mult - _diagonal_tensor(g.dim)) <= 1e-12 and _maxabs(
        g.star - np.eye(g.dim)) <= 1e-12


def _basis_group_like(g: FiniteQuantumGroup) -> bool:
    """True when every basis element is group-like (group algebra form)."""
    return _maxabs(g.comult3 - _diagonal_tensor(g.dim)) <= 1e-12


def _indicators(n: int) -> list:
    """Every nonzero 0/1 coefficient vector, in the order of its bit mask."""
    return [np.array([(mask >> i) & 1 for i in range(n)], dtype=complex)
            for mask in range(1, 2 ** n)]


def _group_table_from_mult(g: FiniteQuantumGroup) -> list:
    table = []
    for i in range(g.dim):
        row = []
        for j in range(g.dim):
            k = int(np.argmax(np.abs(g.mult[i, j])))
            row.append(k)
        table.append(row)
    return table


def _subgroups(table: list) -> list:
    """All subgroups of a small group given by its multiplication table."""
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][j] == j for j in range(n)))
    subgroups = []
    for mask in range(1, 2 ** n):
        members = [i for i in range(n) if mask & (1 << i)]
        if identity not in members:
            continue
        mset = set(members)
        if all(table[i][j] in mset for i in members for j in members):
            subgroups.append(members)
    return subgroups


def projection_candidates(g: FiniteQuantumGroup, seed: int = 0,
                          samples: int = 40) -> list:
    """Projection candidates for the equivalence sweep.

    Function algebras in the delta basis: every 0/1 indicator vector
    (complete). Otherwise: cyclic sums of unitary basis words, sums of
    minimal central projections, and spectral projections of seeded random
    self-adjoint elements. That list is a sample, not an exhaustive one.
    """
    n = g.dim
    if _pointwise_basis(g):
        return _indicators(n)

    out = []
    seen = set()

    def push(v: np.ndarray) -> None:
        v = np.asarray(v, dtype=complex).reshape(-1)
        key = tuple(np.round(v, 9).tolist())
        if key not in seen:
            seen.add(key)
            out.append(v)

    # cyclic sums over powers of each unitary basis word
    for i in range(n):
        e_i = np.zeros(n, dtype=complex)
        e_i[i] = 1.0
        powers = [g.unit.astype(complex)]
        cur = e_i
        for _ in range(2 * n):
            powers.append(cur)
            if _maxabs(cur - g.unit) <= 1e-12:
                break
            cur = g.multiply(cur, e_i)
        if _maxabs(powers[-1] - g.unit) <= 1e-12:
            cyc = sum(powers[:-1]) / (len(powers) - 1)
            push(cyc)

    # minimal central projections and all sums of them
    blocks = g.blocks
    for r in range(1, len(blocks.central) + 1):
        for combo in itertools.combinations(blocks.central, r):
            push(sum(combo))

    # spectral projections of seeded random self-adjoint elements
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w, vecs = np.linalg.eigh(blocks.diag(v + g.star_of(v)))
        for idx in _eigen_groups(w):
            push(blocks.coeffs_of_diag(vecs[:, idx] @ vecs[:, idx].conj().T))
    return out


def _eigen_groups(w: np.ndarray, tol: float = 1e-8) -> list:
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol * max(1.0, abs(w[i])):
            groups.append(list(range(start, i)))
            start = i
    return groups


def enumerate_group_like_projections(g: FiniteQuantumGroup,
                                     tol: float = 1e-9) -> list:
    """Certified group-like projections.

    Complete for function algebras (subgroup indicators among all 0/1
    vectors) and for group algebras (normalized subgroup sums); elsewhere
    the certified list comes from projection_candidates and completeness is
    not claimed.
    """
    certs = []
    seen = set()

    def push(v) -> None:
        cert = is_group_like_projection(g, v, tol=tol)
        if not cert.certified:
            return
        key = tuple(np.round(cert.element.coeffs, 9).tolist())
        if key not in seen:
            seen.add(key)
            certs.append(cert)

    if _basis_group_like(g):
        table = _group_table_from_mult(g)
        for members in _subgroups(table):
            v = np.zeros(g.dim, dtype=complex)
            v[members] = 1.0 / len(members)
            push(v)
    else:
        for v in projection_candidates(g):
            push(v)
    return certs


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftCertificate:
    element: AlgebraElement
    base_projection: AlgebraElement
    side: str
    mu: float
    residuals: dict
    tol: float
    details: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return max(self.residuals.values()) <= self.tol


def shift_check(g: FiniteQuantumGroup, x, h, side: str = "left",
                tol: float = 1e-9) -> ShiftCertificate:
    """Certify x as a left or right shift of the group-like projection h."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cert = _require_group_like(g, h, tol)
    hc = cert.element.coeffs
    xc = g.coeffs_of(x)
    if not (_maxabs(g.multiply(xc, xc) - xc) <= tol
            and _maxabs(g.star_of(xc) - xc) <= tol):
        raise NotProjection("shift candidate must be a projection")
    dx, dh = g.delta(xc), g.delta(hc)
    rx = g.antipode @ xc
    if side == "left":
        rel1 = np.einsum("ij,k,jkl->il", dx, hc, g.mult, optimize=True) \
            - np.outer(xc, hc)
        rel2 = np.einsum("ij,k,jkl->il", dh, xc, g.mult, optimize=True) \
            - np.outer(rx, xc)
    else:
        rel1 = np.einsum("ij,k,ikl->lj", dx, hc, g.mult, optimize=True) \
            - np.outer(hc, xc)
        rel2 = np.einsum("ij,k,ikl->lj", dh, xc, g.mult, optimize=True) \
            - np.outer(xc, rx)
    res = {
        "shift_relation": float(_maxabs(rel1)),
        "base_relation": float(_maxabs(rel2)),
        "weight_equality": float(abs(g.haar_of(xc) - g.haar_of(hc))),
    }
    return ShiftCertificate(
        element=g.element(xc),
        base_projection=cert.element,
        side=side,
        mu=1.0,
        residuals=res,
        tol=tol,
        details={
            "scaling_invariance": TRIVIAL_NOTE,
            "modular_invariance": TRIVIAL_NOTE,
            "delta_eigenvalue": TRIVIAL_NOTE + "; mu_x = 1",
            "dual_modular_covariance": TRIVIAL_NOTE,
        },
    )


def enumerate_left_shifts(g: FiniteQuantumGroup, h, candidates=None,
                          tol: float = 1e-9) -> list:
    """Certified left shifts of h among the candidates.

    For a commutative algebra the default candidate set is every 0/1 vector,
    which brute-forces the classical statement that shifts are exactly the
    coset indicators.
    """
    if candidates is None:
        if not is_commutative(g):
            raise NotAShift("candidate set required for noncommutative input")
        candidates = _indicators(g.dim)
    out = []
    for v in candidates:
        try:
            cert = shift_check(g, v, h, side="left", tol=tol)
        except (NotProjection, NotGroupLike):
            continue
        if cert.certified:
            out.append(cert)
    return out


def _partial_isometry_residual(mat: np.ndarray) -> float:
    """How far the matrix is from a multiple of a partial isometry."""
    sv = np.linalg.svd(mat, compute_uv=False)
    s = float(sv[0]) if len(sv) else 0.0
    if s <= 0.0:
        return 0.0
    return float(np.max(np.minimum(sv, s - sv)) / s)


def bipartial_isometry_check(pair: DualPair, x, h,
                             tol: float = 1e-9) -> CheckReport:
    """A certified left shift is a bi-partial isometry with
    F(x)* F(x) = phi(h) F(h) and operator norm phi(h)."""
    g = pair.base
    cert = shift_check(g, x, h, side="left", tol=tol)
    if not cert.certified:
        raise NotAShift(f"shift certificate failed: {cert.residuals}")
    xc = cert.element.coeffs
    hc = cert.base_projection.coeffs
    phi_h = float(g.haar_of(hc).real)

    f = _fourier_blocks(pair, xc)
    res = {
        "element_partial_isometry": _partial_isometry_residual(
            g.blocks.diag(xc)),
        "fourier_partial_isometry": _partial_isometry_residual(f),
        "fourier_polar_identity": _maxabs(
            f.conj().T @ f - phi_h * _fourier_blocks(pair, hc)),
        "fourier_operator_norm": abs(float(np.linalg.norm(f, 2)) - phi_h),
    }
    worst = max(res.values())
    return CheckReport(
        name="bi-partial-isometry",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={**{k: float(v) for k, v in res.items()},
                 "haar_value": phi_h},
    )


# ---------------------------------------------------------------------------
# bi-shifts
# ---------------------------------------------------------------------------

def bishift_construct(pair: DualPair, x_h, y, x_tilde, h,
                      tol: float = 1e-9) -> AlgebraElement:
    """x = (x_h y) * Fhat_1(x_tilde) for certified shifts on both sides.

    x_h must be a certified left shift of h in the base; x_tilde (given by
    dual-basis coefficients) must be a certified left shift of the range
    projection of F(h) in the dual.
    """
    g = pair.base
    base_cert = shift_check(g, x_h, h, side="left", tol=tol)
    if not base_cert.certified:
        raise CertificateMissing(
            f"base shift certificate failed: {base_cert.residuals}")
    _, h_tilde = range_projection_of_fourier(pair, h)
    dual_cert = shift_check(pair.dual_qg, x_tilde, h_tilde,
                            side="left", tol=tol)
    if not dual_cert.certified:
        raise CertificateMissing(
            f"dual shift certificate failed: {dual_cert.residuals}")
    xy = g.multiply(x_h, y)
    pulled = dual_fourier(pair, dual_matrix(pair, dual_cert.element.coeffs))
    return convolve(g, xy, pulled.coeffs)


def bishift_theorem_check(pair: DualPair, x, tol: float = 1e-9,
                          exponents=(1.0, 4.0 / 3.0, 2.0)) -> CheckReport:
    """Extremality of a bi-shift: both x and F(x) are multiples of partial
    isometries, the transform's operator norm equals ||x||_1, and the
    Hausdorff-Young inequality is an equality at the listed exponents."""
    g = pair.base
    xc = g.coeffs_of(x)
    if _maxabs(xc) <= tol:
        raise NotABishift("zero element cannot be a bi-shift")
    bsp, dsp = base_space(g), dual_space(pair)
    f = _fourier_blocks(pair, xc)
    l1 = lp_norm(bsp, xc, 1.0)
    res = {
        "element_partial_isometry": _partial_isometry_residual(
            g.blocks.diag(xc)),
        "fourier_partial_isometry": _partial_isometry_residual(f),
        "transform_sup_equals_l1": abs(float(np.linalg.norm(f, 2)) - l1)
        / max(l1, 1e-300),
    }
    for p in exponents:
        rep = hausdorff_young_check(pair, xc, p, bsp, dsp)
        res[f"extremal_p_{p:g}"] = abs(rep.ratio - 1.0)
    worst = max(res.values())
    return CheckReport(
        name="bi-shift-extremality",
        passed=worst <= tol,
        max_residual=worst,
        tol=tol,
        details={**{k: float(v) for k, v in res.items()},
                 "scaling_invariance": TRIVIAL_NOTE,
                 "delta_eigenvalue": TRIVIAL_NOTE + "; mu_x = 1"},
    )

"""Group-like projections, biprojections, shifts, and bi-shifts.

A group-like projection is a nonzero projection h with
Delta(h)(1 . h) = h . h. In a function algebra these are exactly the
subgroup indicators; their shifts are the coset indicators. The checks
below certify the defining relations together with the derived identities:
the Fourier transform of a group-like projection is phi(h) times a dual
group-like projection, shifts map to multiples of partial isometries, and
bi-shifts are extremal for the Young and Hausdorff-Young inequalities.

The certificates of group-like projections and biprojections have one form,
the stack: group_like_checks, glp_properties_checks, biprojection_checks
and glpbi_checks take a list of elements (the derived two also take their
certificates) and give one record per element, computed in one pass over
the (k, n) coefficient stack. A row never moves another row's residuals.

The lists of group-like projections, of biprojections and of the shifts of
a group-like projection are complete. A projection is a choice of one
projection per Wedderburn block; on a block of size 2 a rank-one choice
carries a Bloch vector, and each relation is solved exactly for those
vectors; for group-like projections and biprojections, which have counit
1, only the choices with epsilon(h0) = 1. A system whose affine rows (the
equations it implies with no quadratic term) are inconsistent is closed at
degree 2, before any Macaulay matrix, and the rank decisions of that step
are among the singular_value_gaps. Algebras with a block of size 3 or more,
or with more than two blocks of size 2 (see MAX_MACAULAY_ENTRIES), are
refused.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convolution import convolve
from .core import AlgebraElement, FiniteQuantumGroup, _encode_array, _maxabs
from .duality import DualPair, dual_fourier, fourier_coeffs
from .errors import QgharmError
from .linalg import range_projection
from .lp import base_space, hausdorff_young_check, lp_norm
from .report import Check, check

__all__ = [
    "group_like_checks",
    "glp_properties_checks",
    "biprojection_checks",
    "glpbi_checks",
    "biprojection_iff_grouplike",
    "enumerate_biprojections",
    "enumerate_group_like_projections",
    "shift_check",
    "enumerate_left_shifts",
    "bipartial_isometry_check",
    "range_projection_of_fourier",
    "bishift_construct",
    "bishift_theorem_check",
]

TRIVIAL_NOTE = "trivially satisfied (finite-dimensional tracial case)"
BISHIFT_EXPONENTS = (1.0, 4.0 / 3.0, 2.0)
# tol of the two enumerators and the bi-partial-isometry and bi-shift checks
CERT_TOL = 1e-9


# ---------------------------------------------------------------------------
# certificates over stacks
# ---------------------------------------------------------------------------

def _row_maxabs(a: np.ndarray) -> np.ndarray:
    """The largest absolute entry of each row of a (k, ...) stack, never
    taken across rows: 0 for an empty row and NaN for a row with a NaN."""
    return np.abs(a).reshape(len(a), -1 if a.size else 0).max(
        axis=1, initial=0.0)


def _stack(g: FiniteQuantumGroup, hs) -> np.ndarray:
    """The (k, n) coefficient stack of the elements hs of g."""
    return np.array([g.coeffs_of(h) for h in hs],
                    dtype=complex).reshape(-1, g.dim)


def _row_checks(name: str, claim: str, res: dict, tol: float, rows: list,
                **same) -> list:
    """One check record per row: row i takes entry i of every (k,) residual
    array of res and the details rows[i], and every row the details same."""
    return [check(name, claim, {key: v[i] for key, v in res.items()}, tol,
                  **row, **same) for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# group-like projections
# ---------------------------------------------------------------------------

def _group_like_residuals(g: FiniteQuantumGroup, hc: np.ndarray,
                          tol: float) -> dict:
    """The residuals of group_like_checks, one (k,) array per key, over a
    (k, n) coefficient stack."""
    return {
        "projection": _row_maxabs(g.multiply(hc, hc) - hc),
        "self_adjoint": _row_maxabs(g.star_of(hc) - hc),
        "nonzero": np.where(_row_maxabs(hc) > tol, 0.0, math.inf),
        "defining_relation": _row_maxabs(_group_like_relation(g, hc)),
    }


def group_like_checks(g: FiniteQuantumGroup, hs, tol: float) -> list:
    """Certificate for h = h* = h^2 != 0 with Delta(h)(1 . h) = h . h, one
    record per element h of hs, as one stack; its details hold the element
    and its Haar value."""
    hc = _stack(g, hs)
    haar = g.haar_of(hc).real
    return _row_checks(
        "group-like-projection", "group-like-projection",
        _group_like_residuals(g, hc, tol), tol,
        [{"element": g.element(h), "haar_value": float(v)}
         for h, v in zip(hc, haar)])


def _right_mult(g: FiniteQuantumGroup, h) -> np.ndarray:
    """R_h[j, l] = coefficient of e_l in e_j h, batched over the leading
    axes of h. For d over e_i x e_j, d @ R_h is d(1 . h) and R_h.T @ d is
    d(h . 1)."""
    return (g.coeffs_of(h)[..., None, None, :] @ g.mult)[..., 0, :]


def _group_like_relation(g: FiniteQuantumGroup, hc) -> np.ndarray:
    """Delta(h)(1 . h) - h . h over e_i x e_j, batched over the leading
    axes of the coefficients hc."""
    outer = hc[..., :, None] * hc[..., None, :]
    return g.delta(hc) @ _right_mult(g, hc) - outer


def _require_group_like(g: FiniteQuantumGroup, h, tol: float) -> Check:
    """The holding certificate of h, an element of g; a record of
    group_like_checks for one at tol or tighter is taken as it is."""
    cert = h if isinstance(h, Check) else group_like_checks(g, [h], tol)[0]
    if not (cert.name == "group-like-projection" and cert.holds
            and cert.tol <= tol):
        raise QgharmError(f"not group-like at tol {tol}: {cert.residuals}")
    g.coeffs_of(cert.details["element"])   # refuses another algebra's
    return cert


def _certified(g: FiniteQuantumGroup, hs, tol: float) -> tuple:
    """The coefficient stack and the Haar values of the group-like
    projections hs, or of their certificates (see _require_group_like)."""
    certs = [_require_group_like(g, h, tol) for h in hs]
    return (_stack(g, [c.details["element"] for c in certs]),
            np.array([c.details["haar_value"] for c in certs]))


def glp_properties_checks(g: FiniteQuantumGroup, hs, tol: float) -> list:
    """Derived identities of each group-like projection of hs, or of its
    certificate, as one stack: fixed by S (which is R on Kac-type data),
    the mirrored relation, and equality of the two weighted functionals."""
    hc, phi = _certified(g, hs, tol)
    mirrored = np.swapaxes(_right_mult(g, hc), -1, -2) @ g.delta(hc)
    # h phi = h psi: both are y -> haar(y h) here since the left and right
    # Haar weights coincide; assert through the two product orders.
    res = {
        "antipode_fixes": _row_maxabs(g.antipode_of(hc) - hc),
        "mirrored_relation": _row_maxabs(
            mirrored - hc[:, :, None] * hc[:, None, :]),
        "weighted_functionals_equal": _row_maxabs(hc @ g.q_matrix.T
                                                  - hc @ g.q_matrix),
        "convolution_idempotent": _row_maxabs(
            convolve(g, hc, hc).coeffs - phi[:, None] * hc),
    }
    return _row_checks("group-like-properties", "group-like-projection", res,
                       tol, [{}] * len(hc), modular_invariance=TRIVIAL_NOTE)


# ---------------------------------------------------------------------------
# biprojections
# ---------------------------------------------------------------------------

def _fourier_blocks(pair: DualPair, x) -> np.ndarray:
    """F(x) in the block-diagonal picture of the dual, batched over the
    leading axes."""
    return pair.dual_qg.blocks.diag(fourier_coeffs(pair, x))


def biprojection_checks(pair: DualPair, hs, tol: float) -> list:
    """Is F(h) a (nonzero) multiple of a projection in the dual algebra?
    One record per element h of hs, as one stack; a row whose transform is
    zero fails on nonzero_transform alone.

    Inner products are the Hilbert-Schmidt ones of the operators on L^2(G),
    where block i of the dual appears d_i times."""
    f = _fourier_blocks(pair, _stack(pair.base, hs))
    blocks = pair.dual_qg.blocks
    norm2 = blocks.hs(f, f)
    nonzero = np.sqrt(norm2.real) > tol
    ff = f @ f
    fit = blocks.hs(f, ff) / np.where(nonzero, norm2, 1.0)
    size = np.maximum(_row_maxabs(f), 1e-300)
    res = {"idempotent_after_fit": _row_maxabs(ff - fit[:, None, None] * f)
           / size,
           "self_adjoint": _row_maxabs(f - f.conj().swapaxes(-1, -2)) / size,
           "real_multiple": np.abs(fit.imag)}
    name, claim = "biprojection", "fourier-multiple-of-projection"
    fits = _row_checks(name, claim, res, tol,
                       [{"multiple": float(v)} for v in fit.real])
    return [c if ok else check(name, claim, {"nonzero_transform": math.inf},
                               tol, multiple=0.0)
            for c, ok in zip(fits, nonzero)]


def _biprojection_relation(pair: DualPair, hc) -> np.ndarray:
    """F(h)^2 - phi(h) F(h) and F(h)* - F(h) in dual coefficients, batched
    over the leading axes of hc."""
    f = fourier_coeffs(pair, hc)
    d = pair.dual_qg
    return np.concatenate(
        [d.multiply(f, f) - pair.base.haar_of(hc)[..., None] * f,
         d.star_of(f) - f], axis=-1)


def range_projection_of_fourier(pair: DualPair, h) -> np.ndarray:
    """Dual-basis coefficients of the range projection of F(h), batched
    over the leading axes of h."""
    p = range_projection(_fourier_blocks(pair, h))
    return pair.dual_qg.blocks.coeffs_of_diag(p)


def glpbi_checks(pair: DualPair, hs, tol: float) -> list:
    """Fourier image of each group-like projection h of hs (or of its
    certificate), as one stack: phi(h)^{-1} F(h) is a dual group-like
    projection, the dual weight of its range is 1/phi(h), and the range
    transported back is phi(h)^{-1} h."""
    hc, phi = _certified(pair.base, hs, tol)
    if np.any(phi <= 0):
        raise QgharmError(f"Haar value {phi[phi <= 0][0]} is not positive")
    dual = _group_like_residuals(
        pair.dual_qg, fourier_coeffs(pair, hc) / phi[:, None], tol)
    p_coeffs = range_projection_of_fourier(pair, hc)
    weight_of_range = p_coeffs @ pair.dual_weight
    back = dual_fourier(pair, p_coeffs).coeffs
    res = {
        "dual_group_like": np.max(list(dual.values()), axis=0),
        "weight_of_range": np.abs(phi * weight_of_range - 1.0),
        "inverse_transform_of_range": _row_maxabs(back - hc / phi[:, None]),
    }
    return _row_checks("group-like-fourier-image",
                       "dual-group-like-and-weight", res, tol,
                       [{"haar_value": float(p),
                         "dual_weight_of_range": float(w.real)}
                        for p, w in zip(phi, weight_of_range)])


def biprojection_iff_grouplike(pair: DualPair,
                               tol: float = 1e-9) -> Check:
    """Every biprojection is group-like and every group-like projection is
    a biprojection, over all projections of the base.

    Both lists are complete: each solves its relation exactly over every
    block choice with epsilon(h0) = 1 (see _counit_one), the choices with
    the same number of Bloch unknowns as one stack (see _enumerate); the
    biprojections are those of enumerate_biprojections. projections_checked
    counts all nonzero block choices, group_like holds the certificates of
    enumerate_group_like_projections, group_like_biprojection the
    biprojection_checks record of each of them, and singular_value_gaps
    holds the weakest rank decision of each choice solved with rank-one
    blocks. Each list is certified as one stack.
    """
    g = pair.base
    keep, bi_run, disagreements = enumerate_biprojections(pair, tol)
    group_like, gl_run = _group_like(g, tol, keep)
    group_like_bi = biprojection_checks(
        pair, [c.details["element"] for c in group_like], tol)
    disagreements += [
        _disagreement(c.details["element"].coeffs, biprojection=False,
                      group_like=True)
        for c, bi in zip(group_like, group_like_bi) if not bi.holds]
    return check("biprojection-iff-group-like", "certificate-equivalence",
                 {"disagreements": len(disagreements)}, 0.0,
                 projections_checked=gl_run.choices,
                 biprojections=len(bi_run.points),
                 group_like=group_like,
                 group_like_biprojection=group_like_bi,
                 disagreements=disagreements,
                 singular_value_gaps={"group_like": gl_run.gaps,
                                      "biprojection": bi_run.gaps})


def enumerate_biprojections(pair: DualPair, tol: float = 1e-9) -> tuple:
    """Every biprojection of the base, certified as one stack, and the
    disagreement record of each one that is not group-like.

    A biprojection solves F(h)^2 = phi(h) F(h) and F(h)* = F(h); the
    multiple is phi(h) because the dual counit is a character with
    epsilon_hat(F(x)) = phi(x). So P = F(h) / phi(h) is a nonzero
    projection, as Q is invertible. With w = Q^-1 epsilon and Q symmetric,
    phihat(F(x)) = w^T Q x = epsilon(x) (checked at CERT_TOL), so
    epsilon(h) = phi(h) phihat(P) > 0 by faithfulness; a *-character is 0
    or 1 on a projection, so epsilon(h) = 1, and only the block choices
    with epsilon(h0) = 1 are solved (see _counit_one). Returns (keep, run,
    disagreements): the mask of those choices, the _Enumeration of the
    biprojections and one record per biprojection that fails
    group_like_checks.
    """
    g = pair.base
    _premise("phihat(F(x)) = epsilon(x), Q^T w = epsilon",
             _maxabs(g.q_matrix.T @ pair.dual_weight - g.counit))
    keep = _counit_one(g)
    run = _enumerate(g, lambda h: _biprojection_relation(pair, h), tol, keep)
    _all_certified(c.holds for c in biprojection_checks(pair, run.points, tol))
    disagreements = [
        _disagreement(h, biprojection=True, group_like=False)
        for h, c in zip(run.points, group_like_checks(g, run.points, tol))
        if not c.holds]
    return keep, run, disagreements


def _disagreement(h: np.ndarray, biprojection: bool, group_like: bool) -> dict:
    return {"coeffs": _encode_array(h),
            "biprojection": biprojection, "group_like": group_like}


def _group_like(g: FiniteQuantumGroup, tol: float, keep) -> tuple:
    run = _enumerate(g, lambda h: _group_like_relation(g, h), tol, keep)
    certs = group_like_checks(g, run.points, tol)
    _all_certified(c.holds for c in certs)
    return certs, run


def enumerate_group_like_projections(g: FiniteQuantumGroup) -> list:
    """Every group-like projection of g, certified at CERT_TOL, in the order of
    the block choices. The list is complete (see _enumerate): only the
    choices with epsilon(h0) = 1 are solved, since epsilon . id applied to
    Delta(h)(1 . h) = h . h gives h = h h = epsilon(h) h by the counit law
    and the multiplicativity of epsilon (see _counit_one). An algebra with a
    block of size 3 or more raises QgharmError.
    """
    return _group_like(g, CERT_TOL, _counit_one(g))[0]


def _premise(name: str, residual: float) -> None:
    if not residual <= CERT_TOL:
        raise QgharmError(f"the counit pruning needs {name}; it fails by "
                          f"{residual:.3e}")


def _counit_one(g: FiniteQuantumGroup) -> np.ndarray:
    """Which block choices have epsilon(h0) = 1, after checking at CERT_TOL
    the counit law, epsilon(h0) in {0, 1} on every choice and epsilon = 0 on
    every Bloch direction (so epsilon(h) = epsilon(h0)). The last two make
    epsilon a *-character: the one of a block of size 1."""
    (h0, dirs, _), n = g.blocks.choices, g.dim
    _premise("the counit law", _maxabs(
        g.counit @ g.comult3.reshape(n, n * n) - np.eye(n).ravel()))
    eps = h0 @ g.counit
    _premise("epsilon(h0) in {0, 1}",
             np.max(np.minimum(np.abs(eps), np.abs(eps - 1))))
    _premise("epsilon = 0 on the Bloch directions", _maxabs(dirs @ g.counit))
    return np.abs(eps - 1) <= CERT_TOL


# ---------------------------------------------------------------------------
# exact enumeration over block choices
# ---------------------------------------------------------------------------

# relative singular-value cutoff of every rank decision of the solver
RANK_TOL = 1e-8
# a root must solve its system within this, and is real when its imaginary
# parts are within it
ROOT_TOL = 1e-6
# a system whose null space is not stable by this Macaulay degree is refused
MAX_DEGREE = 6
# seed of the generic linear form whose multiplication matrix is diagonalized
STETTER_SEED = 1611
# most entries of a batched Macaulay stack, and the refusal bound of one
# choice: two 2x2 blocks need <= 28 x 210 x 924, three (C[D7]) about 197M
MAX_MACAULAY_ENTRIES = 8_000_000


@dataclass(frozen=True)
class _Enumeration:
    """The coefficients of every projection that solves a relation, the
    number of nonzero block choices, and, per choice with rank-one blocks,
    the weakest rank decision of its solve: (smallest singular value kept,
    largest dropped), each relative to the largest, or to 1 at the
    degree-2 step of the affine rows."""

    points: list
    choices: int
    gaps: list


def _all_certified(flags) -> None:
    if not all(flags):
        raise QgharmError("a solution of a block choice fails its "
                          "certificate")


@functools.lru_cache(maxsize=None)
def _stetter_weights(m: int) -> np.ndarray:
    """The weights of the generic linear form in m unknowns, drawn from
    STETTER_SEED once per m; read-only."""
    weights = np.random.default_rng(STETTER_SEED).standard_normal(m)
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=None)
def _monomials(m: int, d: int) -> dict:
    """Exponent tuples of the monomials of degree <= d in m unknowns, by
    degree and then in combinations_with_replacement order, mapped to their
    column."""
    words = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(m), deg)
        for deg in range(d + 1))
    return {tuple(w.count(i) for i in range(m)): col
            for col, w in enumerate(words)}


@functools.lru_cache(maxsize=None)
def _shifted(m: int, d: int, by: int) -> np.ndarray:
    """[s, a] = column, among the monomials of degree <= d, of monomial s of
    degree <= d - by times monomial a of degree <= by."""
    cols = _monomials(m, d)
    return np.array([[cols[tuple(i + j for i, j in zip(s, a))]
                      for a in _monomials(m, by)]
                     for s in _monomials(m, d - by)])


def _quadratic_rows(relation, h0: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Real coefficient rows, over _monomials(m, 2), of the real and
    imaginary parts of relation(h0 + n @ dirs) and of |n_b|^2 - 1 for each
    rank-one block b, as a (choices, rows, monomials) stack. The relation has
    degree <= 2 in n, so its values at n = 0, +-e_k and e_k + e_l, taken for
    every choice in one call, fix its coefficients (polarization)."""
    m = dirs.shape[1]
    eye = np.eye(m)
    k, l = np.triu_indices(m, 1)
    stencil = np.concatenate([np.zeros((1, m)), eye, -eye, eye[k] + eye[l]])
    vals = relation(h0[:, None] + stencil @ dirs).reshape(
        len(h0), len(stencil), -1)
    vals = np.concatenate([vals.real, vals.imag], axis=-1)
    zero, plus, minus = vals[:, :1], vals[:, 1:m + 1], vals[:, m + 1:2 * m + 1]
    quad = np.empty((len(h0), m, m, vals.shape[-1]))
    quad[:, k, l] = vals[:, 2 * m + 1:] - plus[:, k] - plus[:, l] + zero
    quad[:, np.arange(m), np.arange(m)] = 0.5 * (plus + minus) - zero
    ku, lu = np.triu_indices(m)
    rows = np.concatenate([zero, 0.5 * (plus - minus), quad[:, ku, lu]], 1)
    sphere = np.zeros((len(h0), rows.shape[1], m // 3))
    sphere[:, 0] = -1.0
    sphere[:, 1 + m + np.flatnonzero(ku == lu), np.arange(m) // 3] = 1.0
    return np.concatenate([rows, sphere], axis=-1).transpose(0, 2, 1)


def _bloch_roots(rows: np.ndarray, m: int) -> tuple:
    """All complex roots of each real system in a stack of coefficient rows
    over _monomials(m, 2), one (m, count) array per system, and the weakest
    rank decision of each solve (see _Enumeration). The roots of a system
    are in lexicographic order of (Re n, Im n) rounded to 6 decimals, so
    the order of its real roots does not depend on the kernel's basis.

    The rows are compressed to an orthonormal row basis. Its combinations
    with no quadratic term, the left singular vectors of its quadratic
    columns beyond their rank, are orthonormal affine rows; when their
    n-columns have a lower rank than they do, 1 = 0 is among them and the
    system has no root. Both rank decisions of this degree-2 step use
    RANK_TOL as an absolute cutoff, since the rows have norm 1, and are
    recorded with the others. Every other system goes on. The Macaulay matrix
    of degree d stacks that basis times every monomial of degree <= d - 2;
    its null space is spanned by the monomial vectors of the roots. The
    degree is raised until the null-space dimension repeats and the
    monomials of degree <= d - 1 separate the null space. Then the
    multiplication matrix (Stetter matrix) of a generic linear form, taken
    on the null space, has those monomial vectors as eigenvectors. A
    null space of dimension 0 means 1 is in the ideal: there is no root.

    The null space grows degree by degree (Batselier, Dreesen and De Moor,
    J. Comput. Appl. Math. 267, 2014): Mac_d = [[Mac_(d-1), 0], [A, B]],
    [A, B] being the basis times the monomials of degree d - 2, so with N
    the orthonormal kernel of Mac_(d-1) (at degree 2, the complement of the
    basis) null(Mac_d) = blockdiag(N, 1) null([A N, B]), and one SVD of
    [A N, B] gives the rank and the next kernel. Systems with the same basis
    rank and kernel dimension go in lockstep, one batched SVD per degree (at
    degree 2, one of the quadratic columns and one of the affine rows per
    quadratic rank), and each takes the rank decisions it would take alone.
    """
    kept, dropped = np.full(len(rows), np.inf), np.zeros(len(rows))
    weights = _stetter_weights(m)

    def rank(s: np.ndarray, which, absolute: bool = False) -> np.ndarray:
        rel = s if absolute else s / np.where(s[:, :1] > 0, s[:, :1], 1.0)
        r = np.sum(rel > RANK_TOL, axis=1)
        # an absolute decision that keeps nothing has no weakest kept value
        first = np.full((len(s), 1), np.inf if absolute else 0.0)
        ends = np.concatenate([first, rel, np.zeros((len(s), 1))], 1)
        at = np.arange(len(s))
        kept[which] = np.minimum(kept[which], ends[at, r])
        dropped[which] = np.maximum(dropped[which], ends[at, r + 1])
        return r

    def read_roots(at: np.ndarray, kernel: np.ndarray, shift) -> tuple:
        """Set the roots of the systems of a stable lockstep whose kernel
        the monomials of degree < d separate; give back the others."""
        u, sl, vlh = np.linalg.svd(kernel[:, shift[:, 0]],
                                   full_matrices=False)
        done = rank(sl, at) == kernel.shape[-1]
        stetter = ((vlh[done].transpose(0, 2, 1) / sl[done, None])
                   @ u[done].transpose(0, 2, 1)) @ (
            kernel[done][:, shift[:, 1:]].transpose(0, 1, 3, 2) @ weights)
        vecs = kernel[done] @ np.linalg.eig(stetter)[1]
        for j, n in zip(at[done], vecs[:, 1:m + 1] / vecs[:, :1]):
            key = np.round(np.concatenate([n.real, n.imag]), 6)
            roots[j] = n[:, np.lexsort(key[::-1])]
        return at[~done], kernel[~done]

    # a null space needs the full V when rows are fewer than columns
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[1] < rows.shape[2])
    ranks = rank(s, slice(None))
    roots, open_ = [np.zeros((m, 0))] * len(rows), ranks < vh.shape[-1]
    linear = len(_monomials(m, 1))
    for r in set(ranks[open_].tolist()):
        live = np.flatnonzero((ranks == r) & open_)
        # the orthonormal combinations of the basis with no quadratic term;
        # when the constant is in their span, 1 = 0 is in the ideal
        u, sq, _ = np.linalg.svd(vh[live, :r, linear:])
        quadratic = rank(sq, live, absolute=True)
        for q in set(quadratic.tolist()) - {r}:
            at = live[quadratic == q]
            affine = u[quadratic == q, :, q:].transpose(0, 2, 1) @ \
                vh[at, :r, 1:linear]
            n_rank = rank(np.linalg.svd(affine, compute_uv=False), at,
                          absolute=True)
            open_[at[n_rank < r - q]] = False
        live = live[open_[live]]
        # (systems, kernel of the last degree) of each lockstep
        steps = [(live, vh[live, r:].transpose(0, 2, 1))] if len(live) else []
        for d in range(3, MAX_DEGREE + 1):
            if not steps:
                break
            old, width = len(_monomials(m, d - 1)), len(_monomials(m, d))
            # the new rows: the basis times the monomials of degree d - 2.
            # Its columns of degree <= 1 land on old columns, which the
            # kernel reads, and its quadratic ones on new columns
            table = _shifted(m, d, 2)[len(_monomials(m, d - 3)):]
            t, shift = np.arange(len(table))[:, None, None], _shifted(m, d, 1)
            steps, last = [], steps
            for at, kernel in last:
                k = kernel.shape[-1]
                basis = vh[at, None, :r]
                new = np.zeros((len(at), len(table), r, width - old))
                new[:, t, np.arange(r)[None, :, None],
                    table[:, None, linear:] - old] = basis[..., linear:]
                mac = np.concatenate(
                    [basis[..., :linear] @ kernel[:, table[:, :linear]], new],
                    axis=-1).reshape(len(at), -1, k + width - old)
                _, s, mac_vh = np.linalg.svd(
                    mac, full_matrices=mac.shape[1] < mac.shape[2])
                null = mac.shape[2] - rank(s, at)
                for n in set(null.tolist()) - {0}:
                    v = mac_vh[null == n, -n:].transpose(0, 2, 1)
                    step = (at[null == n], np.concatenate(
                        [kernel[null == n] @ v[:, :k], v[:, k:]], axis=1))
                    steps.append(read_roots(*step, shift) if n == k
                                 else step)
            steps = [(at, kernel) for at, kernel in steps if len(at)]
        if steps:
            raise QgharmError(
                f"a Macaulay null space is not stable by degree {MAX_DEGREE}")
    return roots, [(float(a), float(b)) for a, b in zip(kept, dropped)]


def _enumerate(g: FiniteQuantumGroup, relation, tol: float,
               solve=None) -> _Enumeration:
    """Every projection h of g with relation(h) = 0, in the order of the
    block choices and within a choice in the order of _bloch_roots, among
    the choices that the boolean mask solve keeps (all by default).
    relation maps a stack of coefficient vectors to residual arrays and has
    degree <= 2. Choices without a rank-one block are points: one stack of
    them is tested at tol. The others are solved exactly (_bloch_roots), one
    stack per number m of Bloch unknowns in parts of at most
    MAX_MACAULAY_ENTRIES worst-case Macaulay entries; every root must solve
    its system, and each real one gives a projection. Raises QgharmError
    when a block has size 3 or more, before any solve when one choice may
    exceed that bound, or when a system does not resolve."""
    h0, dirs, unknowns = g.blocks.choices
    # basis rank times monomial shifts times columns, at degree MAX_DEGREE
    worst = {m: math.comb(m + 2, 2) * math.comb(m + MAX_DEGREE - 2, m)
             * math.comb(m + MAX_DEGREE, m) for m in set(unknowns.tolist())}
    if max(worst.values()) > MAX_MACAULAY_ENTRIES:
        raise QgharmError(
            f"a block choice may need {max(worst.values())} Macaulay entries, "
            f"above the bound of {MAX_MACAULAY_ENTRIES}")
    if solve is not None:               # no stack takes a skipped choice
        unknowns = np.where(solve, unknowns, -1)
    at = np.flatnonzero(unknowns == 0)
    holds = np.max(np.abs(relation(h0[at])).reshape(len(at), -1),
                   axis=-1) <= tol
    index, found, gaps = [at[holds]], [h0[at[holds]]], []
    for m in sorted(set(unknowns.tolist()) - {0, -1}):
        at = np.flatnonzero(unknowns == m)
        step = MAX_MACAULAY_ENTRIES // worst[m]
        for part in np.split(at, range(step, len(at), step)):
            d = dirs[part, :m]
            rows = _quadratic_rows(relation, h0[part], d)
            roots, gap = _bloch_roots(rows, m)
            gaps += zip(part, gap)
            which = np.repeat(range(len(part)), [r.shape[1] for r in roots])
            n = np.concatenate([r.T for r in roots])
            mono = np.prod(n[:, None] ** np.array(list(_monomials(m, 2))), -1)
            if not np.all(np.abs(np.einsum("rj,rkj->rk", mono, rows[which]))
                          <= ROOT_TOL):
                raise QgharmError("a root of a block choice does "
                                  "not solve its system")
            real = np.all(np.abs(n.imag) <= ROOT_TOL, axis=1)
            unit = n[real].real.reshape(-1, m // 3, 3)
            unit /= np.linalg.norm(unit, axis=-1)[..., None]
            index.append(part[which[real]])
            found.append(h0[index[-1]]
                         + (unit.reshape(-1, 1, m) @ d[which[real]])[:, 0])
    order = np.argsort(np.concatenate(index), kind="stable")
    return _Enumeration(points=list(np.concatenate(found)[order]),
                        choices=len(h0), gaps=[gap for _, gap in sorted(gaps)])


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def shift_check(g: FiniteQuantumGroup, x, h, side: str = "left",
                tol: float = 1e-9) -> Check:
    """Certify x as a left or right shift of the group-like projection h;
    its details hold x, h and the side."""
    if side not in ("left", "right"):
        raise QgharmError("side must be 'left' or 'right'")
    cert = _require_group_like(g, h, tol)
    hc = cert.details["element"].coeffs
    xc = g.coeffs_of(x)
    if not (_maxabs(g.multiply(xc, xc) - xc) <= tol
            and _maxabs(g.star_of(xc) - xc) <= tol):
        raise QgharmError("shift candidate must be a projection")
    res = {k: _maxabs(v) for k, v in _shift_relations(g, xc, hc, side).items()}
    return check("shift", "shift-of-group-like-projection", res, tol,
                 element=g.element(xc),
                 base_projection=cert.details["element"], side=side,
                 scaling_invariance=TRIVIAL_NOTE,
                 modular_invariance=TRIVIAL_NOTE,
                 delta_eigenvalue=TRIVIAL_NOTE + "; mu_x = 1",
                 dual_modular_covariance=TRIVIAL_NOTE)


def _shift_relations(g: FiniteQuantumGroup, xc, hc, side: str) -> dict:
    """The residuals of the shift relations of x over h, one (..., k) array
    per relation, batched over the leading axes of xc."""
    dx, dh = g.delta(xc), g.delta(hc)
    rx = g.antipode_of(xc)
    right_h, right_x = _right_mult(g, hc), _right_mult(g, xc)
    if side == "left":
        rel1 = dx @ right_h - xc[..., :, None] * hc
        rel2 = dh @ right_x - rx[..., :, None] * xc[..., None, :]
    else:
        rel1 = right_h.T @ dx - hc[:, None] * xc[..., None, :]
        rel2 = (np.swapaxes(right_x, -1, -2) @ dh
                - xc[..., :, None] * rx[..., None, :])
    flat = xc.shape[:-1] + (-1,)
    return {"shift_relation": rel1.reshape(flat),
            "base_relation": rel2.reshape(flat),
            "weight_equality": (g.haar_of(xc) - g.haar_of(hc))[..., None]}


def enumerate_left_shifts(g: FiniteQuantumGroup, h) -> list:
    """Every left shift of the group-like projection h, certified at CERT_TOL,
    in the order of the block choices. The list is complete: the shift and
    base relations, the first two of _shift_relations, are solved exactly
    over every block choice, as in enumerate_group_like_projections. They
    imply phi(x) = phi(h): each choice is a projection x != 0, and strong
    invariance S((id . phi)(Delta(h)(1 . x))) = (id . phi)((1 . h)Delta(x))
    reads phi(x) x = phi(h) x by the two relations (R = S)."""
    hc = _require_group_like(g, h, CERT_TOL).details["element"].coeffs
    run = _enumerate(g, lambda x: np.concatenate(
        list(_shift_relations(g, x, hc, "left").values())[:2], axis=-1),
        CERT_TOL)
    certs = [shift_check(g, x, hc, side="left", tol=CERT_TOL)
             for x in run.points]
    _all_certified(c.holds for c in certs)
    return certs


def _partial_isometry_residual(mat: np.ndarray) -> float:
    """How far the matrix is from a multiple of a partial isometry."""
    sv = np.linalg.svd(mat, compute_uv=False)
    s = float(sv[0]) if len(sv) else 0.0
    if s <= 0.0:
        return 0.0
    return float(np.max(np.minimum(sv, s - sv)) / s)


def bipartial_isometry_check(pair: DualPair, x, h) -> Check:
    """A certified left shift is a bi-partial isometry with
    F(x)* F(x) = phi(h) F(h) and operator norm phi(h)."""
    g = pair.base
    cert = shift_check(g, x, h, side="left", tol=CERT_TOL)
    if not cert.holds:
        raise QgharmError(f"shift certificate failed: {cert.residuals}")
    xc = cert.details["element"].coeffs
    hc = cert.details["base_projection"].coeffs
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
    return check("bi-partial-isometry", "fourier-partial-isometry", res,
                 CERT_TOL, haar_value=phi_h)


# ---------------------------------------------------------------------------
# bi-shifts
# ---------------------------------------------------------------------------

def bishift_construct(pair: DualPair, x_h, y, x_tilde, h) -> AlgebraElement:
    """x = (x_h y) * Fhat_1(x_tilde) for certified shifts on both sides.

    x_h must be a certified left shift of h in the base; x_tilde (given by
    dual-basis coefficients) must be a certified left shift of the range
    projection of F(h) in the dual.
    """
    g = pair.base
    base_cert = shift_check(g, x_h, h, side="left", tol=CERT_TOL)
    if not base_cert.holds:
        raise QgharmError(
            f"base shift certificate failed: {base_cert.residuals}")
    h_tilde = range_projection_of_fourier(pair, h)
    dual_cert = shift_check(pair.dual_qg, x_tilde, h_tilde,
                            side="left", tol=CERT_TOL)
    if not dual_cert.holds:
        raise QgharmError(
            f"dual shift certificate failed: {dual_cert.residuals}")
    xy = g.multiply(x_h, y)
    pulled = dual_fourier(pair, dual_cert.details["element"])
    return convolve(g, xy, pulled.coeffs)


def bishift_theorem_check(pair: DualPair, x) -> Check:
    """Extremality of a bi-shift: both x and F(x) are multiples of partial
    isometries, the transform's operator norm equals ||x||_1, and the
    Hausdorff-Young inequality is an equality at BISHIFT_EXPONENTS."""
    g = pair.base
    xc = g.coeffs_of(x)
    if _maxabs(xc) <= CERT_TOL:
        raise QgharmError("zero element cannot be a bi-shift")
    f = _fourier_blocks(pair, xc)
    l1 = lp_norm(base_space(g), xc, 1.0)
    res = {
        "element_partial_isometry": _partial_isometry_residual(
            g.blocks.diag(xc)),
        "fourier_partial_isometry": _partial_isometry_residual(f),
        "transform_sup_equals_l1": abs(float(np.linalg.norm(f, 2)) - l1)
        / max(l1, 1e-300),
    }
    for p in BISHIFT_EXPONENTS:
        rep = hausdorff_young_check(pair, xc, p)
        res[f"extremal_p_{p:g}"] = abs(rep.details["ratio"] - 1.0)
    return check("bi-shift-extremality", "hausdorff-young-extremal", res,
                 CERT_TOL, scaling_invariance=TRIVIAL_NOTE,
                 delta_eigenvalue=TRIVIAL_NOTE + "; mu_x = 1")

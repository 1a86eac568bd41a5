"""Numerical search for best constants and extremal elements.

Estimates the best Young and Hausdorff-Young constants by multistart
projected gradient ascent on the unit L^p spheres, and hunts for a
biprojection that is not group-like by penalized descent. Everything is
seeded and sequential, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .convolution import convolve
from .core import Blocks, FiniteQuantumGroup
from .duality import DualPair, build_dual, fourier_coeffs
from .errors import AxiomFailure, BadExponents
from .lp import (
    base_space,
    conjugate_exponent,
    dual_space,
    lp_norm,
    young_exponent,
)
from .structures import (
    enumerate_group_like_projections,
    is_biprojection,
    is_group_like_projection,
)

__all__ = [
    "SharpnessReport",
    "HuntReport",
    "estimate_best_constant_young",
    "estimate_best_constant_hy",
    "hunt_nongrouplike_biprojection",
]

REL_STEP = 1e-6
REL_IMPROVEMENT = 1e-8
YOUNG_CEILING = 1e-6


@dataclass(frozen=True)
class SharpnessReport:
    kind: str
    exponents: tuple
    constant_estimate: float
    argmax: tuple
    restarts_used: int
    iterations: int
    seed: int
    converged: bool
    history: tuple
    converged_per_restart: tuple


def _cgrad(f: Callable, v: np.ndarray) -> np.ndarray:
    """Central-difference gradient over the 2n real coordinates of v."""
    grad = np.zeros_like(v, dtype=complex)
    mags = np.abs(v)
    for i in range(len(v)):
        h = REL_STEP * max(1.0, float(mags[i]))
        e = np.zeros_like(v)
        e[i] = h
        d_re = (f(v + e) - f(v - e)) / (2.0 * h)
        d_im = (f(v + 1j * e) - f(v - 1j * e)) / (2.0 * h)
        grad[i] = d_re + 1j * d_im
    return grad


def _ascend(objective: Callable, blocks: list, renorms: list,
            max_iter: int) -> tuple:
    """Alternating projected gradient ascent; returns
    (blocks, value, iterations, converged)."""
    blocks = [renorm(b) for b, renorm in zip(blocks, renorms)]
    val = objective(*blocks)
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        prev = val
        for bi in range(len(blocks)):
            def f_of(v, _bi=bi):
                trial = list(blocks)
                trial[_bi] = v
                return objective(*trial)

            grad = _cgrad(f_of, blocks[bi])
            gnorm = float(np.max(np.abs(grad)))
            if gnorm <= 1e-14 * max(1.0, abs(val)):
                continue
            step = 0.5 / gnorm
            for _ in range(30):
                cand = renorms[bi](blocks[bi] + step * grad)
                cval = objective(*[cand if j == bi else blocks[j]
                                   for j in range(len(blocks))])
                if cval > val:
                    blocks[bi] = cand
                    val = cval
                    break
                step *= 0.5
        if val - prev <= REL_IMPROVEMENT * max(abs(prev), 1e-300):
            converged = True
            break
    return blocks, val, it, converged


def _gauge(v: np.ndarray, renorm: Callable) -> np.ndarray:
    """Unit norm with the first significant coefficient real positive.

    Coefficients below 1e-6 of the largest magnitude count as zero here;
    optimizer residue must not steer the phase convention.
    """
    v = renorm(v)
    mags = np.abs(v)
    top = float(np.max(mags))
    if top <= 0.0:
        return v
    idx = int(np.argmax(mags > 1e-6 * top))
    phase = v[idx] / abs(v[idx])
    return v * np.conj(phase)


def _multistart(objective, renorms, n_blocks, dim, restarts, max_iter, seed,
                warm_starts) -> SharpnessReport:
    rng = np.random.default_rng(seed)
    starts = [[rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
               for _ in range(n_blocks)] for _ in range(restarts)]
    starts.extend(warm_starts)

    best_val = -np.inf
    best_blocks = None
    best_converged = False
    history = []
    flags = []
    total_iters = 0
    for blocks0 in starts:
        blocks, val, its, conv = _ascend(objective, list(blocks0), renorms,
                                         max_iter)
        history.append(float(val))
        flags.append(bool(conv))
        total_iters += its
        if val > best_val:
            best_val, best_blocks, best_converged = val, blocks, conv
    gauged = [_gauge(b, r) for b, r in zip(best_blocks, renorms)]
    final = float(objective(*gauged))
    return SharpnessReport(
        kind="",
        exponents=(),
        constant_estimate=final,
        argmax=tuple(gauged),
        restarts_used=len(starts),
        iterations=total_iters,
        seed=seed,
        converged=best_converged,
        history=tuple(history),
        converged_per_restart=tuple(flags),
    )


def estimate_best_constant_young(g: FiniteQuantumGroup, p, q,
                                 restarts: int = 32, iters: int = 2000,
                                 seed: int = 42) -> SharpnessReport:
    """Best constant for ||x * y||_r <= C ||x||_p ||y||_q, 1/r + 1 = 1/p + 1/q.

    Multistart alternating ascent over the two unit spheres; the seeded
    random starts are augmented with warm starts at every enumerated
    group-like projection, so the estimate never falls below a known
    attainment point. Raises AxiomFailure if the estimate exceeds 1 + 1e-6,
    which would contradict the inequality itself.
    """
    r = young_exponent(p, q)
    sp = base_space(g)

    def objective(x, y):
        nx = lp_norm(sp, x, p)
        ny = lp_norm(sp, y, q)
        if nx <= 0 or ny <= 0:
            return 0.0
        return lp_norm(sp, convolve(g, x, y).coeffs, r) / (nx * ny)

    renorms = [lambda v: v / max(lp_norm(sp, v, p), 1e-300),
               lambda v: v / max(lp_norm(sp, v, q), 1e-300)]
    warm = [[c.element.coeffs.astype(complex), c.element.coeffs.astype(complex)]
            for c in enumerate_group_like_projections(g)]
    rep = _multistart(objective, renorms, 2, g.dim, restarts, iters, seed,
                      warm)
    rep = replace(rep, kind="young", exponents=(float(p), float(q), float(r)),
                  argmax=tuple(g.element(v) for v in rep.argmax))
    if rep.constant_estimate > 1.0 + YOUNG_CEILING:
        raise AxiomFailure(
            f"estimated Young constant {rep.constant_estimate} exceeds 1; "
            "the inequality itself would be violated")
    return rep


def estimate_best_constant_hy(g, p, restarts: int = 32, iters: int = 2000,
                              seed: int = 42) -> SharpnessReport:
    """Best constant for ||F(x)||_{p'} <= C ||x||_p over the unit sphere.

    Accepts either the algebra or a prebuilt dual pair. Warm starts at the
    enumerated group-like projections keep the estimate at or above the
    known attainment points.
    """
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise BadExponents("Hausdorff-Young needs p in [1, 2]")
    pair = g if isinstance(g, DualPair) else build_dual(g)
    base = pair.base
    pc = conjugate_exponent(p)
    bsp = base_space(base)
    dsp = dual_space(pair)

    def objective(x):
        nx = lp_norm(bsp, x, p)
        if nx <= 0:
            return 0.0
        return lp_norm(dsp, fourier_coeffs(pair, x), pc) / nx

    renorms = [lambda v: v / max(lp_norm(bsp, v, p), 1e-300)]
    warm = [[c.element.coeffs.astype(complex)]
            for c in enumerate_group_like_projections(base)]
    rep = _multistart(objective, renorms, 1, base.dim, restarts, iters, seed,
                      warm)
    return replace(rep, kind="hausdorff-young", exponents=(p, float(pc)),
                   argmax=tuple(base.element(v) for v in rep.argmax))


# ---------------------------------------------------------------------------
# biprojection hunt
# ---------------------------------------------------------------------------

DISCLAIMER = ("heuristic search: an empty candidate list is evidence, "
              "not a proof, that no non-group-like biprojection exists")


@dataclass(frozen=True)
class HuntReport:
    seed: int
    budget: int
    iterations: int
    candidates: tuple
    near_misses: tuple
    group_like_hits: int
    disclaimer: str = DISCLAIMER


def _nearest_projection_multiple(f: np.ndarray, blocks: Blocks) -> np.ndarray:
    """fit * (spectral rounding of the Hermitian part of f), for a
    block-diagonal f, fitted in the Hilbert-Schmidt inner product of blocks."""
    herm = 0.5 * (f + f.conj().T)
    w, u = np.linalg.eigh(herm)
    denom = blocks.hs(f, f).real
    if denom <= 1e-300:
        return np.zeros_like(f)
    level = blocks.hs(f, f @ f).real / denom
    mask = (w > 0.5 * level).astype(float)
    proj = (u * mask) @ u.conj().T
    pnorm = blocks.hs(proj, proj).real
    if pnorm <= 1e-300:
        return np.zeros_like(f)
    fit = blocks.hs(proj, f) / pnorm
    return fit * proj


def _descend(objective: Callable, v0: np.ndarray, max_iter: int) -> tuple:
    v = v0.copy()
    val = float(objective(v))
    it = 0
    while it < max_iter:
        it += 1
        grad = _cgrad(objective, v)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= 1e-14:
            break
        step = 0.5 / gnorm
        improved = False
        for _ in range(30):
            cand = v - step * grad
            cval = float(objective(cand))
            if cval < val:
                v, val = cand, cval
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if abs(val) <= 1e-16:
            break
    return v, val, it


def _polish_to_projection(g: FiniteQuantumGroup, v: np.ndarray):
    """Spectral rounding of the self-adjoint part onto the nearest
    projection inside the algebra. Returns None when v is too far from
    any projection for rounding to make sense."""
    w, u = np.linalg.eigh(g.blocks.diag(0.5 * (v + g.star_of(v))))
    mask = (w > 0.5).astype(float)
    if not mask.any():
        return None
    return g.blocks.coeffs_of_diag((u * mask) @ u.conj().T)


def hunt_nongrouplike_biprojection(g, budget: int = 8, seed: int = 42,
                                   iters: int = 300, penalty: float = 10.0,
                                   tol: float = 1e-9) -> HuntReport:
    """Search for a biprojection that is not a group-like projection.

    Minimizes J(P) = ||F(P) - fit * projection(F(P))||^2
    + penalty * (||P^2 - P||^2 + ||P - P*||^2) from seeded random starts.
    The first norm is Hilbert-Schmidt on L^2(G), computed in the blocks of
    the dual, each weighted by its multiplicity d_i.
    Each local minimum is spectrally polished onto the projection manifold
    and then certified with is_biprojection and is_group_like_projection.
    Candidates are exact projections where the first certificate holds and
    the second fails; near-misses are small-objective minima that fail to
    polish or certify. Absence of candidates is not a proof of absence.
    """
    pair = g if isinstance(g, DualPair) else build_dual(g)
    base = pair.base
    dual_blocks = pair.dual_qg.blocks

    def objective(v):
        r1 = base.multiply(v, v) - v
        r2 = base.star_of(v) - v
        f = dual_blocks.diag(fourier_coeffs(pair, v))
        j1 = f - _nearest_projection_multiple(f, dual_blocks)
        return (dual_blocks.hs(j1, j1).real
                + penalty * (float(np.real(np.vdot(r1, r1)))
                             + float(np.real(np.vdot(r2, r2)))))

    rng = np.random.default_rng(seed)
    candidates = []
    near_misses = []
    group_like_hits = 0
    total_iters = 0
    for _ in range(budget):
        v0 = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
        v, val, its = _descend(objective, v0, iters)
        total_iters += its
        if float(np.max(np.abs(v))) <= 1e-6:
            continue
        polished = _polish_to_projection(base, v)
        if polished is None or float(np.max(np.abs(polished - v))) > 1e-2:
            if val < 1e-6:
                near_misses.append({
                    "coeffs": [[float(c.real), float(c.imag)] for c in v],
                    "objective": float(val),
                    "reason": "did not polish onto a nearby projection",
                })
            continue
        bi = is_biprojection(pair, polished, tol=tol)
        gl = is_group_like_projection(base, polished, tol=tol)
        entry = {
            "coeffs": [[float(c.real), float(c.imag)] for c in polished],
            "objective": float(val),
            "polish_distance": float(np.max(np.abs(polished - v))),
            "biprojection_residual": float(bi.max_residual),
            "group_like_residuals": dict(gl.residuals),
        }
        if bi.passed and not gl.certified:
            candidates.append(entry)
        elif bi.passed and gl.certified:
            group_like_hits += 1
        elif val < 1e-6:
            near_misses.append(entry)
    return HuntReport(
        seed=seed, budget=budget, iterations=total_iters,
        candidates=tuple(candidates), near_misses=tuple(near_misses),
        group_like_hits=group_like_hits)

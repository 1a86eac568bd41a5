"""Numerical search for best constants and extremal elements.

Estimates the best Young and Hausdorff-Young constants by multistart
projected gradient ascent on the unit L^p spheres, and hunts for a
biprojection that is not group-like by penalized descent. The objectives
take stacks of points, so each central-difference gradient is one call.
Everything is seeded and sequential, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Blocks, FiniteQuantumGroup
from .duality import DualPair, build_dual, fourier_coeffs
from .errors import AxiomFailure, BadExponents
from .lp import (
    base_space,
    conjugate_exponent,
    dual_space,
    hausdorff_young_sides,
    lp_norm,
    young_exponent,
    young_sides,
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
# the sharp constants are at most 1; an estimate above 1 + CEILING is refused
CEILING = 1e-6


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
    """Central-difference gradient over the 2n real coordinates of v.

    f takes a stack of points; the 4n probes v +- h_i e_i and
    v +- i h_i e_i go to it as one (4n, n) stack.
    """
    h = REL_STEP * np.maximum(1.0, np.abs(v))
    steps = np.diag(h).astype(complex)
    vals = f(v + np.concatenate([steps, -steps, 1j * steps, -1j * steps]))
    vals = np.reshape(vals, (4, len(v)))
    two_h = 2.0 * h
    return (vals[0] - vals[1]) / two_h + 1j * ((vals[2] - vals[3]) / two_h)


def _ratio(num, den, floor: float = 0.0):
    """num / den where den > floor, else 0, without a division by zero."""
    ok = den > floor
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


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


def _multistart(g, kind, exponents, objective, renorms, restarts, max_iter,
                seed, warm_starts) -> SharpnessReport:
    """Best of the ascents from seeded random starts and the warm starts.
    Raises AxiomFailure above 1 + CEILING: both sharp constants are 1."""
    rng = np.random.default_rng(seed)
    starts = [[rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
               for _ in renorms] for _ in range(restarts)]
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
    if final > 1.0 + CEILING:
        raise AxiomFailure(
            f"estimated {kind} constant {final} exceeds 1; "
            "the inequality itself would be violated")
    return SharpnessReport(
        kind=kind,
        exponents=exponents,
        constant_estimate=final,
        argmax=tuple(g.element(v) for v in gauged),
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
        return young_sides(g, x, y, p, q, sp)[2]

    renorms = [lambda v: v / max(lp_norm(sp, v, p), 1e-300),
               lambda v: v / max(lp_norm(sp, v, q), 1e-300)]
    warm = [[c.element.coeffs.astype(complex), c.element.coeffs.astype(complex)]
            for c in enumerate_group_like_projections(g)]
    return _multistart(g, "young", (float(p), float(q), float(r)), objective,
                       renorms, restarts, iters, seed, warm)


def estimate_best_constant_hy(g, p, restarts: int = 32, iters: int = 2000,
                              seed: int = 42) -> SharpnessReport:
    """Best constant for ||F(x)||_{p'} <= C ||x||_p over the unit sphere.

    Accepts either the algebra or a prebuilt dual pair. Warm starts at the
    enumerated group-like projections keep the estimate at or above the
    known attainment points. Raises AxiomFailure if the estimate exceeds
    1 + 1e-6, which would contradict the inequality itself.
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
        return hausdorff_young_sides(pair, x, p, bsp, dsp)[2]

    renorms = [lambda v: v / max(lp_norm(bsp, v, p), 1e-300)]
    warm = [[c.element.coeffs.astype(complex)]
            for c in enumerate_group_like_projections(base)]
    return _multistart(base, "hausdorff-young", (p, float(pc)), objective,
                       renorms, restarts, iters, seed, warm)


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
    block-diagonal f, fitted in the Hilbert-Schmidt inner product of blocks;
    batched over the leading axes, and 0 where f or the rounding is 0."""
    w, u = np.linalg.eigh(0.5 * (f + np.conj(f).swapaxes(-1, -2)))
    fnorm = blocks.hs(f, f).real
    level = _ratio(blocks.hs(f, f @ f).real, fnorm, 1e-300)
    mask = (w > 0.5 * level[..., None]).astype(float)
    proj = (u * mask[..., None, :]) @ np.conj(u).swapaxes(-1, -2)
    fit = _ratio(blocks.hs(proj, f), blocks.hs(proj, proj).real, 1e-300)
    return (fit * (fnorm > 1e-300))[..., None, None] * proj


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
                + penalty * np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2, axis=-1))

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

"""Numerical search for best constants.

Estimates the best Young and Hausdorff-Young constants by multistart
projected gradient ascent on the unit L^p spheres, warm-started at the
complete list of group-like projections. All starts ascend in lockstep,
one (R, n) stack per argument. A step moves one argument and holds the
others, through a step objective that returns the ratio and the norm of
the moving argument: for Young the held argument is folded into one linear
map per start, x * y = x K_y or y E_x, and its norm is taken once. A
gradient is one call on the central-difference probes of every active
start, a line search one call on all 30 step halvings of each. The ratio
does not change when the moving argument is scaled, so the halvings are
evaluated as they are, and only the accepted one is normalized, by the norm
that call returned. Each start follows the path it follows alone;
everything is seeded, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolution import left_convolution_matrix, right_convolution_matrix
from .core import FiniteQuantumGroup, _ratio
from .duality import build_dual
from .errors import AxiomFailure, QgharmError
from .lp import (
    base_space,
    conjugate_exponent,
    hausdorff_young_sides,
    lp_norm,
    lp_norms_batch,
    young_exponent,
    young_sides,
)
from .structures import enumerate_group_like_projections

__all__ = [
    "SharpnessReport",
    "estimate_best_constant_young",
    "estimate_best_constant_hy",
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
    """Central-difference gradient over the 2n real coordinates of v, one
    point (n,) or a stack (R, n).

    f takes a stack of points; the 4n probes v +- h_i e_i and
    v +- i h_i e_i of every row go to it as one (..., 4n, n) stack.
    """
    h = REL_STEP * np.maximum(1.0, np.abs(v))
    steps = (h[..., None] * np.eye(v.shape[-1])).astype(complex)
    vals = f(v[..., None, :] + np.concatenate(
        [steps, -steps, 1j * steps, -1j * steps], axis=-2))
    vals = np.reshape(vals, v.shape[:-1] + (4, v.shape[-1]))
    two_h = 2.0 * h
    return ((vals[..., 0, :] - vals[..., 1, :]) / two_h
            + 1j * ((vals[..., 2, :] - vals[..., 3, :]) / two_h))


def _unit(v: np.ndarray, space, p) -> np.ndarray:
    """The rows of a (..., n) stack scaled onto the unit L^p sphere."""
    return v / np.maximum(lp_norms_batch(space, v, p), 1e-300)[..., None]


def _ascend(objective: Callable, step: Callable, blocks: list,
            spheres: list, max_iter: int) -> tuple:
    """Alternating projected gradient ascent from R starts in lockstep.

    blocks holds one (R, n) stack per argument, scaled onto the unit
    sphere of its (space, p) in spheres; objective gives the start values.
    step(bi, held) is the step objective of argument bi with the others at
    held, their (R', n) rows of the active starts: a function f(v, rows)
    of a (len(rows), k, n) stack, rows indexing those R' starts (all by
    default), that returns the ratio and the norm of v, each
    (len(rows), k). A row whose gradient vanishes skips its line search;
    the line search takes the first of the steps 0.5^k / max|grad|,
    k < 30, that raises the value, and scales it onto the sphere by the
    norm f returned; a row leaves the active set once an iteration gains
    less than REL_IMPROVEMENT or its max_iter iterations are spent. Returns
    (blocks, values, iterations, converged), one entry per row.
    """
    # a lone point goes in as a (..., 1, n) slice, which numpy multiplies as
    # one vector, so each row rounds, and breaks ties, as it would alone
    blocks = [_unit(b[:, None], *sph)[:, 0] for b, sph in zip(blocks, spheres)]
    val = objective(*[b[:, None] for b in blocks])[:, 0]
    its, converged = np.zeros(len(val), int), np.zeros(len(val), bool)
    active = np.arange(len(val))
    halvings = 0.5 ** np.arange(30)
    while active.size:
        its[active] += 1
        prev = val[active]
        for bi in range(len(blocks)):
            f = step(bi, [b[active] for b in blocks])
            grad = _cgrad(lambda v: f(v)[0], blocks[bi][active])
            gnorm = np.max(np.abs(grad), axis=-1)
            move = gnorm > 1e-14 * np.maximum(1.0, np.abs(val[active]))
            rows = active[move]
            if not rows.size:
                continue
            steps = (0.5 / gnorm[move])[:, None] * halvings
            cand = blocks[bi][rows, None] + steps[..., None] * grad[move, None]
            up, norm = f(cand, move)
            better = up > val[rows, None]
            hit = np.any(better, axis=-1)
            k = np.argmax(better, axis=-1)[hit]
            blocks[bi][rows[hit]] = cand[hit, k] / norm[hit, k][:, None]
            val[rows[hit]] = up[hit, k]
        done = val[active] - prev <= REL_IMPROVEMENT * np.maximum(
            np.abs(prev), 1e-300)
        converged[active[done]] = True
        active = active[~done & (its[active] < max_iter)]
    return blocks, val, its, converged


def _gauge(v: np.ndarray, space, p) -> np.ndarray:
    """Unit norm with the first significant coefficient real positive.

    Coefficients below 1e-6 of the largest magnitude count as zero here;
    optimizer residue must not steer the phase convention.
    """
    v = v / max(lp_norm(space, v, p), 1e-300)
    mags = np.abs(v)
    top = float(np.max(mags))
    if top <= 0.0:
        return v
    idx = int(np.argmax(mags > 1e-6 * top))
    phase = v[idx] / abs(v[idx])
    return v * np.conj(phase)


def _multistart(g, kind, exponents, objective, step, spheres, restarts,
                max_iter, seed, warm_starts) -> SharpnessReport:
    """Best of the ascents (see _ascend) from seeded random starts and the
    warm starts on the unit spheres, one (space, p) per argument. Raises
    QgharmError on an empty budget, and AxiomFailure above 1 + CEILING:
    both sharp constants are 1."""
    if restarts < 1 or max_iter < 1:
        raise QgharmError(
            f"empty budget: {restarts} restarts, {max_iter} iterations")
    rng = np.random.default_rng(seed)
    starts = [[rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
               for _ in spheres] for _ in range(restarts)] + list(warm_starts)
    stacks = [np.array(column) for column in zip(*starts)]
    blocks, vals, its, flags = _ascend(objective, step, stacks, spheres,
                                       max_iter)
    best = int(np.argmax(vals))
    gauged = [_gauge(b[best], *sph) for b, sph in zip(blocks, spheres)]
    final = float(objective(*gauged))
    if final > 1.0 + CEILING:
        raise AxiomFailure(
            f"estimated {kind} constant {final} exceeds 1; "
            "the inequality itself would be violated",
            claim="sharp-constant-estimate")
    return SharpnessReport(
        kind=kind,
        exponents=exponents,
        constant_estimate=final,
        argmax=tuple(g.element(v) for v in gauged),
        restarts_used=len(starts),
        iterations=int(np.sum(its)),
        seed=seed,
        converged=bool(flags[best]),
        history=tuple(float(v) for v in vals),
        converged_per_restart=tuple(bool(c) for c in flags),
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
        return young_sides(g, x, y, p, q)[2]

    def step(bi, held):
        """The ratio in argument bi, with the other folded into one matrix
        per start (x * y = x K_y or y E_x) and its norm taken once."""
        other = held[1 - bi][:, None]
        fold = (right_convolution_matrix,
                left_convolution_matrix)[bi](g, other)[:, 0]
        other_norm = lp_norms_batch(sp, other, (q, p)[bi])

        def f(v, rows=slice(None)):
            norm = lp_norms_batch(sp, v, (p, q)[bi])
            lhs = lp_norms_batch(sp, v @ fold[rows], r)
            return _ratio(lhs, norm * other_norm[rows]), norm
        return f

    warm = [[c.details["element"].coeffs.astype(complex),
             c.details["element"].coeffs.astype(complex)]
            for c in enumerate_group_like_projections(g)]
    return _multistart(g, "young", (float(p), float(q), float(r)), objective,
                       step, [(sp, p), (sp, q)], restarts, iters, seed, warm)


def estimate_best_constant_hy(g, p, restarts: int = 32, iters: int = 2000,
                              seed: int = 42) -> SharpnessReport:
    """Best constant for ||F(x)||_{p'} <= C ||x||_p over the unit sphere.

    Warm starts at the enumerated group-like projections keep the estimate
    at or above the known attainment points. Raises AxiomFailure if the
    estimate exceeds 1 + 1e-6, which would contradict the inequality itself.
    """
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise QgharmError("Hausdorff-Young needs p in [1, 2]")
    pair = build_dual(g)
    pc = conjugate_exponent(p)

    def objective(x):
        return hausdorff_young_sides(pair, x, p)[2]

    def ratio_and_norm(v, rows=None):
        """The step objective; with one argument nothing is held."""
        _, norm, ratio = hausdorff_young_sides(pair, v, p)
        return ratio, norm

    warm = [[c.details["element"].coeffs.astype(complex)]
            for c in enumerate_group_like_projections(g)]
    return _multistart(g, "hausdorff-young", (p, float(pc)), objective,
                       lambda bi, held: ratio_and_norm, [(base_space(g), p)],
                       restarts, iters, seed, warm)

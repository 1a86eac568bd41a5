"""Numerical search for best constants.

Estimates the best Young and Hausdorff-Young constants by multistart
projected gradient ascent on the unit L^p spheres, warm-started at the
complete list of group-like projections. The objectives take stacks of
points, so each central-difference gradient is one call. Everything is
seeded and sequential, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FiniteQuantumGroup
from .duality import DualPair, build_dual
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
    warm = [[c.details["element"].coeffs.astype(complex),
             c.details["element"].coeffs.astype(complex)]
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
    warm = [[c.details["element"].coeffs.astype(complex)]
            for c in enumerate_group_like_projections(base)]
    return _multistart(base, "hausdorff-young", (p, float(pc)), objective,
                       renorms, restarts, iters, seed, warm)

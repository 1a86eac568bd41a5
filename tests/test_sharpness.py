import dataclasses
import warnings

import numpy as np
import pytest

from qgharm import sharpness
from qgharm.catalog import get_example
from qgharm.duality import build_dual
from qgharm.errors import AxiomFailure, BadExponents
from qgharm.lp import base_space, lp_norm
from qgharm.sharpness import (
    estimate_best_constant_hy,
    estimate_best_constant_young,
    hunt_nongrouplike_biprojection,
)

# restart and iteration budgets are kept small here; the warm starts at the
# enumerated group-like projections already pin the attained value


def test_young_constant_on_two_points_is_one():
    g = get_example("z2-function")
    rep = estimate_best_constant_young(g, 4.0 / 3.0, 4.0 / 3.0,
                                       restarts=4, iters=400, seed=42)
    assert rep.kind == "young"
    assert rep.exponents[:2] == (4.0 / 3.0, 4.0 / 3.0)
    assert rep.exponents[2] == pytest.approx(2.0)
    assert rep.constant_estimate == pytest.approx(1.0, abs=1e-3)
    assert rep.constant_estimate <= 1.0 + 1e-6
    # restarts plus one warm start per enumerated group-like projection
    assert rep.restarts_used == 4 + 2
    assert len(rep.history) == rep.restarts_used
    assert len(rep.converged_per_restart) == rep.restarts_used


def test_young_endpoint_p_q_one_attains_one_exactly():
    g = get_example("z2-function")
    rep = estimate_best_constant_young(g, 1.0, 1.0, restarts=2, iters=100,
                                       seed=1)
    assert rep.constant_estimate == pytest.approx(1.0, abs=1e-9)


def test_young_argmax_is_normalized_and_gauged():
    g = get_example("z3-function")
    sp = base_space(g)
    rep = estimate_best_constant_young(g, 1.5, 1.5, restarts=3, iters=300,
                                       seed=5)
    assert len(rep.argmax) == 2
    x, y = rep.argmax
    assert lp_norm(sp, x.coeffs, 1.5) == pytest.approx(1.0, abs=1e-9)
    assert lp_norm(sp, y.coeffs, 1.5) == pytest.approx(1.0, abs=1e-9)
    # phase gauge: the leading significant coefficient is real positive
    for a in (x, y):
        mags = np.abs(a.coeffs)
        lead = a.coeffs[np.argmax(mags > 1e-6 * mags.max())]
        assert abs(lead.imag) < 1e-8
        assert lead.real > 0


def test_young_search_is_deterministic():
    g = get_example("z2-group")
    r1 = estimate_best_constant_young(g, 2.0, 1.0, restarts=3, iters=200, seed=9)
    r2 = estimate_best_constant_young(g, 2.0, 1.0, restarts=3, iters=200, seed=9)
    assert r1.constant_estimate == r2.constant_estimate
    assert all(np.array_equal(a.coeffs, b.coeffs)
               for a, b in zip(r1.argmax, r2.argmax))
    assert r1.history == r2.history


def test_hy_constant_at_p_two_is_plancherel():
    g = get_example("z2-function")
    rep = estimate_best_constant_hy(g, 2.0, restarts=4, iters=200, seed=42)
    assert rep.kind == "hausdorff-young"
    assert rep.constant_estimate == pytest.approx(1.0, abs=1e-9)


def test_hy_constant_interior_exponent_reaches_one():
    g = get_example("s3-function")
    rep = estimate_best_constant_hy(g, 4.0 / 3.0, restarts=4, iters=300, seed=42)
    assert rep.exponents[0] == 4.0 / 3.0
    assert rep.exponents[1] == pytest.approx(4.0)
    assert 1.0 - 1e-6 <= rep.constant_estimate <= 1.0 + 1e-6


def test_hy_rejects_exponents_outside_the_band():
    g = get_example("z2-function")
    with pytest.raises(BadExponents):
        estimate_best_constant_hy(g, 2.5)
    with pytest.raises(BadExponents):
        estimate_best_constant_hy(g, 0.9)


def test_hunt_finds_no_rogue_biprojection():
    for name in ("z2-function", "s3-function"):
        rep = hunt_nongrouplike_biprojection(get_example(name), budget=4,
                                             seed=3, iters=200)
        assert rep.candidates == ()
        assert rep.near_misses == ()
        assert rep.group_like_hits >= 1, name
        assert "not a proof" in rep.disclaimer


def test_hunt_is_deterministic():
    g = get_example("z2-group")
    r1 = hunt_nongrouplike_biprojection(g, budget=3, seed=11, iters=150)
    r2 = hunt_nongrouplike_biprojection(g, budget=3, seed=11, iters=150)
    assert r1.candidates == r2.candidates
    assert r1.group_like_hits == r2.group_like_hits
    assert r1.iterations == r2.iterations


def test_hy_estimate_above_one_is_refused():
    # a dual weight 16 times too large doubles ||F(x)||_4 at p = 4/3
    pair = build_dual(get_example("s3-function"))
    wrong = dataclasses.replace(pair, dual_weight=16.0 * pair.dual_weight)
    with pytest.raises(AxiomFailure, match="exceeds 1"):
        estimate_best_constant_hy(wrong, 4.0 / 3.0, restarts=1, iters=5)


# ---------------------------------------------------------------------------
# the batched objectives and gradient against a per-point reference
# ---------------------------------------------------------------------------

class _Caught(Exception):
    pass


def _objective_of(monkeypatch, name, run):
    """The objective that run() hands to sharpness.<name>."""
    seen = []

    def grab(*args):
        seen.append(next(a for a in args if callable(a)))
        raise _Caught

    monkeypatch.setattr(sharpness, name, grab)
    with pytest.raises(_Caught):
        run()
    monkeypatch.undo()
    return seen[0]


def _young(monkeypatch, name):
    return _objective_of(monkeypatch, "_multistart", lambda: (
        estimate_best_constant_young(get_example(name), 4.0 / 3.0, 1.5)))


def _hy(monkeypatch, name):
    return _objective_of(monkeypatch, "_multistart", lambda: (
        estimate_best_constant_hy(get_example(name), 4.0 / 3.0)))


def _hunt(monkeypatch, name):
    return _objective_of(monkeypatch, "_descend", lambda: (
        hunt_nongrouplike_biprojection(get_example(name), budget=1)))


def _cgrad_reference(f, v):
    """The per-coordinate central differences, one scalar call per probe."""
    grad = np.zeros_like(v, dtype=complex)
    mags = np.abs(v)
    for i in range(len(v)):
        h = sharpness.REL_STEP * max(1.0, float(mags[i]))
        e = np.zeros_like(v)
        e[i] = h
        d_re = (f(v + e) - f(v - e)) / (2.0 * h)
        d_im = (f(v + 1j * e) - f(v - 1j * e)) / (2.0 * h)
        grad[i] = d_re + 1j * d_im
    return grad


def _points(dim, count, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, dim))
            + 1j * rng.standard_normal((count, dim)))


def _single_argument_cases(monkeypatch):
    """(label, one-argument objective, dim) for every case, Young in each of
    its two arguments with the other held at a random point."""
    for name in ("z2-function", "z3-function", "kac-paljutkin"):
        f = _young(monkeypatch, name)
        dim = get_example(name).dim
        fixed = _points(dim, 1, seed=2)[0]
        yield f"young {name} x", (lambda v, f=f, y=fixed: f(v, y)), dim
        yield f"young {name} y", (lambda v, f=f, x=fixed: f(x, v)), dim
    for name in ("s3-function", "kac-paljutkin"):
        yield f"hy {name}", _hy(monkeypatch, name), get_example(name).dim
    for name in ("kac-paljutkin", "s3-group"):
        yield f"hunt {name}", _hunt(monkeypatch, name), get_example(name).dim


def test_batched_gradient_matches_the_per_coordinate_loop(monkeypatch):
    for label, f, dim in list(_single_argument_cases(monkeypatch)):
        for v in _points(dim, 3, seed=4):
            got = sharpness._cgrad(f, v)
            ref = _cgrad_reference(f, v)
            gap = np.abs(got - ref)
            assert np.all(gap <= 1e-7 * np.maximum(1.0, np.abs(ref))), label


def test_objectives_on_a_stack_match_row_by_row(monkeypatch):
    for label, f, dim in list(_single_argument_cases(monkeypatch)):
        stack = _points(dim, 5, seed=6)
        stack[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(stack)
            rows = np.array([f(v) for v in stack])
        assert got.shape == (5,), label
        assert got[2] == 0.0, label
        assert np.all(np.abs(got - rows) <= 1e-12 * np.abs(rows)), label

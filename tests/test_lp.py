import itertools

import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import convolve
from qgharm.core import (
    Blocks,
    CayleyTable,
    build_function_algebra,
    build_group_algebra,
    cyclic_table,
    dihedral_table,
    symmetric_table_s3,
)
from qgharm.duality import build_dual, fourier_coeffs
from qgharm.errors import QgharmError
from test_duality import _transported
from qgharm.lp import (
    base_space,
    conjugate_exponent,
    dual_space,
    hausdorff_young_check,
    hausdorff_young_sides,
    holder_check,
    lp_norm,
    lp_norms_batch,
    norm_transport_check,
    spectral_data,
    weighted_space,
    young_check,
    young_exponent,
    young_sides,
)
from qgharm.sharpness import (
    estimate_best_constant_hy,
    estimate_best_constant_young,
)

INF = float("inf")


def _random(g, seed, count=1):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((count, g.dim)) + 1j * rng.standard_normal((count, g.dim))
    return out[0] if count == 1 else out


# ---------------------------------------------------------------------------
# exponent arithmetic
# ---------------------------------------------------------------------------

def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)
    with pytest.raises(QgharmError,
                       match=r"^exponent 0\.5 is outside \[1, inf\]$"):
        conjugate_exponent(0.5)


def test_young_exponent():
    assert young_exponent(1.0, 1.0) == 1.0
    assert young_exponent(2.0, 1.0) == 2.0
    assert young_exponent(2.0, 2.0) == INF
    assert young_exponent(4.0 / 3.0, 4.0 / 3.0) == pytest.approx(2.0)
    with pytest.raises(QgharmError, match=r"^no Young exponent for "
                                          r"\(p, q\) = \(3\.0, 3\.0\)$"):
        young_exponent(3.0, 3.0)


# ---------------------------------------------------------------------------
# the norm itself
# ---------------------------------------------------------------------------

def test_commutative_norm_is_the_weighted_entrywise_norm():
    """On C(Z_n) the spectral norm formula must collapse to the plain
    weighted p-norm of the function values."""
    g = build_function_algebra(cyclic_table(5))
    sp = base_space(g)
    x = _random(g, seed=0)
    for p in (1.0, 4.0 / 3.0, 2.0, 3.0):
        direct = (np.sum(np.abs(x) ** p) / 5.0) ** (1.0 / p)
        assert lp_norm(sp, x, p) == pytest.approx(direct, rel=1e-12)
    assert lp_norm(sp, x, INF) == pytest.approx(np.max(np.abs(x)), rel=1e-12)


def test_group_algebra_closed_form_on_z2():
    # a u_0 + b u_1 has eigenvalues a + b and a - b, each with weight 1/2
    g = get_example("z2-group")
    sp = base_space(g)
    a, b = 1.3, -0.4
    for p in (1.0, 2.0, 4.0):
        direct = (0.5 * abs(a + b) ** p + 0.5 * abs(a - b) ** p) ** (1.0 / p)
        assert lp_norm(sp, [a, b], p) == pytest.approx(direct, rel=1e-12)


def test_l2_norm_matches_the_gram_form():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        sp = base_space(g)
        x = _random(g, seed=1)
        direct = float(np.sqrt((x.conj() @ g.gram @ x).real))
        assert lp_norm(sp, x, 2.0) == pytest.approx(direct, rel=1e-10), name


def test_norm_is_monotone_in_p_under_a_state():
    # for a state, p <= q implies ||x||_p <= ||x||_q
    g = get_example("kac-paljutkin")
    sp = base_space(g)
    x = _random(g, seed=2)
    ps = [1.0, 1.5, 2.0, 3.0, 6.0, INF]
    vals = [lp_norm(sp, x, p) for p in ps]
    for a, b in zip(vals, vals[1:]):
        assert a <= b * (1.0 + 1e-12)


def test_norm_of_projection_has_closed_form():
    # ||h||_p = phi(h)^{1/p} for a projection h
    g = get_example("z4-function")
    sp = base_space(g)
    h = np.array([1.0, 0.0, 1.0, 0.0])  # indicator of the even subgroup
    for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
        assert lp_norm(sp, h, p) == pytest.approx(0.5 ** (1.0 / p), rel=1e-12)
    assert lp_norm(sp, h, INF) == pytest.approx(1.0, rel=1e-12)


def test_batch_norms_match_single_calls():
    g = get_example("s3-group")
    sp = base_space(g)
    xs = _random(g, seed=3, count=8)
    batch = lp_norms_batch(sp, xs, 4.0 / 3.0)
    for i in range(8):
        assert batch[i] == pytest.approx(lp_norm(sp, xs[i], 4.0 / 3.0), rel=1e-12)


def test_triangle_inequality_and_scaling():
    g = get_example("s3-function")
    sp = base_space(g)
    x, y = _random(g, seed=4, count=2)
    for p in (1.0, 2.0, 3.0, INF):
        assert lp_norm(sp, x + y, p) <= (lp_norm(sp, x, p) + lp_norm(sp, y, p)) * (1 + 1e-12)
        assert lp_norm(sp, 2.5 * x, p) == pytest.approx(2.5 * lp_norm(sp, x, p), rel=1e-12)


# ---------------------------------------------------------------------------
# second route: the regular representation
# ---------------------------------------------------------------------------

def _s4_table():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return CayleyTable(table=tuple(
        tuple(index[tuple(p[q[x]] for x in range(4))] for q in perms)
        for p in perms)).validate()


def _spaces():
    """Base and dual spaces of the catalog and of complex transports of it,
    and algebras with several matrix blocks of unequal weight c_i: C[S4]
    (blocks 1, 1, 2, 3, 3), the dual of l^inf(S4), and C[D5] (blocks
    1, 1, 2, 2) under a central weight that is not the Haar state."""
    for name in EXAMPLE_NAMES:
        for g in (get_example(name), _transported(get_example(name), seed=7)):
            pair = build_dual(g)
            yield g, g.haar
            yield pair.dual_qg, pair.dual_weight
    s4 = build_group_algebra(_s4_table())
    yield s4, s4.haar
    pair = build_dual(build_function_algebra(_s4_table()))
    yield pair.dual_qg, pair.dual_weight
    d5 = build_group_algebra(dihedral_table(5))
    yield d5, d5.blocks.trace_form(np.array([0.3, 1.1, 0.7, 2.9]))


def _regular_norms(g, weight, xs, p):
    """L^p norms in the left regular representation conjugated by G^{1/2},
    with a least-squares density D, Tr(D pi(e_s)) = weight[s], and one
    eigendecomposition of |x|^2 per element."""
    lam, v = np.linalg.eigh(g.gram)
    root = (v * np.sqrt(lam)) @ v.conj().T
    root_inv = (v / np.sqrt(lam)) @ v.conj().T
    ops = np.einsum("pk,ikj,jq->ipq", root, g.left_regular, root_inv)
    n = g.dim
    rows = ops.transpose(0, 2, 1).reshape(n, n * n)
    vec_d, *_ = np.linalg.lstsq(rows, weight.astype(complex), rcond=None)
    assert np.max(np.abs(rows @ vec_d - weight)) < 1e-10
    density = vec_d.reshape(n, n)
    density = 0.5 * (density + density.conj().T)
    mats = np.einsum("bs,sij->bij", xs, ops)
    w, vecs = np.linalg.eigh(np.conj(mats).swapaxes(1, 2) @ mats)
    w = np.clip(w, 0.0, None)
    if p == INF:
        return np.sqrt(np.max(w, axis=1))
    d = np.real(np.einsum("bji,jl,bli->bi", np.conj(vecs), density, vecs))
    return np.sum(w ** (p / 2) * d, axis=1) ** (1 / p)


def test_block_norms_match_the_regular_representation():
    for g, weight in _spaces():
        sp = weighted_space(g, weight)
        xs = _random(g, seed=10, count=20)
        for p in (1.0, 4.0 / 3.0, 2.0, 4.0, INF):
            want = _regular_norms(g, weight, xs, p)
            got = lp_norms_batch(sp, xs, p)
            assert np.max(np.abs(got - want) / want) < 1e-12, (g.name, p)


def test_block_picture_turns_star_into_adjoint():
    # the gates of Blocks, checked from the outside: rho is a
    # *-homomorphism and sum_i c_i tr rho_i is the weight
    for g, weight in _spaces():
        b = g.blocks
        x, y = _random(g, seed=11, count=2)
        rx = b.diag(x)
        assert np.max(np.abs(rx @ b.diag(y) - b.diag(g.multiply(x, y)))) < 1e-10
        assert np.max(np.abs(rx.conj().T - b.diag(g.star_of(x)))) < 1e-10
        c = np.repeat(b.weights(weight), b.sizes)
        assert abs(c @ np.diag(rx) - weight @ x) < 1e-10 * np.max(np.abs(weight)), g.name
        assert np.max(np.abs(b.coeffs_of_diag(rx) - x)) < 1e-12, g.name


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def test_young_holds_on_random_samples():
    pairs = [(1.0, 1.0), (4.0 / 3.0, 4.0 / 3.0), (3.0 / 2.0, 2.0), (2.0, 1.0)]
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        rng = np.random.default_rng(123)
        for _ in range(50):
            x = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
            y = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
            for p, q in pairs:
                rep = young_check(g, x, y, p, q)
                assert rep.holds, (name, p, q, rep.details["ratio"])


def test_young_equality_at_a_group_like_projection():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    rep = young_check(g, h, h, 4.0 / 3.0, 4.0 / 3.0)
    assert rep.details["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_young_endpoint_q_one():
    g = get_example("s3-group")
    x, y = _random(g, seed=5, count=2)
    for p in (1.0, 2.0, INF):
        rep = young_check(g, x, y, 1.0, p)
        assert rep.holds


def test_hausdorff_young_random_and_endpoint():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
            for p in (1.0, 4.0 / 3.0, 2.0):
                rep = hausdorff_young_check(pair, x, p)
                assert rep.holds, (name, p, rep.details["ratio"])
            # p = 2 is the Plancherel identity, an equality
            rep = hausdorff_young_check(pair, x, 2.0)
            assert rep.details["ratio"] == pytest.approx(1.0, abs=1e-11)


def test_stacked_ratios_match_the_per_sample_checks():
    # the reference is the per-sample formula with scalar norms; the last
    # row is zero and takes the 0 / 0 = 0 branch
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        bsp, dsp = base_space(g), dual_space(pair)
        xs = np.vstack([_random(g, seed=12, count=30), np.zeros(g.dim)])
        ys = _random(g, seed=13, count=31)
        for p, q in ((1.0, 1.0), (4.0 / 3.0, 4.0 / 3.0), (1.5, 2.0), (2.0, 2.0)):
            r = young_exponent(p, q)
            want = [lp_norm(bsp, convolve(g, x, y), r)
                    / (lp_norm(bsp, x, p) * lp_norm(bsp, y, q)) for x, y in
                    zip(xs[:-1], ys)] + [0.0]
            loop = [young_check(g, x, y, p, q).details["ratio"] for x, y in zip(xs, ys)]
            for got in (young_sides(g, xs, ys, p, q)[2], loop):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=name)
        for p in (1.0, 4.0 / 3.0, 2.0):
            pc = conjugate_exponent(p)
            want = [lp_norm(dsp, fourier_coeffs(pair, x), pc) / lp_norm(bsp, x, p)
                    for x in xs[:-1]] + [0.0]
            loop = [hausdorff_young_check(pair, x, p).details["ratio"] for x in xs]
            for got in (hausdorff_young_sides(pair, xs, p)[2], loop):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=name)


def test_a_nan_coefficient_fails_both_inequalities():
    # the eigenvalue fuzz filter used to turn the NaN into 0, so both
    # checks held with ratio 0
    g = get_example("z3-function")
    x = np.array([1.0, np.nan, 0.0])
    checks = (young_check(g, x, x, 4.0 / 3.0, 4.0 / 3.0),
              hausdorff_young_check(build_dual(g), x, 4.0 / 3.0))
    for rep in checks:
        assert not rep.holds
        assert list(rep.failing()) == ["excess"]


def test_eigen_weights_are_computed_once_per_algebra_and_pair(monkeypatch):
    # every call derives its spaces, but only the first computes weights
    calls = []
    weights = Blocks.weights
    monkeypatch.setattr(Blocks, "weights",
                        lambda self, w: calls.append(w) or weights(self, w))
    x, y = _random(get_example("s3-group"), seed=14, count=2)

    def weights_calls(run) -> int:
        """The Blocks.weights calls of run on a fresh s3-group."""
        calls.clear()
        run(build_group_algebra(symmetric_table_s3()))
        return len(calls)

    def young_checks(times):
        return lambda g: [young_check(g, x, y, 4.0 / 3.0, 1.5)
                          for _ in range(times)]

    assert weights_calls(young_checks(1)) == weights_calls(young_checks(10))
    for estimate, exponents in ((estimate_best_constant_young, (1.5, 1.5)),
                                (estimate_best_constant_hy, (1.5,))):
        reports = []

        def search(iters, estimate=estimate, exponents=exponents):
            return lambda g: reports.append(estimate(
                g, *exponents, restarts=2, iters=iters, seed=3))

        assert weights_calls(search(2)) == weights_calls(search(20))
        assert reports[0].iterations < reports[1].iterations


def test_hausdorff_young_rejects_large_p():
    pair = build_dual(get_example("z2-function"))
    with pytest.raises(QgharmError,
                       match=r"^Hausdorff-Young needs p in \[1, 2\]$"):
        hausdorff_young_check(pair, np.ones(2), 3.0)


def test_hausdorff_young_point_mass_value():
    # |F(delta_0)| has one eigenvalue 1/2 of dual weight 2 and one eigenvalue 0;
    # at p = 4/3 both sides equal (1/2)^{3/4}
    pair = build_dual(get_example("z2-function"))
    rep = hausdorff_young_check(pair, np.eye(2)[0], 4.0 / 3.0)
    assert rep.lhs == pytest.approx(0.5 ** 0.75, rel=1e-12)
    assert rep.rhs == pytest.approx(0.5 ** 0.75, rel=1e-12)


def test_norm_transport_along_inversion():
    g = get_example("z4-function")
    table = cyclic_table(4)
    alpha = np.zeros((4, 4))
    for i in range(4):
        alpha[table.inverse[i], i] = 1.0
    rep = norm_transport_check(g, alpha, _random(g, seed=8), 3.0)
    assert rep.holds
    with pytest.raises(QgharmError, match="^alpha does not preserve the "
                                          "algebra structure$"):
        norm_transport_check(g, np.diag([1.0, 2.0, 1.0, 1.0]), np.ones(4), 2.0)


def test_holder_and_functional_submultiplicativity():
    g = get_example("kac-paljutkin")
    x, y = _random(g, seed=9, count=2)
    assert holder_check(g, x, y, 4.0 / 3.0).holds
    assert holder_check(g, x, y, 1.0).holds
    assert young_check(g, x, y, 1.0, 1.0).holds


def test_weighted_space_accepts_the_dual_weight():
    pair = build_dual(get_example("s3-group"))
    sp = weighted_space(pair.dual_qg, pair.dual_weight)
    # total mass is dim, not 1
    assert lp_norm(sp, pair.dual_qg.unit, 1.0) == pytest.approx(6.0, rel=1e-12)


def test_large_exponents_factor_out_the_largest_eigenvalue():
    # w^{p/2} overflows for eigenvalues above 1 and leaves the normal range
    # for those below it; the norm is still t^{1/2} (sum (w/t)^{p/2} d)^{1/p}
    g = get_example("kac-paljutkin")
    pair = build_dual(g)
    xs = _random(g, seed=9, count=4)
    for space, coeffs in ((base_space(g), xs),
                          (dual_space(pair), fourier_coeffs(pair, xs))):
        top = np.max(spectral_data(space, coeffs)[0], axis=-1)
        # rows with largest eigenvalue about 1 keep the plain sum bit for
        # bit, in the same batch as rows that need the factored form
        batch = np.concatenate([coeffs / np.sqrt(top)[:, None],
                                1e3 * coeffs, 1e-3 * coeffs])
        w, d = spectral_data(space, batch)
        top = np.max(w, axis=-1)
        for p in (1001.0, 4000.0):
            got = lp_norms_batch(space, batch, p)
            plain = np.sum(w[:4] ** (0.5 * p) * d, axis=-1).real ** (1 / p)
            assert np.array_equal(got[:4], plain)
            want = np.sqrt(top) * np.sum(
                (w / top[:, None]) ** (0.5 * p) * d, axis=-1).real ** (1 / p)
            np.testing.assert_allclose(got, want, rtol=1e-13)
            # sums that only leave the normal range, on their own
            np.testing.assert_allclose(lp_norms_batch(space, batch[8:], p),
                                       want[8:], rtol=1e-13)
    assert lp_norm(base_space(g), np.zeros(g.dim), 4000.0) == 0.0

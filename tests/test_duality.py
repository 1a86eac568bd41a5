import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import convolve
from qgharm.core import FiniteQuantumGroup, symmetric_table_s3, verify_axioms
from qgharm.duality import (
    biduality_check,
    build_dual,
    comult_conjugation_residual,
    convolution_theorem_check,
    dual_fourier,
    element_from_json,
    element_to_json,
    fourier,
    fourier_coeffs,
    lp2_norm_base,
    lp2_norm_dual,
    pentagon_residual,
    plancherel_check,
    to_dual_coeffs,
)
from qgharm.errors import AxiomFailure, NotInDual


def _random(g, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)


def _maxabs(a):
    return float(np.max(np.abs(a)))


def _transported(g, seed):
    """g in the basis f_i = sum_j T[j, i] e_j, T = unitary . diag(1 + 0.2u).

    On the catalog S and the star are real and commute; here they are
    complex and do not, so formulas that only agree on the catalog differ.
    """
    rng = np.random.default_rng(seed)
    n = g.dim
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = np.linalg.qr(z)[0] @ np.diag(1.0 + 0.2 * rng.uniform(size=n))
    ti = np.linalg.inv(t)
    mult = np.einsum("ai,bj,abc,kc->ijk", t, t, g.mult, ti)
    comult = np.einsum("ia,jb,abc,ck->ijk", ti, ti, g.comult3, t)
    return FiniteQuantumGroup(
        dim=n, mult=mult, unit=ti @ g.unit, comult=comult.reshape(n * n, n),
        counit=g.counit @ t, antipode=ti @ g.antipode @ t,
        star=ti @ g.star @ np.conj(t), haar=g.haar @ t,
        name=f"{g.name}-transported")


def _catalog_and_transports():
    for name in EXAMPLE_NAMES:
        yield get_example(name)
        yield _transported(get_example(name), seed=7)


def _legs_of_w(g, w):
    """Second legs B_s of W = sum_s pi(e_s) . B_s, by least squares."""
    n = g.dim
    r = w.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    cols = g.left_regular.reshape(n, n * n).T
    legs, *_ = np.linalg.lstsq(cols, r, rcond=None)
    assert _maxabs(cols @ legs - r) < 1e-12
    return legs.reshape(n, n, n)


def _over_basis(basis, mats):
    """Coefficients of stacked matrices over a stacked basis; exact fit."""
    k = basis.shape[0]
    cols = basis.reshape(k, -1).T
    flat = mats.reshape(-1, cols.shape[0]).T
    sol, *_ = np.linalg.lstsq(cols, flat, rcond=None)
    assert _maxabs(cols @ sol - flat) < 1e-12
    return sol.T.reshape(mats.shape[:-2] + (k,))


def test_closed_form_dual_matches_the_multiplicative_unitary():
    """Every closed-form dual field against the data W determines."""
    for g in _catalog_and_transports():
        n = g.dim
        pair = build_dual(g)
        d = pair.dual_qg
        b = pair.dual_basis
        w = np.linalg.inv(pair.w_star)
        assert _maxabs(pair.w - w) < 1e-12, g.name
        assert _maxabs(_legs_of_w(g, w) - b) < 1e-12, g.name

        prods = np.einsum("sij,tjk->stik", b, b)
        assert _maxabs(_over_basis(b, prods) - d.mult) < 1e-12, g.name
        assert _maxabs(_over_basis(b, np.eye(n)) - d.unit) < 1e-12, g.name
        adjs = np.linalg.solve(g.gram, b.conj().transpose(0, 2, 1) @ g.gram)
        assert _maxabs(_over_basis(b, adjs).T - d.star) < 1e-12, g.name
        q_inv = np.linalg.inv(g.q_matrix)
        assert _maxabs(g.haar @ q_inv - d.counit) < 1e-12, g.name
        assert _maxabs(g.q_matrix @ g.antipode @ q_inv - d.antipode) < 1e-12

        # What = Sigma W* Sigma conjugates 1 . B_s to Deltahat(B_s)
        flip = np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3)
        flip = flip.reshape(n * n, n * n)
        what = flip @ pair.w_star @ flip
        conj = np.stack([flip @ w @ flip @ np.kron(np.eye(n), b[s]) @ what
                         for s in range(n)])
        comult = np.einsum("uvs,uac,vbd->sabcd", d.comult3, b, b)
        assert _maxabs(conj - comult.reshape(n, n * n, n * n)) < 1e-12

        # the first legs of What are pi(S e_s), which dual_fourier uses
        pi_s = np.einsum("is,ikl->skl", g.antipode, g.left_regular)
        legs = np.einsum("sac,sbd->abcd", b, pi_s).reshape(n * n, n * n)
        assert _maxabs(what - legs) < 1e-12, g.name

        # Plancherel system: phihat(F(e_i)* F(e_t)) = G[i, t]
        fe = np.einsum("si,sjk->ijk", g.q_matrix, b)
        fe_adj = np.linalg.solve(g.gram, fe.conj().transpose(0, 2, 1) @ g.gram)
        kmat = _over_basis(b, np.einsum("ijk,tkl->itjl", fe_adj, fe))
        assert _maxabs(kmat @ pair.dual_weight - g.gram) < 1e-12, g.name
        assert _maxabs(d.haar * pair.dual_weight_total
                       - pair.dual_weight) < 1e-12, g.name


def test_transported_copies_keep_the_duality_stack():
    for name in EXAMPLE_NAMES:
        g = _transported(get_example(name), seed=7)
        pair = build_dual(g)
        assert pentagon_residual(pair) < 1e-9, name
        assert comult_conjugation_residual(pair) < 1e-10, name
        assert plancherel_check(pair).max_residual < 1e-12, name
        assert biduality_check(g).max_residual < 1e-12, name
        x = _random(g, seed=5)
        back = dual_fourier(pair, fourier(pair, x)).coeffs
        assert _maxabs(back - x) < 1e-12, name
        # a star formula that is right on the catalog only
        assert _maxabs(pair.dual_qg.star - g.star.T @ g.antipode.T) > 0.1


def test_pentagon_and_conjugation_are_exact_on_the_catalog():
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        assert pentagon_residual(pair) == 0.0, name
        assert comult_conjugation_residual(pair) == 0.0, name


def test_single_entry_mutation_fails_the_base_gate():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        fields = {f: np.array(getattr(g, f)) for f in (
            "mult", "unit", "comult", "counit", "antipode", "star", "haar")}
        for field, arr in fields.items():
            for idx in np.ndindex(arr.shape):
                bad = arr.copy()
                bad[idx] += 1e-6
                mutant = FiniteQuantumGroup(dim=g.dim, **{**fields, field: bad})
                with pytest.raises(AxiomFailure):
                    build_dual(mutant)


def test_corrupted_unitary_fails_the_pentagon():
    rng = np.random.default_rng(11)
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        w = pair.w
        for _ in range(4):
            bad = w.copy()
            bad[tuple(rng.integers(0, w.shape[0], size=2))] += 1e-3
            pair.w = bad
            assert pentagon_residual(pair) > 1e-9, name


def test_dual_satisfies_the_axioms():
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        rep = verify_axioms(pair.dual_qg, tol=1e-10)
        assert rep.passed, f"{name}: {rep.failing()}"


def test_dual_weight_total_is_the_dimension():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        assert pair.dual_weight_total == pytest.approx(g.dim, abs=1e-12)


def test_dual_of_z2_functions_is_the_z2_group_algebra():
    pair = build_dual(get_example("z2-function"))
    gz2 = get_example("z2-group")
    d = pair.dual_qg
    assert np.max(np.abs(d.mult - gz2.mult)) < 1e-14
    assert np.max(np.abs(d.comult - gz2.comult)) < 1e-14
    assert np.max(np.abs(d.star - gz2.star)) < 1e-14
    assert np.max(np.abs(d.haar - gz2.haar)) < 1e-14


def test_dual_of_s3_group_algebra_is_s3_functions():
    """The dual basis element B_s corresponds to delta_{s^{-1}}; the relabel
    must intertwine multiplication, comultiplication, and the Haar state."""
    pair = build_dual(get_example("s3-group"))
    fn = get_example("s3-function")
    d = pair.dual_qg
    inv = symmetric_table_s3().inverse
    t = np.zeros((6, 6))
    for s in range(6):
        t[inv[s], s] = 1.0
    lhs = np.einsum("stu,ku->stk", d.mult, t)
    rhs = np.einsum("is,jt,ijk->stk", t, t, fn.mult)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    lhs = np.einsum("uvs,iu,jv->ijs", d.comult3, t, t)
    rhs = np.einsum("ks,ijk->ijs", t, fn.comult3)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    assert np.max(np.abs(d.haar - fn.haar @ t)) < 1e-14


def test_plancherel_on_seeded_samples():
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        rep = plancherel_check(pair, samples=100, seed=42)
        assert rep.passed, name
        assert rep.max_residual < 1e-12, name


def test_plancherel_single_element_norms():
    g = get_example("kac-paljutkin")
    pair = build_dual(g)
    x = _random(g, seed=2)
    lhs = lp2_norm_dual(pair, fourier_coeffs(pair, x))
    assert lhs == pytest.approx(lp2_norm_base(g, x), rel=1e-12)


def test_convolution_theorem():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        rep = convolution_theorem_check(pair, _random(g, 3), _random(g, 4))
        assert rep.passed, name


def test_transform_of_point_mass_is_a_scaled_projection():
    pair = build_dual(get_example("z2-function"))
    f = fourier(pair, np.eye(2)[0])
    assert np.max(np.abs(f @ f - 0.5 * f)) == 0.0


def test_inverse_transform_roundtrip():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        x = _random(g, seed=5)
        back = dual_fourier(pair, fourier(pair, x)).coeffs
        assert np.max(np.abs(back - x)) < 1e-12, name


def test_to_dual_coeffs_gates_membership():
    pair = build_dual(get_example("s3-group"))
    x = _random(pair.base, seed=6)
    c = fourier_coeffs(pair, x)
    mat = fourier(pair, x)
    sol = to_dual_coeffs(pair, mat)
    assert np.max(np.abs(sol - c)) < 1e-10
    # the function algebra C(S3) sits diagonally, most matrices are outside
    outside = np.zeros((6, 6), dtype=complex)
    outside[0, 3] = 1.0
    with pytest.raises(NotInDual):
        to_dual_coeffs(pair, outside)


def test_biduality_on_the_catalog():
    for name in EXAMPLE_NAMES:
        rep = biduality_check(get_example(name))
        assert rep.passed, f"{name}: {rep.details}"
        assert rep.max_residual < 1e-12, name


def test_element_json_roundtrip():
    doc = element_to_json(np.array([1.0 + 2.0j, -0.5]), "dual")
    owner, c = element_from_json(doc)
    assert owner == "dual"
    assert np.max(np.abs(c - np.array([1.0 + 2.0j, -0.5]))) == 0.0
    with pytest.raises(ValueError):
        element_to_json([1.0], "primal")


def _catalog_pairs_and_dual_pairs():
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        yield pair
        yield build_dual(pair.dual_qg)


def test_batched_ops_match_their_definitions():
    """multiply, star_of, haar_of, convolve, fourier_coeffs, fourier and
    Blocks.hs on one vector and on stacks (broadcast either way) against
    einsum/vdot."""
    rng = np.random.default_rng(5)

    def close(got, ref):
        assert got.shape == ref.shape
        assert _maxabs(got - ref) <= 1e-13 * max(1.0, _maxabs(ref))

    for pair in _catalog_pairs_and_dual_pairs():
        g = pair.base
        n = g.dim
        xs = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        ys = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for x, y in ((xs[0], ys[0]), (xs, ys), (xs, ys[1]), (xs[2], ys)):
            close(g.multiply(x, y), np.einsum("...i,...j,ijk->...k", x, y, g.mult))
            close(g.star_of(x), np.einsum("ij,...j->...i", g.star, np.conj(x)))
            close(np.asarray(g.haar_of(x)), np.einsum("k,...k->...", g.haar, x))
            w = np.einsum("pi,pk,...k->...i", g.antipode, g.q_matrix, x)
            dy = np.einsum("ak,...k->...a", g.comult, y).reshape(y.shape[:-1] + (n, n))
            close(convolve(g, x, y).coeffs, np.einsum("...i,...ij->...j", w, dy))
            coeffs = np.einsum("sk,...k->...s", g.q_matrix, x)
            close(fourier_coeffs(pair, x), coeffs)
            close(fourier(pair, x), np.einsum("...s,sij->...ij", coeffs, pair.dual_basis))
            a, b = np.broadcast_arrays(g.blocks.diag(x), g.blocks.diag(y))
            weighted = g.blocks.multiplicity[:, None] * b
            ref = np.array([np.vdot(u, v) for u, v in
                            zip(a.reshape(-1, *a.shape[-2:]),
                                weighted.reshape(-1, *a.shape[-2:]))])
            close(np.reshape(g.blocks.hs(a, b), -1), ref)

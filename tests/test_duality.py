from dataclasses import replace

import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import convolve
from qgharm.core import (FiniteQuantumGroup, _maxabs, build_function_algebra,
                         build_group_algebra, cyclic_table, dihedral_table,
                         symmetric_table_s3, verify_axioms)
from qgharm.duality import (
    _factors,
    _premises,
    biduality_check,
    build_dual,
    dual_fourier,
    fourier_coeffs,
    pentagon_residual,
    plancherel_check,
)
from qgharm.errors import AxiomFailure
from reference import (TENSORS, _conjugation_reference, _dual_basis, _fourier,
                       _gamma, _gram_norm, _kron_group, _legs_of_w,
                       _operator_bound, _over_basis, _pentagon_by_column,
                       _pentagon_reference, _random, _s4_table,
                       _sampled_plancherel_bound, _sampled_plancherel_check,
                       _transported, _unitary, _w_by_solve, _w_star,
                       catalog_pairs)


def test_closed_form_dual_matches_the_multiplicative_unitary():
    """Every closed-form dual field against the data W determines, with W
    the inverse of W* and, within 1e-12, its adjoint under the doubled Gram
    form."""
    for pair in catalog_pairs(transports=True):
        g, d = pair.base, pair.dual_qg
        n = g.dim
        b = _dual_basis(pair)
        w_star = _w_star(pair)
        w = np.linalg.inv(w_star)
        assert _maxabs(_w_by_solve(pair) - w) < 1e-12, g.name
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
        what = flip @ w_star @ flip
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
    """Once transported and twice: twice, G is complex Hermitian and not
    symmetric, so a G read in the wrong order, in the Plancherel check's
    pencil or in build_dual's Plancherel gate, fails here."""
    for name in EXAMPLE_NAMES:
        once = _transported(get_example(name), seed=7)
        for g in (once, _transported(once, seed=8)):
            pair = build_dual(g)
            # one residual for both certificates, held to the conjugation's
            # gate
            assert pentagon_residual(pair) < 1e-10, name
            assert max(plancherel_check(pair).residuals.values()) < 1e-12
            assert max(biduality_check(g).residuals.values()) < 1e-12, name
            x = _random(g.dim, seed=5)
            back = dual_fourier(pair, fourier_coeffs(pair, x)).coeffs
            assert _maxabs(back - x) < 1e-12, name
            # a star formula that is right on the catalog only
            assert _maxabs(pair.dual_qg.star - g.star.T @ g.antipode.T) > 0.1


def test_the_premises_hold_where_the_gram_form_is_not_symmetric():
    """Once transported, G = T^H G0 T is symmetric up to rounding, since
    G0 is a multiple of 1 on the catalog and T a unitary times a diagonal;
    transported twice, G is complex Hermitian and not symmetric, so a G
    read in the wrong order fails the isometry premise."""
    for name in EXAMPLE_NAMES:
        g = _transported(_transported(get_example(name), seed=7), seed=8)
        assert _maxabs(g.gram - g.gram.T) > 0.02, name
        assert max(_premises(*_factors(g))) < 1e-12, name


def test_pentagon_and_conjugation_are_exact_on_the_catalog():
    for pair in catalog_pairs():
        assert pentagon_residual(pair) == 0.0, pair.base.name


def test_single_entry_mutation_fails_the_base_gate():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        fields = {f: np.array(getattr(g, f)) for f in TENSORS}
        for field, arr in fields.items():
            for idx in np.ndindex(arr.shape):
                bad = arr.copy()
                bad[idx] += 1e-6
                mutant = FiniteQuantumGroup(**{**fields, field: bad})
                with pytest.raises(AxiomFailure):
                    build_dual(mutant)


def test_pentagon_contraction_equals_the_leg_by_leg_product():
    """The two operator routes of the pentagon agree bit for bit, and the
    coefficient form, one residual for both certificates, agrees with the
    operator pentagon and the operator conjugation within _operator_bound,
    on the 14 catalog algebras and their transports."""
    for pair in catalog_pairs(transports=True, duals=True):
        name = pair.base.name
        operator = _pentagon_by_column(pair)
        assert operator == _pentagon_reference(pair), name
        bound = _operator_bound(pair)
        residual = pentagon_residual(pair)
        assert abs(residual - operator) <= bound, name
        assert abs(residual - _conjugation_reference(pair)) <= bound, name
    # four corrupted tensors per example, each mult or comult with one entry
    # moved by 1e-3: the coefficient form fails the certificate by more than
    # 1e-9, as the operator route fails the pentagon (so does every such
    # single-entry move on the catalog)
    rng = np.random.default_rng(11)
    for pair in catalog_pairs():
        fields = {f: np.array(getattr(pair.base, f)) for f in TENSORS}
        for field in rng.choice(["mult", "comult"], size=4):
            bad = fields[field].copy()
            bad[tuple(rng.integers(0, bad.shape))] += 1e-3
            mutant = FiniteQuantumGroup(**{**fields, field: bad})
            moved = replace(pair, base=mutant)
            assert pentagon_residual(moved) > 1e-9, (pair.base.name, field)
            assert _pentagon_by_column(moved) > 1e-9, (pair.base.name, field)


def test_a_corrupted_leg_fails_the_coefficient_form():
    """The legs of W = sum_s L_s . B_s built from a tensor with one entry
    moved by 1e-3, on the catalog and its duals. L from such a mult fails
    the representation residual of L (eight seeded entries per algebra;
    every entry fails). B = sum_k S[s, k] comult3[k] from such an antipode
    fails the inverse premise and the representation residual of B, and the
    coefficient identity wherever the moved entry of S was 0. A moved
    nonzero entry scales one B_s, which the identity can miss: on C(G),
    where C[a, c, k, r] = 0 unless a = k, each identity is linear in one
    B_k, and on KP's dual four such entries pass it."""
    rng = np.random.default_rng(13)
    for pair in catalog_pairs(duals=True):
        g = pair.base
        n = g.dim
        factors = _factors(g)
        assert max(_premises(*factors)) == 0.0
        for idx in rng.integers(0, n, size=(8, 3)):
            m = np.array(g.mult)
            m[tuple(idx)] += 1e-3
            bad = m.transpose(0, 2, 1)
            rep_l = _premises(*factors[:2], bad, *factors[3:])[2]
            assert rep_l > 1e-9, (g.name, idx)
        for idx in np.ndindex(n, n):
            s = np.array(g.antipode)
            s[idx] += 1e-3
            bad = (s @ g.comult3.reshape(n, n * n)).reshape(n, n, n)
            _, inverse, _, rep_b, identity = _premises(*factors[:3], bad,
                                                       *factors[4:])
            assert min(inverse, rep_b) > 1e-9, (g.name, idx)
            if g.antipode[idx] == 0:
                assert identity > 1e-9, (g.name, idx)


def test_the_certificates_hold_beyond_the_catalog():
    """C[D8] and KP (x) Z2 (n = 16) and C[S4] (n = 24) pass both gates of
    verify, which read one residual; on KP (x) Z2 it also agrees with the
    operator routes, which take about 0.4 s there."""
    kp_z2 = _kron_group(get_example("kac-paljutkin"),
                        get_example("z2-function"))
    for g in (build_group_algebra(dihedral_table(8)), kp_z2,
              build_group_algebra(_s4_table())):
        pair = build_dual(g)
        residual = pentagon_residual(pair)
        assert residual <= 1e-10, g.name   # the stricter of the two gates
        if g is kp_z2:
            bound = _operator_bound(pair)
            assert abs(residual - _pentagon_by_column(pair)) <= bound
            assert abs(residual - _conjugation_reference(pair)) <= bound


def test_the_closed_form_unitary_equals_the_doubled_gram_solve():
    """W = sum_s L_s . B_s, on the legs of duality._factors, against the
    adjoint of W* solved from kron(G, G) W = W*^H kron(G, G): bit for bit on
    the 14 catalog algebras, and on their transports within
    gamma_{n^2} kappa(G . G) ||W||_inf, Higham's bound for the solve with a
    growth factor of 1 (a pin, not a proof); the closed form's n-term sums
    round well inside it."""
    for pair in catalog_pairs(transports=True, duals=True):
        g = pair.base
        n = g.dim
        _, _, lreg, legs, *_ = _factors(g)
        w, solved = _unitary(lreg, legs), _w_by_solve(pair)
        assert w.dtype == solved.dtype, g.name
        if "transported" in g.name:
            kappa = np.linalg.cond(np.kron(g.gram, g.gram))
            norm = max(float(np.abs(solved).sum(axis=1).max()), 1.0)
            assert _maxabs(w - solved) <= _gamma(n * n) * kappa * norm, g.name
        else:
            assert w.tobytes() == solved.tobytes(), g.name


def test_a_state_that_is_not_invariant_fails_the_gram_unitarity_gate():
    """z3-function with the faithful state (0.5, 0.3, 0.2), which is not
    Haar: W* is no isometry of the doubled Gram form. Premise (0) reads 0.3
    and every other premise 0, since none of them reads the state."""
    g = get_example("z3-function")
    fields = {f: np.array(getattr(g, f)) for f in TENSORS}
    bad = FiniteQuantumGroup(**{**fields, "haar": np.array([0.5, 0.3, 0.2])})
    assert _premises(*_factors(bad)) == pytest.approx((0.3, 0, 0, 0, 0),
                                                      abs=1e-15)


def test_a_moved_haar_entry_fails_the_isometry_premise():
    """Each haar entry of the 7 examples moved by 1e-3 makes W* fail to be
    an isometry, except entry 0 of the three group algebras: there the
    state is the unit's coefficient, so the move only rescales it, which
    leaves W isometric; normalization is haar_normalized's claim."""
    rescaled = set()
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        fields = {f: np.array(getattr(g, f)) for f in TENSORS}
        for i in range(g.dim):
            haar = fields["haar"].copy()
            haar[i] += 1e-3
            moved = FiniteQuantumGroup(**{**fields, "haar": haar})
            isometry = _premises(*_factors(moved))[0]
            if isometry <= 1e-9:
                rescaled.add((name, i))
    assert rescaled == {("z2-group", 0), ("s3-group", 0),
                        ("kac-paljutkin", 0)}


def test_dual_satisfies_the_axioms():
    for pair in catalog_pairs():
        rep = verify_axioms(pair.dual_qg, tol=1e-10)
        assert rep.holds, f"{pair.base.name}: {rep.failing()}"


def test_dual_weight_total_is_the_dimension():
    for pair in catalog_pairs():
        assert pair.dual_weight_total == pytest.approx(pair.base.dim,
                                                       abs=1e-12)


def test_dual_of_every_function_algebra_is_its_group_algebra():
    """Entry for entry and bit for bit, signed zeros included."""
    tables = ([cyclic_table(n) for n in range(1, 9)]
              + [symmetric_table_s3(), dihedral_table(3), dihedral_table(4)])
    for table in tables:
        dual = build_dual(build_function_algebra(table)).dual_qg
        group = build_group_algebra(table)
        for key in TENSORS:
            a, b = getattr(dual, key), getattr(group, key)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (table, key)
            assert a.tobytes() == b.tobytes(), (table, key)


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


def _plancherel_pairs():
    """The pair of every catalog example, of its once- and twice-
    transported copies, and of the dual of each."""
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        once = _transported(g, seed=7)
        for h in (g, once, _transported(once, seed=8)):
            pair = build_dual(h)
            yield pair
            yield build_dual(pair.dual_qg)


def test_plancherel_on_seeded_samples():
    """The exact gap is the supremum of the sampled one: no seeded sample
    lies above it by more than rounding, so the exact check is never the
    weaker of the two."""
    for pair in _plancherel_pairs():
        name = pair.base.name
        rep = plancherel_check(pair)
        assert rep.holds, name
        exact = rep.residuals["relative_gap"]
        assert exact < 1e-12, name
        # the premise of _sampled_plancherel_bound
        assert np.linalg.cond(pair.base.gram) < 2, name
        for seed in (1, 42):
            sampled = _sampled_plancherel_check(pair, seed=seed)
            assert exact >= (sampled.residuals["relative_gap"]
                             - _sampled_plancherel_bound(pair.base.dim)), name


def test_plancherel_eigenvalues_by_a_second_route():
    """The pencil's eigenvalues, from a Cholesky factor and eigvalsh,
    against those of G^-1 Q^dagger Ghat Q from a general eigensolve."""
    for pair in _plancherel_pairs():
        g = pair.base
        form = g.q_matrix.conj().T @ pair.dual_gram_weight @ g.q_matrix
        ref = np.linalg.eig(np.linalg.solve(g.gram, form))[0]
        assert _maxabs(ref.imag) < 1e-12, g.name
        lam = plancherel_check(pair).details["eigenvalues"]
        assert _maxabs(lam - np.sort(ref.real)) < 1e-12, g.name


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6])
def test_a_rescaled_dual_weight_fails_plancherel(scale):
    """A dual weight off by a factor 1 +- 1e-6, which replace lets past
    build_dual's gate, scales every eigenvalue of the pencil: the gap is
    |sqrt(scale) - 1|, about 5e-7, on every pair."""
    for pair in _plancherel_pairs():
        bad = replace(pair, dual_weight=pair.dual_weight * scale)
        rep = plancherel_check(bad)
        assert not rep.holds, pair.base.name
        assert abs(rep.residuals["relative_gap"]
                   - abs(np.sqrt(scale) - 1)) < 1e-12, pair.base.name


def test_plancherel_single_element_norms():
    g = get_example("kac-paljutkin")
    pair = build_dual(g)
    x = _random(g.dim, seed=2)
    f = fourier_coeffs(pair, x)
    lhs = np.sqrt(np.vdot(f, pair.dual_gram_weight @ f).real)
    assert lhs == pytest.approx(np.sqrt(np.vdot(x, g.gram @ x).real),
                                rel=1e-12)


def test_convolution_theorem():
    """F(x * y) = F(x) F(y) on both sides of every pair, as operators on the
    GNS space and as dual coefficients, within 1e-9 of max(|F(x)F(y)|, 1)."""
    rng = np.random.default_rng(3)
    for pair in catalog_pairs(duals=True):
        g = pair.base
        draws = rng.standard_normal((4, 8, g.dim))
        x, y = draws[0] + 1j * draws[1], draws[2] + 1j * draws[3]
        conv = convolve(g, x, y)
        lhs, rhs = _fourier(pair, conv), _fourier(pair, x) @ _fourier(pair, y)
        assert _maxabs(lhs - rhs) <= 1e-9 * max(_maxabs(rhs), 1.0), g.name
        lhs = fourier_coeffs(pair, conv)
        rhs = pair.dual_qg.multiply(fourier_coeffs(pair, x),
                                    fourier_coeffs(pair, y))
        assert _maxabs(lhs - rhs) <= 1e-9 * max(_maxabs(rhs), 1.0), g.name


def test_transform_of_point_mass_is_a_scaled_projection():
    pair = build_dual(get_example("z2-function"))
    f = _fourier(pair, np.eye(2)[0])
    assert np.max(np.abs(f @ f - 0.5 * f)) == 0.0


def test_inverse_transform_roundtrip():
    for pair in catalog_pairs(duals=True):
        g = pair.base
        x = _random(g.dim, seed=5)
        back = dual_fourier(pair, fourier_coeffs(pair, x)).coeffs
        assert _maxabs(back - x) < 1e-12, g.name
        # the dual counit is phi after F: the multiple of a biprojection
        # F(h)^2 = lambda F(h) is then lambda = phi(h)
        counit = pair.dual_qg.counit @ fourier_coeffs(pair, x)
        assert abs(counit - g.haar_of(x)) < 1e-12, g.name


def test_biduality_on_the_catalog():
    for name in EXAMPLE_NAMES:
        rep = biduality_check(get_example(name))
        assert rep.holds, f"{name}: {rep.details}"
        assert max(rep.residuals.values()) < 1e-12, name


def test_batched_ops_match_their_definitions():
    """multiply, star_of, haar_of, convolve, fourier_coeffs, the Gram norms
    and Blocks.hs on one vector and on stacks (broadcast either way) against
    einsum/vdot."""
    rng = np.random.default_rng(5)

    def close(got, ref):
        assert got.shape == ref.shape
        assert _maxabs(got - ref) <= 1e-13 * max(1.0, _maxabs(ref))

    for pair in catalog_pairs(duals=True):
        g = pair.base
        n = g.dim
        xs, ys = _random((3, n), rng), _random((3, n), rng)
        for x, y in ((xs[0], ys[0]), (xs, ys), (xs, ys[1]), (xs[2], ys)):
            close(g.multiply(x, y), np.einsum("...i,...j,ijk->...k", x, y, g.mult))
            close(g.star_of(x), np.einsum("ij,...j->...i", g.star, np.conj(x)))
            close(np.asarray(g.haar_of(x)), np.einsum("k,...k->...", g.haar, x))
            w = np.einsum("pi,pk,...k->...i", g.antipode, g.q_matrix, x)
            dy = np.einsum("ak,...k->...a", g.comult, y).reshape(y.shape[:-1] + (n, n))
            close(convolve(g, x, y).coeffs, np.einsum("...i,...ij->...j", w, dy))
            coeffs = np.einsum("sk,...k->...s", g.q_matrix, x)
            close(fourier_coeffs(pair, x), coeffs)
            close(_gram_norm(x, g.gram), np.sqrt(np.einsum(
                "...i,ij,...j->...", np.conj(x), g.gram, x).real))
            close(_gram_norm(coeffs, pair.dual_gram_weight), np.sqrt(np.einsum(
                "...i,ij,...j->...", np.conj(coeffs), pair.dual_gram_weight,
                coeffs).real))
            a, b = np.broadcast_arrays(g.blocks.diag(x), g.blocks.diag(y))
            weighted = g.blocks.multiplicity[:, None] * b
            ref = np.array([np.vdot(u, v) for u, v in
                            zip(a.reshape(-1, *a.shape[-2:]),
                                weighted.reshape(-1, *a.shape[-2:]))])
            close(np.reshape(g.blocks.hs(a, b), -1), ref)

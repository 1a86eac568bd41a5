import dataclasses
import itertools

import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.core import (
    _TRANSPOSED_LAWS,
    CayleyTable,
    FiniteQuantumGroup,
    _encode_array,
    _maxabs,
    _wedderburn,
    build_function_algebra,
    build_group_algebra,
    build_kac_paljutkin,
    cyclic_table,
    dihedral_table,
    is_commutative,
    symmetric_table_s3,
    transposed,
    verify_axioms,
)
from qgharm.duality import _factors, build_dual
from qgharm.errors import AxiomFailure, QgharmError
from qgharm.report import json_dumps
from qgharm.structures import group_like_checks
from reference import (EPS, TENSORS, _counting, _delta_homomorphism_reference,
                       _einsum_axioms, _gamma, _kron_group, _random, _s4_table,
                       _tensor_mult, _transported, _wedderburn_reference,
                       _wrong_haar, catalog_pairs, is_automorphism)


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

def test_cyclic_table_z4():
    t = cyclic_table(4)
    assert t.order == 4
    assert t.identity == 0
    assert t.inverse == (0, 3, 2, 1)


def test_symmetric_table_s3():
    t = symmetric_table_s3()
    assert t.order == 6
    assert t.identity == 0
    # transpositions are involutions, 3-cycles invert to each other
    assert t.inverse == (0, 1, 2, 4, 3, 5)
    # noncommutative: (01) then (12) differs from (12) then (01)
    assert t.table[1][2] != t.table[2][1]


def test_dihedral_table_d4():
    t = dihedral_table(4)
    assert t.order == 8
    # s r s = r^{-1}
    r, s = 1, 4
    assert t.table[t.table[s][r]][s] == 3


def test_bad_table_rejected():
    with pytest.raises(QgharmError, match="^row 0 is not a permutation$"):
        CayleyTable(table=((0, 0), (1, 1))).validate()
    with pytest.raises(QgharmError, match="^order must be positive$"):
        cyclic_table(0)


# a Latin square with identity 0 and two-sided inverses that is not a
# group: (1 1) 2 = 2 while 1 (1 2) = 4
LOOP = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_a_non_associative_table_fails_the_axiom_gate():
    table = CayleyTable(table=LOOP).validate()
    with pytest.raises(AxiomFailure, match="'coassociativity'"):
        build_function_algebra(table)
    with pytest.raises(AxiomFailure, match="'associativity'"):
        build_group_algebra(table)


# ---------------------------------------------------------------------------
# axioms on the full catalog
# ---------------------------------------------------------------------------

def test_axioms_hold_on_every_example():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        rep = verify_axioms(g, tol=1e-10)
        assert rep.holds, f"{name}: {rep.failing()}"
        # residuals on these small examples sit at rounding level
        assert max(rep.residuals.values()) < 1e-12, name


def test_kac_paljutkin_haar_state_is_its_unit_vector():
    g = build_kac_paljutkin()
    assert g.haar.tobytes() == g.unit.tobytes()


def test_kac_paljutkin_axioms_are_exact():
    rep = verify_axioms(build_kac_paljutkin())
    assert max(rep.residuals.values()) == 0.0


def test_kac_paljutkin_closed_form_satisfies_its_presentation():
    # a second route: the closed-form tensors, read through the algebra's
    # own maps, obey the presentation by generators and relations. All
    # entries are dyadic, so every product here is exact.
    g = build_kac_paljutkin()
    basis = np.eye(8)
    one, x, y, z = basis[[0, 1, 2, 4]]
    mul, same = g.multiply, np.array_equal
    t = (one + x + y - mul(x, y)) / 2
    j = (np.outer(one, one) + np.outer(one, x) + np.outer(y, one)
         - np.outer(y, x)) / 2
    assert same(mul(x, x), one) and same(mul(y, y), one)
    assert same(mul(x, y), mul(y, x))
    assert same(mul(z, x), mul(y, z)) and same(mul(z, y), mul(x, z))
    assert same(mul(z, z), t)
    assert same(g.delta(x), np.outer(x, x))
    assert same(g.delta(y), np.outer(y, y))
    assert same(g.delta(z), _tensor_mult(g, j, np.outer(z, z)))
    for generator in (x, y, z):
        assert same(g.antipode_of(generator), generator)
    assert same(g.star_of(x), x) and same(g.star_of(y), y)
    assert same(g.star_of(z), mul(t, z))
    # the basis is x^a y^b z^c at index a + 2b + 4c
    for a, b, c in itertools.product(range(2), repeat=3):
        word = one
        for factor, power in ((x, a), (y, b), (z, c)):
            word = mul(word, factor) if power else word
        assert same(word, basis[a + 2 * b + 4 * c]), (a, b, c)
    # Delta is multiplicative, and S and the star reverse products, so
    # their values on x, y and z fix them on every word
    assert _delta_homomorphism_reference(g) == 0.0
    products = mul(basis[:, None], basis[None, :])
    for reverse in (g.antipode_of, g.star_of):
        images = reverse(basis)
        assert same(reverse(products), mul(images[None, :], images[:, None]))


def test_axiom_records_copy_the_residuals_kept_on_the_group():
    g = build_kac_paljutkin()
    first = verify_axioms(g)
    first.residuals["associativity"] = 1.0
    again = verify_axioms(g)
    assert again.residuals["associativity"] == 0.0 and again.holds


def test_one_group_checked_at_two_tolerances_gets_both_verdicts():
    g = _transported(get_example("kac-paljutkin"), seed=7)
    worst = max(verify_axioms(g).residuals.values())
    assert worst > 0.0
    for tol, holds in ((0.5 * worst, False), (2.0 * worst, True),
                       (0.5 * worst, False)):
        rep = verify_axioms(g, tol=tol)
        assert (rep.holds, rep.tol) == (holds, tol)


def test_axiom_report_flags_a_wrong_haar():
    rep = verify_axioms(_wrong_haar())
    assert not rep.holds
    assert rep.residuals["haar_left_invariance"] == pytest.approx(1.0)
    assert "haar_left_invariance" in rep.failing()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_structure_constants_are_refused(bad):
    # a NaN Haar entry used to end in numpy's LinAlgError inside
    # verify_axioms; now no object holds one
    g = get_example("kac-paljutkin")
    for key in TENSORS:
        data = {k: np.array(getattr(g, k)) for k in TENSORS}
        data[key].flat[-1] = bad
        with pytest.raises(AxiomFailure, match=f"^{key} has a non-finite"):
            FiniteQuantumGroup(**data)


def test_a_tensor_of_the_wrong_size_is_refused():
    g = get_example("z3-function")
    data = {k: getattr(g, k) for k in TENSORS}
    for key in TENSORS:
        if key != "unit":
            bad = np.zeros(getattr(g, key).shape[:-1] + (2,))
            with pytest.raises(QgharmError, match=f"^{key}: expected shape"):
                FiniteQuantumGroup(**{**data, key: bad})
    with pytest.raises(QgharmError, match=r"^mult: expected shape \(4, 4, 4\)"):
        FiniteQuantumGroup(**{**data, "unit": np.ones(4)})


def test_a_constructed_group_cannot_be_changed():
    g = build_function_algebra(cyclic_table(3))
    haar = g.haar
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.haar = np.array([1.0, 0.0, 0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.unit = np.ones(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del g.star
    for key in TENSORS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, key).flat[0] = 1.0
    assert g.haar is haar and g.dim == 3
    assert verify_axioms(g).holds
    # the cached derived data and the dual memo still fill in, and the
    # cached arrays are read-only too
    assert g.gram is g.gram
    assert build_dual(g) is build_dual(g)
    for key in ("q_matrix", "gram", "left_regular", "haar_eigen_weights",
                "comult3"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, key).flat[0] = 5.0
    assert verify_axioms(g).holds
    # a group keeps copies: the caller's arrays stay writable, and writing
    # to them does not reach the group
    data = {k: np.array(getattr(g, k)) for k in TENSORS}
    h = FiniteQuantumGroup(**data)
    for key in TENSORS:
        data[key].flat[0] = 7.0
        assert np.array_equal(getattr(h, key), getattr(g, key)), key
    assert verify_axioms(h).holds


# ---------------------------------------------------------------------------
# function algebra structure
# ---------------------------------------------------------------------------

def test_function_algebra_pointwise_product():
    g = build_function_algebra(cyclic_table(4))
    ei = np.eye(4)
    for i in range(4):
        for j in range(4):
            expect = ei[i] if i == j else np.zeros(4)
            assert np.max(np.abs(g.multiply(ei[i], ei[j]) - expect)) == 0.0


def test_function_algebra_comultiplication():
    # Delta(delta_k) = sum over st = k of delta_s x delta_t
    table = cyclic_table(3)
    g = build_function_algebra(table)
    d = g.delta(np.eye(3)[1])
    for s in range(3):
        for t in range(3):
            assert d[s, t] == (1.0 if table.table[s][t] == 1 else 0.0)


def test_function_algebra_haar_is_uniform():
    g = build_function_algebra(symmetric_table_s3())
    assert np.max(np.abs(g.haar - np.full(6, 1.0 / 6.0))) == 0.0
    assert complex(g.counit @ np.eye(6)[0]) == 1.0 + 0j


def test_function_algebra_antipode_inverts():
    table = cyclic_table(4)
    g = build_function_algebra(table)
    for i in range(4):
        s = g.antipode_of(np.eye(4)[i])
        assert np.argmax(np.abs(s)) == table.inverse[i]


# ---------------------------------------------------------------------------
# group algebra structure
# ---------------------------------------------------------------------------

def test_group_algebra_product_follows_the_table():
    table = symmetric_table_s3()
    g = build_group_algebra(table)
    ei = np.eye(6)
    for i in range(6):
        for j in range(6):
            prod = g.multiply(ei[i], ei[j])
            assert np.argmax(np.abs(prod)) == table.table[i][j]
            assert abs(prod[table.table[i][j]] - 1.0) == 0.0


def test_group_algebra_haar_picks_the_identity_coefficient():
    g = build_group_algebra(cyclic_table(5))
    expect = np.zeros(5)
    expect[0] = 1.0
    assert np.max(np.abs(g.haar - expect)) == 0.0


def test_group_algebra_generators_are_unitary():
    g = build_group_algebra(cyclic_table(4))
    u1 = np.eye(4)[1]
    prod = g.multiply(g.star_of(u1), u1)
    assert np.max(np.abs(prod - g.unit)) == 0.0


def test_group_algebra_comult_is_diagonal():
    g = build_group_algebra(cyclic_table(3))
    d = g.delta(np.eye(3)[2])
    assert d[2, 2] == 1.0
    assert np.sum(np.abs(d)) == 1.0


# ---------------------------------------------------------------------------
# elements and automorphisms
# ---------------------------------------------------------------------------

def test_owner_mismatch_is_detected():
    g1 = get_example("z2-function")
    g2 = get_example("z2-group")
    x = g1.element([1.0, 0.0])
    with pytest.raises(QgharmError,
                       match="^element belongs to a different algebra$"):
        g2.coeffs_of(x)


def test_bad_coefficient_shape():
    g = get_example("z3-function")
    with pytest.raises(QgharmError,
                       match=r"^expected 3 coefficients, got \(2,\)$"):
        g.coeffs_of([1.0, 2.0])
    # a stack needs n along its last axis
    with pytest.raises(QgharmError,
                       match=r"^expected 3 coefficients, got \(3, 2\)$"):
        g.coeffs_of(np.ones((3, 2)))


def test_inversion_is_an_automorphism_of_function_algebra():
    table = cyclic_table(4)
    g = build_function_algebra(table)
    alpha = np.zeros((4, 4))
    for i in range(4):
        alpha[table.inverse[i], i] = 1.0
    assert is_automorphism(g, alpha)
    assert np.argmax(np.abs(alpha @ np.eye(4)[1])) == 3


def test_scaling_is_not_an_automorphism():
    g = get_example("z2-function")
    assert not is_automorphism(g, 2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# the block picture
# ---------------------------------------------------------------------------

def _centre_dimension(g):
    comm = (g.mult - g.mult.transpose(1, 0, 2)).reshape(g.dim, -1).T
    return g.dim - np.linalg.matrix_rank(comm, tol=1e-9)


def test_kac_paljutkin_has_four_characters_and_one_matrix_block():
    g = get_example("kac-paljutkin")
    b = g.blocks
    assert b.sizes == (1, 1, 1, 1, 2)
    masses = g.dim * np.real(b.central @ g.haar)
    assert np.allclose(masses, [1, 1, 1, 1, 4], atol=1e-12)
    for z in b.central:
        assert np.max(np.abs(g.multiply(z, z) - z)) < 1e-12
        assert np.max(np.abs(g.star_of(z) - z)) < 1e-12
    assert np.max(np.abs(sum(b.central) - g.unit)) < 1e-12


def test_block_count_is_the_centre_dimension_everywhere():
    for h in (pair.base for pair in catalog_pairs(duals=True)):
        b = h.blocks
        assert len(b.sizes) == _centre_dimension(h), h.name
        assert sum(d * d for d in b.sizes) == h.dim, h.name


def test_blocks_reject_every_corrupted_product_entry():
    # on z2-group some single-entry changes leave a valid two-dimensional
    # C*-algebra with a faithful trace; only the Hopf axioms catch those
    for name in ("s3-function", "s3-group", "kac-paljutkin"):
        g = get_example(name)
        for idx in np.ndindex(g.mult.shape):
            mult = g.mult.copy()
            mult[idx] += 1e-6
            h = FiniteQuantumGroup(
                mult=mult, unit=g.unit, comult=g.comult,
                counit=g.counit, antipode=g.antipode, star=g.star,
                haar=g.haar)
            with pytest.raises(AxiomFailure):
                h.blocks


@pytest.mark.parametrize("haar", [(1, 0, 0, 0, 0, 0),
                                  (0.5, 0.5, 0.5, -0.5, 0, 0)])
def test_blocks_refuse_a_state_that_is_not_faithful_on_a_character(haar):
    # on a commutative algebra no Cholesky factor runs to refuse it
    g = get_example("s3-function")
    h = FiniteQuantumGroup(mult=g.mult, unit=g.unit, comult=g.comult,
                           counit=g.counit, antipode=g.antipode, star=g.star,
                           haar=haar)
    with pytest.raises(AxiomFailure, match="not faithful"):
        h.blocks


def _assert_blocks_match(got, want, tol, name):
    """got against the reference: the central projections and the rows of
    the matrix blocks within tol (0: bit for bit), and the characters and
    from_blocks within rounding bounds derived from eps and n.

    Both routes read a character entry chi_i(e_s), of modulus at most 1, as
    a Rayleigh quotient of unit-scale data: the closed form as
    phi(e_s p) / phi(p) with p = z_i z_i*, the reference as <u, e_s u> for a
    unit vector u of the ideal. The error of the eigensolve in z_i or u
    enters a Rayleigh quotient at second order, so each route is within the
    rounding bound of a length-n inner product, and the two are within
    gamma_n (reference._gamma). Such a change of the rows of to_blocks,
    relative to its largest entries, 1, moves the inverse by at most
    cond(to_blocks) gamma_n relative to its largest entry, to first order,
    and each route's inversion adds a rounding error of the same order:
    2 cond gamma_n in all.
    """
    n, chars = got.to_blocks.shape[1], got.sizes.count(1)
    assert got.sizes == want.sizes, name
    for a, b in ((got.central, want.central),
                 (got.to_blocks[chars:], want.to_blocks[chars:])):
        if tol == 0:
            assert a.tobytes() == b.tobytes(), name
        else:
            assert _maxabs(a - b) <= tol, name
    assert _maxabs(got.to_blocks[:chars] - want.to_blocks[:chars]) \
        <= _gamma(n), name
    bound = (2 * np.linalg.cond(want.to_blocks) * _gamma(n)
             * _maxabs(want.from_blocks))
    assert _maxabs(got.from_blocks - want.from_blocks) <= bound, name


def test_the_blocks_equal_the_per_block_reference_on_the_catalog():
    for h in (pair.base for pair in catalog_pairs(duals=True)):
        _assert_blocks_match(_wedderburn(h), _wedderburn_reference(h), 0,
                             h.name)


def test_the_blocks_agree_with_the_reference_on_larger_algebras():
    # C[S4] has blocks 1, 1, 2, 3, 3 and C[D5] blocks 1, 1, 2, 2: two sizes
    # above 1 in one pass; KP x C(Z2) has 8 characters and two 2 x 2 blocks
    for g in (build_group_algebra(_s4_table()),
              build_group_algebra(dihedral_table(5)),
              _kron_group(get_example("kac-paljutkin"),
                          get_example("z2-function"))):
        _assert_blocks_match(_wedderburn(g), _wedderburn_reference(g), 1e-14,
                             g.name)
    assert build_group_algebra(_s4_table()).blocks.sizes == (1, 1, 2, 3, 3)


def test_every_catalog_character_is_zero_or_unimodular_on_the_basis():
    # the basis elements of the catalog are group elements, points or
    # products of unitary generators (and their duals), so a character
    # takes them to 0 or to the unit circle; within 4 eps here
    for h in (pair.base for pair in catalog_pairs(duals=True)):
        chi = h.blocks.to_blocks[:h.blocks.sizes.count(1)]
        assert len(chi) > 0
        off = np.minimum(np.abs(chi), np.abs(np.abs(chi) - 1.0))
        assert _maxabs(off) <= 4 * EPS, h.name


def test_only_the_matrix_blocks_take_an_eigensolve(monkeypatch):
    algebras = [pair.base for pair in catalog_pairs(duals=True)]
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    cholesky = _counting(monkeypatch, np.linalg, "cholesky")
    commutative = 0
    for h in algebras:
        eigh.clear()
        cholesky.clear()
        _wedderburn(h)
        solved = not is_commutative(h)
        assert (len(eigh), len(cholesky)) == (solved, solved), h.name
        commutative += not solved
    # s3-group, C[S3], kac-paljutkin and its dual have a 2 x 2 block
    assert (commutative, len(algebras)) == (10, 14)


# ---------------------------------------------------------------------------
# the axiom contractions against their einsum definitions
# ---------------------------------------------------------------------------

def _noisy(g, rng, size=1e-3):
    """g with complex noise of the given size on mult, comult, star,
    antipode and haar, so that every law reads well above rounding."""
    def noise(a):
        return a + size * _random(a.shape, rng)
    return FiniteQuantumGroup(
        mult=noise(g.mult), unit=g.unit, comult=noise(g.comult),
        counit=g.counit, antipode=noise(g.antipode), star=noise(g.star),
        haar=noise(g.haar))


def test_axiom_contractions_match_their_einsum_definitions():
    rng = np.random.default_rng(5)
    for pair in catalog_pairs():
        base, dual = pair.base, pair.dual_qg
        for g in (base, dual, _noisy(base, rng), _noisy(dual, rng)):
            got = verify_axioms(g).residuals
            want = _einsum_axioms(g)
            assert got.keys() == want.keys()
            for law, value in want.items():
                assert got[law] == pytest.approx(value, rel=1e-13, abs=1e-15), \
                    (base.name, law)


def test_delta_homomorphism_contraction_equals_the_tensor_mult_product():
    rng = np.random.default_rng(8)
    for pair in catalog_pairs():
        base, dual = pair.base, pair.dual_qg
        for g in (base, dual):
            assert verify_axioms(g).residuals["delta_homomorphism"] == 0.0
            assert _delta_homomorphism_reference(g) == 0.0
        for g in (_transported(base, seed=7), _transported(dual, seed=7),
                  _noisy(base, rng), _noisy(dual, rng)):
            # each entry of Delta(e_i) Delta(e_j) sums these magnitudes
            c, m = np.abs(g.comult3), np.abs(g.mult)
            scale = np.max(np.einsum("abi,cdj,acp,bdq->ipjq", c, c, m, m,
                                     optimize=True))
            got = verify_axioms(g).residuals["delta_homomorphism"]
            assert abs(got - _delta_homomorphism_reference(g)) \
                <= 1e-15 * scale, g.name


def _law_gap_bound(g, law):
    """A bound on the gap between two evaluations of one law of
    _TRANSPOSED_LAWS on g's tensors, summed in any order: each entry of
    either is within gamma_k of the largest sum of |terms| of one entry,
    both sides, where k counts the terms of an entry and the factors of a
    term (Higham, sec. 3.1), so the two maxima are within twice that."""
    n = g.dim
    m, c, s = (np.abs(a) for a in (g.mult, g.comult3, g.antipode))
    u, e = np.abs(g.unit), np.abs(g.counit)
    sums = {
        "associativity": (np.einsum("ijl,lkm->ijkm", m, m)
                          + np.einsum("jkl,ilm->ijkm", m, m), 2 * n),
        "unit": (np.maximum(np.einsum("ijk,i->jk", m, u),
                            np.einsum("ijk,j->ik", m, u)) + 1, n + 1),
        "coassociativity": (np.einsum("abi,ijk->abjk", c, c)
                            + np.einsum("aik,bci->abck", c, c), 2 * n),
        "counit": (np.maximum(np.einsum("abk,a->bk", c, e),
                              np.einsum("abk,b->ak", c, e)) + 1, n + 1),
        "delta_homomorphism": (
            np.einsum("abi,cdj,acp,bdq->pqij", c, c, m, m, optimize=True)
            + np.einsum("pqk,ijk->pqij", c, m), n ** 4 + n),
        "antipode_squared": (s @ s + 1, n + 1),
    }
    scale, k = sums[law]
    return 2 * _gamma(k + 3) * float(np.max(scale))


def test_the_dual_and_double_dual_take_their_structure_laws_from_the_base():
    """Each law that the dual and the double dual take from their source's
    residuals is that residual, and agrees with _einsum_axioms of the dual
    or double dual itself: exactly on the catalog, where both read 0.0,
    and within _law_gap_bound on the transports, once transported and
    twice, where the Gram matrix is not symmetric."""
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        once = _transported(g, seed=7)
        for base in (g, once, _transported(once, seed=8)):
            source = base
            for _ in range(2):
                h = build_dual(source).dual_qg
                got = verify_axioms(h).residuals
                want = _einsum_axioms(h)
                kept = verify_axioms(source).residuals
                for law, of in _TRANSPOSED_LAWS.items():
                    assert got[law] == kept[of], (h.name, law)
                    if base is g:
                        assert got[law] == want[law] == 0.0, (h.name, law)
                    else:
                        assert abs(got[law] - want[law]) \
                            <= _law_gap_bound(h, law), (h.name, law)
                source = h


def test_a_transposed_group_takes_each_law_from_the_one_it_re_indexes():
    """On noisy copies, where the laws fail by about 1e-3, each by its own
    amount, a group transposed once or twice after its source's residuals
    are evaluated reads every law as _einsum_axioms does, so no law is
    taken from the wrong one."""
    rng = np.random.default_rng(9)
    for pair in catalog_pairs():
        source = _noisy(pair.base, rng)
        verify_axioms(source)
        for step in ("once", "twice"):
            h = transposed(source, _random(source.dim, rng), step)
            got, want = verify_axioms(h).residuals, _einsum_axioms(h)
            assert got.keys() == want.keys()
            for law, value in want.items():
                assert got[law] == pytest.approx(value, rel=1e-13, abs=1e-15), \
                    (pair.base.name, step, law)
            source = h


def test_an_imaginary_defect_fails_the_axioms():
    # the real-arithmetic path must not drop a nonzero imaginary part
    g = get_example("kac-paljutkin")
    fields = {f: np.array(getattr(g, f)) for f in TENSORS}
    for field in ("mult", "comult"):
        arr = fields[field]
        # a stride prime to n = 8 reaches every value of every index
        for idx in list(np.ndindex(arr.shape))[::7]:
            bad = arr.copy()
            bad[idx] += 1e-6j
            mutant = FiniteQuantumGroup(**{**fields, field: bad})
            assert not verify_axioms(mutant, tol=1e-10).holds, (field, idx)


def test_the_unitary_is_real_exactly_when_the_tensors_are():
    """The factors of the certificates of W (mult, comult3, L_s, B_s, C,
    star, G and unit), so that no contraction falls back to complex BLAS
    where W is real."""
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        moved = _transported(g, seed=7)
        for h, dtype in ((g, np.float64), (moved, np.complex128)):
            assert [a.dtype for a in _factors(h)] == [dtype] * 8, name


def test_group_like_relation_matches_its_einsum_definition():
    # random elements are not projections, so the relation reads O(1)
    rng = np.random.default_rng(6)
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for h in _random((3, g.dim), rng):
            dh = g.comult.reshape(g.dim, g.dim, g.dim) @ h
            want = np.max(np.abs(np.einsum("ij,k,jkl->il", dh, h, g.mult)
                                 - np.outer(h, h)))
            [cert] = group_like_checks(g, [h], 1e-9)
            got = cert.residuals["defining_relation"]
            assert got == pytest.approx(want, rel=1e-13), name


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_dumps_is_deterministic():
    def doc():
        g = get_example("z4-function")
        return {"mult": _encode_array(g.mult), "haar": _encode_array(g.haar)}

    s1 = json_dumps(doc())
    assert s1 == json_dumps(doc())
    assert s1.endswith("\n")
    assert s1.index('"haar"') < s1.index('"mult"')

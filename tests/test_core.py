import dataclasses

import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.core import (
    CayleyTable,
    FiniteQuantumGroup,
    _encode_array,
    build_function_algebra,
    build_group_algebra,
    build_kac_paljutkin,
    cyclic_table,
    dihedral_table,
    is_automorphism,
    json_dumps,
    symmetric_table_s3,
    verify_axioms,
)
from qgharm.duality import build_dual
from qgharm.errors import AxiomFailure, QgharmError
from qgharm.structures import is_group_like_projection
from test_duality import _transported


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
    g = get_example("z3-function")
    broken = FiniteQuantumGroup(
        mult=g.mult,
        unit=g.unit,
        comult=g.comult,
        counit=g.counit,
        antipode=g.antipode,
        star=g.star,
        haar=g.counit,  # the counit is not invariant
    )
    rep = verify_axioms(broken)
    assert not rep.holds
    assert rep.residuals["haar_left_invariance"] == pytest.approx(1.0)
    assert "haar_left_invariance" in rep.failing()


TENSORS = ("mult", "unit", "comult", "counit", "antipode", "star", "haar")


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
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for h in (g, build_dual(g).dual_qg):
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


# ---------------------------------------------------------------------------
# the axiom contractions against their einsum definitions
# ---------------------------------------------------------------------------

def _einsum_axioms(g):
    """verify_axioms written as the einsum contractions of each law."""
    n = g.dim
    m, c3 = g.mult, g.comult.reshape(n, n, n)
    eye = np.eye(n)
    mx = lambda a: float(np.max(np.abs(a)))
    res = {
        "associativity": mx(np.einsum("ijl,lkm->ijkm", m, m)
                            - np.einsum("jkl,ilm->ijkm", m, m)),
        "unit": max(mx(np.einsum("ijk,i->jk", m, g.unit) - eye),
                    mx(np.einsum("ijk,j->ik", m, g.unit) - eye)),
        "coassociativity": mx(np.einsum("abi,ijk->abjk", c3, c3)
                              - np.einsum("aik,bci->abck", c3, c3)),
        "counit": max(mx(np.einsum("abk,a->bk", c3, g.counit) - eye),
                      mx(np.einsum("abk,b->ak", c3, g.counit) - eye)),
        "delta_unital": mx(np.einsum("abk,k->ab", c3, g.unit)
                           - np.outer(g.unit, g.unit)),
        "delta_homomorphism": mx(
            np.einsum("abi,cdj,acp,bdq->pqij", c3, c3, m, m)
            - np.einsum("pqk,ijk->pqij", c3, m)),
        "delta_star_compatibility": mx(
            np.einsum("abk,kl->abl", c3, g.star)
            - np.einsum("ap,bq,pql->abl", g.star, g.star, np.conj(c3))),
        "antipode": max(
            mx(np.einsum("abk,pa,pbq->qk", c3, g.antipode, m)
               - np.outer(g.unit, g.counit)),
            mx(np.einsum("abk,pb,apq->qk", c3, g.antipode, m)
               - np.outer(g.unit, g.counit))),
        "antipode_squared": mx(g.antipode @ g.antipode - eye),
        "star_involution": mx(g.star @ np.conj(g.star) - eye),
        "star_antimultiplicative": mx(
            np.einsum("ijk,lk->ijl", np.conj(m), g.star)
            - np.einsum("pj,qi,pql->ijl", g.star, g.star, m)),
        "haar_left_invariance": mx(np.einsum("abk,b->ak", c3, g.haar)
                                   - np.outer(g.unit, g.haar)),
        "haar_right_invariance": mx(np.einsum("abk,a->bk", c3, g.haar)
                                    - np.outer(g.unit, g.haar)),
        "haar_normalized": abs(complex(g.haar @ g.unit) - 1.0),
    }
    q = np.einsum("ijk,k->ij", m, g.haar)
    gram = g.star.T @ q
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    floor = 1e-8 * max(eigs[-1], 1e-300)
    res["gram_hermitian"] = mx(gram - gram.conj().T)
    res["positivity"] = max(0.0, -eigs[0])
    res["faithfulness"] = 0.0 if eigs[0] > floor else max(floor - eigs[0], floor)
    res["traciality"] = mx(q - q.T)
    return res


def _noisy(g, rng, size=1e-3):
    """g with complex noise of the given size on mult, comult, star,
    antipode and haar, so that every law reads well above rounding."""
    def noise(a):
        return a + size * (rng.standard_normal(a.shape)
                           + 1j * rng.standard_normal(a.shape))
    return FiniteQuantumGroup(
        mult=noise(g.mult), unit=g.unit, comult=noise(g.comult),
        counit=g.counit, antipode=noise(g.antipode), star=noise(g.star),
        haar=noise(g.haar))


def test_axiom_contractions_match_their_einsum_definitions():
    rng = np.random.default_rng(5)
    for name in EXAMPLE_NAMES:
        base = get_example(name)
        dual = build_dual(base).dual_qg
        for g in (base, dual, _noisy(base, rng), _noisy(dual, rng)):
            got = verify_axioms(g).residuals
            want = _einsum_axioms(g)
            assert got.keys() == want.keys()
            for law, value in want.items():
                assert got[law] == pytest.approx(value, rel=1e-13, abs=1e-15), \
                    (name, law)


def _delta_homomorphism_reference(g):
    """The delta_homomorphism residual as the tensor_mult product of every
    pair Delta(e_i), Delta(e_j): n^4 (1 x n)(n x n) products."""
    n = g.dim
    deltas = g.comult3.transpose(2, 0, 1)
    return float(np.max(np.abs(
        g.tensor_mult(deltas[:, None], deltas[None, :])
        - (g.mult.reshape(n * n, n) @ g.comult.T).reshape(n, n, n, n))))


def test_delta_homomorphism_contraction_equals_the_tensor_mult_product():
    rng = np.random.default_rng(8)
    for name in EXAMPLE_NAMES:
        base = get_example(name)
        dual = build_dual(base).dual_qg
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
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        assert build_dual(g).w.dtype == np.float64, name
        moved = build_dual(_transported(g, seed=7))
        assert moved.w.dtype == np.complex128, name


def test_group_like_relation_matches_its_einsum_definition():
    # random elements are not projections, so the relation reads O(1)
    rng = np.random.default_rng(6)
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for h in (rng.standard_normal((3, g.dim))
                  + 1j * rng.standard_normal((3, g.dim))):
            dh = g.comult.reshape(g.dim, g.dim, g.dim) @ h
            want = np.max(np.abs(np.einsum("ij,k,jkl->il", dh, h, g.mult)
                                 - np.outer(h, h)))
            got = is_group_like_projection(g, h).residuals["defining_relation"]
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

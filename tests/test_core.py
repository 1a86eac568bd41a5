import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.core import (
    CayleyTable,
    FiniteQuantumGroup,
    apply_automorphism,
    build_function_algebra,
    build_group_algebra,
    build_kac_paljutkin,
    cyclic_table,
    dihedral_table,
    from_json,
    is_automorphism,
    json_dumps,
    symmetric_table_s3,
    to_json,
    verify_axioms,
)
from qgharm.duality import build_dual
from qgharm.errors import AxiomFailure, NotAGroup, OwnerMismatch, ShapeMismatch


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
    with pytest.raises(NotAGroup):
        CayleyTable(table=((0, 0), (1, 1))).validate()
    with pytest.raises(NotAGroup):
        cyclic_table(0)


# ---------------------------------------------------------------------------
# axioms on the full catalog
# ---------------------------------------------------------------------------

def test_axioms_hold_on_every_example():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        rep = verify_axioms(g, tol=1e-10)
        assert rep.passed, f"{name}: {rep.failing()}"
        # residuals on these small examples sit at rounding level
        assert rep.max_residual < 1e-12, name


def test_kac_paljutkin_axioms_are_exact():
    rep = verify_axioms(build_kac_paljutkin())
    assert rep.max_residual == 0.0


def test_axiom_report_flags_a_wrong_haar():
    g = get_example("z3-function")
    broken = FiniteQuantumGroup(
        dim=g.dim,
        mult=g.mult,
        unit=g.unit,
        comult=g.comult,
        counit=g.counit,
        antipode=g.antipode,
        star=g.star,
        haar=g.counit,  # the counit is not invariant
    )
    rep = verify_axioms(broken)
    assert not rep.passed
    assert rep.residuals["haar_left_invariance"] == pytest.approx(1.0)
    assert "haar_left_invariance" in rep.failing()


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
    with pytest.raises(OwnerMismatch):
        g2.coeffs_of(x)


def test_bad_coefficient_shape():
    g = get_example("z3-function")
    with pytest.raises(ShapeMismatch):
        g.coeffs_of([1.0, 2.0])


def test_inversion_is_an_automorphism_of_function_algebra():
    table = cyclic_table(4)
    g = build_function_algebra(table)
    alpha = np.zeros((4, 4))
    for i in range(4):
        alpha[table.inverse[i], i] = 1.0
    assert is_automorphism(g, alpha)
    y = apply_automorphism(g, alpha, np.eye(4)[1])
    assert np.argmax(np.abs(y.coeffs)) == 3


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
                dim=g.dim, mult=mult, unit=g.unit, comult=g.comult,
                counit=g.counit, antipode=g.antipode, star=g.star,
                haar=g.haar)
            with pytest.raises(AxiomFailure):
                h.blocks


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_structure():
    g = build_kac_paljutkin()
    doc = to_json(g)
    g2 = from_json(doc)
    assert g2.dim == 8
    assert np.max(np.abs(g2.mult - g.mult)) == 0.0
    assert np.max(np.abs(g2.unit - g.unit)) < 1e-10
    assert verify_axioms(g2).passed


def test_json_dumps_is_deterministic():
    doc = to_json(get_example("z4-function"))
    s1 = json_dumps(doc)
    s2 = json_dumps(to_json(get_example("z4-function")))
    assert s1 == s2
    assert s1.endswith("\n")

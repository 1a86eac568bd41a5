import numpy as np
import pytest

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.core import _maxabs, symmetric_table_s3
from qgharm.duality import build_dual, dual_fourier, fourier_coeffs
from qgharm.errors import (
    CertificateMissing,
    NotABishift,
    NotAShift,
    NotGroupLike,
    NotProjection,
)
from qgharm.structures import (
    bipartial_isometry_check,
    biprojection_iff_grouplike,
    bishift_construct,
    bishift_theorem_check,
    enumerate_group_like_projections,
    enumerate_left_shifts,
    glpbi_check,
    is_biprojection,
    is_group_like_projection,
    projection_candidates,
    range_projection_of_fourier,
    shift_check,
    verify_glp_properties,
)

# haar values of the full certified list, per example, sorted ascending
EXPECTED_GROUP_LIKES = {
    "z2-function": [0.5, 1.0],
    "z3-function": [1.0 / 3.0, 1.0],
    "z4-function": [0.25, 0.5, 1.0],
    "s3-function": [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.5, 1.0],
    "z2-group": [0.5, 1.0],
    "s3-group": [1.0 / 6.0, 1.0 / 3.0, 0.5, 0.5, 0.5, 1.0],
    "kac-paljutkin": [0.125, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0],
}


def _pair(name):
    return build_dual(get_example(name))


# ---------------------------------------------------------------------------
# group-like projections
# ---------------------------------------------------------------------------

def test_certificate_accepts_a_subgroup_indicator():
    g = get_example("z4-function")
    cert = is_group_like_projection(g, [1.0, 0.0, 1.0, 0.0])
    assert cert.certified
    assert cert.haar_value == pytest.approx(0.5, abs=1e-14)
    assert max(cert.residuals.values()) < 1e-14


def test_certificate_rejects_a_non_subgroup_indicator():
    g = get_example("z4-function")
    # {0, 1} is not closed under the group law
    cert = is_group_like_projection(g, [1.0, 1.0, 0.0, 0.0])
    assert not cert.certified
    assert cert.residuals["defining_relation"] > 0.1
    # a point mass off the identity is a projection but not group-like
    cert = is_group_like_projection(g, np.eye(4)[1])
    assert not cert.certified


def test_certificate_rejects_zero():
    g = get_example("z2-function")
    cert = is_group_like_projection(g, [0.0, 0.0])
    assert not cert.certified
    assert cert.residuals["nonzero"] == 1.0


def test_enumeration_matches_the_subgroup_lattice():
    for name, expected in EXPECTED_GROUP_LIKES.items():
        certs = enumerate_group_like_projections(get_example(name))
        got = sorted(c.haar_value for c in certs)
        assert np.allclose(got, expected, atol=1e-12), (name, got)


def test_enumerated_elements_are_normalized_subgroup_sums():
    certs = enumerate_group_like_projections(get_example("z2-group"))
    coeff_sets = {tuple(np.round(c.element.coeffs.real, 9)) for c in certs}
    assert coeff_sets == {(1.0, 0.0), (0.5, 0.5)}


def test_glp_derived_properties_hold_everywhere():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for cert in enumerate_group_like_projections(g):
            rep = verify_glp_properties(g, cert.element)
            assert rep.passed, (name, rep.details)
            assert rep.max_residual < 1e-12


def test_glp_properties_refuse_non_group_like_input():
    g = get_example("z4-function")
    with pytest.raises(NotGroupLike):
        verify_glp_properties(g, np.eye(4)[1])


# ---------------------------------------------------------------------------
# biprojections and the Fourier image
# ---------------------------------------------------------------------------

def test_transform_of_group_like_is_a_biprojection():
    for name in EXAMPLE_NAMES:
        pair = _pair(name)
        for cert in enumerate_group_like_projections(pair.base):
            rep = is_biprojection(pair, cert.element)
            assert rep.passed, (name, rep.details)
            assert rep.details["multiple"] == pytest.approx(cert.haar_value,
                                                            abs=1e-10)


def test_biprojection_rejects_zero_input():
    pair = _pair("z2-function")
    rep = is_biprojection(pair, [0.0, 0.0])
    assert not rep.passed
    assert rep.details["reason"] == "zero transform"


def test_fourier_image_is_dual_group_like():
    worst = 0.0
    for name in EXAMPLE_NAMES:
        pair = _pair(name)
        for cert in enumerate_group_like_projections(pair.base):
            rep = glpbi_check(pair, cert.element)
            assert rep.passed, (name, rep.details)
            worst = max(worst, rep.max_residual)
    assert worst < 1e-12


def test_range_transports_back_to_the_rescaled_projection():
    # the range projection of F(delta_0) on two points pulls back to 2 delta_0
    pair = _pair("z2-function")
    p = range_projection_of_fourier(pair, np.eye(2)[0])
    back = dual_fourier(pair, p).coeffs
    assert np.max(np.abs(back - np.array([2.0, 0.0]))) < 1e-12


def test_range_projection_of_fourier_is_a_dual_projection_fixing_the_image():
    # checked by the dual product and star, not by the blocks that the
    # range projection is taken in
    for name in EXAMPLE_NAMES:
        base_pair = _pair(name)
        for pair in (base_pair, build_dual(base_pair.dual_qg)):
            d = pair.dual_qg
            for cert in enumerate_group_like_projections(pair.base):
                p = range_projection_of_fourier(pair, cert.element)
                f = fourier_coeffs(pair, cert.element)
                assert _maxabs(d.multiply(p, p) - p) < 1e-12, d.name
                assert _maxabs(d.star_of(p) - p) < 1e-12, d.name
                assert _maxabs(d.multiply(p, f) - f) < 1e-12, d.name
                assert _maxabs(d.multiply(f, p) - f) < 1e-12, d.name


def test_equivalence_sweep_over_all_small_examples():
    expected_checked = {
        "z2-function": 3, "z3-function": 7, "z4-function": 15,
        "s3-function": 63, "z2-group": 3, "s3-group": 90,
    }
    for name, count in expected_checked.items():
        pair = _pair(name)
        cands = projection_candidates(pair.base, seed=7)
        rep = biprojection_iff_grouplike(pair, cands)
        assert rep.passed, (name, rep.details)
        assert rep.details["projections_checked"] == count, name
        assert rep.details["disagreements"] == []


def test_equivalence_sweep_skips_non_projections():
    pair = _pair("z2-function")
    rep = biprojection_iff_grouplike(pair, [np.array([0.3, 0.4])])
    assert rep.details["candidates_rejected"] == 1
    assert rep.details["projections_checked"] == 0


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_left_shifts_are_exactly_the_left_cosets():
    expected = {
        "z2-function": [(0.5, 2), (1.0, 1)],
        "z3-function": [(1.0 / 3.0, 3), (1.0, 1)],
        "z4-function": [(0.25, 4), (0.5, 2), (1.0, 1)],
    }
    for name, spec in expected.items():
        g = get_example(name)
        certs = enumerate_group_like_projections(g)
        got = sorted((round(c.haar_value, 9), len(enumerate_left_shifts(g, c.element)))
                     for c in certs)
        assert got == [(round(a, 9), b) for a, b in spec], name


def test_left_shift_counts_on_s3_functions():
    g = get_example("s3-function")
    total = 0
    for cert in enumerate_group_like_projections(g):
        shifts = enumerate_left_shifts(g, cert.element)
        # index of the subgroup = number of left cosets
        assert len(shifts) == round(1.0 / cert.haar_value)
        total += len(shifts)
    assert total == 18


def test_shift_certificate_fields():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([0.0, 1.0, 0.0, 1.0])
    cert = shift_check(g, x, h, side="left")
    assert cert.certified
    assert cert.mu == 1.0
    assert cert.side == "left"
    assert max(cert.residuals.values()) < 1e-14
    assert "trivially satisfied" in cert.details["modular_invariance"]


def test_shift_check_rejects_bad_inputs():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(NotProjection):
        shift_check(g, [0.3, 0.1, 0.0, 0.0], h)
    with pytest.raises(NotGroupLike):
        shift_check(g, h, np.eye(4)[1])
    with pytest.raises(ValueError):
        shift_check(g, h, h, side="middle")


def test_wrong_coset_weight_fails_the_certificate():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    cert = shift_check(g, np.ones(4), h)
    assert not cert.certified
    assert cert.residuals["weight_equality"] == pytest.approx(0.5)


def test_right_shifts_and_the_antipode_bridge():
    g = get_example("s3-function")
    h = np.zeros(6)
    h[[0, 3, 4]] = 1.0  # the even permutations
    x = np.zeros(6)
    x[[1, 2, 5]] = 1.0  # the odd coset
    right = shift_check(g, x, h, side="right")
    assert right.certified
    left = shift_check(g, g.antipode @ x, h, side="left")
    assert left.certified


def test_noncommutative_enumeration_needs_candidates():
    g = get_example("s3-group")
    h = get_example("s3-group").unit
    with pytest.raises(NotAShift):
        enumerate_left_shifts(g, h)


def test_group_algebra_shifts_from_explicit_candidates():
    g = get_example("z2-group")
    h = np.array([0.5, 0.5])
    sign = np.array([0.5, -0.5])
    shifts = enumerate_left_shifts(g, h, candidates=[h, sign, np.array([1.0, 0.0])])
    got = {tuple(np.round(s.element.coeffs.real, 9)) for s in shifts}
    assert got == {(0.5, 0.5), (0.5, -0.5)}


# ---------------------------------------------------------------------------
# bi-partial isometries and bi-shifts
# ---------------------------------------------------------------------------

def test_every_certified_shift_is_a_bipartial_isometry():
    totals = {"z2-function": 3, "z3-function": 4, "z4-function": 7,
              "s3-function": 18}
    for name, total in totals.items():
        pair = _pair(name)
        g = pair.base
        seen = 0
        for cert in enumerate_group_like_projections(g):
            for s in enumerate_left_shifts(g, cert.element):
                rep = bipartial_isometry_check(pair, s.element, cert.element)
                assert rep.passed, (name, rep.details)
                assert rep.max_residual < 1e-12
                seen += 1
        assert seen == total, name


def test_group_algebra_bipartial_isometries():
    for name in ("z2-group", "s3-group", "kac-paljutkin"):
        pair = _pair(name)
        g = pair.base
        cands = projection_candidates(g, seed=7)
        seen = 0
        for cert in enumerate_group_like_projections(g):
            for s in enumerate_left_shifts(g, cert.element, candidates=cands):
                rep = bipartial_isometry_check(pair, s.element, cert.element)
                assert rep.passed, (name, rep.details)
                seen += 1
        assert seen >= len(enumerate_group_like_projections(g)), name


def test_bipartial_isometry_refuses_an_uncertified_pair():
    pair = _pair("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(NotAShift):
        bipartial_isometry_check(pair, np.ones(4), h)


def test_bishift_reconstructs_the_odd_coset_on_z4():
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x_h = np.array([0.0, 1.0, 0.0, 1.0])
    h_tilde = range_projection_of_fourier(pair, h)
    assert np.max(np.abs(h_tilde - np.array([0.5, 0.0, 0.5, 0.0]))) < 1e-12
    x = bishift_construct(pair, x_h, g.unit, h_tilde, h)
    assert np.max(np.abs(x.coeffs - x_h)) < 1e-12
    rep = bishift_theorem_check(pair, x)
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_bishift_with_a_modulated_dual_shift():
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x_h = np.array([0.0, 1.0, 0.0, 1.0])
    x_tilde = np.array([0.5, 0.0, -0.5, 0.0])
    x = bishift_construct(pair, x_h, np.eye(4)[1], x_tilde, h)
    assert np.max(np.abs(x.coeffs - np.array([0.0, 0.5, 0.0, -0.5]))) < 1e-12
    rep = bishift_theorem_check(pair, x)
    assert rep.passed, rep.details


def test_bishift_on_the_s3_alternating_coset():
    pair = _pair("s3-function")
    g = pair.base
    h = np.zeros(6)
    h[[0, 3, 4]] = 1.0
    x_h = np.zeros(6)
    x_h[[1, 2, 5]] = 1.0
    h_tilde = range_projection_of_fourier(pair, h)
    x = bishift_construct(pair, x_h, g.unit, h_tilde, h)
    assert np.max(np.abs(x.coeffs - x_h)) < 1e-12
    rep = bishift_theorem_check(pair, x)
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_bishift_construct_requires_certificates():
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    h_tilde = range_projection_of_fourier(pair, h)
    # the full indicator has the wrong weight, so its certificate fails
    with pytest.raises((CertificateMissing, NotProjection)):
        bishift_construct(pair, np.ones(4), g.unit, h_tilde, h)


def test_partial_isometry_residual_sees_a_singular_value_of_1e_minus_7():
    # singular values 1, 1, 1e-7, 0: the 1e-13 eigenvalue clamp of the
    # L^p norms would round 1e-7 to zero and pass this as a partial isometry
    pair = _pair("z4-function")
    rep = bishift_theorem_check(pair, np.array([1e-7, 1.0, 0.0, 1.0]))
    assert rep.details["element_partial_isometry"] == pytest.approx(1e-7, rel=1e-6)
    assert not rep.passed


def test_degenerate_combination_collapses_to_zero():
    # convolving the modulated dual shift against the plain coset kills
    # everything by character orthogonality; the zero element is not a bi-shift
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x_h = np.array([0.0, 1.0, 0.0, 1.0])
    x_tilde = np.array([0.5, 0.0, -0.5, 0.0])
    x = bishift_construct(pair, x_h, g.unit, x_tilde, h)
    assert np.max(np.abs(x.coeffs)) < 1e-12
    with pytest.raises(NotABishift):
        bishift_theorem_check(pair, x)

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgharm import structures
from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.core import (
    FiniteQuantumGroup,
    _maxabs,
    build_group_algebra,
    cyclic_table,
    dihedral_table,
    symmetric_table_s3,
)
from qgharm.duality import build_dual, dual_fourier, fourier_coeffs
from qgharm.errors import QgharmError
from qgharm.structures import (
    RANK_TOL,
    _biprojection_relation,
    _bloch_roots,
    _enumerate,
    _group_like_relation,
    _monomials,
    _quadratic_rows,
    _shift_relations,
    bipartial_isometry_check,
    biprojection_checks,
    biprojection_iff_grouplike,
    bishift_construct,
    bishift_theorem_check,
    enumerate_group_like_projections,
    enumerate_left_shifts,
    glp_properties_checks,
    glpbi_checks,
    group_like_checks,
    range_projection_of_fourier,
    shift_check,
)
from reference import (
    _enumerate_reference,
    _gap_bound,
    _kron_group,
    _point_bound,
    _reference_choices,
    _reference_glpbi_check,
    _reference_is_biprojection,
    _reference_is_group_like_projection,
    _reference_verify_glp_properties,
    _s4_table,
    catalog_pairs,
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

# the messages of the refusals of an uncertified or foreign group-like input
NOT_GROUP_LIKE = r"^not group-like at tol 1e-09: \{"
FOREIGN = "^element belongs to a different algebra$"


def _pair(name):
    return build_dual(get_example(name))


# ---------------------------------------------------------------------------
# group-like projections
# ---------------------------------------------------------------------------

def test_certificate_accepts_a_subgroup_indicator():
    g = get_example("z4-function")
    [cert] = group_like_checks(g, [[1.0, 0.0, 1.0, 0.0]], 1e-9)
    assert cert.holds
    assert cert.details["haar_value"] == pytest.approx(0.5, abs=1e-14)
    assert max(cert.residuals.values()) < 1e-14


def test_certificate_rejects_a_non_subgroup_indicator():
    g = get_example("z4-function")
    # {0, 1} is not closed under the group law
    # and a point mass off the identity is a projection but not group-like
    closed, point = group_like_checks(g, [[1.0, 1.0, 0.0, 0.0], np.eye(4)[1]],
                                      1e-9)
    assert not closed.holds
    assert closed.residuals["defining_relation"] > 0.1
    assert not point.holds


def test_certificate_rejects_zero():
    g = get_example("z2-function")
    [cert] = group_like_checks(g, [[0.0, 0.0]], 1e-9)
    assert not cert.holds
    assert cert.residuals["nonzero"] == math.inf
    # no tolerance, however loose, certifies zero
    assert not group_like_checks(g, [[0.0, 0.0]], 2.0)[0].holds


def test_enumeration_matches_the_subgroup_lattice():
    for name, expected in EXPECTED_GROUP_LIKES.items():
        certs = enumerate_group_like_projections(get_example(name))
        got = sorted(c.details["haar_value"] for c in certs)
        assert np.allclose(got, expected, atol=1e-12), (name, got)


def _subgroup_sums(table):
    """The reference list: the normalized sum of every subgroup of a group
    given by its multiplication table, found by testing every subset."""
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][j] == j for j in range(n)))
    sums = []
    for mask in range(1, 2 ** n):
        members = [i for i in range(n) if mask & (1 << i)]
        if identity in members and all(table[i][j] in members
                                       for i in members for j in members):
            v = np.zeros(n)
            v[members] = 1.0 / len(members)
            sums.append(v)
    return sums


def test_group_algebra_enumeration_equals_the_subgroup_sums():
    # C[D5] has two blocks of size 2, so six Bloch unknowns
    for table in (cyclic_table(2), cyclic_table(4), symmetric_table_s3(),
                  dihedral_table(5)):
        g = build_group_algebra(table)
        got = [c.details["element"].coeffs for c in enumerate_group_like_projections(g)]
        ref = _subgroup_sums(table.table)
        assert len(got) == len(ref), len(table.table)
        for v in ref:
            assert min(_maxabs(v - h) for h in got) <= 1e-9


def test_enumeration_agrees_across_the_fourier_transform():
    # the range of F(h) is a dual group-like projection, one for each h
    for pair in catalog_pairs(duals=True):
        here = enumerate_group_like_projections(pair.base)
        there = [c.details["element"].coeffs
                 for c in enumerate_group_like_projections(pair.dual_qg)]
        assert len(here) == len(there), pair.base.name
        hits = set()
        for cert in here:
            p = range_projection_of_fourier(pair, cert.details["element"])
            gaps = [_maxabs(p - q) for q in there]
            assert min(gaps) <= 1e-9, pair.base.name
            hits.add(int(np.argmin(gaps)))
        assert len(hits) == len(there), pair.base.name


def test_a_sphere_grid_on_kac_paljutkin_sees_only_the_exact_roots():
    # a sampled second route: on every rank-one block choice, the residual
    # at 16000 Bloch vectors (a Fibonacci grid, spacing about 0.03) is
    # small only next to a real root of the exact solve, and is small next
    # to each of them
    pair = _pair("kac-paljutkin")
    g = pair.base
    i = np.arange(16000) + 0.5
    z = 1.0 - 2.0 * i / len(i)
    turn = np.pi * (1.0 + np.sqrt(5.0)) * i
    grid = np.stack([np.sqrt(1.0 - z * z) * np.cos(turn),
                     np.sqrt(1.0 - z * z) * np.sin(turn), z], axis=1)
    h0, dirs, unknowns = g.blocks.choices
    bloch = np.flatnonzero(unknowns)
    for relation in (lambda h: _group_like_relation(g, h),
                     lambda h: _biprojection_relation(pair, h)):
        real_roots = 0
        stack, _ = _bloch_roots(_quadratic_rows(
            relation, h0[bloch], dirs[bloch, :3]), 3)
        for c, roots in zip(bloch, stack):
            real = roots.real.T[np.all(np.abs(roots.imag) <= 1e-6, axis=0)]
            res = np.abs(relation(h0[c] + grid @ dirs[c, :3])).reshape(
                len(grid), -1)
            res = res.max(axis=1)
            dist = np.full(len(grid), np.inf)
            for n in real:
                near = np.linalg.norm(grid - n, axis=1)
                assert res[np.argmin(near)] <= 0.01
                dist = np.minimum(dist, near)
            assert np.all(dist[res <= 0.01] <= 0.2)
            real_roots += len(real)
        assert real_roots == 2


def test_a_block_of_size_three_is_refused():
    # C[S4] has blocks 1, 1, 2, 3, 3: no list is returned, not even a part
    g = build_group_algebra(_s4_table())
    size3 = "^a block of size 3 has projections of rank between 1 and "
    with pytest.raises(QgharmError, match=size3):
        enumerate_group_like_projections(g)
    with pytest.raises(QgharmError, match=size3):
        enumerate_left_shifts(g, g.unit)


def test_a_continuum_of_solutions_is_refused():
    # every rank-one projection of the M_2 block of KP solves the zero
    # relation: the Macaulay null space keeps growing and is never read
    g = get_example("kac-paljutkin")
    with pytest.raises(QgharmError, match="^a Macaulay null space is not "
                                          "stable by degree "):
        _enumerate(g, lambda h: np.zeros(h.shape[:-1] + (1,)), 1e-9)


def test_a_macaulay_matrix_with_fewer_rows_than_columns_is_solved(
        monkeypatch):
    # |n|^2 = 1 and xy = yz = zx = 0 have the six roots +-e_i; the null
    # space is stable at degree 3. The row basis (4 x 10) and the
    # recursion's matrix at degree 3 have fewer rows than columns, and
    # their null spaces need the full V of their SVDs
    monkeypatch.setattr(structures, "MAX_DEGREE", 3)
    cols = _monomials(3, 2)
    equations = [{(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
                  (0, 0, 0): -1.0},
                 {(1, 1, 0): 1.0}, {(0, 1, 1): 1.0}, {(1, 0, 1): 1.0}]
    rows = np.zeros((1, len(equations), len(cols)))
    for i, equation in enumerate(equations):
        for exps, coeff in equation.items():
            rows[0, i, cols[exps]] = coeff
    shapes, v_shapes = [], []
    _count_svd_shapes(monkeypatch, shapes, v_shapes)
    (roots,), _ = _bloch_roots(rows, 3)
    assert np.all(np.abs(roots.imag) <= 1e-12)
    found = sorted(map(tuple, np.round(roots.real.T, 12) + 0.0))
    assert found == sorted(map(tuple, np.concatenate([np.eye(3),
                                                      -np.eye(3)])))
    # every SVD with fewer rows than columns that gives a V gives all of it
    wide = [(shape, v) for shape, v in zip(shapes, v_shapes)
            if v is not None and shape[-2] < shape[-1]]
    assert len(wide) >= 2
    assert all(v[-2:] == (shape[-1], shape[-1]) for shape, v in wide)


def _count_svd_shapes(mp, shapes, v_shapes=None, values=None):
    """Record the shape of the input of every np.linalg.svd call, in
    v_shapes the shape of its V, None when it computes none, and in values
    its singular values."""
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        out = svd(a, *args, **kwargs)
        if v_shapes is not None:
            v_shapes.append(out.Vh.shape if isinstance(out, tuple) else None)
        if values is not None:
            values.append(out.S if isinstance(out, tuple) else out)
        return out

    mp.setattr(np.linalg, "svd", counted)


def _planted_rows(points, seed):
    """Rows over _monomials(3, 2) of every quadric that vanishes at the
    points, mixed by a seeded random matrix."""
    exps = np.array(list(_monomials(3, 2)))
    mono = np.prod(points[:, None, :] ** exps, axis=-1)
    quadrics = np.linalg.svd(mono)[2][len(points):]
    rng = np.random.default_rng(seed)
    return rng.standard_normal((len(quadrics), len(quadrics))) @ quadrics


_unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) >= 0.5).map(lambda v: v / np.linalg.norm(v))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(points=st.lists(_unit_vectors, min_size=3, max_size=4),
       a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_planted_roots_are_found_and_contradicting_affine_rows_close(
        points, a, b, seed):
    # three or four unit vectors in general position are the only roots of
    # the quadrics through them, found in lexicographic order whatever the
    # mixing of the rows; with n_x = a and n_x = b added, the rank at
    # degree 2 is at most 9 of 10, so only the affine rows can close the
    # system before a Macaulay step, whose matrix is wider than the 10
    # monomials of degree <= 2
    points = np.array(points)
    assume(min(np.linalg.norm(p - q) for i, p in enumerate(points)
               for q in points[:i]) >= 0.3)
    assume(np.linalg.svd(np.c_[np.ones(len(points)), points],
                         compute_uv=False)[-1] >= 0.05)
    assume(abs(a - b) >= 0.1)
    rows = _planted_rows(points, seed)
    contradiction = np.zeros((2, len(_monomials(3, 2))))
    contradiction[:, 0], contradiction[:, 1] = [-a, -b], 1.0
    with pytest.MonkeyPatch.context() as mp:
        shapes = []
        _count_svd_shapes(mp, shapes)
        (roots,), _ = _bloch_roots(rows[None], 3)
        assert any(shape[-1] > 10 for shape in shapes)
        for p in points:
            assert np.min(np.linalg.norm(roots.T - p, axis=1)) <= 1e-6
        key = np.round(roots.real, 6)
        assert list(np.lexsort(key[::-1])) == list(range(len(points)))
        (mixed,), _ = _bloch_roots(_planted_rows(points, seed + 1)[None], 3)
        assert np.max(np.abs(mixed - roots)) <= 1e-6
        shapes.clear()
        (roots,), _ = _bloch_roots(
            np.concatenate([rows, contradiction])[None], 3)
        assert roots.shape == (3, 0)
        assert all(shape[-1] <= 10 for shape in shapes)


def test_one_equals_zero_alone_closes_without_a_weak_decision():
    # |n|^2 = 1 and 1 = 0: the only affine row is the constant, whose
    # n-columns keep no singular value; that is no kept value of 0
    cols = _monomials(3, 2)
    rows = np.zeros((1, 2, len(cols)))
    rows[0, 0, [cols[0, 0, 0], cols[2, 0, 0], cols[0, 2, 0],
                cols[0, 0, 2]]] = [-1.0, 1.0, 1.0, 1.0]
    rows[0, 1, cols[0, 0, 0]] = 1.0
    (roots,), ((kept, dropped),) = _bloch_roots(rows, 3)
    assert roots.shape == (3, 0)
    assert kept > 0.3 and dropped < 1e-12


def test_kac_paljutkin_biprojections_close_at_degree_two(monkeypatch):
    # 7 of the 8 choices with the rank-one block and 1 on the counit's
    # block have 1 = 0 among their affine rows; the eighth alone goes on to
    # Macaulay degree 5: one system in each Macaulay step, the SVDs wider
    # than the 10 monomials of degree <= 2
    pair = _pair("kac-paljutkin")
    assert biprojection_iff_grouplike(pair).holds
    g = pair.base
    shapes = []
    _count_svd_shapes(monkeypatch, shapes)
    _enumerate(g, lambda h: _biprojection_relation(pair, h), 1e-9,
               structures._counit_one(g))
    stacks = [shape for shape in shapes
              if len(shape) == 3 and shape[-1] > 10]
    assert [shape[0] for shape in stacks] == [1, 1, 1]


def test_each_macaulay_step_decomposes_the_kernel_and_the_new_monomials(
        monkeypatch):
    # at degree d >= 3 the matrix decomposed is [A N, B]: the k columns of
    # the kernel N of degree d - 1 and the new monomials of degree d, never
    # the whole Macaulay matrix; for six unknowns at degree 5 that is k +
    # 252 columns against 462
    reached = set()
    for n in (5, 6):
        pair = build_dual(build_group_algebra(dihedral_table(n)))
        g = pair.base
        h0, dirs, unknowns = g.blocks.choices
        six = np.flatnonzero(unknowns == 6)
        for relation in (lambda h: _group_like_relation(g, h),
                         lambda h: _biprojection_relation(pair, h)):
            for rows in _quadratic_rows(relation, h0[six], dirs[six, :6]):
                shapes, values = [], []
                with pytest.MonkeyPatch.context() as mp:
                    _count_svd_shapes(mp, shapes, values=values)
                    _bloch_roots(rows[None], 6)
                # the row basis first, over the 28 monomials of degree <= 2
                nulls = [shape[-1] - np.sum(s / s[..., :1] > RANK_TOL)
                         for shape, s in zip(shapes, values)]
                steps = [i for i, shape in enumerate(shapes)
                         if len(shape) == 3 and shape[-1] > shapes[0][-1]]
                for d, (i, k) in enumerate(
                        zip(steps, [nulls[0]] + [nulls[i] for i in steps]),
                        start=3):
                    assert shapes[i][-1] <= k + math.comb(d + 5, 5)
                    reached.add(d)
    assert 5 in reached


# ---------------------------------------------------------------------------
# the stacked solve against the per-choice reference
# ---------------------------------------------------------------------------

def _relations(pair):
    """The group-like, biprojection and left-shift relations of the base,
    the last over every group-like projection."""
    g = pair.base
    yield lambda h: _group_like_relation(g, h)
    yield lambda h: _biprojection_relation(pair, h)
    for cert in enumerate_group_like_projections(g):
        hc = cert.details["element"].coeffs
        yield lambda x, hc=hc: np.concatenate(
            list(_shift_relations(g, x, hc, "left").values()), axis=-1)


def _assert_same_points(got, want):
    assert got.choices == want.choices
    assert len(got.points) == len(want.points)
    assert all(p.dtype == q.dtype and p.tobytes() == q.tobytes()
               for p, q in zip(got.points, want.points))


def _choices_of(g, points):
    """The block choice of each point, read from the traces of its blocks
    (0, 1 or 2, which tell the choices apart), and its Bloch vector in
    that choice's directions."""
    h0, dirs, unknowns = g.blocks.choices

    def traces(x):
        return [tuple(t) for t in np.rint(np.concatenate(
            [np.trace(b, axis1=-2, axis2=-1).real
             for b in g.blocks.matrices(x)], axis=-1)).astype(int)]
    index = {t: c for c, t in enumerate(traces(h0))}
    choice = np.array([index[t] for t in traces(np.reshape(
        points, (len(points), g.dim)))], dtype=int)
    bloch = [np.linalg.lstsq(dirs[c, :unknowns[c]].T, h - h0[c])[0].real
             for c, h in zip(choice, points)]
    return choice, bloch


def _assert_points_within_bound(g, got, want):
    """The same number of choices and of points of each block choice, in
    the order of the choices. Within a choice, got's points come in
    lexicographic order of their Bloch vectors rounded to 6 decimals, and
    each is within _point_bound of its own point of want (the same bytes
    on a choice without rank-one blocks)."""
    assert got.choices == want.choices
    assert len(got.points) == len(want.points)
    choice, bloch = _choices_of(g, got.points)
    assert np.array_equal(choice, _choices_of(g, want.points)[0])
    assert np.all(np.diff(choice) >= 0)
    unknowns = g.blocks.choices[2]
    solved = np.flatnonzero(unknowns)
    for c in set(choice.tolist()):
        at = np.flatnonzero(choice == c)
        if not unknowns[c]:
            assert all(got.points[i].tobytes() == want.points[i].tobytes()
                       for i in at)
            continue
        key = np.round([bloch[i] for i in at], 6)
        assert list(np.lexsort(key.T[::-1])) == list(range(len(at)))
        s = np.searchsorted(solved, c)
        bound = _point_bound(unknowns[c], min(got.gaps[s][0],
                                              want.gaps[s][0]))
        dist = np.array([[_maxabs(got.points[i] - want.points[j])
                          for j in at] for i in at])
        assert sorted(dist.argmin(axis=1)) == list(range(len(at)))
        assert np.all(dist.min(axis=1) <= bound), (c, dist.min(axis=1))


def _assert_gaps_within_bound(g, got, want):
    """The gaps of each solved choice: equal where infinite, and otherwise
    within _gap_bound of its number of Bloch unknowns, or as clear a
    separation on both sides (kept above 1e-3, dropped below 1e-12): past
    degree 2 the recursion decomposes other matrices than the reference's
    Macaulay matrices, with the same null spaces but other singular
    values."""
    bounds = [_gap_bound(m) for m in g.blocks.choices[2] if m]
    assert len(got.gaps) == len(want.gaps) == len(bounds)
    for (kept, dropped), (ref_kept, ref_dropped), bound in zip(
            got.gaps, want.gaps, bounds):
        assert kept == ref_kept if math.isinf(ref_kept) \
            else abs(kept - ref_kept) <= bound or min(kept, ref_kept) > 1e-3
        assert abs(dropped - ref_dropped) <= bound \
            or max(dropped, ref_dropped) < 1e-12


def _assert_matches_both_references(g, relation):
    """The stacked solve has the point counts of the per-choice reference
    and its points within _point_bound, and its gaps as in
    _assert_gaps_within_bound; and the reference has, byte for byte, the
    points of the solver without the affine-row closing."""
    got = _enumerate(g, relation, 1e-9)
    want = _enumerate_reference(g, relation, 1e-9)
    _assert_points_within_bound(g, got, want)
    _assert_gaps_within_bound(g, got, want)
    _assert_same_points(want, _enumerate_reference(g, relation, 1e-9,
                                                   affine_rows=False))
    return got


def test_the_stacked_solve_matches_the_per_choice_reference():
    for pair in catalog_pairs(duals=True):
        for relation in _relations(pair):
            _assert_matches_both_references(pair.base, relation)


def test_the_stacked_solve_equals_the_references_on_dihedral_groups():
    # C[D4] and C[D6] have 16 and 64 choices with three Bloch unknowns,
    # C[D5] and C[D6] 4 and 16 with six; most biprojection systems close
    # at degree 2
    for n in (4, 5, 6):
        pair = build_dual(build_group_algebra(dihedral_table(n)))
        g = pair.base
        _assert_matches_both_references(
            g, lambda h: _group_like_relation(g, h))
        _assert_matches_both_references(
            g, lambda h: _biprojection_relation(pair, h))


def test_the_stacked_solve_equals_the_reference_with_two_bloch_blocks():
    # blocks 8 x 1 + 2 x 2: 1024 choices with one rank-one block and 256
    # with two, the only stack of six Bloch unknowns the catalog reaches
    g = _kron_group(get_example("kac-paljutkin"), get_example("z2-function"))
    got = _assert_matches_both_references(
        g, lambda h: _group_like_relation(g, h))
    assert len(got.points) == 27
    assert np.sum(g.blocks.choices[2] == 6) == 256


def _counted(relation, calls):
    def wrapped(h):
        calls.append(h.shape)
        return relation(h)
    return wrapped


def test_each_relation_is_called_once_per_stack_on_kac_paljutkin():
    # 31 point choices in one call, then the 10 stencil points of all 16
    # choices with the rank-one block in one more
    pair = _pair("kac-paljutkin")
    g = pair.base
    for relation in (lambda h: _group_like_relation(g, h),
                     lambda h: _biprojection_relation(pair, h)):
        calls = []
        _enumerate(g, _counted(relation, calls), 1e-9)
        assert calls == [(31, 8), (16, 10, 8)]


def test_stacks_split_into_chunks_give_the_same_enumeration(monkeypatch):
    pair = _pair("kac-paljutkin")
    g = pair.base
    relations = list(_relations(pair))
    whole = [_enumerate(g, relation, 1e-9) for relation in relations]
    # three times the worst Macaulay matrix of one choice with m = 3: rank
    # 10, 35 monomial shifts, 84 columns
    monkeypatch.setattr(structures, "MAX_MACAULAY_ENTRIES", 3 * 10 * 35 * 84)
    for relation, want in zip(relations, whole):
        calls = []
        got = _enumerate(g, _counted(relation, calls), 1e-9)
        _assert_same_points(got, want)
        assert got.gaps == want.gaps
        assert [shape[0] for shape in calls[1:]] == [3, 3, 3, 3, 3, 1]


def test_three_two_by_two_blocks_are_refused_before_any_solve():
    # C[D7] has blocks 1, 1, 2, 2, 2: one choice with nine Bloch unknowns
    # could need a Macaulay matrix of about 197M entries
    start = time.perf_counter()
    g = build_group_algebra(dihedral_table(7))
    with pytest.raises(QgharmError, match="Macaulay entries, above the "
                                          "bound of "):
        enumerate_group_like_projections(g)
    assert time.perf_counter() - start < 5.0
    calls = []
    with pytest.raises(QgharmError, match="Macaulay entries, above the "
                                          "bound of "):
        _enumerate(g, _counted(lambda h: _group_like_relation(g, h), calls),
                   1e-9)
    assert calls == []


def test_glp_derived_properties_hold_everywhere():
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        certs = enumerate_group_like_projections(g)
        for rep in glp_properties_checks(
                g, [c.details["element"] for c in certs], 1e-9):
            assert rep.holds, (name, rep.details)
            assert max(rep.residuals.values()) < 1e-12


def test_group_like_checks_take_a_certificate_for_its_element():
    for name in ("z4-function", "kac-paljutkin"):
        pair = _pair(name)
        certs = enumerate_group_like_projections(pair.base)
        hs = [c.details["element"] for c in certs]
        assert glp_properties_checks(pair.base, certs, 1e-9) \
            == glp_properties_checks(pair.base, hs, 1e-9)
        assert glpbi_checks(pair, certs, 1e-9) == glpbi_checks(pair, hs, 1e-9)


def test_group_like_checks_refuse_a_record_that_does_not_certify():
    pair = _pair("z4-function")
    g = pair.base
    h = enumerate_group_like_projections(g)[1].details["element"]
    for record in (group_like_checks(g, [np.eye(4)[1]], 1e-9)[0],
                   group_like_checks(g, [h], 1e-7)[0],
                   biprojection_checks(pair, [h], 1e-9)[0]):
        with pytest.raises(QgharmError, match=NOT_GROUP_LIKE):
            glp_properties_checks(g, [record], 1e-9)
        with pytest.raises(QgharmError, match=NOT_GROUP_LIKE):
            glpbi_checks(pair, [record], 1e-9)
    # a certificate for an element of another algebra of the same dimension
    foreign = enumerate_group_like_projections(_pair("z2-group").base)[0]
    z2 = _pair("z2-function")
    with pytest.raises(QgharmError, match=FOREIGN):
        glp_properties_checks(z2.base, [foreign], 1e-9)
    with pytest.raises(QgharmError, match=FOREIGN):
        glpbi_checks(z2, [foreign], 1e-9)


def test_glp_properties_refuse_non_group_like_input():
    g = get_example("z4-function")
    with pytest.raises(QgharmError, match=NOT_GROUP_LIKE):
        glp_properties_checks(g, [np.eye(4)[1]], 1e-9)


# ---------------------------------------------------------------------------
# biprojections and the Fourier image
# ---------------------------------------------------------------------------

def test_transform_of_group_like_is_a_biprojection():
    for pair in catalog_pairs():
        certs = enumerate_group_like_projections(pair.base)
        for cert, rep in zip(certs, biprojection_checks(
                pair, [c.details["element"] for c in certs], 1e-9)):
            assert rep.holds, (pair.base.name, rep.details)
            assert rep.details["multiple"] == pytest.approx(
                cert.details["haar_value"], abs=1e-10)


def test_biprojection_rejects_zero_input():
    pair = _pair("z2-function")
    [rep] = biprojection_checks(pair, [[0.0, 0.0]], 1e-9)
    assert not rep.holds
    assert "nonzero_transform" in rep.failing()
    assert not biprojection_checks(pair, [[0.0, 0.0]], 2.0)[0].holds


def test_fourier_image_is_dual_group_like():
    worst = 0.0
    for pair in catalog_pairs():
        certs = enumerate_group_like_projections(pair.base)
        for rep in glpbi_checks(
                pair, [c.details["element"] for c in certs], 1e-9):
            assert rep.holds, (pair.base.name, rep.details)
            worst = max(worst, *rep.residuals.values())
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
    for pair in catalog_pairs(duals=True):
        d = pair.dual_qg
        for cert in enumerate_group_like_projections(pair.base):
            p = range_projection_of_fourier(pair, cert.details["element"])
            f = fourier_coeffs(pair, cert.details["element"])
            assert _maxabs(d.multiply(p, p) - p) < 1e-12, d.name
            assert _maxabs(d.star_of(p) - p) < 1e-12, d.name
            assert _maxabs(d.multiply(p, f) - f) < 1e-12, d.name
            assert _maxabs(d.multiply(f, p) - f) < 1e-12, d.name


def test_equivalence_sweep_over_all_small_examples():
    # projections_checked counts the nonzero block choices: 2^k - 1 for k
    # blocks of size 1, 2 * 2 * 3 - 1 for the blocks 1, 1, 2 of C[S3],
    # 2^4 * 3 - 1 for KP and 2 * 2 * 3 * 3 - 1 for C[D5]; then the choices
    # with a rank-one block and 1 on the counit's block, each solved twice
    # (2 * 1, 2^3 * 1 and 2 * (3 * 3 - 2 * 2) of them), and the
    # biprojections
    expected = {name: (count, 0, len(EXPECTED_GROUP_LIKES[name])) for
                name, count in (("z2-function", 3), ("z3-function", 7),
                                ("z4-function", 15), ("s3-function", 63),
                                ("z2-group", 3))}
    expected["s3-group"] = (11, 2, 6)
    expected["kac-paljutkin"] = (47, 8, 8)
    expected["C[D5]"] = (35, 10, 8)
    for name, (count, with_bloch, biprojections) in expected.items():
        pair = (build_dual(build_group_algebra(dihedral_table(5)))
                if name == "C[D5]" else _pair(name))
        rep = biprojection_iff_grouplike(pair)
        assert rep.holds, (name, rep.details)
        assert rep.details["projections_checked"] == count, name
        assert rep.details["disagreements"] == []
        assert rep.details["biprojections"] == biprojections, name
        # every rank decision, the affine rows' ones at degree 2 included,
        # keeps singular values far above those it drops
        gaps = rep.details["singular_value_gaps"]
        solved = gaps["group_like"] + gaps["biprojection"]
        assert len(solved) == 2 * with_bloch, name
        assert all(kept > 1e-3 and dropped < 1e-12 for kept, dropped in solved)


# ---------------------------------------------------------------------------
# the counit pruning
# ---------------------------------------------------------------------------

def _assert_pruned_equals_full(g, relation):
    """The full solve finds no point on the choices with epsilon(h0) = 0,
    and the pruned solve has the full solve's points, byte for byte, and
    the rank decisions of the choices it solves."""
    keep = structures._counit_one(g)
    assert _enumerate(g, relation, 1e-9, ~keep).points == []
    full = _enumerate(g, relation, 1e-9)
    pruned = _enumerate(g, relation, 1e-9, keep)
    _assert_same_points(pruned, full)
    solved = keep[g.blocks.choices[2] > 0]
    assert pruned.gaps == [gap for gap, s in zip(full.gaps, solved) if s]


def test_choices_with_counit_zero_hold_no_group_like_or_biprojection():
    pairs = list(catalog_pairs(duals=True))
    for n in (4, 5, 6):
        pair = build_dual(build_group_algebra(dihedral_table(n)))
        pairs += [pair, build_dual(pair.dual_qg)]
    for pair in pairs:
        g = pair.base
        _assert_pruned_equals_full(g, lambda h: _group_like_relation(g, h))
        _assert_pruned_equals_full(
            g, lambda h: _biprojection_relation(pair, h))
    g = _kron_group(get_example("kac-paljutkin"), get_example("z2-function"))
    _assert_pruned_equals_full(g, lambda h: _group_like_relation(g, h))


def test_the_block_choices_are_the_reference_list_byte_for_byte():
    # h0 adds the blocks' options in block order from 0, as the Python sum
    # of the reference list does; the directions of a choice are its rows
    # of the list, then zero rows; the counit mask is the list's
    algebras = [pair.base for pair in catalog_pairs(duals=True)]
    algebras += [build_group_algebra(dihedral_table(n)) for n in (4, 5, 6)]
    algebras.append(_kron_group(get_example("kac-paljutkin"),
                                get_example("z2-function")))
    for g in algebras:
        h0, dirs, unknowns = g.blocks.choices
        want = _reference_choices(g.blocks)
        assert len(h0) == len(unknowns) == len(dirs) == len(want)
        for c, (want_h0, want_dirs) in enumerate(want):
            assert h0[c].dtype == want_h0.dtype
            assert h0[c].tobytes() == want_h0.tobytes()
            assert unknowns[c] == len(want_dirs)
            assert dirs[c, :unknowns[c]].tobytes() == want_dirs.tobytes()
            assert not np.any(dirs[c, unknowns[c]:])
        eps = np.array([want_h0 for want_h0, _ in want]) @ g.counit
        assert np.array_equal(structures._counit_one(g),
                              np.abs(eps - 1) <= structures.CERT_TOL)


def _with_counit(g, counit):
    """g with the counit counit and Delta(x) = 1 . x, which keeps the
    counit law whenever counit(1) = 1."""
    n = g.dim
    return FiniteQuantumGroup(
        mult=g.mult, unit=g.unit, comult=np.kron(g.unit[:, None], np.eye(n)),
        counit=counit, antipode=g.antipode, star=g.star, haar=g.haar)


def test_a_broken_premise_of_the_counit_pruning_is_refused():
    # each premise fails alone, and the enumeration refuses instead of
    # pruning: a counit off by 1e-6, a counit that is 1/2 on two central
    # projections, the counit plus a functional that is 0 on the unit of
    # the M_2 block but not on its sigma_z direction, and a dual weight off
    # by 1e-6
    pair = _pair("kac-paljutkin")
    g = pair.base
    to_blocks = g.blocks.to_blocks
    bumped = g.counit.copy()
    bumped[3] += 1e-6
    cases = [
        (replace(g, counit=bumped), "the counit law"),
        (_with_counit(g, 0.5 * (to_blocks[0] + to_blocks[1])),
         r"epsilon\(h0\) in \{0, 1\}"),
        (_with_counit(g, g.counit + 0.25 * (to_blocks[4] - to_blocks[7])),
         "epsilon = 0 on the Bloch directions"),
    ]
    for h, premise in cases:
        with pytest.raises(QgharmError, match=f"^the counit pruning needs "
                                              f"{premise}; it fails by "):
            enumerate_group_like_projections(h)
    w = pair.dual_weight.copy()
    w[0] += 1e-6
    with pytest.raises(QgharmError, match=r"needs phihat\(F\(x\)\) = "
                                          r"epsilon\(x\), Q\^T w = epsilon; "):
        biprojection_iff_grouplike(replace(pair, dual_weight=w))


# ---------------------------------------------------------------------------
# the stacked certificates against the per-element reference
# ---------------------------------------------------------------------------

# details that are computed values, held to 4e-16 relative
COMPUTED_DETAILS = ("haar_value", "multiple", "dual_weight_of_range")


def _assert_same_record(got, want):
    assert (got.name, got.claim, got.tol, got.holds) \
        == (want.name, want.claim, want.tol, want.holds)
    assert list(got.residuals) == list(want.residuals)
    for key, value in want.residuals.items():
        assert got.residuals[key] == pytest.approx(value, rel=0, abs=1e-15)
    assert list(got.details) == list(want.details)
    for key, value in want.details.items():
        if key in COMPUTED_DETAILS:
            assert got.details[key] == pytest.approx(value, rel=4e-16, abs=0)
        elif key == "element":
            assert got.details[key].owner is value.owner
            assert np.array_equal(got.details[key].coeffs, value.coeffs)
        else:
            assert got.details[key] == value


def test_the_stacked_certificates_equal_the_per_element_reference():
    # every enumerated group-like projection and biprojection, and the
    # zero element and the basis vectors, so that failing rows and the
    # zero-transform branch are compared too
    for pair in catalog_pairs(duals=True):
        g = pair.base
        certs = enumerate_group_like_projections(g)
        bis = _enumerate(g, lambda h: _biprojection_relation(pair, h),
                         1e-9).points
        hs = ([c.details["element"].coeffs for c in certs] + bis
              + [np.zeros(g.dim)] + list(np.eye(g.dim)))
        for got, h in zip(group_like_checks(g, hs, 1e-9), hs):
            _assert_same_record(
                got, _reference_is_group_like_projection(g, h, 1e-9))
        for got, h in zip(biprojection_checks(pair, hs, 1e-9), hs):
            _assert_same_record(
                got, _reference_is_biprojection(pair, h, 1e-9))
        for got, cert in zip(glp_properties_checks(g, certs, 1e-9),
                             certs):
            _assert_same_record(
                got, _reference_verify_glp_properties(g, cert, 1e-9))
        for got, cert in zip(glpbi_checks(pair, certs, 1e-9), certs):
            _assert_same_record(
                got, _reference_glpbi_check(pair, cert, 1e-9))


def test_one_perturbed_row_fails_alone_and_moves_no_other_row():
    pair = _pair("kac-paljutkin")
    g = pair.base
    hs = np.array([c.details["element"].coeffs
                   for c in enumerate_group_like_projections(g)])
    perturbed = hs.copy()
    perturbed[3, -1] += 1e-6
    others = np.arange(len(hs)) != 3
    for stacked, of in ((group_like_checks, g),
                        (biprojection_checks, pair)):
        want, got = stacked(of, hs, 1e-9), stacked(of, perturbed, 1e-9)
        assert all(c.holds for c in want)
        assert [c.holds for c in got] == list(others), stacked.__name__
        assert [c.residuals for c, keep in zip(got, others) if keep] \
            == [c.residuals for c, keep in zip(want, others) if keep]
    # the derived checks take certificates: certified at 1e-5, the
    # perturbed row passes, and still moves no other row's residuals
    certs = group_like_checks(g, perturbed, 1e-5)
    clean = group_like_checks(g, hs, 1e-5)
    for stacked, of in ((glp_properties_checks, g), (glpbi_checks, pair)):
        want, got = stacked(of, clean, 1e-5), stacked(of, certs, 1e-5)
        assert max(got[3].residuals.values()) > 1e-8, stacked.__name__
        assert [c.residuals for c, keep in zip(got, others) if keep] \
            == [c.residuals for c, keep in zip(want, others) if keep]


def test_empty_stacks_give_no_records():
    pair = _pair("z4-function")
    assert group_like_checks(pair.base, [], 1e-9) == []
    assert biprojection_checks(pair, [], 1e-9) == []
    assert glp_properties_checks(pair.base, [], 1e-9) == []
    assert glpbi_checks(pair, [], 1e-9) == []


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_shift_certificate_fields():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([0.0, 1.0, 0.0, 1.0])
    cert = shift_check(g, x, h, side="left")
    assert cert.holds
    assert "mu_x = 1" in cert.details["delta_eigenvalue"]
    assert cert.details["side"] == "left"
    assert max(cert.residuals.values()) < 1e-14
    assert "trivially satisfied" in cert.details["modular_invariance"]


def test_shift_check_rejects_bad_inputs():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(QgharmError,
                       match="^shift candidate must be a projection$"):
        shift_check(g, [0.3, 0.1, 0.0, 0.0], h)
    with pytest.raises(QgharmError, match=NOT_GROUP_LIKE):
        shift_check(g, h, np.eye(4)[1])
    with pytest.raises(QgharmError, match="^side must be 'left' or 'right'$"):
        shift_check(g, h, h, side="middle")


def test_wrong_coset_weight_fails_the_certificate():
    g = get_example("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    cert = shift_check(g, np.ones(4), h)
    assert not cert.holds
    assert cert.residuals["weight_equality"] == pytest.approx(0.5)


def test_right_shifts_and_the_antipode_bridge():
    g = get_example("s3-function")
    h = np.zeros(6)
    h[[0, 3, 4]] = 1.0  # the even permutations
    x = np.zeros(6)
    x[[1, 2, 5]] = 1.0  # the odd coset
    right = shift_check(g, x, h, side="right")
    assert right.holds
    left = shift_check(g, g.antipode @ x, h, side="left")
    assert left.holds


# ---------------------------------------------------------------------------
# bi-partial isometries and bi-shifts
# ---------------------------------------------------------------------------

def test_every_certified_shift_is_a_bipartial_isometry():
    # on C(G) the left shifts of a group-like projection 1_H are its left
    # cosets, as many as the index of H, 1 / phi(1_H)
    totals = {"z2-function": 3, "z3-function": 4, "z4-function": 7,
              "s3-function": 18}
    for name, total in totals.items():
        pair = _pair(name)
        g = pair.base
        seen = 0
        for cert in enumerate_group_like_projections(g):
            shifts = enumerate_left_shifts(g, cert.details["element"])
            assert len(shifts) == round(1.0 / cert.details["haar_value"]), \
                name
            for s in shifts:
                rep = bipartial_isometry_check(pair, s.details["element"],
                                               cert.details["element"])
                assert rep.holds, (name, rep.details)
                assert max(rep.residuals.values()) < 1e-12
            seen += len(shifts)
        assert seen == total, name


def test_left_shifts_need_not_solve_the_weight_equality():
    """enumerate_left_shifts leaves phi(x) = phi(h) out of its system, since
    the shift and base relations imply it for a projection x != 0. Solving
    all three relations finds the same points, as a set within 1e-12
    (distinct projections lie far apart), on every catalog example and its
    dual; the roots of one block choice may come in another order."""
    for pair in catalog_pairs(duals=True):
        g = pair.base
        for cert in enumerate_group_like_projections(g):
            hc = cert.details["element"].coeffs
            got = np.array([s.details["element"].coeffs
                            for s in enumerate_left_shifts(g, hc)])
            want = np.array(_enumerate(g, lambda x: np.concatenate(
                list(_shift_relations(g, x, hc, "left").values()), axis=-1),
                structures.CERT_TOL).points)
            assert got.shape == want.shape, g.name
            dist = np.max(np.abs(got[:, None] - want[None]), axis=-1)
            assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) \
                <= 1e-12, g.name


def test_group_algebra_bipartial_isometries():
    # (Haar value, number of left shifts) of each group-like projection
    expected = {
        "z2-group": [(0.5, 2), (1.0, 1)],
        "s3-group": [(1 / 6, 2), (1 / 3, 3), (0.5, 2), (0.5, 2), (0.5, 2),
                     (1.0, 1)],
        "kac-paljutkin": [(0.125, 4), (0.25, 4), (0.25, 4), (0.25, 4),
                          (0.5, 2), (0.5, 2), (0.5, 2), (1.0, 1)],
    }
    for name, spec in expected.items():
        pair = _pair(name)
        g = pair.base
        got = []
        for cert in enumerate_group_like_projections(g):
            shifts = enumerate_left_shifts(g, cert.details["element"])
            for s in shifts:
                rep = bipartial_isometry_check(pair, s.details["element"],
                                               cert.details["element"])
                assert rep.holds, (name, rep.details)
                assert max(rep.residuals.values()) < 1e-12
            got.append((round(cert.details["haar_value"], 9), len(shifts)))
        assert sorted(got) == [(round(a, 9), b) for a, b in spec], name
    # on C[Z2] the shifts of (e + a)/2 are itself and (e - a)/2
    g = get_example("z2-group")
    shifts = enumerate_left_shifts(g, np.array([0.5, 0.5]))
    got = {tuple(np.round(s.details["element"].coeffs.real, 9)) for s in shifts}
    assert got == {(0.5, 0.5), (0.5, -0.5)}


def test_bipartial_isometry_refuses_an_uncertified_pair():
    pair = _pair("z4-function")
    h = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(QgharmError, match="^shift certificate failed: "):
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
    assert rep.holds
    assert max(rep.residuals.values()) < 1e-12


def test_bishift_with_a_modulated_dual_shift():
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    x_h = np.array([0.0, 1.0, 0.0, 1.0])
    x_tilde = np.array([0.5, 0.0, -0.5, 0.0])
    x = bishift_construct(pair, x_h, np.eye(4)[1], x_tilde, h)
    assert np.max(np.abs(x.coeffs - np.array([0.0, 0.5, 0.0, -0.5]))) < 1e-12
    rep = bishift_theorem_check(pair, x)
    assert rep.holds, rep.details


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
    assert rep.holds
    assert max(rep.residuals.values()) < 1e-12


def test_bishift_construct_requires_certificates():
    pair = _pair("z4-function")
    g = pair.base
    h = np.array([1.0, 0.0, 1.0, 0.0])
    h_tilde = range_projection_of_fourier(pair, h)
    # the full indicator has the wrong weight, so its certificate fails
    with pytest.raises(QgharmError,
                       match="^base shift certificate failed: "):
        bishift_construct(pair, np.ones(4), g.unit, h_tilde, h)


def test_partial_isometry_residual_sees_a_singular_value_of_1e_minus_7():
    # singular values 1, 1, 1e-7, 0: the 1e-13 eigenvalue clamp of the
    # L^p norms would round 1e-7 to zero and pass this as a partial isometry
    pair = _pair("z4-function")
    rep = bishift_theorem_check(pair, np.array([1e-7, 1.0, 0.0, 1.0]))
    assert rep.residuals["element_partial_isometry"] == pytest.approx(1e-7, rel=1e-6)
    assert not rep.holds


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
    with pytest.raises(QgharmError,
                       match="^zero element cannot be a bi-shift$"):
        bishift_theorem_check(pair, x)

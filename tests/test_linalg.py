import numpy as np

from qgharm.linalg import range_projection
from reference import _random


def test_range_projection_rank_one():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    p = range_projection(v)
    assert np.max(np.abs(p - 0.5 * np.ones((2, 2)))) < 1e-12


def test_range_projection_is_projection():
    rng = np.random.default_rng(4)
    a = _random((6, 3), rng)
    p = range_projection(a)
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.max(np.abs(p - p.conj().T)) < 1e-10
    # rank equals the column count of a full-rank tall factor
    assert abs(np.trace(p).real - 3.0) < 1e-8
    # a stack gives the per-matrix results: the cutoff is relative to each
    # member, so a large member does not truncate a rank-one or zero one
    stack = _random((3, 6, 3), rng)
    stack[0] *= 1e6
    stack[1, :, 1:] = 0.0
    stack[2] = 0.0
    ps = range_projection(stack)
    assert ps.shape == (3, 6, 6)
    for got, a in zip(ps, stack):
        assert np.max(np.abs(got - range_projection(a))) < 1e-14
    assert [round(np.trace(q).real) for q in ps] == [3, 1, 0]


def test_range_projection_of_zero():
    p = range_projection(np.zeros((3, 3)))
    assert np.max(np.abs(p)) == 0.0

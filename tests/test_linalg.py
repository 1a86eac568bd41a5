import numpy as np
import pytest

from qgharm.errors import NotHermitian, ShapeMismatch
from qgharm.linalg import eig_hermitian, range_projection


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def test_eig_hermitian_reconstructs():
    a = random_hermitian(7, seed=0)
    eig = eig_hermitian(a)
    assert np.max(np.abs(eig.reconstruct() - a)) < 1e-12
    v = eig.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(7))) < 1e-12
    assert np.all(np.diff(eig.eigenvalues) >= -1e-12)


def test_eig_hermitian_rejects_nonhermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        eig_hermitian(a)


def test_eig_hermitian_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        eig_hermitian(np.ones((2, 3)))


def test_range_projection_rank_one():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    p = range_projection(v)
    assert np.max(np.abs(p - 0.5 * np.ones((2, 2)))) < 1e-12


def test_range_projection_is_projection():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    p = range_projection(a)
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.max(np.abs(p - p.conj().T)) < 1e-10
    # rank equals the column count of a full-rank tall factor
    assert abs(np.trace(p).real - 3.0) < 1e-8


def test_range_projection_of_zero():
    p = range_projection(np.zeros((3, 3)))
    assert np.max(np.abs(p)) == 0.0

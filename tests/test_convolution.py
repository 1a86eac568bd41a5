import numpy as np

from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import (convolve, left_convolution_matrix,
                                right_convolution_matrix)
from qgharm.core import build_function_algebra, symmetric_table_s3
from reference import _random


def convolve_functional_form(g, omega, theta):
    """(omega * theta) = (omega . theta) Delta, on functional coefficient
    rows: the reference of the element convolution."""
    om = np.asarray(omega, dtype=complex).reshape(-1)
    th = np.asarray(theta, dtype=complex).reshape(-1)
    return om @ (th @ g.comult3)


def functional_of(g, x):
    """Coefficient row of the functional x phi: y -> phi(y x)."""
    return g.coeffs_of(x) @ g.q_matrix.T


def test_function_algebra_convolution_is_classical():
    """On C(G) the product x * y must match the classical group convolution
    (x * y)(s) = (1/|G|) sum_t x(t) y(t^{-1} s)."""
    table = symmetric_table_s3()
    g = build_function_algebra(table)
    rng = np.random.default_rng(5)
    x = _random(6, rng)
    y = _random(6, rng)
    expect = np.zeros(6, dtype=complex)
    for s in range(6):
        for t in range(6):
            expect[s] += x[t] * y[table.table[table.inverse[t]][s]]
    expect /= 6.0
    got = convolve(g, x, y).coeffs
    assert np.max(np.abs(got - expect)) < 1e-12


def test_delta_basis_convolution_on_z4():
    # delta_i * delta_j = (1/4) delta_{i+j} on C(Z4)
    g = get_example("z4-function")
    ei = np.eye(4)
    for i in range(4):
        for j in range(4):
            got = convolve(g, ei[i], ei[j]).coeffs
            expect = ei[(i + j) % 4] / 4.0
            assert np.max(np.abs(got - expect)) < 1e-14


def test_group_algebra_convolution_is_pointwise_on_words():
    # u_g * u_h = [g = h] u_h: convolving group elements multiplies their
    # Fourier transforms, which are point evaluations
    g = get_example("s3-group")
    ei = np.eye(6)
    for a in range(6):
        for b in range(6):
            got = convolve(g, ei[a], ei[b]).coeffs
            expect = ei[b] if a == b else np.zeros(6)
            assert np.max(np.abs(got - expect)) < 1e-12


def test_unit_of_convolution_on_every_example():
    """convolving with 1 on the left projects onto the Haar mean times 1? No:
    1 * y = phi(y) 1 must hold since (phi . id)Delta = phi(.)1."""
    rng = np.random.default_rng(6)
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        y = _random(g.dim, rng)
        got = convolve(g, g.unit, y).coeffs
        expect = g.haar_of(y) * g.unit
        assert np.max(np.abs(got - expect)) < 1e-12, name


def test_convolution_is_associative():
    rng = np.random.default_rng(7)
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        x, y, z = (_random(g.dim, rng) for _ in range(3))
        lhs = convolve(g, convolve(g, x, y), z).coeffs
        rhs = convolve(g, x, convolve(g, y, z)).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-10, name


def test_element_and_functional_convolutions_agree():
    """(x phi) * (y phi) = (x * y) phi as functionals."""
    rng = np.random.default_rng(8)
    for name in ("s3-function", "s3-group", "kac-paljutkin"):
        g = get_example(name)
        x = _random(g.dim, rng)
        y = _random(g.dim, rng)
        lhs = convolve_functional_form(g, functional_of(g, x), functional_of(g, y))
        rhs = functional_of(g, convolve(g, x, y).coeffs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10, name


def test_functional_convolution_unit_is_the_counit():
    g = get_example("kac-paljutkin")
    rng = np.random.default_rng(9)
    om = _random(8, rng)
    got = convolve_functional_form(g, g.counit, om)
    assert np.max(np.abs(got - om)) < 1e-12
    got = convolve_functional_form(g, om, g.counit)
    assert np.max(np.abs(got - om)) < 1e-12



def test_convolution_matrices_reproduce_convolve():
    # x * y = x K_y = y E_x, one matrix per row of a stack, on every example
    rng = np.random.default_rng(10)
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        x, y = _random((3, g.dim), rng), _random((3, g.dim), rng)
        want = convolve(g, x, y).coeffs
        k_y, e_x = right_convolution_matrix(g, y), left_convolution_matrix(g, x)
        assert k_y.shape == e_x.shape == (3, g.dim, g.dim), name
        for got in ((x[:, None] @ k_y)[:, 0], (y[:, None] @ e_x)[:, 0]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

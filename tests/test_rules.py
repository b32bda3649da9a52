import numpy as np
import pytest
from scipy.special import roots_jacobi

from sbcubature.errors import InvalidArgumentError
from sbcubature.region import CenterPolicy
from sbcubature.rules import gauss_jacobi_unit, gauss_legendre
from sbcubature.sbc import generate_rule


def test_midpoint_rule():
    r = gauss_legendre(1)
    assert r.nodes == pytest.approx([0.5])
    assert r.weights == pytest.approx([1.0])


def test_two_point_legendre():
    r = gauss_legendre(2)
    d = 1.0 / (2.0 * np.sqrt(3.0))
    assert r.nodes == pytest.approx([0.5 - d, 0.5 + d])
    assert r.weights == pytest.approx([0.5, 0.5])


def test_jacobi_one_point():
    r = gauss_jacobi_unit(1, 0.0)
    assert r.nodes == pytest.approx([0.5])
    assert r.weights == pytest.approx([1.0])
    r = gauss_jacobi_unit(1, 1.0)
    # node = int xi^2 / int xi, weight = int_0^1 xi dxi
    assert r.nodes == pytest.approx([2.0 / 3.0])
    assert r.weights == pytest.approx([0.5])


@pytest.mark.parametrize("n", [2, 5, 8, 16])
@pytest.mark.parametrize("eta", [0.0, -0.5, -0.8, 0.5, 1.0])
def test_matches_scipy_jacobi(n, eta):
    x, w = roots_jacobi(n, 0.0, eta)
    r = gauss_jacobi_unit(n, eta)
    assert r.nodes == pytest.approx(0.5 * (x + 1.0), abs=1e-14)
    assert r.weights == pytest.approx(w * 2.0 ** (-(eta + 1.0)), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("eta", [0.0, -0.5, -0.8, 1.0])
def test_moment_conditions(n, eta):
    r = gauss_jacobi_unit(n, eta)
    assert np.all(r.nodes > 0.0) and np.all(r.nodes < 1.0)
    assert np.all(np.diff(r.nodes) > 0.0)
    assert np.all(r.weights > 0.0)
    for k in range(2 * n):
        exact = 1.0 / (k + eta + 1.0)
        got = float(np.sum(r.weights * r.nodes**k))
        assert got == pytest.approx(exact, rel=1e-12)


def test_weight_sum_is_weight_mass():
    for eta in (0.0, -0.5, 0.75):
        r = gauss_jacobi_unit(7, eta)
        assert np.sum(r.weights) == pytest.approx(1.0 / (eta + 1.0), rel=1e-13)


def test_jacobi_zero_exponent_is_legendre():
    a = gauss_legendre(9)
    b = gauss_jacobi_unit(9, 0.0)
    np.testing.assert_allclose(a.nodes, b.nodes, atol=1e-14)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-14)


def test_deterministic():
    a = gauss_jacobi_unit(12, -0.8)
    b = gauss_jacobi_unit(12, -0.8)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_invalid_args():
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(0)
    with pytest.raises(InvalidArgumentError):
        gauss_jacobi_unit(4, -1.0)
    with pytest.raises(InvalidArgumentError):
        gauss_jacobi_unit(0, 0.5)


# The tensor product of a radial and a t-rule is built by the scaled
# boundary kernel; these check it on the unit square (center (0.5, 0.5)).

def test_tensor_counts_and_separable_monomial(unit_square):
    rule = generate_rule(unit_square, CenterPolicy.VERTEX_AVERAGE, 1, 1)
    np.testing.assert_allclose(rule.points, [[0.5, 0.25], [0.75, 0.5], [0.5, 0.75], [0.25, 0.5]])
    np.testing.assert_allclose(rule.weights, 0.25)
    assert len(generate_rule(unit_square, CenterPolicy.VERTEX_AVERAGE, 2, 1)) == 4 * 2
    rule = generate_rule(unit_square, CenterPolicy.VERTEX_AVERAGE, 3, 2)
    assert len(rule) == 4 * 6
    assert rule(lambda x, y: x**2 * y) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_tensor_ordering_t_major(unit_square):
    rule = generate_rule(unit_square, CenterPolicy.VERTEX_AVERAGE, 3, 2)
    # ordered (curve, t-node, radial node): the radial index cycles fastest
    np.testing.assert_array_equal(rule.curve_index, np.repeat(np.arange(4), 6))
    s = np.linalg.norm(rule.points - 0.5, axis=1).reshape(4, 2, 3)
    assert np.all(np.diff(s, axis=2) > 0.0)
    first_edge = rule.points[:6].reshape(2, 3, 2)
    assert np.all(first_edge[0, :, 0] < first_edge[1, :, 0])

import re

import numpy as np
import pytest

from conftest import own_samples
from sbcubature.curves import (
    Bezier,
    ParametricCurve,
    RationalBezier,
    Segment,
)
from sbcubature.exprlang import _FUNCTIONS
from sbcubature.region import Region, decompose
from sbcubature.rules import gauss_legendre
from sbcubature.testfns import lookup


def central_diff(curve, t, h=1e-6):
    return (curve.position(t + h) - curve.position(t - h)) / (2.0 * h)


CUBIC = Bezier([(0, 3 / 26), (7 / 26, 9 / 26), (15 / 26, 0), (10 / 13, 3 / 26)])


def test_segment_eval():
    s = Segment((0, 0), (2, 0))
    np.testing.assert_allclose(s.position(0.25), [0.5, 0.0])
    np.testing.assert_allclose(s.velocity(0.7), [2.0, 0.0])


def test_bezier_endpoint_interpolation():
    np.testing.assert_allclose(CUBIC.position(0.0), [0.0, 3 / 26], atol=1e-14)
    np.testing.assert_allclose(CUBIC.position(1.0), [10 / 13, 3 / 26], atol=1e-14)


def test_bezier_endpoint_derivative_identity():
    cp = np.array([(0.0, 0.1), (0.3, 0.8), (0.7, -0.2), (1.0, 0.4)])
    b = Bezier(cp)
    np.testing.assert_allclose(b.velocity(0.0), 3.0 * (cp[1] - cp[0]), atol=1e-14)
    np.testing.assert_allclose(b.velocity(1.0), 3.0 * (cp[3] - cp[2]), atol=1e-14)


def test_rational_equal_weights_reduces_to_polynomial():
    cp = [(0.0, 0.0), (0.5, 1.0), (1.5, 1.2), (2.0, 0.0)]
    b = Bezier(cp)
    r = RationalBezier(cp, [2.0, 2.0, 2.0, 2.0])
    t = np.linspace(0.0, 1.0, 100)
    np.testing.assert_allclose(r.position(t), b.position(t), atol=1e-14)


def test_rational_quarter_circle_is_exact():
    r = RationalBezier([(1, 0), (1, 1), (0, 1)], [1.0, np.sqrt(0.5), 1.0])
    t = np.linspace(0.0, 1.0, 50)
    p = r.position(t)
    np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]), 1.0, atol=1e-14)


DELTOID_X = "(1+2*cos(2*pi/3*t))^2/12"
DELTOID_Y = "(1+2*sin(2*pi/3*t)-4*sin(4*pi/3*t))/6"


@pytest.mark.parametrize(
    "curve",
    [
        Segment((0.2, -0.3), (1.5, 0.8)),
        CUBIC,
        RationalBezier([(1, 0), (1, 1), (0, 1)], [1.0, np.sqrt(0.5), 1.0]),
        ParametricCurve(DELTOID_X, DELTOID_Y),
    ],
    ids=["segment", "bezier", "rational", "parametric"],
)
def test_velocity_matches_finite_difference(curve):
    for t in np.linspace(0.05, 0.95, 50):
        v = curve.velocity(t)
        fd = central_diff(curve, t)
        assert np.abs(v - fd).max() <= 1e-7 * (1.0 + np.abs(fd).max())


def test_parametric_derivative_accuracy():
    c = ParametricCurve(DELTOID_X, DELTOID_Y)
    w = 2.0 * np.pi / 3.0
    for t in np.linspace(0.1, 0.9, 7):
        exact_x = 2.0 * (1.0 + 2.0 * np.cos(w * t)) * (-2.0 * w * np.sin(w * t)) / 12.0
        exact_y = (2.0 * w * np.cos(w * t) - 8.0 * w * np.cos(2.0 * w * t)) / 6.0
        assert c.velocity(t) == pytest.approx([exact_x, exact_y], abs=1e-14)


def test_deltoid_arc_velocities_are_exact_to_round_off():
    # the builtin deltoid runs the natural arc f backwards: arc i is f(i - t)
    w = 2.0 * np.pi / 3.0
    t = np.linspace(0.0, 1.0, 101)
    for i, c in zip((3, 2, 1), lookup("deltoid").make().curves):
        s = i - t
        exact = -np.column_stack([
            2.0 * (1.0 + 2.0 * np.cos(w * s)) * (-2.0 * w * np.sin(w * s)) / 12.0,
            (2.0 * w * np.cos(w * s) - 8.0 * w * np.cos(2.0 * w * s)) / 6.0,
        ])
        assert np.abs(c.velocity(t) - exact).max() <= 1e-15 * np.abs(exact).max()


def test_straight_expression_edge_has_exact_velocity():
    t = gauss_legendre(16).nodes
    v = ParametricCurve("0", "1 - t").velocity(t)
    assert np.array_equal(v, np.broadcast_to([0.0, -1.0], v.shape))


def _atan2_quadrant(a, b):
    # d/dt atan2(a (1 + t), b (2 - t))
    return lambda t: 3.0 * a * b / ((2.0 - t) ** 2 + (1.0 + t) ** 2)


# x(t) and its closed-form derivative for every function and operator; abs,
# min and max on both branches, atan2 in all four quadrants, and powers that
# numpy would take in polar form or with a complex exponent
DERIVATIVES = {
    "2*t - t^2 + pi": lambda t: 2.0 - 2.0 * t,
    "-t^3": lambda t: -3.0 * t**2,
    "t * sin(t)": lambda t: np.sin(t) + t * np.cos(t),
    "1 / (1 + t)": lambda t: -1.0 / (1.0 + t) ** 2,
    "(t-2)^3": lambda t: 3.0 * (t - 2.0) ** 2,
    "(t-2)^100": lambda t: 100.0 * (t - 2.0) ** 99,
    "t^0.5": lambda t: 0.5 / np.sqrt(t),
    "t^t": lambda t: t**t * (np.log(t) + 1.0),
    "e^t": lambda t: np.exp(t),
    "sin(3*t)": lambda t: 3.0 * np.cos(3.0 * t),
    "cos(3*t)": lambda t: -3.0 * np.sin(3.0 * t),
    "tan(t)": lambda t: 1.0 / np.cos(t) ** 2,
    "asin(t - 0.5)": lambda t: 1.0 / np.sqrt(1.0 - (t - 0.5) ** 2),
    "acos(0.9*t)": lambda t: -0.9 / np.sqrt(1.0 - 0.81 * t**2),
    "atan(3*t)": lambda t: 3.0 / (1.0 + 9.0 * t**2),
    "atan2(1 + t, 2 - t)": _atan2_quadrant(1.0, 1.0),
    "atan2(1 + t, t - 2)": _atan2_quadrant(1.0, -1.0),
    "atan2(-1 - t, t - 2)": _atan2_quadrant(-1.0, -1.0),
    "atan2(-1 - t, 2 - t)": _atan2_quadrant(-1.0, 1.0),
    "atan2(1, t)": lambda t: -1.0 / (1.0 + t**2),
    "atan2(t, 2)": lambda t: 2.0 / (4.0 + t**2),
    "sinh(2*t)": lambda t: 2.0 * np.cosh(2.0 * t),
    "cosh(2*t)": lambda t: 2.0 * np.sinh(2.0 * t),
    "tanh(2*t - 1)": lambda t: 2.0 / np.cosh(2.0 * t - 1.0) ** 2,
    "exp(2*t)": lambda t: 2.0 * np.exp(2.0 * t),
    "ln(1 + t)": lambda t: 1.0 / (1.0 + t),
    "log10(2 + t)": lambda t: 1.0 / ((2.0 + t) * np.log(10.0)),
    "sqrt(1 + t)": lambda t: 0.5 / np.sqrt(1.0 + t),
    "abs(t - 0.5)": lambda t: np.sign(t - 0.5),
    "abs(0.5 - t)": lambda t: np.sign(t - 0.5),
    "pow(t + 1, 2.5)": lambda t: 2.5 * (t + 1.0) ** 1.5,
    "pow(2, t)": lambda t: np.log(2.0) * 2.0**t,
    "min(t, 0.5)": lambda t: (t < 0.5).astype(float),
    "min(t^2, 1 - t)": lambda t: np.where(t**2 < 1.0 - t, 2.0 * t, -1.0),
    "max(t, 0.5)": lambda t: (t > 0.5).astype(float),
    "max(t^2, 1 - t)": lambda t: np.where(t**2 > 1.0 - t, 2.0 * t, -1.0),
}
# interior points, none at a branch point of abs, min or max
INTERIOR = np.linspace(0.03, 0.97, 24)


@pytest.mark.parametrize("src", DERIVATIVES)
def test_expression_velocity_matches_closed_form(src):
    v = ParametricCurve(src, "0").velocity(INTERIOR)
    np.testing.assert_allclose(v[:, 0], DERIVATIVES[src](INTERIOR), rtol=1e-13, atol=0.0)
    assert np.all(v[:, 1] == 0.0)


def test_zero_exponent_or_step_at_a_zero_base_has_zero_derivative():
    # 0 * inf would make both nan, and a nan velocity at a node drops the curve
    v = ParametricCurve("t + (t - 0.5)^0", "(0*t)^0.5").velocity(np.array([0.0, 0.5]))
    np.testing.assert_array_equal(v, [[1.0, 0.0], [1.0, 0.0]])


def test_closed_form_derivatives_cover_every_function_and_operator():
    sources = " ".join(DERIVATIVES)
    for name in _FUNCTIONS:
        assert re.search(r"\b%s\(" % name, sources), name
    for op in "+-*/^":
        assert op in sources


def perp_product(curve, t, x0):
    return own_samples(curve, t, np.asarray(x0, dtype=float))[2]


def test_perp_product_segment():
    s = Segment((1, 0), (1, 1))
    for t in (0.0, 0.3, 1.0):
        assert perp_product(s, t, (0.0, 0.0)) == pytest.approx(1.0)
        assert perp_product(s, t, (1.0, 0.5)) == pytest.approx(0.0, abs=1e-15)


def test_perp_product_circle():
    c = ParametricCurve("cos(2*pi*t)", "sin(2*pi*t)")
    for t in np.linspace(0.0, 1.0, 9):
        assert perp_product(c, t, (0.0, 0.0)) == pytest.approx(2.0 * np.pi, rel=1e-14)


@pytest.mark.parametrize("curve", [Segment((0.2, -0.3), (1.5, 0.8)), CUBIC])
def test_boundary_samples_position_and_rotated_velocity(curve):
    # the curve closed by a segment back to its start; the region samples both
    t = np.linspace(0.0, 1.0, 5)
    region = Region([curve, Segment(curve.position(1.0), curve.position(0.0))])
    C, N, _ = region.boundary_samples(t)
    idx, _, perp = decompose(region, np.array([0.1, 0.2]), t)
    assert idx[0] == 0
    np.testing.assert_array_equal(C[0], curve.position(t))
    v = curve.velocity(t)
    np.testing.assert_array_equal(N[0], np.column_stack([v[:, 1], -v[:, 0]]))
    np.testing.assert_allclose(perp[0], np.sum((C[0] - [0.1, 0.2]) * N[0], axis=1), rtol=1e-15)


def test_rational_homogeneous_evaluation_matches_quotient():
    # one de Casteljau routine serves 2-D and homogeneous 3-D control points
    cp = np.array([(0.0, 0.0), (0.5, 1.0), (1.5, 1.2), (2.0, 0.0)])
    w = np.array([1.0, 0.5, 2.0, 1.0])
    r = RationalBezier(cp, w)
    t = np.linspace(0.0, 1.0, 7)
    B = np.array([[1, 0, 0, 0], [-3, 3, 0, 0], [3, -6, 3, 0], [-1, 3, -3, 1]], dtype=float)
    basis = np.vander(t, 4, increasing=True) @ B
    num = basis @ (cp * w[:, None])
    den = basis @ w
    np.testing.assert_allclose(r.position(t), num / den[:, None], atol=1e-14)
    ti = t[1:-1]
    np.testing.assert_allclose(r.velocity(ti), central_diff(r, ti), atol=1e-7)


def test_a_fraction_is_a_coordinate():
    from fractions import Fraction

    third = Fraction(1, 3)
    assert Segment((third, 0), (1, third)).a.tolist() == [1 / 3, 0.0]
    assert Bezier([(0, 0), (third, 1), (1, 0)]).position(0.5).tolist() == [1 / 3 * 0.5 + 0.25, 0.5]
    t = Segment((0, 0), (1, 0)).position(Fraction(1, 4))
    assert t.tolist() == [0.25, 0.0]



import numpy as np
import pytest

from sbcubature.curves import ParametricCurve, Segment, boundary_samples
from sbcubature.errors import InvalidArgumentError
from sbcubature.region import (
    CenterPolicy,
    Region,
    decompose,
    is_star_convex,
    polygon,
    resolve_center,
)
from sbcubature.sbc import integrate
from sbcubature.testfns import lookup


def area(region, x0, n_t=32):
    return integrate(region, CenterPolicy.custom(x0), lambda x, y: np.ones_like(x), 1, n_t)


def test_resolve_center(unit_square):
    np.testing.assert_allclose(
        resolve_center(unit_square, CenterPolicy.VERTEX_AVERAGE), [0.5, 0.5]
    )
    np.testing.assert_allclose(resolve_center(unit_square, CenterPolicy.ORIGIN), [0, 0])
    np.testing.assert_allclose(
        resolve_center(unit_square, CenterPolicy.vertex(2)), [1, 1]
    )
    np.testing.assert_allclose(
        resolve_center(unit_square, CenterPolicy.custom((3, -1))), [3, -1]
    )
    with pytest.raises(InvalidArgumentError):
        resolve_center(unit_square, CenterPolicy.vertex(4))


def test_vertex_average_of_builtin_curved_region():
    reg = lookup("bezier").make()
    x0 = resolve_center(reg, CenterPolicy.VERTEX_AVERAGE)
    np.testing.assert_allclose(
        x0, [(0 + 10 / 13 + 10 / 13 + 0) / 4, (3 / 26 + 3 / 26 + 23 / 26 + 23 / 26) / 4]
    )


def test_decompose_counts(unit_square):
    x0 = np.array([0.5, 0.5])
    t = np.linspace(0.0, 1.0, 5)
    C, N, perp = decompose(unit_square, x0, t)
    assert C.shape == N.shape == (4, 5, 2)
    assert perp.shape == (4, 5)
    for i, c in enumerate(unit_square.curves):
        for got, want in zip((C[i], N[i], perp[i]), boundary_samples(c, t, x0)):
            np.testing.assert_array_equal(got, want)


def test_non_finite_sample_at_a_node_is_rejected():
    # NaN only for |t - 0.5| < 0.001, which none of Region's 64 samples hits
    region = Region([ParametricCurve("t + 0*sqrt(abs(t-0.5)-0.001)", "0"), Segment((1, 0), (1, 1)),
                     Segment((1, 1), (0, 1)), Segment((0, 1), (0, 0))])
    with pytest.raises(InvalidArgumentError, match="curve 0 "):
        decompose(region, np.array([0.5, 0.5]), np.array([0.25, 0.5]))
    with pytest.raises(InvalidArgumentError, match="curve 0 "):
        integrate(region, CenterPolicy.VERTEX_AVERAGE, lambda x, y: np.ones_like(x), 3, 5)
    # the odd rule's middle node is t = 0.5; an even rule misses the gap
    assert area(region, (0.5, 0.5), n_t=4) == pytest.approx(1.0, abs=1e-14)


def test_infinite_velocity_at_an_endpoint_is_accepted():
    # c'(0) is infinite for t^0.5; positions are finite, and only they are checked
    region = Region([ParametricCurve("t^0.5", "0"), Segment((1, 0), (0, 1)),
                     Segment((0, 1), (0, 0))])
    C, N, _ = decompose(region, np.array([0.25, 0.25]), np.array([0.0, 1.0]))
    assert np.isfinite(C).all() and np.isinf(N[0, 0]).any()
    assert is_star_convex(region, (0.25, 0.25))


def test_open_chain_rejected():
    with pytest.raises(InvalidArgumentError):
        Region([Segment((0, 0), (1, 0)), Segment((1, 0.1), (0, 0))])


def test_closure_tolerance_is_relative_to_scale():
    # the closing gap of a big circle, sin(2 pi) * 1e6 = -2.4e-10, is round-off
    big = Region([ParametricCurve("1e6*cos(2*pi*t)", "1e6*sin(2*pi*t)")])
    assert big.scale() == pytest.approx(2e6 * np.sqrt(2.0), rel=1e-3)
    # a 1e-13 gap is 5e-8 of a small circle's size
    with pytest.raises(InvalidArgumentError):
        Region([ParametricCurve("1e-6*cos(2*pi*t) + 1e-13*t", "1e-6*sin(2*pi*t)")])


def test_bbox_and_scale_are_computed_once():
    reg = lookup("bezier").make()
    lo, hi = reg.bbox()
    assert reg.bbox()[0] is lo
    assert reg.scale() == float(np.hypot(*(hi - lo)))
    with pytest.raises(ValueError):
        lo[0] = 0.0


def test_zero_length_segment_rejected():
    with pytest.raises(InvalidArgumentError):
        Region(
            [Segment((0, 0), (1, 0)), Segment((1, 0), (1, 0)), Segment((1, 0), (0, 0))]
        )


def test_star_convexity(unit_square):
    assert is_star_convex(unit_square, (0.5, 0.5))
    assert not is_star_convex(unit_square, (5.0, 5.0))
    # L-shaped hexagon seen from its reflex corner
    L = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    assert is_star_convex(L, (1.0, 1.0))
    assert not is_star_convex(L, (1.9, 1.9))


def test_area_independent_of_center():
    reg = polygon([(0, 0), (3, 0), (4, 2), (1, 3)])
    ref = area(reg, (2.0, 1.2))
    for x0 in [(0.0, 0.0), (10.0, -3.0), (1.0, 3.0)]:
        assert area(reg, x0) == pytest.approx(ref, rel=1e-12)


def test_reversed_orientation_negates_area(unit_square):
    rev = polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert area(rev, (0.5, 0.5)) == pytest.approx(-1.0)
    assert area(unit_square, (0.5, 0.5)) == pytest.approx(1.0)


def test_non_finite_geometry_and_center_are_rejected(unit_square):
    with pytest.raises(InvalidArgumentError, match="curve 1 "):
        # NaN for t < 1
        Region([Segment((0, 0), (1, 0)), ParametricCurve("1 - t", "t + sqrt(t - 1)"),
                Segment((0, 1), (0, 0))])
    with pytest.raises(InvalidArgumentError, match="curve 0 "):
        polygon([(np.nan, 0), (1, 0), (1, 1)])
    with pytest.raises(InvalidArgumentError):
        resolve_center(unit_square, CenterPolicy.custom((0.5, np.inf)))

import warnings

import numpy as np
import pytest

from sbcubature.curves import ParametricCurve
from sbcubature.errors import InvalidArgumentError
from sbcubature.tmvi import (
    BoundaryLoop,
    EggCurve,
    egg_domain,
    evaluate_masked,
    exact_distance,
    lp_distance_many,
    tmvi_eval_many,
)


def circle_loop():
    return BoundaryLoop([ParametricCurve("cos(2*pi*t)", "sin(2*pi*t)")])


def square_loop():
    from sbcubature.curves import Segment

    v = [(0, 0), (1, 0), (1, 1), (0, 1)]
    return BoundaryLoop([Segment(v[i], v[(i + 1) % 4]) for i in range(4)])


def test_nonconvex_loop_warns():
    from sbcubature.testfns import lookup

    # nonconvex_star is star-shaped about its centroid: a star test misses it
    for name in ("nonconvex_quad", "nonconvex_star"):
        with pytest.warns(UserWarning, match="does not look convex"):
            BoundaryLoop(lookup(name).make().curves)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BoundaryLoop(lookup("convex_hexagon").make().curves)
        egg_domain()
        circle_loop()


def test_partition_of_unity_on_circle():
    loop = circle_loop()
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    x = np.array([(0.0, 0.0), (0.5, 0.1), (-0.3, 0.6)])
    np.testing.assert_allclose(tmvi_eval_many(loop, one, x), 1.0, rtol=0.0, atol=1e-12)


def test_egg_curve_derivative_is_exact():
    c = EggCurve()
    h = 1e-7
    for t in np.linspace(0.03, 0.97, 17):
        fd = (c.position(t + h) - c.position(t - h)) / (2 * h)
        np.testing.assert_allclose(c.velocity(t), fd, atol=2e-6)


def test_linear_precision_on_egg():
    loop = egg_domain()
    rng = np.random.default_rng(7)
    X, Y = np.meshgrid(np.linspace(-0.55, 0.55, 10), np.linspace(-0.4, 0.4, 10))
    pts = np.column_stack([X.ravel(), Y.ravel()])
    for _ in range(20):
        a, b, c = rng.uniform(-2, 2, 3)
        g = lambda x, y: a + b * np.asarray(x) + c * np.asarray(y)
        u = tmvi_eval_many(loop, g, pts, 256)
        scale = max(abs(a), abs(b), abs(c))
        assert np.abs(u - g(pts[:, 0], pts[:, 1])).max() <= 1e-10 * scale


def test_kernel_weight_positive_inside():
    loop = egg_domain()
    C, R, w = loop.samples(256)
    pts = np.column_stack(
        [np.random.default_rng(1).uniform(-0.5, 0.5, 50),
         np.random.default_rng(2).uniform(-0.35, 0.35, 50)]
    )
    diff = C[None, :, :] - pts[:, None, :]
    K = np.einsum("nmi,mi->nm", diff, R) / np.hypot(diff[..., 0], diff[..., 1]) ** 3
    assert np.all(K @ w > 0.0)


def test_outside_point_rejected():
    loop = circle_loop()
    with pytest.raises(InvalidArgumentError):
        tmvi_eval_many(loop, lambda x, y: x, [(2.0, 0.0)])
    with pytest.raises(InvalidArgumentError):
        lp_distance_many(loop, [(1.5, 0.0)], 2.0)
    # one point outside rejects the whole batch
    with pytest.raises(InvalidArgumentError):
        lp_distance_many(loop, [(0.0, 0.0), (1.5, 0.0)], 2.0)


def test_evaluate_masked_leaves_outside_points_empty():
    loop = circle_loop()
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.1], [0.0, -1.5]])
    g = lambda x, y: 1.0 + np.asarray(x)
    for field, inside_values in (
        ({"g": g}, tmvi_eval_many(loop, g, x[[0, 2]])),
        ({"p": 10.0}, lp_distance_many(loop, x[[0, 2]], 10.0)),
    ):
        values, inside = evaluate_masked(loop, x, **field)
        np.testing.assert_array_equal(inside, [True, False, True, False])
        np.testing.assert_allclose(values[inside], inside_values, rtol=1e-15)
        assert np.all(np.isnan(values[~inside]))
    for field in ({}, {"g": g, "p": 10.0}, {"p": 0.5}):
        with pytest.raises(InvalidArgumentError):
            evaluate_masked(loop, x, **field)


def test_lp_distance_circle_center():
    loop = circle_loop()
    for p in (1.0, 4.0, 50.0):
        assert lp_distance_many(loop, [(0.0, 0.0)], p)[0] == pytest.approx(
            (2.0 * np.pi) ** (-1.0 / p), rel=1e-10
        )


@pytest.mark.parametrize("p", [1.0, 10.0])
def test_scaled_lp_kernel_keeps_moderate_p_values(p):
    # against the unscaled sum W_p = sum w (c-x).c'_perp / ||c-x||^(2+p)
    loop = egg_domain()
    X, Y = np.meshgrid(np.linspace(-0.9, 0.9, 12), np.linspace(-0.6, 0.6, 9))
    pts = np.column_stack([X.ravel(), Y.ravel()])
    pts = pts[np.abs(pts[:, 1]) < 0.8 * 4.0 * np.sqrt(1.0 - pts[:, 0] ** 2) / (5.0 + pts[:, 0])]
    C, R, w = loop.samples(256)
    diff = C[None, :, :] - pts[:, None, :]
    num = np.einsum("nmi,mi->nm", diff, R)
    Wp = num / np.hypot(diff[..., 0], diff[..., 1]) ** (2.0 + p) @ w
    np.testing.assert_allclose(lp_distance_many(loop, pts, p), Wp ** (-1.0 / p), rtol=1e-12)


def test_exact_distance_circle_and_square():
    assert exact_distance(circle_loop(), (0.3, 0.0)) == pytest.approx(0.7, abs=1e-10)
    assert exact_distance(square_loop(), (0.25, 0.5)) == pytest.approx(0.25, abs=1e-12)


def test_exact_distance_egg_vs_dense_sampling():
    loop = egg_domain()
    x = np.array([0.0, 0.0])
    t = np.linspace(0.0, 1.0, 1_000_000)
    dense = np.hypot(*(loop.curves[0].position(t) - x).T).min()
    assert exact_distance(loop, x) == pytest.approx(dense, abs=1e-8)


def test_lp_distance_vanishes_near_boundary():
    loop = egg_domain()
    c = loop.curves[0]
    t0 = 0.25
    p0 = c.position(t0)
    v = c.velocity(t0)
    inward = np.array([-v[1], v[0]]) / np.hypot(*v)
    x = p0 + 1e-3 * inward
    assert lp_distance_many(loop, x[None, :], 10.0, n_t=4096)[0] <= 5e-3


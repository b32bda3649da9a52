import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import exact_distance
from sbcubature import tmvi
from sbcubature.curves import ParametricCurve, Segment
from sbcubature.errors import InvalidArgumentError
from sbcubature.tmvi import (
    BoundaryLoop,
    EggCurve,
    egg_domain,
    evaluate_masked,
    lp_distance_many,
    tmvi_eval_many,
)


def circle_loop():
    return BoundaryLoop([ParametricCurve("cos(2*pi*t)", "sin(2*pi*t)")])


def square_loop():
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


def hexagon_loop():
    from sbcubature.testfns import lookup

    return BoundaryLoop(lookup("convex_hexagon").make().curves)


def interior_points(loop, n):
    """n x n points x0 + s (C - x0) for n boundary samples C and s in [0.05, 0.9]."""
    C = loop.samples(n)[0][:: len(loop.curves)]
    x0 = C.mean(axis=0)
    s = np.linspace(0.05, 0.9, n)
    return (x0 + s[:, None, None] * (C[None] - x0)).reshape(-1, 2)


def linear_g(x, y):
    return 1.0 + 2.0 * np.asarray(x) - 3.0 * np.asarray(y)


LOOPS = {"egg": egg_domain, "circle": circle_loop, "hexagon": hexagon_loop}


def test_kernel_memory_does_not_grow_with_the_grid():
    # 36 x 36 points x 3072 samples = 4.0e6 pairs; an (N, M) float array alone is 32 MB
    loop = hexagon_loop()
    x = interior_points(loop, 36)
    loop.samples(512)
    tracemalloc.start()
    try:
        lp_distance_many(loop, x, 10.0, n_t=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_kernel_values_do_not_depend_on_the_block_size(monkeypatch, name):
    # not bit for bit: BLAS rounds a row differently with the block's row
    # count; a TMVI value is a weighted mean of g(C), so its error scales
    # with max|g(C)| (the sum of g(C) w over a polygon's edges cancels)
    loop = LOOPS[name]()
    x = interior_points(loop, 12)
    C = loop.samples(128)[0]
    g_max = np.abs(linear_g(C[:, 0], C[:, 1])).max()
    for field in ({"g": linear_g}, {"p": 10.0}):
        values, inside = evaluate_masked(loop, x, 128, **field)
        assert inside.all()
        tol = 1e-14 * g_max if "g" in field else 1e-15 * np.abs(values).max()
        for pairs in (1, 2**30):
            monkeypatch.setattr(tmvi, "_BLOCK_PAIRS", pairs)
            other, other_inside = evaluate_masked(loop, x, 128, **field)
            np.testing.assert_array_equal(other_inside, inside)
            assert np.abs(other - values).max() <= tol


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_kernel_matches_a_whole_grid_reference(name):
    # the (N, M) kernel from hypot and einsum, d factored out as in the library
    loop = LOOPS[name]()
    x = interior_points(loop, 15)
    C, R, w = loop.samples(128)
    diff = C[None, :, :] - x[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    d = dist.min(axis=1)[:, None]
    num = np.einsum("nmi,mi->nm", diff, R)
    gC = linear_g(C[:, 0], C[:, 1])
    K = (d / dist) ** 3 * num
    want = (K * gC) @ w / (K @ w)
    got = tmvi_eval_many(loop, linear_g, x, 128)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(gC).max()
    for p in (1.0, 10.0, 100.0):
        S = ((d / dist) ** (2.0 + p) * num) @ w
        want = d[:, 0] ** ((2.0 + p) / p) * S ** (-1.0 / p)
        np.testing.assert_allclose(lp_distance_many(loop, x, p, 128), want, rtol=1e-14, atol=0.0)


def test_evaluate_masked_takes_one_point_or_n_by_2():
    loop = circle_loop()
    one, _ = evaluate_masked(loop, [0.1, 0.2], p=2.0)
    many, _ = evaluate_masked(loop, [[0.1, 0.2], [0.3, 0.0]], p=2.0)
    assert one.shape == (1,) and many.shape == (2,)
    assert one[0] == pytest.approx(many[0], rel=1e-15)
    values, inside = evaluate_masked(loop, np.empty((0, 2)), g=linear_g)
    assert values.shape == inside.shape == (0,)
    assert lp_distance_many(loop, np.empty((0, 2)), 2.0).shape == (0,)
    # (N, 1) used to broadcast to the points (0.1, 0.1) and (0.2, 0.2)
    for x in ([[0.1], [0.2]], np.zeros((3, 3)), [], np.zeros((2, 2, 2)), 0.1):
        with pytest.raises(InvalidArgumentError, match="points must be"):
            evaluate_masked(loop, x, p=2.0)


def test_non_finite_velocity_at_a_node_is_rejected():
    loop = BoundaryLoop([ParametricCurve("t + 0*atan2(t-0.5, t-0.5)", "0"), Segment((1, 0), (1, 1)),
                         Segment((1, 1), (0, 1)), Segment((0, 1), (0, 0))], check_convex=False)
    for call in (lambda: loop.samples(5),
                 lambda: tmvi_eval_many(loop, linear_g, [(0.5, 0.5)], 5),
                 lambda: lp_distance_many(loop, [(0.5, 0.5)], 1.0, 5)):
        with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
            call()
    assert lp_distance_many(loop, [(0.5, 0.5)], 1.0, 4)[0] > 0.0


def test_point_on_a_sample_is_masked_without_a_warning():
    loop = egg_domain()
    on_sample = loop.samples(64)[0][3]
    x = np.array([on_sample, [0.1, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in ({"p": 2.0}, {"g": linear_g}):
            values, inside = evaluate_masked(loop, x, 64, **field)
            np.testing.assert_array_equal(inside, [False, True])
            assert np.isnan(values[0]) and np.isfinite(values[1])
            one, _ = evaluate_masked(loop, on_sample, 64, **field)
            assert np.isnan(one[0])

import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_distance
from sbcubature import tmvi
from sbcubature.curves import Bezier, ParametricCurve, Segment
from sbcubature.errors import EvaluationError, InvalidArgumentError
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


def polygon_loop(v):
    return BoundaryLoop([Segment(v[i], v[(i + 1) % len(v)]) for i in range(len(v))])


@st.composite
def convex_polygons(draw):
    """Vertices on a rotated ellipse, at scales 1e-5..1e5 and offsets up to 1e4 scale."""
    deg = np.array(sorted(draw(st.sets(st.integers(0, 359), min_size=3, max_size=12))))
    a, b, phi = draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)), draw(st.floats(0.0, 6.3))
    th = np.radians(deg) + phi
    scale = 10.0 ** draw(st.floats(-5.0, 5.0))
    offset = np.array([draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))])
    return scale * (np.column_stack([a * np.cos(th), b * np.sin(th)]) + offset)


@settings(max_examples=50, deadline=None)
@given(v=convex_polygons(), i=st.integers(0, 11), depth=st.floats(0.01, 1.0))
def test_convex_polygons_pass_and_a_dent_warns(v, i, depth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polygon_loop(v)
    # pull vertex i to the inner side of the chord between its neighbours
    i %= len(v)
    mid = 0.5 * (v[i - 1] + v[(i + 1) % len(v)])
    v[i] = mid - depth * (v[i] - mid)
    with pytest.warns(UserWarning, match="does not look convex"):
        polygon_loop(v)


def bezier_chain_with_junction_turn(degrees):
    """Two cubic Beziers around an oval; at (1, 0) the second turns by `degrees` into the first."""
    a = np.radians(degrees)
    handle = (1.0, 0.0) + 0.5 * np.array([-np.sin(a), np.cos(a)])
    return [Bezier([(1, 0), handle, (-1, 1.5), (-1, 0)]),
            Bezier([(-1, 0), (-1, -1.5), (1, -0.5), (1, 0)])]


def test_narrow_reflex_corner_at_a_curve_junction_warns():
    # -1.4 degrees is narrower than the turn between two of the 128 samples
    # per curve near the junction, so the sampled polygon alone turns left there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BoundaryLoop(bezier_chain_with_junction_turn(0.0))
    for degrees in (-1.4, -0.5):
        with pytest.warns(UserWarning, match="does not look convex"):
            BoundaryLoop(bezier_chain_with_junction_turn(degrees))


def test_convexity_check_is_linear_in_memory():
    th = 2.0 * np.pi * np.arange(256) / 256
    tracemalloc.start()
    try:
        polygon_loop(np.column_stack([np.cos(th), np.sin(th)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


@pytest.mark.parametrize("t", [2.0, -0.5, np.nan, [0.5, 1.5]])
def test_egg_curve_checks_its_parameter(t):
    c = EggCurve()
    for method in (c.position, c.velocity):
        with pytest.raises(InvalidArgumentError, match=r"curve parameter must lie in \[0,1\]"):
            method(t)


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
    for field in ({}, {"g": g, "p": 10.0}, {"p": 0.5}, {"p": True}, {"p": "1"}):
        with pytest.raises(InvalidArgumentError):
            evaluate_masked(loop, x, **field)
    # a narrow numpy float is read as its float64 value, without a warning
    want = evaluate_masked(loop, x, p=10.0)
    for p in (np.float32(10.0), np.float16(10.0)):
        for got, expected in zip(evaluate_masked(loop, x, p=p), want):
            np.testing.assert_array_equal(got, expected)


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


def block_rows(loop, n_t):
    return max(1, tmvi._BLOCK_PAIRS // len(loop.samples(n_t)[0]))


def many_block_points(loop, n_t, blocks=9):
    """Interior points for `blocks` row blocks of the kernel, the last one partial."""
    rows = block_rows(loop, n_t)
    x = interior_points(loop, int(np.ceil(np.sqrt(blocks * rows))))
    return x[:(blocks - 1) * rows + rows // 2]


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_kernel_gives_the_bits_of_one_call_per_block(name):
    # a many-block call runs its blocks on several threads where the host has
    # several CPUs; a one-block call runs on the calling thread
    loop = LOOPS[name]()
    n_t = 128
    x = many_block_points(loop, n_t)
    rows = block_rows(loop, n_t)
    blocks = range(0, len(x), rows)
    assert len(blocks) >= 8
    C, R, w = loop.samples(n_t)
    for field in ({"g": linear_g}, {"p": 1.0}, {"p": 10.0}, {"p": 100.0}):
        values, inside = evaluate_masked(loop, x, n_t, **field)
        parts = [evaluate_masked(loop, x[i:i + rows], n_t, **field) for i in blocks]
        assert values.tobytes() == np.concatenate([v for v, _ in parts]).tobytes()
        assert inside.tobytes() == np.concatenate([m for _, m in parts]).tobytes()
        if "g" in field:
            power, W = 3.0, np.column_stack([w, linear_g(C[:, 0], C[:, 1]) * w])
        else:
            power, W = 2.0 + field["p"], w[:, None]
        sums, d = tmvi._scaled_kernel(C, R, x, power, W)
        parts = [tmvi._scaled_kernel(C, R, x[i:i + rows], power, W) for i in blocks]
        assert sums.tobytes() == np.concatenate([s for s, _ in parts]).tobytes()
        assert d.tobytes() == np.concatenate([d_ for _, d_ in parts]).tobytes()


def test_four_threads_on_any_host_give_the_same_bits(monkeypatch):
    # a host with many CPUs runs 9 blocks on the cap of 4 threads, the caller
    # and three started ones, here with more threads than this host may have
    # cores and a thread switch every microsecond
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    loop = hexagon_loop()
    x = many_block_points(loop, 128)
    rows = block_rows(loop, 128)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values, inside = evaluate_masked(loop, x, 128, p=10.0)
    finally:
        sys.setswitchinterval(interval)
    parts = [evaluate_masked(loop, x[i:i + rows], 128, p=10.0) for i in range(0, len(x), rows)]
    assert values.tobytes() == np.concatenate([v for v, _ in parts]).tobytes()
    assert inside.tobytes() == np.concatenate([m for _, m in parts]).tobytes()


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def test_kernel_threads_live_only_for_the_call(started_threads):
    loop = hexagon_loop()
    x = many_block_points(loop, 128)
    before = threading.active_count()
    for field in ({"g": linear_g}, {"p": 10.0}):
        evaluate_masked(loop, x, 128, **field)
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started_threads)
    # min(CPUs, blocks, 4) threads per call, the caller's among them
    assert len(started_threads) == 2 * (tmvi._thread_count(9) - 1)


def test_an_empty_or_one_block_call_starts_no_thread(started_threads):
    loop = hexagon_loop()
    x = many_block_points(loop, 128)
    for field in ({"g": linear_g}, {"p": 10.0}):
        evaluate_masked(loop, np.empty((0, 2)), 128, **field)
        evaluate_masked(loop, x[:1], 128, **field)
        evaluate_masked(loop, x[:block_rows(loop, 128)], 128, **field)
    assert started_threads == []


def test_every_thread_runs_under_the_callers_errstate():
    # only the last block holds a point off the circle's center, where
    # q^501 underflows; the center itself has q = 1 to every sample
    loop = circle_loop()
    rows = block_rows(loop, 128)
    x = np.zeros((8 * rows, 2))
    x[-1] = (0.99, 0.0)
    before = threading.active_count()
    assert evaluate_masked(loop, x, 128, p=999.0)[1].all()
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        evaluate_masked(loop, x, 128, p=999.0)
    assert threading.active_count() == before


def whole_grid_reference(loop, x, n_t, power, W):
    """The (N, M) kernel sums from hypot and einsum, d factored out as in the library."""
    C, R, _ = loop.samples(n_t)
    diff = C[None, :, :] - x[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    d = dist.min(axis=1)[:, None]
    num = np.einsum("nmi,mi->nm", diff, R)
    return ((d / dist) ** power * num) @ W, d[:, 0]


LP_POWERS = (1.0, 2.0, 2.5, 10.0, 100.0, 1000.0)


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_kernel_matches_a_whole_grid_reference(name):
    # TMVI and p = 1 take the cube q sqrt(q) of q = d^2 / ||c-x||^2; every
    # other p, integer or not, takes np.power(q, (2 + p) / 2)
    loop = LOOPS[name]()
    x = interior_points(loop, 15)
    C, _, w = loop.samples(128)
    gC = linear_g(C[:, 0], C[:, 1])
    sums, d = whole_grid_reference(loop, x, 128, 3.0, np.column_stack([w, gC * w]))
    want = sums[:, 1] / sums[:, 0]
    got = tmvi_eval_many(loop, linear_g, x, 128)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(gC).max()
    for p in LP_POWERS:
        S = whole_grid_reference(loop, x, 128, 2.0 + p, w[:, None])[0][:, 0]
        want = d ** ((2.0 + p) / p) * S ** (-1.0 / p)
        np.testing.assert_allclose(lp_distance_many(loop, x, p, 128), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", [None] + list(LP_POWERS))
def test_kernel_mask_and_distance_on_a_box_grid_over_the_egg(p):
    # exterior, near-boundary and interior points: the inside mask is the
    # reference's, d = sqrt(min r2) is the minimum of the distances bit for
    # bit, and the values inside match the reference's
    loop = egg_domain()
    n_t = 256
    (x_lo, y_lo), (x_hi, y_hi) = loop.bbox()
    X, Y = np.meshgrid(np.linspace(x_lo - 0.05, x_hi + 0.05, 61),
                       np.linspace(y_lo - 0.05, y_hi + 0.05, 61))
    C, R, w = loop.samples(n_t)
    normal = 1e-6 * R[::16] / np.hypot(R[::16, 0], R[::16, 1])[:, None]
    x = np.vstack([np.column_stack([X.ravel(), Y.ravel()]), C[::16] - normal, C[::16] + normal])
    power = 3.0 if p is None else 2.0 + p
    W = np.column_stack([w, linear_g(C[:, 0], C[:, 1]) * w]) if p is None else w[:, None]
    d = tmvi._scaled_kernel(C, R, x, power, W)[1]
    want_sums, want_d = whole_grid_reference(loop, x, n_t, power, W)
    diff = C[None, :, :] - x[:, None, :]
    np.testing.assert_array_equal(d, np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2).min(axis=1))
    want_inside = (want_d > 1e-9 * loop.scale()) & (want_sums[:, 0] > 0.0)
    S = want_sums[want_inside, 0]
    if p is None:
        values, inside = evaluate_masked(loop, x, n_t, g=linear_g)
        want = want_sums[want_inside, 1] / S
    else:
        values, inside = evaluate_masked(loop, x, n_t, p=p)
        want = want_d[want_inside] ** ((2.0 + p) / p) * S ** (-1.0 / p)
    np.testing.assert_array_equal(inside, want_inside)
    assert 0 < inside.sum() < len(x)
    assert np.abs(values[inside] - want).max() <= 1e-14 * np.abs(want).max()


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
                         Segment((1, 1), (0, 1)), Segment((0, 1), (0, 0))])
    for call in (lambda: loop.samples(5),
                 lambda: tmvi_eval_many(loop, linear_g, [(0.5, 0.5)], 5),
                 lambda: lp_distance_many(loop, [(0.5, 0.5)], 1.0, 5)):
        with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
            call()
    assert lp_distance_many(loop, [(0.5, 0.5)], 1.0, 4)[0] > 0.0


def test_samples_are_read_only_views_of_the_region_samples():
    from sbcubature.rules import gauss_legendre

    x = np.array([[0.5, 0.5], [0.25, 0.75]])
    for loop in (polygon_loop([(0, 0), (2, 0), (2, 1), (0, 1)]), circle_loop()):
        before = tmvi_eval_many(loop, linear_g, x, 64)
        C, R, w = loop.samples(64)
        for a in (C, R, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 9.0
        np.testing.assert_array_equal(tmvi_eval_many(loop, linear_g, x, 64), before)
        C2, N, _ = loop.boundary_samples(gauss_legendre(64).nodes)
        np.testing.assert_array_equal(C, C2.reshape(-1, 2))
        np.testing.assert_array_equal(R, N.reshape(-1, 2))
        np.testing.assert_array_equal(w, np.tile(gauss_legendre(64).weights, len(loop.curves)))
        # a loop keeps its samples and C is a view of them; R is a view too,
        # but a copy for the polygon, whose segments keep one c'_perp per edge
        assert np.shares_memory(C, C2) and np.shares_memory(R, N) != isinstance(loop.curves[0], Segment)


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


def test_boundary_data_of_the_wrong_shape_is_rejected():
    loop = hexagon_loop()
    x = [[0.1, 0.2], [0.3, -0.1]]
    linear = tmvi_eval_many(loop, lambda X, Y: 1 + 2 * X - Y, x, 128)
    np.testing.assert_allclose(linear, [1.0, 1.7], rtol=1e-12)
    # an (M, 1) column would broadcast against the M weights into an (M, M) array
    for g, shape in ((lambda X, Y: (1 + 2 * X - Y)[:, None], "(768, 1)"),
                     (lambda X, Y: np.array([1.0]), "(1,)")):
        for call in (lambda: tmvi_eval_many(loop, g, x, 128),
                     lambda: evaluate_masked(loop, x, 128, g=g)):
            with pytest.raises(InvalidArgumentError) as e:
                call()
            assert str(e.value) == "field values have shape %s, expected (768,) or ()" % shape
    # a single value is constant boundary data
    np.testing.assert_allclose(tmvi_eval_many(loop, lambda X, Y: 2.5, x, 128), 2.5, rtol=1e-14)


def test_boundary_data_that_is_not_real_numbers_is_rejected():
    loop = hexagon_loop()
    x = [[0.1, 0.2], [0.3, -0.1]]
    for g in (lambda X, Y: X + 1j * Y, lambda X, Y: "3", lambda X, Y: np.full(len(X), "3")):
        for call in (lambda: tmvi_eval_many(loop, g, x, 128),
                     lambda: evaluate_masked(loop, x, 128, g=g)):
            with pytest.raises(InvalidArgumentError, match="field values must be real numbers"):
                call()
    # boolean boundary data is 0 and 1
    np.testing.assert_array_equal(tmvi_eval_many(loop, lambda X, Y: X > 0.0, x, 128),
                                  tmvi_eval_many(loop, lambda X, Y: (X > 0.0) * 1.0, x, 128))


def test_non_finite_boundary_data_is_an_evaluation_error():
    loop = egg_domain()
    samples = {tuple(c) for c in loop.samples(256)[0].tolist()}
    for call in (lambda g: tmvi_eval_many(loop, g, [[0.0, 0.0]]),
                 lambda g: evaluate_masked(loop, [[0.0, 0.0], [5.0, 5.0]], g=g)):
        with pytest.raises(EvaluationError) as e, np.errstate(invalid="ignore"):
            call(lambda x, y: np.log(x))
        assert e.value.point in samples and e.value.point[0] < 0.0

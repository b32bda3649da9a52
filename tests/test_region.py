import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geometry_names, own_samples
from sbcubature.curves import (
    Bezier,
    Curve,
    ParametricCurve,
    RationalBezier,
    Segment,
    sample_chain,
)
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


@pytest.mark.parametrize("make, field", [
    (lambda: CenterPolicy.vertex(True), "vertex index"),
    (lambda: CenterPolicy.vertex(np.bool_(True)), "vertex index"),
    (lambda: CenterPolicy.vertex(1.7), "vertex index"),
    (lambda: CenterPolicy.vertex(-0.5), "vertex index"),
    (lambda: CenterPolicy.vertex(np.nan), "vertex index"),
    (lambda: CenterPolicy.vertex("2"), "vertex index"),
    (lambda: CenterPolicy("vertex"), "needs index"),
    (lambda: CenterPolicy("origin", point=(3, 4)), "takes no point"),
    (lambda: CenterPolicy("vertex_average", index=0), "takes no index"),
    (lambda: CenterPolicy("vertex", index=1, point=(3, 4)), "takes no point"),
    (lambda: CenterPolicy("custom", index=1, point=(3, 4)), "takes no index"),
    (lambda: CenterPolicy("custom"), "needs point"),
    (lambda: CenterPolicy.custom((0.5, 0.5, 9.0)), "center point"),
    (lambda: CenterPolicy.custom((0.5,)), "center point"),
    (lambda: CenterPolicy.custom(("a", "b")), "center point"),
    (lambda: CenterPolicy.custom((0.5, np.inf)), "center point"),
    (lambda: CenterPolicy("centroid"), "center strategy"),
    (lambda: CenterPolicy(["origin"]), "center strategy"),
], ids=["vertex-bool", "vertex-numpy-bool", "vertex-fraction", "vertex-negative-fraction",
        "vertex-nan", "vertex-text", "vertex-without-index", "origin-with-point",
        "vertex-average-with-index", "vertex-with-point", "custom-with-index",
        "custom-without-point", "custom-three-coordinates", "custom-one-coordinate",
        "custom-text", "custom-inf", "unknown-strategy", "strategy-list"])
def test_center_policy_checks_itself_when_built(make, field):
    with pytest.raises(InvalidArgumentError, match=field):
        make()


def test_center_policy_stores_an_int_index_and_a_float_point():
    for i in (2, np.int64(2), 2.0, np.float32(2.0)):
        policy = CenterPolicy.vertex(i)
        assert policy == CenterPolicy("vertex", index=2) and type(policy.index) is int
    policy = CenterPolicy.custom(np.array([3, -1]))
    assert policy.point == (3.0, -1.0) and all(type(v) is float for v in policy.point)
    assert hash(policy) == hash(CenterPolicy.custom((3.0, -1.0)))
    assert (CenterPolicy.ORIGIN.index, CenterPolicy.ORIGIN.point) == (None, None)


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
        for got, want in zip((C[i], N[i], perp[i]), own_samples(c, t, x0)):
            np.testing.assert_array_equal(got, want)


class Arc(Curve):
    """Unit-circle arc from angle th0 to th1: a curve class decompose does not batch."""

    def __init__(self, th0, th1):
        self.th0, self.th1 = th0, th1

    def position(self, t):
        th = self.th0 + (self.th1 - self.th0) * np.asarray(t, dtype=float)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def velocity(self, t):
        th = self.th0 + (self.th1 - self.th0) * np.asarray(t, dtype=float)
        return (self.th1 - self.th0) * np.stack([-np.sin(th), np.cos(th)], axis=-1)


class BulgedSegment(Segment):
    """A Segment subclass with its own position: it must not be batched as a segment."""

    def position(self, t):
        bump = 0.1 * np.sin(np.pi * np.asarray(t, dtype=float))
        return super().position(t) + np.multiply.outer(bump, (self.d[1], -self.d[0]))

    def velocity(self, t):
        bump = 0.1 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float))
        return super().velocity(t) + np.multiply.outer(bump, (self.d[1], -self.d[0]))


KINDS = ("segment", "bezier1", "bezier2", "bezier3", "rational", "parametric", "arc", "bulged")


def curve_chain(kinds, bulge=0.2):
    """A closed chain through points on the unit circle, one curve of each kind per edge."""
    th = 2.0 * np.pi * np.arange(len(kinds) + 1) / len(kinds)
    v = np.column_stack([np.cos(th), np.sin(th)])
    v[-1] = v[0]
    curves = []
    for kind, a, b, th0, th1 in zip(kinds, v, v[1:], th, th[1:]):
        out = bulge * np.array([b[1] - a[1], a[0] - b[0]])
        if kind == "segment":
            curves.append(Segment(a, b))
        elif kind.startswith("bezier"):
            deg = int(kind[-1])
            s = np.arange(1, deg)[:, None] / deg
            curves.append(Bezier([a, *(a + s * (b - a) + out), b]))
        elif kind == "rational":
            curves.append(RationalBezier([a, 0.5 * (a + b) + out, b], [1.0, 0.6 + bulge, 1.0]))
        elif kind == "parametric":
            x, y = ("%r + t*%r + %r*sin(pi*t)" % (float(a[j]), float(b[j] - a[j]), float(out[j]))
                    for j in (0, 1))
            curves.append(ParametricCurve(x, y))
        elif kind == "arc":
            curves.append(Arc(th0, th1))
        else:
            curves.append(BulgedSegment(a, b))
    return Region(curves)


def assert_decompose_matches_each_curve(region, x0, t):
    C, N, perp = decompose(region, x0, t)
    assert C.shape == N.shape == (len(region.curves), len(t), 2)
    for i, c in enumerate(region.curves):
        for got, want in zip((C[i], N[i], perp[i]), own_samples(c, t, x0)):
            np.testing.assert_array_equal(got, want)


def test_decompose_matches_each_curve_in_chain_order():
    t = np.concatenate([[0.0], np.polynomial.legendre.leggauss(9)[0] * 0.5 + 0.5, [1.0]])
    x0 = np.array([0.1, -0.2])
    # every kind twice, Bezier degrees 1-3 interleaved with the other groups
    assert_decompose_matches_each_curve(curve_chain(KINDS + KINDS[::-1]), x0, t)
    for name in geometry_names():
        assert_decompose_matches_each_curve(lookup(name).make(), x0, t)


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=10),
       bulge=st.floats(-0.3, 0.3), x0=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
       t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_decompose_matches_each_curve_for_any_chain(kinds, bulge, x0, t):
    assert_decompose_matches_each_curve(curve_chain(kinds, bulge), np.array(x0), np.array(t))


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=10),
       bulge=st.floats(-0.3, 0.3), x0=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
       n=st.integers(1, 6), data=st.data())
def test_decompose_matches_each_curve_at_its_own_node_row(kinds, bulge, x0, n, data):
    # one row of nodes per curve: each row is its curve's own evaluation, bit for bit
    region = curve_chain(kinds, bulge)
    row = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    t = np.array(data.draw(st.lists(row, min_size=len(kinds), max_size=len(kinds))))
    x0 = np.array(x0)
    C, N, perp = decompose(region, x0, t)
    assert C.shape == N.shape == (len(kinds), n, 2)
    for i, c in enumerate(region.curves):
        for got, want in zip((C[i], N[i], perp[i]), own_samples(c, t[i], x0)):
            np.testing.assert_array_equal(got, want)


def test_node_rows_must_match_the_chain(unit_square):
    for t in (np.full((3, 2), 0.5), np.full((5, 2), 0.5), np.full((4, 2, 1), 0.5)):
        with pytest.raises(InvalidArgumentError, match="one row per curve"):
            decompose(unit_square, np.zeros(2), t)
    with pytest.raises(InvalidArgumentError, match="must lie in"):
        decompose(unit_square, np.zeros(2), np.array([[0.5]] * 3 + [[1.5]]))


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


def test_non_finite_sample_after_batched_segments_names_its_chain_index():
    region = Region([Segment((0, 0), (1, 0)), Segment((1, 0), (1, 1)),
                     ParametricCurve("1 - t", "1 + 0*sqrt(abs(t-0.5)-0.001)"),
                     Segment((0, 1), (0, 0))])
    with pytest.raises(InvalidArgumentError, match="curve 2 "):
        decompose(region, np.array([0.5, 0.5]), np.array([0.25, 0.5]))
    with pytest.raises(InvalidArgumentError, match="curve 2 "):
        integrate(region, CenterPolicy.VERTEX_AVERAGE, lambda x, y: np.ones_like(x), 3, 5)


def test_decompose_rejects_nodes_outside_the_unit_interval(unit_square):
    for region in (unit_square, lookup("egg").make(), curve_chain(KINDS)):
        for t in ([-0.1, 0.5], [0.5, 1.1]):
            with pytest.raises(InvalidArgumentError, match="must lie in"):
                decompose(region, np.zeros(2), np.array(t))


def test_nan_node_is_a_bad_parameter_not_a_bad_curve(unit_square):
    # a NaN node fails the [0, 1] check instead of reaching the curves'
    # finiteness check, which would blame the geometry
    library_curves = [c for c in curve_chain(KINDS).curves if type(c).__module__ == "sbcubature.curves"]
    assert len(library_curves) == 6
    for curve in library_curves:
        for method in (curve.position, curve.velocity):
            with pytest.raises(InvalidArgumentError, match="curve parameter must lie in"):
                method(np.nan)
    for region in (unit_square, lookup("egg").make(), curve_chain(KINDS)):
        for t in ([0.5, np.nan], [[np.nan, 0.5]] * len(region.curves)):
            with pytest.raises(InvalidArgumentError, match="curve parameter must lie in"):
                decompose(region, np.zeros(2), np.array(t))


class UnvectorizedLine(Segment):
    """A segment subclass whose velocity forgets to broadcast over t."""

    def velocity(self, t):
        return self.d


class TransposedLine(Segment):
    """A segment subclass whose position returns (2, n) samples."""

    def position(self, t):
        return super().position(t).T


def test_curve_samples_of_the_wrong_shape_are_rejected():
    v = [(0, 0), (1, 0), (1, 1), (0, 1)]
    region = Region([Segment(v[0], v[1]), UnvectorizedLine(v[1], v[2]),
                     Segment(v[2], v[3]), Segment(v[3], v[0])])
    with pytest.raises(InvalidArgumentError, match=r"curve 1 velocity has shape \(2,\)"):
        decompose(region, np.zeros(2), np.array([0.25, 0.5]))
    with pytest.raises(InvalidArgumentError, match=r"curve 2 position has shape \(2, 64\)"):
        Region([Segment(v[0], v[1]), Segment(v[1], v[2]), TransposedLine(v[2], v[3]),
                Segment(v[3], v[0])])


def test_non_finite_velocity_at_a_node_is_rejected():
    # atan2(0, 0) has no derivative: c'(0.5) is NaN while c(0.5) is finite
    from sbcubature.hni import HomogeneousField, hni_integrate
    from sbcubature.singular import SingularSpec, generate_singular_rule

    region = Region([ParametricCurve("t + 0*atan2(t-0.5, t-0.5)", "0"), Segment((1, 0), (1, 1)),
                     Segment((1, 1), (0, 1)), Segment((0, 1), (0, 0))])
    with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
        decompose(region, np.array([0.5, 0.5]), np.array([0.25, 0.5]))
    with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
        integrate(region, CenterPolicy.VERTEX_AVERAGE, lambda x, y: np.ones_like(x), 3, 5)
    with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
        hni_integrate(region, HomogeneousField(lambda x, y: np.ones_like(x), 0.0), 5)
    with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
        generate_singular_rule(region, SingularSpec(xc=(0.5, 0.5)), 0.5, 3, 5)
    assert area(region, (0.5, 0.5), n_t=4) == pytest.approx(1.0, abs=1e-14)


def test_star_convexity_check_rejects_a_nan_normal_inside():
    # a NaN normal fails every sign test, so unchecked it would read as star-convex
    class NanInside(Segment):
        def velocity(self, t):
            v = super().velocity(t)
            v[(0.0 < t) & (t < 1.0)] = np.nan
            return v

    region = Region([NanInside((0, 0), (1, 0)), Segment((1, 0), (1, 1)),
                     Segment((1, 1), (0, 1)), Segment((0, 1), (0, 0))])
    with pytest.raises(InvalidArgumentError, match="curve 0 has a non-finite velocity"):
        is_star_convex(region, (0.5, 0.5))


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


def test_region_endpoints_are_each_curves_start_and_end():
    # Region reads them from its 64 bounding-box samples, t = 0 and t = 1 included
    t = np.linspace(0.0, 1.0, 64)
    chains = [lookup(name).make() for name in geometry_names()]
    for region in chains + [curve_chain(KINDS + KINDS[::-1])]:
        C = sample_chain(region.curves, t, velocity=False)[0]
        starts = np.array([c.position(0.0) for c in region.curves])
        ends = np.array([c.position(1.0) for c in region.curves])
        np.testing.assert_array_equal(region.vertices, starts)
        np.testing.assert_array_equal(C[:, -1], ends)
        np.testing.assert_array_equal(
            np.abs(C[:, -1] - np.roll(C[:, 0], -1, axis=0)).max(),
            np.abs(ends - np.roll(starts, -1, axis=0)).max(),
        )


def test_open_chain_reports_the_gap_between_curve_ends():
    curves = curve_chain(KINDS).curves
    curves[-1] = Segment(curves[-1].position(0.0), curves[0].position(0.0) + np.array([0.0, 1e-3]))
    gap = max(np.abs(a.position(1.0) - b.position(0.0)).max()
              for a, b in zip(curves, curves[1:] + curves[:1]))
    with pytest.raises(InvalidArgumentError, match="max endpoint gap %.3e " % gap):
        Region(curves)


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

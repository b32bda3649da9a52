import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POLYGON_NAMES, greens_poly, own_samples, same_bits
from sbcubature.curves import Bezier, Curve, Segment
from sbcubature.errors import EvaluationError, InvalidArgumentError
from sbcubature.hni import HomogeneousField, hni_integrate
from sbcubature.region import CenterPolicy, Region, polygon
from sbcubature.sbc import (
    assemble_rule,
    field_values,
    generate_rule,
    integrate,
    min_orders_curved,
    min_orders_polygon,
)
from sbcubature.singular import GAUSS_JACOBI, SingularSpec, generate_singular_rule
from sbcubature.testfns import _POLY_MONOMIALS, lookup


def segment_triangle_rule(t, s, w_s):
    """Kernel rule on the triangle spanned by x0 = 0 and the edge x = 1, 0 <= y <= 1."""
    x0 = np.zeros(2)
    C, _, perp = own_samples(Segment((1, 0), (1, 1)), np.asarray(t, dtype=float), x0)
    return assemble_rule(
        np.array([0]), C[None], perp[None], x0, np.asarray(s, dtype=float), np.asarray(w_s, dtype=float)
    )


def test_sb_map_endpoints():
    # the scaled boundary map x0 + s*(c(t) - x0), ordered (t-node, radial node)
    rule = segment_triangle_rule([0.3, 0.5], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(
        rule.points, [[0, 0], [0.5, 0.15], [1, 0.3], [0, 0], [0.5, 0.25], [1, 0.5]]
    )
    np.testing.assert_array_equal(rule.curve_index, 0)


def test_sb_jacobian():
    # radial weights s give the weights s * (c - x0).c'_perp of the regular rule
    rule = segment_triangle_rule([0.5, 0.2], [0.0, 1.0], [0.0, 1.0])
    assert rule.weights[0] == 0.0
    assert rule.weights[3] == pytest.approx(1.0)


def test_unit_square_centroid_rule(unit_square):
    rule = generate_rule(unit_square, CenterPolicy.VERTEX_AVERAGE, 1, 1)
    assert len(rule) == 4
    np.testing.assert_allclose(rule.weights, 0.25)
    assert np.sum(rule.weights) == pytest.approx(1.0)


def test_vertex_center_drops_incident_edges(unit_square):
    rule = generate_rule(unit_square, CenterPolicy.vertex(0), 2, 2)
    assert set(rule.curve_index) == {1, 2}
    assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-14)


def test_monomial_over_square(unit_square):
    v = integrate(unit_square, CenterPolicy.VERTEX_AVERAGE, lambda x, y: x**2 * y, 3, 2)
    assert v == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_min_orders():
    assert min_orders_polygon(0) == (1, 1)
    assert min_orders_polygon(3) == (3, 2)
    assert min_orders_polygon(5) == (4, 3)
    assert min_orders_curved(0, 3) == (1, 3)
    assert min_orders_curved(5, 3) == (4, 11)
    assert min_orders_curved(0, 1) == (1, 1)
    assert min_orders_polygon(np.int64(3)) == (3, 2)
    assert min_orders_curved(np.int32(5), np.int64(3)) == (4, 11)
    # a degree is an integer: 2.5 is not rounded up, and True is not 1
    for bad in (-1, 2.5, 3.0, True, np.nan, "3", None):
        with pytest.raises(InvalidArgumentError, match="polynomial degree"):
            min_orders_polygon(bad)
        with pytest.raises(InvalidArgumentError, match="integrand degree"):
            min_orders_curved(bad, 3)
    for bad in (0, 2.5, True, np.nan, "3"):
        with pytest.raises(InvalidArgumentError, match="curve degree"):
            min_orders_curved(2, bad)


@pytest.mark.parametrize("pname", POLYGON_NAMES)
@pytest.mark.parametrize("p", range(6))
def test_polynomial_exactness_vs_boundary_oracle(pname, p):
    reg = lookup(pname).make()
    f = lookup("p%d" % p)
    exact = greens_poly(reg.vertices, f.meta["monomials"])
    n_xi, n_t = min_orders_polygon(p)
    for policy in (CenterPolicy.VERTEX_AVERAGE, CenterPolicy.ORIGIN):
        got = integrate(reg, policy, f.field, n_xi, n_t)
        assert got == pytest.approx(exact, rel=1e-12)


def test_center_invariance_including_exterior():
    reg = lookup("nonconvex_quad").make()
    f = lookup("p3").field
    vals = [
        integrate(reg, CenterPolicy.custom(x0), f, 6, 6)
        for x0 in [(0.3, 0.3), (0.0, 0.0), (10.0, -3.0), (-2.0, 5.0)]
    ]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-11)


def test_signed_partitions_still_positive_area():
    reg = lookup("nonconvex_quad").make()
    x0 = np.array([1.5, 1.5])  # outside; some triangle weights negative
    rule = generate_rule(reg, CenterPolicy.custom(tuple(x0)), 2, 2)
    assert rule.weights.min() < 0.0
    assert np.sum(rule.weights) == pytest.approx(
        greens_poly(reg.vertices, {(0, 0): 1.0}), rel=1e-12
    )


def test_affine_bezier_edges_match_segment_fast_path():
    # segments and degree-1 Bezier edges go through the same kernel
    v = [(0.0, 0.0), (2.0, 0.5), (1.0, 2.0)]
    seg_region = polygon(v)
    bez_region = Region(
        [Bezier([v[i], v[(i + 1) % 3]]) for i in range(3)]
    )
    a = generate_rule(seg_region, CenterPolicy.ORIGIN, 3, 3)
    b = generate_rule(bez_region, CenterPolicy.ORIGIN, 3, 3)
    # vertex 0 is the origin, so both rules drop its two incident edges
    np.testing.assert_array_equal(a.curve_index, [1] * 9)
    np.testing.assert_array_equal(b.curve_index, a.curve_index)
    np.testing.assert_allclose(a.points, b.points, atol=1e-13)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-13)


def test_skip_rule_is_relative_to_curve_speed():
    # x0 lies 1e-16 * size off the bottom edge's line: numerically on it.
    # Segments and curves skip that edge alike at any size, because the rule
    # compares (c - x0).c'_perp, an area rate, with scale * |c'|.
    for size in (1e-6, 1.0, 1e6):
        v = size * np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
        x0 = CenterPolicy.custom(size * np.array([0.5, 1e-16]))
        for reg in (polygon(v), Region([Bezier([v[i], v[(i + 1) % 4]]) for i in range(4)])):
            rule = generate_rule(reg, x0, 2, 2)
            assert set(rule.curve_index) == {1, 2, 3}
            assert np.sum(rule.weights) == pytest.approx(size**2, rel=1e-14)


class SpyCurve(Curve):
    """Delegates to a curve and records the size of every evaluation."""

    def __init__(self, curve):
        self.curve = curve
        self.calls = []

    def position(self, t):
        self.calls.append(("position", np.size(t)))
        return self.curve.position(t)

    def velocity(self, t):
        self.calls.append(("velocity", np.size(t)))
        return self.curve.velocity(t)


@pytest.mark.parametrize("family", ["regular", "singular", "hni"])
def test_each_curve_is_sampled_once_on_the_t_nodes(family):
    spies = [SpyCurve(c) for c in lookup("bezier").make().curves]
    reg = Region(spies)
    for s in spies:
        s.calls.clear()
    n_t = 7
    if family == "regular":
        generate_rule(reg, CenterPolicy.VERTEX_AVERAGE, 5, n_t)
    elif family == "singular":
        spec = SingularSpec(xc=tuple(reg.vertices.mean(axis=0)), radial=GAUSS_JACOBI)
        generate_singular_rule(reg, spec, 0.5, 5, n_t)
    else:
        hni_integrate(reg, HomogeneousField(lambda x, y: x * y, 2), n_t)
    for s in spies:
        assert sorted(s.calls) == [("position", n_t), ("velocity", n_t)]


def build(family, reg, k):
    """The k-th rule of a family at n_t = 7, each k with its own center and radial order."""
    center = tuple(reg.vertices.mean(axis=0) + 0.01 * k)
    if family == "regular":
        return generate_rule(reg, CenterPolicy.custom(center), 3 + k, 7)
    if family == "singular":
        return generate_singular_rule(reg, SingularSpec(xc=center, radial=GAUSS_JACOBI), 0.5, 3 + k, 7)
    return hni_integrate(reg, HomogeneousField(lambda x, y: x * y + k * x * x, 2), 7)


@pytest.mark.parametrize("family, domain", [
    pytest.param(family, domain, id=family if domain == "bezier" else family + "-" + domain)
    for domain in ("bezier", "convex_hexagon") for family in ("regular", "singular", "hni")])
def test_a_second_rule_at_the_same_n_t_evaluates_no_curve(monkeypatch, family, domain):
    import sbcubature.region as region_module

    # exact segments are sampled in a pass that calls no curve method, so
    # the sampling passes are counted too
    passes = []
    sample_chain = region_module.sample_chain

    def counted(*args, **kwargs):
        passes.append(args[1])
        return sample_chain(*args, **kwargs)

    monkeypatch.setattr(region_module, "sample_chain", counted)
    curves = lookup(domain).make().curves
    spies = [SpyCurve(c) for c in curves] if domain == "bezier" else []
    reg = Region(spies or curves)
    build(family, reg, 0)
    for s in spies:
        s.calls.clear()
    passes.clear()
    for k in (0, 1):
        got = build(family, reg, k)
        assert all(s.calls == [] for s in spies) and passes == []
        want = build(family, Region(lookup(domain).make().curves), k)
        passes.clear()
        if family == "hni":
            assert got == want
        else:
            for a in ("points", "weights", "curve_index"):
                np.testing.assert_array_equal(getattr(got, a), getattr(want, a))


def test_every_curve_skipped_gives_an_empty_rule():
    # x0 lies on both edges of this degenerate region, so no curve counts
    reg = Region([Segment((0, 0), (1, 0)), Segment((1, 0), (0, 0))])
    one = lambda x, y: np.ones_like(x)
    with pytest.warns(UserWarning, match="skipped"):
        singular = generate_singular_rule(reg, SingularSpec(xc=(0.0, 0.0), t_transform="r1"), 0.5, 3, 4)
    for rule in (generate_rule(reg, CenterPolicy.ORIGIN, 3, 4), singular):
        assert rule.points.shape == (0, 2)
        assert rule.weights.shape == (0,)
        assert rule.curve_index.shape == (0,)
        assert np.issubdtype(rule.curve_index.dtype, np.integer)
        assert rule(one) == 0.0
    assert hni_integrate(reg, HomogeneousField(one, 0), 4) == 0.0


def test_nonfinite_integrand_reports_point(unit_square):
    with pytest.raises(EvaluationError) as e, np.errstate(divide="ignore", invalid="ignore"):
        integrate(unit_square, CenterPolicy.VERTEX_AVERAGE, lambda x, y: 1.0 / (x - x), 2, 2)
    assert e.value.point is not None


def test_evaluation_error_names_its_point_as_python_floats():
    rule = generate_rule(lookup("egg").make(), CenterPolicy.VERTEX_AVERAGE, 4, 4)
    with pytest.raises(EvaluationError) as e, np.errstate(invalid="ignore"):
        rule(lambda x, y: np.log(x))
    point = e.value.point
    assert type(point) is tuple and [type(v) for v in point] == [float, float]
    assert point[0] < 0.0 and point in {tuple(p) for p in rule.points.tolist()}
    message = str(e.value)
    assert "np.float64" not in message
    assert tuple(float(v) for v in message[message.index("(") + 1:-1].split(", ")) == point


def test_field_values_of_the_wrong_shape_are_rejected():
    rule = generate_rule(lookup("convex_hexagon").make(), CenterPolicy.VERTEX_AVERAGE, 4, 4)
    n = len(rule)
    # an (N, 1) column would broadcast against the (N,) weights into a wrong number
    for f, shape in ((lambda x, y: (1.0 + x)[:, None], (n, 1)),
                     (lambda x, y: np.array([1.0]), (1,)),
                     (lambda x, y: np.ones((2, n)), (2, n))):
        with pytest.raises(InvalidArgumentError) as e:
            rule(f)
        assert str(e.value) == "field values have shape %s, expected (%d,) or ()" % (shape, n)


def test_field_values_that_are_not_real_numbers_are_rejected():
    rule = generate_rule(lookup("convex_quad").make(), CenterPolicy.VERTEX_AVERAGE, 3, 3)
    # numpy would keep the real part of a complex value, and read "3" as 3
    for f in (lambda x, y: x + 1j * y, lambda x, y: "3", lambda x, y: np.full(len(x), "3"),
              lambda x, y: np.array([1.0] * (len(x) - 1) + [1j], dtype=object),
              lambda x, y: np.array([1.0] * (len(x) - 1) + ["3"], dtype=object)):
        with pytest.raises(InvalidArgumentError, match="field values must be real numbers"):
            rule(f)
    # an indicator field is 0 and 1, and a float64 field is not copied
    assert rule(lambda x, y: x > 2.0) == rule(lambda x, y: (x > 2.0).astype(float))
    vals = np.ones(len(rule))
    assert field_values(lambda x, y: vals, *rule._columns) is vals


def test_a_single_field_value_is_a_constant_field():
    rule = generate_rule(lookup("bezier").make(), CenterPolicy.VERTEX_AVERAGE, 3, 8)
    ones = rule(lambda x, y: np.ones_like(x))
    assert rule(lambda x, y: 1.0) == ones
    assert rule(lambda x, y: np.float64(2.5)) == rule(lambda x, y: np.full_like(x, 2.5))
    with pytest.raises(EvaluationError), np.errstate(invalid="ignore"):
        rule(lambda x, y: np.nan)


def test_rule_weight_sum_matches_area_for_curved_region():
    reg = lookup("bezier").make()
    rule = generate_rule(reg, CenterPolicy.VERTEX_AVERAGE, 1, 3)
    ref = generate_rule(reg, CenterPolicy.VERTEX_AVERAGE, 64, 64)
    assert np.sum(rule.weights) == pytest.approx(np.sum(ref.weights), rel=1e-12)


def test_hni_equivalence_sample():
    reg = lookup("convex_quad").make()
    f = lambda x, y: x**2 * np.asarray(y)
    a = integrate(reg, CenterPolicy.ORIGIN, f, 3, 2)
    b = hni_integrate(reg, HomogeneousField(f, 3), 4)
    assert a == pytest.approx(b, rel=1e-11)


@pytest.mark.parametrize("n_t", [16, 32, 64])
def test_deltoid_area_is_exact_to_round_off(n_t):
    # pi / 9 is the exact area inside the builtin deltoid's three arcs
    area = integrate(lookup("deltoid").make(), CenterPolicy.VERTEX_AVERAGE,
                     lambda x, y: np.ones_like(x), 2, n_t)
    assert abs(area - np.pi / 9.0) <= 2e-15


def planar_inputs(seed, m, n, x0_at):
    """Samples C (m, n, 2) and a center x0, with some C coordinates equal to x0's.

    x0 lies inside the samples' box, outside it, or with them far from the
    origin.
    """
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1e7, 1e7, 2) if x0_at == "far" else np.zeros(2)
    C = offset + rng.uniform(-1.0, 1.0, (m, n, 2))
    x0 = offset + (rng.uniform(2.0, 4.0, 2) * rng.choice((-1.0, 1.0), 2) if x0_at == "outside"
                   else rng.uniform(-0.5, 0.5, 2))
    return np.where(rng.random((m, n, 2)) < 0.2, x0, C), x0, rng


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 12), n=st.integers(1, 70), k=st.integers(1, 50),
       x0_at=st.sampled_from(("inside", "outside", "far")), seed=st.integers(0, 2**32 - 1))
def test_assemble_rule_is_the_one_broadcast_bit_for_bit(m, n, k, x0_at, seed):
    C, x0, rng = planar_inputs(seed, m, n, x0_at)
    tw = rng.standard_normal((m, n))
    s = np.where(rng.random(k) < 0.1, 0.0, rng.uniform(0.0, 1.0, k))
    w_s = rng.uniform(0.0, 1.0, k)
    idx = rng.permutation(20)[:m]
    rule = assemble_rule(idx, C, tw, x0, s, w_s)
    # the reference: the points as one broadcast over an innermost axis of length 2
    want = (x0 + s[:, None] * (C[:, :, None, :] - x0)).reshape(-1, 2)
    assert same_bits(rule.points, want) and not rule.points.flags.writeable
    # the (N, 2) points are a view of two contiguous coordinate planes
    assert rule.points[:, 0].flags.c_contiguous and rule.points[:, 1].flags.c_contiguous
    assert same_bits(rule.weights, (tw[:, :, None] * w_s).ravel())
    assert np.issubdtype(rule.curve_index.dtype, np.integer)
    np.testing.assert_array_equal(rule.curve_index, np.repeat(idx, n * k))

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcubature.errors import InvalidArgumentError
from sbcubature.region import CenterPolicy, polygon
from sbcubature.rules import gauss_legendre
from sbcubature.sbc import assemble_rule, generate_rule, integrate
from sbcubature.singular import (
    GAUSS_JACOBI,
    GeneralizedSB,
    SingularSpec,
    SplitIntegrand,
    _radial_rule,
    generate_singular_rule,
    integrate_singular,
    radial_exponent,
    select_alpha,
    t_transform_bounds,
)
from sbcubature.testfns import lookup, xfem_integrands


def ones(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def test_select_alpha():
    assert select_alpha(1.0) == 1
    assert select_alpha(0.5) == 2
    assert select_alpha(1.8) == 5
    assert select_alpha(4.0 / 3.0) == 3
    # a narrow numpy float is read as its float64 value, without a warning
    assert select_alpha(np.float32(0.5)) == select_alpha(np.float16(0.5)) == 2


def test_radial_exponent():
    assert radial_exponent(1.0, 1.0) == pytest.approx(0.0)
    assert radial_exponent(0.5, 1.0) == pytest.approx(0.5)
    assert radial_exponent(1.8, 1.0) == pytest.approx(-0.8)
    for beta in (np.float32(0.5), np.float16(0.5)):
        assert radial_exponent(beta, 1.0) == 0.5


def test_gsb_map_and_jacobian():
    # right triangle seen from its vertex at the origin: only the edge x = 1,
    # c(t) = (1, t), counts, and the rule places x0 + xi^alpha * (c(t) - x0)
    tri = polygon([(0, 0), (1, 0), (1, 1)])
    xi, t = gauss_legendre(3), gauss_legendre(2)
    C = np.column_stack([np.ones(2), t.nodes])
    beta = 0.5
    for alpha in (1.0, 2.0, 3.0):
        spec = SingularSpec(xc=(0.0, 0.0), radial=GeneralizedSB(alpha))
        rule = generate_singular_rule(tri, spec, beta, 3, 2)
        np.testing.assert_array_equal(rule.curve_index, 1)
        s = xi.nodes**alpha
        np.testing.assert_allclose(rule.points, (s[None, :, None] * C[:, None, :]).reshape(-1, 2))
        # Jacobian alpha * xi^(2 alpha - 1) * (c - x0).c'_perp times r^-beta
        r = s[None, :] * np.hypot(*C.T)[:, None]
        jac = alpha * xi.nodes ** (2.0 * alpha - 1.0) * 1.0
        expected = t.weights[:, None] * xi.weights[None, :] * jac[None, :] * r**-beta
        np.testing.assert_allclose(rule.weights, expected.ravel(), rtol=1e-13)
        # applied to g = r^beta the rule gives the area
        assert rule(lambda x, y: np.hypot(x, y) ** beta) == pytest.approx(0.5, rel=1e-14)
    # alpha = 1 reduces to the plain map
    plain = generate_rule(tri, CenterPolicy.ORIGIN, 3, 2)
    rule = generate_singular_rule(tri, SingularSpec(xc=(0.0, 0.0), radial=GeneralizedSB(1.0)), beta, 3, 2)
    np.testing.assert_array_equal(rule.points, plain.points)


def test_radial_reparam_preserves_measure():
    # alpha * xi^(2 alpha - 1) is a polynomial of degree <= 9: 5 Gauss nodes are exact
    xi = gauss_legendre(5)
    for alpha in (1.0, 2.0, 5.0):
        vals = alpha * xi.nodes ** (2.0 * alpha - 1.0)
        assert np.dot(xi.weights, vals) == pytest.approx(0.5, abs=1e-14)


def test_t_transform_bounds_examples():
    # the edge (1, -1) -> (1, 1) seen from the origin: ell = 1, tau from -1 to 1
    lo, hi, _, _ = t_transform_bounds(1.0, -1.0, 1.0, "r1")
    assert (lo, hi) == (
        pytest.approx(np.log(np.sqrt(2.0) - 1.0)),
        pytest.approx(np.log(np.sqrt(2.0) + 1.0)),
    )
    lo, hi, _, _ = t_transform_bounds(1.0, -1.0, 1.0, "r2")
    assert (lo, hi) == (pytest.approx(-np.pi / 4), pytest.approx(np.pi / 4))


@pytest.mark.parametrize("which", ["r1", "r2", "r3"])
def test_t_transformed_points_lie_on_their_edges(which):
    # xc below the square's bottom edge, its foot inside that edge (tau1 < 0 < tau2):
    # every t-sample C = xc + (x - xc) / s lies on its edge, in increasing order
    sq = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    xc = np.array([0.3, -0.5])
    n = 6
    rule = generate_singular_rule(sq, SingularSpec(xc=tuple(xc), t_transform=which), 0.5, n, n)
    s = gauss_legendre(n).nodes
    C = xc + (rule.points.reshape(-1, n, n, 2) - xc) / s[:, None]
    np.testing.assert_allclose(C, C[:, :, :1, :].repeat(n, axis=2), atol=1e-14)
    for i, edge in zip(np.unique(rule.curve_index), C[:, :, 0, :]):
        a, b = sq.vertices[i], sq.vertices[(i + 1) % 4]
        u = (edge - a) @ (b - a)  # position along the edge, times its length^2
        d = edge - a
        np.testing.assert_allclose(d[:, 0] * (b - a)[1] - d[:, 1] * (b - a)[0], 0.0, atol=1e-14)
        assert np.all(np.diff(u) > 0.0) and 0.0 < u[0] and u[-1] < 1.0
    assert list(np.unique(rule.curve_index)) == [0, 1, 2, 3]


def _per_edge_samples(region, x0, which, beta, t_rule):
    """Edge indices, C and t-weights of a t-transform, one edge at a time.

    The sampler the r1/r2/r3 rules used before they went through
    region.decompose, kept as the reference: each edge's own unit tangent,
    normal and distance ell, its skip test |ell| <= 1e-14 * scale, and points
    x0 + ell n + tau tau_hat.
    """
    idx, Cs, tws = [], [], []
    for i, c in enumerate(region.curves):
        tau_hat = c.d / float(np.hypot(*c.d))
        n = np.array([tau_hat[1], -tau_hat[0]])
        ell = float(np.dot(c.a - x0, n))
        if abs(ell) <= 1e-14 * region.scale():
            continue
        tau1 = float(np.dot(c.a - x0, tau_hat))
        tau2 = float(np.dot(c.b - x0, tau_hat))
        lo, hi, tau_of, dtau_of = t_transform_bounds(ell, tau1, tau2, which)
        tt = lo + (hi - lo) * t_rule.nodes
        tau = tau_of(tt)
        bfac = ell * (ell**2 + tau * tau) ** (-0.5 * beta)
        idx.append(i)
        Cs.append(x0 + ell * n + tau[:, None] * tau_hat)
        tws.append(t_rule.weights * (hi - lo) * dtau_of(tt) * bfac)
    n_t = len(t_rule.nodes)
    return np.array(idx, dtype=int), np.reshape(Cs, (-1, n_t, 2)), np.reshape(tws, (-1, n_t))


def per_edge_rule(region, spec, beta, n_xi, n_t):
    x0 = np.asarray(spec.xc, dtype=float)
    samples = _per_edge_samples(region, x0, spec.t_transform, beta, gauss_legendre(n_t))
    return assemble_rule(*samples, x0, *_radial_rule(spec.radial, beta, n_xi))


@pytest.mark.filterwarnings("ignore:edge through the singularity")
@pytest.mark.parametrize("dx", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("element", ["Omega1", "Omega2"])
def test_crack_rules_match_the_per_edge_sampler(element, dx):
    regions, fields, beta, xc = xfem_integrands(element, dx)
    for radial in (None, GAUSS_JACOBI, GeneralizedSB(select_alpha(beta))):
        for which in ("r1", "r2", "r3"):
            spec = SingularSpec(xc=tuple(xc), radial=radial, t_transform=which)
            for n in (8, 16, 32):
                got = np.zeros(16)
                ref = np.zeros(16)
                for reg in regions:
                    rule = generate_singular_rule(reg, spec, beta, n, n)
                    old = per_edge_rule(reg, spec, beta, n, n)
                    np.testing.assert_array_equal(rule.curve_index, old.curve_index)
                    got += [rule(g) for g in fields]
                    ref += [old(g) for g in fields]
                assert np.abs(got - ref).sum() <= 1e-14 * np.abs(ref).sum()


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(3, 7),
    frac=st.lists(st.floats(0.1, 0.9), min_size=7, max_size=7),
    radii=st.lists(st.floats(0.3, 2.0), min_size=7, max_size=7),
    scale=st.floats(-3.0, 3.0),
    at_vertex=st.booleans(),
    offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    beta=st.floats(0.1, 1.9),
    which=st.sampled_from(["r1", "r2", "r3"]),
    radial=st.sampled_from([None, GAUSS_JACOBI, "gsb"]),
)
def test_star_polygon_rules_match_the_per_edge_sampler(
    k, frac, radii, scale, at_vertex, offset, beta, which, radial
):
    # star polygons about the origin, 1e-3 to 1e3 across; xc at a vertex
    # (two edges skipped) or near the centre
    s = 10.0**scale
    th = 2.0 * np.pi * (np.arange(k) + np.array(frac[:k])) / k
    v = s * np.column_stack([radii[:k] * np.cos(th), radii[:k] * np.sin(th)])
    reg = polygon(v)
    xc = tuple(v[0]) if at_vertex else (s * offset[0], s * offset[1])
    if radial == "gsb":
        radial = GeneralizedSB(2.0)
    spec = SingularSpec(xc=xc, radial=radial, t_transform=which)
    old = per_edge_rule(reg, spec, beta, 6, 12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rule = generate_singular_rule(reg, spec, beta, 6, 12)
    assert len(caught) == k - len(np.unique(old.curve_index))
    np.testing.assert_array_equal(rule.curve_index, old.curve_index)

    def g(x, y):
        return np.cos(x / s) + (y / s) ** 2

    vals = g(old.points[:, 0], old.points[:, 1])
    assert abs(rule(g) - old(g)) <= 1e-13 * np.abs(old.weights * vals).sum()


def test_skipped_edge_warning_names_the_caller():
    sq = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    spec = SingularSpec(xc=(0.5, 0.0), radial=GAUSS_JACOBI, t_transform="r1")
    f = SplitIntegrand(lambda x, y: np.ones_like(x), 1.0)
    for call in (lambda: generate_singular_rule(sq, spec, 1.0, 4, 4),
                 lambda: integrate_singular(sq, f, spec, 4, 4)):
        with pytest.warns(UserWarning, match="edge through the singularity skipped") as rec:
            call()
        assert [w.filename for w in rec] == [__file__]


def test_each_skipped_edge_warns_once():
    # xc at T3's vertex (0, 0): the two edges through it are skipped
    t3 = lookup("T3").make()
    spec = SingularSpec(xc=(0.0, 0.0), t_transform="r1")
    with pytest.warns(UserWarning, match="edge through the singularity skipped") as rec:
        rule = generate_singular_rule(t3, spec, 0.5, 4, 4)
    assert len(rec) == 2
    assert [w.filename for w in rec] == [__file__, __file__]
    assert len(set(str(w.message) for w in rec)) == 2
    assert len(np.unique(rule.curve_index)) == len(t3.curves) - 2


@pytest.mark.parametrize("which", ["r1", "r2", "r3"])
def test_t_transform_skips_the_edge_through_the_singularity(which):
    # xc on the bottom edge's line: that edge has no area seen from xc, so the
    # transformed rule drops it with a warning and keeps the other three
    sq = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    xc = (0.5, 0.0)

    def g(x, y):
        return 1.0 + np.asarray(x) + np.asarray(y) ** 2

    with pytest.warns(UserWarning, match="edge through the singularity skipped"):
        rule = generate_singular_rule(
            sq, SingularSpec(xc=xc, radial=GAUSS_JACOBI, t_transform=which), 1.0, 12, 24
        )
    assert set(rule.curve_index) == {1, 2, 3}
    plain = generate_singular_rule(sq, SingularSpec(xc=xc, radial=GAUSS_JACOBI), 1.0, 12, 24)
    assert rule(g) == pytest.approx(plain(g), rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(
    ell=st.floats(0.01, 10.0),
    tau=st.floats(-20.0, 20.0),
    which=st.sampled_from(["r1", "r2", "r3"]),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_t_transform_round_trip_and_monotone(ell, tau, which, sign):
    ell = sign * ell
    lo, hi, tau_of, dtau_of = t_transform_bounds(ell, -1.0, 1.0, which)
    assert lo < hi  # strictly increasing maps
    # round trip through the forward map
    l2 = ell * ell
    if which == "r1":
        fwd = np.log(tau + np.sqrt(l2 + tau * tau))
    elif which == "r2":
        fwd = np.arctan(tau / abs(ell))
    else:
        fwd = tau / np.sqrt(l2 + tau * tau)
    # the inverse is ill-conditioned when |tau| >> |ell|; scale the tolerance
    cond = (l2 + tau * tau) / l2
    assert tau_of(fwd) == pytest.approx(tau, rel=1e-12 * cond, abs=1e-11)
    assert dtau_of(fwd) > 0.0


@pytest.mark.parametrize("which, tau1, tau2", [
    (w, *taus) for w in ("r1", "r2", "r3") for taus in ((-2.0, -1.0), (1.0, 2.0))
] + [("r1", -0.5, 0.5)])
def test_t_transform_ends_round_trip_next_to_the_line(which, tau1, tau2):
    # ell = 1e-10: r2/r3 put an edge on one side of the foot next to a pole,
    # and r1's forward map cancels for tau < 0.  (r2/r3 on an edge across the
    # foot keep tau~, whose ends round onto the poles at this ell.)
    lo, hi, tau_of, dtau_of = t_transform_bounds(1e-10, tau1, tau2, which)
    assert tau_of(lo) == pytest.approx(tau1, rel=1e-12)
    assert tau_of(hi) == pytest.approx(tau2, rel=1e-12)
    tt = np.linspace(lo, hi, 9)
    assert np.all(np.diff(tau_of(tt)) > 0.0) and np.all(np.isfinite(dtau_of(tt)) & (dtau_of(tt) > 0.0))


def test_small_beta_limit_matches_plain_cubature(unit_square):
    v = integrate_singular(
        unit_square, SplitIntegrand(ones, 1e-14), SingularSpec(xc=(-0.5, -0.5)), 8, 8
    )
    ref = integrate(unit_square, CenterPolicy.custom((-0.5, -0.5)), ones, 8, 8)
    assert v == pytest.approx(ref, rel=1e-13)


def test_inverse_r_over_centered_square():
    sq = polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    spec = SingularSpec(xc=(0.0, 0.0), radial=GAUSS_JACOBI, t_transform="r2")
    v = integrate_singular(sq, SplitIntegrand(ones, 1.0), spec, 16, 16)
    assert v == pytest.approx(4.0 * np.arcsinh(1.0), rel=1e-12)


def test_exactness_restoration_cubic_over_half_power():
    t3 = lookup("T3").make()
    beta = 0.5

    def g(x, y):
        return 1.0 + x - 2.0 * y + x**2 * np.asarray(y)

    ref = integrate_singular(
        t3, SplitIntegrand(g, beta), SingularSpec(xc=(0, 0), radial=GAUSS_JACOBI), 40, 120
    )
    # alpha*(p + 2 - beta) = 2*4.5 = 9 -> 5 radial points suffice
    v = integrate_singular(
        t3,
        SplitIntegrand(g, beta),
        SingularSpec(xc=(0, 0), radial=GeneralizedSB(2.0)),
        5,
        120,
    )
    assert v == pytest.approx(ref, rel=1e-12)


def test_weakly_singular_registry_functions_have_consistent_split():
    for name in ("fS1", "fS3", "fS6"):
        fn = lookup(name)
        g, beta = fn.meta["numerator"], fn.meta["beta"]
        x, y = 0.3, -0.2
        r = np.hypot(x, y)
        assert fn.field(x, y) == pytest.approx(g(x, y) / r**beta, rel=1e-13)


@pytest.mark.parametrize("which", ["r1", "r2", "r3"])
def test_edge_next_to_the_singularity_is_skipped(which):
    # xc 1e-15 off the bottom edge's line, within round-off of it; at 1e-310,
    # a subnormal, the r1 map (and r3's beyond the edge) has no nodes in
    # [0, 1] and the edge keeps the Gauss nodes before it is dropped
    sq = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for xc in ((0.5, 1e-15), (2.0, 1e-15), (0.5, 1e-310), (2.0, 1e-310)):
        spec = SingularSpec(xc=xc, radial=GAUSS_JACOBI, t_transform=which)
        with pytest.warns(UserWarning, match=r"skipped \(curve 0\)"):
            rule = generate_singular_rule(sq, spec, 0.5, 6, 6)
        assert 0 not in rule.curve_index and np.isfinite(rule.weights).all()


@pytest.mark.parametrize("which, xc", [("r1", (0.5, 1e-10)), ("r1", (0.5, -1e-10)),
                                       ("r1", (2.0, 1e-10)), ("r3", (2.0, 1e-10))])
def test_t_transform_resolves_a_kept_edge_next_to_xc(which, xc):
    # the bottom edge is 1e-10 from xc, so it counts.  Its nodes need r1's map
    # without the cancellation of log(tau + r) for tau < 0, and r3's ends
    # measured from the pole when the edge lies far along its line from xc
    sq = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    spec = SingularSpec(xc=xc, radial=GAUSS_JACOBI, t_transform=which)
    rule = generate_singular_rule(sq, spec, 0.5, 6, 6)
    assert 0 in rule.curve_index and np.isfinite(rule.weights).all()
    # the same point without a t-transform gives a finite rule too
    plain = generate_singular_rule(sq, SingularSpec(xc=xc, radial=GAUSS_JACOBI), 0.5, 6, 6)
    assert np.isfinite(plain.weights).all()
    old = per_edge_rule(sq, spec, 0.5, 6, 6)
    np.testing.assert_array_equal(rule.curve_index, old.curve_index)

    def g(x, y):
        return np.cos(x) + y * y

    vals = g(old.points[:, 0], old.points[:, 1])
    assert abs(rule(g) - old(g)) <= 1e-13 * np.abs(old.weights * vals).sum()


def test_a_fraction_beta_is_a_real_number(unit_square):
    from fractions import Fraction

    spec = SingularSpec(xc=(-1.0, -1.0), radial=GAUSS_JACOBI)
    want = generate_singular_rule(unit_square, spec, 0.5, 4, 5)
    got = generate_singular_rule(unit_square, spec, Fraction(1, 2), 4, 5)
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.filterwarnings("ignore:edge through the singularity")
def test_r1_cannot_resolve_an_edge_whose_line_passes_too_near_xc():
    # xc lies 2e-15 above the bottom edge, so that edge counts but its
    # r1 map is singular; the two near-degenerate edges are skipped
    sliver = polygon([(0, 0), (1, 0), (1, 1e-14)])
    for radial in (None, GAUSS_JACOBI):
        spec = SingularSpec(xc=(0.5, 2e-15), radial=radial, t_transform="r1")
        with pytest.raises(InvalidArgumentError,
                           match="the r1 t-transform cannot resolve curve 1: xc is too close to its line"):
            generate_singular_rule(sliver, spec, 0.5, 4, 8)


def test_a_narrow_numpy_beta_gives_the_rule_of_its_float64_value(unit_square):
    # a narrow numpy float gives the rule of its float64 value, without a warning
    for radial in (None, GeneralizedSB(1.0), GAUSS_JACOBI):
        for tt in (None, "r1", "r2", "r3"):
            spec = SingularSpec(xc=(-1.0, -1.0), radial=radial, t_transform=tt)
            want = generate_singular_rule(unit_square, spec, 0.5, 4, 5)
            for beta in (np.float32(0.5), np.float16(0.5)):
                got = generate_singular_rule(unit_square, spec, beta, 4, 5)
                np.testing.assert_array_equal(got.points, want.points)
                np.testing.assert_array_equal(got.weights, want.weights)


@pytest.mark.parametrize("d", [1e-3, 1e-2, 1e-1])
def test_nearly_singular_exterior_center_converges(unit_square, d):
    xc = (-d, 0.5)
    spec = SingularSpec(xc=xc, radial=GAUSS_JACOBI, t_transform="r1")
    ref = integrate_singular(unit_square, SplitIntegrand(ones, 0.5), spec, 48, 48)
    v = integrate_singular(unit_square, SplitIntegrand(ones, 0.5), spec, 24, 24)
    assert np.isfinite(v) and np.isfinite(ref)
    assert v == pytest.approx(ref, rel=1e-9)


def test_singular_spec_stores_xc_as_two_floats():
    spec = SingularSpec(xc=np.array([0, 1]), radial=GAUSS_JACOBI)
    assert spec.xc == (0.0, 1.0) and all(type(v) is float for v in spec.xc)
    assert hash(spec) == hash(SingularSpec((0.0, 1.0), GAUSS_JACOBI))


@pytest.mark.parametrize("alpha", [2, np.int64(2), np.float32(2.0), np.float16(2.0)],
                         ids=["int", "numpy-int", "float32", "float16"])
def test_generalized_sb_keeps_alpha_as_a_float(alpha):
    # a narrow numpy float is read as its float64 value, without a warning
    radial = GeneralizedSB(alpha)
    assert type(radial.alpha) is float and radial == GeneralizedSB(2.0)


def test_singular_spec_takes_every_strategy():
    for radial in (None, GAUSS_JACOBI, GeneralizedSB(2), GeneralizedSB(np.float64(0.5))):
        for t_transform in (None, "r1", "r2", "r3"):
            spec = SingularSpec((0.1, 0.1), radial=radial, t_transform=t_transform)
            assert (spec.radial, spec.t_transform) == (radial, t_transform)

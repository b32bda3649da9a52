import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import POLYGON_NAMES, function_names, geometry_names, rescaled_polygon, to_physical
from sbcubature import testfns
from sbcubature.errors import EvaluationError, InvalidArgumentError, NotFoundError
from sbcubature.region import Region, polygon
from sbcubature.sbc import CubatureRule
from sbcubature.singular import (
    GAUSS_JACOBI,
    GeneralizedSB,
    SingularSpec,
    generate_singular_rule,
    select_alpha,
)
from sbcubature.testfns import (
    _XFEM_NODES,
    BilinearElement,
    NamedFunction,
    NamedGeometry,
    lookup,
    xfem_integrands,
)


def test_lookup():
    assert isinstance(lookup("fF1"), NamedFunction)
    assert isinstance(lookup("T3"), NamedGeometry)
    with pytest.raises(NotFoundError) as e:
        lookup("nope")
    assert "fF1" in str(e.value)


def test_franke_value_finite_positive():
    assert 0.0 < lookup("fF1").field(0.5, 0.5) < 3.0


def test_triangle_vertices():
    t3 = lookup("T3").make()
    np.testing.assert_allclose(
        t3.vertices, [(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)], atol=1e-15
    )


def test_constant_function():
    f = lookup("fC1").field
    assert np.all(f(np.array([0.0, 7.0]), np.array([1.0, -2.0])) == 1.0)


@pytest.mark.parametrize("name", ["p0", "p1", "p2", "p3", "p4", "p5", "fC2"])
def test_polynomial_degree_metadata(name):
    fn = lookup(name)
    d = fn.meta["degree"]
    rng = np.random.default_rng(3)
    h = 0.5
    for _ in range(5):
        x0, y0 = rng.uniform(-1, 1, 2)
        dx, dy = rng.uniform(0.3, 1.0, 2)
        # (d+1)-th finite difference along a random direction annihilates
        # any polynomial of degree d
        k = np.arange(d + 2)
        coeffs = (-1.0) ** (d + 1 - k) * np.array([comb(d + 1, int(i)) for i in k])
        vals = fn.field(x0 + k * h * dx, y0 + k * h * dy)
        assert abs(np.dot(coeffs, vals)) <= 1e-9 * (1.0 + np.abs(vals).max())


# _cubic_numerator, the numerator of fS1 and fS3, as {(i, j): c} of c x**i y**j
_CUBIC_MONOMIALS = {
    (0, 0): 4, (1, 0): -2, (0, 1): 1, (2, 0): -1, (1, 1): 2, (0, 2): -3,
    (3, 0): 3, (2, 1): -5, (1, 2): 5, (0, 3): -4,
}
_POLYNOMIAL_FIELDS = [(name, lookup(name).field, lookup(name).meta["monomials"])
                      for name in ("p0", "p1", "p2", "p3", "p4", "p5", "fC1", "fC2")]
_POLYNOMIAL_FIELDS.append(("fS1 numerator", lookup("fS1").meta["numerator"], _CUBIC_MONOMIALS))


@pytest.mark.parametrize("name, field, monomials", _POLYNOMIAL_FIELDS,
                         ids=[name for name, _, _ in _POLYNOMIAL_FIELDS])
def test_polynomial_fields_match_their_monomials_pointwise(name, field, monomials):
    # exact rational evaluation of the monomials; the field may be off by
    # 8 deg u times the sum of the term sizes
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 200), [0.0, -1.0, 1.0, -0.5]])
    y = np.concatenate([rng.uniform(-3.0, 3.0, 200), [-1.0, 0.0, -2.0, -0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = field(x, y)
    assert got.shape == x.shape
    degree = max(i + j for i, j in monomials)
    u = Fraction(2) ** -53
    for xk, yk, gk in zip(x.tolist(), y.tolist(), got.tolist()):
        terms = [Fraction(c) * Fraction(xk) ** i * Fraction(yk) ** j for (i, j), c in monomials.items()]
        assert abs(Fraction(gk) - sum(terms)) <= 8 * degree * u * sum(abs(t) for t in terms), (xk, yk)


@pytest.mark.parametrize("name, field, monomials", _POLYNOMIAL_FIELDS,
                         ids=[name for name, _, _ in _POLYNOMIAL_FIELDS])
def test_polynomial_fields_return_the_broadcast_shape(name, field, monomials):
    # every shape gives the values of the pointwise scalar calls, bit for bit
    x = np.linspace(-2.0, 1.0, 7)
    y = np.linspace(-1.0, 2.0, 7)
    cases = [(-0.75, -1.25), (x, y), (x, -1.25), (-0.75, y), (x[:, None], y[None, :3])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for xs, ys in cases:
            values = field(xs, ys)
            bx, by = np.broadcast_arrays(xs, ys)
            assert np.shape(values) == bx.shape
            pointwise = [field(a, b) for a, b in zip(bx.ravel().tolist(), by.ravel().tolist())]
            np.testing.assert_array_equal(np.ravel(values), pointwise)


@pytest.mark.parametrize("name", ["fS1", "fS2", "fS3", "fS4", "fS5", "fS6"])
def test_singular_metadata_consistent(name):
    fn = lookup(name)
    beta = fn.meta["beta"]
    xc = np.array(fn.meta["singular_xc"])
    r = 1e-6
    for th in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
        x = xc[0] + r * np.cos(th)
        y = xc[1] + r * np.sin(th)
        damped = fn.field(x, y) * r**beta
        assert np.isfinite(damped)
        assert damped == pytest.approx(fn.meta["numerator"](x, y), rel=1e-9, abs=1e-12)


def test_fs5_homogeneous_degree_minus_one():
    f = lookup("fS5").field
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rng.uniform(0.1, 1.0, 2)
        lam = rng.uniform(0.5, 3.0)
        assert f(lam * x, lam * y) == pytest.approx(f(x, y) / lam, rel=1e-10)


def test_registry_geometries_construct():
    for name in geometry_names():
        assert isinstance(lookup(name).make(), Region)
    assert set(POLYGON_NAMES) <= set(geometry_names())
    assert "fS1" in function_names()


def test_rescaled_polygon_fits_unit_square():
    for name in POLYGON_NAMES:
        v = rescaled_polygon(name).vertices
        assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-15
        assert v.max() == pytest.approx(1.0)


# Reference for the crack-tip numerators, kept as first written: a Newton
# iteration for the inverse map, N_I and grad N_I as (..., 4) and (..., 4, 2)
# arrays through inv(J), and the sixteen entries formed one (i, j) at a time.
_SIGNS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def _ref_shape(xi, eta):
    return 0.25 * (1.0 + np.multiply.outer(xi, _SIGNS[:, 0])) * (
        1.0 + np.multiply.outer(eta, _SIGNS[:, 1])
    )


def _ref_shape_grad_ref(xi, eta):
    """dN/d(xi,eta): shape (..., 4, 2)."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.shape + (4, 2))
    out[..., :, 0] = 0.25 * _SIGNS[:, 0] * (1.0 + np.multiply.outer(eta, _SIGNS[:, 1]))
    out[..., :, 1] = 0.25 * _SIGNS[:, 1] * (1.0 + np.multiply.outer(xi, _SIGNS[:, 0]))
    return out


def _ref_to_reference(elem, x, y):
    xi = np.zeros(np.broadcast(x, y).shape)
    eta = np.zeros_like(xi)
    for _ in range(30):
        p = to_physical(elem, xi, eta)
        rx = p[..., 0] - x
        ry = p[..., 1] - y
        x_xi, x_eta, y_xi, y_eta, det = elem._jacobian(xi, eta)
        dxi = (y_eta * rx - x_eta * ry) / det
        deta = (x_xi * ry - y_xi * rx) / det
        xi -= dxi
        eta -= deta
        if max(np.abs(dxi).max(), np.abs(deta).max()) < 1e-14:
            break
    return xi, eta


def _ref_crack_numerators(elem, xc, x, y):
    """The sixteen numerators at points (x, y), shape (16, N) in (i, j) order."""
    xi, eta = _ref_to_reference(elem, x, y)
    x_xi, x_eta, y_xi, y_eta, det = elem._jacobian(xi, eta)
    xi_x, xi_y = y_eta / det, -x_eta / det
    eta_x, eta_y = -y_xi / det, x_xi / det
    dref = _ref_shape_grad_ref(xi, eta)
    grad = np.empty_like(dref)
    grad[..., 0] = dref[..., 0] * xi_x[..., None] + dref[..., 1] * eta_x[..., None]
    grad[..., 1] = dref[..., 0] * xi_y[..., None] + dref[..., 1] * eta_y[..., None]
    N = _ref_shape(xi, eta)
    rx = x - xc[0]
    ry = y - xc[1]
    th = np.arctan2(ry, rx)
    s = np.sin(0.5 * th)
    hs, hc, rs = -0.5 * s, 0.5 * np.cos(0.5 * th), np.hypot(rx, ry) * s
    return np.array([
        N[..., i] * (hs * grad[..., j, 0] + hc * grad[..., j, 1])
        + rs * (grad[..., i, 0] * grad[..., j, 0] + grad[..., i, 1] * grad[..., j, 1])
        for i in range(4)
        for j in range(4)
    ])


# Reference for the crack-tip numerators as the kernel once formed them:
# inv(J) by four divisions by det, the dot products of A, B, E scaled by
# r sin(theta/2) after the E rows, and K = M @ F with the features in the
# pair order of np.triu_indices(3).
def _ref_crack_two_pass(elem, xc, x, y):
    """The sixteen numerators at points (x, y), shape (16, N) in (i, j) order."""
    s_, t_ = _SIGNS.T
    g = np.column_stack([s_, t_, s_ * t_])
    n = np.column_stack([np.ones(4), s_, t_, s_ * t_])
    a, b = np.triu_indices(3)
    grad = (g[:, None, a] * g[None, :, b] + g[:, None, b] * g[None, :, a]) * np.where(a == b, 0.5, 1.0)
    conv = n[:, None, :, None] * g[None, :, None, :]
    M = np.hstack([grad.reshape(16, 6), conv.reshape(16, 12)]) / 16.0
    xi, eta = elem.to_reference(x, y)
    x_xi, x_eta, y_xi, y_eta, det = elem._jacobian(xi, eta)
    ax, ay = y_eta / det, x_eta / -det
    bx, by = y_xi / -det, x_xi / det
    rx, ry = x - xc[0], y - xc[1]
    half = 0.5 * np.arctan2(ry, rx)
    s = np.sin(half)
    F = np.empty((18, len(x)))
    F[0] = ax * ax + ay * ay
    F[1] = ax * bx + ay * by
    F[3] = bx * bx + by * by
    F[2] = eta * F[0] + xi * F[1]
    F[4] = eta * F[1] + xi * F[3]
    F[5] = eta * F[2] + xi * F[4]
    F[:6] *= np.hypot(rx, ry) * s
    hx, hy = -0.5 * s, 0.5 * np.cos(half)
    F[6] = hx * ax + hy * ay
    F[7] = hx * bx + hy * by
    F[8] = eta * F[6] + xi * F[7]
    F[9:12] = xi * F[6:9]
    F[12:15] = eta * F[6:9]
    F[15:18] = xi * eta * F[6:9]
    return M @ F


def _crack_line_and_tip_points(element, dx):
    """Points on the crack line y = 0.5 behind the tip, and within 1e-12 of the tip."""
    left = {"Omega1": -0.98, "Omega2": 0.0}[element]
    behind = np.linspace(left, dx, 40, endpoint=False)
    phi = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    rho = np.repeat([1e-12, 1e-13, 1e-15], 16)
    x = np.concatenate([behind, dx + rho * np.cos(np.tile(phi, 3)), [dx]])
    y = np.concatenate([np.full(40, 0.5), 0.5 + rho * np.sin(np.tile(phi, 3)), [0.5]])
    return x, y


def _element_points(element, dx=1e-3):
    """Reference grid over the element, plus physical points near the tip."""
    elem = BilinearElement(_XFEM_NODES[element])
    xi, eta = (a.ravel() for a in np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)))
    rho, phi = np.meshgrid([1e-3, 1e-5, 1e-9], np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    near = np.column_stack([dx + (rho * np.cos(phi)).ravel(), 0.5 + (rho * np.sin(phi)).ravel()])
    return elem, xi, eta, near


def test_bilinear_inverse_round_trip():
    for element in ("Omega1", "Omega2"):
        elem, xi, eta, near = _element_points(element)
        p = to_physical(elem, xi, eta)
        xi2, eta2 = elem.to_reference(p[:, 0], p[:, 1])
        np.testing.assert_allclose(xi2, xi, atol=1e-13)
        np.testing.assert_allclose(eta2, eta, atol=1e-13)
        back = to_physical(elem, *elem.to_reference(near[:, 0], near[:, 1]))
        np.testing.assert_allclose(back, near, rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    angles=st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4),
    radii=st.lists(st.floats(0.2, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_bilinear_inverse_residual_on_convex_quads(angles, radii, log_scale, offset, seed):
    # one vertex per quadrant, counterclockwise; convex with a margin, so the
    # Jacobian, affine in (xi, eta), is positive over the whole element
    phi = 0.5 * np.pi * (np.arange(4) + np.array(angles))
    unit = np.column_stack([np.cos(phi), np.sin(phi)]) * np.array(radii)[:, None]
    e = np.roll(unit, -1, axis=0) - unit
    f = np.roll(e, 1, axis=0)
    assume(np.min(f[:, 0] * e[:, 1] - f[:, 1] * e[:, 0]) > 0.05)
    scale = 10.0**log_scale
    nodes = scale * (unit + np.array(offset))
    elem = BilinearElement(nodes)
    rng = np.random.default_rng(seed)
    grid = np.linspace(-1.0, 1.0, 7)
    xi = np.concatenate([np.repeat(grid, 7), rng.uniform(-1.0, 1.0, 64)])
    eta = np.concatenate([np.tile(grid, 7), rng.uniform(-1.0, 1.0, 64)])
    p = to_physical(elem, xi, eta)
    back = to_physical(elem, *elem.to_reference(p[:, 0], p[:, 1]))
    assert np.abs(back - p).max() <= 1e-15 * np.abs(nodes).max()


@pytest.mark.parametrize("case", ["parallelogram", "y_branch"])
def test_bilinear_inverse_exact_cases(case):
    if case == "parallelogram":
        elem = BilinearElement([(0.0, 0.0), (1.0, 0.25), (1.5, 1.25), (0.5, 1.0)])
        assert not elem.a3.any()  # the quadratic in eta degenerates to a line
    else:
        elem = BilinearElement([(0.0, 0.0), (0.0, 2.0), (-1.0, 1.5), (-1.0, 0.0)])
        # dx/dxi = a1 + a3*eta has a zero x component: xi comes from y
        assert elem.a1[0] == 0.0 and elem.a3[0] == 0.0 and elem.a3[1] != 0.0
    xi, eta = (a.ravel() for a in np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)))
    p = to_physical(elem, xi, eta)
    xi2, eta2 = elem.to_reference(p[:, 0], p[:, 1])
    np.testing.assert_array_equal(xi2, xi)
    np.testing.assert_array_equal(eta2, eta)


@pytest.mark.parametrize("element", ["Omega1", "Omega2"])
def test_far_point_without_real_inverse_is_an_evaluation_error(element):
    elem = BilinearElement(_XFEM_NODES[element])
    far = {"Omega1": (-20.0, -0.5), "Omega2": (5.5, -20.0)}[element]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, eta = elem.to_reference(np.array([far[0]]), np.array([far[1]]))
        assert np.isnan(xi).all() and np.isnan(eta).all()
        fields = xfem_integrands(element, 0.01)[1]
        # the element's centre (xi = eta = 0) first, then the far point
        rule = CubatureRule(np.array([elem.a0, far]), np.ones(2), np.zeros(2, dtype=int))
        with pytest.raises(EvaluationError) as e:
            rule(fields[6])
    assert e.value.point == far
    assert repr(far[0]) in str(e.value) and repr(far[1]) in str(e.value)


@pytest.mark.filterwarnings("ignore:edge through the singularity")
@pytest.mark.parametrize("dx", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("element", ["Omega1", "Omega2"])
def test_crack_values_match_per_entry_newton_reference(element, dx):
    regions, fields, beta, xc = xfem_integrands(element, dx)
    elem = BilinearElement(_XFEM_NODES[element])
    for radial in (GAUSS_JACOBI, GeneralizedSB(select_alpha(beta)), None):
        for t_transform in ("r1", "r2", "r3"):
            spec = SingularSpec(xc=tuple(xc), radial=radial, t_transform=t_transform)
            for n in (8, 16, 32):
                got = np.zeros(16)
                ref = np.zeros(16)
                for reg in regions:
                    rule = generate_singular_rule(reg, spec, beta, n, n)
                    got += [rule(g) for g in fields]
                    x, y = rule.points.T
                    vals = _ref_crack_numerators(elem, xc, x, y)
                    ref += [np.dot(rule.weights, v) for v in vals]
                    # every numerator at every point, against that point's largest
                    pointwise = np.array([g(x, y) for g in fields])
                    assert (np.abs(pointwise - vals) <= 1e-14 * np.abs(vals).max(axis=0)).all()
                    two_pass = _ref_crack_two_pass(elem, xc, x, y)
                    assert (np.abs(pointwise - two_pass) <= 4e-15 * np.abs(two_pass).max(axis=0)).all()
                assert np.abs(got - ref).sum() <= 1e-14 * np.abs(ref).sum()
    # and on the crack line behind the tip, and next to the tip
    x, y = _crack_line_and_tip_points(element, dx)
    pointwise = np.array([g(x, y) for g in fields])
    assert np.isfinite(pointwise).all()
    vals = _ref_crack_numerators(elem, xc, x, y)
    assert (np.abs(pointwise - vals) <= 1e-14 * np.abs(vals).max(axis=0)).all()
    two_pass = _ref_crack_two_pass(elem, xc, x, y)
    assert (np.abs(pointwise - two_pass) <= 4e-15 * np.abs(two_pass).max(axis=0)).all()


@pytest.mark.filterwarnings("ignore:edge through the singularity")
def test_crack_fields_bit_identical_in_any_order():
    regions, fields, beta, xc = xfem_integrands("Omega1", 1e-3)
    spec = SingularSpec(xc=tuple(xc), radial=GAUSS_JACOBI, t_transform="r1")
    rules = [generate_singular_rule(reg, spec, beta, 12, 12) for reg in regions]
    region_major = np.array([[rule(g) for g in fields] for rule in rules])
    # alternating the two sub-regions recomputes the geometry on every call
    field_major = np.array([[rule(g) for rule in rules] for g in fields]).T
    assert np.array_equal(region_major, field_major)
    fresh = xfem_integrands("Omega1", 1e-3)[1]
    assert np.array_equal(region_major, [[rule(g) for g in fresh] for rule in rules])

    # a rule's points are read-only, so its kept numerators cannot go stale
    with pytest.raises(ValueError):
        rules[0].points[:, 0] += 1e-3
    # writable points changed in place between calls are evaluated afresh
    x, y = rules[0].points.T.copy()
    saved = x.copy()
    first = fields[5](x, y).copy()
    x += 1e-3
    moved = fields[5](x, y)
    assert np.array_equal(moved, fields[5](x.copy(), y.copy()))
    assert not np.array_equal(moved, first)
    x[:] = saved
    assert np.array_equal(fields[5](x, y), first)
    # and so are read-only views of them, whose data the writable arrays own
    vx, vy = x.view(), y.view()
    vx.setflags(write=False)
    vy.setflags(write=False)
    assert np.array_equal(fields[5](vx, vy), first)
    x += 1e-3
    assert np.array_equal(fields[5](vx, vy), moved)
    # and a new rule over moved points gets its own numerators
    rules[0](fields[0])
    moved_rule = generate_singular_rule(polygon(regions[0].vertices + (1e-3, 0.0)), spec, beta, 12, 12)
    x, y = moved_rule.points.T.copy()
    assert moved_rule(fields[5]) == np.dot(moved_rule.weights, fields[5](x, y))
    assert moved_rule(fields[5]) != region_major[0, 5]
    assert np.array_equal(region_major, [[rule(g) for g in fields] for rule in rules])


@pytest.mark.filterwarnings("ignore:edge through the singularity")
def test_sixteen_fields_solve_the_inverse_map_once_per_rule(monkeypatch):
    calls = []
    to_reference = BilinearElement.to_reference

    def counted(self, x, y):
        calls.append(len(x))
        return to_reference(self, x, y)

    monkeypatch.setattr(BilinearElement, "to_reference", counted)
    monkeypatch.setattr(testfns, "_last_stiffness", None)
    regions, fields, beta, xc = xfem_integrands("Omega1", 1e-2)
    spec = SingularSpec(xc=tuple(xc), radial=GAUSS_JACOBI, t_transform="r1")
    rules = [generate_singular_rule(reg, spec, beta, 10, 10) for reg in regions]
    for rule in rules:
        for g in fields:
            rule(g)
    assert calls == [len(rule) for rule in rules]


def test_crack_integrand_suite_shape_and_self_consistency():
    regions, fields, beta, xc = xfem_integrands("Omega2", 0.1)
    assert len(fields) == 16
    assert beta == 0.5
    np.testing.assert_allclose(xc, [0.1, 0.5])
    spec = SingularSpec(xc=tuple(xc), radial=GAUSS_JACOBI, t_transform="r1")

    def run(n):
        vals = np.zeros(16)
        for reg in regions:
            rule = generate_singular_rule(reg, spec, beta, n, n)
            vals += np.array([rule(g) for g in fields])
        return vals

    a, b = run(48), run(64)
    assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


def test_omega1_splits_into_two_subregions():
    regions, fields, beta, xc = xfem_integrands("Omega1", 0.01)
    assert len(regions) == 2
    with pytest.raises(NotFoundError):
        xfem_integrands("Omega3", 0.01)


@pytest.mark.parametrize("dx", ["0.1", True, np.nan, np.inf, -np.inf, "abc", None, [0.1]],
                         ids=["text", "bool", "nan", "inf", "-inf", "abc", "none", "list"])
def test_crack_tip_offset_must_be_a_finite_number(dx):
    message = "a finite number in (-inf, inf)" if isinstance(dx, float) else "a real number"
    with pytest.raises(InvalidArgumentError) as e:
        xfem_integrands("Omega2", dx)
    assert str(e.value) == "dx must be %s, got %r" % (message, dx)
    assert xfem_integrands("Omega2", 1)[3][0] == 1.0
    # a narrow numpy float is read as its float64 value, without a warning
    for narrow in (np.float32(0.25), np.float16(0.25)):
        assert xfem_integrands("Omega2", narrow)[3][0] == 0.25


@pytest.mark.parametrize("element", sorted(_XFEM_NODES))
def test_to_reference_broadcasts_unequal_shapes_and_maps_scalars(element):
    elem = BilinearElement(_XFEM_NODES[element])
    x = np.linspace(-0.5, 0.8, 6)
    xi, eta = elem.to_reference(x, np.full(6, 0.4))
    for y in (0.4, np.float64(0.4), np.full(1, 0.4)):
        got = elem.to_reference(x, y)
        assert got[0].tobytes() == xi.tobytes() and got[1].tobytes() == eta.tobytes()
    grid = elem.to_reference(x[:, None], np.full((1, 3), 0.4))
    assert grid[0].shape == (6, 3)
    assert grid[0].tobytes() == np.repeat(xi, 3).tobytes()
    assert grid[1].tobytes() == np.repeat(eta, 3).tobytes()
    for i in range(6):
        for xs, ys in ((x[i], 0.4), (float(x[i]), np.float64(0.4))):
            s = elem.to_reference(xs, ys)
            assert np.shape(s[0]) == () and (s[0], s[1]) == (xi[i], eta[i])


@pytest.mark.parametrize("x, y, entry", [
    (np.array([0.3 + 1j]), np.array([0.4]), "(0.3+1j)"),
    (np.array([0.3]), np.array([0.4 + 0j]), "(0.4+0j)"),
    (["0.3"], ["0.4"], "'0.3'"),
    ([0.3], [None], "None"),
], ids=["complex-x", "complex-y", "text", "none"])
def test_crack_points_that_are_not_real_numbers_are_named(x, y, entry):
    # numpy read the real part of a complex point and the number a text spells
    message = "points must be real numbers, got " + entry
    field = xfem_integrands("Omega2", 0.1)[1][0]
    for evaluate in (field, BilinearElement(_XFEM_NODES["Omega2"]).to_reference):
        with pytest.raises(InvalidArgumentError) as e:
            evaluate(x, y)
        assert str(e.value) == message


def test_crack_fields_broadcast_points_of_unequal_shapes():
    fields = xfem_integrands("Omega2", 0.1)[1]
    x = np.linspace(0.2, 0.8, 6)
    y = np.full(6, 0.3)
    for a, b in ((x, 0.3), (x, np.float64(0.3)), (0.5, y), (x[:, None], y[None, :2])):
        same = [np.array(v) for v in np.broadcast_arrays(a, b)]
        for f in fields:
            want = f(*same)
            assert want.shape == same[0].shape and f(a, b).tobytes() == want.tobytes()

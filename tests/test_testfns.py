from math import comb

import numpy as np
import pytest

from sbcubature.errors import NotFoundError
from sbcubature.region import Region
from sbcubature.singular import GAUSS_JACOBI, SingularSpec, generate_singular_rule
from sbcubature.testfns import (
    POLYGON_NAMES,
    _XFEM_NODES,
    BilinearElement,
    NamedFunction,
    NamedGeometry,
    function_names,
    geometry_names,
    lookup,
    rescaled_polygon,
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


def test_bilinear_partition_of_unity():
    elem = BilinearElement([(0, 0), (0.9, 0.1), (1.1, 0.9), (0, 1)])
    xi = np.array([-0.7, 0.0, 0.4])
    eta = np.array([0.2, -0.9, 0.8])
    np.testing.assert_allclose(elem.shape(xi, eta).sum(axis=-1), 1.0, atol=1e-15)


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
        p = elem.to_physical(xi, eta)
        xi2, eta2 = elem.to_reference(p[:, 0], p[:, 1])
        np.testing.assert_allclose(xi2, xi, atol=1e-13)
        np.testing.assert_allclose(eta2, eta, atol=1e-13)
        back = elem.to_physical(*elem.to_reference(near[:, 0], near[:, 1]))
        np.testing.assert_allclose(back, near, rtol=0, atol=1e-15)


@pytest.mark.parametrize("element", ["Omega1", "Omega2"])
def test_shape_grad_physical_matches_inverse_jacobian(element):
    elem, xi, eta, _ = _element_points(element)
    p = elem.to_physical(xi, eta)
    N, grad = elem.shape_grad_physical(p[:, 0], p[:, 1])
    dref = elem.shape_grad_ref(xi, eta)
    jac = np.einsum("kj,nki->nji", elem.nodes, dref)  # d(x, y)/d(xi, eta)
    np.testing.assert_allclose(grad, dref @ np.linalg.inv(jac), rtol=0, atol=1e-13)
    np.testing.assert_allclose(N, elem.shape(xi, eta), rtol=0, atol=1e-15)
    # x = sum_k N_k x_k, so sum_k x_k grad(N_k) is the identity
    eye = np.einsum("ka,nkb->nab", elem.nodes, grad)
    np.testing.assert_allclose(eye, np.broadcast_to(np.eye(2), eye.shape), atol=1e-13)


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

    # change the points of the rule just evaluated in place: no stale geometry
    rules[0](fields[0])
    pts = rules[0].points
    saved = pts.copy()
    pts[:, 0] += 1e-3
    changed = rules[0](fields[5])
    moved = pts.copy()
    rules[1](fields[5])
    assert changed == np.dot(rules[0].weights, fields[5](moved[:, 0], moved[:, 1]))
    assert changed != region_major[0, 5]
    pts[:] = saved
    assert np.array_equal(region_major, [[rule(g) for g in fields] for rule in rules])


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

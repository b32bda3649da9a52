import numpy as np
import pytest

from conftest import greens_monomial
from sbcubature.errors import EvaluationError, InvalidArgumentError
from sbcubature.hni import HomogeneousField, hni_integrate
from sbcubature.region import CenterPolicy, polygon
from sbcubature.sbc import integrate, min_orders_polygon
from sbcubature.testfns import lookup


def const(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def test_area_of_unit_square(unit_square):
    assert hni_integrate(unit_square, HomogeneousField(const, 0), 2) == pytest.approx(1.0)
    assert hni_integrate(unit_square, HomogeneousField(const, 0), 1) == pytest.approx(1.0)


def test_quadratic_over_centered_square():
    sq = polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    hf = HomogeneousField(lambda x, y: x**2 + np.asarray(y) ** 2, 2)
    assert hni_integrate(sq, hf, 4) == pytest.approx(8.0 / 3.0)


def test_linear_over_unit_square(unit_square):
    hf = HomogeneousField(lambda x, y: x + 0.0 * np.asarray(y), 1)
    assert hni_integrate(unit_square, hf, 4) == pytest.approx(0.5)


def test_polygon_hni_matches_boundary_oracle():
    hexagon = lookup("convex_hexagon").make()
    hf = HomogeneousField(lambda x, y: x**3 * np.asarray(y) ** 2, 5)
    exact = greens_monomial(hexagon.vertices, 3, 2)
    assert hni_integrate(hexagon, hf, 6) == pytest.approx(exact, rel=1e-12)
    # the edges through the origin drop out; the others are ell * int_edge h ds
    shifted = polygon(hexagon.vertices - hexagon.vertices[0])
    exact = greens_monomial(shifted.vertices, 3, 2)
    assert hni_integrate(shifted, hf, 6) == pytest.approx(exact, rel=1e-12)


def test_homogeneity_spot_check_rejects_impostor():
    with pytest.raises(InvalidArgumentError):
        HomogeneousField(lambda x, y: x + 1.0, 1)


def test_homogeneity_spot_check_covers_every_quadrant():
    # degree 2 on the right half-plane only: x^3 for x < 0
    with pytest.raises(InvalidArgumentError):
        HomogeneousField(lambda x, y: np.maximum(x, 0.0) ** 2 + np.minimum(x, 0.0) ** 3, 2)
    # NaN for x < 1 must not hide the mismatch where both sides are finite
    with pytest.raises(InvalidArgumentError):
        HomogeneousField(lambda x, y: np.sqrt(x - 1.0) + 0.0 * y, 0.5)
    # undefined off x >= 0, and homogeneous where it is defined
    HomogeneousField(lambda x, y: np.asarray(x, dtype=float) ** 0.5 * y, 1.5)


def test_importing_the_library_loads_no_numpy_random():
    # every CLI run imports the library, and numpy.random takes 11-18 ms to
    # import where numpy itself does not load it (numpy 2), so the spot check
    # draws its points at the first field
    import os
    import subprocess
    import sys

    import sbcubature

    src = os.path.dirname(os.path.dirname(sbcubature.__file__))
    # nor concurrent.futures, which the TMVI kernel avoids for about 8 ms per run
    code = ("import sys, numpy; before = set(sys.modules); import sbcubature.cli; "
            "sys.exit(' '.join({'numpy.random', 'concurrent.futures'} & set(sys.modules) - before)"
            " or None)")
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src),
                   timeout=60)


def test_degree_bound():
    for q in (-2.0, True, "1"):
        with pytest.raises(InvalidArgumentError):
            HomogeneousField(const, q)
    # a narrow numpy float is read as its float64 value, without a warning
    cubic = lambda x, y: x * x * np.asarray(y)
    want = hni_integrate(lookup("T3").make(), HomogeneousField(cubic, 3.0), 4)
    for q in (np.float32(3.0), np.float16(3.0)):
        field = HomogeneousField(cubic, q)
        assert type(field.q) is float and field.q == 3.0
        assert hni_integrate(lookup("T3").make(), field, 4) == want


def test_hni_is_the_one_node_radial_rule():
    # the kernel rule at s = 1: the points are the boundary samples themselves
    from sbcubature.sbc import generate_rule

    reg = lookup("bezier").make()
    hf = HomogeneousField(lambda x, y: x**2 * np.asarray(y) ** 3, 5)
    rule = generate_rule(reg, CenterPolicy.ORIGIN, 1, 18)
    # the regular rule's one radial node is xi = 1/2, weight w_xi * xi = 1/2
    x = 2.0 * rule.points
    w = rule.weights / 0.5 / (2.0 + hf.q)
    assert hni_integrate(reg, hf, 18) == pytest.approx(float(w @ hf.h(x[:, 0], x[:, 1])), rel=1e-14)


def test_nonfinite_homogeneous_field_raises():
    # the node t = 1/2 of the bottom and top edges lands on x = 0
    sq = polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    hf = HomogeneousField(lambda x, y: 1.0 / np.asarray(x, dtype=float), -1)
    with pytest.raises(EvaluationError) as e, np.errstate(divide="ignore"):
        hni_integrate(sq, hf, 3)
    assert e.value.point[0] == 0.0


def test_matches_cubature_over_curved_region():
    reg = lookup("bezier").make()
    hf = HomogeneousField(lambda x, y: x**2 * np.asarray(y) ** 3, 5)
    a = hni_integrate(reg, hf, 18)
    b = integrate(reg, CenterPolicy.ORIGIN, hf.h, 4, 11)
    assert a == pytest.approx(b, rel=1e-11)


def test_boundary_only_evaluation_count():
    # a degree-p polynomial split into homogeneous parts needs O(m*p) samples
    reg = lookup("convex_quad").make()
    m = len(reg.curves)
    p = 5
    monomials = lookup("p5").meta["monomials"]
    counter = {"n": 0}
    total = 0.0
    for q in range(p + 1):
        part = {ij: c for ij, c in monomials.items() if sum(ij) == q}
        if not part:
            continue

        def h(x, y, part=part):
            counter["n"] += np.size(x)
            x = np.asarray(x, dtype=float)
            return sum(c * x**i * np.asarray(y) ** j for (i, j), c in part.items())

        hf = HomogeneousField(h, q)
        counter["n"] -= 32  # the construction's spot check: two calls on 16 points
        n_t = (q + 2) // 2 + 1
        total += hni_integrate(reg, hf, n_t)
    exact = integrate(reg, CenterPolicy.ORIGIN, lookup("p5").field, *min_orders_polygon(p))
    assert total == pytest.approx(exact, rel=1e-12)
    assert counter["n"] <= m * (p + 1) * ((p + 2) // 2 + 1)

"""Property tests of the scaled boundary kernel over random regions.

Regions are star-shaped polygons and closed chains of Bezier curves about a
random center.  Every property holds for the signed integral over any
closed chain, so the chains need not be simple.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import greens_poly
from sbcubature.curves import Bezier, Segment
from sbcubature.region import CenterPolicy, Region
from sbcubature.sbc import generate_rule, min_orders_curved, min_orders_polygon
from sbcubature.testfns import lookup

SETTINGS = settings(max_examples=25, deadline=None)
coord = st.floats(-1.0, 1.0)


@st.composite
def star_vertices(draw):
    k = draw(st.integers(3, 8))
    # angles in k equal sectors keep the vertices counterclockwise
    frac = draw(st.lists(st.floats(0.1, 0.9), min_size=k, max_size=k))
    radii = draw(st.lists(st.floats(0.3, 2.0), min_size=k, max_size=k))
    center = np.array([draw(coord), draw(coord)])
    th = 2.0 * np.pi * (np.arange(k) + np.array(frac)) / k
    return center, center + np.column_stack([radii * np.cos(th), radii * np.sin(th)])


@st.composite
def star_polygons(draw):
    """A Shape whose pieces are the polygon's vertices."""
    center, v = draw(star_vertices())
    return Shape(center, list(v), 1)


@st.composite
def bezier_chains(draw):
    """A Shape whose pieces are the control points of each Bezier curve."""
    center, v = draw(star_vertices())
    degree = draw(st.integers(1, 3))
    size = 2 * (degree + 1)
    chains = []
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        s = np.linspace(0.0, 1.0, degree + 1)[:, None]
        wiggle = draw(st.lists(st.floats(-0.2, 0.2), min_size=size, max_size=size))
        cp = a + s * (b - a) + np.hypot(*(b - a)) * np.reshape(wiggle, (-1, 2))
        cp[0], cp[-1] = a, b
        chains.append(cp)
    return Shape(center, chains, degree, polygon=False)


class Shape:
    def __init__(self, center, pieces, degree, polygon=True):
        self.center, self.pieces, self.degree, self.polygon = center, pieces, degree, polygon

    def region(self, affine=None, reverse=False):
        """The region, optionally mapped by x -> A x + b and/or reversed."""
        pieces = self.pieces
        if affine is not None:
            A, b = affine
            pieces = [p @ A.T + b for p in pieces]
        if self.polygon:
            n = len(pieces)
            curves = [Segment(pieces[i], pieces[(i + 1) % n]) for i in range(n)]
        else:
            curves = [Bezier(cp) for cp in pieces]
        if reverse:
            curves = [
                Segment(c.b, c.a) if self.polygon else Bezier(c.control_points[::-1])
                for c in curves[::-1]
            ]
        return Region(curves)

    def orders(self, m):
        return min_orders_polygon(m) if self.polygon else min_orders_curved(m, self.degree)

    def exterior(self, u):
        th = 2.0 * np.pi * u
        return self.center + 5.0 * np.array([np.cos(th), np.sin(th)])


regions = st.one_of(star_polygons(), bezier_chains())


def value_and_scale(region, x0, f, n_xi, n_t):
    rule = generate_rule(region, CenterPolicy.custom(x0), n_xi, n_t)
    vals = f(rule.points[:, 0], rule.points[:, 1])
    return rule(f), float(np.abs(rule.weights) @ np.abs(vals))


def bezier_green(chains, monomials):
    """Oracle: sum over monomials of oint x^(i+1)/(i+1) y^j dy on Bezier curves."""
    x, w = np.polynomial.legendre.leggauss(40)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    total = 0.0
    for cp in chains:
        n = len(cp) - 1
        basis = np.array([comb(n, k) * t**k * (1 - t) ** (n - k) for k in range(n + 1)]).T
        dbasis = np.array(
            [comb(n, k) * (k * t ** max(k - 1, 0) * (1 - t) ** (n - k)
                           - (n - k) * t**k * (1 - t) ** max(n - k - 1, 0)) for k in range(n + 1)]
        ).T
        px, py = (basis @ cp).T
        dy = dbasis @ cp[:, 1]
        for (i, j), c in monomials.items():
            total += c * np.sum(w * px ** (i + 1) / (i + 1) * py**j * dy)
    return total


@SETTINGS
@given(shape=regions, m=st.integers(0, 5), u=st.floats(0.0, 1.0))
def test_center_invariance_interior_and_exterior(shape, m, u):
    region = shape.region()
    f = lookup("p%d" % m).field
    n_xi, n_t = shape.orders(m)
    inner, scale = value_and_scale(region, shape.center, f, n_xi, n_t)
    outer, _ = value_and_scale(region, shape.exterior(u), f, n_xi, n_t)
    assert outer == pytest.approx(inner, abs=1e-11 * scale)


@SETTINGS
@given(shape=regions, m=st.integers(0, 5), u=st.floats(0.0, 1.0))
def test_orientation_reversal_negates(shape, m, u):
    f = lookup("p%d" % m).field
    n_xi, n_t = shape.orders(m)
    x0 = shape.center if u < 0.5 else shape.exterior(u)
    fwd, scale = value_and_scale(shape.region(), x0, f, n_xi, n_t)
    rev, _ = value_and_scale(shape.region(reverse=True), x0, f, n_xi, n_t)
    assert rev == pytest.approx(-fwd, abs=1e-11 * scale)


@SETTINGS
@given(
    shape=regions,
    m=st.integers(0, 4),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    b=st.tuples(coord, coord),
)
def test_affine_covariance(shape, m, entries, b):
    A = np.reshape(entries, (2, 2))
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    assume(abs(det) > 0.1 and np.linalg.cond(A) < 50.0)
    b = np.asarray(b)
    f = lookup("p%d" % m).field
    Ainv = np.linalg.inv(A)

    def f_pulled(x, y):
        # f o A^-1 (y - b)
        u = Ainv[0, 0] * (x - b[0]) + Ainv[0, 1] * (y - b[1])
        v = Ainv[1, 0] * (x - b[0]) + Ainv[1, 1] * (y - b[1])
        return f(u, v)

    n_xi, n_t = shape.orders(m)
    ref, scale = value_and_scale(shape.region(), shape.center, f, n_xi, n_t)
    # a reflection reverses the chain; reversing it again keeps it counterclockwise
    mapped = shape.region(affine=(A, b), reverse=det < 0.0)
    got, _ = value_and_scale(mapped, A @ shape.center + b, f_pulled, n_xi, n_t)
    assert got == pytest.approx(abs(det) * ref, abs=1e-10 * abs(det) * scale)


@SETTINGS
@given(shape=regions, m=st.integers(0, 5), u=st.floats(0.0, 1.0))
def test_exact_at_min_orders(shape, m, u):
    f = lookup("p%d" % m)
    monomials = f.meta["monomials"]
    n_xi, n_t = shape.orders(m)
    x0 = shape.center if u < 0.5 else shape.exterior(u)
    got, scale = value_and_scale(shape.region(), x0, f.field, n_xi, n_t)
    if shape.polygon:
        exact = greens_poly(np.array(shape.pieces), monomials)
    else:
        exact = bezier_green(shape.pieces, monomials)
    assert got == pytest.approx(exact, abs=1e-11 * scale)

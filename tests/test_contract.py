"""The input contract as one table: one row per public parameter, and per CLI argument.

A row names a (callable, parameter), the reader of its values (``errors``'
five, or ``curves._check_t`` and ``sbc.real_values`` built on them), and one
bad value of each class that applies: no real number (text, a boolean, None,
``Decimal``, complex), no finite one (NaN, +-inf, an int beyond the float
range), the wrong shape or out of range.  Each case gives the exception and
its exact message, or a pattern where the message is Python's or numpy's.
Object parameters (region, loop, policy, spec, fields, curve items) are
duck-typed: their rows record what Python raises.  ``CubatureRule`` and
``Rule1D`` are built by the library, not read, and their rows list the gaps
(exception None: taken as it is).  ``SplitIntegrand.beta`` is read when used.
The walk test fails on a parameter without a row, and on a row of none.
"""

import argparse
import inspect
import json
import math
import re
import reprlib
import shlex
from decimal import Decimal

import numpy as np
import pytest

from conftest import KINDS, curve_chain
import sbcubature
from sbcubature import (Bezier, BoundaryLoop, CenterPolicy, CubatureRule, EggCurve,
                        EvaluationError, GeneralizedSB, HomogeneousField, ParametricCurve,
                        RationalBezier, Region, Rule1D, Segment, SingularSpec, SplitIntegrand,
                        cli, decompose, egg_domain, exprlang, gauss_jacobi_unit, gauss_legendre,
                        generate_rule, generate_singular_rule, hni_integrate, integrate,
                        integrate_singular, min_orders_curved, min_orders_polygon, polygon,
                        radial_exponent, resolve_center, select_alpha, t_transform_bounds,
                        testfns, tmvi, tmvi_eval_many)
from sbcubature.errors import InvalidArgumentError as Bad
from sbcubature.errors import NotFoundError
from sbcubature.exprlang import ParseError
from sbcubature.singular import GAUSS_JACOBI

# the entry points outside the top-level namespace that the README documents
ENTRY_POINTS = ("tmvi.evaluate_masked", "tmvi.lp_distance_many", "testfns.lookup",
                "testfns.xfem_integrands", "exprlang.parse", "exprlang.evaluate",
                "exprlang.compile_field", "Region.boundary_samples", "BoundaryLoop.samples",
                "CubatureRule.__call__") + tuple(
    "%s.%s" % (c, m) for c in ("Segment", "Bezier", "RationalBezier", "ParametricCurve", "EggCurve")
    for m in ("position", "velocity"))


def surface():
    """'callable.parameter' for every parameter of the public surface."""
    found = set()
    for name in dir(sbcubature):
        obj = getattr(sbcubature, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception type with no signature of its own
            continue
        found.update("%s.%s" % (name, p) for p in params)
    for path in ENTRY_POINTS:
        head, attr = path.split(".")
        params = inspect.signature(getattr(getattr(sbcubature, head), attr)).parameters
        found.update("%s.%s" % (path, p) for p in params if p != "self")
    return found


def cli_surface():
    """'cli <command> <dest>' for every argument and flag of the CLI, and 'cli command'."""
    found = {"cli command"}
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        found.update("cli %s %s" % (command, a.dest) for a in parser._actions
                     if not isinstance(a, argparse._HelpAction))
    return found


# ---------------------------------------------------------------------------
# the bad values of each class, and the cases each reader makes of them;
# a case is (id, value, exception type or None, message or pattern)

NOT_REAL = {"text": "1", "bool": True, "none": None, "decimal": Decimal("0.5"), "complex": 1j}
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
HUGE = 10**400  # an int beyond the float range
SHOWN = reprlib.repr


class Args(tuple):
    """A case value given to the row's calls as several arguments."""


def raising(message, exc=Bad, **values):
    """One case per keyword (its id, with - for _), each raising exc with message."""
    return [(k.replace("_", "-"), v, exc, message) for k, v in values.items()]


def accepted(**values):
    """Values the library takes as they are."""
    return raising(None, None, **values)


def entries(what, **values):
    """real_array's message for each (value, its first entry that is no real number)."""
    return [(k.replace("_", "-"), v, Bad, "%s must be real numbers, got %s" % (what, shown))
            for k, (v, shown) in values.items()]


def number(what, above=-math.inf, below=math.inf, out=(), none=None):
    """errors.real_number: no real number, no finite one, or out of (above, below)."""
    cases = [(k, v, Bad, "%s must be a real number, got %s" % (what, SHOWN(v)))
             for k, v in NOT_REAL.items()]
    cases += [(k, v, Bad, "%s must be a finite number in (%r, %r), got %s"
               % (what, above, below, SHOWN(v)))
              for k, v in [*NOT_FINITE.items(), ("huge", HUGE), *(("out-%r" % o, o) for o in out)]]
    if none:  # None says the option is absent
        cases[2] = ("none", None, Bad, none)
    return cases


def whole(what, lowest):
    """errors.whole_number: an int >= lowest; a float, even 2.0, is not one."""
    values = dict(NOT_REAL, decimal=Decimal(3), **NOT_FINITE, fraction=2.5, float=2.0,
                  low=lowest - 1)
    return [(k, v, Bad, "%s must be an integer >= %d, got %r" % (what, lowest, v))
            for k, v in values.items()]


RULE_SIZE = whole("rule size", 1)


def point(what):
    """errors.finite_point: two finite real numbers."""
    cases = [(k, (v, 0.5), Bad, "%s must be real numbers, got %s" % (what, SHOWN(v)))
             for k, v in [*NOT_REAL.items(), ("huge", HUGE)]]
    shapes = {**{k: (v, 0.5) for k, v in NOT_FINITE.items()},
              "scalar": 0.5, "one": (0.5,), "three": (0.5, 0.5, 0.5), "nested": [[0.5, 0.5]]}
    return cases + [(k, v, Bad, "%s must be two finite numbers, got %s" % (what, SHOWN(v)))
                    for k, v in shapes.items()]


def array(what, wrap=lambda v: v, finite=True):
    """errors.real_array, or finite_array: each entry a real number (and finite)."""
    cases = [(k, wrap(v), Bad, "%s must be real numbers, got %s" % (what, SHOWN(v)))
             for k, v in [*NOT_REAL.items(), ("huge", HUGE)]]
    if finite:
        cases += [(k, wrap(v), Bad, "%s must be finite, got %r" % (what, v))
                  for k, v in NOT_FINITE.items()]
    return cases


def nodes():
    """curves._check_t: real numbers, each in [0, 1] (1e-12 beyond is clipped)."""
    return (array("curve parameter", finite=False)
            + raising("curve parameter must lie in [0,1]", above=1.5, below=-0.5, above_2=2.0,
                      one_above=[0.5, 1.5], one_nan=[0.5, math.nan], **NOT_FINITE)
            + entries("curve parameter", text_list=(["0.5"], "'0.5'"),
                      bool_in_list=([0.25, False], "False"),
                      complex_array=(np.array([0.5 + 1j]), "(0.5+1j)")))


def field(n, nan_point=None):
    """sbc.real_values of a field's values at n points; booleans are 0 and 1."""
    shape = "field values have shape %s, expected (%d,) or ()"
    cases = [(k, lambda x, y, v=v: v, Bad, "field values must be real numbers, got %s" % SHOWN(v))
             for k, v in [*NOT_REAL.items(), ("huge", HUGE)] if k != "bool"]
    cases += entries(
        "field values", text_array=(lambda x, y: np.full(len(x), "3"), "'3'"),
        list_of_none=(lambda x, y: [None] * len(x), "None"),
        last_none=(lambda x, y: [1.0] * (len(x) - 1) + [None], "None"),
        decimals=(lambda x, y: [Decimal("0.5")] * len(x), "Decimal('0.5')"),
        text_in_a_list=(lambda x, y: [1.0] * (len(x) - 1) + ["3"], "'3'"))
    cases += [
        ("not-callable", 5, TypeError, "'int' object is not callable"),
        ("complex-array", lambda x, y: x + 1j * y, Bad,
         re.compile(r"^field values must be real numbers, got \(")),
        ("objects", lambda x, y: [object()] * len(x), Bad,
         re.compile(r"^field values must be real numbers, got <object objec")),
        ("column", lambda x, y: np.ones((len(x), 1)), Bad, shape % ((n, 1), n)),
        ("one", lambda x, y: np.array([1.0]), Bad, shape % ((1,), n)),
        ("rows", lambda x, y: np.ones((2, len(x))), Bad, shape % ((2, n), n)),
        ("bool", lambda x, y: x > 0.5, None, None)]
    if nan_point:
        cases.append(("nan", lambda x, y: np.nan, EvaluationError,
                      "integrand is not finite at (%r, %r)" % nan_point))
    return cases


def at_offset(n):
    """A message of CPython's parser, which differs between versions: only its offset is ours."""
    return re.compile(r"^(error: )?[^\n]* \(at offset %d\)\n?$" % n)


# an expression nested too deep for exprlang, or for CPython's parser first
DEEP = re.compile(r"^(error: )?(too many nested parentheses|expression nested deeper than 200|"
                  r"expression too large for the parser) \(at offset \d+\)\n?$")


def attr(obj, name):
    """Python's message for an object handed where one with attribute name was wanted."""
    return "'%s' object has no attribute '%s'" % (obj, name)


def region(name):
    """A region read by duck typing, through its attribute name."""
    return [("text", "sq", AttributeError, attr("str", name)),
            ("none", None, AttributeError, attr("NoneType", name))]


# ---------------------------------------------------------------------------
# the rows: "callable.parameter": (reader, calls, cases)

SQ = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
CW_SQ = [Segment((0, 0), (0, 1)), Segment((0, 1), (1, 1)), Segment((1, 1), (1, 0)),
         Segment((1, 0), (0, 0))]
EGG = egg_domain()
HEX = BoundaryLoop(testfns.lookup("convex_hexagon").make().curves)
CIRCLE = BoundaryLoop([ParametricCurve("cos(2*pi*t)", "sin(2*pi*t)")])
BEZIER = testfns.lookup("bezier").make()  # a Bezier curve closed by segments
MIXED = curve_chain(KINDS)  # library curves, a Segment subclass and a duck-typed arc
ARCS = curve_chain(("arc",) * 6)  # duck-typed arcs, none of which checks its own nodes
POLICY = CenterPolicy.VERTEX_AVERAGE
RULE = generate_rule(SQ, POLICY, 2, 2)
SPEC = SingularSpec((-1.0, -1.0), GAUSS_JACOBI)
# every radial strategy with every t-transform
SPECS = [SingularSpec((-1.0, -1.0), r, tt) for r in (None, GeneralizedSB(1.0), GAUSS_JACOBI)
         for tt in (None, "r1", "r2", "r3")]
NODES = np.array([0.25, 0.5])
CURVES = {"Segment": Segment((0, 0), (1, 0)), "Bezier": Bezier([(0, 0), (0.5, 1), (1, 0)]),
          "RationalBezier": RationalBezier([(0, 0), (1, 1), (0, 1)], [1, 0.5, 1]),
          "ParametricCurve": ParametricCurve("t", "t^2"), "EggCurve": EggCurve()}
TWO_D = "need at least two 2-D control points"
NOT_A_CURVE = "boundary item %d is not a curve with position and velocity methods: %s"
CLOCKWISE_LOOP = "boundary loop is clockwise; it must run counterclockwise"
NOT_HOMOGENEOUS = "field is not homogeneous of degree %s on random samples"
BOTH = "give boundary data g or a power p, not both"
BELOW_ONE = raising("p must be at least 1, got 0.5", below_one=0.5)


def ones(x, y):
    return np.ones_like(x)


def points():
    """tmvi evaluation points: errors.real_array, then one (2,) point or (N, 2)."""
    return (array("points", wrap=lambda v: [[0.1, v]], finite=False)
            + entries("points", complex_array=(np.array([[0.1 + 1j, 0.2]]), "(0.1+1j)"),
                      text_pair=([["0.1", "0.2"]], "'0.1'"), bool_first=([[True, 0.2]], "True"),
                      one_text_point=(("0.1", 0.2), "'0.1'"))
            + [(k, v, Bad, "points must be one (2,) point or an (N, 2) array, got shape %s"
                % (np.shape(v),))
               for k, v in (("column", [[0.1], [0.2]]), ("three", np.zeros((3, 3))), ("empty", []),
                            ("cube", np.zeros((2, 2, 2))), ("scalar", 0.1))])


OUTSIDE = raising("evaluation point is outside or on the boundary", outside=[(2.0, 0.0)],
                  one_outside=[(0.0, 0.0), (1.5, 0.0)])
F = SplitIntegrand(ones, 0.5)


ROWS = {
    # curves: their data is read by errors.finite_array
    "Segment.a": ("finite_array", [lambda v: Segment(v, (1, 0))],
                  array("segment endpoints", lambda v: (v, 0))
                  + entries("segment endpoints", bytes=((b"1", 0), "b'1'"),
                            object_array=(np.array(["0", 0], dtype=object), "'0'"),
                            bool_array=(np.array([False, False]), "False"),
                            numpy_bool=(np.array([0.0, np.bool_(True)], dtype=object),
                                        repr(np.bool_(True))),
                            complex_array=(np.array([0.0, 1.0 + 0j]), "0j"),
                            complex64=(np.array([0.0, np.complex64(1)], dtype=object),
                                       repr(np.complex64(1))))
                  + raising("segment endpoints must be 2-D points", three=(0, 0, 0), scalar=1)),
    "Segment.b": ("finite_array", [lambda v: Segment((0, 0), v)],
                  array("segment endpoints", lambda v: (1, v))
                  + entries("segment endpoints", bool_beside_a_number=((1, False), "False"))
                  + raising("segment endpoints must be 2-D points", scalar=1)),
    "Bezier.control_points": ("finite_array", [Bezier],
                              array("control points", lambda v: [(0, 0), (0.5, v), (1, 0)])
                              + entries("control points",
                                        text_pair=([(0, 0), ("0.5", "1"), (1, 0)], "'0.5'"),
                                        bool_array=(np.ones((3, 2), dtype=bool), "True"))
                              + raising(TWO_D, one_point=[(0, 0)], flat=[0, 1, 2],
                                        three_d=[(0, 0, 0), (1, 0, 0)])),
    "RationalBezier.control_points": (
        "finite_array", [lambda v: RationalBezier(v, [1, 1, 1])],
        array("control points", lambda v: [(0, 0), (0.5, v), (1, 0)])
        + entries("control points", bool_first=([(0, 0), (0.5, 1), (True, 0)], "True"))
        + raising(TWO_D, one_point=[(0, 0)], three_d=[(0, 0, 1), (1, 0, 1), (1, 1, 1)])),
    "RationalBezier.weights": (
        "finite_array", [lambda v: RationalBezier([(0, 0), (0.5, 1), (1, 0)], v)],
        array("rational weights", lambda v: [1, v, 1])
        + entries("rational weights", complex_sum=([1, 2 + 0j, 1], "(2+0j)"),
                  bool_array=(np.array([True, True, True]), "True"))
        + raising("one weight per control point", one=[1.0])
        + raising("rational weights must be positive", negative=[1, -1, 1], zero=[1, 0, 1])),
    "ParametricCurve.x_src": ("exprlang.parse", [lambda v: ParametricCurve(v, "t")], [
        ("number", 5, Bad, "expression must be a string, got 5"),
        ("none", None, Bad, "expression must be a string, got None"),
        ("x", "x + t", Bad, "parametric coordinate 'x + t' may only use t, found ['x']"),
        ("syntax", "t +", ParseError, at_offset(3))]),
    "ParametricCurve.y_src": ("exprlang.parse", [lambda v: ParametricCurve("t", v)], [
        ("list", ["t"], Bad, "expression must be a string, got ['t']"),
        ("xy", "x * y", Bad, "parametric coordinate 'x * y' may only use t, found ['x', 'y']")]),
    "EggCurve.a": ("real_number", [EggCurve], number("egg a") + [
        ("all-text", Args(("4", "5", "1")), Bad, "egg a must be a real number, got '4'")]),
    "EggCurve.b": ("real_number", [lambda *v: EggCurve(4.0, *v)],
                   number("egg b", above=1.0, out=(1, 0.5)) + [
        # (b, r): b must exceed |r|
        (k, Args(v), Bad, "egg b must be a finite number in (%r, inf), got %r"
         % (float(abs(v[1])), v[0]))
        for k, v in (("b-is-r", (1, 1)), ("b-is-minus-r", (1, -1)), ("b-below-r", (1, 2)),
                     ("zero", (0, 0)), ("negative", (-1, 0.5)))]),
    "EggCurve.r": ("real_number", [lambda v: EggCurve(4.0, 5.0, v)], number("egg r") + [
        ("above-b", 6.0, Bad, "egg b must be a finite number in (6.0, inf), got 5.0")]),
    "egg_domain.a": ("real_number", [egg_domain], number("egg a") + [
        ("all-text", Args(("4", "5", "1")), Bad, "egg a must be a real number, got '4'")]),
    "egg_domain.b": ("real_number", [lambda v: egg_domain(4.0, v)], number("egg b", above=1.0)),
    "egg_domain.r": ("real_number", [lambda v: egg_domain(4.0, 5.0, v)], number("egg r")),
    **{"%s.%s.t" % (c, m): ("_check_t", [getattr(curve, m)], nodes())
       for c, curve in CURVES.items() for m in ("position", "velocity")},
    # regions and loops: the curves are duck-typed
    "Region.curves": ("duck-typed", [Region], [
        ("number", 5, TypeError, "'int' object is not iterable"),
        ("empty", [], Bad, "region needs at least one curve"),
        ("text", [Segment((0, 0), (1, 0)), "x"], Bad, NOT_A_CURVE % (1, "'x'")),
        ("pair-of-points", [((0, 0), (1, 0))], Bad, NOT_A_CURVE % (0, "((0, 0), (1, 0))")),
        ("none", [Segment((0, 0), (1, 0)), Segment((1, 0), (0, 1)), None], Bad,
         NOT_A_CURVE % (2, "None")),
        ("velocity-not-callable",
         [type("HalfCurve", (), {"position": Segment.position, "velocity": 1.0})()], Bad,
         re.compile("^" + re.escape(NOT_A_CURVE % (0, "<")))),
        ("open", [Segment((0, 0), (1, 0)), Segment((1, 0.1), (0, 0))], Bad, re.compile(
            r"^boundary chain is not closed: max endpoint gap 1\.000e-01 exceeds 1\.\d{3}e-12$")),
        ("zero-length", [Segment((0, 0), (1, 0)), Segment((1, 0), (1, 0)),
                         Segment((1, 0), (0, 0))], Bad, "zero-length segment in boundary chain"),
        ("nan-curve", [Segment((0, 0), (1, 0)), ParametricCurve("1 - t", "t + sqrt(t - 1)"),
                       Segment((0, 1), (0, 0))], Bad, "curve 1 is not finite on [0, 1]"),
        ("clockwise", CW_SQ, None, None)]),  # results are signed
    "BoundaryLoop.curves": ("duck-typed", [BoundaryLoop], [
        ("number", 5, TypeError, "'int' object is not iterable"),
        ("text", ["x"], Bad, NOT_A_CURVE % (0, "'x'"))]
        + raising(CLOCKWISE_LOOP, clockwise=CW_SQ)),
    "polygon.vertices": ("finite_array", [polygon],
                         array("polygon vertices", lambda v: [(0, 0), (1, 0), (v, 1)])
                         + entries("polygon vertices",
                                   text_pairs=([("0", "0"), ("1", "0"), ("1", "1"), ("0", "1")], "'0'"),
                                   bool_first=([(False, 0), (1, 0), (1, 1), (0, 1)], "False"),
                                   ragged=([(0, 0), (1, 0, 0), (1, 1)], "(0, 0)"))
                         + raising("polygon vertices must be 2-D points, got shape (3,)",
                                   flat=[0, 1, 2])
                         + raising("polygon vertices must be 2-D points, got shape (4, 3)",
                                   three_coordinates=np.zeros((4, 3)))),
    "Region.boundary_samples.t": ("_check_t", [SQ.boundary_samples], nodes() + [
        (k, np.full(shape, 0.5), Bad,
         "nodes must be (n,) or one row per curve (4, n), got shape %s" % (shape,))
        for k, shape in (("three-rows", (3, 2)), ("five-rows", (5, 2)), ("cube", (4, 2, 1)))]),
    "BoundaryLoop.samples.n_t": ("whole_number", [EGG.samples], RULE_SIZE),
    "decompose.region": ("duck-typed", [lambda v: decompose(v, (0, 0), NODES)],
                         region("_boundary")),
    "decompose.x0": ("finite_point", [lambda v: decompose(SQ, v, NODES)],
                     point("center") + entries("center", bool_second=((0.5, True), "True"),
                                               complex_array=(np.array([0.5, 0.5 + 0j]),
                                                              "(0.5+0j)"))),
    # a callable value gives the node rows for a chain of m curves; no curve of
    # ARCS checks its nodes, so decompose must check them for the chain
    "decompose.t": ("_check_t", [lambda v, r=r: decompose(r, (0.5, 0.5),
                                                          v(len(r.curves)) if callable(v) else v)
                                 for r in (SQ, EGG, BEZIER, MIXED, ARCS)],
                    nodes() + [
        (k, np.full(shape, 0.5), Bad, re.compile(
            r"^nodes must be \(n,\) or one row per curve \(\d+, n\), got shape %s$"
            % re.escape(str(shape))))
        for k, shape in (("three-rows", (3, 2)), ("five-rows", (5, 2)), ("cube", (4, 2, 1)))]
                    + raising("curve parameter must lie in [0,1]",
                              row_above=lambda m: [[0.5]] * (m - 1) + [[1.5]],
                              nan_row=lambda m: [[np.nan, 0.5]] * m)
                    + entries("curve parameter", bool_second=([0.25, True], "True"),
                              complex_zero=(np.array([0.5 + 0j]), "(0.5+0j)"))),
    # rules
    "gauss_legendre.n": ("whole_number", [gauss_legendre], RULE_SIZE),
    "gauss_jacobi_unit.n": ("whole_number", [lambda v: gauss_jacobi_unit(v, 0.5)], RULE_SIZE),
    "gauss_jacobi_unit.eta": ("real_number", [lambda v: gauss_jacobi_unit(4, v)],
                              number("weight exponent", above=-1.0, out=(-1.0, -2))),
    "Rule1D.nodes": ("built by the library, not read", [lambda v: Rule1D(v, np.array([1.0]))],
                     accepted(nan=np.array([np.nan]))),
    "Rule1D.weights": ("built by the library, not read", [lambda v: Rule1D(np.array([0.5]), v)],
                       accepted(text="w")),
    "CubatureRule.points": ("built by the library, not read",
                            [lambda v: CubatureRule(v, RULE.weights[:1], RULE.curve_index[:1])(ones)],
                            [("text", "p", TypeError, re.compile("^string indices must be integers"))]),
    "CubatureRule.weights": ("built by the library, not read",
                             [lambda v: CubatureRule(np.zeros((2, 2)), v, np.array([0]))(ones)],
                             [("too-few", np.array([1.0]), ValueError, re.compile("."))]),
    "CubatureRule.curve_index": ("built by the library, not read",
                                 [lambda v: CubatureRule(RULE.points, RULE.weights, v)(ones)],
                                 accepted(text="i")),
    "CubatureRule.__call__.f": ("real_values", [RULE], field(len(RULE), tuple(RULE.points[0].tolist()))),
    "EvaluationError.message": ("stored, not read", [EvaluationError], accepted(none=None)),
    "EvaluationError.point": ("stored, not read", [lambda v: EvaluationError("m", v)],
                              accepted(text="p")),
    # centres
    "CenterPolicy.strategy": ("in-line check", [CenterPolicy], [
        ("unknown", "centroid", Bad, "unknown center strategy 'centroid'"),
        ("list", ["origin"], Bad, "unknown center strategy ['origin']"),
        ("none", None, Bad, "unknown center strategy None")] + [
        # (strategy, index, point): a field that the strategy does not take
        (k, Args(v), Bad, "center strategy %r takes no %s" % (v[0], field))
        for k, v, field in (("origin-with-point", ("origin", None, (3, 4)), "point"),
                            ("vertex-average-with-index", ("vertex_average", 0), "index"),
                            ("vertex-with-point", ("vertex", 1, (3, 4)), "point"),
                            ("custom-with-index", ("custom", 1, (3, 4)), "index"))]),
    "CenterPolicy.index": ("real_number", [lambda v: CenterPolicy("vertex", index=v),
                                           CenterPolicy.vertex],
                           number("vertex index", none="center strategy 'vertex' needs index")
                           + [("numpy-bool", np.bool_(True), Bad,
                               "vertex index must be a real number, got %r" % np.bool_(True))]
                           + [(k, v, Bad, "vertex index must be an integer, got %r" % v)
                              for k, v in (("fraction", 1.7), ("negative-fraction", -0.5))]),
    "CenterPolicy.point": ("finite_point", [lambda v: CenterPolicy("custom", point=v),
                                            CenterPolicy.custom],
                           point("custom center point")[:-1]
                           + raising("center strategy 'custom' needs point", absent=None)
                           + entries("custom center point", bool_beside_a_number=((0.5, False), "False"),
                                     bool_array=(np.array([True, True]), "True"),
                                     complex_array=(np.array([0.5, 0.25 + 0j]), "(0.5+0j)"),
                                     text_word=("ab", "'ab'"))),
    "resolve_center.region": ("duck-typed", [lambda v: resolve_center(v, POLICY)],
                              region("vertices")),
    "resolve_center.policy": ("duck-typed", [lambda v: resolve_center(SQ, v)], [
        ("text", "origin", AttributeError, attr("str", "strategy"))] + [
        (k, CenterPolicy.vertex(i), Bad, "vertex index %d out of range for 4 curves" % i)
        for k, i in (("vertex-range", 4), ("vertex-negative", -1))]),
    # regular rules
    "generate_rule.region": ("duck-typed", [lambda v: generate_rule(v, POLICY, 2, 2)],
                             region("vertices")),
    "generate_rule.policy": ("duck-typed", [lambda v: generate_rule(SQ, v, 2, 2)], [
        ("text", "origin", AttributeError, attr("str", "strategy")),
        ("vertex-range", CenterPolicy.vertex(4), Bad, "vertex index 4 out of range for 4 curves")]),
    "generate_rule.n_xi": ("whole_number", [lambda v: generate_rule(SQ, POLICY, v, 2)], RULE_SIZE),
    "generate_rule.n_t": ("whole_number", [lambda v: generate_rule(SQ, POLICY, 2, v)], RULE_SIZE),
    "integrate.region": ("duck-typed", [lambda v: integrate(v, POLICY, ones, 2, 2)],
                         region("vertices")),
    "integrate.policy": ("duck-typed", [lambda v: integrate(SQ, v, ones, 2, 2)],
                         [("text", "origin", AttributeError, attr("str", "strategy"))]),
    "integrate.f": ("real_values", [lambda v: integrate(SQ, POLICY, v, 2, 2)],
                    field(len(RULE), tuple(RULE.points[0].tolist()))),
    "integrate.n_xi": ("whole_number", [lambda v: integrate(SQ, POLICY, ones, v, 2)], RULE_SIZE),
    "integrate.n_t": ("whole_number", [lambda v: integrate(SQ, POLICY, ones, 2, v)], RULE_SIZE),
    "min_orders_polygon.p": ("whole_number", [min_orders_polygon], whole("polynomial degree", 0)),
    "min_orders_curved.m": ("whole_number", [lambda v: min_orders_curved(v, 3)],
                            whole("integrand degree", 0)),
    "min_orders_curved.p": ("whole_number", [lambda v: min_orders_curved(2, v)],
                            whole("curve degree", 1)),
    # HNI
    "HomogeneousField.h": ("real_values", [lambda h, q=1.0: HomogeneousField(h, q)],
                           [c for c in field(16) if c[0] not in ("column", "rows", "one", "bool")] + [
        ("impostor", lambda x, y: x + 1.0, Bad, NOT_HOMOGENEOUS % 1),
        # spot-checked in every quadrant, where both sides are finite
        ("right-half-plane", Args((lambda x, y: np.maximum(x, 0.0) ** 2 + np.minimum(x, 0.0) ** 3, 2)),
         Bad, NOT_HOMOGENEOUS % 2),
        ("nan-left-of-one", Args((lambda x, y: np.sqrt(x - 1.0) + 0.0 * y, 0.5)), Bad,
         NOT_HOMOGENEOUS % 0.5),
        ("undefined-left", Args((lambda x, y: np.asarray(x, dtype=float) ** 0.5 * y, 1.5)),
         None, None)]),
    "HomogeneousField.q": ("real_number", [lambda v: HomogeneousField(ones, v)],
                           number("homogeneity degree", above=-2.0, out=(-2.0, -2, -3))),
    "hni_integrate.region": ("duck-typed", [lambda v: hni_integrate(v, HomogeneousField(ones, 0), 2)],
                             region("_boundary")),
    "hni_integrate.hf": ("duck-typed", [lambda v: hni_integrate(SQ, v, 2)],
                         [("field", ones, AttributeError, attr("function", "q"))]),
    "hni_integrate.n_t": ("whole_number", [lambda v: hni_integrate(SQ, HomogeneousField(ones, 0), v)],
                          RULE_SIZE),
    # singular rules
    "GeneralizedSB.alpha": ("real_number", [GeneralizedSB],
                            number("generalized-SB alpha", above=0.0, out=(0, 0.0, -1.0))
                            + [("numpy-bool", np.bool_(True), Bad,
                                "generalized-SB alpha must be a real number, got %r" % np.bool_(True))]),
    "SingularSpec.xc": ("finite_point", [SingularSpec], point("singularity xc")
                        + raising("singularity xc must be two finite numbers, got %s"
                                  % SHOWN(np.zeros((2, 2))), matrix=np.zeros((2, 2)))
                        + entries("singularity xc", bool_array=(np.array([True, False]), "True"),
                                  complex_array=(np.zeros(2, dtype=complex), "0j"),
                                  numeric_text=(("0.3", "0.3"), "'0.3'"),
                                  bool_beside_a_number=((0.5, False), "False"),
                                  none_alone=(None, "None"))),
    "SingularSpec.radial": ("in-line check", [lambda v: SingularSpec((0.1, 0.1), v)], [
        (k, v, Bad, "unknown radial strategy %r" % (v,))
        for k, v in (("name", "gauss"), ("number", 2.0), ("array", np.array(["gauss-jacobi"])))]),
    "SingularSpec.t_transform": ("in-line check", [lambda v: SingularSpec((0.1, 0.1), None, v)], [
        (k, v, Bad, "unknown t-transform %r" % (v,))
        for k, v in (("name", "r9"), ("case", "R1"), ("number", 1), ("list", ["r1"]))]),
    "SplitIntegrand.g": ("duck-typed, read when used",
                         [lambda v: integrate_singular(SQ, SplitIntegrand(v, 0.5), SPEC, 2, 2)],
                         [("number", 5, TypeError, "'int' object is not callable")]),
    "SplitIntegrand.beta": ("real_number, read when used",
                            [lambda v, s=s: integrate_singular(SQ, SplitIntegrand(ones, v), s, 4, 4)
                             for s in SPECS],
                            number("beta", 0.0, 2.0, out=(0, 2.0, 2.5, 3.0, -HUGE))),
    "generate_singular_rule.beta": ("real_number",
                                    [lambda v, s=s: generate_singular_rule(SQ, s, v, 4, 4)
                                     for s in SPECS],
                                    number("beta", 0.0, 2.0, out=(0, 2.0, 2.5, 3.0, -HUGE))),
    "select_alpha.beta": ("real_number", [select_alpha], number("beta", 0.0, 2.0, out=(2.0,)) + [
        ("irrational", math.sqrt(2.0), Bad, "beta 1.4142135623730951 is not a small-denominator "
                                            "rational; use the Gauss-Jacobi radial strategy instead")]),
    "radial_exponent.beta": ("real_number", [radial_exponent], number("beta", 0.0, 2.0, out=(3.0,))),
    "radial_exponent.alpha": ("real_number", [lambda v: radial_exponent(0.5, v)],
                              number("alpha", above=0.0)),
    "generate_singular_rule.region": ("duck-typed",
                                      [lambda v: generate_singular_rule(v, SPEC, 0.5, 2, 2)],
                                      region("_boundary")),
    "generate_singular_rule.spec": ("duck-typed", [lambda v: generate_singular_rule(SQ, v, 0.5, 2, 2)],
                                    [("text", "spec", AttributeError, attr("str", "xc"))]),
    "generate_singular_rule.n_xi": ("whole_number",
                                    [lambda v: generate_singular_rule(SQ, SPEC, 0.5, v, 2)], RULE_SIZE),
    "generate_singular_rule.n_t": ("whole_number",
                                   [lambda v: generate_singular_rule(SQ, SPEC, 0.5, 2, v)], RULE_SIZE),
    "integrate_singular.region": ("duck-typed", [lambda v: integrate_singular(
        v, F, SingularSpec((0.4, 0.5), GAUSS_JACOBI, "r1"), 2, 2)], [
        ("text", "sq", AttributeError, attr("str", "_edges")),
        ("curved-with-t-transform", BEZIER, Bad, "t-transforms require segment edges")]),
    "integrate_singular.f": ("duck-typed", [lambda v: integrate_singular(SQ, v, SPEC, 2, 2)],
                             [("field", ones, AttributeError, attr("function", "beta"))]),
    "integrate_singular.spec": ("duck-typed", [lambda v: integrate_singular(SQ, F, v, 2, 2)],
                                [("text", "spec", AttributeError, attr("str", "xc"))]),
    "integrate_singular.n_xi": ("whole_number", [lambda v: integrate_singular(SQ, F, SPEC, v, 2)],
                                RULE_SIZE),
    "integrate_singular.n_t": ("whole_number", [lambda v: integrate_singular(SQ, F, SPEC, 2, v)],
                               RULE_SIZE),
    **{"t_transform_bounds.%s" % arg: (
        "finite_array", [lambda v, i=i, w=w: t_transform_bounds(
            *(v if k == i else b for k, b in enumerate((1.0, -1.0, 1.0))), w)
            for w in ("r1", "r2", "r3")],
        array(arg) + raising("%s must be finite, got nan" % arg, nan_in_array=np.array([1.0, np.nan]))
        + raising("edge line passes through the singularity", zero=0.0) * (arg == "ell"))
       for i, arg in enumerate(("ell", "tau1", "tau2"))},
    "t_transform_bounds.which": ("in-line check", [lambda v: t_transform_bounds(1.0, -1.0, 1.0, v)], [
        (k, v, Bad, "unknown t-transform %r" % (v,)) for k, v in (("name", "r9"), ("none", None))]),
    # TMVI and distance fields: the loop is duck-typed, and a Region has no samples
    **{name + ".loop": ("duck-typed", [call],
                        [("region", SQ, AttributeError, attr("Region", "samples"))])
       for name, call in (
           ("tmvi_eval_many", lambda v: tmvi_eval_many(v, ones, [(0.5, 0.5)], 8)),
           ("tmvi.lp_distance_many", lambda v: tmvi.lp_distance_many(v, [(0.5, 0.5)], 2.0, 8)),
           ("tmvi.evaluate_masked", lambda v: tmvi.evaluate_masked(v, [(0.5, 0.5)], 8, p=2.0)))},
    "tmvi_eval_many.g": ("real_values", [lambda v: tmvi_eval_many(HEX, v, [[0.1, 0.2]], 128)],
                         field(768, tuple(HEX.samples(128)[0][0].tolist()))),
    "tmvi_eval_many.x": ("real_array", [lambda v, loop=loop: tmvi_eval_many(loop, ones, v)
                                        for loop in (EGG, CIRCLE)], points() + OUTSIDE),
    "tmvi_eval_many.n_t": ("whole_number", [lambda v: tmvi_eval_many(EGG, ones, [(0, 0)], v)],
                           RULE_SIZE),
    "tmvi.lp_distance_many.x": ("real_array", [lambda v, loop=loop: tmvi.lp_distance_many(loop, v, 2.0)
                                               for loop in (EGG, CIRCLE)], points() + OUTSIDE),
    "tmvi.lp_distance_many.p": ("real_number", [lambda v: tmvi.lp_distance_many(EGG, [(0, 0)], v, 16)],
                                number("p", none=BOTH) + BELOW_ONE),
    "tmvi.lp_distance_many.n_t": ("whole_number",
                                  [lambda v: tmvi.lp_distance_many(EGG, [(0, 0)], 2.0, v)], RULE_SIZE),
    "tmvi.evaluate_masked.x": ("real_array", [lambda v: tmvi.evaluate_masked(EGG, v, p=2.0),
                                              lambda v: tmvi.evaluate_masked(EGG, v, g=ones)], points()),
    "tmvi.evaluate_masked.n_t": ("whole_number",
                                 [lambda v: tmvi.evaluate_masked(EGG, [(0, 0)], v, p=2.0)], RULE_SIZE),
    "tmvi.evaluate_masked.g": ("real_values",
                               [lambda g, p=None: tmvi.evaluate_masked(HEX, [[0.1, 0.2]], 128, g=g,
                                                                       p=p)],
                               field(768, tuple(HEX.samples(128)[0][0].tolist()))
                               + raising(BOTH, with_p=Args((ones, 10.0)))),
    "tmvi.evaluate_masked.p": ("real_number", [lambda v: tmvi.evaluate_masked(EGG, [(0, 0)], 16, p=v)],
                               number("p", none=BOTH) + BELOW_ONE),
    # test functions and expressions
    "testfns.lookup.name": ("registry", [testfns.lookup], [
        ("unknown", "nope", NotFoundError,
         re.compile(r"^\"unknown name 'nope'; functions: .*\bfF1\b.*; geometries: ")),
        ("none", None, NotFoundError, re.compile(r"^'unknown name None; "))]),
    "testfns.xfem_integrands.element": ("registry", [lambda v: testfns.xfem_integrands(v, 0.01)], [
        ("unknown", "Omega3", NotFoundError, "\"unknown element 'Omega3'\"")]),
    "testfns.xfem_integrands.dx": ("real_number", [lambda v: testfns.xfem_integrands("Omega2", v)],
                                   number("dx") + [(k, v, Bad, "dx must be a real number, got %r" % (v,))
                                                   for k, v in (("word", "abc"), ("list", [0.1]))]),
    "exprlang.parse.src": ("exprlang.parse", [exprlang.parse], [
        ("list", ["x"], Bad, "expression must be a string, got ['x']"),
        ("none", None, Bad, "expression must be a string, got None")] + [
        # the offset indexes the source, past the ^ -> ** widening and leading blanks
        (k, src, ParseError, "%s (at offset %d)" % (message, at) if message else at_offset(at))
        for k, src, message, at in (
            ("syntax", "x +", None, 3), ("unclosed", "(x + 1", None, 0),
            ("trailing-blanks", "x^2 +  ", None, 7),
            ("unknown-function", "bogus(1)", "unknown function 'bogus'", 0),
            ("unknown-identifier", "q + 1", "unknown identifier 'q'", 0),
            ("past-widening", "x^2 + q", "unknown identifier 'q'", 6),
            ("past-blanks", "  x^2 + q", "unknown identifier 'q'", 8),
            ("arity", "sin(1, 2)", "sin takes 1 argument(s), got 2", 0),
            ("arity-past-widening", "x^2 + sin(y, t)", "sin takes 1 argument(s), got 2", 6),
            ("arity-past-blanks", "  x^2 + sin(y, t)", "sin takes 1 argument(s), got 2", 8),
            ("foreign", "x @ y", "unexpected '@'", 2), ("foreign-first", "1 @ x", "unexpected '@'", 2),
            ("python-power", "x ** 2", "unexpected '**'", 2),
            # CPython's parser gives up on this nesting before exprlang counts its depth
            ("beyond-the-parser", "-" * 100000 + "x", "expression too large for the parser", 100001))]
        + [(k, src, ParseError, DEEP) for k, src in (
            ("parens", "(" * 1200 + "x" + ")" * 1200), ("sum", "+".join(["x"] * 1200)),
            ("minus", "-" * 1200 + "x"), ("power", "^".join(["x"] * 1200)),
            ("calls", "sin(" * 1200 + "x" + ")" * 1200))]),
    "exprlang.evaluate.expr": ("in-line check", [lambda v: exprlang.evaluate(v, {"x": 1.0})], [
        ("text", "x", Bad, "expr must be an Expression from parse, got 'x'"),
        ("none", None, Bad, "expr must be an Expression from parse, got None")]),
    "exprlang.evaluate.bindings": ("in-line check",
                                   [lambda v: exprlang.evaluate(exprlang.parse("x + y"), v)], [
        ("missing", {"x": 1.0}, Bad, "missing bindings for ['y']"),
        ("none", None, Bad, "bindings must be a mapping of variable names to values, got None"),
        ("pairs", [("x", 1.0), ("y", 2.0)], Bad,
         "bindings must be a mapping of variable names to values, got [('x', 1.0), ('y', 2.0)]")]),
    "exprlang.compile_field.src": ("exprlang.parse", [exprlang.compile_field], [
        ("t", "x + t", Bad, "field expression may only use x and y, found ['t']"),
        ("number", 5, Bad, "expression must be a string, got 5"),
        ("syntax", "x +", ParseError, at_offset(3))]),
}


CASES = [pytest.param(calls, value, exc, message, id="%s-%s" % (name, case))
         for name, (_, calls, cases) in ROWS.items() for case, value, exc, message in cases]


def check(message, want):
    if isinstance(want, str):
        assert message == want
    else:
        assert want.search(message), message


@pytest.mark.parametrize("calls, value, exc, message", CASES)
def test_a_bad_value_raises_as_its_row_says(calls, value, exc, message):
    for call in calls:
        if exc is None:  # a value the library takes as it is
            call(*value) if isinstance(value, Args) else call(value)
            continue
        with pytest.raises(exc) as e, np.errstate(invalid="ignore"):
            call(*value) if isinstance(value, Args) else call(value)
        assert type(e.value) is exc
        check(str(e.value), message)



# ---------------------------------------------------------------------------
# the CLI: every argument and flag, run in-process, exits 2 and names it

SQUARE = {"curves": [{"type": "segment", "from": a, "to": b} for a, b in
                     (([0, 0], [1, 0]), ([1, 0], [1, 1]), ([1, 1], [0, 1]), ([0, 1], [0, 0]))]}
CLOCKWISE = {"curves": [{"type": "segment", "from": c["to"], "to": c["from"]}
                        for c in SQUARE["curves"][::-1]]}


def x0(**policy):
    return dict(SQUARE, x0=policy)


def first(curve_type, **curve):
    """The square with its first edge replaced by a curve of this type."""
    return {"curves": [dict(curve, type=curve_type)] + SQUARE["curves"][1:]}


def usage(command, message):
    """argparse's own error: the usage, then the message naming the argument."""
    return re.compile(r"\n%s: error: %s" % (re.escape(("sbcubature " + command).strip()), message))


INT = r"argument %s: invalid int value: 'x'\n$"
FLOAT = r"argument %s: invalid float value: 'x'\n$"
REGULAR = "integrate with neither --hni nor --beta (regular rule) does not take "
HNI = "integrate with --hni (HNI, center at the origin) "
SIZE = "rule size must be an integer >= 1, got 0"
NO_PREFIX = "function spec must start with 'expr:' or 'builtin:'"
CUSTOM = "custom center point must be two finite numbers, got %s"
NOT_REAL_CUSTOM = "custom center point must be real numbers, got "
INDEX = "vertex index must be "
GRID = "--grid must be an integer >= 1, got %d"
T3 = "integrate builtin:T3 builtin:fS1 8 8 "
SING = "integrate builtin:T3 builtin:fS1 2 8 --beta 0.5 "
BETA = "integrate builtin:T3 expr:1 16 32 --xc 0.5 -0.1 --beta %s --t-transform %s"
QUAD = "integrate builtin:convex_quad expr:x^2*y %s 4 --hni %s"
RULE_T3 = "rule builtin:T3 2 2 --center "
GSB = "generalized-SB alpha must be a finite number in (0.0, inf), got "
CONVERGE = "convergence builtin:T1 expr:1 1 2 "
CENTROID = "unknown center strategy 'centroid'"
FINITE = "%s must be a finite number in (%s, inf), got %s"
# the edge is NaN only for |t - 0.5| < 0.001, which Region's 64 samples miss and
# a 5-node rule does not; atan2(0, 0) has no derivative, so c'(0.5) is NaN
NAN_AT_NODE = first("parametric", x="t + 0*sqrt(abs(t-0.5)-0.001)", y="0")
NAN_VELOCITY = first("parametric", x="t + 0*atan2(t-0.5, t-0.5)", y="0")
VELOCITY = "curve 0 has a non-finite velocity at a node in (0, 1)"
NOT_FINITE_CURVE = "curve 0 is not finite on [0, 1]"

# "cli <command> <dest>": [(case, argv, stderr, doc)]; {} in argv is a file holding
# doc, and stderr is "error: " + the message and a newline, or a pattern
CLI_ROWS = {
    "cli command": [("unknown", "frobnicate",
                     usage("", "argument command: invalid choice: 'frobnicate'"))],
    "cli integrate domain": [
        ("missing-file", "integrate /no/such/file.json expr:1 1 1",
         "[Errno 2] No such file or directory: '/no/such/file.json'"),
        ("unknown-key", "integrate {} expr:1 1 1", "domain needs keys ['curves', '[x0]'], got "
         "['curves', 'extra']", dict(SQUARE, extra=1)),
        ("no-curves", "integrate {} expr:1 2 2", "region needs at least one curve", {"curves": []}),
        ("curves-not-a-list", "integrate {} expr:1 2 2", "domain 'curves' must be a list",
         {"curves": {"type": "segment"}}),
        ("file-not-an-object", "integrate {} expr:1 2 2", "domain must be a JSON object, got %r"
         % [SQUARE], [SQUARE]),
        ("function-as-domain", "integrate builtin:fF1 expr:1 2 2", "'builtin:fF1' is not a geometry"),
        ("unknown-builtin", "integrate builtin:nope expr:1 2 2",
         re.compile(r"^error: \"unknown name 'nope'; functions: ")),
        ("not-json", "integrate {} expr:1 2 2", re.compile(r"^error: Expecting property name"), "{"),
        ("nan-at-node", "integrate {} expr:1 3 5", "curve 0 is not finite on [0, 1]", NAN_AT_NODE),
        ("nan-velocity", "integrate {} expr:1 3 5", VELOCITY, NAN_VELOCITY)],
    "cli integrate function": [
        ("syntax", "integrate builtin:T1 'expr:x +' 1 1", at_offset(3)),
        ("without-prefix", "integrate builtin:T3 x^2 2 2", NO_PREFIX),
        ("geometry-as-function", "integrate builtin:T3 builtin:T3 2 2",
         "'builtin:T3' is not a function"),
        ("not-homogeneous", "integrate builtin:circle 'expr:max(x,0)^2+min(x,0)^3' 1 16 --hni 2",
         "field is not homogeneous of degree 2 on random samples")] + [
        (k, "integrate builtin:T1 expr:%s 2 2" % src, DEEP)
        for k, src in (("parens", "(" * 1200 + "x" + ")" * 1200), ("sum", "+".join(["x"] * 1200)),
                       ("minus", "-" * 1200 + "x"))],
    "cli integrate n_xi": [
        ("text", "integrate builtin:T3 expr:1 x 2", usage("integrate", INT % "n_xi")),
        ("zero", "integrate builtin:T3 expr:1 0 2", SIZE),
        ("hni-zero", QUAD % (0, 3), HNI + "takes n_xi 1, got 0"),
        ("hni-seven", QUAD % (7, 3), HNI + "takes n_xi 1, got 7")],
    "cli integrate n_t": [("text", "integrate builtin:T3 expr:1 2 x", usage("integrate", INT % "n_t")),
                          ("zero", "integrate builtin:T3 expr:1 2 0", SIZE)],
    "cli integrate center": [
        ("unknown", "integrate builtin:T3 expr:1 2 2 --center centroid", CENTROID),
        ("with-beta", T3 + "--beta 0.5 --center origin",
         "integrate with --beta (singular rule, center at --xc) does not take --center"),
        ("with-hni", T3 + "--hni 0 --center origin", HNI + "does not take --center")],
    "cli integrate beta": [
        ("text", T3 + "--beta x", usage("integrate", FLOAT % "--beta")),
        ("with-hni", T3 + "--hni 0 --beta 0.5", HNI + "does not take --beta")] + [
        ("%s-%s" % (b, tt), BETA % (b, tt),
         "beta must be a finite number in (0.0, 2.0), got %r" % float(b))
        for b, tt in (("2.5", "r2"), ("2", "r2"), ("3", "r2"), ("3", "r3"))],
    "cli integrate xc": [
        ("one-value", SING + "--xc 1", usage("integrate", "argument --xc: expected 2 arguments")),
        ("nan", "integrate builtin:T3 expr:1 2 2 --beta 0.5 --xc nan 0",
         "singularity xc must be two finite numbers, got [nan, 0.0]"),
        ("inf", SING + "--xc 0 inf", "singularity xc must be two finite numbers, got [0.0, inf]"),
        ("regular", T3 + "--xc 0 0 --t-transform r1", REGULAR + "--xc"),
        ("with-hni", T3 + "--hni 0 --xc 0 0", HNI + "does not take --xc")],
    "cli integrate radial": [
        ("unknown", SING + "--radial gauss", "unknown radial strategy 'gauss'"),
        ("gsb-text", SING + "--radial gsb:x", "gsb alpha must be a number, got 'x'"),
        ("gsb-nan", SING + "--radial gsb:nan", GSB + "nan"),
        ("gsb-inf", SING + "--radial gsb:inf", GSB + "inf"),
        ("gsb-negative", SING + "--radial gsb:-1", GSB + "-1.0"),
        ("regular", T3 + "--radial jacobi", REGULAR + "--radial")],
    "cli integrate t_transform": [
        ("unknown", T3 + "--beta 0.5 --t-transform r9",
         usage("integrate", "argument --t-transform: invalid choice: 'r9'")),
        ("regular", T3 + "--t-transform r1", REGULAR + "--t-transform"),
        ("regular-none", T3 + "--t-transform none", REGULAR + "--t-transform")],
    "cli integrate hni": [
        ("text", T3 + "--hni x", usage("integrate", FLOAT % "--hni")),
        ("inf", QUAD % (1, "inf"), FINITE % ("homogeneity degree", -2.0, "inf")),
        ("minus-two", QUAD % (1, -2), FINITE % ("homogeneity degree", -2.0, -2.0))],
    "cli rule domain": [(k, "rule {} 2 2", message, doc) for k, doc, message in (
        ("segment-without-to", first("segment", **{"from": [0, 0]}),
         "segment needs keys ['from', 'to', 'type'], got ['from', 'type']"),
        ("curve-as-list", {"curves": [["segment", [0, 0], [1, 0]]] + SQUARE["curves"][1:]},
         "curve needs a known type, got ['segment', [0, 0], [1, 0]]"),
        ("segment-from-string", first("segment", **{"from": "ab", "to": [1, 0]}),
         "segment endpoints must be real numbers, got 'ab'"),
        ("segment-from-numeric-text", first("segment", **{"from": ["0", "0"], "to": [1, 0]}),
         "segment endpoints must be real numbers, got '0'"),
        ("segment-from-bool", first("segment", **{"from": [False, False], "to": [1, 0]}),
         "segment endpoints must be real numbers, got False"),
        ("segment-to-bool-beside-a-number", first("segment", **{"from": [0, 0], "to": [True, 0]}),
         "segment endpoints must be real numbers, got True"),
        ("segment-nan", first("segment", **{"from": [0, math.nan], "to": [1, 0]}),
         "segment endpoints must be finite, got nan"),
        ("bezier-non-number", first("bezier", control_points=[[0, 0], [1, "x"], [1, 0]]),
         "control points must be real numbers, got 'x'"),
        ("rational-weight-non-number", first("rational_bezier", weights=[1, "w", 1],
                                             control_points=[[0, 0], [0.5, 0], [1, 0]]),
         "rational weights must be real numbers, got 'w'"),
        ("parametric-x-number", first("parametric", x=5, y="0"), "expression must be a string, got 5"),
        ("parametric-nan", first("parametric", x="t", y="sqrt(t-1)+t"), NOT_FINITE_CURVE),
        ("x0-vertex-without-index", x0(strategy="vertex"), "center strategy 'vertex' needs index"),
        ("x0-vertex-fraction", x0(strategy="vertex", index=1.7), INDEX + "an integer, got 1.7"),
        ("x0-vertex-negative-fraction", x0(strategy="vertex", index=-0.5),
         INDEX + "an integer, got -0.5"),
        ("x0-vertex-bool", x0(strategy="vertex", index=True), INDEX + "a real number, got True"),
        ("x0-vertex-string", x0(strategy="vertex", index="2"), INDEX + "a real number, got '2'"),
        ("x0-origin-with-point", x0(strategy="origin", point=[1, 2]),
         "center strategy 'origin' takes no point"),
        ("x0-vertex-average-with-index", x0(strategy="vertex_average", index=0),
         "center strategy 'vertex_average' takes no index"),
        ("x0-vertex-with-point", x0(strategy="vertex", index=1, point=[1, 2]),
         "center strategy 'vertex' takes no point"),
        ("x0-custom-with-index", x0(strategy="custom", index=1, point=[1, 2]),
         "center strategy 'custom' takes no index"),
        ("x0-custom-one-coordinate", x0(strategy="custom", point=[1.0]), CUSTOM % "[1.0]"),
        ("x0-custom-three-coordinates", x0(strategy="custom", point=[0.5, 0.5, 9.0]),
         CUSTOM % "[0.5, 0.5, 9.0]"),
        ("x0-custom-text", x0(strategy="custom", point="ab"), NOT_REAL_CUSTOM + "'ab'"),
        ("x0-custom-numeric-text", x0(strategy="custom", point=["0.5", "1"]), NOT_REAL_CUSTOM + "'0.5'"),
        ("x0-custom-bool", x0(strategy="custom", point=[True, False]), NOT_REAL_CUSTOM + "True"),
        ("x0-strategy-list", x0(strategy=["origin"]), "unknown center strategy ['origin']"))],
    "cli rule n_xi": [("text", "rule builtin:T3 x 2", usage("rule", INT % "n_xi")),
                      ("zero", "rule builtin:T3 0 2", SIZE)],
    "cli rule n_t": [("text", "rule builtin:T3 2 x", usage("rule", INT % "n_t")),
                     ("zero", "rule builtin:T3 2 0", SIZE)],
    "cli rule center": [(k, RULE_T3 + center, message) for k, center, message in (
        ("custom-one-coordinate", "custom:1", CUSTOM % "[1.0]"),
        ("custom-nan", "custom:nan,0", CUSTOM % "[nan, 0.0]"),
        ("custom-inf", "custom:inf,0", CUSTOM % "[inf, 0.0]"),
        ("custom-three-coordinates", "custom:0.5,0.5,9", CUSTOM % "[0.5, 0.5, 9.0]"),
        ("vertex-abc", "vertex:abc", INDEX + "a number, got 'abc'"),
        ("vertex-text", "vertex:x", INDEX + "a number, got 'x'"),
        ("vertex-fraction", "vertex:1.7", INDEX + "an integer, got 1.7"),
        ("vertex-range", "vertex:3", "vertex index 3 out of range for 3 curves"),
        ("origin-with-argument", "origin:1", "unknown center strategy 'origin:1'"))],
    "cli convergence domain": [("unknown-builtin", "convergence builtin:nope expr:1 1 2",
                                re.compile(r"^error: \"unknown name 'nope'; "))],
    "cli convergence function": [("without-prefix", "convergence builtin:T1 x 1 2", NO_PREFIX)],
    "cli convergence n_min": [("text", "convergence builtin:T1 expr:1 x 2",
                               usage("convergence", INT % "n_min")),
                              ("zero", "convergence builtin:T1 expr:1 0 2",
                               "n_min must be an integer >= 1, got 0")],
    "cli convergence n_max": [("text", "convergence builtin:T1 expr:1 1 x",
                               usage("convergence", INT % "n_max")),
                              ("below-n-min", "convergence builtin:T1 expr:1 5 2",
                               "n_max must be an integer >= 5, got 2")],
    "cli convergence reference": [
        ("abc", CONVERGE + "--reference abc", "reference must be a number, got 'abc'")] + [
        (k, CONVERGE + "--reference=" + v, FINITE % ("reference", -math.inf, shown))
        for k, v, shown in (("nan", "nan", "nan"), ("inf", "inf", "inf"), ("huge", "-1e400", "-inf"))],
    "cli convergence sweep": [("unknown", CONVERGE + "--sweep z",
                               usage("convergence", "argument --sweep: invalid choice: 'z'"))],
    "cli convergence center": [("unknown", CONVERGE + "--center centroid", CENTROID)],
    "cli tmvi domain": [("clockwise", "tmvi {} expr:1 --grid 2", CLOCKWISE_LOOP, CLOCKWISE),
                        ("nan-at-node", "tmvi {} expr:1 --n-t 5 --grid 2", NOT_FINITE_CURVE,
                         NAN_AT_NODE),
                        ("nan-velocity", "tmvi {} expr:1 --grid 3 --n-t 5", VELOCITY, NAN_VELOCITY)],
    "cli tmvi g": [("without-prefix", "tmvi builtin:egg x^2 --grid 2", NO_PREFIX)],
    "cli tmvi grid": [("text", "tmvi builtin:egg expr:1 --grid x", usage("tmvi", INT % "--grid")),
                      ("zero", "tmvi builtin:egg expr:1 --grid 0", GRID % 0)],
    "cli tmvi n_t": [("text", "tmvi builtin:egg expr:1 --n-t x", usage("tmvi", INT % "--n-t")),
                     ("zero", "tmvi builtin:egg expr:1 --grid 2 --n-t 0", SIZE)],
    "cli distfield domain": [("clockwise", "distfield {} --grid 2", CLOCKWISE_LOOP, CLOCKWISE),
                             ("nan-velocity", "distfield {} --p 1 --grid 3 --n-t 5", VELOCITY,
                              NAN_VELOCITY)],
    "cli distfield p": [
        ("text", "distfield builtin:egg --p x", usage("distfield", FLOAT % "--p")),
        ("nan", "distfield builtin:egg --p nan --grid 3", FINITE % ("p", -math.inf, "nan")),
        ("inf", "distfield builtin:egg --p inf --grid 3", FINITE % ("p", -math.inf, "inf")),
        ("below-one", "distfield builtin:egg --p 0.5 --grid 3", "p must be at least 1, got 0.5")],
    "cli distfield grid": [(k, "distfield builtin:egg --p 1 --grid %d" % n, GRID % n)
                           for k, n in (("zero", 0), ("negative", -3))],
    "cli distfield n_t": [("text", "distfield builtin:egg --n-t x", usage("distfield", INT % "--n-t")),
                          ("zero", "distfield builtin:egg --grid 2 --n-t 0", SIZE)],
}

CLI_CASES = [pytest.param(argv, err, *(doc or [None]), id="%s-%s" % (name.replace(" ", "."), case))
             for name, cases in CLI_ROWS.items() for case, argv, err, *doc in cases]


@pytest.mark.parametrize("argv, err, doc", CLI_CASES)
def test_a_bad_cli_argument_exits_2_and_names_it(tmp_path, capsys, argv, err, doc):
    path = tmp_path / "domain.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    try:
        code = cli.main([a.replace("{}", str(path)) for a in shlex.split(argv)])
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    check(captured.err, "error: %s\n" % err if isinstance(err, str) else err)


def test_every_public_parameter_has_a_row():
    rows, public = set(ROWS), surface()
    assert not public - rows, "parameters without a row: %s" % sorted(public - rows)
    assert not rows - public, "rows of no parameter: %s" % sorted(rows - public)
    for cases in [cases for _, _, cases in ROWS.values()] + list(CLI_ROWS.values()):
        assert cases and len({c[0] for c in cases}) == len(cases)
    arguments = cli_surface()
    assert set(CLI_ROWS) == arguments, (sorted(arguments - set(CLI_ROWS)),
                                        sorted(set(CLI_ROWS) - arguments))

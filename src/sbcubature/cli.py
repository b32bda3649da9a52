"""Command-line interface: domain files in, values / rules / CSV tables out.

Exit codes: 0 success, 2 invalid input, 3 integrand evaluation failure.
All numbers are printed with 17 significant digits so doubles round-trip.
"""

import argparse
import json
import sys

import numpy as np

from . import exprlang, hni, sbc, singular, testfns, tmvi
from .curves import Bezier, ParametricCurve, RationalBezier, Segment
from .errors import EvaluationError, InvalidArgumentError, NotFoundError, real_number, whole_number
from .region import CenterPolicy, Region


def fmt(v):
    return np.format_float_positional(
        float(v), precision=17, unique=False, fractional=False
    )


_CURVES = {
    "segment": (Segment, ("from", "to")),
    "bezier": (Bezier, ("control_points",)),
    "rational_bezier": (RationalBezier, ("control_points", "weights")),
    "parametric": (ParametricCurve, ("x", "y")),
}


def _check_keys(obj, what, required, optional=frozenset()):
    """Accept a JSON object with every required key and no unknown one."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError("%s must be a JSON object, got %r" % (what, obj))
    if not required <= set(obj) <= required | optional:
        keys = sorted(required) + ["[%s]" % k for k in sorted(optional)]
        raise InvalidArgumentError("%s needs keys %s, got %s" % (what, keys, sorted(obj)))


def _number(kind, value, what):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidArgumentError("%s must be a number, got %r" % (what, value)) from None


def _build_curve(spec):
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in _CURVES:
        raise InvalidArgumentError("curve needs a known type, got %r" % (spec,))
    cls, keys = _CURVES[kind]
    _check_keys(spec, kind, {"type", *keys})
    return cls(*(spec[k] for k in keys))


def load_domain(path):
    """Parse a JSON domain file into (Region, CenterPolicy)."""
    if path.startswith("builtin:"):
        geom = testfns.lookup(path[len("builtin:"):])
        if not isinstance(geom, testfns.NamedGeometry):
            raise InvalidArgumentError("%r is not a geometry" % (path,))
        return geom.make(), CenterPolicy.VERTEX_AVERAGE
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_keys(doc, "domain", {"curves"}, {"x0"})
    if not isinstance(doc["curves"], list):
        raise InvalidArgumentError("domain 'curves' must be a list")
    region = Region([_build_curve(c) for c in doc["curves"]])
    x0 = doc.get("x0", {"strategy": "vertex_average"})
    _check_keys(x0, "x0", {"strategy"}, {"index", "point"})
    return region, CenterPolicy(**x0)


def load_function(spec):
    """Scalar field from 'expr:<source>' or 'builtin:<name>'."""
    if spec.startswith("expr:"):
        return exprlang.compile_field(spec[len("expr:"):])
    if spec.startswith("builtin:"):
        fn = testfns.lookup(spec[len("builtin:"):])
        if not isinstance(fn, testfns.NamedFunction):
            raise InvalidArgumentError("%r is not a function" % (spec,))
        return fn.field
    raise InvalidArgumentError("function spec must start with 'expr:' or 'builtin:'")


def _parse_radial(arg, beta):
    if arg == "none":
        return None
    if arg == "jacobi":
        return singular.GAUSS_JACOBI
    name, sep, alpha = arg.partition(":")
    if name == "gsb":
        alpha = _number(float, alpha, "gsb alpha") if sep else singular.select_alpha(beta)
        return singular.GeneralizedSB(alpha)
    raise InvalidArgumentError("unknown radial strategy %r" % (arg,))


def _add_center_flag(p):
    p.add_argument(
        "--center",
        default=None,
        help="origin | vertex_average | vertex:<i> | custom:<x>,<y> "
        "(default: domain file / vertex_average)",
    )


def _center_policy(arg, default):
    if arg is None:
        return default
    strategy, _, rest = arg.partition(":")
    if strategy == "vertex":
        return CenterPolicy.vertex(_number(float, rest, "vertex index"))
    if strategy == "custom":
        return CenterPolicy.custom([_number(float, v, "center coordinate") for v in rest.split(",")])
    return CenterPolicy(arg)


def _check_mode_flags(args):
    """Reject each optional flag that integrate's mode would drop."""
    if args.hni is not None:
        mode, takes = "--hni (HNI, center at the origin)", ()
    elif args.beta is not None:
        mode, takes = "--beta (singular rule, center at --xc)", ("beta", "xc", "radial", "t_transform")
    else:
        mode, takes = "neither --hni nor --beta (regular rule)", ("center",)
    for name in ("center", "beta", "xc", "radial", "t_transform"):
        if getattr(args, name) is not None and name not in takes:
            raise InvalidArgumentError("integrate with %s does not take --%s"
                                       % (mode, name.replace("_", "-")))
    if args.hni is not None and args.n_xi != 1:  # the one radial node s = 1
        raise InvalidArgumentError("integrate with %s takes n_xi 1, got %d" % (mode, args.n_xi))


def cmd_integrate(args):
    _check_mode_flags(args)
    region, policy = load_domain(args.domain)
    f = load_function(args.function)
    if args.hni is not None:
        value = hni.hni_integrate(region, hni.HomogeneousField(f, args.hni), args.n_t)
    elif args.beta is not None:
        tt = None if args.t_transform in (None, "none") else args.t_transform
        radial = _parse_radial(args.radial or "none", args.beta)
        spec = singular.SingularSpec(xc=args.xc or (0.0, 0.0), radial=radial, t_transform=tt)

        def g(x, y):
            r2 = (np.asarray(x) - spec.xc[0]) ** 2 + (np.asarray(y) - spec.xc[1]) ** 2
            return f(x, y) * r2 ** (0.5 * args.beta)

        value = singular.integrate_singular(
            region, singular.SplitIntegrand(g, args.beta), spec, args.n_xi, args.n_t
        )
    else:
        value = sbc.integrate(region, _center_policy(args.center, policy), f, args.n_xi, args.n_t)
    print(fmt(value))


def cmd_rule(args):
    region, policy = load_domain(args.domain)
    rule = sbc.generate_rule(region, _center_policy(args.center, policy), args.n_xi, args.n_t)
    print("x,y,w")
    for (x, y), w in zip(rule.points, rule.weights):
        print("%s,%s,%s" % (fmt(x), fmt(y), fmt(w)))


def cmd_convergence(args):
    region, policy = load_domain(args.domain)
    policy = _center_policy(args.center, policy)
    f = load_function(args.function)
    n_min = whole_number(args.n_min, 1, "n_min")
    n_max = whole_number(args.n_max, n_min, "n_max")
    surplus = max(64, 2 * n_max)

    def run(n_xi, n_t):
        return sbc.integrate(region, policy, f, n_xi, n_t)

    if args.reference == "auto":
        ref = run(n_max + 8, n_max + 8)
    else:
        ref = real_number(_number(float, args.reference, "reference"), "reference")
    print("n,abs_err,rel_err")
    for n in range(n_min, n_max + 1):
        if args.sweep == "xi":
            val = run(n, surplus)
        elif args.sweep == "t":
            val = run(surplus, n)
        else:
            val = run(n, n)
        err = abs(val - ref)
        rel = err / abs(ref) if ref != 0.0 else err
        print("%d,%s,%s" % (n, fmt(err), fmt(rel)))


def _grid_rows(loop, n):
    lo, hi = loop.bbox()
    xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
    ys = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def _loop_from(args):
    region, _ = load_domain(args.domain)
    return tmvi.BoundaryLoop(region.curves)


def _print_grid(loop, n, n_t, **field):
    """CSV of a tmvi field (g=... or p=...) over the grid; cells it rejects empty."""
    pts = _grid_rows(loop, whole_number(n, 1, "--grid"))
    vals, inside = tmvi.evaluate_masked(loop, pts, n_t, **field)
    print("x,y,value")
    for (x, y), v, ok in zip(pts, vals, inside):
        print("%s,%s,%s" % (fmt(x), fmt(y), fmt(v) if ok else ""))


def cmd_tmvi(args):
    loop = _loop_from(args)
    g = load_function(args.g)
    _print_grid(loop, args.grid, args.n_t, g=g)


def cmd_distfield(args):
    _print_grid(_loop_from(args), args.grid, args.n_t, p=args.p)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sbcubature",
        description="Cubature over planar regions bounded by segments and "
        "parametric curves.  Expressions use variables x, y (fields) or t "
        "(curves); ^ is right-associative and binds tighter than unary minus.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate a scalar field over a domain")
    p.add_argument("domain")
    p.add_argument("function")
    p.add_argument("n_xi", type=int)
    p.add_argument("n_t", type=int)
    _add_center_flag(p)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--xc", type=float, nargs=2, default=None)
    p.add_argument("--radial", default=None, help="none | gsb[:alpha] | jacobi (default: none)")
    p.add_argument("--t-transform", default=None, choices=["none", "r1", "r2", "r3"],
                   help="(default: none)")
    p.add_argument("--hni", type=float, default=None, metavar="Q",
                   help="treat the field as homogeneous of degree Q")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("rule", help="print the cubature rule as CSV")
    p.add_argument("domain")
    p.add_argument("n_xi", type=int)
    p.add_argument("n_t", type=int)
    _add_center_flag(p)
    p.set_defaults(func=cmd_rule)

    p = sub.add_parser("convergence", help="error sweep against a reference")
    p.add_argument("domain")
    p.add_argument("function")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--reference", default="auto")
    p.add_argument("--sweep", default="both", choices=["both", "xi", "t"])
    _add_center_flag(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("tmvi", help="mean value interpolant on an interior grid")
    p.add_argument("domain")
    p.add_argument("g")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--n-t", type=int, default=256)
    p.set_defaults(func=cmd_tmvi)

    p = sub.add_parser("distfield", help="Lp-distance field on an interior grid")
    p.add_argument("domain")
    p.add_argument("--p", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--n-t", type=int, default=256)
    p.set_defaults(func=cmd_distfield)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args.func(args)
    except EvaluationError as exc:
        print("evaluation error: %s" % exc, file=sys.stderr)
        return 3
    except (InvalidArgumentError, NotFoundError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tensor-product cubature over planar regions bounded by segments and curves."""

from .curves import Bezier, Curve, ParametricCurve, RationalBezier, Segment
from .errors import EvaluationError, InvalidArgumentError, NotFoundError
from .hni import HomogeneousField, hni_integrate
from .region import CenterPolicy, Region, decompose, is_star_convex, polygon, resolve_center
from .rules import Rule1D, gauss_jacobi_unit, gauss_legendre
from .sbc import (
    CubatureRule,
    generate_rule,
    integrate,
    min_orders_curved,
    min_orders_polygon,
)
from .singular import (
    GAUSS_JACOBI,
    GeneralizedSB,
    SingularSpec,
    SplitIntegrand,
    generate_singular_rule,
    integrate_singular,
    radial_exponent,
    select_alpha,
    t_transform_bounds,
)
from .tmvi import (
    BoundaryLoop,
    EggCurve,
    egg_domain,
    tmvi_eval_many,
)

__version__ = "0.1.0"

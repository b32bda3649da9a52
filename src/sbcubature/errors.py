"""Exception types shared across the package, and the readers of the numbers a caller hands it.

A real number is a ``numbers.Real`` but not a boolean: a Python or numpy int
or float, or a ``Fraction``; text, complex, None and ``Decimal`` are not.
"""

import math
import numbers
import reprlib

import numpy as np


class InvalidArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class EvaluationError(RuntimeError):
    """Raised when an integrand produces a non-finite value.

    Carries the offending physical point in ``point``, a tuple of floats.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotFoundError(KeyError):
    """Raised when a registry lookup fails."""


def finite_or_nan(value):
    """value as a float if it is a finite real number, else NaN, which fails every range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # float(True) is 1.0
        return math.nan
    try:
        # compared as float: a bound cast to a narrow numpy scalar's type overflows
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return math.nan
    return value if math.isfinite(value) else math.nan


def real_array(value, what, bools=False):
    """value as a float array, or InvalidArgumentError naming what and its first bad entry.

    An ndarray of ints or floats, or of booleans with ``bools``, is read by
    its dtype alone, and a float64 one is not copied.  Anything else is read
    as an object array whose every entry must be a real number within the
    float range, or a boolean with ``bools`` (an indicator field is 0 and 1).
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in ("biuf" if bools else "iuf"):
        return np.asarray(value, dtype=float)
    try:
        items = np.asarray(value, dtype=object)
    except ValueError:  # nested arrays numpy cannot stack
        raise InvalidArgumentError("%s must be real numbers, got %s"
                                   % (what, reprlib.repr(value))) from None
    for v in items.flat:
        # an int or Fraction beyond the float range reads as NaN here
        if (not bools if isinstance(v, (bool, np.bool_)) else not isinstance(v, numbers.Real)
                or isinstance(v, numbers.Rational) and math.isnan(finite_or_nan(v))):
            raise InvalidArgumentError("%s must be real numbers, got %s" % (what, reprlib.repr(v)))
    return items.astype(float)

"""Exception types shared across the package, and the readers of the numbers a caller hands it.

A real number is a ``numbers.Real`` but not a boolean: a Python or numpy int
or float, or a ``Fraction``; text, complex, None and ``Decimal`` are not.
Four readers decide what each number is, and raise InvalidArgumentError naming
it: ``real_number`` (a scalar option), ``whole_number`` (a size or degree),
``finite_point`` (a 2-D point) and ``real_array`` (nodes, points, field values).
"""

import math
import numbers
import operator
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


def _float(value):
    """float(value), or NaN for an int or Fraction beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def real_number(value, what, above=-math.inf, below=math.inf):
    """value as a float, finite and strictly between above and below, or InvalidArgumentError.

    The message names what and the value: "must be a real number" for what
    is not one (text, a boolean, None, ``Decimal``, complex), and "must be a
    finite number in (above, below)" for NaN, an infinity, an int beyond the
    float range or a value out of range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # float(True) is 1.0
        raise InvalidArgumentError("%s must be a real number, got %s" % (what, reprlib.repr(value)))
    # compared as float: a bound cast to a narrow numpy scalar's type overflows
    number = _float(value)
    if not above < number < below:  # NaN and the infinities fail too
        raise InvalidArgumentError("%s must be a finite number in (%r, %r), got %s"
                                   % (what, above, below, reprlib.repr(value)))
    return number


def whole_number(value, lowest, what):
    """value as an int >= lowest; numpy integers pass, while 2.5, True and NaN do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = lowest - 1
    if number < lowest or isinstance(value, bool):
        raise InvalidArgumentError("%s must be an integer >= %d, got %r" % (what, lowest, value))
    return number


def finite_point(value, what):
    """value as a tuple of two finite floats, or InvalidArgumentError naming what."""
    p = real_array(value, what)
    if p.shape != (2,) or not all(map(math.isfinite, p.tolist())):
        raise InvalidArgumentError("%s must be two finite numbers, got %s"
                                   % (what, reprlib.repr(value)))
    return tuple(p.tolist())


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
                or isinstance(v, numbers.Rational) and math.isnan(_float(v))):
            raise InvalidArgumentError("%s must be real numbers, got %s" % (what, reprlib.repr(v)))
    return items.astype(float)

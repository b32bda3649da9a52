"""Small arithmetic expression language for integrands and parametric curves.

Grammar (standard precedence, ``^`` right-associative and binding tighter
than unary minus)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Recognized variables are ``x``, ``y`` and ``t``; constants ``pi`` and ``e``.
Evaluation is plain IEEE double precision and broadcasts over numpy arrays.
Every function and operator also accepts complex arguments and then carries
the derivative of a complex step (see ``ParametricCurve.velocity``); real
arguments call the numpy function unchanged.
The grammar is Python's arithmetic with ``^`` for ``**``, so Python's own
parser reads it; the grammar above stays the specification of what is accepted.
``parse`` checks the grammar and, in the same walk, builds the evaluating
function once, as nested closures over the numpy calls; ``Expression.variables``
names the variables the expression reads.
An ``Expression`` is immutable and its function pure, so ``parse`` keeps the
one it builds for each text, the last _PARSE_CACHE_SIZE texts used: a field
or curve built again from a text seen before parses nothing.  A text that
fails to parse is not kept and raises the same ``ParseError`` at every call.
"""

import ast
import functools
import operator
import re
import reprlib
import threading
import warnings
from collections.abc import Mapping
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidArgumentError


class ParseError(InvalidArgumentError):
    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


def _complex(re, im):
    """re + i im from real parts; 1j * inf would make the real part nan."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _abs(a):
    # the modulus of a complex step drops its derivative
    return np.where(a.real < 0, -a, a) if np.iscomplexobj(a) else np.abs(a)


def _atan2(y, x):
    if not (np.iscomplexobj(y) or np.iscomplexobj(x)):
        return np.arctan2(y, x)
    yr, xr = np.real(y), np.real(x)
    return _complex(np.arctan2(yr, xr), (xr * np.imag(y) - yr * np.imag(x)) / (xr * xr + yr * yr))


def _power(a, b):
    if not np.iscomplexobj(a) or np.iscomplexobj(b):
        return np.power(a, b)
    # numpy takes a complex base to an integer power of 100 or more in polar
    # form, which loses the derivative: (a + i da)^b = a^b + i b a^(b-1) da
    bda = b * a.imag
    # a zero exponent or step has a zero derivative, even where a^(b-1) is inf
    return _complex(np.power(a.real, b), np.where(bda == 0, 0.0, bda * np.power(a.real, b - 1.0)))


_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "asin": (np.arcsin, 1),
    "acos": (np.arccos, 1),
    "atan": (np.arctan, 1),
    "atan2": (_atan2, 2),
    "sinh": (np.sinh, 1),
    "cosh": (np.cosh, 1),
    "tanh": (np.tanh, 1),
    "exp": (np.exp, 1),
    "ln": (np.log, 1),
    "log10": (np.log10, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (_abs, 1),
    "pow": (_power, 2),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: np.true_divide, ast.Pow: _power}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("x", "y", "t")


class Expression(NamedTuple):
    """A parsed expression: its function of the bindings, and the variables it reads."""

    function: Callable
    variables: frozenset


# NUMBER; Python itself rejects an integer with a leading zero, such as 007
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# any blank separates tokens, but Python's eval mode reads only spaces on one line
_BLANK = re.compile(r"\s")
# Python's ** and every character the grammar has no use for
_FOREIGN = re.compile(r"\*\*|[^0-9A-Za-z_.+\-*/^(),\s]")
# deepest tree parse accepts, so the evaluating closures recurse no further
_MAX_DEPTH = 200
# distinct texts whose Expression parse keeps, the least recently used dropped first
_PARSE_CACHE_SIZE = 256
# warnings.catch_warnings swaps the process-wide filter list, so two parses at
# once could restore each other's "error" filter and leave it behind
_WARNINGS_LOCK = threading.Lock()


def parse(src):
    """Parse an expression source string into an ``Expression``.

    The Expression is built once per text and shared by every later call
    with that text (see the module docstring).
    """
    if not isinstance(src, str):  # before the cache hashes it
        raise InvalidArgumentError("expression must be a string, got %r" % (src,))
    return _parse(src)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse(src):
    bad = _FOREIGN.search(src)
    if bad:
        raise ParseError("unexpected %r" % bad.group(), bad.start())
    body = _BLANK.sub(" ", src).strip().replace("^", "**")
    try:
        with _WARNINGS_LOCK, warnings.catch_warnings():
            # a parser warning, say on '1if', fails the parse instead of escaping
            warnings.simplefilter("error")
            tree = ast.parse(body, mode="eval").body
        variables = set()
        return Expression(_compile(tree, body, 1, variables), frozenset(variables))
    except SyntaxError as err:
        raise ParseError(err.msg, _offset(src, err.offset)) from None
    except (RecursionError, MemoryError):
        raise ParseError("expression too large for the parser", len(src)) from None


def _offset(src, col):
    """Index into src of 1-based column col of its stripped, ^-widened body."""
    body = src.lstrip()
    cols = [i for i, c in enumerate(body, len(src) - len(body)) for _ in range(1 + (c == "^"))]
    return cols[col - 1] if 0 < col <= len(cols) else len(src)


def _reject(message, node):
    return SyntaxError(message, ("<expr>", 1, node.col_offset + 1, None))


def _apply(fn, args):
    """The function of the bindings that applies fn to the values of args."""
    if len(args) == 1:
        (f,) = args
        return lambda b: fn(f(b))
    f, g = args
    return lambda b: fn(f(b), g(b))


def _compile(node, body, depth, variables):
    """The function of a Python expression node; SyntaxError outside the grammar.

    The names of the variables it reads are added to the set variables.
    """
    if depth > _MAX_DEPTH:
        raise _reject("expression nested deeper than %d" % _MAX_DEPTH, node)
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _OPERATORS:
        return _apply(_OPERATORS[type(node.op)], [_compile(a, body, depth + 1, variables)
                                                  for a in (node.left, node.right)])
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return _apply(operator.neg, [_compile(node.operand, body, depth + 1, variables)])
    if kind is ast.Constant:
        number = body[node.col_offset:node.end_col_offset]
        if _NUMBER.fullmatch(number):
            value = float(number)
            return lambda b: value
    elif kind is ast.Name:
        name = node.id
        if name in _VARIABLES:
            variables.add(name)
            return lambda b: b[name]
        if name in _CONSTANTS:
            value = _CONSTANTS[name]
            return lambda b: value
        raise _reject("unknown identifier %r" % name, node)
    elif kind is ast.Call and type(node.func) is ast.Name:
        name, args = node.func.id, node.args
        if name not in _FUNCTIONS:
            raise _reject("unknown function %r" % name, node)
        # (sin)(x), sin(x,) and sin(^x), that is sin(**x), are Python only
        if (node.func.col_offset == node.col_offset and not node.keywords
                and not body[:node.end_col_offset - 1].rstrip().endswith(",")):
            fn, arity = _FUNCTIONS[name]
            if len(args) != arity:
                raise _reject("%s takes %d argument(s), got %d" % (name, arity, len(args)), node)
            return _apply(fn, [_compile(a, body, depth + 1, variables) for a in args])
    raise _reject("%s is not in the expression grammar" % type(node).__name__, node)


def evaluate(expr, bindings):
    """Evaluate a parsed expression with the given variable bindings.

    Domain errors and division by zero produce non-finite values rather
    than exceptions; integration-time code is responsible for rejecting
    them.  An expr that is not an ``Expression`` from ``parse``, or bindings
    that are not a mapping of names to values, is an InvalidArgumentError.
    """
    if not isinstance(expr, Expression):
        raise InvalidArgumentError("expr must be an Expression from parse, got %s"
                                   % reprlib.repr(expr))
    if not isinstance(bindings, Mapping):
        raise InvalidArgumentError("bindings must be a mapping of variable names to values, got %s"
                                   % reprlib.repr(bindings))
    missing = expr.variables.difference(bindings)
    if missing:
        raise InvalidArgumentError("missing bindings for %s" % sorted(missing))
    with np.errstate(all="ignore"):
        return expr.function(bindings)


def compile_field(src):
    """Parse a two-variable expression into a callable f(x, y)."""
    expr = parse(src)
    extra = expr.variables - {"x", "y"}
    if extra:
        raise InvalidArgumentError("field expression may only use x and y, found %s" % sorted(extra))

    def field(x, y):
        val = evaluate(expr, {"x": x, "y": y})
        # constants must still broadcast over point arrays
        return np.broadcast_to(val, np.broadcast(np.asarray(x), np.asarray(y)).shape)

    return field

import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcubature import exprlang
from sbcubature.curves import ParametricCurve
from sbcubature.exprlang import ParseError, evaluate, parse


def ev(src, **b):
    return evaluate(parse(src), b)


def test_basic_arithmetic():
    assert ev("x^2 + y", x=2.0, y=3.0) == 7.0
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("-x^2", x=2.0) == -4.0  # unary minus binds looser than ^
    assert ev("(1+2*cos(2*pi/3*t))^2/12", t=0.0) == pytest.approx(0.75)
    assert ev("atan2(1, 1)") == pytest.approx(np.pi / 4)
    assert ev("min(2, 3) + max(2, 3)") == 5.0
    assert ev("1e2 + .5") == 100.5


def test_broadcasts_over_arrays():
    x = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(ev("x^2 - ln(x + 1)", x=x), x**2 - np.log(x + 1))


def test_nonfinite_propagates_as_value():
    assert np.isinf(ev("1/x", x=0.0))
    assert np.isnan(ev("sqrt(x)", x=-1.0))


_CORPUS = (
    ["x", "y", "t", "pi", "e", "1.5", "2e-3", "-x", "x + y", "x - y", "x*y/t"]
    + ["%s(x)" % f for f in ("sin", "cos", "tan", "asin", "exp", "ln", "sqrt", "abs", "tanh")]
    + ["x^2", "x^y^t", "-x^2", "(x+y)^2", "2^-x", "pow(x, 3)"]
    + ["%s + %s*%s" % (a, b, c) for a in ("x", "sin(t)") for b in ("y", "2") for c in ("t", "e")]
    + ["atan2(y, x)", "min(x, y)", "max(x, -y)", "log10(x + 10)", "cosh(x) - sinh(x)"]
    + ["x/(y + 1)", "1 - 2*x + 3*y", "(1+2*cos(2*pi/3*t))^2/12", "sqrt(x^2 + y^2)"]
)


# Python's ** has the precedence and associativity of ^ (above unary minus,
# right-associative), so with ^ -> ** Python itself is an evaluation oracle
_PY_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "asin": np.arcsin, "exp": np.exp,
    "ln": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "sinh": np.sinh,
    "cosh": np.cosh, "atan2": np.arctan2, "log10": np.log10, "pow": np.power,
    "min": np.minimum, "max": np.maximum, "pi": np.pi, "e": np.e,
}


@pytest.mark.parametrize("src", _CORPUS)
def test_parse_pretty_parse_fixed_point(src):
    """The parsed corpus evaluates as Python does (the id is from a printer round trip)."""
    b = {"x": np.array([0.3, 0.85]), "y": np.array([0.7, 0.2]), "t": np.array([0.45, 1.3])}
    expected = eval(src.replace("^", "**"), dict(_PY_NAMES, __builtins__={}), b)
    np.testing.assert_array_equal(evaluate(parse(src), b), expected)


def test_eval_deterministic():
    ast = parse("sin(x)*exp(y) - t^3")
    b = {"x": 0.3, "y": -0.2, "t": 0.7}
    assert evaluate(ast, b) == evaluate(ast, b)


def test_compile_field_gives_a_function_of_x_and_y():
    f = exprlang.compile_field("x*y")
    assert f(3.0, 4.0) == 12.0


def test_a_text_is_parsed_once_and_its_expression_shared():
    src = "sin(x)*exp(-y^2) + atan2(y, x) - pow(x, 3)"
    expr = parse(src)
    assert parse(src) is expr
    fresh = exprlang._parse.__wrapped__(src)
    assert fresh is not expr and fresh.variables == expr.variables
    b = {"x": np.linspace(-2.0, 2.0, 41) + 1e-3j, "y": np.linspace(-1.0, 3.0, 41)}
    got, want = evaluate(expr, b), evaluate(fresh, b)
    assert got.tobytes() == want.tobytes()


def test_a_bad_text_raises_the_same_error_at_every_call():
    for src, offset in (("x +", 3), ("sin(x) + q", 9), ("1 ** 2", 2)):
        messages = set()
        for _ in range(3):
            with pytest.raises(ParseError) as e:
                parse(src)
            assert e.value.offset == offset
            messages.add(str(e.value))
        assert len(messages) == 1


def test_the_parse_cache_is_bounded():
    bound = exprlang._PARSE_CACHE_SIZE
    for k in range(bound + 1):
        parse("x + %d" % k)
    info = exprlang._parse.cache_info()
    assert info.maxsize == bound and info.currsize == bound


def test_a_curve_and_a_field_from_one_text_share_its_expression():
    src = "0.25 + 0.5*pi"  # a constant is both a coordinate in t and a field in x, y
    curve = ParametricCurve(src, "0")
    before = exprlang._parse.cache_info()
    field = exprlang.compile_field(src)
    after = exprlang._parse.cache_info()
    # the field parsed nothing: it took the curve's expression from the cache
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert curve._x_expr is parse(src)
    np.testing.assert_array_equal(field(np.zeros(3), np.zeros(3)), curve.position(np.zeros(3))[:, 0])


def test_parses_at_once_leave_the_warning_filters_as_they_were():
    before = list(warnings.filters)
    barrier = threading.Barrier(4)
    errors = []

    def work(k):
        try:
            barrier.wait()
            for i in range(200):
                parse("sin(x)^%d + %d*y/(1 + x^2)" % (k, i))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside catch_warnings too
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert warnings.filters == before


def test_blanks_separate_tokens():
    b = {"x": np.array([0.3, -1.7]), "y": np.array([2.5, 0.75]), "t": np.array([-0.45, 1.3])}
    blanks, spaces = parse("x\n+\ty\r-\x0bt\xa0*\x0c2"), parse("x + y - t * 2")
    assert blanks.variables == spaces.variables == {"x", "y", "t"}
    assert evaluate(blanks, b).tobytes() == evaluate(spaces, b).tobytes()


# forms Python's parser reads but the grammar does not admit
_PYTHON_ONLY = [
    "x ** 2", "2 * π", "0x10", "1_0", "1j", "True", "None", "...", "sin(x,)", "atan2(x, y,)",
    "+x", "x @ y", "x % y", "x // y", "x < y", "x == y", "x if y else t", "not x", "x and y",
    "x[0]", "x.real", "sin(x=1)", "sin(*x)", "sin(^x)", "'x'", "(sin)(x)", "(x, y)", "007",
    "1if x else y", "0x1g", "sin(x for x in y)", "x := 1", "lambda: x", "sin(x)(y)",
]


@pytest.mark.parametrize("src", _PYTHON_ONLY)
def test_python_only_forms_raise_parse_error(src):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            parse(src)


def test_nesting_limit():
    limit = exprlang._MAX_DEPTH
    for make in (lambda k: "+".join(["x"] * k), lambda k: "-" * (k - 1) + "x",
                 lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1)):
        expr = parse(make(limit))
        assert expr.variables == {"x"}
        # the evaluating closures recurse once per level
        assert np.isfinite(evaluate(expr, {"x": np.array([0.5, -2.0])})).all()
        with pytest.raises(ParseError):
            parse(make(limit + 1))


# numbers carry a '.' or an exponent, so they are floats in Python's eval too,
# never integers (Python would build a huge one for 9^9^9)
_LITERAL = re.compile(r"(?<![\w.])(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_ATOMS = ["x", "y", "t", "pi", "e", "1.5", "2.", ".25", "3e-1", "1e2", "0.0", "7.5E+1"]
_OPS = ["+", "-", "*", "/", "^", " + ", " - ", " * ", "/ ", " ^"]
_UNARY = ["sin", "exp", "ln", "sqrt", "abs", "tanh"]
_BINARY = ["atan2", "pow", "min", "max"]
# token soup, mostly rejected, and strings of the grammar glued without
# parentheses, so precedence and associativity decide their value
_TOKEN_STRINGS = st.lists(
    st.sampled_from(_ATOMS + _OPS + ["(", ")", ",", " "] + [f + "(" for f in _UNARY + _BINARY]),
    min_size=1, max_size=14,
).map("".join)
_GRAMMAR_STRINGS = st.recursive(st.sampled_from(_ATOMS), lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(_OPS), inner).map("".join),
    st.tuples(inner, st.sampled_from(_OPS), inner, st.sampled_from(_OPS), inner).map("".join),
    inner.map("-{}".format),
    inner.map("({})".format),
    st.tuples(st.sampled_from(_UNARY), inner).map("{0[0]}({0[1]})".format),
    st.tuples(st.sampled_from(_BINARY), inner, inner).map("{0[0]}({0[1]}, {0[2]})".format),
), max_leaves=10)


class _Applied:
    """A value whose Python operators make the numpy calls evaluate makes.

    On two floats, Python's ** is libm's pow and / raises at zero, while
    np.power and np.true_divide differ from them in the last bit or give inf;
    with every leaf wrapped, Python's eval orders the operations and the values
    compare bit for bit.
    """

    def __init__(self, v):
        self.v = v

    def __add__(self, o):
        return _Applied(self.v + o.v)

    def __sub__(self, o):
        return _Applied(self.v - o.v)

    def __mul__(self, o):
        return _Applied(self.v * o.v)

    def __truediv__(self, o):
        return _Applied(np.true_divide(self.v, o.v))

    def __pow__(self, o):
        return _Applied(np.power(self.v, o.v))

    def __neg__(self):
        return _Applied(-self.v)


def _applied(f):
    return lambda *args: _Applied(f(*(a.v for a in args)))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_TOKEN_STRINGS, _GRAMMAR_STRINGS))
def test_parsed_strings_evaluate_as_python_does(src):
    try:
        tree = parse(src)
    except ParseError:
        return
    b = {"x": np.array([0.3, -1.7]), "y": np.array([2.5, 0.75]), "t": np.array([-0.45, 1.3])}
    names = {k: _applied(f) if callable(f) else _Applied(f) for k, f in _PY_NAMES.items()}
    names.update({k: _Applied(v) for k, v in b.items()}, _n=_Applied, __builtins__={})
    with np.errstate(all="ignore"):
        got = evaluate(tree, b)
        expected = eval(_LITERAL.sub(r"_n(\g<0>)", src.replace("^", "**")), names).v
    got, expected = np.broadcast_arrays(np.asarray(got, float), np.asarray(expected, float))
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))

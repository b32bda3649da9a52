import numpy as np
import pytest

from sbcubature import exprlang
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


def test_syntax_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse("x +")
    assert e.value.offset == 3
    with pytest.raises(ParseError):
        parse("bogus(1)")
    with pytest.raises(ParseError):
        parse("q + 1")
    with pytest.raises(ParseError):
        parse("sin(1, 2)")
    with pytest.raises(ParseError):
        parse("x @ y")
    with pytest.raises(ParseError):
        parse("(x + 1")


def test_missing_binding():
    with pytest.raises(exprlang.InvalidArgumentError):
        evaluate(parse("x + y"), {"x": 1.0})


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


def test_compile_field_rejects_t():
    with pytest.raises(exprlang.InvalidArgumentError):
        exprlang.compile_field("x + t")
    f = exprlang.compile_field("x*y")
    assert f(3.0, 4.0) == 12.0

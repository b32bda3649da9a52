import math
import reprlib
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sbcubature import hni, rules, singular, testfns, tmvi
from sbcubature.errors import InvalidArgumentError, real_array, real_number
from sbcubature.region import CenterPolicy, polygon


def test_an_int_or_float_array_is_read_by_its_dtype_and_a_float64_one_is_not_copied():
    a = np.linspace(0.0, 1.0, 5)
    assert real_array(a, "nodes") is a
    for dtype in (np.int8, np.uint16, np.int64, np.float32):
        b = np.arange(4, dtype=dtype)
        got = real_array(b, "nodes")
        assert got.dtype == np.float64 and np.array_equal(got, b)


@pytest.mark.parametrize("value", [
    [0.5, 1, np.float32(0.25), np.int8(3), Fraction(1, 3)],
    np.array([0.5, 1, Fraction(1, 3)], dtype=object),
    [[1, 2.5], [np.uint8(3), -4]],
    7,
    np.float64(0.5),
], ids=["list", "object-array", "nested", "int", "numpy-scalar"])
def test_every_real_number_is_read_as_numpy_would(value):
    got = real_array(value, "points")
    want = np.asarray(np.asarray(value, dtype=object).tolist(), dtype=float)
    assert got.dtype == np.float64 and got.shape == np.shape(value)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value, entry", [
    (["0.5", 1.0], "'0.5'"),
    ([1.0, b"1"], "b'1'"),
    ([1.0, None], "None"),
    ([1.0, Decimal("0.5")], "Decimal('0.5')"),
    ([1.0, 1j], "1j"),
    (np.array([1.0, 1.0 + 0j]), "(1+0j)"),
    (np.array([1.0, 2.0], dtype=np.complex64), "(1+0j)"),
    (np.array(["1", "2"]), "'1'"),
    ([1.0, [2.0, 3.0]], "[2.0, 3.0]"),
    ([True, 0.0], "True"),
    (np.array([False, True]), "False"),
    ([1.0, np.bool_(False)], repr(np.bool_(False))),  # np.False_ from numpy 2 on
    ("ab", "'ab'"),
], ids=["text", "bytes", "none", "decimal", "complex", "complex-array", "complex64-array",
        "text-array", "nested", "bool", "bool-array", "numpy-bool", "string"])
def test_an_entry_that_is_not_a_real_number_is_named(value, entry):
    with pytest.raises(InvalidArgumentError) as e:
        real_array(value, "control points")
    assert str(e.value) == "control points must be real numbers, got " + entry


def test_booleans_count_as_zero_and_one_only_when_asked():
    for value in ([True, False, 2.5], np.array([True, False]), [np.bool_(True), np.bool_(False)], True):
        got = real_array(value, "field values", bools=True)
        assert np.array_equal(got, np.asarray(value, dtype=object).astype(float))


def test_an_int_beyond_the_float_range_is_named():
    for big, shown in ((10**400, "1000"), (-(10**400), "-1000"), (Fraction(10**400, 3), "Fraction(")):
        with pytest.raises(InvalidArgumentError) as e:
            real_array([1.0, math.inf, True, big, 2], "field values", bools=True)
        assert str(e.value).startswith("field values must be real numbers, got " + shown)
        assert len(str(e.value)) < 200
    assert real_array([2**1000, -math.inf], "points").tolist() == [2.0**1000, -math.inf]


def test_nested_arrays_that_numpy_cannot_stack_are_rejected():
    with pytest.raises(InvalidArgumentError, match="points must be real numbers"):
        real_array([np.zeros((2, 2)), np.zeros((2, 3))], "points")


def test_the_message_names_one_entry_and_never_prints_the_whole_array():
    values = [0.5] * 4095 + ["x" * 1000]
    for value in (values, np.array(values, dtype=object)):
        with pytest.raises(InvalidArgumentError) as e:
            real_array(value, "field values")
        assert len(str(e.value)) < 200


@pytest.mark.parametrize("value, want", [
    (0.5, 0.5), (3, 3.0), (Fraction(1, 4), 0.25), (np.float32(0.5), 0.5), (np.int64(-2), -2.0),
    (True, math.nan), (np.bool_(True), math.nan), ("0.5", math.nan), (None, math.nan),
    (Decimal("0.5"), math.nan), (1j, math.nan), (math.inf, math.nan), (10**400, math.nan),
])
def test_finite_or_nan_reads_one_finite_real_number(value, want):
    # the table of finite_or_nan, the reader real_number replaced: a finite
    # real number is its float, and anything else raises
    if math.isnan(want):
        with pytest.raises(InvalidArgumentError) as e:
            real_number(value, "beta")
        assert str(e.value).startswith("beta must be ")
        assert str(e.value).endswith(", got " + reprlib.repr(value))
    else:
        got = real_number(value, "beta")
        assert type(got) is float and got == want


@pytest.mark.parametrize("value, message", [
    ("1", "beta must be a real number, got '1'"),
    (True, "beta must be a real number, got True"),
    (np.bool_(False), "beta must be a real number, got " + repr(np.bool_(False))),
    (None, "beta must be a real number, got None"),
    (Decimal("0.5"), "beta must be a real number, got Decimal('0.5')"),
    (1j, "beta must be a real number, got 1j"),
    (math.nan, "beta must be a finite number in (0.0, 2.0), got nan"),
    (-math.inf, "beta must be a finite number in (0.0, 2.0), got -inf"),
    (0, "beta must be a finite number in (0.0, 2.0), got 0"),
    (2.0, "beta must be a finite number in (0.0, 2.0), got 2.0"),
    (Fraction(5, 2), "beta must be a finite number in (0.0, 2.0), got Fraction(5, 2)"),
])
def test_real_number_says_whether_a_value_is_no_real_number_or_out_of_range(value, message):
    with pytest.raises(InvalidArgumentError) as e:
        real_number(value, "beta", above=0.0, below=2.0)
    assert str(e.value) == message


def test_real_number_bounds_are_strict_and_compared_as_floats():
    assert real_number(np.int8(-1), "q", above=-2.0) == -1.0
    assert real_number(np.float16(1.5), "q", above=-1000.0, below=1e300) == 1.5
    assert real_number(np.nextafter(2.0, 0.0), "beta", above=0.0, below=2.0) < 2.0
    for value in (-2, -2.0, np.float32(-2.0), Fraction(-2)):
        with pytest.raises(InvalidArgumentError, match=r"q must be a finite number in \(-2.0, inf\)"):
            real_number(value, "q", above=-2.0)


def test_real_number_shortens_the_value_it_names():
    for value in (10**400, -(10**400), "x" * 1000, [0.5] * 1000, Fraction(10**400, 3)):
        with pytest.raises(InvalidArgumentError) as e:
            real_number(value, "homogeneity degree", above=-2.0)
        assert len(str(e.value)) < 200


SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
SCALAR_OPTIONS = [
    ("weight exponent", lambda v: rules.gauss_jacobi_unit(4, v)),
    ("homogeneity degree", lambda v: hni.HomogeneousField(lambda x, y: x, v)),
    ("vertex index", CenterPolicy.vertex),
    ("generalized-SB alpha", singular.GeneralizedSB),
    ("beta", singular.select_alpha),
    ("beta", singular.radial_exponent),
    ("alpha", lambda v: singular.radial_exponent(0.5, v)),
    ("beta", lambda v: singular.generate_singular_rule(
        SQUARE, singular.SingularSpec((-1.0, -1.0)), v, 4, 4)),
    ("dx", lambda v: testfns.xfem_integrands("Omega2", v)),
    ("egg a", lambda v: tmvi.EggCurve(v)),
    ("egg b", lambda v: tmvi.EggCurve(4.0, v)),
    ("egg r", lambda v: tmvi.EggCurve(4.0, 5.0, v)),
    ("p", lambda v: tmvi.lp_distance_many(tmvi.egg_domain(), [[0.0, 0.0]], v, 16)),
]
# None is how these two say that the option is absent
ABSENT = {"vertex index": "center strategy 'vertex' needs index",
          "p": "give boundary data g or a power p, not both"}
OPTION_IDS = ["gauss_jacobi_unit", "HomogeneousField", "CenterPolicy.vertex", "GeneralizedSB",
              "select_alpha", "radial_exponent-beta", "radial_exponent-alpha",
              "generate_singular_rule", "xfem_integrands", "EggCurve-a", "EggCurve-b", "EggCurve-r",
              "lp_distance_many"]


@pytest.mark.parametrize("value", ["1", True, None, Decimal("0.5"), 1j, math.nan, math.inf, 10**400],
                         ids=["text", "bool", "none", "decimal", "complex", "nan", "inf", "huge"])
@pytest.mark.parametrize("what, call", SCALAR_OPTIONS, ids=OPTION_IDS)
def test_every_scalar_option_says_whether_a_value_is_no_real_number_or_out_of_range(what, call, value):
    with pytest.raises(InvalidArgumentError) as e:
        call(value)
    message = str(e.value)
    shown = ", got " + reprlib.repr(value)
    if value is None and what in ABSENT:
        assert message == ABSENT[what]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        assert message.startswith(what + " must be a finite number in (") and message.endswith(shown)
    else:
        assert message == what + " must be a real number" + shown
    assert len(message) < 200

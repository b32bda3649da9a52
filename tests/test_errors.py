import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sbcubature.errors import InvalidArgumentError, finite_or_nan, real_array


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
    got = finite_or_nan(value)
    assert type(got) is float and (got == want or math.isnan(got) and math.isnan(want))

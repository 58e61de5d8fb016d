"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_array_1d,
    check_array_2d,
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
    check_shape,
)


class TestScalarChecks:
    def test_positive_accepts(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_nonnegative_rejects(self, bad):
        with pytest.raises(ValueError):
            check_nonnegative("x", bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_fraction_inclusive(self, ok):
        assert check_fraction("f", ok) == ok

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_fraction_exclusive_rejects_bounds(self, bad):
        with pytest.raises(ValueError):
            check_fraction("f", bad, inclusive=False)

    def test_fraction_rejects_outside(self):
        with pytest.raises(ValueError):
            check_fraction("f", 1.2)

    def test_check_in(self):
        assert check_in("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="mode"):
            check_in("mode", "c", ("a", "b"))


class TestArrayChecks:
    def test_shape_exact(self):
        a = np.zeros((3, 4))
        assert check_shape("a", a, (3, 4)) is a

    def test_shape_wildcard(self):
        check_shape("a", np.zeros((7, 4)), (-1, 4))

    def test_shape_wrong_rank(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros(3), (3, 1))

    def test_shape_wrong_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            check_shape("a", np.zeros((3, 5)), (3, 4))

    def test_1d_coerces_list(self):
        out = check_array_1d("v", [1, 2, 3])
        assert out.shape == (3,)

    def test_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d("v", [[1, 2]])

    def test_2d_coerces(self):
        assert check_array_2d("m", [[1.0, 2.0]]).shape == (1, 2)

    def test_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            check_array_2d("m", [1, 2, 3])


class TestScalarCheckTypes:
    """The plain float/int fast path accepts and rejects what numpy does."""

    TYPES = [float, int, np.float64, np.float32, np.int64]

    @pytest.mark.parametrize("kind", TYPES)
    def test_positive_accepts_every_type(self, kind):
        assert check_positive("x", kind(3)) == kind(3)

    @pytest.mark.parametrize("kind", TYPES)
    def test_nonnegative_accepts_zero_of_every_type(self, kind):
        assert check_nonnegative("x", kind(0)) == kind(0)

    @pytest.mark.parametrize("kind", TYPES)
    @pytest.mark.parametrize("bad", [0, -1])
    def test_positive_rejects_nonpositive(self, kind, bad):
        with pytest.raises(ValueError, match="positive finite"):
            check_positive("x", kind(bad))

    @pytest.mark.parametrize("kind", TYPES)
    def test_nonnegative_rejects_negative(self, kind):
        with pytest.raises(ValueError, match="non-negative finite"):
            check_nonnegative("x", kind(-1))

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("check", [check_positive, check_nonnegative])
    def test_non_finite_rejected(self, kind, bad, check):
        with pytest.raises(ValueError, match="finite"):
            check("x", kind(bad))

    def test_negative_zero_is_nonnegative_not_positive(self):
        assert check_nonnegative("x", -0.0) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", -0.0)

    @pytest.mark.parametrize("value", [2**63 - 1, 2**64 - 1, True])
    def test_ints_numpy_takes_are_accepted(self, value):
        assert check_positive("x", value) == value

    @pytest.mark.parametrize("value", [2**64, 10**400, -(2**63) - 1])
    @pytest.mark.parametrize("check", [check_positive, check_nonnegative])
    def test_ints_numpy_refuses_still_raise_type_error(self, value, check):
        with pytest.raises(TypeError):
            check("x", value)

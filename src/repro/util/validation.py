"""Argument-validation helpers.

Small, dependency-free checks used at public API boundaries.  They raise
``ValueError``/``TypeError`` with messages that name the offending
argument, which keeps the individual modules terse.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Tuple

import numpy as np

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_fraction",
    "check_in",
    "check_shape",
    "check_array_1d",
    "check_array_2d",
]


#: Python ints ``np.isfinite`` takes as a fixed-width integer: it raises
#: ``TypeError`` outside ``[-2**63, 2**64)`` and is true inside.
_INT_LO, _INT_HI = -(2**63), 2**64


def _isfinite(value: Any) -> bool:
    """``np.isfinite(value)`` for one scalar, without numpy for float/int.

    Per-second callers pass plain floats and ints, where a numpy call
    costs more than the check; every other type (numpy scalars, bools,
    ints too wide for int64/uint64) goes through numpy unchanged, so
    the values accepted and the errors raised stay the same.
    """
    kind = type(value)
    if kind is float:
        return math.isfinite(value)
    if kind is int and _INT_LO <= value < _INT_HI:
        return True
    return bool(np.isfinite(value))


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not _isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if not _isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Require ``value`` in ``[0, 1]`` (or ``(0, 1)`` when not inclusive)."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Require ``value`` to be a member of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_shape(name: str, array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Require an exact array shape; ``-1`` entries are wildcards."""
    if array.ndim != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {array.shape}"
        )
    for axis, (have, want) in enumerate(zip(array.shape, shape)):
        if want != -1 and have != want:
            raise ValueError(
                f"{name} axis {axis} must have length {want}, got shape {array.shape}"
            )
    return array


def check_array_1d(name: str, array: Any, dtype=None) -> np.ndarray:
    """Convert to a 1-D ndarray, rejecting higher-rank input."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_array_2d(name: str, array: Any, dtype=None) -> np.ndarray:
    """Convert to a 2-D ndarray, rejecting other ranks."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    return out

"""The multi-dimensional resource vector.

Everything in the library — demand samples, allocations, capacities,
telemetry frames — is expressed over the same four dimensions the paper
measures (CPU utilisation via cgroups; GPU and GPU-memory utilisation via
GPU-Z; plus host RAM):

===========  =====================================================
dimension    meaning
===========  =====================================================
``cpu``      host CPU utilisation, percent of the machine (0–100)
``gpu``      GPU-core utilisation of the hosting GPU (0–100)
``gpu_mem``  GPU-memory utilisation of the hosting GPU (0–100)
``ram``      host RAM utilisation, percent of the machine (0–100)
===========  =====================================================

:class:`ResourceVector` is a small value type over a ``(4,)`` float
array.  Hot paths operate on raw arrays; the class exists for API
clarity at module boundaries and is cheap to convert both ways.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Union

import numpy as np

__all__ = [
    "DIMENSIONS",
    "N_DIMS",
    "CPU",
    "GPU",
    "GPU_MEM",
    "RAM",
    "ResourceVector",
    "clip_percent",
]

DIMENSIONS: tuple[str, ...] = ("cpu", "gpu", "gpu_mem", "ram")
N_DIMS: int = len(DIMENSIONS)
CPU, GPU, GPU_MEM, RAM = range(N_DIMS)

VectorLike = Union["ResourceVector", np.ndarray, Iterable[float], Mapping[str, float]]


class ResourceVector:
    """An immutable point in resource space.

    Construct from keyword components, a mapping, an iterable of 4
    floats, or another vector::

        ResourceVector(cpu=35, gpu=60)           # unspecified dims are 0
        ResourceVector.from_array(np.array([35, 60, 40, 20]))

    Supports ``+``, ``-``, scalar ``*``/``/``, element-wise ``max``/
    ``min``, dominance comparison (:meth:`fits_within`) and conversion to
    a plain array (:attr:`array`).
    """

    __slots__ = ("_data",)

    def __init__(self, *, cpu: float = 0.0, gpu: float = 0.0,
                 gpu_mem: float = 0.0, ram: float = 0.0):
        self._data = np.array([cpu, gpu, gpu_mem, ram], dtype=float)
        self._data.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_array(values: Iterable[float]) -> "ResourceVector":
        """Build from any length-4 iterable/array (copied, never aliased)."""
        data = np.array(
            values if isinstance(values, np.ndarray) else list(values), dtype=float
        )
        if data.ndim != 1:
            data = data.flatten()  # a fresh copy: no view kept over ``data``
        if data.shape != (N_DIMS,):
            raise ValueError(f"expected {N_DIMS} components, got shape {data.shape}")
        return ResourceVector._own(data)

    @staticmethod
    def _own(data: np.ndarray) -> "ResourceVector":
        """Wrap a fresh float ``(4,)`` array nothing else references.

        The algebra's results are such arrays already, so they skip
        ``__init__``'s zero vector and :meth:`from_array`'s copy.
        """
        out = object.__new__(ResourceVector)
        data.setflags(write=False)
        out._data = data
        return out

    @staticmethod
    def coerce(value: VectorLike) -> "ResourceVector":
        """Accept a vector, mapping, or iterable and return a vector."""
        # The exact type is the per-tick case; isinstance admits subclasses.
        if type(value) is ResourceVector or isinstance(value, ResourceVector):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - set(DIMENSIONS)
            if unknown:
                raise ValueError(f"unknown resource dimensions: {sorted(unknown)}")
            return ResourceVector(**{k: float(v) for k, v in value.items()})
        return ResourceVector.from_array(value)

    @staticmethod
    def zeros() -> "ResourceVector":
        """The origin."""
        return ResourceVector()

    @staticmethod
    def full(value: float) -> "ResourceVector":
        """All dimensions set to ``value`` (e.g. ``full(100)`` = capacity)."""
        return ResourceVector._own(np.full(N_DIMS, float(value)))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """Read-only backing array of shape ``(4,)``."""
        return self._data

    @property
    def cpu(self) -> float:
        """Host CPU component."""
        return float(self._data[CPU])

    @property
    def gpu(self) -> float:
        """GPU-core component."""
        return float(self._data[GPU])

    @property
    def gpu_mem(self) -> float:
        """GPU-memory component."""
        return float(self._data[GPU_MEM])

    @property
    def ram(self) -> float:
        """Host RAM component."""
        return float(self._data[RAM])

    def __getitem__(self, dim: Union[int, str]) -> float:
        if isinstance(dim, str):
            dim = DIMENSIONS.index(dim)
        return float(self._data[dim])

    def as_dict(self) -> dict[str, float]:
        """Mapping view ``{dimension: value}``."""
        return dict(zip(DIMENSIONS, self._data.tolist()))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: VectorLike) -> "ResourceVector":
        return ResourceVector._own(self._data + ResourceVector.coerce(other)._data)

    def __sub__(self, other: VectorLike) -> "ResourceVector":
        return ResourceVector._own(self._data - ResourceVector.coerce(other)._data)

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._own(self._data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._own(self._data / float(scalar))

    def maximum(self, other: VectorLike) -> "ResourceVector":
        """Element-wise max (the 'peak' combinator)."""
        return ResourceVector._own(
            np.maximum(self._data, ResourceVector.coerce(other)._data)
        )

    def minimum(self, other: VectorLike) -> "ResourceVector":
        """Element-wise min."""
        return ResourceVector._own(
            np.minimum(self._data, ResourceVector.coerce(other)._data)
        )

    def clip(self, lo: float = 0.0, hi: float = np.inf) -> "ResourceVector":
        """Clamp every component into ``[lo, hi]``."""
        return ResourceVector._own(self._data.clip(lo, hi))

    def scale(self, factors: VectorLike) -> "ResourceVector":
        """Element-wise multiply (platform heterogeneity scaling)."""
        return ResourceVector._own(
            self._data * ResourceVector.coerce(factors)._data
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def fits_within(self, capacity: VectorLike, *, slack: float = 1e-9) -> bool:
        """True when every component is ≤ the capacity's (dominance)."""
        cap = ResourceVector.coerce(capacity)._data
        return bool(np.all(self._data <= cap + slack))

    def dominates(self, other: VectorLike, *, slack: float = 1e-9) -> bool:
        """True when every component is ≥ the other's."""
        o = ResourceVector.coerce(other)._data
        return bool(np.all(self._data + slack >= o))

    def is_nonnegative(self) -> bool:
        """True when no component is negative."""
        return bool(np.all(self._data >= -1e-9))

    def max_component(self) -> float:
        """Largest component (the binding dimension under uniform caps)."""
        return float(self._data.max())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return bool(np.allclose(self._data, other._data))

    def __hash__(self) -> int:
        return hash(tuple(np.round(self._data, 9).tolist()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{d}={v:.1f}" for d, v in zip(DIMENSIONS, self._data))
        return f"ResourceVector({parts})"


def clip_percent(values: Iterable[float]) -> List[float]:
    """``np.clip(values, 0.0, 100.0)`` on Python floats, bit for bit.

    The per-second tick clips four floats at a time, where a numpy call
    costs more than the comparisons.  As in numpy, ``-0.0`` and NaN pass
    through unchanged (``max(v, 0.0)`` would not keep the sign).
    """
    return [0.0 if v < 0.0 else (100.0 if v > 100.0 else v) for v in values]

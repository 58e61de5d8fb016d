"""Server model: CPU/RAM host capacity plus discrete GPUs.

The paper's testbed is a 4-core i7 with two GTX-2080 GPUs; each game is
deployed on exactly one GPU (§IV-C: "each game is deployed on a single
GPU device rather than across multiple GPUs").  The server therefore
tracks host-wide CPU/RAM and per-GPU GPU/GPU-memory allocations
separately — co-location pressure on the CPU is global, on the GPU it is
per-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.platform_.resources import ResourceVector
from repro.util.validation import check_positive

__all__ = ["GPUDevice", "Placement", "Server", "CapacityError"]


class CapacityError(ValueError):
    """Raised when an operation would exceed server capacity."""


@dataclass
class GPUDevice:
    """One discrete GPU with its own core and memory capacity (percent)."""

    gpu_capacity: float = 100.0
    gpu_mem_capacity: float = 100.0
    name: str = "gpu"

    def __post_init__(self) -> None:
        check_positive("gpu_capacity", self.gpu_capacity)
        check_positive("gpu_mem_capacity", self.gpu_mem_capacity)


@dataclass
class Placement:
    """A session hosted on a server: which GPU it is pinned to and the
    cgroup-like ceiling currently granted to it."""

    session_id: str
    gpu_index: int
    allocation: ResourceVector


class Server:
    """A cloud-game backend server.

    Parameters
    ----------
    server_id:
        Unique name.
    cpu_capacity, ram_capacity:
        Host-wide capacities in percent (default 100).
    gpus:
        GPU devices; default two identical 100 %/100 % devices (matching
        the paper's dual-GTX-2080 host).

    Notes
    -----
    * Placement is *admission*: :meth:`place` reserves an allocation and
      raises :class:`CapacityError` when the reservation does not fit.
    * :meth:`set_allocation` retunes a hosted session's ceiling (what the
      scheduler does every 5-second control tick).
    * ``Server`` does not model *usage* — that is telemetry, produced by
      the simulation from sessions' demand and their ceilings.
    * The summed allocations are cached and re-summed, in placement
      order, after every :meth:`place`, :meth:`set_allocation` and
      :meth:`remove`; change a ceiling only through those methods.
    """

    def __init__(
        self,
        server_id: str,
        *,
        cpu_capacity: float = 100.0,
        ram_capacity: float = 100.0,
        gpus: Optional[Iterable[GPUDevice]] = None,
    ):
        check_positive("cpu_capacity", cpu_capacity)
        check_positive("ram_capacity", ram_capacity)
        self.server_id = str(server_id)
        self.cpu_capacity = float(cpu_capacity)
        self.ram_capacity = float(ram_capacity)
        self.gpus: List[GPUDevice] = list(gpus) if gpus is not None else [
            GPUDevice(name="gpu0"),
            GPUDevice(name="gpu1"),
        ]
        if not self.gpus:
            raise ValueError("a server needs at least one GPU")
        self._placements: Dict[str, Placement] = {}
        # Summed (cpu, ram) and per-GPU (gpu, gpu_mem) allocations, as
        # ``sum()`` over the placements returns them (int 0 when empty).
        self._host: Tuple[float, float] = (0, 0)
        self._dev: List[Tuple[float, float]] = [(0, 0)] * len(self.gpus)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        """Number of GPU devices."""
        return len(self.gpus)

    @property
    def placements(self) -> Dict[str, Placement]:
        """Read-only view of hosted sessions."""
        return dict(self._placements)

    def placement_of(self, session_id: str) -> Optional[Placement]:
        """One hosted session's placement, or ``None`` (no dict copy)."""
        return self._placements.get(session_id)

    @property
    def session_ids(self) -> List[str]:
        """Hosted session ids."""
        return list(self._placements)

    def capacity_vector(self, gpu_index: int) -> ResourceVector:
        """Capacity as seen by a session pinned to ``gpu_index``."""
        return ResourceVector.from_array(self.capacity_components(gpu_index))

    def capacity_components(self, gpu_index: int) -> List[float]:
        """:meth:`capacity_vector` as four floats (cpu, gpu, gpu_mem, ram)."""
        gpu = self._gpu(gpu_index)
        return [
            self.cpu_capacity,
            float(gpu.gpu_capacity),
            float(gpu.gpu_mem_capacity),
            self.ram_capacity,
        ]

    def _gpu(self, gpu_index: int) -> GPUDevice:
        if not (0 <= gpu_index < len(self.gpus)):
            raise IndexError(
                f"gpu_index {gpu_index} out of range for {len(self.gpus)} GPUs"
            )
        return self.gpus[gpu_index]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _resum(self) -> None:
        """Re-derive the cached totals: one fresh ``sum()`` per dimension,
        over the placements in insertion order."""
        cpu: List[float] = []
        ram: List[float] = []
        dev: List[Tuple[List[float], List[float]]] = [([], []) for _ in self.gpus]
        for p in self._placements.values():
            c, g, m, r = p.allocation.array.tolist()
            cpu.append(c)
            ram.append(r)
            core, mem = dev[p.gpu_index]
            core.append(g)
            mem.append(m)
        self._host = (sum(cpu), sum(ram))
        self._dev = [(sum(core), sum(mem)) for core, mem in dev]

    def allocated_host(self) -> np.ndarray:
        """Summed (cpu, ram) allocation over all sessions."""
        return np.array(self._host)

    def allocated_gpu(self, gpu_index: int) -> np.ndarray:
        """Summed (gpu, gpu_mem) allocation on one device."""
        self._gpu(gpu_index)
        return np.array(self._dev[gpu_index])

    def available_components(self, gpu_index: int) -> List[float]:
        """:meth:`available` as four floats (cpu, gpu, gpu_mem, ram)."""
        gpu = self._gpu(gpu_index)
        cpu, ram = self._host
        g, m = self._dev[gpu_index]
        return [
            self.cpu_capacity - cpu,
            gpu.gpu_capacity - g,
            gpu.gpu_mem_capacity - m,
            self.ram_capacity - ram,
        ]

    def available(self, gpu_index: int) -> ResourceVector:
        """Remaining capacity for a new session pinned to ``gpu_index``."""
        return ResourceVector.from_array(self.available_components(gpu_index))

    def headroom_fraction(self) -> float:
        """Smallest relative slack across host dims and all GPU dims."""
        host = self.allocated_host()
        fracs = [
            1.0 - host[0] / self.cpu_capacity,
            1.0 - host[1] / self.ram_capacity,
        ]
        for i, gpu in enumerate(self.gpus):
            dev = self.allocated_gpu(i)
            fracs.append(1.0 - dev[0] / gpu.gpu_capacity)
            fracs.append(1.0 - dev[1] / gpu.gpu_mem_capacity)
        return float(min(fracs))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fits(self, allocation: ResourceVector, gpu_index: int) -> bool:
        """Whether a new allocation on ``gpu_index`` would fit."""
        return allocation.fits_within(self.available(gpu_index))

    def place(
        self, session_id: str, gpu_index: int, allocation: ResourceVector
    ) -> Placement:
        """Admit a session with an initial allocation.

        Raises
        ------
        CapacityError
            If the allocation does not fit on the host or the device.
        ValueError
            If the session is already placed or the allocation is negative.
        """
        if session_id in self._placements:
            raise ValueError(f"session {session_id!r} is already placed")
        if not allocation.is_nonnegative():
            raise ValueError(f"allocation must be non-negative, got {allocation}")
        if not self.fits(allocation, gpu_index):
            raise CapacityError(
                f"allocation {allocation} does not fit on {self.server_id}/gpu{gpu_index} "
                f"(available {self.available(gpu_index)})"
            )
        placement = Placement(session_id, int(gpu_index), allocation)
        self._placements[session_id] = placement
        self._resum()
        return placement

    def set_allocation(self, session_id: str, allocation: ResourceVector) -> None:
        """Retune a hosted session's ceiling (cgroup update).

        The new allocation must keep the server within capacity.
        """
        placement = self._require(session_id)
        if not allocation.is_nonnegative():
            raise ValueError(f"allocation must be non-negative, got {allocation}")
        old, totals = placement.allocation, (self._host, self._dev)
        placement.allocation = allocation
        self._resum()
        if self._over_capacity():
            placement.allocation = old
            self._host, self._dev = totals
            raise CapacityError(
                f"allocation {allocation} for {session_id!r} exceeds capacity"
            )

    def _over_capacity(self) -> bool:
        """Whether the summed allocations exceed any capacity."""
        cpu, ram = self._host
        if cpu > self.cpu_capacity + 1e-9 or ram > self.ram_capacity + 1e-9:
            return True
        for g, (core, mem) in zip(self.gpus, self._dev):
            if core > g.gpu_capacity + 1e-9 or mem > g.gpu_mem_capacity + 1e-9:
                return True
        return False

    def remove(self, session_id: str) -> Placement:
        """Release a session's reservation."""
        placement = self._require(session_id)
        del self._placements[session_id]
        self._resum()
        return placement

    def _require(self, session_id: str) -> Placement:
        try:
            return self._placements[session_id]
        except KeyError:
            raise KeyError(f"session {session_id!r} is not placed on {self.server_id}") from None

    def least_loaded_gpu(self) -> int:
        """GPU index with the most remaining core capacity."""
        slack = [
            g.gpu_capacity - self.allocated_gpu(i)[0] for i, g in enumerate(self.gpus)
        ]
        return int(np.argmax(slack))

    def __repr__(self) -> str:
        return (
            f"Server({self.server_id!r}, sessions={len(self._placements)}, "
            f"gpus={len(self.gpus)})"
        )

"""The strategy interface the experiment driver schedules through.

A strategy owns admission (may this game join the server?), allocation
(what ceiling does each hosted session get right now?), and the periodic
control reaction to telemetry.  It mutates the server exclusively through
the :class:`~repro.platform_.allocator.Allocator` it is attached to, so
capacity conservation is enforced uniformly across strategies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Sequence

from repro.core.pipeline import GameProfile
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.resources import ResourceVector
from repro.sim.telemetry import TelemetryRecorder

__all__ = ["SchedulingStrategy"]


class SchedulingStrategy(ABC):
    """Base class for scheduling strategies.

    Lifecycle: :meth:`attach` once, then per simulated run —
    :meth:`try_admit` (or :meth:`try_admit_lazy`) when a request is
    pending, :meth:`control` every detection interval, :meth:`release`
    on completion.
    """

    #: Human-readable strategy name (used in benchmark tables).
    name: str = "strategy"

    def __init__(self) -> None:
        self.allocator: Optional[Allocator] = None
        self.profiles: Dict[str, GameProfile] = {}
        self.admissions = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    def attach(self, allocator: Allocator, profiles: Dict[str, GameProfile]) -> None:
        """Bind to a server and the offline game profiles."""
        self.allocator = allocator
        self.profiles = dict(profiles)

    def _require_attached(self) -> Allocator:
        if self.allocator is None:
            raise RuntimeError(f"{type(self).__name__} is not attached to a server")
        return self.allocator

    def profile_of(self, session: GameSession) -> GameProfile:
        """The offline profile of a session's game."""
        return self.profile_named(session.spec.name)

    def profile_named(self, game: str) -> GameProfile:
        """The offline profile of one game, by name."""
        try:
            return self.profiles[game]
        except KeyError:
            raise KeyError(
                f"no profile for game {game!r}; have {sorted(self.profiles)}"
            ) from None

    # ------------------------------------------------------------------
    @abstractmethod
    def try_admit(self, session: GameSession, *, time: float) -> bool:
        """Admission test; on success the session must be placed."""

    def try_admit_lazy(
        self,
        session_id: str,
        game: str,
        build: Callable[[], GameSession],
        *,
        time: float,
    ) -> Optional[GameSession]:
        """Admission for a session that is only built if it is admitted.

        Returns the placed session, or ``None`` on rejection.  The
        default builds the session and asks :meth:`try_admit`; a strategy
        that can decide from the game alone overrides this to reject
        without building one.  ``session_id`` is the id ``build()``'s
        session will carry.
        """
        session = build()
        return session if self.try_admit(session, time=time) else None

    @abstractmethod
    def release(self, session_id: str, *, time: float) -> None:
        """Free a finished session's reservation."""

    def control(self, time: float, telemetry: TelemetryRecorder) -> None:
        """Periodic reaction to telemetry (static strategies do nothing)."""

    def allocation_of(self, session_id: str) -> ResourceVector:
        """Current ceiling of a hosted session."""
        return self._require_attached().allocation_of(session_id)

    def degraded_sessions(self) -> Sequence[str]:
        """Sessions running in degraded (fault-fallback) mode.

        Static strategies have no degraded mode; CoCG reports sessions
        whose predictor circuit breaker is open.
        """
        return ()

    def order_requests(self, pending: list) -> list:
        """Order pending requests before admission attempts.

        The default is the driver's fair rotation; CoCG overrides this
        with the regulator's §IV-C2 length-aware policy (prefer short
        games when headroom is tight).
        """
        return pending

    @property
    def detect_interval(self) -> int:
        """Seconds between :meth:`control` invocations."""
        return 5

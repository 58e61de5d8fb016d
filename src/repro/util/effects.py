"""Declared effect signatures — the contract half of the effect system.

The lint analyzer (:mod:`repro.lint.effects`) *infers* what a function
does — RNG draws, clock reads, module/class-level state writes, engine
event emission, digest writes, file/console I/O — by a fixpoint over the
project call graph.  :func:`effects` is the matching *declaration*: a
zero-runtime-cost decorator that states the effects a function is
allowed to have, so rule **CG016** can fail the build when the two
drift apart, and rule **CG018** can hold the Algorithm-1/rollout hot
path to purity (no effects beyond declared RNG), which is what makes a
future vectorised or compiled kernel swap provably behaviour-preserving.

"Zero runtime cost" is literal: the decorator stores two attributes on
the function object at import time and returns the function unchanged —
no wrapper, no extra frame, nothing on the call path.  The analyzer
never imports the decorated module at all; it reads the decoration
statically from the AST.

Usage::

    from repro.util.effects import effects

    @effects()                       # declared pure
    def score(xs): ...

    @effects("rng")                  # may draw from a (seeded) stream
    def sample(rng): ...

    @effects("rng", hot_path=True)   # pure-but-RNG *and* on the hot path
    def rollout(...): ...            # (CG018 enforces the purity)

One more zero-cost marker follows the same pattern: :func:`shard_entry`
names a function as the top of one partitioned event stream
(``@shard_entry("region:shard")``).  Rule CG015 walks forward from every
entry and fails the build when reachable code writes module- or
class-level state; whether shards really share nothing at run time is
checked by running them apart (``tests/test_fleet.py``).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, TypeVar

__all__ = ["EFFECTS", "EffectError", "effects", "declared_effects",
           "is_hot_path", "shard_entry", "shard_entry_group"]

#: The effect alphabet, in canonical (report) order.  A signature is a
#: subset of this; the lattice is subset inclusion with union as join.
EFFECTS = (
    "rng",           # draws from a random stream
    "clock",         # reads the wall clock
    "global_write",  # writes module- or class-level mutable state
    "engine_emit",   # schedules simulation-engine events
    "digest_write",  # records into the replay digest / telemetry plane
    "io",            # file or console I/O
)

_EFFECT_SET = frozenset(EFFECTS)

#: Attribute names the decorators store (and the analyzer mirrors).
ATTR_EFFECTS = "__cocg_effects__"
ATTR_HOT_PATH = "__cocg_hot_path__"
ATTR_SHARD_ENTRY = "__cocg_shard_entry__"

_F = TypeVar("_F", bound=Callable)


class EffectError(ValueError):
    """An ``@effects(...)`` declaration names an unknown effect."""


def effects(*names: str, hot_path: bool = False) -> Callable[[_F], _F]:
    """Declare a function's effect signature.

    Parameters
    ----------
    names:
        Effects the function (including everything it calls) is allowed
        to have, drawn from :data:`EFFECTS`.  No names declares the
        function pure.
    hot_path:
        Mark the function as part of the Algorithm-1/rollout hot path.
        CG018 then requires its *inferred* signature to be empty except
        for declared ``rng``.

    The decorator validates eagerly at import time — a typo'd effect
    name fails the first test run, not a later lint pass — then returns
    the function unchanged.
    """
    unknown = sorted(set(names) - _EFFECT_SET)
    if unknown:
        raise EffectError(
            f"unknown effect(s) {', '.join(unknown)}; "
            f"expected a subset of {{{', '.join(EFFECTS)}}}"
        )
    declared = frozenset(names)

    def decorate(fn: _F) -> _F:
        setattr(fn, ATTR_EFFECTS, declared)
        setattr(fn, ATTR_HOT_PATH, bool(hot_path))
        return fn

    return decorate


def declared_effects(fn: Callable) -> Optional[FrozenSet[str]]:
    """The declared signature, or ``None`` when ``fn`` is undeclared."""
    return getattr(fn, ATTR_EFFECTS, None)


def is_hot_path(fn: Callable) -> bool:
    """Whether ``fn`` was declared ``hot_path=True``."""
    return bool(getattr(fn, ATTR_HOT_PATH, False))


def shard_entry(group: str) -> Callable[[_F], _F]:
    """Declare a function as a shard entry point of partition ``group``.

    A shard entry point is the top of one partitioned event stream —
    ``FleetExperiment.run``, the gateway ``pump``, cluster
    ``dispatch``/``submit``.  The analyzer reads the decoration
    statically and rule CG015 walks forward from every entry, flagging
    reachable writes to module- or class-level state.

    Groups come in two spellings: a bare name (``"fleet"``) or a
    ``family:member`` pair (``"region:controller"``), where the part
    before the colon names the partition template the entry runs on.

    Like :func:`effects`, the decorator stores one attribute at import
    time and returns the function unchanged — nothing on the call path.
    The group name is validated eagerly so a typo fails the first
    import, not a later lint pass.
    """
    parts = group.split(":") if isinstance(group, str) else []
    if not (1 <= len(parts) <= 2) or not all(
            p and p.replace("-", "_").isidentifier() for p in parts):
        raise EffectError(
            f"shard_entry group must be a non-empty identifier-like "
            f"string or a 'family:member' pair, got {group!r}"
        )

    def decorate(fn: _F) -> _F:
        setattr(fn, ATTR_SHARD_ENTRY, group)
        return fn

    return decorate


def shard_entry_group(fn: Callable) -> Optional[str]:
    """The declared shard group, or ``None`` when ``fn`` is not an entry."""
    return getattr(fn, ATTR_SHARD_ENTRY, None)


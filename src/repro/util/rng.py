"""Seeded random-number-generator helpers.

The whole library follows one rule: *no global randomness*.  Every
stochastic component accepts a ``seed`` argument which may be

* ``None`` — a fresh, OS-seeded generator (non-reproducible; only for
  interactive exploration),
* an ``int`` — a deterministic :class:`numpy.random.Generator`,
* an existing :class:`numpy.random.Generator` — used as-is (shared state).

Components that own several independent random streams (e.g. one per
co-located game session) should split their generator with
:func:`spawn_rngs` instead of reusing a single stream, so that adding a
session never perturbs the samples drawn by its neighbours.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

Seed = Union[None, int, np.random.Generator]

__all__ = ["Seed", "as_rng", "spawn_rngs", "stable_hash"]


def as_rng(seed: Seed = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None``, an integer seed, or an existing generator.

    Returns
    -------
    numpy.random.Generator
        A generator.  When ``seed`` is already a generator it is returned
        unchanged (not copied), so the caller shares its state.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: Seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses :class:`numpy.random.SeedSequence` spawning so the children are
    independent of each other *and* of the parent stream.

    Parameters
    ----------
    seed:
        Parent seed or generator.
    n:
        Number of children, ``n >= 0``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the parent's bit generator state by drawing
        # one 64-bit word per child; deterministic given the parent state.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def stable_hash(text: str, mod: Optional[int] = None) -> int:
    """Deterministic non-cryptographic string hash (FNV-1a, 64-bit).

    Python's builtin :func:`hash` is salted per process, which would break
    reproducibility whenever a seed is derived from a name (e.g. a game
    title or player id).  This hash is stable across processes and runs.

    Parameters
    ----------
    text:
        String to hash.
    mod:
        Optional modulus; when given the result is reduced into
        ``[0, mod)``.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    if mod is not None:
        if mod <= 0:
            raise ValueError(f"mod must be positive, got {mod}")
        h %= mod
    return h


def derive_seed(seed: Seed, *names: str) -> int:
    """Derive a deterministic integer seed from a base seed and names.

    Useful to give each named entity (game, player, server) its own
    reproducible stream: ``derive_seed(1234, "genshin", "player-7")``.
    """
    base = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    h = base & 0xFFFFFFFFFFFFFFFF
    for name in names:
        h = (h * 0x9E3779B97F4A7C15 + stable_hash(name)) & 0xFFFFFFFFFFFFFFFF
    return h


__all__.append("derive_seed")


def region_seed(seed: Seed, name: str) -> int:
    """The seed of one regional shard's randomness.

    Every stream a region owns — arrivals, session seeds, node
    telemetry noise — descends from ``derive_seed(seed, "region",
    name)``, so two regions of the same fleet never draw correlated
    samples and a region is replayable from ``(base seed, name)``
    alone.  Centralised here so the ``"region"`` namespace has exactly
    one owner.
    """
    return derive_seed(seed, "region", name)


__all__.append("region_seed")

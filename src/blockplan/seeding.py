"""Deterministic seed derivation.

Every stochastic operation in the library takes an explicit seed. Seeds for
nested work units (beam / step / branch / control index) are derived from the
root seed plus the unit's indices, never from call order, so results are
identical under any execution interleaving.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

SeedLike = int | Iterable[int]


def seed_tuple(seed: SeedLike) -> tuple[int, ...]:
    """Normalize a seed to a tuple of non-negative ints."""
    if isinstance(seed, (int, np.integer)):
        tags = (int(seed),)
    else:
        tags = tuple(map(int, seed))
    if tags and min(tags) < 0:
        raise ValueError(f"seed components must be non-negative, got {tags}")
    return tags


def derive(seed: SeedLike, *indices: int) -> tuple[int, ...]:
    """Extend a seed with work-unit indices, yielding a new seed."""
    return seed_tuple(seed) + tuple(map(int, indices))


def rng_from(seed: SeedLike) -> np.random.Generator:
    """Build a generator from a (possibly composite) seed.

    Its entropy is the uint32 words numpy's `SeedSequence` makes of the list
    of seed components: each component's little-endian 32-bit chunks, and
    ``[0]`` for a 0. Handing over those words as one array gives the same
    pool, so the same stream, without an array per component.
    """
    words = []
    for t in seed_tuple(seed):
        words.append(t & 0xFFFFFFFF)
        while t := t >> 32:
            words.append(t & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))

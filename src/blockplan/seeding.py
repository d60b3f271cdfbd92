"""Deterministic seed derivation.

Every stochastic operation in the library takes an explicit seed. Seeds for
work units (a search step's proposal, one closed-loop call, one replay) are
derived from the root seed plus the unit's indices, never from call order,
so results are identical under any execution interleaving. numpy pads a
seed of fewer than four words with zeros, so ``(5,)`` and ``(5, 0)`` seed
one generator; a seed that ends in a nonzero salt is never the padded form
of a shorter one.

A plan's rollouts draw from one counter-based generator instead (Philox,
Salmon et al., SC 2011): `rollout_streams` keys it once from the plan's seed,
and each rollout's stream is that generator with its counter set to the
rollout's indices, so no stream needs a seeding hash of its own.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable

import numpy as np

SeedLike = int | Iterable[int]
# The generator type, spelled so that importing a module leaves numpy.random
# unloaded: it loads on the first generator built.
Rng = "np.random.Generator"


def seed_tuple(seed: SeedLike) -> tuple[int, ...]:
    """Normalize a seed to a tuple of non-negative ints. A negative or
    non-integral component raises at once: cut to an int it would seed
    another work unit's stream."""
    try:
        tags = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
        ints = tuple(map(operator.index, tags))
    except TypeError:
        ints = None
    if ints is None or (ints and min(ints) < 0):
        raise ValueError(f"seed components must be non-negative integers, got {seed!r}")
    return ints


def derive(seed: SeedLike, *indices: int) -> tuple[int, ...]:
    """Extend a seed with work-unit indices, yielding a new seed."""
    return seed_tuple(seed) + seed_tuple(indices)


def _words(seed: SeedLike) -> list[int]:
    """The uint32 words numpy's `SeedSequence` makes of the list of seed
    components: each component's little-endian 32-bit chunks, and ``[0]``
    for a 0."""
    words = []
    for t in seed_tuple(seed):
        words.append(t & 0xFFFFFFFF)
        while t := t >> 32:
            words.append(t & 0xFFFFFFFF)
    return words


def rng_from(seed: SeedLike) -> Rng:
    """Build a generator from a (possibly composite) seed.

    Its entropy is `_words` of the seed, handed over as one array: the same
    pool, so the same stream, as the list of components, without an array
    per component.
    """
    words = np.array(_words(seed), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def rollout_streams(prefix: SeedLike) -> Callable[..., Rng]:
    """One keyed Philox4x64 generator for the rollouts of a plan, and
    ``stream(salt, b, h, i, j)``, which sets its counter to
    ``[0, salt, b << 32 | h, i << 32 | j]`` and returns it reset.

    The key is ``SeedSequence(_words(prefix)).generate_state(2, uint64)``.
    Draws advance the counter from its low word, so two streams of distinct
    indices meet only after one has drawn 2**64 blocks of four words. The
    salt must fit one 64-bit word and each other index one 32-bit word: one
    past its word would share its counter with another rollout's, so it
    raises. Every stream is the one generator: a caller may draw from a
    stream only until it asks for the next.
    """
    key = np.random.SeedSequence(_words(prefix)).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    state = rng.bit_generator.state

    def stream(salt: int, b: int, h: int, i: int, j: int) -> Rng:
        # A negative int shifts to -1, so this also refuses negative indices.
        if salt >> 64 or (b | h | i | j) >> 32:
            raise ValueError(f"rollout stream index past its word: {(salt, b, h, i, j)}")
        state["state"]["counter"] = [0, salt, b << 32 | h, i << 32 | j]
        rng.bit_generator.state = state
        return rng

    return stream

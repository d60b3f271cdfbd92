"""Deterministic seed derivation.

Every stochastic operation in the library takes an explicit seed. Seeds for
nested work units (beam / step / branch / control index) are derived from the
root seed plus the unit's indices, never from call order, so results are
identical under any execution interleaving.

`rng_words` hashes a whole grid of sibling seeds at once, with numpy's
`SeedSequence` algorithm written out over uint32 arrays, and `rng_from_words`
turns one of its rows into the generator `rng_from` makes of that seed.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

import numpy as np

SeedLike = int | Iterable[int]
# The generator type, spelled so that importing a module leaves numpy.random
# unloaded: it loads on the first generator built.
Rng = "np.random.Generator"

# numpy's SeedSequence (numpy/random/bit_generator.pyx): the hash constants of
# its pool of 4 uint32 words and of `generate_state`, and the mix multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]


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


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k in 0..n, as uint32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# `generate_state(4, uint64)` hashes 8 uint32 words out of the pool, cycling it.
_STATE_CONSTS = _powers(_INIT_B, _MULT_B, 8)


def _hash(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """`SeedSequence`'s hash of ``x`` with each constant but the last in
    turn: xor with it, multiply by the next, fold the high half down."""
    h = (x ^ consts[:-1]) * consts[1:]
    h ^= h >> _SHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _SHIFT
    return r


def rng_words(prefix: SeedLike, *shape: int, start: int = 0) -> np.ndarray:
    """The PCG64 seed words of ``rng_from(derive(prefix, *idx))`` for every
    index ``idx`` of a grid of ``shape`` whose first axis starts at
    ``start``, as one read-only ``(*shape, 4)`` uint64 array; `rng_from_words`
    of a row is that generator. An index is one uint32 word, so one at or
    past 2**32 raises `ValueError`.

    This is `SeedSequence`'s `mix_entropy` into a pool of 4 and its
    ``generate_state(4, uint64)``, run on uint32 arrays; the k-th hash of
    the mix uses ``INIT_A * MULT_A**k``. Each word is an array that varies
    along its own grid axis at most, so the pool grows to the grid's size
    only as the indices are mixed in. The cost is per numpy operation, so
    one call should cover as many seeds as possible.
    """
    shape = seed_tuple(shape)
    starts = seed_tuple(start) + (0,) * len(shape)
    if any(s + n > 2**32 for s, n in zip(starts, shape)):
        raise ValueError(f"grid of shape {shape} from {start} has an index past 2**32 - 1")
    ones = (1,) * len(shape)
    cols = [np.full(ones, w, np.uint32) for w in _words(prefix)]
    cols += [
        np.arange(s, s + n, dtype=np.uint32).reshape(ones[:k] + (n,) + ones[k + 1 :])
        for k, (s, n) in enumerate(zip(starts, shape))
    ]
    cols += [np.zeros(ones, np.uint32)] * (4 - len(cols))
    consts = _powers(_INIT_A, _MULT_A, 4 * len(cols))
    # The first 4 words seed the pool, each pool word is mixed into the other
    # three, then each further word into all four.
    pool = _hash(np.stack(np.broadcast_arrays(*cols[:4]), -1), consts[0:5])
    k = 4
    for s, others in enumerate(_OTHERS):
        pool[..., others] = _mix(pool[..., others], _hash(pool[..., s, None], consts[k : k + 4]))
        k += 3
    for w in cols[4:]:
        pool = _mix(pool, _hash(w[..., None], consts[k : k + 5]))
        k += 4
    state = _hash(pool[..., [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@functools.cache
def _words_seed() -> type:
    """An `ISeedSequence` that gives `PCG64` a row of `rng_words` as its seed
    words; made on first use, so that importing the package leaves
    numpy.random unloaded."""

    class WordsSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = np.ascontiguousarray(words, np.uint64)
            if self.words.shape != (4,):
                raise ValueError(f"PCG64 takes 4 seed words, got shape {self.words.shape}")

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}")
            return self.words

    return WordsSeed


def rng_from_words(words: np.ndarray) -> Rng:
    """The generator a row of `rng_words` seeds."""
    return np.random.Generator(np.random.PCG64(_words_seed()(words)))

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockplan import seeding
from blockplan.seeding import derive, rng_from, rng_from_words, rng_words, seed_tuple


def test_int_normalizes_to_singleton():
    assert seed_tuple(5) == (5,)
    assert seed_tuple(np.int64(5)) == (5,)


def test_iterable_passthrough():
    assert seed_tuple((1, 2, 3)) == (1, 2, 3)
    assert seed_tuple([4]) == (4,)


def test_negative_rejected():
    with pytest.raises(ValueError):
        seed_tuple(-1)
    with pytest.raises(ValueError):
        seed_tuple((0, -2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive(0, -1),
        lambda: derive(0, 2.7),
        lambda: derive((0, 2.0), 1),
        lambda: derive(0, np.float64(3.0)),
        lambda: derive(0, "1"),
        lambda: seed_tuple(2.7),
        lambda: seed_tuple((1, None)),
        lambda: rng_words((0, -1), 2),
        lambda: rng_words(0.5, 2),
        lambda: rng_words(0, -2),
        lambda: rng_words(0, 2.0),
    ],
)
def test_bad_components_rejected_when_given(call):
    """A negative or non-integral component raises as soon as it is given,
    with the one message: cut to an int, 2.7 would seed unit 2's stream, and
    a negative one would reach numpy as an `OverflowError`."""
    with pytest.raises(ValueError, match="seed components must be non-negative integers"):
        call()


def test_integral_components_kept():
    assert derive(np.int64(3), np.uint8(1), True) == (3, 1, 1)
    assert all(type(t) is int for t in derive(np.int64(3), np.uint8(1)))


def test_derive_appends_indices():
    assert derive(7, 1, 2) == (7, 1, 2)
    assert derive((7, 1), 2) == (7, 1, 2)


def test_rng_deterministic():
    a = rng_from((3, 1)).random(4)
    b = rng_from((3, 1)).random(4)
    assert np.array_equal(a, b)


def test_sibling_streams_differ():
    a = rng_from(derive(0, 1)).random(4)
    b = rng_from(derive(0, 2)).random(4)
    assert not np.array_equal(a, b)


def test_short_seeds_pad_with_zeros():
    """numpy pads a seed of fewer than four words with zeros, so a seed and
    its zero-extended forms up to four words build one generator: why a
    closed-loop seed ends in a nonzero salt."""
    state = rng_from((5,)).bit_generator.state
    assert rng_from((5, 0)).bit_generator.state == state
    assert rng_from((5, 0, 0, 0)).bit_generator.state == state
    assert rng_from((5, 0, 0, 0, 0)).bit_generator.state != state


def test_nesting_not_flattening():
    # (1, 23) and (12, 3) must not collide: components are SeedSequence
    # spawn keys, not concatenated digits.
    a = rng_from((1, 23)).random(4)
    b = rng_from((12, 3)).random(4)
    assert not np.array_equal(a, b)


# Word boundaries of numpy's int-to-uint32 split, and ints of several words.
COMPONENT = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]),
    st.integers(0, 2**32 - 1),
    st.integers(2**64, 2**200),
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.one_of(COMPONENT, st.lists(COMPONENT, max_size=10).map(tuple)))
def test_rng_from_equals_numpy_list_seeding(seed):
    """The oracle is numpy's own seeding from the list of seed components,
    which `rng_from` used before it built the entropy words itself."""
    got = rng_from(seed)
    want = np.random.default_rng(np.random.SeedSequence(list(seed_tuple(seed))))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random() == want.random()
    assert got.normal() == want.normal()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.one_of(COMPONENT, st.lists(COMPONENT, min_size=1, max_size=4).map(tuple)),
    st.lists(st.integers(0, 16), min_size=1, max_size=4).filter(lambda s: math.prod(s) <= 600),
)
@example((0, 7, 0, 2), [2, 16, 4, 4])  # the default plan's B x H x A x D
@example((0, 7, 0, 2), [2, 17, 4, 4])  # as the planner hashes it, with step 0
@example((2**32 - 1, 2**32, 2**64, 0), [16, 3])
def test_rng_words_equal_rng_from(prefix, shape):
    """Every row of the bulk form seeds the generator `rng_from` makes of its
    seed: the same state, and the same first draws."""
    words = rng_words(prefix, *shape)
    assert words.shape == (*shape, 4) and words.dtype == np.uint64
    assert not words.flags.writeable
    for idx in itertools.product(*map(range, shape)):
        got = rng_from_words(words[idx])
        want = rng_from(derive(prefix, *idx))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random() == want.random()
        assert got.normal() == want.normal()


@pytest.mark.parametrize("shape", [(2**32 + 1,), (2**33,), (1, 2**32 + 1), (2**40, 3)])
def test_rng_words_refuses_an_axis_past_a_word(shape):
    """An index of 2**32 or more would wrap in a uint32 word and seed another
    index's generator; a grid axis that long raises before anything is
    allocated."""
    with pytest.raises(ValueError):
        rng_words(0, *shape)


@pytest.mark.parametrize("n_words", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64, "u8", np.int64, np.float64])
def test_words_seed_gives_only_four_uint64_words(n_words, dtype):
    """The `ISeedSequence` behind `rng_from_words` answers only PCG64's own
    request; any other request raises rather than return the wrong words."""
    row = rng_words((3, 1), 2)[1]
    seed = seeding._words_seed()(row)
    if n_words == 4 and np.dtype(dtype) == np.uint64:
        assert np.array_equal(seed.generate_state(n_words, dtype), row)
    else:
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)


@pytest.mark.parametrize("words", [np.zeros(3, np.uint64), np.zeros((2, 4), np.uint64)])
def test_words_seed_takes_one_row(words):
    with pytest.raises(ValueError):
        rng_from_words(words)


def test_import_leaves_numpy_random_unloaded():
    """Importing the package and its CLI does not load numpy.random: the
    `ISeedSequence` of `rng_from_words` is made on first use, which keeps it
    out of every command's set-up time."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, blockplan, blockplan.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

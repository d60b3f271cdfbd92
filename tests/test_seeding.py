import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockplan.seeding import derive, rng_from, rollout_streams, seed_tuple


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
        lambda: rollout_streams((0, -1)),
        lambda: rollout_streams(0.5),
        lambda: rollout_streams((-3,)),
        lambda: rollout_streams((0, 2.0)),
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


def test_known_first_draws():
    """Committed first draws of one rollout stream and one `rng_from`
    generator: a numpy release that changes ``SeedSequence``, ``Philox`` or
    ``PCG64`` fails here first, and with it every trace."""
    rng = rollout_streams((7, 2))(3, 1, 16, 2, 3)
    assert rng.random() == 0.14527167118573692
    normal = rng.normal(size=(15, 2))
    assert normal[0].tolist() == [-0.15969666120424172, -0.16115959726229978]
    assert normal[-1].tolist() == [-2.1226090521417227, -0.08279649729482694]
    assert rng_from((7, 2)).random() == 0.277970282193581


WORD = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
INDICES = st.tuples(WORD, WORD, WORD, WORD, WORD)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(INDICES, INDICES)
@example((0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
@example((0, 0, 1, 0, 0), (0, 1, 0, 0, 0))
@example((0, 0, 0, 2**32 - 1, 0), (0, 0, 1, 0, 0))
def test_distinct_indices_give_distinct_streams(a, b):
    stream = rollout_streams((0, 9))
    first = stream(*a).bit_generator.random_raw(4).tolist()
    assert (stream(*b).bit_generator.random_raw(4).tolist() == first) == (a == b)


def _plain(state):
    """A Philox state with its arrays as lists, so that two compare."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return np.asarray(state).tolist()


LAST = (2**64 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1)


@pytest.mark.parametrize(
    "idx",
    [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    + [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (3, 1, 16, 2, 3), LAST],
)
def test_stream_is_a_fresh_philox_at_its_counter(idx):
    """The oracle builds its own Philox from the key numpy's list seeding
    makes of the prefix and the counter as one 256-bit int, words little
    end first: ``salt`` in word 1, ``b, h`` in word 2, ``i, j`` in word 3."""
    salt, b, h, i, j = idx
    key = np.random.SeedSequence([5, 2**40, 2]).generate_state(2, np.uint64)
    counter = salt << 64 | (b << 32 | h) << 128 | (i << 32 | j) << 192
    want = np.random.Philox(key=key, counter=counter)
    stream = rollout_streams((5, 2**40, 2))
    stream(*((0,) * 5 if idx == LAST else LAST)).random(3)
    got = stream(*idx).bit_generator
    assert _plain(got.state) == _plain(want.state)
    assert got.random_raw(9).tolist() == want.random_raw(9).tolist()


PAST_A_WORD = [
    pytest.param(pos, value, id=f"{name}={value}")
    for pos, (name, past) in enumerate([("salt", 2**64), *((n, 2**32) for n in "bhij")])
    for value in (past, -1)
]


@pytest.mark.parametrize("pos, value", PAST_A_WORD)
def test_stream_refuses_an_index_past_its_word(pos, value):
    """``h = 2**32`` would carry into ``b``'s half of the word and draw beam
    b + 1's stream, and a negative index wraps to another's: both raise."""
    idx = [0] * 5
    idx[pos] = value
    stream = rollout_streams((0, 2))
    with pytest.raises(ValueError, match="rollout stream index past its word"):
        stream(*idx)
    assert stream(*LAST).random() == stream(*LAST).random()


@pytest.mark.parametrize(
    "component",
    [0, True, np.uint8(200), np.int16(7), np.uint32(2**32 - 1)]
    + [np.int64(2**40), np.uint64(2**64 - 1), 2**100],
    ids=repr,
)
def test_key_equals_numpy_list_seeding(component):
    """The key is the first two uint64 words numpy's own list seeding makes
    of the prefix, whatever integer type and however many words a component
    has."""
    prefix = (component, 2)
    want = np.random.SeedSequence([int(component), 2]).generate_state(2, np.uint64)
    got = rollout_streams(prefix)(0, 0, 0, 0, 0).bit_generator.state["state"]["key"]
    assert got.tolist() == want.tolist()


def test_distinct_prefixes_give_distinct_keys():
    """A plan's key prefix ends in the nonzero rollout salt, so it is never
    the zero-padded form of another prefix."""
    prefixes = [(0, 2), (1, 2), (0, 0, 2), (0, 1, 2), (1, 0, 2), (0, 0, 0, 0, 2)]
    draws = {rollout_streams(p)(0, 0, 1, 0, 0).random() for p in prefixes}
    assert len(draws) == len(prefixes)


def _draw(rng, kind):
    if kind == "random":
        return rng.random()
    if kind == "normal":
        return rng.normal(0.0, 0.003, (15, 2)).tolist()
    return rng.integers(0, 7, 3, dtype=np.uint32).tolist()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(INDICES, st.sampled_from(["random", "normal", "uint32"])), max_size=5),
    INDICES,
)
def test_a_stream_depends_only_on_its_key_and_indices(before, target):
    """Whatever streams were drawn before it, and however far, a stream
    gives what it gives on a fresh generator: asking for it resets the
    counter, the block buffer and the cached half of a 32-bit draw."""
    kinds = ["random", "uint32", "normal", "random"]
    want = [_draw(rollout_streams((4, 2))(*target), k) for k in kinds]
    stream = rollout_streams((4, 2))
    for idx, kind in before:
        _draw(stream(*idx), kind)
    got = [_draw(stream(*target), k) for k in kinds]
    assert got == want


DRAW_KINDS = {
    "random": lambda rng: rng.random(3).tolist(),
    "standard_normal": lambda rng: rng.standard_normal(3).tolist(),
    "normal": lambda rng: rng.normal(0.0, 0.003, (15, 2)).tolist(),
    "int64": lambda rng: rng.integers(0, 2**40, 3).tolist(),
    "uint32_odd": lambda rng: rng.integers(0, 7, 1, dtype=np.uint32).tolist(),
    "uint16": lambda rng: rng.integers(0, 7, 5, dtype=np.uint16).tolist(),
    "uint8": lambda rng: rng.integers(0, 7, 5, dtype=np.uint8).tolist(),
    "bool": lambda rng: rng.integers(0, 2, 5, dtype=bool).tolist(),
    "exponential": lambda rng: rng.exponential(1.0, 3).tolist(),
    "choice": lambda rng: rng.choice(9, 4, replace=False).tolist(),
    "permutation": lambda rng: rng.permutation(6).tolist(),
    "bytes": lambda rng: list(rng.bytes(5)),
}


@pytest.mark.parametrize("kind", DRAW_KINDS)
def test_a_stream_resets_after_each_draw_kind(kind):
    """Each kind of draw leaves the generator in its own state (a part-used
    block, a cached half of a 32-bit draw); a stream asked for after it,
    its own or another's, still starts fresh."""
    after = [DRAW_KINDS[k] for k in ("uint32_odd", "random", "normal", kind)]
    fresh = rollout_streams((4, 2))(1, 0, 3, 2, 1)
    want = [f(fresh) for f in after]
    stream = rollout_streams((4, 2))
    for idx in [(0, 1, 1, 1, 1), (1, 0, 3, 2, 1)]:
        DRAW_KINDS[kind](stream(*idx))
        rng = stream(1, 0, 3, 2, 1)
        assert [f(rng) for f in after] == want


def test_import_leaves_numpy_random_unloaded():
    """Importing the package and its CLI does not load numpy.random: the
    first generator built loads it, which keeps it out of every command's
    set-up time."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, blockplan, blockplan.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

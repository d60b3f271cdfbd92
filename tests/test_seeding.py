import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan.seeding import derive, rng_from, seed_tuple


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

"""Batched keyed streams against one `SeedSequence` per key.

`rng.streams(seed, tag, keys)` must give key i the generator that
`rng.stream(seed, tag, *keys[i])` gives it, for every seed and key width the
64-bit masking of `stream` admits.
"""

import numpy as np
import pytest

from anneal_rbm import rng

SEEDS = [0, 1, 2**31 - 1, 2**32, 2**40 + 5, 2**64 - 1, -1]
ONE_WORD_KEYS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5]
TWO_WORD_KEYS = [[0, 0], [0, 2**32], [2**32 - 1, 2**32 - 1], [2**32, 0],
                 [2**32, 2**32], [2**32 - 1, 2**32], [3, 9], [5376, 12]]


def assert_same_streams(seed, tag, keys, paths):
    got = list(rng.streams(seed, tag, keys))
    assert len(got) == len(paths)
    for g, path in zip(got, paths):
        want = rng.stream(seed, tag, *path)
        assert np.array_equal(g.bit_generator.random_raw(8),
                              want.bit_generator.random_raw(8)), (seed, path)
        assert g.normal(0.0, 0.05) == want.normal(0.0, 0.05), (seed, path)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_word_keys(seed):
    assert_same_streams(seed, rng.STREAM_NOISE_H, ONE_WORD_KEYS,
                        [[k] for k in ONE_WORD_KEYS])


@pytest.mark.parametrize("seed", SEEDS)
def test_two_word_keys(seed):
    assert_same_streams(seed, rng.STREAM_NOISE_J, TWO_WORD_KEYS, TWO_WORD_KEYS)


def test_keys_are_masked_to_64_bits_like_stream():
    keys = np.array([[2**63, 2**64 - 1], [1, 2**63 + 2**32]], dtype=np.uint64)
    assert_same_streams(3, rng.STREAM_NOISE_J, keys, keys.tolist())
    assert_same_streams(3, rng.STREAM_LOOP, np.array([-1, -2**32]), [[-1], [-2**32]])


def test_empty_key_list():
    assert list(rng.streams(5, rng.STREAM_READ, [])) == []
    assert list(rng.streams(5, rng.STREAM_NOISE_J, np.empty((0, 2), dtype=np.int64))) == []


def test_streams_are_independent_objects():
    # consuming one generator must not move another
    a, b = rng.streams(9, rng.STREAM_READ, [4, 4])
    a.random(10)
    assert b.random() == rng.stream(9, rng.STREAM_READ, 4).random()


def test_rejects_non_integer_keys():
    with pytest.raises(TypeError):
        rng.streams(0, rng.STREAM_READ, [0.5, 1.5])
    with pytest.raises(ValueError):
        rng.streams(0, rng.STREAM_READ, np.zeros((2, 2, 2), dtype=np.int64))

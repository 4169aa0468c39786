"""Batched keyed streams and draws against one `SeedSequence` per key.

`rng.streams(seed, tag, keys)` must give key i the generator that
`rng.stream(seed, tag, *keys[i])` gives it, for every seed and key width the
64-bit masking of `stream` admits.  `rng.first_words`, `rng.normals` and
`rng.random_then_integers` must return, bit for bit, the raw words and draws
of those generators, which the tests check on crafted words (a generator set
to output a chosen word next) and on a million keys.
"""

import numpy as np
import pytest

from anneal_rbm import rng
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance

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
    # the draws computed from first words, against a fresh stream per key
    normals = rng.normals(seed, tag, keys, 0.05)
    uniforms, integers = rng.random_then_integers(seed, tag, keys, np.full(len(paths), 7))
    for i, path in enumerate(paths):
        assert normals[i] == rng.stream(seed, tag, *path).normal(0.0, 0.05), (seed, path)
        want = rng.stream(seed, tag, *path)
        assert (uniforms[i], integers[i]) == (want.random(), want.integers(7)), (seed, path)


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


# ---------------------------------------------------------------------------
# Draws computed from each key's first words, against numpy's own draws

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
KI, WI = rng._ZIGGURAT_KI.tolist(), rng._ZIGGURAT_WI.tolist()


def generator_at(word):
    """A generator whose next raw word is ``word``: the LCG steps to the state
    with high word 0 and low word ``word``, which XSL-RR outputs unchanged."""
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (word - 1) * pow(PCG_MULT, -1, 1 << 128) & MASK128,
                            "inc": 1}}
    return np.random.Generator(bits)


def words_taken(g, word):
    """How many raw words g took since `generator_at(word)` made it, up to 2."""
    state = g.bit_generator.state["state"]["state"]
    return {word: 1, (word * PCG_MULT + 1) & MASK128: 2}.get(state, 3)


def normal_word(layer, magnitude, negative=False):
    return magnitude << 9 | int(negative) << 8 | layer


def test_pinned_ziggurat_tables_match_numpy():
    # wi[layer] is the draw at magnitude 1, on the fast path or, for a layer
    # with ki = 0, accepted by the wedge test at once; ki[layer] is the least
    # magnitude whose draw takes a second word, found by bisection
    for layer in range(256):
        g = generator_at(normal_word(layer, 1))
        assert g.standard_normal() == WI[layer], layer
        if words_taken(g, normal_word(layer, 1)) == 2:
            g = generator_at(normal_word(layer, 0))
            g.standard_normal()
            assert words_taken(g, normal_word(layer, 0)) == 2 and KI[layer] == 0, layer
            continue
        fast, slow = 1, 1 << 52
        while slow - fast > 1:
            middle = (fast + slow) // 2
            g = generator_at(normal_word(layer, middle))
            g.standard_normal()
            if words_taken(g, normal_word(layer, middle)) == 1:
                fast = middle
            else:
                slow = middle
        assert KI[layer] == slow, layer


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("layer", [0, 1, 2, 77, 128, 254, 255])
def test_normal_from_word_at_the_fast_path_edge(layer, negative):
    # magnitude ki - 1 is the largest that numpy returns from one word, and
    # ki the least that leaves the fast path (layer 1 has ki = 0: never fast)
    sigma = 0.37
    for magnitude in (1, KI[layer] - 1, KI[layer]):
        if magnitude < 0:
            continue
        word = normal_word(layer, magnitude, negative)
        value, fast = rng._normal_from_word(np.array([word], dtype=np.uint64), sigma)
        g = generator_at(word)
        want = g.normal(0.0, sigma)
        assert bool(fast[0]) == (words_taken(g, word) == 1) == (magnitude < KI[layer])
        if fast[0]:
            assert value[0] == want and np.signbit(value[0]) == (negative and magnitude > 0)


def test_normal_from_word_zero_magnitude_is_positive_zero():
    # numpy returns 0.0 + sigma * -0.0, which is +0.0
    value, fast = rng._normal_from_word(np.array([normal_word(5, 0, True)], dtype=np.uint64), 2.0)
    assert fast[0] and value[0] == 0.0 and not np.signbit(value[0])


def lemire_word(high, leftover):
    """A word whose low 32 bits u give (u * high) mod 2**32 == leftover (odd high)."""
    return (0xDEADBEEF << 32) | leftover * pow(high, -1, 1 << 32) % (1 << 32)


@pytest.mark.parametrize("high", [3, 5, 63, 3 << 30 | 1])
def test_lemire_at_the_threshold(high):
    # numpy rejects a word whose leftover is below (2**32 - high) % high and
    # draws again from the buffered high half
    threshold = (1 << 32) % high
    for leftover in (0, threshold - 1, threshold, threshold + 1):
        if leftover < 0:
            continue
        word = lemire_word(high, leftover)
        value, accepted = rng._lemire(np.array([word], dtype=np.uint64),
                                      np.array([high], dtype=np.uint64))
        g = generator_at(word)
        want = g.integers(high)
        # an accepted draw takes the word's low half and buffers its high half
        one_half = words_taken(g, word) == 1 and g.bit_generator.state["has_uint32"] == 1
        assert bool(accepted[0]) == one_half == (leftover >= threshold)
        if accepted[0]:
            assert value[0] == want


def test_lemire_never_rejects_powers_of_two_or_one():
    words = np.array([0, 1, 2**32 - 1, 2**64 - 1], dtype=np.uint64)
    for high in (1, 2, 4, 2**31):
        value, accepted = rng._lemire(words, np.full(4, high, dtype=np.uint64))
        assert accepted.all()
        assert value.tolist() == [int(generator_at(int(w)).integers(high)) for w in words]


def test_loops_shorter_than_three_take_no_integers_draw():
    # a triangle with a pendant edge: augmenting doubles the pendant edge into
    # a 2-cycle, whose clause stays ferromagnetic
    cover = build_loop_cover(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert sorted(cover.lengths.tolist()) == [2, 3]
    for seed in range(40):
        params = GeneratorParams(bias_large=9.0, bias_small=2.0, p_large=0.5, beta=1.0,
                                 seed=seed)
        inst = generate_instance(cover, params)
        for loop, magnitude, flip in zip(inst.clause_loops.tolist(),
                                         inst.magnitudes.tolist(), inst.flips.tolist()):
            g = rng.stream(seed, rng.STREAM_LOOP, loop)
            assert magnitude == (9.0 if g.random() < 0.5 else 2.0)
            length = int(cover.lengths[loop])
            assert flip == (g.integers(length) if length >= 3 else -1)


def test_first_words_are_the_raw_words():
    keys = np.array([[0, 0], [2**32, 7], [2**64 - 1, 2**40], [5376, 12]], dtype=np.uint64)
    for seed in SEEDS:
        words = rng.first_words(seed, rng.STREAM_NOISE_J, keys, 3)
        assert words.shape == (4, 3) and words.dtype == np.uint64
        for row, key in zip(words, keys.tolist()):
            want = rng.stream(seed, rng.STREAM_NOISE_J, *key).bit_generator.random_raw(3)
            assert np.array_equal(row, want), (seed, key)


def test_draws_with_no_keys():
    assert rng.first_words(1, rng.STREAM_NOISE_H, [], 2).shape == (0, 2)
    assert rng.normals(1, rng.STREAM_NOISE_H, np.zeros(0, dtype=np.int64), 0.1).shape == (0,)
    uniforms, integers = rng.random_then_integers(1, rng.STREAM_LOOP,
                                                  np.zeros(0, dtype=np.int64), [])
    assert uniforms.shape == integers.shape == (0,)


@pytest.mark.parametrize("highs", [[0, 5], [5, 2**32], [5], [2.0, 5.0]])
def test_random_then_integers_rejects_bad_highs(highs):
    with pytest.raises(ValueError):
        rng.random_then_integers(1, rng.STREAM_LOOP, [3, 4], highs)


def test_draws_equal_per_key_generators_on_a_million_keys():
    """The oracle: 10**6 keys against one generator per key (`streams`,
    which the tests above hold to `stream`), slow paths included."""
    sigma = 0.05
    keys = np.arange(500_000, dtype=np.int64) + 2**32 - 1000  # both sides of 2**32
    got = rng.normals(2**64 - 1, rng.STREAM_NOISE_H, keys, sigma)
    want = np.fromiter((g.normal(0.0, sigma) for g in
                        rng.streams(2**64 - 1, rng.STREAM_NOISE_H, keys)), np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    pairs = np.random.default_rng(5).integers(0, 2**64, (200_000, 2), dtype=np.uint64)
    got = rng.normals(11, rng.STREAM_NOISE_J, pairs, 0.2)
    want = np.fromiter((g.normal(0.0, 0.2) for g in
                        rng.streams(11, rng.STREAM_NOISE_J, pairs)), np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # about 1.5% of the keys leave the ziggurat's fast path
    words = rng.first_words(11, rng.STREAM_NOISE_J, pairs, 1)[:, 0]
    assert 2_000 < (~rng._normal_from_word(words, 0.2)[1]).sum() < 4_000

    loops = np.arange(300_000)
    highs = np.r_[3 + loops[:290_000] % 62, np.full(10_000, 3 << 30 | 1)]
    uniforms, integers = rng.random_then_integers(7, rng.STREAM_LOOP, loops, highs)
    want_u, want_i = np.empty(loops.size), np.empty(loops.size, dtype=np.int64)
    for i, (g, high) in enumerate(zip(rng.streams(7, rng.STREAM_LOOP, loops), highs.tolist())):
        want_u[i], want_i[i] = g.random(), g.integers(high)
    assert np.array_equal(uniforms, want_u) and np.array_equal(integers, want_i)
    # a high just over 3 * 2**30 makes Lemire reject about a quarter of words
    accepted = rng._lemire(rng.first_words(7, rng.STREAM_LOOP, loops[-10_000:], 2)[:, 1],
                           highs[-10_000:].astype(np.uint64))[1]
    assert 2_000 < (~accepted).sum() < 3_000

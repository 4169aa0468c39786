"""Seedable random streams.

All randomness in the package flows through PCG64 generators keyed by an
explicit integer path, e.g. ``stream(seed, STREAM_LOOP, loop_index)``.  The
same (seed, path) always yields the same generator state on any platform, and
disjoint paths yield statistically independent streams, which is what makes
instance generation and sampling reproducible bit-for-bit.

A family of streams that differ only in their last path words (one per read,
loop, qubit or coupler) comes from `streams`, which hashes all their paths in
one vectorized pass of numpy's `SeedSequence` algorithm and gives each key the
generator `stream` gives it.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

# Stream tags.  Keep values stable: they are part of the reproducibility
# contract for serialized fixtures.
STREAM_PLANTED = 1
STREAM_SELECT = 2
STREAM_LOOP = 3
STREAM_READ = 4
STREAM_NOISE_H = 5
STREAM_NOISE_J = 6
STREAM_EXPERIMENT = 7

_MASK = (1 << 64) - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for the given seed and sub-stream path."""
    entropy = [int(seed) & _MASK] + [int(p) & _MASK for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); the
# algorithm is part of numpy's stream-compatibility guarantee.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _int_words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of one entropy int, low first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: ``SeedSequence(row).generate_state(4, np.uint64)``
    for each row of a (rows, words) uint32 entropy matrix."""
    rows, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # word pairs combine low word first, as SeedSequence's little-endian view
    return np.stack([words[k] | words[k + 1] << np.uint64(32)
                     for k in range(0, 8, 2)], axis=1)


@functools.cache
def _seed_state_type() -> type:
    """A seed-sequence type whose state was generated in advance.

    Defined on first use: `numpy.random` is imported lazily by numpy, and a
    process that draws nothing (``topology build``, say) should not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed state serves PCG64 seeding only")
            return self._state

    return SeedState


def streams(seed: int, tag: int, keys) -> Iterator[np.random.Generator]:
    """Iterate, for each key in order, over the generator that
    ``stream(seed, tag, *key)`` returns.

    ``keys`` holds one integer per stream, or one row of integers per
    stream, each masked to 64 bits as `stream` masks it.  Every state is
    hashed by this call, in one numpy pass; the generators are built one at
    a time as the iterator is consumed, so a caller that draws from each in
    turn never holds them all.
    """
    keys = np.asarray(keys)
    if keys.size and keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, got dtype {keys.dtype}")
    if keys.ndim == 1:
        keys = keys[:, None]
    if keys.ndim != 2:
        raise ValueError(f"keys must be 1-d or 2-d, got shape {keys.shape}")
    keys = keys.astype(np.uint64)
    prefix = _int_words(int(seed) & _MASK) + _int_words(int(tag) & _MASK)
    low = (keys & np.uint64(_MASK32)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    # A key word of 2**32 or more is two entropy words, so rows are hashed in
    # groups that share which of their columns are wide.  The groups come from
    # a set, not np.unique, which imports numpy.ma (about 1 MB) on first use.
    wide = high != 0
    pattern = wide @ (1 << np.arange(keys.shape[1]))
    states = np.empty((len(keys), 4), dtype=np.uint64)
    for group in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == group)
        columns = [np.full(len(rows), w, dtype=np.uint32) for w in prefix]
        for c in range(keys.shape[1]):
            columns.append(low[rows, c])
            if wide[rows[0], c]:
                columns.append(high[rows, c])
        states[rows] = _seed_states(np.stack(columns, axis=1))
    seed_state = _seed_state_type()
    return (np.random.Generator(np.random.PCG64(seed_state(state)))
            for state in states)

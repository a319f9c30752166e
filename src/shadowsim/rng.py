"""Seeded randomness helpers.

Everything stochastic in this package draws from numpy's PCG64 generator so
runs are reproducible from a single integer seed.  A subtask's seed is the
first ``integers(2**63)`` draw of the child numpy's SeedSequence.spawn would
give, keyed by task index, which is the documented split function for this
package; an emission's clock is the first ``uniform`` draw of its seed.

Those first draws are derived here for a whole batch at once, bit for bit as
numpy derives them.  SeedSequence's hash (NEP 19) mixes each row's entropy
words into a pool of four uint32 words and hashes the pool out into four
uint64 words; it runs as uint32 array operations, one column per word, over
all rows of one length.  PCG64 (O'Neill, HMC-CS-2014-0905) then takes those
words as its 128-bit state and increment, and its first output, the XSL-RR
permutation of the stepped state, is computed from Python ints per row.

Only ``make_rng`` touches ``numpy.random``, which numpy 2 loads on that first
access, so only the corpus and shot sampling load it.  A seed of None takes
128 fresh bits from ``os.urandom``, the source ``secrets`` reads, so that it
loads neither ``secrets`` nor ``hashlib``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np

RNG_NAME = "numpy-pcg64"

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a running hash constant: init * mult**k."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# generate_state's running hash constant over its eight output words.
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)


def make_rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def child_seeds(pairs: Iterable[tuple[int | None, int]]) -> list[int]:
    """For each (seed, index), the seed of subtask ``index`` of a run seeded
    with ``seed``: ``int(default_rng(SeedSequence(seed, spawn_key=(index,)))
    .integers(2**63))``, the draw from child ``index`` of
    ``SeedSequence(seed).spawn``.  Over a range of 2**63 that is next64 >> 1."""
    return [draw >> 1 for draw in _first_draws([_entropy(seed) + _words(index)
                                                for seed, index in pairs])]


def uniform_draws(seeds: Iterable[int | None], high: float) -> list[float]:
    """For each seed, ``float(default_rng(seed).uniform(0.0, high))``: high
    times the first double, (next64 >> 11) * 2**-53."""
    return [0.0 + high * ((draw >> 11) * 2.0**-53)
            for draw in _first_draws([_entropy(seed) for seed in seeds])]


def _words(n: int) -> list[int]:
    """``n`` as uint32 words, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _entropy(seed: int | None) -> list[int]:
    """The run entropy of SeedSequence(seed), fresh OS entropy for None,
    zero-padded to the pool size: numpy pads so before a spawn key, and
    without one the hash mixes a missing word as a zero word."""
    fresh = int.from_bytes(os.urandom(4 * _POOL), "little") if seed is None else seed
    words = _words(fresh)
    return words + [0] * (_POOL - len(words))


def _first_draws(rows: list[list[int]]) -> list[int]:
    """next64 of PCG64(SeedSequence(entropy)) for each row of entropy words,
    the rows of each length hashed in one batch."""
    draws = [0] * len(rows)
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for where in by_length.values():
        entropy = np.array([rows[i] for i in where], dtype=np.uint32)
        for i, (s0, s1, s2, s3) in zip(where, _hashed_state(entropy).tolist()):
            inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
            # srandom: state = 0, step, state += initstate, step; then next64's step.
            state = (((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) * _PCG_MULT + inc) & _MASK128
            word = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            draws[i] = (word >> rot | word << (64 - rot)) & _MASK64
    return draws


def _hashed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of the
    (rows, words) uint32 ``entropy``, of at least the pool size."""
    n_words = entropy.shape[1]
    # hashmix's running hash constant: call k xors with consts[k] and
    # multiplies by consts[k + 1].  mix_entropy makes 4 * n_words calls: 4,
    # then 12, then 4 per word past the pool.
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * n_words + 1)
    used = 0

    def hashmix(value: np.ndarray, calls: int) -> np.ndarray:
        nonlocal used
        value = (value ^ consts[used:used + calls]) * consts[used + 1:used + calls + 1]
        used += calls
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    pool = hashmix(entropy[:, :_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], _POOL - 1))
    for src in range(_POOL, n_words):
        pool = mix(pool, hashmix(entropy[:, src:src + 1], _POOL))

    # generate_state: eight uint32 words from the cycled pool, read as four
    # little-endian uint64 words.
    state = (np.concatenate([pool, pool], axis=1) ^ _OUT_CONSTS[:-1]) * _OUT_CONSTS[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8")

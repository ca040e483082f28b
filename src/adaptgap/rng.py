"""Seeded, splittable random streams.

Every source of randomness in the package is an :class:`RngStream`: a
(seed, stream-path) pair backed by the counter-based Philox generator.
Identical pairs reproduce identical draw sequences; distinct paths yield
statistically independent streams, so trials, stages, and levels can each
own a private stream derived from one master seed.

A stream is numpy's ``Generator(Philox(SeedSequence(seed, spawn_key=path)))``
bit for bit. Only the Philox key is derived here, by numpy's own
``SeedSequence`` hash: the seed's words are mixed into a 4-word pool, and
the path's words are then absorbed one at a time. The pool after
``(seed, path)`` is thus one step on from the pool after
``(seed, path[:-1])``, so pools are kept per prefix in a small cache: a
repeated path costs no absorbed word, and a new child of a cached prefix
costs one. ``tests/test_rng.py``
checks the derived keys and draws against numpy's ``SeedSequence``, which
guards against a numpy release that changes the hash.

``numpy.random`` is imported on the first :meth:`RngStream.generator` call,
not with the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """Handle for a reproducible random stream.

    ``seed`` is the master seed (any nonnegative integer, typically 64-bit).
    ``stream`` is a tuple of integers naming a sub-stream; ``child`` extends
    it. The handle is cheap and immutable; call :meth:`generator` to obtain
    a fresh numpy ``Generator`` positioned at the start of the stream.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def child(self, *ids: int) -> "RngStream":
        """Derive an independent sub-stream named by ``ids``."""
        return RngStream(self.seed, self.stream + tuple(map(int, ids)))

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream.

        Each call builds its own bit generator, so two generators of one
        stream never share state.
        """
        generator_cls, philox_cls = _numpy_random()
        return generator_cls(philox_cls(_Key(_philox_key(self.seed, self.stream))))


# The constants of numpy's seed-sequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# A pool is its 4 words and the running hash constant, which is all the
# next absorbed word depends on besides its value.
_Pool = tuple[tuple[int, ...], int]


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, at least one (numpy's coercion)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ (value >> 16), h


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: _Pool, word: int) -> _Pool:
    """Mix one more entropy word into every pool word."""
    words, h = pool
    mixed = []
    for x in words:
        v, h = _hashmix(word, h)
        mixed.append(_mix(x, v))
    return tuple(mixed), h


def _seed_pool(seed: int) -> _Pool:
    """The pool after the seed's words, before any path word."""
    entropy = _words(seed)
    # Short seeds are padded with zero words to the pool size, as numpy
    # does whenever a spawn key follows.
    padded = entropy[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(entropy))
    h = _INIT_A
    mixer = []
    for word in padded:
        v, h = _hashmix(word, h)
        mixer.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v, h = _hashmix(mixer[src], h)
                mixer[dst] = _mix(mixer[dst], v)
    pool = tuple(mixer), h
    for word in entropy[_POOL_SIZE:]:
        pool = _absorb(pool, word)
    return pool


@lru_cache(maxsize=64)
def _pool(seed: int, path: tuple[int, ...]) -> _Pool:
    """The pool after ``(seed, path)``, built from its cached prefix."""
    if not path:
        return _seed_pool(seed)
    pool = _pool(seed, path[:-1])
    for word in _words(path[-1]):
        pool = _absorb(pool, word)
    return pool


def _philox_key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``."""
    h = _INIT_B
    out = []
    for word in _pool(seed, path)[0]:
        word ^= h
        h = h * _MULT_B & _MASK32
        word = word * h & _MASK32
        out.append(word ^ (word >> 16))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


class _Key:
    """A seed sequence that hands Philox one precomputed 2-word key.

    Registered as numpy's ``ISeedSequence`` on first use.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise NotImplementedError("only a Philox key (2 uint64 words) is stored")
        return self.key


@cache
def _numpy_random():
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Key)
    return Generator, Philox

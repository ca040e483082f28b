"""Seeded, splittable random streams.

Every source of randomness in the package is an :class:`RngStream`: a
(seed, stream-path) pair backed by the counter-based Philox generator.
Identical pairs reproduce identical draw sequences; distinct paths yield
statistically independent streams, so trials, stages, and levels can each
own a private stream derived from one master seed.

A stream is numpy's ``Generator(Philox(SeedSequence(seed, spawn_key=path)))``
bit for bit. numpy builds the seed's 4-word pool: ``SeedSequence(seed).pool``.
Only the two steps numpy has no API for are hashed here, with numpy's
``SeedSequence`` hash: absorbing the path's words into the pool one at a
time, and the Philox key output. The pool after ``(seed, path)`` is thus
one step on from the pool after ``(seed, path[:-1])``, so pools are kept per
prefix in a small cache: a repeated path costs no absorbed word, and a new
child of a cached prefix costs one. Beside it, a cache of the same bound
(64 entries) keeps each ``(seed, path)``'s ready Philox key, so a repeated
stream, such as trial t of every cell that reruns trials from the same seed,
costs only its ``Philox`` and ``Generator``. ``tests/test_rng.py`` checks the
derived keys and draws against numpy's ``SeedSequence`` from cold and warm
caches, which guards against a numpy release that changes the hash.

The seed and the path are checked where a handle is built from them: each
goes through ``spaces.as_count`` and must be nonnegative. :meth:`RngStream.child`
skips ``__init__``, as its parent is checked, and takes ``operator.index`` ids.

Philox is handed its default all-zero counter explicitly, as one shared
read-only array: numpy copies an array counter with one ``astype``, where it
converts the default scalar 0 word by word in a Python loop.

``numpy.random`` is imported on the first :meth:`RngStream.generator` call,
not with the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .spaces import as_count

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """Handle for a reproducible random stream.

    ``seed`` is the master seed (any nonnegative integer, typically 64-bit;
    an integral float or numpy scalar is taken as its int, and anything else
    raises ``ValueError`` naming the seed). ``stream`` is a tuple of integers
    naming a sub-stream; ``child`` extends it. The handle is cheap and
    immutable; call :meth:`generator` to obtain a fresh numpy ``Generator``
    positioned at the start of the stream.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_count(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        stream = tuple([as_count(i, "stream id") for i in self.stream])
        if stream and min(stream) < 0:
            raise ValueError(f"stream ids must be nonnegative, got {stream}")
        object.__setattr__(self, "stream", stream)

    def child(self, *ids: int) -> "RngStream":
        """Derive an independent sub-stream named by ``ids``.

        The handle's fields are set directly, skipping the dataclass
        ``__init__``: the parent is checked, and ``ids`` must be integers.
        """
        child = object.__new__(RngStream)
        fields = child.__dict__
        fields["seed"] = self.seed
        fields["stream"] = self.stream + tuple(map(operator.index, ids))
        return child

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream.

        Each call builds its own bit generator, so two generators of one
        stream never share state.
        """
        generator_cls, philox_cls, _ = _numpy_random()
        return generator_cls(philox_cls(_key(self.seed, self.stream), counter=_COUNTER))


# Philox's default counter; numpy copies it, so one array serves every call.
_COUNTER = np.zeros(4, dtype=np.uint64)
_COUNTER.flags.writeable = False


# The constants of numpy's seed-sequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

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


def _absorb(pool: _Pool, word: int) -> _Pool:
    """Mix one more entropy word into every pool word: numpy's ``hashmix``
    of the word, then its ``mix`` into the pool word, inline, as it runs for
    every path word the cache misses."""
    words, h = pool
    mixed = []
    for x in words:
        v = word ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        v = (_MIX_MULT_L * x - _MIX_MULT_R * (v ^ (v >> 16))) & _MASK32
        mixed.append(v ^ (v >> 16))
    return tuple(mixed), h


@lru_cache(maxsize=64)
def _pool(seed: int, path: tuple[int, ...]) -> _Pool:
    """The pool after ``(seed, path)``, built from its cached prefix."""
    if not path:
        from numpy.random import SeedSequence

        # numpy builds the seed's pool in 4 hash steps to fill it, 12 to
        # cross-mix it and 4 per seed word past the fourth; each step
        # multiplies the running hash constant by _MULT_A.
        steps = 4 * max(4, len(_words(seed)))
        h = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
        return tuple(map(int, SeedSequence(seed).pool)), h
    pool = _pool(seed, path[:-1])
    for word in _words(path[-1]):
        pool = _absorb(pool, word)
    return pool


# The output hash constants _INIT_B * _MULT_B^i mod 2^32: pool word i is
# xored with _Hi and multiplied by _H(i+1).
_H0, _H1, _H2, _H3, _H4 = (_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(5))


def _philox_key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``."""
    w0, w1, w2, w3 = _pool(seed, path)[0]
    w0 = (w0 ^ _H0) * _H1 & _MASK32
    w1 = (w1 ^ _H1) * _H2 & _MASK32
    w2 = (w2 ^ _H2) * _H3 & _MASK32
    w3 = (w3 ^ _H3) * _H4 & _MASK32
    return (
        w0 ^ (w0 >> 16) | (w1 ^ (w1 >> 16)) << 32,
        w2 ^ (w2 >> 16) | (w3 ^ (w3 >> 16)) << 32,
    )


@lru_cache(maxsize=64)
def _key(seed: int, path: tuple[int, ...]):
    """The ``_Key`` that hands Philox the key of ``(seed, path)``. Every
    generator of the stream shares it; it is never written."""
    return _numpy_random()[2](_philox_key(seed, path))


@cache
def _numpy_random():
    """numpy's ``Generator`` and ``Philox``, and the key class Philox seeds from."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class _Key(ISeedSequence):
        """A seed sequence that hands Philox one precomputed 2-word key.

        A real subclass, not a registered one: Philox's ``isinstance`` check
        then stays on the C fast path instead of ``ABCMeta.__subclasscheck__``.
        """

        __slots__ = ("key",)

        def __init__(self, key: tuple[int, int]) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64:
                raise NotImplementedError(
                    "only a Philox key (2 uint64 words) is stored"
                )
            return self.key

    # Pickles name the class ``adaptgap.rng._Key``; see ``__getattr__``.
    _Key.__qualname__ = "_Key"
    return Generator, Philox, _Key


def __getattr__(name: str):
    # The key class is built with numpy.random, on first use, so a pickle
    # that names it builds it here.
    if name == "_Key":
        return _numpy_random()[2]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

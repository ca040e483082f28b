"""Seeded, splittable random streams.

Every source of randomness in the package is an :class:`RngStream`: a
(seed, stream-path) pair backed by the counter-based Philox generator.
Identical pairs reproduce identical draw sequences; distinct paths yield
statistically independent streams, so trials, stages, and levels can each
own a private stream derived from one master seed.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        """Fresh generator at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))

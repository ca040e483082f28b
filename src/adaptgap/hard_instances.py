"""Seeded samplers for the adversarial input distributions.

Four families of random matrices, each supported on the unit ball of its
mixed-norm space, exercise the regimes where plain Monte Carlo is tight and
the regime where adaptive sampling wins:

* SINGLE_SPIKE          -- one uniformly placed entry of size
                           N1^(1/p) * N2^(1/u), random sign; everything
                           else zero.
* FULL_BERNOULLI        -- every entry an independent fair sign.
* ROW_SPIKES            -- each row independently carries one spike of size
                           N2^(1/u) at a uniform column, random sign.
* ACTIVE_ROW_BERNOULLI  -- one uniformly chosen row filled with independent
                           signs scaled by N1^(1/p); all other rows zero
                           (requires finite p).

Positions and signs come from separate child streams, so passing
``antithetic=True`` flips every sign draw while keeping positions fixed;
the sampled matrix (and hence its mean) is negated draw for draw.

SINGLE_SPIKE and ACTIVE_ROW_BERNOULLI samples are row-sparse: they store
their one nonzero row as a ``1 x N2`` block (see ``MixedMatrix.from_rows``),
so sampling, ground truth and queries cost O(N2), not O(N1*N2). The other
two families are dense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, inverse_power

__all__ = [
    "Variant",
    "HardFamily",
    "sample_mu1",
    "sample_mu2",
    "sample_mu3",
    "sample_mu4",
]

# Child-stream ids: positions vs signs.
_POSITIONS = 0
_SIGNS = 1


class Variant(enum.Enum):
    SINGLE_SPIKE = "mu1"
    FULL_BERNOULLI = "mu2"
    ROW_SPIKES = "mu3"
    ACTIVE_ROW_BERNOULLI = "mu4"


def _signs(
    g: np.random.Generator, size, antithetic: bool, scale: float = 1.0
) -> np.ndarray:
    """Fair signs times ``scale``, as float64; flipped when antithetic.

    A draw of 1 maps to ``scale`` (``-scale`` when antithetic), a draw of 0
    to its negation.
    """
    high = -scale if antithetic else scale
    return np.array((-high, high)).take(g.integers(0, 2, size=size))


def sample_mu1(
    spec: ProblemSpec, rng: RngStream, *, antithetic: bool = False
) -> MixedMatrix:
    """One spike of size N1^(1/p) * N2^(1/u) at a uniform position."""
    g_pos = rng.child(_POSITIONS).generator()
    g_sign = rng.child(_SIGNS).generator()
    i = int(g_pos.integers(0, spec.n1))
    j = int(g_pos.integers(0, spec.n2))
    scale = inverse_power(spec.n1, spec.p) * inverse_power(spec.n2, spec.u)
    block = np.zeros((1, spec.n2))
    block[0, j] = _signs(g_sign, (), antithetic, scale)
    return MixedMatrix._adopt(spec, (i,), block)


def sample_mu2(
    spec: ProblemSpec, rng: RngStream, *, antithetic: bool = False
) -> MixedMatrix:
    """Independent fair signs in every entry."""
    g_sign = rng.child(_SIGNS).generator()
    entries = _signs(g_sign, (spec.n1, spec.n2), antithetic)
    return MixedMatrix._adopt(spec, None, entries)


def sample_mu3(
    spec: ProblemSpec, rng: RngStream, *, antithetic: bool = False
) -> MixedMatrix:
    """One signed spike of size N2^(1/u) per row, columns uniform per row."""
    g_pos = rng.child(_POSITIONS).generator()
    g_sign = rng.child(_SIGNS).generator()
    cols = g_pos.integers(0, spec.n2, size=spec.n1)
    signs = _signs(g_sign, spec.n1, antithetic, inverse_power(spec.n2, spec.u))
    entries = np.zeros((spec.n1, spec.n2))
    entries[np.arange(spec.n1), cols] = signs
    return MixedMatrix._adopt(spec, None, entries)


def sample_mu4(
    spec: ProblemSpec, rng: RngStream, *, antithetic: bool = False
) -> MixedMatrix:
    """One uniformly chosen active row of independent signs times N1^(1/p)."""
    if spec.p == INF:
        raise InvalidExponent("the active-row family requires finite p")
    g_pos = rng.child(_POSITIONS).generator()
    g_sign = rng.child(_SIGNS).generator()
    active = int(g_pos.integers(0, spec.n1))
    signs = _signs(g_sign, (1, spec.n2), antithetic, inverse_power(spec.n1, spec.p))
    return MixedMatrix._adopt(spec, (active,), signs)


_SAMPLERS = {
    Variant.SINGLE_SPIKE: sample_mu1,
    Variant.FULL_BERNOULLI: sample_mu2,
    Variant.ROW_SPIKES: sample_mu3,
    Variant.ACTIVE_ROW_BERNOULLI: sample_mu4,
}


@dataclass(frozen=True)
class HardFamily:
    """A tagged adversarial distribution over one mixed-norm space."""

    variant: Variant
    spec: ProblemSpec

    def sample(self, rng: RngStream, *, antithetic: bool = False) -> MixedMatrix:
        return _SAMPLERS[self.variant](self.spec, rng, antithetic=antithetic)

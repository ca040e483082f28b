"""Seeded samplers for the adversarial input distributions.

Four families of random matrices, each supported on the unit ball of its
mixed-norm space, exercise the regimes where plain Monte Carlo is tight and
the regime where adaptive sampling wins. They are the 2 x 2 product of two
choices: one uniformly chosen row is active, or every row is; and an active
row holds one spike at a uniform column, or a fair sign in every entry.

* SINGLE_SPIKE          -- one row, one spike: a single entry of size
                           N1^(1/p) * N2^(1/u), random sign.
* FULL_BERNOULLI        -- every row, every entry an independent fair sign.
* ROW_SPIKES            -- every row one spike of size N2^(1/u), random sign.
* ACTIVE_ROW_BERNOULLI  -- one row of independent signs scaled by N1^(1/p)
                           (requires finite p).

All other entries are zero. Positions (the row, then the columns) and signs
come from separate child streams, so the sign draws never move the
positions.

A sample is row-sparse exactly when one row is active: it stores that row as
a ``1 x N2`` block (see ``MixedMatrix.from_rows``), so sampling, ground truth
and queries cost O(N2), not O(N1*N2). The other two families are dense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, inverse_power

__all__ = ["Variant", "HardFamily"]

# Child-stream ids: positions vs signs.
_POSITIONS = 0
_SIGNS = 1


class Variant(enum.Enum):
    SINGLE_SPIKE = "mu1"
    FULL_BERNOULLI = "mu2"
    ROW_SPIKES = "mu3"
    ACTIVE_ROW_BERNOULLI = "mu4"


def _signs(g: np.random.Generator, size, scale: float) -> np.ndarray:
    """Fair signs times ``scale``, as float64: a draw of 1 maps to ``scale``,
    a draw of 0 to ``-scale``."""
    return np.array((-scale, scale)).take(g.integers(0, 2, size=size))


# Each family's (one_row, one_spike): whether one uniform row is active rather
# than every row, and whether a row holds one spike rather than all signs.
_SHAPES = {
    Variant.SINGLE_SPIKE: (True, True),
    Variant.FULL_BERNOULLI: (False, False),
    Variant.ROW_SPIKES: (False, True),
    Variant.ACTIVE_ROW_BERNOULLI: (True, False),
}


@dataclass(frozen=True)
class HardFamily:
    """A tagged adversarial distribution over one mixed-norm space."""

    variant: Variant
    spec: ProblemSpec

    def sample(self, rng: RngStream) -> MixedMatrix:
        """One draw; the active-row family raises ``InvalidExponent`` at p = inf."""
        spec = self.spec
        one_row, one_spike = _SHAPES[self.variant]
        if one_row and not one_spike and spec.p == INF:
            raise InvalidExponent("the active-row family requires finite p")
        rows, row_ids, scale = spec.n1, None, 1.0
        if one_row or one_spike:
            g_pos = rng.child(_POSITIONS).generator()
        if one_row:
            rows, scale = 1, inverse_power(spec.n1, spec.p)
            row_ids = (int(g_pos.integers(0, spec.n1)),)
        g_sign = rng.child(_SIGNS).generator()
        if one_spike:
            # One row draws its column and sign as scalars: the same values
            # as one-element arrays, and faster.
            size = None if one_row else rows
            block = np.zeros((rows, spec.n2))
            block[np.arange(rows), g_pos.integers(0, spec.n2, size=size)] = _signs(
                g_sign, size, scale * inverse_power(spec.n2, spec.u)
            )
        else:
            block = _signs(g_sign, (rows, spec.n2), scale)
        return MixedMatrix._adopt(spec, row_ids, block)

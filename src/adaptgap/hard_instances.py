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

A one-row family also draws a chunk of trials at once
(:meth:`HardFamily.sample_chunk`), as a ``RowChunk``: each trial's row id
and its active row, as arrays with a leading trials axis. Row ids, spike
columns and signs then come from one child stream each, drawn row-major, so
the first k trials of a chunk are the chunk of k trials.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, RowChunk, as_count, inverse_power

__all__ = ["Variant", "HardFamily"]

# Child-stream ids: positions vs signs; a chunk draws its spike columns apart
# from its row ids.
_POSITIONS = 0
_SIGNS = 1
_COLUMNS = 2


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


def _rows(spec: ProblemSpec, one_spike: bool, rows: int, size, g_col, g_sign,
          scale: float) -> np.ndarray:
    """A ``rows x N2`` block of active rows: one spike per row at a column
    from ``g_col``, or a sign in every entry, with signs from ``g_sign``,
    times ``scale``. ``size`` is the shape of the per-row draws: None draws
    one row's column and sign as scalars, the same values as one-element
    arrays, and faster."""
    if not one_spike:
        return _signs(g_sign, (rows, spec.n2), scale)
    block = np.zeros((rows, spec.n2))
    block[np.arange(rows), g_col.integers(0, spec.n2, size=size)] = _signs(
        g_sign, size, scale * inverse_power(spec.n2, spec.u)
    )
    return block


@dataclass(frozen=True)
class HardFamily:
    """A tagged adversarial distribution over one mixed-norm space."""

    variant: Variant
    spec: ProblemSpec

    @property
    def one_row(self) -> bool:
        """Whether one uniform row is active, so that a draw is row-sparse
        and :meth:`sample_chunk` can draw many."""
        return _SHAPES[self.variant][0]

    def _shape(self) -> tuple[bool, bool]:
        one_row, one_spike = _SHAPES[self.variant]
        if one_row and not one_spike and self.spec.p == INF:
            raise InvalidExponent("the active-row family requires finite p")
        return one_row, one_spike

    def sample(self, rng: RngStream) -> MixedMatrix:
        """One draw; the active-row family raises ``InvalidExponent`` at p = inf."""
        spec = self.spec
        one_row, one_spike = self._shape()
        rows, row_ids, scale, g_pos = spec.n1, None, 1.0, None
        if one_row or one_spike:
            g_pos = rng.child(_POSITIONS).generator()
        if one_row:
            rows, scale = 1, inverse_power(spec.n1, spec.p)
            row_ids = (int(g_pos.integers(0, spec.n1)),)
        g_sign = rng.child(_SIGNS).generator()
        size = None if one_row else rows
        block = _rows(spec, one_spike, rows, size, g_pos, g_sign, scale)
        return MixedMatrix._adopt(spec, row_ids, block)

    def sample_chunk(self, rng: RngStream, trials: int) -> RowChunk:
        """``trials`` draws of a one-row family, as a ``RowChunk`` of each
        draw's active row id and that row's entries.

        Row ids, spike columns and signs each come from their own child
        stream of ``rng``, drawn row-major, so the first k draws do not
        depend on ``trials``. A family whose every row is active raises
        ``ValueError``; the active-row family raises ``InvalidExponent`` at
        p = inf.
        """
        spec, trials = self.spec, as_count(trials, "trials")
        one_row, one_spike = self._shape()
        if not one_row:
            raise ValueError(f"{self.variant.value} is not a one-row family")
        row_ids = rng.child(_POSITIONS).generator().integers(0, spec.n1, size=trials)
        g_col = rng.child(_COLUMNS).generator() if one_spike else None
        g_sign = rng.child(_SIGNS).generator()
        scale = inverse_power(spec.n1, spec.p)
        block = _rows(spec, one_spike, trials, trials, g_col, g_sign, scale)
        return RowChunk(spec, row_ids, block)

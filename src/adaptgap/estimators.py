"""Randomized mean and norm estimators over the query oracle.

Three estimators are provided:

* ``norm_est_a1`` -- empirical L_v norm from n i.i.d. uniform draws of a
  population; the building block of the adaptive estimator's first stage.
* ``mc_mean_a2`` -- plain Monte Carlo: the average of n uniform
  with-replacement entry samples. Non-adaptive (the sample positions never
  depend on answers) and unbiased, with cost exactly n. On a NONADAPTIVE
  tape it answers the tape's declared plan, normally ``draw_indices`` for
  the same stream, so the plan is drawn once.
* ``adaptive_mean_a3`` -- two-stage adaptive estimator for 1 <= p < 2.
  Stage one probes every row with m independent empirical L_2 norms of
  ceil(n/N1) samples each and takes the per-row median as a robust row-size
  estimate. Stage two splits a budget of about n row samples proportionally
  to the p-th powers of those medians (never below ceil(n/N1) per row),
  estimates each row mean, and averages. Total cost is at most 6*m*n.

Stage one and stage two draw from distinct child streams of the caller's
``RngStream``, so the two stages are independent given the master seed and
a run is bitwise reproducible from (input, n, m, seed).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidExponent, PreconditionViolated
from .oracle import Mode, QueryTape
from .rng import RngStream
from .spaces import INF, ProblemSpec, as_exponent

__all__ = [
    "EstimateReport",
    "median",
    "norm_est_a1",
    "draw_indices",
    "mc_mean_a2",
    "allocate_samples",
    "adaptive_mean_a3",
    "default_probe_count",
    "PROOF_PROBE_CONSTANT",
]

#: Probe-count multiplier for log2(N1 + 1) under which the stage-one medians
#: are simultaneously reliable with high probability. Far larger than needed
#: in practice; ``default_probe_count`` uses multiplier 1 instead. The value
#: reads 16/log2(e) = 16*ln(2), the self-consistent resolution of an
#: ambiguous logarithm base in the source analysis.
PROOF_PROBE_CONSTANT = 16.0 / math.log2(math.e)

# Child-stream ids for the two estimator stages.
_STAGE_PROBE = 1
_STAGE_SAMPLE = 2


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimator run.

    ``cards`` is the total number of queries charged; ``stage_cards`` splits
    it into (stage-1, stage-2) counts for the two-stage estimator, whose
    per-row sample counts are reported in ``allocation``.
    """

    value: float
    cards: int
    stage_cards: tuple[int, int] | None = None
    allocation: np.ndarray | None = None


def median(values) -> float:
    """Median of a nonempty sequence.

    Sorted middle element for odd length; the average of the two middle
    elements for even length.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    m = arr.size
    if m == 0:
        raise EmptyInput("median of an empty sequence")
    z = np.sort(arr)
    if m % 2 == 1:
        return float(z[(m - 1) // 2])
    return float((z[m // 2 - 1] + z[m // 2]) / 2.0)


def norm_est_a1(sample_access, population_size: int, v, n: int, rng: RngStream) -> float:
    """Empirical L_v norm from n uniform draws of a finite population.

    ``sample_access`` maps an array of 1-based population indices to their
    values (it is applied once to the whole draw array). Returns
    ((1/n) * sum |value|^v)^(1/v). The expected deviation from the true
    averaged L_v norm decays like n^max(1/u - 1/v, -1/2) for populations
    bounded in L_u.
    """
    v = as_exponent(v)
    if v == INF:
        raise InvalidExponent("v must be finite")
    population_size = int(population_size)
    if population_size < 1:
        raise ValueError("population_size must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    g = rng.generator()
    idx = g.integers(1, population_size + 1, size=n)
    vals = np.abs(np.asarray(sample_access(idx), dtype=np.float64))
    if vals.shape != (n,):
        raise ValueError("sample_access must return one value per index")
    if v == 2.0:
        return float(np.sqrt((vals * vals).mean()))
    return float((vals**v).mean() ** (1.0 / v))


def draw_indices(spec: ProblemSpec, n: int, rng: RngStream) -> np.ndarray:
    """The n uniform (i, j) pairs that ``mc_mean_a2`` queries for ``rng``.

    Exposed so callers can pre-declare the sequence on a non-adaptive tape.
    The ``(n, 2)`` result has contiguous columns, so ``open_nonadaptive``
    keeps it without a copy.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    g = rng.generator()
    rows = g.integers(1, spec.n1 + 1, size=n)
    cols = g.integers(1, spec.n2 + 1, size=n)
    return np.array([rows, cols]).T


def mc_mean_a2(tape: QueryTape, n: int, rng: RngStream) -> EstimateReport:
    """Average of n uniform with-replacement entry samples; cost exactly n.

    On an ADAPTIVE tape the samples are ``draw_indices(tape.spec, n, rng)``.
    On a NONADAPTIVE tape they are the tape's declared plan, which must hold
    exactly n pairs, and ``rng`` is not drawn from.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if tape.mode is Mode.NONADAPTIVE:
        rows, cols = tape.declared
        if rows.size != n:
            raise PreconditionViolated(
                f"the declared plan holds {rows.size} queries, not n = {n}"
            )
    else:
        idx = draw_indices(tape.spec, n, rng)
        rows, cols = idx[:, 0], idx[:, 1]
    vals = tape.query_many(rows, cols)
    return EstimateReport(value=float(vals.mean()), cards=n)


def allocate_samples(a_tilde, p, n: int) -> np.ndarray:
    """Per-row sample counts proportional to the p-th powers of row sizes.

    Rows whose ``a_tilde[i]**p`` does not exceed the average of all such
    powers get the flat floor ceil(n/N1); heavier rows get
    ceil(a_tilde[i]**p * n / sum(a_tilde**p)). Every count is at least the
    flat floor. An all-zero ``a_tilde`` takes the flat branch everywhere.
    """
    a = np.asarray(a_tilde, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("a_tilde must be a nonempty 1-D vector")
    if (a < 0).any() or not np.isfinite(a).all():
        raise ValueError("a_tilde must be finite and nonnegative")
    p = as_exponent(p)
    if not p < 2.0:
        raise InvalidExponent(f"p must lie in [1, 2), got {p}")
    n = int(n)
    n1 = a.size
    if n < n1:
        raise ValueError(f"n = {n} must be at least N1 = {n1}")
    floor = -(-n // n1)  # ceil(n / N1)
    counts = np.full(n1, floor, dtype=np.int64)
    powers = _powers(a.tolist(), p)
    total = math.fsum(powers.tolist())
    if total > 0.0:
        heavy = powers > total / n1
        counts[heavy] = np.ceil(powers[heavy] * n / total).astype(np.int64)
    return counts


def _powers(values: list[float], p: float) -> np.ndarray:
    """``x**p`` for every x, scaled by one power of two if need be.

    Scalar powers and a correctly rounded sum keep the proportional-share
    ceilings reproducible down to the last ulp, where a pairwise-summed
    total can land a share on the wrong side of an integer. When the largest
    power would overflow or fall below the normal range, the values are
    first divided by a power of two that brings the largest into [1/2, 1);
    the shares of the total are unchanged by that, and every in-range input
    keeps its unscaled powers bit for bit.
    """
    top = max(values)
    try:
        powers = [x**p for x in values]
        normal = top == 0.0 or max(powers) >= sys.float_info.min
    except OverflowError:
        normal = False
    if not normal:
        _, exponent = math.frexp(top)
        powers = [math.ldexp(x, -exponent) ** p for x in values]
    return np.array(powers)


def default_probe_count(n1: int) -> int:
    """Default stage-one repetition count: max(1, ceil(log2(N1 + 1)))."""
    return max(1, math.ceil(math.log2(n1 + 1)))


def adaptive_mean_a3(
    tape: QueryTape, n: int, m: int, p, rng: RngStream
) -> EstimateReport:
    """Two-stage adaptive mean estimate; see the module docstring.

    Requires an ADAPTIVE tape, n >= N1, and 1 <= p < 2. Cost is at most
    6*m*n, so a tape budget of 6*m*n never raises ``BudgetExceeded``.
    """
    if tape.mode is not Mode.ADAPTIVE:
        raise PreconditionViolated("adaptive_mean_a3 requires an ADAPTIVE tape")
    spec = tape.spec
    n1, n2 = spec.n1, spec.n2
    n = int(n)
    if n < n1:
        raise PreconditionViolated(f"n = {n} must be at least N1 = {n1}")
    m = int(m)
    if m < 1:
        raise PreconditionViolated("m must be a positive integer")
    p = as_exponent(p)
    if not p < 2.0:
        raise PreconditionViolated(f"p must lie in [1, 2), got {p}")

    per_probe = -(-n // n1)  # ceil(n / N1) samples per probe

    # Stage 1: m empirical L_2 probes per row, one column plan shared by all
    # rows and asked as one rows x columns grid, then the per-row median of
    # the m probe values. Scaling by a power of two just above the max abs
    # before squaring keeps the squares from overflowing; it is exact, so
    # a_tilde stays homogeneous in the input and bit-identical wherever the
    # unscaled squares were in range.
    g1 = rng.child(_STAGE_PROBE).generator()
    probe_cols = g1.integers(1, n2 + 1, size=(per_probe, m))
    rows1 = np.arange(1, n1 + 1, dtype=np.int64).reshape(n1, 1)
    cols1 = probe_cols.reshape(1, per_probe * m)
    vals1 = tape.query_many(rows1, cols1).reshape(n1, per_probe, m)
    _, exponent = np.frexp(max(vals1.max(), -vals1.min()))
    np.ldexp(vals1, -exponent, out=vals1)
    probes = np.sqrt(np.square(vals1, out=vals1).mean(axis=1))
    a_tilde = np.ldexp(np.median(probes, axis=1), exponent)
    stage1 = n1 * per_probe * m

    # Stage 2: proportional row budgets, one mean estimate per row.
    allocation = allocate_samples(a_tilde, p, n)
    total = int(allocation.sum())
    g2 = rng.child(_STAGE_SAMPLE).generator()
    rows2 = np.repeat(np.arange(1, n1 + 1, dtype=np.int64), allocation)
    cols2 = g2.integers(1, n2 + 1, size=total)
    vals2 = tape.query_many(rows2, cols2)
    starts = np.zeros(n1, dtype=np.int64)
    np.cumsum(allocation[:-1], out=starts[1:])
    row_estimates = np.add.reduceat(vals2, starts) / allocation

    return EstimateReport(
        value=float(row_estimates.mean()),
        cards=stage1 + total,
        stage_cards=(stage1, total),
        allocation=allocation,
    )

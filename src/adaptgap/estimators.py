"""Randomized mean and norm estimators over the query oracle.

Three estimators are provided:

* ``norm_est_a1`` -- empirical L_v norm from n i.i.d. uniform draws of a
  population vector, the statistic that each probe of the adaptive
  estimator's first stage computes (at v = 2) on one row.
* ``mc_mean_a2`` -- plain Monte Carlo: the average of the answers to a
  NONADAPTIVE tape's plan, normally ``draw_plan``'s n uniform
  with-replacement entries. Non-adaptive (the plan is fixed before any
  answer) and unbiased, with cost exactly n. Each sample is one uniform
  flat entry index f in [0, N1*N2), one bounded draw, the 0-based entry
  (f // N2, f % N2). The drawn plan draws each block of indices as the
  tape answers it, and a2 sums the answers block by block, so it holds one
  block of indices and answers, not n-length arrays. At integer entries,
  and whenever n <= ``PLAN_BLOCK``, the value equals the mean of all n
  answers at once bit for bit; otherwise it may differ in the last bits.
  On a tape over a ``RowChunk`` it sums each instance's row of answers and
  returns one mean per instance.
* ``adaptive_mean_a3`` -- two-stage adaptive estimator for 1 <= p < 2, the
  p of its tape's spec.
  Stage one probes every row with m independent empirical L_2 norms of
  ceil(n/N1) samples each and takes the per-row median as a robust row-size
  estimate. Stage two splits a budget of about n row samples proportionally
  to the p-th powers of those medians (never below ceil(n/N1) per row),
  estimates each row mean, and averages. Total cost is at most 6*m*n. Both
  stages ask in blocks of about ``PLAN_BLOCK`` answers: stage one a block
  of rows against all probe columns, stage two a block of its row-ordered
  samples, drawn as the block is asked and summed into the sums of the rows
  it covers. So a3 holds one block of answers and a few N1-length vectors,
  not the m*n-answer probe grid. Each stage checks its whole count against
  the budget first, so a stage that would exceed it charges nothing. The
  row sizes equal those of the whole grid asked at once bit for bit unless
  the grid's answers span more than about 2^511, where the per-block scale
  keeps small rows that the whole grid's scale lost. The value is the same
  bit for bit at integer entries and whenever each row's samples fall in
  one block; otherwise it may differ in its last bits.

``run_a2`` and ``run_a3`` run an estimator on a matrix, ``run_a2`` also on a
chunk: each opens the tape the estimator is entitled to (a drawn plan, or a
6*m*n budget), and ``run_a3`` refuses exponents outside p < 2 < u.

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
from . import oracle
from .oracle import Mode, Plan, QueryTape, open_adaptive, open_nonadaptive
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, RowChunk, as_count, as_exponent, row_norm

__all__ = [
    "EstimateReport",
    "median",
    "norm_est_a1",
    "draw_plan",
    "mc_mean_a2",
    "allocate_samples",
    "adaptive_mean_a3",
    "default_probe_count",
    "require_adaptive_regime",
    "run_a2",
    "run_a3",
]

# Child-stream ids for the two estimator stages.
_STAGE_PROBE = 1
_STAGE_SAMPLE = 2


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimator run.

    ``cards`` is the total number of queries charged; ``stage_cards`` splits
    it into (stage-1, stage-2) counts for the two-stage estimator, whose
    per-row sample counts are reported in ``allocation``. Plain Monte Carlo
    on a chunk reports an array of ``value`` s, one per instance, and each
    instance's ``cards``.
    """

    value: float | np.ndarray
    cards: int
    stage_cards: tuple[int, int] | None = None
    allocation: np.ndarray | None = None


def median(values, axis: int | None = None):
    """Median of a nonempty sequence, or of every slice along ``axis``.

    The sorted middle element for odd length, and ``(a + b) / 2`` of the two
    middle elements for even length. Both are computed as ``np.median``
    computes them, whose sum starts from +0.0, so the result equals
    ``np.median`` bit for bit on NaN-free input, signed zeros included.
    With ``axis=None`` the values are flattened and a float is returned;
    otherwise an array with ``axis`` removed.
    """
    z = np.array(values, dtype=np.float64)  # a copy, sorted in place
    if axis is None:
        z = z.reshape(-1)
        axis = 0
    m = z.shape[axis]
    if m == 0:
        raise EmptyInput("median of an empty sequence")
    z.sort(axis=axis)
    # The middle slices, as views along the last axis.
    z = z.swapaxes(axis, -1)
    if m % 2 == 1:
        mid = z[..., (m - 1) // 2] + 0.0
    else:
        mid = (z[..., m // 2 - 1] + z[..., m // 2] + 0.0) / 2.0
    return float(mid) if z.ndim == 1 else mid


def norm_est_a1(population, v, n: int, rng: RngStream) -> float:
    """Empirical L_v norm from n uniform draws of a finite population.

    ``population`` is a nonempty vector of values. The draws are indices
    ``integers(0, size, size=n)``, and the estimate is
    ((1/n) * sum |value|^v)^(1/v) over the values they pick, as ``row_norm``
    of those values computes it. The expected deviation from the true
    averaged L_v norm decays like n^max(1/u - 1/v, -1/2) for populations
    bounded in L_u. n is refused as ``draw_plan`` refuses it.
    """
    v = as_exponent(v)
    if v == INF:
        raise InvalidExponent("v must be finite")
    population = np.asarray(population, dtype=np.float64)
    if population.ndim != 1 or population.size < 1:
        raise ValueError("population must be a nonempty 1-D vector")
    n = _plan_length(n)
    idx = rng.generator().integers(0, population.size, size=n)
    return row_norm(population[idx], v)


def _plan_length(n) -> int:
    """n as an int, or ``ValueError`` unless n is an integer and
    1 <= n <= 2^53: beyond 2^53 queries the count is no longer exact in
    float64, and neither are ``mean_card`` and ``total / n``."""
    n = as_count(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    if n > 1 << 53:
        raise ValueError(
            f"n = {n} queries exceed 2^53, beyond which counts are not exact "
            "in float64"
        )
    return n


def draw_plan(spec: ProblemSpec, n: int, rng: RngStream) -> Plan:
    """The n uniform entries that ``run_a2`` asks for ``rng``, as a drawn
    ``Plan`` of flat indices, drawn block by block as it is answered.

    Refuses an n that is not an integer, or more than 2^53 queries, with
    ``ValueError``.
    """
    n = _plan_length(n)
    return Plan.drawn(n, spec, rng.generator())


def mc_mean_a2(tape: QueryTape) -> EstimateReport:
    """Average of the answers to a NONADAPTIVE tape's plan; cost exactly its
    n queries.

    The answers come from ``tape.answers()``, block by block, and the value
    is the sum of the block sums over n. On a chunk's tape, whose blocks
    hold one row per instance, each row is summed: ``value`` holds one mean
    per instance, and ``cards`` is each instance's n, the plan's size over
    the number of sums. Raises ``PreconditionViolated`` on an ADAPTIVE
    tape, which has no plan, and ``ValueError`` on an empty plan.
    """
    if tape.mode is not Mode.NONADAPTIVE:
        raise PreconditionViolated("mc_mean_a2 requires a NONADAPTIVE tape")
    if tape.plan.size < 1:
        raise ValueError("the plan must hold at least one query")
    total = None
    for vals in tape.answers():
        block = np.add.reduce(vals, axis=-1)
        total = block if total is None else total + block
    n = tape.plan.size // np.size(total)
    # With one block this is np.add.reduce(x) / len(x), what x.mean() computes.
    value = total / n
    return EstimateReport(value=value if np.ndim(value) else float(value), cards=n)


def allocate_samples(a_tilde, p, n: int) -> np.ndarray:
    """Per-row sample counts proportional to the p-th powers of row sizes.

    Rows whose ``a_tilde[i]**p`` does not exceed the average of all such
    powers get the flat floor ceil(n/N1); heavier rows get
    ceil(a_tilde[i]**p * n / sum(a_tilde**p)). Every count is at least the
    flat floor. An all-zero ``a_tilde`` takes the flat branch everywhere.

    The powers and their sum come from ``_powers``. The threshold and the
    shares are float64 array operations, which round each ``x * n / total``
    exactly as Python floats do, so the counts are those of the scalar
    formula. At p = 1 the powers are the values themselves (``x**1.0`` is
    x), so only the sum is taken in Python, unless the values must be
    rescaled first.
    """
    a = np.asarray(a_tilde, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("a_tilde must be a nonempty 1-D vector")
    # A NaN makes the minimum NaN, which fails the comparison too; without
    # one, the maximum is the largest value.
    if not (np.minimum.reduce(a) >= 0.0 and (top := float(np.maximum.reduce(a))) < INF):
        raise ValueError("a_tilde must be finite and nonnegative")
    p = as_exponent(p)
    if not p < 2.0:
        raise InvalidExponent(f"p must lie in [1, 2), got {p}")
    n = as_count(n, "n")
    n1 = a.size
    if n < n1:
        raise ValueError(f"n = {n} must be at least N1 = {n1}")
    powers, total = _powers(a, top, p, n)
    heavy = powers > total / n1
    counts = np.full(n1, -(-n // n1), dtype=np.int64)  # ceil(n / N1)
    counts[heavy] = np.ceil(powers[heavy] * n / total)
    return counts


def _powers(a: np.ndarray, top: float, p: float, n: int) -> tuple[np.ndarray, float]:
    """``x**p`` for every x of ``a`` and their sum, scaled by one power of two
    if need be. ``top`` is the largest of the values.

    Scalar powers and a correctly rounded sum keep the proportional-share
    ceilings reproducible down to the last ulp, where a pairwise-summed
    total, or an array power that lands one ulp away, can put a share on the
    wrong side of an integer. When the largest power would fall below the
    normal range, or a power, their sum or the sum times n would overflow,
    the values are first divided by a power of two that brings the largest
    into [1/2, 1); the shares of the total are unchanged by that, and every
    in-range input keeps its unscaled powers bit for bit.
    """
    values = a.tolist()
    unit = p == 1.0  # x**1.0 is x: the values are their own powers
    try:
        powers = values if unit else [x**p for x in values]
        total = math.fsum(powers)
        largest = top if unit else max(powers)
        normal = top == 0.0 or (largest >= sys.float_info.min and total * n < INF)
    except OverflowError:
        normal = False
    if normal and unit:
        return a, total
    if not normal:
        _, exponent = math.frexp(top)
        powers = [math.ldexp(x, -exponent) ** p for x in values]
        total = math.fsum(powers)
    return np.array(powers), total


def default_probe_count(n1: int) -> int:
    """Default stage-one repetition count: max(1, ceil(log2(N1 + 1)))."""
    return max(1, math.ceil(math.log2(n1 + 1)))


def adaptive_mean_a3(tape: QueryTape, n: int, m: int, rng: RngStream) -> EstimateReport:
    """Two-stage adaptive mean estimate; see the module docstring.

    Requires an ADAPTIVE tape, an integer n >= N1, and 1 <= p < 2 for the p
    of ``tape.spec``. Cost is at most 6*m*n, so a tape budget of 6*m*n never
    raises ``BudgetExceeded``.
    """
    if tape.mode is not Mode.ADAPTIVE:
        raise PreconditionViolated("adaptive_mean_a3 requires an ADAPTIVE tape")
    spec = tape.spec
    n1, n2 = spec.n1, spec.n2
    n = as_count(n, "n")
    if n < n1:
        raise PreconditionViolated(f"n = {n} must be at least N1 = {n1}")
    m = as_count(m, "m")
    if m < 1:
        raise PreconditionViolated("m must be a positive integer")
    if not spec.p < 2.0:
        raise PreconditionViolated(f"p must lie in [1, 2), got {spec.p}")

    block = oracle.PLAN_BLOCK
    per_probe = -(-n // n1)  # ceil(n / N1) samples per probe
    k = per_probe * m
    stage1 = n1 * k
    row_ids = np.arange(n1, dtype=np.int64)

    # Stage 1: m empirical L_2 probes per row, one column plan shared by all
    # rows, then the per-row median of the m probe values. The k probe
    # columns are drawn flat, which gives the same values as a (per_probe,
    # m) draw, and the rows are asked against all of them a block of about
    # PLAN_BLOCK answers at a time. With m > 1 a block is laid out
    # probe-major, (per_probe, rows, m), and summed over axis 0: numpy adds
    # the probe samples in the same order as over axis 1 of the row-major
    # (rows, per_probe, m), element by element, and about 5x faster. With
    # m = 1 the row-major sum runs pairwise along the last axis instead, so
    # such a stage stays row-major. Scaling a block by a power of two just
    # above its max abs before squaring keeps the squares from overflowing;
    # it is exact, so a_tilde stays homogeneous in the input and
    # bit-identical wherever the unscaled squares were in range, and equal
    # to the whole grid's unless that grid's answers span more than 2^511.
    # A block whose answers are all zero, as most of a gap trial's are,
    # skips the arithmetic and writes the +0.0 it would give.
    g1 = rng.child(_STAGE_PROBE).generator()
    cols1 = g1.integers(0, n2, size=k)
    step = max(1, block // k)  # rows per block
    # Each stage checks its whole count first, so it charges nothing if it
    # cannot finish.
    tape.check_budget(stage1)
    if m > 1:
        cols1 = cols1.reshape(per_probe, 1, m)
        row_shape, grid, axis = (1, -1, 1), (per_probe, -1, m), 0
    else:
        cols1 = cols1.reshape(1, k)
        row_shape, grid, axis = (-1, 1), (-1, per_probe, m), 1
    a_tilde = np.empty(n1)
    for start in range(0, n1, step):
        rows = row_ids[start : start + step].reshape(row_shape)
        vals = tape.query_many(rows, cols1)
        scale = max(np.maximum.reduce(vals), -np.minimum.reduce(vals))
        if scale == 0.0:
            # All +-0: every probe, and so every median, is +0.0.
            a_tilde[start : start + step] = 0.0
            continue
        # In place, the last argument being the output. The signs go when
        # the values are squared.
        _, exponent = math.frexp(scale)
        np.ldexp(vals, -exponent, vals)
        sums = np.add.reduce(np.square(vals, vals).reshape(grid), axis)
        probes = np.sqrt(np.true_divide(sums, per_probe, sums), sums)
        np.ldexp(median(probes, axis=1), exponent, a_tilde[start : start + step])

    # Stage 2: proportional row budgets, one mean estimate per row. The
    # row-ordered sample positions [starts, ends) are drawn and answered
    # PLAN_BLOCK at a time, and each block adds its part of every row it
    # covers into that row's sum, in block order. The sums start at -0.0,
    # which leaves the first part added, +0.0 included, exactly as it is.
    # When all positions fit one block, that block covers every row whole:
    # its segment sums are the row sums, and no segment is empty, as every
    # count is at least ceil(n/N1) >= 1.
    allocation = allocate_samples(a_tilde, spec.p, n)
    ends = np.add.accumulate(allocation)
    starts = ends - allocation
    total = int(ends[-1])
    tape.check_budget(total)
    g2 = rng.child(_STAGE_SAMPLE).generator()
    if total <= block:
        cols = g2.integers(0, n2, size=total)
        vals = tape.query_many(row_ids.repeat(allocation), cols)
        row_sums = np.add.reduceat(vals, starts)
    else:
        row_sums = np.full(n1, -0.0)
        for start in range(0, total, block):
            end = min(start + block, total)
            # The rows [first, last) whose positions meet [start, end).
            first = ends.searchsorted(start, "right")
            last = ends.searchsorted(end) + 1
            offsets = np.maximum(starts[first:last], start)
            counts = np.minimum(ends[first:last], end) - offsets
            offsets -= start
            cols = g2.integers(0, n2, size=end - start)
            vals = tape.query_many(row_ids[first:last].repeat(counts), cols)
            row_sums[first:last] += np.add.reduceat(vals, offsets)
    row_estimates = row_sums / allocation

    return EstimateReport(
        value=float(np.add.reduce(row_estimates) / n1),
        cards=stage1 + total,
        stage_cards=(stage1, total),
        allocation=allocation,
    )


def require_adaptive_regime(p: float, u: float) -> None:
    """Raise ``PreconditionViolated`` unless p < 2 < u, the regime in which
    the adaptive estimator is run."""
    if not p < 2.0 < u:
        raise PreconditionViolated(
            f"the adaptive estimator requires p < 2 < u, got p={p:g}, u={u:g}"
        )


def run_a2(f: MixedMatrix | RowChunk, n: int, rng: RngStream) -> EstimateReport:
    """Plain Monte Carlo on ``f``: a NONADAPTIVE tape opened on
    ``draw_plan(f.spec, n, rng)``, answered by ``mc_mean_a2``. On a chunk of
    T instances, n is the whole plan's size, n / T queries each."""
    return mc_mean_a2(open_nonadaptive(f, draw_plan(f.spec, n, rng)))


def run_a3(f: MixedMatrix, n: int, m: int | None, rng: RngStream) -> EstimateReport:
    """The adaptive estimator on ``f`` through an ADAPTIVE tape of budget
    6*m*n; ``m=None`` is ``default_probe_count(N1)``. Requires p < 2 < u."""
    spec = f.spec
    require_adaptive_regime(spec.p, spec.u)
    m = default_probe_count(spec.n1) if m is None else as_count(m, "m")
    n = as_count(n, "n")
    # At least 1 and N1: adaptive_mean_a3 refuses a smaller m or n by name.
    tape = open_adaptive(f, budget=6 * max(m, 1) * max(n, spec.n1))
    return adaptive_mean_a3(tape, n, m, rng)

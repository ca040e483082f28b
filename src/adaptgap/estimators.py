"""Randomized mean and norm estimators over the query oracle.

Three estimators are provided:

* ``norm_est_a1`` -- empirical L_v norm from n i.i.d. uniform draws of a
  population; the building block of the adaptive estimator's first stage.
* ``mc_mean_a2`` -- plain Monte Carlo: the average of n uniform
  with-replacement entry samples. Non-adaptive (the sample positions never
  depend on answers) and unbiased, with cost exactly n. On a NONADAPTIVE
  tape it answers the tape's declared plan, normally ``draw_plan`` for the
  same stream, so the plan is drawn once. It answers the plan block by
  block and sums the block sums, so it holds the plan's compact rows
  (2 bytes per query up to N1 = 65535) and one block of int64 indices and
  answers, not n-length index and answer arrays. At integer entries, and
  whenever n <= ``PLAN_BLOCK``, the value equals the mean of all n answers
  at once bit for bit; otherwise it may differ in the last bits.
* ``adaptive_mean_a3`` -- two-stage adaptive estimator for 1 <= p < 2.
  Stage one probes every row with m independent empirical L_2 norms of
  ceil(n/N1) samples each and takes the per-row median as a robust row-size
  estimate. Stage two splits a budget of about n row samples proportionally
  to the p-th powers of those medians (never below ceil(n/N1) per row),
  estimates each row mean, and averages. Total cost is at most 6*m*n.

``run_a2`` and ``run_a3`` run an estimator on a matrix: each opens the tape
the estimator is entitled to (the drawn plan, or a 6*m*n budget), and
``run_a3`` refuses exponents outside p < 2 < u.

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
from .oracle import Mode, Plan, QueryTape, open_adaptive, open_nonadaptive
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, as_exponent

__all__ = [
    "EstimateReport",
    "median",
    "norm_est_a1",
    "draw_indices",
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
    per-row sample counts are reported in ``allocation``.
    """

    value: float
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
    arr = np.asarray(values, dtype=np.float64)
    if axis is None:
        arr = arr.ravel()
        axis = 0
    m = arr.shape[axis]
    if m == 0:
        raise EmptyInput("median of an empty sequence")
    z = np.sort(arr, axis=axis)
    if m % 2 == 1:
        mid = z.take((m - 1) // 2, axis=axis) + 0.0
    else:
        low = z.take(m // 2 - 1, axis=axis)
        mid = (low + z.take(m // 2, axis=axis) + 0.0) / 2.0
    return float(mid) if z.ndim == 1 else mid


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
    """The n uniform (i, j) pairs that ``mc_mean_a2`` queries for ``rng``,
    as one ``(n, 2)`` array: the same pairs as ``draw_plan``.

    Exposed so callers can declare the sequence explicitly on a
    non-adaptive tape. The result has contiguous columns, so
    ``open_nonadaptive`` keeps it without a copy.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    g = rng.generator()
    rows = g.integers(1, spec.n1 + 1, size=n)
    cols = g.integers(1, spec.n2 + 1, size=n)
    return np.array([rows, cols]).T


def draw_plan(spec: ProblemSpec, n: int, rng: RngStream) -> Plan:
    """The n uniform (i, j) pairs that ``mc_mean_a2`` queries for ``rng``,
    as a drawn ``Plan``: the pairs of ``draw_indices(spec, n, rng)``, with
    the rows held compact and the columns drawn block by block."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    return Plan.drawn(n, spec.n1, spec.n2, rng.generator())


def mc_mean_a2(tape: QueryTape, n: int, rng: RngStream) -> EstimateReport:
    """Average of n uniform with-replacement entry samples; cost exactly n.

    On an ADAPTIVE tape the samples are ``draw_plan(tape.spec, n, rng)``.
    On a NONADAPTIVE tape they are the tape's declared plan, which must hold
    exactly n pairs, and ``rng`` is not drawn from. Either plan is answered
    in the blocks it hands out, and the value is the sum of the block sums
    over n.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if tape.mode is Mode.NONADAPTIVE:
        plan = tape.plan
        if plan.size != n:
            raise PreconditionViolated(
                f"the declared plan holds {plan.size} queries, not n = {n}"
            )
    else:
        plan = draw_plan(tape.spec, n, rng)
    total = None
    for rows, cols in plan.blocks():
        block = np.add.reduce(tape.query_many(rows, cols))
        total = block if total is None else total + block
    # With one block this is np.add.reduce(x) / len(x), what x.mean() computes.
    return EstimateReport(value=float(total / n), cards=n)


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
    # A NaN makes the minimum NaN, which fails the comparison too.
    if not (np.minimum.reduce(a) >= 0.0 and np.maximum.reduce(a) < INF):
        raise ValueError("a_tilde must be finite and nonnegative")
    p = as_exponent(p)
    if not p < 2.0:
        raise InvalidExponent(f"p must lie in [1, 2), got {p}")
    n = int(n)
    n1 = a.size
    if n < n1:
        raise ValueError(f"n = {n} must be at least N1 = {n1}")
    floor = -(-n // n1)  # ceil(n / N1)
    powers, total = _powers(a.tolist(), p, n)
    threshold = total / n1
    # Python floats round x * n / total exactly as float64 arrays do.
    return np.array(
        [math.ceil(x * n / total) if x > threshold else floor for x in powers],
        dtype=np.int64,
    )


def _powers(values: list[float], p: float, n: int) -> tuple[list[float], float]:
    """``x**p`` for every x and their sum, scaled by one power of two if need be.

    Scalar powers and a correctly rounded sum keep the proportional-share
    ceilings reproducible down to the last ulp, where a pairwise-summed
    total can land a share on the wrong side of an integer. When the largest
    power would fall below the normal range, or a power, their sum or the
    sum times n would overflow, the values are first divided by a power of
    two that brings the largest into [1/2, 1); the shares of the total are
    unchanged by that, and every in-range input keeps its unscaled powers
    bit for bit.
    """
    top = max(values)
    try:
        powers = [x**p for x in values]
        total = math.fsum(powers)
        normal = top == 0.0 or (
            max(powers) >= sys.float_info.min and total * n < INF
        )
    except OverflowError:
        normal = False
    if not normal:
        _, exponent = math.frexp(top)
        powers = [math.ldexp(x, -exponent) ** p for x in values]
        total = math.fsum(powers)
    return powers, total


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
    # unscaled squares were in range. The k = per_probe * m probe columns are
    # drawn flat, which gives the same values as a (per_probe, m) draw.
    k = per_probe * m
    g1 = rng.child(_STAGE_PROBE).generator()
    cols1 = g1.integers(1, n2 + 1, size=k).reshape(1, k)
    row_ids = np.arange(1, n1 + 1, dtype=np.int64)
    vals1 = tape.query_many(row_ids.reshape(n1, 1), cols1)
    _, exponent = math.frexp(
        max(np.maximum.reduce(vals1), -np.minimum.reduce(vals1))
    )
    np.ldexp(vals1, -exponent, out=vals1)
    sums = np.add.reduce(np.square(vals1, out=vals1).reshape(n1, per_probe, m), 1)
    probes = np.sqrt(np.true_divide(sums, per_probe, out=sums), out=sums)
    a_tilde = np.ldexp(median(probes, axis=1), exponent)
    stage1 = n1 * k

    # Stage 2: proportional row budgets, one mean estimate per row.
    allocation = allocate_samples(a_tilde, p, n)
    ends = np.add.accumulate(allocation)
    total = int(ends[-1])
    g2 = rng.child(_STAGE_SAMPLE).generator()
    rows2 = np.repeat(row_ids, allocation)
    cols2 = g2.integers(1, n2 + 1, size=total)
    vals2 = tape.query_many(rows2, cols2)
    row_estimates = np.add.reduceat(vals2, ends - allocation) / allocation

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


def run_a2(f: MixedMatrix, n: int, rng: RngStream) -> EstimateReport:
    """Plain Monte Carlo on ``f``: a NONADAPTIVE tape opened on
    ``draw_plan(f.spec, n, rng)``, answered by ``mc_mean_a2``."""
    return mc_mean_a2(open_nonadaptive(f, draw_plan(f.spec, n, rng)), n, rng)


def run_a3(f: MixedMatrix, n: int, m: int | None, rng: RngStream) -> EstimateReport:
    """The adaptive estimator on ``f`` through an ADAPTIVE tape of budget
    6*m*n; ``m=None`` is ``default_probe_count(N1)``. Requires p < 2 < u."""
    require_adaptive_regime(f.spec.p, f.spec.u)
    m = default_probe_count(f.spec.n1) if m is None else int(m)
    tape = open_adaptive(f, budget=6 * m * n)
    return adaptive_mean_a3(tape, n, m, f.spec.p, rng)

"""Seeded experiment harness: RMS curves, rate fits, and the adaption gap.

Every experiment is a deterministic function of its master seed: trial t of
an experiment draws from the stream (master_seed, ...grid indices..., t), so
adding trials extends earlier results and worker counts never change the
numbers. Trials are embarrassingly parallel: every trial of an experiment
goes through one worker pool, and reductions happen in trial order after
collection, which keeps outputs bitwise reproducible for any ``workers``
setting; the pool never outnumbers the trials or the usable CPUs.

Ground-truth means are computed by direct summation outside the query
oracle; they are measurement infrastructure, not algorithmic information.
The error metric is RMS over trials (the mean absolute error rides along as
a secondary statistic), with a delta-method standard error. A trial returns
a ``(signed error, cost)`` pair per column; the trial loop reduces every
column in one place, so a column whose squares would leave the float range
can be scaled first.

Each experiment returns one :class:`Table`: its rows as printed, one
namedtuple type per experiment, and the footer items that follow them. Its
parameters are named as the CLI options that the command line passes on.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .direct_sum import (DirectSumElement, DirectSumSpec, LevelAllocation, ds_estimate,
                         ds_integral, level_allocation, level_size)
from .errors import (
    InsufficientPoints,
    InvalidParameters,
    NonfiniteError,
    NonpositiveError,
    RegimeViolation,
)
from .estimators import norm_est_a1, run_a2, run_a3
from .hard_instances import HardFamily, Variant
from .oracle import Mode
from .rng import RngStream
from .spaces import INF, ProblemSpec, abbreviate, row_norm, scalar_mean

__all__ = [
    "REGIME_GUARD_DEFAULT",
    "EstimatorKind",
    "Regime",
    "TrialStats",
    "RateFit",
    "Table",
    "rms_error",
    "rate_fit",
    "gap_experiment",
    "rate_experiment",
    "ds_experiment",
    "norm_deviation_experiment",
]

#: Default sampling-regime guard constant: grids must satisfy n < guard*N1*N2.
#: A sufficient condition for the adversarial regime, not a necessary one,
#: so experiments accept an override.
REGIME_GUARD_DEFAULT = 1.0 / 21.0


class EstimatorKind(enum.Enum):
    A2 = "a2"
    A3 = "a3"


class Regime(enum.Enum):
    P_GE_U = "p-ge-u"
    P_LT_U_LE_2 = "p-lt-u-le-2"
    TWO_LE_P_LT_U = "two-le-p-lt-u"
    P_LT_2_LT_U = "p-lt-2-lt-u"


@dataclass(frozen=True)
class TrialStats:
    rms: float
    stderr: float
    mean_card: float
    mae: float
    trials: int


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log2 n, log2 error)."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class Table:
    """One experiment's result, as it is printed.

    ``rows`` are namedtuples whose fields are ``columns``. ``footer`` holds
    ``(kind, label, value)`` items in print order: ``("fit", label, (fit,
    target))``, ``("predicted", label, ((n, rms), ...))``, ``("ratio",
    label, ratio)`` and ``("true norm", "", norm)``. ``settings`` holds the
    parameters the experiment resolved itself.
    """

    columns: tuple[str, ...]
    rows: tuple
    footer: tuple = ()
    settings: dict = field(default_factory=dict)

    @property
    def fits(self) -> dict[str, RateFit | None]:
        """The footer's fits by label."""
        return {label: value[0] for kind, label, value in self.footer if kind == "fit"}


def _parallel_map(fn, items: list, workers: int) -> list:
    """``map(fn, items)`` on at most ``workers`` processes, and never on more
    than there are items or usable CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, len(items), cpus)
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here, as rng defers numpy.random: a one-worker run never
    # pays for concurrent.futures.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _run_trial(item):
    fn, args, seed, stream = item
    return fn(*args, RngStream(seed, stream))


def _run_cells(cells, seed: int, workers: int) -> list[list[TrialStats]]:
    """Run every trial of every cell through one worker pool.

    A cell is ``(fn, args, path, trials)``: trial t calls the module-level
    ``fn(*args, stream)`` on the stream ``(seed, *path, t)``, which returns
    one ``(signed error, cost)`` pair per column. Returns, in cell order,
    each cell's columns reduced over its trials in trial order.
    """
    if any(trials < 2 for *_, trials in cells):
        raise InvalidParameters("trials must be at least 2")
    items = [
        (fn, args, int(seed), path + (t,))
        for fn, args, path, trials in cells
        for t in range(trials)
    ]
    results = iter(_parallel_map(_run_trial, items, workers))
    return [[_stats_from_trials(column) for column in zip(*islice(results, trials))]
            for *_, trials in cells]


def _stats_from_trials(results: Sequence[tuple[float, int]]) -> TrialStats:
    """RMS, its delta-method standard error, the mean absolute error and the
    mean cost of one column's ``(signed error, cost)`` trials.

    The standard error squares the squared errors' deviations, so it needs
    the largest error's fourth power in the normal range. When it is not,
    the errors are first divided by a power of two that brings the largest
    into [1/2, 1), and rms, stderr and mae are scaled back. The scaling is
    exact, so a cell in range would get the same figures either way; it is
    left unscaled.

    The means and the standard deviation are the ufunc reductions that
    ``ndarray.mean`` and ``ndarray.std(ddof=1)`` run, called directly, so
    they equal those methods bit for bit.
    """
    err = np.array([r[0] for r in results], dtype=np.float64)
    cards = np.array([r[1] for r in results], dtype=np.float64)
    t = err.size
    ab = np.abs(err)
    big = float(np.maximum.reduce(ab))
    fourth = (big * big) * (big * big)
    exponent = 0
    if big > 0.0 and not (sys.float_info.min <= fourth and fourth * t < INF):
        _, exponent = math.frexp(big)
        err = np.ldexp(err, -exponent)
        ab = np.abs(err)
    sq = err * err
    mean_sq = float(np.add.reduce(sq) / t)
    rms = math.sqrt(mean_sq)
    if t > 1 and rms > 0.0:
        d = sq - mean_sq
        sd_sq = math.sqrt(np.add.reduce(d * d) / (t - 1))
        stderr = sd_sq / math.sqrt(t) / (2.0 * rms)
    else:
        stderr = 0.0
    return TrialStats(
        rms=math.ldexp(rms, exponent),
        stderr=math.ldexp(stderr, exponent),
        mean_card=float(np.add.reduce(cards) / t),
        mae=math.ldexp(np.add.reduce(ab) / t, exponent),
        trials=t,
    )


def _estimator_trial(
    family: HardFamily,
    estimator: EstimatorKind,
    n: int,
    m: int | None,
    stream: RngStream,
) -> tuple[tuple[float, int]]:
    """Sample one instance, run one estimator on it, and return the signed
    error and the cost."""
    f = family.sample(stream.child(0))
    truth = scalar_mean(f)
    if estimator is EstimatorKind.A2:
        report = run_a2(f, n, stream.child(1))
    else:
        report = run_a3(f, n, m, stream.child(1))
    return ((report.value - truth, report.cards),)


def rms_error(
    family: HardFamily,
    estimator: EstimatorKind,
    n: int,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    workers: int = 1,
) -> TrialStats:
    """RMS error of one estimator at one budget over seeded trials.

    Trial t samples a fresh instance and runs the estimator on the stream
    (seed, t); returns RMS, its delta-method standard error, the mean
    realized query count, and the mean absolute error.
    """
    cell = (_estimator_trial, (family, estimator, int(n), m), (), trials)
    ((stats,),) = _run_cells([cell], seed, workers)
    return stats


def rate_fit(points) -> RateFit:
    """Ordinary least squares on (log2 n, log2 error).

    Needs at least four points; every n and every error must be finite and
    strictly positive.
    """
    pts = [(float(n), float(err)) for n, err in points]
    if len(pts) < 4:
        raise InsufficientPoints(f"rate fit needs >= 4 points, got {len(pts)}")
    if not all(math.isfinite(n) and math.isfinite(err) for n, err in pts):
        raise NonfiniteError("rate fit requires finite n and errors")
    if any(n <= 0.0 or err <= 0.0 for n, err in pts):
        raise NonpositiveError("rate fit requires strictly positive n and errors")
    x = np.log2([n for n, _ in pts])
    y = np.log2([err for _, err in pts])
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise InvalidParameters("rate fit requires at least two distinct n")
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    residuals = y - (intercept + slope * x)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared)


def _try_fit(points) -> RateFit | None:
    try:
        return rate_fit(points)
    except (InsufficientPoints, NonfiniteError, NonpositiveError):
        return None


def _fit_item(label: str, rows, column: str, target: float) -> tuple:
    """The footer item fitting ``column`` against ``n``, with its target."""
    return "fit", label, (_try_fit([(r.n, getattr(r, column)) for r in rows]), target)


# ---------------------------------------------------------------------------
# Adaption-gap experiment
# ---------------------------------------------------------------------------


_GapRow = namedtuple(
    "GapRow",
    "n n1 n2 trials rms_a2 stderr_a2 rms_a3 stderr_a3 ratio mean_card_a2 "
    "mean_card_a3 seed",
)


def _gap_trial(
    spec: ProblemSpec, n: int, m: int | None, stream: RngStream
) -> tuple[tuple[float, int], tuple[float, int]]:
    """The a2 and the a3 ``(signed error, cost)`` on one instance."""
    f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(stream.child(0))
    truth = scalar_mean(f)
    rep3 = run_a3(f, n, m, stream.child(1))
    # The non-adaptive competitor receives the adaptive run's realized cost.
    rep2 = run_a2(f, rep3.cards, stream.child(2))
    return (rep2.value - truth, rep2.cards), (rep3.value - truth, rep3.cards)


def _dimensions(rule: Callable, n: int):
    """``rule(n)``; a side beyond the float range is a precondition violation."""
    try:
        return rule(n)
    except OverflowError:
        raise InvalidParameters(
            f"budget n = {abbreviate(n)} gives an instance side beyond the float range"
        ) from None


def check_regime(n: int, n1: int, n2: int, c0: float) -> None:
    """Raise unless n < c0 * N1 * N2."""
    if not n < c0 * n1 * n2:
        raise RegimeViolation(
            f"budget n = {abbreviate(n)} violates n < c0*N1*N2 = "
            f"{c0 * n1 * n2:g}; enlarge the instance or relax c0"
        )


def gap_experiment(
    budgets,
    c3: float,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    c0: float = REGIME_GUARD_DEFAULT,
    workers: int = 1,
) -> Table:
    """Adaptive vs non-adaptive RMS at matched realized budgets.

    For each budget n the instance is the active-row family at
    N1 = N2 = ceil(c3 * sqrt(n)) with p = 1, u = INF (the maximal-gap
    regime). Per trial, the adaptive estimator runs at budget n and plain
    Monte Carlo is granted the adaptive run's realized query count, so the
    reported ratio rms_a2 / rms_a3 is conservative against adaption.
    """
    budgets = [int(b) for b in budgets]
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise InvalidParameters("budgets must be strictly increasing")
    if not c3 > 0.0:
        raise InvalidParameters("c3 must be positive")
    if not math.isfinite(c3):
        raise InvalidParameters("c3 must be finite")
    specs = []
    for n in budgets:
        side = _dimensions(lambda n: math.ceil(c3 * math.sqrt(n)), n)
        if n < side:
            raise RegimeViolation(
                f"budget n = {abbreviate(n)} is below N1 = {abbreviate(side)}"
            )
        check_regime(n, side, side, c0)
        specs.append(ProblemSpec(side, side, 1.0, INF))

    cells = [
        (_gap_trial, (spec, n, m), (i,), trials)
        for i, (n, spec) in enumerate(zip(budgets, specs))
    ]
    rows = []
    for n, spec, (a2, a3) in zip(budgets, specs, _run_cells(cells, seed, workers)):
        ratio = a2.rms / a3.rms if a3.rms > 0.0 else math.inf
        rows.append(
            _GapRow(n, spec.n1, spec.n2, trials, a2.rms, a2.stderr, a3.rms,
                    a3.stderr, ratio, a2.mean_card, a3.mean_card, int(seed))
        )
    # An a2 sample on mu4 at p = 1, u = INF is +-N1 with probability 1/N1
    # and 0 otherwise, so rms_a2 is about sqrt(N1 / mean_card_a2).
    predicted = tuple((r.n, math.sqrt(r.n1 / r.mean_card_a2)) for r in rows)
    footer = (
        _fit_item("ratio rms_a2/rms_a3", rows, "ratio", 0.25),
        _fit_item("rms_a2", rows, "rms_a2", -0.25),
        ("predicted", "rms_a2 = sqrt(N1/mean_card_a2)", predicted),
        _fit_item("rms_a3", rows, "rms_a3", -0.5),
    )
    return Table(_GapRow._fields, tuple(rows), footer)


# ---------------------------------------------------------------------------
# Rate-regime experiments
# ---------------------------------------------------------------------------


_RateRow = namedtuple(
    "RateRow",
    "family estimator p u n1 n2 n trials rms stderr mean_card seed mae",
)


#: Trial multiplier for the saturated-regime check: a lone spike is hit with
#: probability below 1/21 per trial under the density guard, so its RMS is a
#: rare-event statistic and needs proportionally more trials.
SATURATED_TRIAL_SCALE = 16


@dataclass(frozen=True)
class _Curve:
    """One rate curve: its family, estimator and target exponent, the
    dimension rule n -> (N1, N2), and an optional closed-form RMS. A curve
    with its own ``budgets`` ignores the caller's."""

    label: str
    variant: Variant
    estimator: EstimatorKind
    target: float
    p: float
    u: float
    shape: Callable[[int], tuple[int, int]]
    trial_scale: int = 1
    predict: Callable[[int], float] | None = None
    budgets: tuple[int, ...] | None = None


def _active_row_shape(n: int) -> tuple[int, int]:
    n1 = math.ceil(math.sqrt(n))
    return n1, math.ceil(21 * n / n1) + 1


_A2, _A3 = EstimatorKind.A2, EstimatorKind.A3

#: Per regime, its default budget ladder and its curves in check order.
#: Each regime's family and dimension rule make the family-averaged error
#: realize the regime's predicted exponent.
_RATE_CURVES = {
    # Per-row spikes at p = 2, u = 1, N2 = 16: the sample second moment is
    # exactly N2, so the closed-form RMS is 4/sqrt(n) for any N1.
    Regime.P_GE_U: ((64, 128, 256, 512, 1024, 2048), (
        _Curve("row-spike mean, p>=u", Variant.ROW_SPIKES, _A2, -0.5, 2.0, 1.0,
               lambda n: (math.ceil(21 * n / 16) + 1, 16),
               predict=lambda n: 4.0 / math.sqrt(n)),
    )),
    Regime.P_LT_U_LE_2: ((64, 128, 256, 512, 1024, 2048, 4096), (
        _Curve("row-spike mean, p<u<=2", Variant.ROW_SPIKES, _A2, -0.5, 1.0, 2.0,
               lambda n: (32, math.ceil(21 * n / 32) + 1)),
    )),
    Regime.TWO_LE_P_LT_U: ((64, 128, 256, 512, 1024, 2048, 4096), (
        _Curve("full-sign mean, 2<=p<u", Variant.FULL_BERNOULLI, _A2, -0.5, 2.0, INF,
               lambda n: (math.ceil(math.sqrt(21 * n)) + 1,) * 2),
    )),
    Regime.P_LT_2_LT_U: ((1024, 4096, 16384, 65536), (
        _Curve("active-row mean, non-adaptive, n>=N1", Variant.ACTIVE_ROW_BERNOULLI,
               _A2, -0.25, 1.0, INF, _active_row_shape),
        _Curve("active-row mean, adaptive, n>=N1", Variant.ACTIVE_ROW_BERNOULLI,
               _A3, -0.5, 1.0, INF, _active_row_shape),
        # Saturated regime n < N1: a spike instance with N1 proportional to
        # n pins the non-adaptive error to a constant.
        _Curve("single-spike mean, n<N1", Variant.SINGLE_SPIKE, _A2, 0.0, 1.0, INF,
               lambda n: (math.ceil(21.5 * n / 16) + 1, 16),
               trial_scale=SATURATED_TRIAL_SCALE, budgets=(16, 32, 64, 128, 256)),
    )),
}


def rate_experiment(
    regime: Regime,
    budgets=None,
    trials: int = 300,
    seed: int = 0,
    *,
    c0: float = REGIME_GUARD_DEFAULT,
    workers: int = 1,
) -> Table:
    """Measure estimator RMS curves in one exponent regime.

    Each regime carries a preset adversarial family and dimension rule whose
    family-averaged error realizes the regime's predicted exponent; the
    footer pairs each curve's fitted slope with that target. Grids are
    guarded by ``check_regime`` with constant ``c0``.
    """
    regime = Regime(regime)
    default_budgets, curves = _RATE_CURVES[regime]
    grids = []
    cells = []
    for check, curve in enumerate(curves):
        ns = [int(b) for b in (curve.budgets or budgets or default_budgets)]
        grid = []
        for j, n in enumerate(ns):
            n1, n2 = _dimensions(curve.shape, n)
            check_regime(n, n1, n2, c0)
            family = HardFamily(curve.variant, ProblemSpec(n1, n2, curve.p, curve.u))
            grid.append((n, family))
            args = (family, curve.estimator, n, None)
            cells.append((_estimator_trial, args, (check, j), trials * curve.trial_scale))
        grids.append(grid)

    results = iter(_run_cells(cells, seed, workers))
    rows = []
    footer = []
    for curve, grid in zip(curves, grids):
        curve_rows = []
        for n, family in grid:
            (stats,) = next(results)
            spec = family.spec
            curve_rows.append(
                _RateRow(family.variant.value, curve.estimator.value, spec.p, spec.u,
                         spec.n1, spec.n2, n, stats.trials, stats.rms, stats.stderr,
                         stats.mean_card, int(seed), stats.mae)
            )
        rows.extend(curve_rows)
        label = f"{curve.label} [{curve.estimator.value}]"
        footer.append(_fit_item(label, curve_rows, "rms", curve.target))
        if curve.predict is not None:
            predicted = tuple((n, curve.predict(n)) for n, _ in grid)
            footer.append(("predicted", curve.label, predicted))
    return Table(_RateRow._fields, tuple(rows), tuple(footer))


# ---------------------------------------------------------------------------
# Direct-sum experiment
# ---------------------------------------------------------------------------


_DsRow = namedtuple("DsRow", "k0 mode trials rms stderr mean_card seed")


def sample_ds_input(spec: DirectSumSpec, rng: RngStream) -> DirectSumElement:
    """One random element: an independent active-row draw at every level <= k_max."""
    levels = []
    for k in range(spec.k_max + 1):
        family = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec.level_spec(k))
        levels.append((k, family.sample(rng.child(k))))
    return DirectSumElement(spec, levels)


def _ds_trial(
    spec: DirectSumSpec,
    schedules: tuple[LevelAllocation, ...],
    modes: tuple[Mode, ...],
    m: int | None,
    stream: RngStream,
) -> list[tuple[float, int]]:
    """One ``(signed error, cost)`` pair per schedule and mode, in that order."""
    x = sample_ds_input(spec, stream.child(0))
    truth = ds_integral(x)
    out = []
    for i, schedule in enumerate(schedules):
        for mode in modes:
            # Stream ids are fixed per (k0, mode), not per position in the
            # requested mode list, so single-mode runs reproduce the
            # corresponding rows of a both-mode run.
            j = 0 if mode is Mode.ADAPTIVE else 1
            rep = ds_estimate(x, schedule, mode, m, stream.child(1 + i * 2 + j))
            out.append((rep.value - truth, rep.cards))
    return out


def _default_delta(k0, alpha: float, c0: float) -> float:
    """The largest multiple of 0.01 in (0, (alpha - 1) / 2] at which every
    k0's schedule gives each level from k0 up a budget of at least N_k, the
    least the adaptive estimator takes. The midpoint (alpha - 1) / 2 if there
    is none; the schedules then refuse it."""
    midpoint = (alpha - 1.0) / 2.0

    def fits(i: int) -> bool:
        delta = i / 100
        return delta <= midpoint and all(
            n_k >= level_size(k)
            for s in (level_allocation(k, alpha, delta, c0) for k in k0)
            for k, n_k in s.levels[s.k0:]
        )

    if not fits(1):
        return midpoint
    # Budgets fall as delta grows, so fits holds up to some i and no further.
    lo, hi = 1, (int(midpoint) + 1) * 100  # fits(lo) holds, fits(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo / 100


def ds_experiment(
    k0=(4, 5, 6),
    trials: int = 200,
    seed: int = 0,
    *,
    alpha: float = 1.5,
    p: float = 1.0,
    u: float = INF,
    delta: float | None = None,
    c0: float = 0.5,
    m: int | None = None,
    k_max: int | None = None,
    mode: str | Mode = "both",
    workers: int = 1,
) -> Table:
    """Adaptive vs non-adaptive composite estimation on random sum inputs.

    Each trial samples one active-row instance per level up to ``k_max``
    (default: the largest level any tested k0 estimates) and runs the
    composites of every k0 in ``mode`` (``"adaptive"``, ``"nonadaptive"``
    or ``"both"``) on the same input. ``delta`` defaults to the largest
    multiple of 0.01 up to the midpoint (alpha - 1) / 2 of its admissible
    interval at which every scheduled level's budget is at least N_k, in
    every mode, so single-mode rows reproduce both-mode rows; to the
    midpoint if there is none. Ratios are reported when
    both modes run. The settings hold ``alpha``, ``p``, ``u``, and
    ``delta`` and ``k_max`` as resolved. Every k0's schedule is built, and
    checked, once before the first trial.
    """
    modes = tuple(Mode) if mode == "both" else (Mode(mode),)
    alpha, c0 = float(alpha), float(c0)
    delta = _default_delta(k0, alpha, c0) if delta is None else float(delta)
    schedules = tuple(level_allocation(k, alpha, delta, c0) for k in k0)
    if not schedules:
        raise InvalidParameters("k0 needs at least one value")
    needed = max(s.k1 for s in schedules)
    k_max = needed if k_max is None else int(k_max)
    if k_max < needed:
        raise InvalidParameters(
            f"k_max = {k_max} truncates below the largest estimated level {needed}"
        )

    spec = DirectSumSpec(alpha, float(p), float(u), k_max)
    args = (spec, schedules, modes, m)
    (cell,) = _run_cells([(_ds_trial, args, (), trials)], seed, workers)
    columns = iter(cell)
    rows = []
    footer = []
    for k in (s.k0 for s in schedules):
        rms = {}
        for kind in modes:
            stats = next(columns)
            rms[kind] = stats.rms
            rows.append(_DsRow(k, kind.value, trials, stats.rms, stats.stderr,
                               stats.mean_card, int(seed)))
        if len(modes) == 2:
            adaptive = rms[Mode.ADAPTIVE]
            ratio = rms[Mode.NONADAPTIVE] / adaptive if adaptive > 0 else math.inf
            footer.append(("ratio", f"k0={k}", ratio))
    settings = {"alpha": alpha, "delta": delta, "k_max": k_max,
                "p": float(p), "u": float(u)}
    return Table(_DsRow._fields, tuple(rows), tuple(footer), settings)


# ---------------------------------------------------------------------------
# Norm-estimation deviation experiment
# ---------------------------------------------------------------------------


_NormRow = namedtuple("NormRow", "v u pop_size n trials rms_dev stderr seed")


def _norm_trial(
    pop: np.ndarray, v: float, n: int, true_norm: float, stream: RngStream
) -> tuple[tuple[float, int]]:
    est = norm_est_a1(pop, v, n, stream)
    return ((est - true_norm, n),)


def norm_deviation_experiment(
    population,
    v: float,
    budgets,
    trials: int,
    seed: int,
    *,
    u: float = INF,
    workers: int = 1,
) -> Table:
    """RMS deviation of the sampled L_v norm from the exact one.

    ``u`` only sets the reported target exponent max(1/u - 1/v, -1/2); the
    population itself is the ground truth.
    """
    pop = np.asarray(population, dtype=np.float64)
    if pop.ndim != 1 or pop.size < 1:
        raise InvalidParameters("population must be a nonempty vector")
    if not np.isfinite(pop).all():
        raise InvalidParameters("population entries must be finite")
    budgets = [int(b) for b in budgets]
    true_norm = row_norm(pop, v)
    cells = [
        (_norm_trial, (pop, float(v), n, true_norm), (i,), trials)
        for i, n in enumerate(budgets)
    ]
    u = float(u)
    rows = []
    for n, (stats,) in zip(budgets, _run_cells(cells, seed, workers)):
        rows.append(_NormRow(float(v), u, pop.size, n, trials, stats.rms, stats.stderr,
                             int(seed)))
    target = max(1.0 / u - 1.0 / float(v), -0.5)
    footer = (_fit_item("rms deviation", rows, "rms_dev", target),
              ("true norm", "", true_norm))
    return Table(_NormRow._fields, tuple(rows), footer)

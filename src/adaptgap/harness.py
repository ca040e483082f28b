"""Seeded experiment harness: RMS curves, rate fits, and the adaption gap.

Every experiment is a deterministic function of its master seed: trial t of
an experiment draws from the stream (master_seed, ...grid indices..., t), so
adding trials extends earlier results and worker counts never change the
numbers. Trials are embarrassingly parallel: every trial of an experiment
goes through one worker pool, and reductions happen in trial order after
collection, which keeps outputs bitwise reproducible for any ``workers``
setting.

Ground-truth means are computed by direct summation outside the query
oracle; they are measurement infrastructure, not algorithmic information.
The error metric is RMS over trials (the mean absolute error rides along as
a secondary statistic), with a delta-method standard error.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .direct_sum import DirectSumElement, DirectSumSpec, ds_estimate, ds_integral
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
from .spaces import INF, ProblemSpec, row_norm, scalar_mean

__all__ = [
    "REGIME_GUARD_DEFAULT",
    "EstimatorKind",
    "Regime",
    "TrialStats",
    "MeasurementRow",
    "RateFit",
    "rms_error",
    "rate_fit",
    "GapRow",
    "GapResult",
    "gap_experiment",
    "RateCheck",
    "RateReport",
    "rate_experiment",
    "DsRow",
    "DsResult",
    "ds_experiment",
    "NormRow",
    "NormEstResult",
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
class MeasurementRow:
    """One line of the long-format experiment table."""

    family: str
    estimator: str
    p: float
    u: float
    n1: int
    n2: int
    n: int
    trials: int
    rms: float
    stderr: float
    mean_card: float
    seed: int
    mae: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log2 n, log2 error)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def _parallel_map(fn, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _run_trial(item):
    fn, args, seed, stream = item
    return fn(*args, RngStream(seed, stream))


def _run_cells(cells, seed: int, workers: int) -> list[list]:
    """Run every trial of every cell through one worker pool.

    A cell is ``(fn, args, path, trials)``: trial t calls the module-level
    ``fn(*args, stream)`` on the stream ``(seed, *path, t)``. Returns each
    cell's trial results, in cell order and trial order.
    """
    items = [
        (fn, args, int(seed), path + (t,))
        for fn, args, path, trials in cells
        for t in range(trials)
    ]
    results = iter(_parallel_map(_run_trial, items, workers))
    return [[next(results) for _ in range(trials)] for *_, trials in cells]


def _stats_from_trials(results: Sequence[tuple[float, float, int]]) -> TrialStats:
    sq = np.array([r[0] for r in results])
    ab = np.array([r[1] for r in results])
    cards = np.array([r[2] for r in results], dtype=np.float64)
    t = sq.size
    mean_sq = float(sq.mean())
    rms = math.sqrt(mean_sq)
    if t > 1 and rms > 0.0:
        se_mean_sq = float(sq.std(ddof=1)) / math.sqrt(t)
        stderr = se_mean_sq / (2.0 * rms)
    else:
        stderr = 0.0
    return TrialStats(
        rms=rms,
        stderr=stderr,
        mean_card=float(cards.mean()),
        mae=float(ab.mean()),
        trials=t,
    )


def _estimator_trial(
    family: HardFamily,
    estimator: EstimatorKind,
    n: int,
    m: int | None,
    stream: RngStream,
) -> tuple[float, float, int]:
    """Sample one instance and run one estimator on it."""
    f = family.sample(stream.child(0))
    truth = scalar_mean(f)
    if estimator is EstimatorKind.A2:
        report = run_a2(f, n, stream.child(1))
    else:
        report = run_a3(f, n, m, stream.child(1))
    err = report.value - truth
    return err * err, abs(err), report.cards


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
    if trials < 2:
        raise InvalidParameters("trials must be at least 2")
    cell = (_estimator_trial, (family, estimator, int(n), m), (), trials)
    (results,) = _run_cells([cell], seed, workers)
    return _stats_from_trials(results)


def rate_fit(points) -> RateFit:
    """Ordinary least squares on (log2 n, log2 error).

    Needs at least four points; every error must be finite and strictly
    positive.
    """
    pts = [(float(n), float(err)) for n, err in points]
    if len(pts) < 4:
        raise InsufficientPoints(f"rate fit needs >= 4 points, got {len(pts)}")
    if not all(math.isfinite(err) for _, err in pts):
        raise NonfiniteError("rate fit requires finite errors")
    if any(err <= 0.0 for _, err in pts):
        raise NonpositiveError("rate fit requires strictly positive errors")
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
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def _try_fit(points) -> RateFit | None:
    try:
        return rate_fit(points)
    except (InsufficientPoints, NonfiniteError, NonpositiveError):
        return None


# ---------------------------------------------------------------------------
# Adaption-gap experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow:
    n: int
    n1: int
    n2: int
    trials: int
    rms_a2: float
    stderr_a2: float
    rms_a3: float
    stderr_a3: float
    ratio: float
    mean_card_a2: float
    mean_card_a3: float


@dataclass(frozen=True)
class GapResult:
    rows: tuple[GapRow, ...]
    ratio_fit: RateFit | None
    a2_fit: RateFit | None
    a3_fit: RateFit | None
    seed: int
    c3: float
    c0: float
    trials: int
    m: int | None


def _gap_trial(
    side: int, n: int, m: int | None, stream: RngStream
) -> tuple[float, float, float, float, int, int]:
    spec = ProblemSpec(side, side, 1.0, INF)
    f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(stream.child(0))
    truth = scalar_mean(f)
    rep3 = run_a3(f, n, m, stream.child(1))
    err3 = rep3.value - truth
    # The non-adaptive competitor receives the adaptive run's realized cost.
    rep2 = run_a2(f, rep3.cards, stream.child(2))
    err2 = rep2.value - truth
    return err2 * err2, abs(err2), err3 * err3, abs(err3), rep2.cards, rep3.cards


def check_regime(n: int, n1: int, n2: int, c0: float) -> None:
    """Raise unless n < c0 * N1 * N2."""
    if not n < c0 * n1 * n2:
        raise RegimeViolation(
            f"budget n = {n} violates n < c0*N1*N2 = {c0 * n1 * n2:g}; "
            "enlarge the instance or relax c0"
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
) -> GapResult:
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
    if trials < 2:
        raise InvalidParameters("trials must be at least 2")
    dims = []
    for n in budgets:
        side = math.ceil(c3 * math.sqrt(n))
        if n < side:
            raise RegimeViolation(f"budget n = {n} is below N1 = {side}")
        check_regime(n, side, side, c0)
        dims.append(side)

    cells = [
        (_gap_trial, (side, n, m), (i,), trials)
        for i, (n, side) in enumerate(zip(budgets, dims))
    ]
    rows = []
    for n, side, results in zip(budgets, dims, _run_cells(cells, seed, workers)):
        a2 = _stats_from_trials([(r[0], r[1], r[4]) for r in results])
        a3 = _stats_from_trials([(r[2], r[3], r[5]) for r in results])
        ratio = a2.rms / a3.rms if a3.rms > 0.0 else math.inf
        rows.append(
            GapRow(
                n=n,
                n1=side,
                n2=side,
                trials=trials,
                rms_a2=a2.rms,
                stderr_a2=a2.stderr,
                rms_a3=a3.rms,
                stderr_a3=a3.stderr,
                ratio=ratio,
                mean_card_a2=a2.mean_card,
                mean_card_a3=a3.mean_card,
            )
        )

    ratio_fit = _try_fit([(r.n, r.ratio) for r in rows])
    a2_fit = _try_fit([(r.n, r.rms_a2) for r in rows])
    a3_fit = _try_fit([(r.n, r.rms_a3) for r in rows])
    return GapResult(
        rows=tuple(rows),
        ratio_fit=ratio_fit,
        a2_fit=a2_fit,
        a3_fit=a3_fit,
        seed=int(seed),
        c3=float(c3),
        c0=float(c0),
        trials=trials,
        m=m,
    )


# ---------------------------------------------------------------------------
# Rate-regime experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCheck:
    """One measured curve plus its theoretical exponent."""

    label: str
    estimator: str
    target_slope: float
    rows: tuple[MeasurementRow, ...]
    fit: RateFit | None
    predicted: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RateReport:
    regime: Regime
    checks: tuple[RateCheck, ...]
    seed: int
    trials: int


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
) -> RateReport:
    """Measure estimator RMS curves in one exponent regime.

    Each regime carries a preset adversarial family and dimension rule whose
    family-averaged error realizes the regime's predicted exponent; the
    report pairs fitted slopes with those targets. Grids are guarded by
    ``check_regime`` with constant ``c0``.
    """
    regime = Regime(regime)
    if trials < 2:
        raise InvalidParameters("trials must be at least 2")
    default_budgets, curves = _RATE_CURVES[regime]
    grids = []
    cells = []
    for check, curve in enumerate(curves):
        ns = [int(b) for b in (curve.budgets or budgets or default_budgets)]
        grid = []
        for j, n in enumerate(ns):
            n1, n2 = curve.shape(n)
            check_regime(n, n1, n2, c0)
            family = HardFamily(curve.variant, ProblemSpec(n1, n2, curve.p, curve.u))
            grid.append((n, family))
            args = (family, curve.estimator, n, None)
            cells.append((_estimator_trial, args, (check, j), trials * curve.trial_scale))
        grids.append(grid)

    results = iter(_run_cells(cells, seed, workers))
    checks = []
    for curve, grid in zip(curves, grids):
        rows = []
        for n, family in grid:
            stats = _stats_from_trials(next(results))
            spec = family.spec
            rows.append(
                MeasurementRow(
                    family=family.variant.value,
                    estimator=curve.estimator.value,
                    p=spec.p,
                    u=spec.u,
                    n1=spec.n1,
                    n2=spec.n2,
                    n=n,
                    trials=stats.trials,
                    rms=stats.rms,
                    stderr=stats.stderr,
                    mean_card=stats.mean_card,
                    seed=int(seed),
                    mae=stats.mae,
                )
            )
        predicted = None
        if curve.predict is not None:
            predicted = tuple(curve.predict(n) for n, _ in grid)
        checks.append(
            RateCheck(
                label=curve.label,
                estimator=curve.estimator.value,
                target_slope=curve.target,
                rows=tuple(rows),
                fit=_try_fit([(r.n, r.rms) for r in rows]),
                predicted=predicted,
            )
        )
    return RateReport(
        regime=regime, checks=tuple(checks), seed=int(seed), trials=trials
    )


# ---------------------------------------------------------------------------
# Direct-sum experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DsRow:
    k0: int
    mode: str
    trials: int
    rms: float
    stderr: float
    mean_card: float


@dataclass(frozen=True)
class DsResult:
    rows: tuple[DsRow, ...]
    ratios: tuple[tuple[int, float], ...]
    seed: int
    alpha: float
    p: float
    u: float
    delta: float
    c0: float
    m: int | None
    k_max: int
    trials: int


def sample_ds_input(
    spec: DirectSumSpec, rng: RngStream, variant: Variant = Variant.ACTIVE_ROW_BERNOULLI
) -> DirectSumElement:
    """One random element with an independent draw at every level <= k_max."""
    levels = []
    for k in range(spec.k_max + 1):
        family = HardFamily(variant, spec.level_spec(k))
        levels.append((k, family.sample(rng.child(k))))
    return DirectSumElement(spec, levels)


def _ds_trial(
    spec: DirectSumSpec,
    k0_values: tuple[int, ...],
    modes: tuple[Mode, ...],
    delta: float,
    c0: float,
    m: int | None,
    stream: RngStream,
) -> list[tuple[float, float, int]]:
    x = sample_ds_input(spec, stream.child(0))
    truth = ds_integral(x)
    out = []
    for i, k0 in enumerate(k0_values):
        for mode in modes:
            # Stream ids are fixed per (k0, mode), not per position in the
            # requested mode list, so single-mode runs reproduce the
            # corresponding rows of a both-mode run.
            j = 0 if mode is Mode.ADAPTIVE else 1
            rep = ds_estimate(x, k0, delta, mode, m, stream.child(1 + i * 2 + j), c0=c0)
            err = rep.value - truth
            out.append((err * err, abs(err), rep.cards))
    return out


def ds_experiment(
    k0_values=(4, 5, 6),
    trials: int = 200,
    seed: int = 0,
    *,
    alpha: float = 1.5,
    p: float = 1.0,
    u: float = INF,
    p1: float = 1.0,
    delta: float | None = None,
    c0: float = 0.5,
    m: int | None = None,
    k_max: int | None = None,
    modes: tuple[Mode, ...] = (Mode.ADAPTIVE, Mode.NONADAPTIVE),
    workers: int = 1,
) -> DsResult:
    """Adaptive vs non-adaptive composite estimation on random sum inputs.

    Each trial samples one active-row instance per level up to ``k_max``
    (default: the largest level any tested k0 estimates) and runs the
    requested composites on the same input. ``delta`` defaults to the
    midpoint (alpha - 1) / 2 of its admissible interval. Ratios are
    reported when both modes run.
    """
    k0_values = tuple(int(k) for k in k0_values)
    if not k0_values or any(k < 1 for k in k0_values):
        raise InvalidParameters("k0 values must be positive integers")
    if trials < 2:
        raise InvalidParameters("trials must be at least 2")
    modes = tuple(Mode(mm) for mm in modes)
    if not modes:
        raise InvalidParameters("at least one mode is required")
    if delta is None:
        delta = (alpha - 1.0) / 2.0
    beta = (alpha + 1.0) / alpha
    needed = max(math.floor(beta * k0) for k0 in k0_values)
    k_max = needed if k_max is None else int(k_max)
    if k_max < needed:
        raise InvalidParameters(
            f"k_max = {k_max} truncates below the largest estimated level {needed}"
        )

    spec = DirectSumSpec(float(alpha), float(p), float(u), float(p1), k_max)
    args = (spec, k0_values, modes, float(delta), float(c0), m)
    (per_trial,) = _run_cells([(_ds_trial, args, (), trials)], seed, workers)

    rows = []
    ratios = []
    for i, k0 in enumerate(k0_values):
        by_mode = {}
        for j, mode in enumerate(modes):
            stats = _stats_from_trials(
                [trial[i * len(modes) + j] for trial in per_trial]
            )
            by_mode[mode] = stats
            rows.append(
                DsRow(k0, mode.value, trials, stats.rms, stats.stderr,
                      stats.mean_card)
            )
        if Mode.ADAPTIVE in by_mode and Mode.NONADAPTIVE in by_mode:
            adaptive = by_mode[Mode.ADAPTIVE]
            nonadaptive = by_mode[Mode.NONADAPTIVE]
            ratios.append(
                (k0, nonadaptive.rms / adaptive.rms if adaptive.rms > 0 else math.inf)
            )
    return DsResult(
        rows=tuple(rows),
        ratios=tuple(ratios),
        seed=int(seed),
        alpha=float(alpha),
        p=float(p),
        u=float(u),
        delta=float(delta),
        c0=float(c0),
        m=m,
        k_max=k_max,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Norm-estimation deviation experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormRow:
    n: int
    trials: int
    rms_dev: float
    stderr: float


@dataclass(frozen=True)
class NormEstResult:
    rows: tuple[NormRow, ...]
    fit: RateFit | None
    target_slope: float
    true_norm: float
    v: float
    u: float
    population_size: int
    seed: int
    trials: int


def _norm_trial(
    pop: np.ndarray, v: float, n: int, true_norm: float, stream: RngStream
) -> tuple[float, float, int]:
    est = norm_est_a1(lambda idx: pop[idx - 1], pop.size, v, n, stream)
    dev = est - true_norm
    return dev * dev, abs(dev), n


def norm_deviation_experiment(
    population,
    v: float,
    budgets,
    trials: int,
    seed: int,
    *,
    u: float = INF,
    workers: int = 1,
) -> NormEstResult:
    """RMS deviation of the sampled L_v norm from the exact one.

    ``u`` only sets the reported target exponent max(1/u - 1/v, -1/2); the
    population itself is the ground truth.
    """
    pop = np.asarray(population, dtype=np.float64)
    if pop.ndim != 1 or pop.size < 1:
        raise InvalidParameters("population must be a nonempty vector")
    if trials < 2:
        raise InvalidParameters("trials must be at least 2")
    budgets = [int(b) for b in budgets]
    true_norm = row_norm(pop, v)
    cells = [
        (_norm_trial, (pop, float(v), n, true_norm), (i,), trials)
        for i, n in enumerate(budgets)
    ]
    rows = []
    for n, results in zip(budgets, _run_cells(cells, seed, workers)):
        stats = _stats_from_trials(results)
        rows.append(NormRow(n=n, trials=trials, rms_dev=stats.rms, stderr=stats.stderr))
    fit = _try_fit([(r.n, r.rms_dev) for r in rows])
    u = float(u)
    target = max(1.0 / u - 1.0 / float(v), -0.5)
    return NormEstResult(
        rows=tuple(rows),
        fit=fit,
        target_slope=target,
        true_norm=true_norm,
        v=float(v),
        u=u,
        population_size=pop.size,
        seed=int(seed),
        trials=trials,
    )

"""Truncated weighted direct sums of mean-computation problems.

Level k hosts an N_k x N_k mixed-norm space with N_k = 2^k. An element is a
finite collection of level matrices; its integral is the weighted sum of the
level means with weights 2^(-alpha*k), alpha > 1.

``level_allocation`` produces the sample schedule driven by a base level k0:
levels below k0 are read out completely (2^(2k) entries, zero error), levels
k0 .. k1 = floor(beta*k0) with beta = (alpha+1)/alpha receive geometrically
decaying budgets ceil(c0 * 2^(2*k0 - delta*(k - k0))) - 1, and levels above
k1 are dropped. The schedule's total is at most
(1/3 + c0/(1 - 2^-delta)) * 2^(2*k0), reported alongside the levels.

``ds_estimate`` spends the schedule it is given, so a caller builds each
schedule once for all its composites: exact readout below its k0, then
per-level mean estimation (adaptive two-stage or plain Monte Carlo) at the
scheduled budgets, all through counting tapes. Each level draws from its own
child stream, so enlarging the truncation level of the input never perturbs
the estimates of existing levels. A level below k0 is read once per element
(``DirectSumElement.readout``) and its 4^k queries are charged to every
composite that uses it, so composites at several k0 on one element cost and
return what each would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, PreconditionViolated
from .estimators import (
    EstimateReport, mc_mean_a2, require_adaptive_regime, run_a2, run_a3
)
from .oracle import Mode, Plan, open_nonadaptive
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, as_exponent, scalar_mean

__all__ = [
    "MAX_LEVEL",
    "DirectSumSpec",
    "DirectSumElement",
    "ds_integral",
    "LevelAllocation",
    "level_allocation",
    "ds_estimate",
]

#: Largest representable truncation level (4096 x 4096 top matrix).
MAX_LEVEL = 12


def level_size(k: int) -> int:
    """Side length N_k = 2^k of the level-k matrices."""
    return 1 << k


@dataclass(frozen=True)
class DirectSumSpec:
    """Weight exponent, inner space exponents, truncation level."""

    alpha: float
    p: float
    u: float
    k_max: int

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < INF:
            raise InvalidParameters(
                f"alpha must be finite and exceed 1, got {self.alpha}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "p", as_exponent(self.p))
        object.__setattr__(self, "u", as_exponent(self.u))
        if int(self.k_max) != self.k_max or not 0 <= self.k_max <= MAX_LEVEL:
            raise InvalidParameters(
                f"k_max must be an integer in [0, {MAX_LEVEL}], got {self.k_max}"
            )
        object.__setattr__(self, "k_max", int(self.k_max))

    def level_spec(self, k: int) -> ProblemSpec:
        n = level_size(k)
        return ProblemSpec(n, n, self.p, self.u)


class DirectSumElement:
    """A finite family of level matrices, at most one per level."""

    def __init__(self, spec: DirectSumSpec, levels) -> None:
        self.spec = spec
        table: dict[int, MixedMatrix] = {}
        for k, f_k in levels:
            k = int(k)
            if not 0 <= k <= spec.k_max:
                raise InvalidParameters(
                    f"level {k} outside [0, {spec.k_max}]"
                )
            if k in table:
                raise InvalidParameters(f"duplicate level {k}")
            expected = spec.level_spec(k)
            if f_k.spec != expected:
                raise InvalidParameters(
                    f"level {k} matrix has spec {f_k.spec}, expected {expected}"
                )
            table[k] = f_k
        self._levels = dict(sorted(table.items()))
        self._readouts: dict[int, tuple[float, int]] = {}

    def level(self, k: int) -> MixedMatrix | None:
        return self._levels.get(k)

    def readout(self, k: int) -> tuple[float, int]:
        """The mean of level k read in full, and the queries the read took.

        The level is read on its first request, every entry once in
        row-major order, as the plan of flat indices 0, 1, ... that
        ``mc_mean_a2`` averages, and the result is kept: the levels never
        change, so a later request returns the same mean and the same count.
        The mean sums the plan's block sums, so above two blocks (k >= 9) it
        may differ in its last bits from the mean of all entries at once.
        """
        result = self._readouts.get(k)
        if result is None:
            f_k = self._levels[k]
            plan = Plan(np.arange(f_k.spec.n_entries))
            report = mc_mean_a2(open_nonadaptive(f_k, plan))
            result = self._readouts[k] = (report.value, report.cards)
        return result

    def items(self):
        return self._levels.items()


def ds_integral(x: DirectSumElement) -> float:
    """Exact weighted sum of level means (the estimation target)."""
    total = 0.0
    for k, f_k in x.items():
        total += 2.0 ** (-x.spec.alpha * k) * scalar_mean(f_k)
    return total


@dataclass(frozen=True)
class LevelAllocation:
    """Schedule of per-level budgets plus the certified total bound."""

    k0: int
    k1: int
    levels: tuple[tuple[int, int], ...]
    total: int
    budget_constant: float


def level_allocation(
    k0: int, alpha: float, delta: float, c0: float
) -> LevelAllocation:
    """Per-level sample budgets for base level k0; see module docstring.

    Requires alpha > 1, 0 < delta < alpha - 1, 0 < c0 < 1 and an integer
    1 <= k0 <= MAX_LEVEL (no element holds a higher level), checked first.
    ``budget_constant`` certifies total <= budget_constant * 2^(2*k0).
    """
    if not 1.0 < alpha < INF:
        raise InvalidParameters(f"alpha must be finite and exceed 1, got {alpha}")
    if not 0.0 < delta < alpha - 1.0:
        raise InvalidParameters(
            f"delta must lie strictly inside (0, alpha - 1), got {delta}"
        )
    if not 0.0 < c0 < 1.0:
        raise InvalidParameters(f"c0 must lie in (0, 1), got {c0}")
    if not (1 <= k0 <= MAX_LEVEL and float(k0).is_integer()):
        raise InvalidParameters(
            f"k0 must be a positive integer at most {MAX_LEVEL}, got {k0}"
        )
    k0 = int(k0)
    beta = (alpha + 1.0) / alpha
    k1 = math.floor(beta * k0)
    levels = []
    for k in range(k1 + 1):
        if k < k0:
            n_k = 1 << (2 * k)
        else:
            n_k = math.ceil(c0 * 2.0 ** (2 * k0 - delta * (k - k0))) - 1
        levels.append((k, int(n_k)))
    total = sum(n for _, n in levels)
    constant = 1.0 / 3.0 + c0 / (1.0 - 2.0 ** (-delta))
    return LevelAllocation(
        k0=k0,
        k1=k1,
        levels=tuple(levels),
        total=total,
        budget_constant=constant,
    )


def ds_estimate(
    x: DirectSumElement,
    schedule: LevelAllocation,
    mode: Mode,
    m: int | None,
    rng: RngStream,
) -> EstimateReport:
    """Composite estimate of ``ds_integral(x)`` spending ``schedule``.

    Levels below ``schedule.k0`` are read in full (exact; each level once
    per element, charged to every composite), the scheduled levels from k0
    up are estimated at their budgets with the adaptive two-stage estimator
    (ADAPTIVE mode; requires p < 2 < u and a budget of at least N_k at every
    estimated level) or plain Monte Carlo (NONADAPTIVE mode), and levels
    beyond the schedule are dropped. The weights come from ``x.spec.alpha``.
    ``m`` is the stage-one repetition count per level; ``None`` selects
    max(1, ceil(log2(N_k + 1))) per level.
    """
    spec = x.spec
    if mode is Mode.ADAPTIVE:
        require_adaptive_regime(spec.p, spec.u)
    value = 0.0
    cards = 0
    for k, n_k in schedule.levels:
        f_k = x.level(k)
        if f_k is None:
            continue
        weight = 2.0 ** (-spec.alpha * k)
        side = level_size(k)
        if k < schedule.k0:
            mean, card = x.readout(k)
            value += weight * mean
            cards += card
            continue
        if mode is Mode.NONADAPTIVE:
            report = run_a2(f_k, n_k, rng.child(k))
        else:
            if n_k < side:
                raise PreconditionViolated(
                    f"level {k}: scheduled budget {n_k} is below N_k = {side}; "
                    "increase k0 or decrease delta"
                )
            report = run_a3(f_k, n_k, m, rng.child(k))
        value += weight * report.value
        cards += report.cards
    return EstimateReport(value=value, cards=cards)

"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical criteria run at fixed seeds, so every verdict is reproducible.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from adaptgap.cli import run as cli_run
from adaptgap.direct_sum import level_allocation
from adaptgap.estimators import (
    adaptive_mean_a3,
    allocate_samples,
    draw_plan,
    mc_mean_a2,
    run_a2,
)
from adaptgap.harness import (
    _RATE_CURVES,
    EstimatorKind,
    Regime,
    ds_experiment,
    gap_experiment,
    norm_deviation_experiment,
    rate_fit,
    rms_error,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.oracle import open_adaptive, open_nonadaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import (
    INF,
    MixedMatrix,
    ProblemSpec,
    mixed_norm_many,
    scalar_mean,
)

SEED = 20_000_601

EXPONENT_GRID = [1.0, 1.5, 2.0, 4.0, INF]

SQRT_GRID = (2**10, 2**12, 2**14, 2**16)


def report(num: int, description: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict}: {description} ({detail})")
    assert ok, f"criterion {num}: {description} ({detail})"


class Check(NamedTuple):
    """One bounded quantity that a statistical criterion requires.

    The measurements below return their checks for a given seed, so the
    pinned tests here and the opt-in sweeps in ``test_seed_sweep.py`` share
    one call and one set of bounds per criterion.
    """

    label: str
    value: float
    low: float = -math.inf
    high: float = math.inf
    strict: bool = False

    @property
    def ok(self) -> bool:
        if self.strict:
            return self.low < self.value < self.high
        return self.low <= self.value <= self.high

    @property
    def margin(self) -> float:
        """Distance to the nearer bound, negative when outside."""
        return min(self.value - self.low, self.high - self.value)

    def __str__(self) -> str:
        left, right = "()" if self.strict else "[]"
        bounds = f"{left}{self.low:g},{self.high:g}{right}"
        return f"{self.label}={self.value:.5g} in {bounds}"


def report_checks(num: int, description: str, checks: list[Check]) -> None:
    report(num, description, all(c.ok for c in checks), "; ".join(map(str, checks)))


def sqrt_grid_family(n: int) -> HardFamily:
    side = math.ceil(math.sqrt(n))
    return HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(side, side, 1.0, INF))


def measure_01(seed: int) -> list[Check]:
    family = HardFamily(Variant.FULL_BERNOULLI, ProblemSpec(64, 64, 2.0, 2.0))
    budgets = (2**6, 2**8, 2**10, 2**12)
    rows = [rms_error(family, EstimatorKind.A2, n, 500, seed) for n in budgets]
    fit = rate_fit([(n, r.rms) for n, r in zip(budgets, rows)])
    at_1024 = rows[budgets.index(2**10)].rms
    # rms(2^10) within 15% of 1/sqrt(2^10) = 0.03125.
    return [
        Check("slope", fit.slope, -0.57, -0.43),
        Check("rms(2^10)", at_1024, 0.85 * 0.03125, 1.15 * 0.03125),
    ]


def test_criterion_01_baseline_mc_rate():
    report_checks(
        1, "plain Monte Carlo baseline rate on full-sign instances", measure_01(SEED)
    )


def sqrt_grid_slope(
    estimator: EstimatorKind, seed: int, low: float, high: float
) -> list[Check]:
    rows = [rms_error(sqrt_grid_family(n), estimator, n, 300, seed) for n in SQRT_GRID]
    fit = rate_fit([(n, r.rms) for n, r in zip(SQRT_GRID, rows)])
    return [Check("slope", fit.slope, low, high)]


def measure_02(seed: int) -> list[Check]:
    return sqrt_grid_slope(EstimatorKind.A2, seed, -0.32, -0.18)


def measure_03(seed: int) -> list[Check]:
    return sqrt_grid_slope(EstimatorKind.A3, seed, -0.60, -0.40)


def test_criterion_02_nonadaptive_gap_regime_rate():
    report_checks(
        2,
        "non-adaptive rate on active-row instances, N1 = N2 = ceil(sqrt(n))",
        measure_02(SEED + 2),
    )


def test_criterion_03_adaptive_rate():
    report_checks(
        3,
        "adaptive two-stage rate on the same grid with default m",
        measure_03(SEED + 3),
    )


def measure_04(seed: int) -> list[Check]:
    # The square grid N1 = N2 = ceil(sqrt(n)) sits outside the default
    # density guard (n is about N1*N2), which is only a sufficient
    # condition, so the guard constant is relaxed for this measurement.
    result = gap_experiment(list(SQRT_GRID), 1.0, trials=300, seed=seed, c0=2.0)
    return [
        Check("ratio slope", result.fits["ratio rms_a2/rms_a3"].slope, 0.15, 0.35),
        Check("ratio(2^16)", result.rows[-1].ratio, 1.0, strict=True),
    ]


def test_criterion_04_adaption_gap():
    report_checks(
        4,
        "adaption gap: matched-budget rms ratio grows like n^(1/4)",
        measure_04(SEED + 4),
    )


def test_criterion_05_cost_bounds():
    g = np.random.default_rng(SEED + 5)
    a3_violations = 0
    runs = 10_000
    for t in range(runs):
        n1 = int(g.integers(1, 24))
        n2 = int(g.integers(1, 24))
        n = int(g.integers(n1, 8 * n1 + 1))
        m = int(g.integers(1, 11))
        spec = ProblemSpec(n1, n2, 1.0, INF)
        family = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec)
        f = family.sample(RngStream(SEED + 5, (t,)))
        tape = open_adaptive(f, budget=6 * m * n)
        rep = adaptive_mean_a3(tape, n, m, RngStream(SEED + 6, (t,)))
        if rep.cards > 6 * m * n or rep.cards != tape.card():
            a3_violations += 1
    a2_violations = 0
    spec = ProblemSpec(16, 16, 2.0, 2.0)
    family = HardFamily(Variant.FULL_BERNOULLI, spec)
    for t in range(runs):
        n = int(g.integers(1, 513))
        f = family.sample(RngStream(SEED + 7, (t,)))
        # run_a2 with its tape kept, to check the tape's count too.
        tape = open_nonadaptive(f, draw_plan(spec, n, RngStream(SEED + 8, (t,))))
        rep = mc_mean_a2(tape)
        if rep.cards != n or tape.card() != n:
            a2_violations += 1
    ok = a3_violations == 0 and a2_violations == 0
    report(
        5,
        "cost bounds: adaptive card <= 6mn, plain MC card = n",
        ok,
        f"{runs} runs each, violations: a3={a3_violations}, a2={a2_violations}",
    )


def brute_force_allocation(a, p, n):
    n1 = len(a)
    floor = math.ceil(n / n1)
    powers = [abs(x) ** p for x in a]
    total = math.fsum(powers)
    counts = []
    for ap in powers:
        if total > 0 and ap > total / n1:
            counts.append(math.ceil(ap * n / total))
        else:
            counts.append(floor)
    return counts


def test_criterion_06_allocation_oracle():
    g = np.random.default_rng(SEED + 9)
    mismatches = 0
    floor_violations = 0
    runs = 10_000
    for _ in range(runs):
        n1 = int(g.integers(1, 33))
        n = int(g.integers(n1, 2001))
        p = float(g.uniform(1.0, 2.0 - 1e-9))
        a = g.uniform(0.0, 10.0, size=n1)
        a[g.random(n1) < 0.25] = 0.0
        got = allocate_samples(a, p, n).tolist()
        expected = brute_force_allocation(a.tolist(), p, n)
        if got != expected:
            mismatches += 1
        if any(v < math.ceil(n / n1) for v in got):
            floor_violations += 1
    ok = mismatches == 0 and floor_violations == 0
    report(
        6,
        "allocation agrees with an independent brute force, floor respected",
        ok,
        f"{runs} inputs, mismatches={mismatches}, floor violations={floor_violations}",
    )


def measure_07(seed: int) -> list[Check]:
    """Matrices drawn at ``seed``, their estimates at ``seed + 1``."""
    g = np.random.default_rng(seed)
    estimates_per_matrix = 10_000
    checks = []
    for idx in range(5):
        f = MixedMatrix(ProblemSpec(16, 16, 2.0, 2.0), g.normal(size=(16, 16)))
        truth = scalar_mean(f)
        values = np.array(
            [
                run_a2(f, 64, RngStream(seed + 1, (idx, t))).value
                for t in range(estimates_per_matrix)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(estimates_per_matrix)
        # |mean - truth| in standard errors.
        deviation = abs(values.mean() - truth) / se
        checks.append(Check(f"|bias|/se {idx}", deviation, high=3.0))
    return checks


def test_criterion_07_unbiasedness():
    report_checks(
        7, "plain MC unbiasedness across 5 fixed matrices", measure_07(SEED + 10)
    )


def measure_08(seed: int) -> list[Check]:
    result = norm_deviation_experiment(
        [2.0, 0.0, 0.0, 0.0],
        2.0,
        [2**k for k in range(4, 13)],
        trials=2000,
        seed=seed,
    )
    fit = result.fits["rms deviation"]
    slope = math.nan if fit is None else fit.slope
    return [Check("slope", slope, -0.60, -0.40)]


def test_criterion_08_norm_estimation_rate():
    report_checks(
        8, "norm-estimation rms deviation decays like n^(-1/2)", measure_08(SEED + 12)
    )


def test_criterion_09_unit_ball_membership():
    draws_per_family = 10_000
    violations = 0
    total = 0
    for variant in Variant:
        combos = [
            (p, u)
            for p, u in itertools.product(EXPONENT_GRID, EXPONENT_GRID)
            if not (variant is Variant.ACTIVE_ROW_BERNOULLI and p == INF)
        ]
        per_combo = -(-draws_per_family // len(combos))
        count = 0
        for c_idx, (p, u) in enumerate(combos):
            n1 = 2 + (3 * c_idx) % 7
            n2 = 2 + (5 * c_idx) % 9
            family = HardFamily(variant, ProblemSpec(n1, n2, p, u))
            batch = np.stack(
                [
                    family.sample(RngStream(SEED + 13, (c_idx, t))).entries
                    for t in range(per_combo)
                ]
            )
            norms = mixed_norm_many(batch, p, u)
            violations += int((norms > 1.0 + 1e-12).sum())
            count += per_combo
        total += count
        assert count >= draws_per_family
    ok = violations == 0
    report(
        9,
        "all adversarial draws stay in the unit ball",
        ok,
        f"{total} draws across the exponent grid, violations={violations}",
    )


def ds_direct_sum(seed: int):
    # delta = 0.2 keeps every scheduled adaptive budget at or above its
    # level side length for all three k0 values (the midpoint default
    # misses by one sample at k0 = 6).
    return ds_experiment(
        k0=(4, 5, 6),
        trials=200,
        seed=seed,
        alpha=1.5,
        p=1.0,
        u=INF,
        delta=0.2,
    )


def direction_checks(result) -> list[Check]:
    """Adaptive rms <= non-adaptive rms at every k0, as a ratio of at least 1."""
    by_k0 = {}
    for row in result.rows:
        by_k0.setdefault(row.k0, {})[row.mode] = row.rms
    return [
        Check(f"non/ad rms(k0={k0})", rms["nonadaptive"] / rms["adaptive"], 1.0)
        for k0, rms in sorted(by_k0.items())
    ]


def test_criterion_10_direct_sum_budget_and_direction():
    g = np.random.default_rng(SEED + 14)
    bound_violations = 0
    for _ in range(500):
        alpha = float(g.uniform(1.05, 3.0))
        delta = float(g.uniform(1e-3, alpha - 1.0 - 1e-6))
        c0 = float(g.uniform(0.05, 0.95))
        k0 = int(g.integers(1, 8))
        alloc = level_allocation(k0, alpha, delta, c0)
        if alloc.total > alloc.budget_constant * 4**k0:
            bound_violations += 1

    result = ds_direct_sum(SEED + 15)
    direction = direction_checks(result)
    ratios = [ratio for kind, _, ratio in result.footer if kind == "ratio"]
    monotone_ok = all(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:]))
    ok = bound_violations == 0 and all(c.ok for c in direction) and monotone_ok
    report(
        10,
        "direct-sum budgets certified; adaptive composite wins, gap grows",
        ok,
        f"bound violations={bound_violations}; "
        f"{'; '.join(map(str, direction))}; "
        f"ratios={', '.join(f'{r:.2f}' for r in ratios)} (non-decreasing)",
    )


def test_criterion_11_determinism_across_workers(capsys, tmp_path):
    argv = [
        "gap", "--budgets", "256,512", "--c3", "5", "--trials", "40",
        "--seed", "424242",
    ]
    outputs = []
    for workers in ("1", "2", "1"):
        path = tmp_path / f"w{len(outputs)}.csv"
        code = cli_run(argv + ["--workers", workers, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())

    def data_section(blob: bytes) -> bytes:
        return b"\n".join(
            line for line in blob.splitlines() if not line.startswith(b"#")
        )

    rerun_ok = outputs[0] == outputs[2]
    workers_ok = data_section(outputs[0]) == data_section(outputs[1])
    ok = rerun_ok and workers_ok
    report(
        11,
        "same seed reproduces the CSV byte-for-byte at any worker count",
        ok,
        f"rerun identical={rerun_ok}, worker counts agree={workers_ok}",
    )


def brute_vector_norm(values, e):
    if e == INF:
        return max(abs(v) for v in values)
    return (sum(abs(v) ** e for v in values) / len(values)) ** (1.0 / e)


def brute_mixed_norm(rows, p, u):
    return brute_vector_norm([brute_vector_norm(r, u) for r in rows], p)


def _shapes_with_cells(low, high):
    return [
        (n1, n2)
        for cells in range(low, high + 1)
        for n1 in range(1, cells + 1)
        if cells % n1 == 0
        for n2 in (cells // n1,)
    ]


def test_criterion_12_small_instance_oracle():
    # Exhaustive enumeration up to 8 cells; seeded random sign matrices for
    # 9..16 cells (full enumeration at 16 cells is ~2e8 matrices).
    combos = list(itertools.product(EXPONENT_GRID, EXPONENT_GRID))
    mean_mismatches = 0
    norm_mismatches = 0
    worst = 0.0
    checked = 0

    def check_stack(stack, n1, n2):
        nonlocal mean_mismatches, norm_mismatches, worst, checked
        spec = ProblemSpec(n1, n2, 1.0, 1.0)
        for flat in stack:
            entries = flat.reshape(n1, n2)
            total = 0.0
            for row in entries.tolist():
                for v in row:
                    total += v
            expected_mean = total / (n1 * n2)
            f = MixedMatrix(ProblemSpec(n1, n2, 1.0, 1.0), entries)
            if scalar_mean(f) != expected_mean:
                mean_mismatches += 1
        for p, u in combos:
            norms = mixed_norm_many(stack.reshape(-1, n1, n2), p, u)
            brute = np.array(
                [
                    brute_mixed_norm(flat.reshape(n1, n2).tolist(), p, u)
                    for flat in stack
                ]
            )
            gap = np.abs(norms - brute).max()
            worst = max(worst, float(gap))
            norm_mismatches += int((np.abs(norms - brute) > 1e-13).sum())
        checked += stack.shape[0]

    for n1, n2 in _shapes_with_cells(1, 8):
        cells = n1 * n2
        grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * cells), indexing="ij")
        stack = np.stack([gg.ravel() for gg in grids], axis=1)
        check_stack(stack, n1, n2)

    g = np.random.default_rng(SEED + 16)
    for n1, n2 in _shapes_with_cells(9, 16):
        stack = g.integers(-1, 2, size=(400, n1 * n2)).astype(float)
        check_stack(stack, n1, n2)

    ok = mean_mismatches == 0 and norm_mismatches == 0
    report(
        12,
        "small-instance oracle: exact means, brute-force norms to 1e-13",
        ok,
        f"{checked} matrices x {len(combos)} exponent pairs; "
        f"mean mismatches={mean_mismatches}, norm mismatches={norm_mismatches}, "
        f"worst gap={worst:.2e}",
    )


#: Largest |z| allowed on a closed-form row, fixed before any measurement:
#: at 9 rows per seed and 8 sweep seeds, a normal z passes all 72 with
#: probability about 0.995.
Z_BOUND = 4.0


def one_row_a2_forms(n1: int, n2: int, n: int) -> dict:
    """Closed-form RMS of plain Monte Carlo with n samples at p = 1, u = inf.

    A sample is +-N1 with probability 1/N1 on mu4 and 1/(N1*N2) on mu1, and
    0 otherwise; the truth is the instance's mean. On mu4 the truth is S/N2
    for a sum S of N2 signs, so E[S^2] = N2 gives rms^2 = (N1 - 1/N2)/n; on
    mu1 it is +-1/N2, so rms^2 = N1*(1 - 1/(N1*N2))/(n*N2).
    """
    return {
        Variant.ACTIVE_ROW_BERNOULLI: math.sqrt((n1 - 1.0 / n2) / n),
        Variant.SINGLE_SPIKE: math.sqrt(n1 * (1.0 - 1.0 / (n1 * n2)) / (n * n2)),
    }


def measure_13(seed: int) -> list[Check]:
    """z = (rms - closed form) / stderr on every a2 cell of the one-row
    curves of ``rates --regime p-lt-2-lt-u``, at their default budgets and
    trial counts: the curves that run as arrays over chunks of trials."""
    default_budgets, curves = _RATE_CURVES[Regime.P_LT_2_LT_U]
    checks = []
    for curve in curves:
        if curve.estimator is not EstimatorKind.A2:
            continue
        assert (curve.p, curve.u) == (1.0, INF)
        for n in curve.budgets or default_budgets:
            n1, n2 = curve.shape(n)
            family = HardFamily(curve.variant, ProblemSpec(n1, n2, curve.p, curve.u))
            stats = rms_error(family, EstimatorKind.A2, n, 300 * curve.trial_scale, seed)
            z = (stats.rms - one_row_a2_forms(n1, n2, n)[curve.variant]) / stats.stderr
            checks.append(Check(f"z {curve.variant.value} n={n}", z, -Z_BOUND, Z_BOUND))
    return checks


def test_criterion_13_one_row_a2_closed_forms():
    report_checks(
        13,
        "plain MC rms on the mu1 and mu4 curves matches its closed form",
        measure_13(SEED + 17),
    )

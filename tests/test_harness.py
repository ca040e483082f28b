import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptgap import cli, direct_sum, estimators, harness
from adaptgap.direct_sum import DirectSumElement, DirectSumSpec
from adaptgap.errors import (
    InsufficientPoints,
    InvalidParameters,
    NonfiniteError,
    NonpositiveError,
    PreconditionViolated,
    RegimeViolation,
)
from adaptgap.harness import (
    EstimatorKind,
    Regime,
    ds_experiment,
    gap_experiment,
    norm_deviation_experiment,
    rate_experiment,
    rate_fit,
    rms_error,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.oracle import Mode, Plan, QueryTape, open_adaptive, open_nonadaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec, scalar_mean


class ZeroVariant:
    value = "zero"


class ZeroFamily:
    """Every sample is the zero matrix; any estimator is exact on it."""

    variant = ZeroVariant()
    spec = ProblemSpec(4, 4, 1.0, INF)

    def sample(self, rng):
        return MixedMatrix(self.spec, np.zeros((4, 4)))


def bernoulli_family(side=64):
    return HardFamily(Variant.FULL_BERNOULLI, ProblemSpec(side, side, 2.0, 2.0))


class TestRmsError:
    def test_zero_family_rms_zero(self):
        for kind in (EstimatorKind.A2, EstimatorKind.A3):
            stats = rms_error(ZeroFamily(), kind, 8, 40, seed=2)
            assert stats.rms == 0.0

    def test_bernoulli_closed_form(self):
        # Entry variance is exactly 1, so at n = 2^10 the RMS is close to
        # sqrt(1/n) = 0.03125.
        stats = rms_error(bernoulli_family(64), EstimatorKind.A2, 2**10, 500, seed=3)
        assert stats.rms == pytest.approx(1.0 / 32.0, rel=0.15)
        assert stats.mean_card == 2**10

    def test_card_bounds(self):
        fam = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(16, 16, 1.0, INF))
        a2 = rms_error(fam, EstimatorKind.A2, 100, 30, seed=4)
        assert a2.mean_card == 100.0
        m = 3
        a3 = rms_error(fam, EstimatorKind.A3, 64, 30, seed=4, m=m)
        assert a3.mean_card <= 6 * m * 64

    def test_stderr_scales_with_trials(self):
        fam = bernoulli_family(16)
        lo = rms_error(fam, EstimatorKind.A2, 64, 200, seed=5)
        hi = rms_error(fam, EstimatorKind.A2, 64, 800, seed=5)
        ratio = lo.stderr / hi.stderr
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_workers_bitwise_equal(self):
        fam = bernoulli_family(16)
        serial = rms_error(fam, EstimatorKind.A2, 128, 60, seed=6, workers=1)
        parallel = rms_error(fam, EstimatorKind.A2, 128, 60, seed=6, workers=2)
        assert serial == parallel

    def test_extending_trials_preserves_prefix(self):
        # More trials never perturb earlier ones: the 40-trial RMS is
        # recoverable from the definition using the first 40 of 80 trials.
        fam = bernoulli_family(8)
        a = rms_error(fam, EstimatorKind.A2, 32, 40, seed=7)
        b = rms_error(fam, EstimatorKind.A2, 32, 80, seed=7)
        assert a.trials == 40 and b.trials == 80
        assert a != b  # genuinely different summaries


class TestChunkedA2Cells:
    """Plain Monte Carlo on a one-row family runs as arrays over chunks of
    trials: chunk c draws from the stream (seed, c), its instances from
    child 0 and its plan from child 1."""

    @pytest.fixture
    def trials_of(self, monkeypatch):
        # The reducer hands back each trial's (signed error, cost) as is.
        monkeypatch.setattr(harness, "_stats_from_trials", list)

    CASES = [(Variant.SINGLE_SPIKE, (400, 16), 300),
             (Variant.ACTIVE_ROW_BERNOULLI, (8, 300), 4096)]

    @staticmethod
    def family(variant, shape):
        return HardFamily(variant, ProblemSpec(*shape, 1.0, INF))

    def test_chunk_size_follows_from_n_and_the_row_length(self):
        block = harness.PLAN_BLOCK
        for variant, shape, n in [*self.CASES, (Variant.SINGLE_SPIKE, (9, 40000), 16),
                                  (Variant.ACTIVE_ROW_BERNOULLI, (9, 9), block + 1)]:
            cell = harness._estimator_cell(self.family(variant, shape),
                                           EstimatorKind.A2, n, None, (), 5)
            assert cell[0] is harness._a2_chunk
            assert cell[4] == max(1, block // max(n, shape[1]))
        # a3, the dense families and families outside the table run trial
        # by trial.
        spec = ProblemSpec(8, 8, 1.0, INF)
        for family, kind in [(HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec), EstimatorKind.A3),
                             (HardFamily(Variant.FULL_BERNOULLI, spec), EstimatorKind.A2),
                             (HardFamily(Variant.ROW_SPIKES, spec), EstimatorKind.A2),
                             (ZeroFamily(), EstimatorKind.A2)]:
            cell = harness._estimator_cell(family, kind, 64, None, (), 5)
            assert cell[0] is harness._estimator_trial and cell[4] is None

    @pytest.mark.parametrize("variant, shape, n", CASES)
    def test_trials_do_not_depend_on_the_trial_count_or_workers(
        self, trials_of, variant, shape, n
    ):
        family = self.family(variant, shape)
        chunk = harness._estimator_cell(family, EstimatorKind.A2, n, None, (), 2)[4]
        short = rms_error(family, EstimatorKind.A2, n, 8, seed=11)
        long = rms_error(family, EstimatorKind.A2, n, 3 * chunk + 5, seed=11)
        assert len(short) == 8 and len(long) == 3 * chunk + 5
        assert short == long[:8]
        assert rms_error(family, EstimatorKind.A2, n, 3 * chunk + 5, seed=11,
                         workers=2) == long

    @pytest.mark.parametrize("variant, shape, n", CASES)
    def test_each_trial_is_a2_on_its_own_instance(self, trials_of, variant, shape, n):
        family = self.family(variant, shape)
        spec = family.spec
        chunk = harness._estimator_cell(family, EstimatorKind.A2, n, None, (), 2)[4]
        trials = chunk + 3
        got = rms_error(family, EstimatorKind.A2, n, trials, seed=12)
        want = []
        for c, count in enumerate((chunk, 3)):
            stream = RngStream(12, (c,))
            instances = family.sample_chunk(stream.child(0), count)
            flat = stream.child(1).generator().integers(0, spec.n_entries, size=(count, n))
            for r in range(count):
                f = MixedMatrix.from_rows(spec, [instances.row_ids[r]],
                                          instances.block[r : r + 1])
                report = estimators.mc_mean_a2(open_nonadaptive(f, Plan(flat[r])))
                want.append((report.value - scalar_mean(f), n))
        assert got == want

    @pytest.mark.parametrize("variant, shape, n, trials", [
        (Variant.SINGLE_SPIKE, (30, 16), 16, 5000),
        (Variant.ACTIVE_ROW_BERNOULLI, (256, 5377), 65536, 3),
    ])
    def test_no_block_holds_more_than_a_plan_block(self, monkeypatch, variant, shape, n, trials):
        shapes = []
        answer = QueryTape._answer_flat

        def recording(tape, flat):
            shapes.append(flat.shape)
            return answer(tape, flat)

        monkeypatch.setattr(QueryTape, "_answer_flat", recording)
        stats = rms_error(self.family(variant, shape), EstimatorKind.A2, n, trials, seed=1)
        assert stats.mean_card == n
        assert all(len(s) == 2 and s[0] * s[1] <= harness.PLAN_BLOCK for s in shapes)
        assert sum(s[0] * s[1] for s in shapes) == n * trials

    def test_every_a2_row_costs_n_exactly(self):
        table = rate_experiment(Regime.P_LT_2_LT_U, budgets=(256, 1024, 4096, 16384),
                                trials=4, seed=3)
        a2 = [row for row in table.rows if row.estimator == "a2"]
        assert {row.family for row in a2} == {"mu1", "mu4"} and len(a2) == 9
        assert all(row.mean_card == row.n for row in a2)


class TestWorkerPoolSize:
    """A pool starts at most min(workers, trials, usable CPUs) processes;
    a fake executor records how many, so no process is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        return started

    @pytest.mark.parametrize(
        "workers, items, started",
        [(5000, 10, [3]), (5000, 2, [2]), (2, 10, [2]), (1, 10, []), (5000, 1, [])],
    )
    def test_pool_size(self, pools, workers, items, started):
        assert harness._parallel_map(abs, list(range(-items, 0)), workers) == list(
            range(items, 0, -1)
        )
        assert pools == started

    def test_one_usable_cpu_runs_serially(self, pools, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert harness._parallel_map(abs, [-1, -2, -3], 5000) == [1, 2, 3]
        assert pools == []

    def test_cpu_count_without_affinity(self, pools, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        harness._parallel_map(abs, list(range(10)), 5000)
        assert pools == [4]

    def test_experiment_output_is_unchanged(self, pools):
        kwargs = dict(trials=40, seed=17)
        args = ([1.0, 2.0], 2.0, [16, 32])
        serial = norm_deviation_experiment(*args, workers=1, **kwargs)
        capped = norm_deviation_experiment(*args, workers=5000, **kwargs)
        assert capped.rows == serial.rows
        assert pools == [3]


class TestRateFit:
    def test_exact_line(self):
        points = [(n, n**-0.5) for n in (16, 64, 256, 1024)]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            rate_fit([(16, 0.5), (32, 0.4), (64, 0.3)])

    def test_nonpositive_error(self):
        with pytest.raises(NonpositiveError):
            rate_fit([(16, 0.5), (32, 0.4), (64, 0.0), (128, 0.2)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_error_is_no_fit(self, bad):
        points = [(16, 0.5), (32, 0.4), (64, bad), (128, 0.2)]
        with pytest.raises(NonfiniteError):
            rate_fit(points)
        assert harness._try_fit(points) is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, error", [
        (0, NonpositiveError), (-2, NonpositiveError),
        (math.inf, NonfiniteError), (math.nan, NonfiniteError),
    ])
    def test_bad_n_is_no_fit(self, bad, error):
        points = [(bad, 1.0), (2, 0.5), (4, 0.25), (8, 0.125)]
        with pytest.raises(error):
            rate_fit(points)
        assert harness._try_fit(points) is None

    def test_noisy_line_recovers_slope(self):
        rng = np.random.default_rng(2)
        points = [
            (n, n**-0.75 * (1.0 + rng.uniform(-0.05, 0.05)))
            for n in (16, 32, 64, 128, 256, 512, 1024, 2048)
        ]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-0.75, abs=0.05)
        assert 0.9 <= fit.r_squared <= 1.0


class TestGapExperiment:
    def test_small_run_structure(self):
        result = gap_experiment([256, 512], 5.0, trials=40, seed=9)
        assert [r.n for r in result.rows] == [256, 512]
        for row in result.rows:
            assert row.n1 == row.n2 == math.ceil(5.0 * math.sqrt(row.n))
            assert row.ratio == pytest.approx(row.rms_a2 / row.rms_a3)
            assert row.mean_card_a2 == row.mean_card_a3
        # Too few budgets for a fit.
        assert result.fits["ratio rms_a2/rms_a3"] is None

    def test_predicted_rms_a2_per_row(self):
        # One closed-form value per budget: sqrt(N1 / mean_card_a2).
        result = gap_experiment([256, 512, 1024], 5.0, trials=20, seed=9)
        (predicted,) = [v for kind, _, v in result.footer if kind == "predicted"]
        assert [n for n, _ in predicted] == [r.n for r in result.rows]
        for (_, value), row in zip(predicted, result.rows):
            assert value == math.sqrt(row.n1 / row.mean_card_a2)
            assert value / 3.0 <= row.rms_a2 <= value * 3.0

    def test_workers_bitwise_equal(self):
        a = gap_experiment([256], 5.0, trials=30, seed=10, workers=1)
        b = gap_experiment([256], 5.0, trials=30, seed=10, workers=2)
        assert a.rows == b.rows

    def test_guard_violation(self):
        with pytest.raises(RegimeViolation):
            gap_experiment([1024], 0.1, trials=30, seed=0)

    def test_budget_below_n1(self):
        with pytest.raises(RegimeViolation):
            gap_experiment([64], 40.0, trials=30, seed=0)

    def test_c3_must_be_finite(self):
        with pytest.raises(InvalidParameters, match="c3 must be finite"):
            gap_experiment([256], math.inf, trials=2, seed=0)

    def test_relaxed_guard_accepts_square_grid(self):
        result = gap_experiment([1024], 1.0, trials=30, seed=1, c0=2.0)
        assert result.rows[0].n1 == 32


class TestRateExperiment:
    def test_p_ge_u_predictions(self):
        report = rate_experiment(
            Regime.P_GE_U, budgets=(64, 128, 256, 512), trials=120, seed=12
        )
        assert report.fits["row-spike mean, p>=u [a2]"] is not None
        ((_, _, predicted),) = [f for f in report.footer if f[0] == "predicted"]
        # Closed form 4/sqrt(n), asserted within a factor of 2.
        for row, (n, predicted) in zip(report.rows, predicted, strict=True):
            assert n == row.n
            assert predicted / 2.0 <= row.rms <= predicted * 2.0

    def test_guard_rejects_dense_grid(self):
        with pytest.raises(RegimeViolation):
            rate_experiment(
                Regime.P_GE_U, budgets=(64, 128, 256, 512), trials=40,
                seed=0, c0=1e-5,
            )

    def test_small_budget_regime_flat(self):
        report = rate_experiment(Regime.P_LT_2_LT_U, trials=150, seed=13)
        ((_, _, (fit, target)),) = [
            f for f in report.footer if f[1] == "single-spike mean, n<N1 [a2]"
        ]
        assert target == 0.0
        assert fit is not None
        assert abs(fit.slope) <= 0.1


class TestDsExperiment:
    def test_small_run(self):
        result = ds_experiment(k0=(4,), trials=30, seed=14, alpha=1.5, delta=0.2)
        assert len(result.rows) == 2
        ((kind, label, ratio),) = result.footer
        assert (kind, label) == ("ratio", "k0=4")
        assert ratio > 0.0

    def test_single_mode(self):
        result = ds_experiment(
            k0=(4,), trials=10, seed=15, alpha=1.5, delta=0.2, mode="nonadaptive"
        )
        assert len(result.rows) == 1
        assert result.rows[0].mode == "nonadaptive"
        assert result.footer == ()

    def test_k_max_floor_checked(self):
        with pytest.raises(InvalidParameters):
            ds_experiment(k0=(4,), trials=10, seed=0, k_max=3)

    def test_schedule_errors_come_before_any_trial(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a trial ran before the schedules were checked")

        monkeypatch.setattr(harness, "_run_cells", unreachable)
        with pytest.raises(InvalidParameters) as info:
            ds_experiment(k0=(4,), delta=0.6, trials=2)
        want = "delta must lie strictly inside (0, alpha - 1), got 0.6"
        assert str(info.value) == want

    def test_k0_bounds_come_before_any_level_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a trial ran before the schedules were checked")

        monkeypatch.setattr(harness, "_run_cells", unreachable)
        with pytest.raises(InvalidParameters) as info:
            ds_experiment(k0=(4, 600), trials=2)
        assert str(info.value) == "k0 must be a positive integer at most 12, got 600"
        with pytest.raises(InvalidParameters) as info:
            ds_experiment(k0=(), trials=2)
        assert str(info.value) == "k0 needs at least one value"

    def test_default_delta_schedules_every_level_at_least_n_k(self):
        # At the midpoint 0.25, level 10 of k0 = 6 gets 1023 < 1024 samples.
        assert direct_sum.level_allocation(6, 1.5, 0.25, 0.5).levels[10] == (10, 1023)
        assert direct_sum.level_allocation(6, 1.5, 0.24, 0.5).levels[10] == (10, 1052)
        both = ds_experiment(trials=2, seed=3)
        assert repr(both.settings["delta"]) == "0.24"
        # Resolved alike in every mode, so single-mode rows are both-mode rows.
        single = ds_experiment(trials=2, seed=3, mode="nonadaptive")
        assert single.settings == both.settings
        assert single.rows == both.rows[1::2]

    def test_default_delta_keeps_the_midpoint_when_no_multiple_fits(self):
        # k0 = 1 schedules 1 sample at level 1, below N_1 = 2, at any delta;
        # at alpha = 1.01 no multiple of 0.01 lies below the midpoint 0.005.
        assert harness._default_delta((4, 1), 1.5, 0.5) == 0.25
        assert harness._default_delta((4,), 1.01, 0.5) == (1.01 - 1.0) / 2.0
        with pytest.raises(PreconditionViolated, match="level 1: scheduled budget 1 "):
            ds_experiment(k0=(1,), trials=2)

    def test_mode_may_be_a_mode(self):
        kwargs = dict(k0=(4,), trials=2, seed=15, delta=0.2)
        by_name = ds_experiment(mode="adaptive", **kwargs)
        assert ds_experiment(mode=Mode.ADAPTIVE, **kwargs).rows == by_name.rows


class TestNormDeviationExperiment:
    def test_spike_population_rate(self):
        result = norm_deviation_experiment(
            [2.0, 0.0, 0.0, 0.0], 2.0, [2**k for k in range(4, 11)],
            trials=300, seed=16,
        )
        (_, _, (fit, target)), (_, _, true_norm) = result.footer
        assert true_norm == pytest.approx(1.0)
        assert target == -0.5
        assert fit is not None
        assert -0.6 <= fit.slope <= -0.4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_population_must_be_finite(self, bad):
        with pytest.raises(InvalidParameters, match="must be finite"):
            norm_deviation_experiment([bad, 1.0], 2.0, [16], trials=2, seed=0)

    @pytest.mark.parametrize("power", [-1000, -700, 700, 1000])
    def test_deviations_outside_the_normal_range(self, power):
        # Squared deviations of 2^-700 underflow and those of 2^700
        # overflow; the figures follow the unit population's.
        unit = [1.0, 0.0, 3.0]
        budgets = [16, 32, 64, 128]
        base = norm_deviation_experiment(unit, 2.0, budgets, trials=3, seed=5)
        scaled = norm_deviation_experiment(
            [math.ldexp(x, power) for x in unit], 2.0, budgets, trials=3, seed=5
        )
        for row, ref in zip(scaled.rows, base.rows):
            assert math.ldexp(row.rms_dev, -power) == pytest.approx(ref.rms_dev, rel=1e-12)
            assert math.ldexp(row.stderr, -power) == pytest.approx(ref.stderr, rel=1e-12)
        fit, ref = scaled.fits["rms deviation"], base.fits["rms deviation"]
        assert fit.slope == pytest.approx(ref.slope, rel=1e-9)

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_trial_stats_scale_exactly(self, power):
        errors = [0.5, -0.25, 0.125, -0.75, 0.0]
        base = harness._stats_from_trials([(e, 3) for e in errors])
        scaled = harness._stats_from_trials([(math.ldexp(e, power), 3) for e in errors])
        assert scaled.rms == math.ldexp(base.rms, power)
        assert scaled.stderr == math.ldexp(base.stderr, power)
        assert scaled.mae == math.ldexp(base.mae, power)
        assert scaled.mean_card == base.mean_card == 3.0

    @pytest.mark.filterwarnings("error")
    def test_mae_of_errors_near_the_float_maximum_is_finite(self):
        # |err| sums past the float maximum; the scaled errors do not.
        stats = harness._stats_from_trials([(1.7e308, 1), (-1.7e308, 1)])
        assert stats.mae == stats.rms == 1.7e308

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                 max_size=40),
        st.integers(0, 2**40),
    )
    @example([2.0**600, -1.0, 0.0], 7)
    @example([2.0**-300, -(2.0**-290)], 1)
    @example([2.0**1023, 2.0**1023], 0)
    def test_trial_stats_equal_the_mean_and_std_methods(self, errors, card):
        def by_methods(results):
            """The figures by ``ndarray.mean`` and ``ndarray.std(ddof=1)``."""
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
            sq = err * err
            rms = math.sqrt(float(sq.mean()))
            stderr = 0.0
            if t > 1 and rms > 0.0:
                stderr = float(sq.std(ddof=1)) / math.sqrt(t) / (2.0 * rms)
            # mae is the mean of the scaled |err|, scaled back.
            mae = float(np.abs(err).mean())
            return (math.ldexp(rms, exponent), math.ldexp(stderr, exponent),
                    float(cards.mean()), math.ldexp(mae, exponent), t)

        results = [(e, card + i) for i, e in enumerate(errors)]
        got = harness._stats_from_trials(results)
        want = by_methods(results)
        assert [x.hex() for x in (got.rms, got.stderr, got.mean_card, got.mae)] == [
            x.hex() for x in want[:4]
        ]
        assert got.trials == want[4]

    def test_workers_bitwise_equal(self):
        kwargs = dict(trials=40, seed=17)
        a = norm_deviation_experiment([1.0, 2.0], 2.0, [16, 32], workers=1, **kwargs)
        b = norm_deviation_experiment([1.0, 2.0], 2.0, [16, 32], workers=2, **kwargs)
        assert a.rows == b.rows


class TestDsTrialReadsEachLowLevelOnce:
    """A sampled element's levels below k0 are read once, whatever the
    number of composites run on it."""

    def test_one_full_readout_per_level(self, monkeypatch):
        opened = []
        real = direct_sum.open_nonadaptive

        def counting(f, plan):
            opened.append(f.spec.n1)
            return real(f, plan)

        # Only the readouts open their tape through this name.
        monkeypatch.setattr(direct_sum, "open_nonadaptive", counting)
        spec = DirectSumSpec(1.5, 1.0, INF, 10)
        schedules = tuple(direct_sum.level_allocation(k0, 1.5, 0.2, 0.5)
                          for k0 in (4, 5, 6))
        modes = (Mode.ADAPTIVE, Mode.NONADAPTIVE)
        stream = RngStream(3)
        out = harness._ds_trial(spec, schedules, modes, None, stream)
        # Levels 0..5 once each, not once per composite (15 per mode).
        assert sorted(opened) == [2**k for k in range(6)]
        monkeypatch.undo()

        # Each composite still costs and returns what it does alone, on an
        # element whose levels were never read.
        for i, schedule in enumerate(schedules):
            for j, mode in enumerate(modes):
                x = harness.sample_ds_input(spec, stream.child(0))
                alone = direct_sum.ds_estimate(x, schedule, mode, None,
                                               stream.child(1 + 2 * i + j))
                assert out[2 * i + j] == (alone.value - direct_sum.ds_integral(x),
                                          alone.cards)
            assert out[2 * i + 1][1] == schedule.total


class TestA2DrawsItsPlanOnce:
    """Every a2 call site draws the index plan once; the tape answers it."""

    @pytest.fixture
    def draws(self, monkeypatch):
        sizes = []
        real = estimators.draw_plan

        def counting(spec, n, rng):
            sizes.append(int(n))
            return real(spec, n, rng)

        # Every a2 run goes through run_a2, which looks the name up here.
        monkeypatch.setattr(estimators, "draw_plan", counting)
        return sizes

    def test_gap_trial(self, draws):
        # Each trial's a2 run is granted the a3 run's realized cost.
        (row,) = gap_experiment([256], 5.0, trials=2, seed=1).rows
        assert len(draws) == 2
        assert sum(draws) / 2 == row.mean_card_a2 == row.mean_card_a3

    def test_run_estimator(self, draws):
        family = HardFamily(Variant.FULL_BERNOULLI, ProblemSpec(6, 7, 2.0, 2.0))
        stats = rms_error(family, EstimatorKind.A2, 50, 2, seed=4)
        assert draws == [50, 50] and stats.mean_card == 50
        report = estimators.run_a2(family.sample(RngStream(4)), 50, RngStream(5))
        assert draws == [50, 50, 50] and report.cards == 50

    def test_cli_estimate(self, draws, capsys):
        code = cli.run(["estimate", "--alg", "a2", "--n1", "8", "--n2", "8",
                        "--n", "100", "--seed", "2"])
        assert code == 0 and "card=100" in capsys.readouterr().out
        assert draws == [100]

    def test_ds_estimate(self, draws):
        spec = DirectSumSpec(1.5, 1.0, INF, 6)
        x = harness.sample_ds_input(spec, RngStream(5))
        schedule = direct_sum.level_allocation(4, 1.5, 0.2, 0.5)
        direct_sum.ds_estimate(x, schedule, Mode.NONADAPTIVE, None, RngStream(6))
        assert draws == [n for k, n in schedule.levels if k >= 4]


class TestRowSparsePathsStaySparse:
    """Sampling, ground truth and both estimators answer single-spike and
    active-row samples from their stored row, never the dense array."""

    @pytest.fixture(autouse=True)
    def no_dense(self, monkeypatch):
        def refuse(f):
            if f.row_ids is not None:
                raise AssertionError("built the dense entries of a row-sparse matrix")
            return f.block

        monkeypatch.setattr(MixedMatrix, "entries", property(refuse))

    def test_gap_trial(self):
        gap_experiment([256], 5.0, trials=2, seed=1)

    @pytest.mark.parametrize(
        "variant", [Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI]
    )
    @pytest.mark.parametrize("kind", [EstimatorKind.A2, EstimatorKind.A3])
    def test_rms_error(self, variant, kind):
        family = HardFamily(variant, ProblemSpec(7, 9, 1.0, INF))
        rms_error(family, kind, 40, 3, 2)

    @pytest.mark.parametrize("mode", [Mode.ADAPTIVE, Mode.NONADAPTIVE])
    def test_ds_estimate(self, mode):
        spec = DirectSumSpec(1.5, 1.0, INF, 6)
        x = harness.sample_ds_input(spec, RngStream(5))
        direct_sum.ds_integral(x)
        schedule = direct_sum.level_allocation(4, 1.5, 0.2, 0.5)
        direct_sum.ds_estimate(x, schedule, mode, None, RngStream(6))

    def test_single_queries(self):
        spec = ProblemSpec(3, 4, 1.0, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(1))
        tape = open_adaptive(f, budget=12)
        values = [tape.query_many(i, j)[0] for i in (0, 1, 2) for j in (0, 1, 2, 3)]
        assert sum(v != 0.0 for v in values) == 4


@pytest.mark.parametrize("p, u", [(1.0, 2.0), (2.0, INF)])
def test_adaptive_regime_is_enforced_at_every_entry_point(p, u, capsys):
    family = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(8, 8, p, u))
    with pytest.raises(PreconditionViolated, match="p < 2 < u"):
        estimators.run_a3(family.sample(RngStream(1)), 64, None, RngStream(2))
    with pytest.raises(PreconditionViolated, match="p < 2 < u"):
        rms_error(family, EstimatorKind.A3, 64, 2, seed=3)
    # Checked before the level loop, so an element without levels is refused.
    x = DirectSumElement(DirectSumSpec(1.5, p, u, 6), [])
    schedule = direct_sum.level_allocation(4, 1.5, 0.2, 0.5)
    with pytest.raises(PreconditionViolated, match="p < 2 < u"):
        direct_sum.ds_estimate(x, schedule, Mode.ADAPTIVE, None, RngStream(4))
    code = cli.run(["estimate", "--family", "mu4", "--alg", "a3", "--n1", "8",
                    "--n2", "8", "--p", str(p), "--u", str(u), "--n", "64"])
    assert code == 3
    assert "p < 2 < u" in capsys.readouterr().err

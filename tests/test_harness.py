import math

import numpy as np
import pytest

from adaptgap import cli, direct_sum, estimators, harness
from adaptgap.direct_sum import DirectSumSpec
from adaptgap.errors import (
    InsufficientPoints,
    InvalidParameters,
    NonfiniteError,
    NonpositiveError,
    RegimeViolation,
)
from adaptgap.harness import (
    EstimatorKind,
    Regime,
    TrialPlan,
    ds_experiment,
    gap_experiment,
    norm_deviation_experiment,
    rate_experiment,
    rate_fit,
    rms_error,
    run_plan,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.oracle import Mode, open_adaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec


class ZeroVariant:
    value = "zero"


class ZeroFamily:
    """Every sample is the zero matrix; any estimator is exact on it."""

    variant = ZeroVariant()
    spec = ProblemSpec(4, 4, 1.0, INF)

    def sample(self, rng, antithetic=False):
        return MixedMatrix(self.spec, np.zeros((4, 4)))


def bernoulli_family(side=64):
    return HardFamily(Variant.FULL_BERNOULLI, ProblemSpec(side, side, 2.0, 2.0))


class TestRmsError:
    def test_exact_estimator_rms_zero(self):
        stats = rms_error(bernoulli_family(8), EstimatorKind.EXACT, 4, 50, seed=1)
        assert stats.rms == 0.0
        assert stats.stderr == 0.0
        assert stats.mean_card == 64.0

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


class TestTrialPlan:
    def test_budgets_must_increase(self):
        with pytest.raises(InvalidParameters):
            TrialPlan(bernoulli_family(8), EstimatorKind.A2, (64, 64), 100, 0)

    def test_minimum_trials(self):
        with pytest.raises(InvalidParameters):
            TrialPlan(bernoulli_family(8), EstimatorKind.A2, (64,), 10, 0)

    def test_run_plan_rows(self):
        plan = TrialPlan(
            bernoulli_family(16), EstimatorKind.A2, (64, 128, 256), 50, 11
        )
        rows = run_plan(plan)
        assert [r.n for r in rows] == [64, 128, 256]
        assert all(r.trials == 50 and r.seed == 11 for r in rows)
        assert all(r.mean_card == r.n for r in rows)

    def test_ds_kinds_rejected(self):
        plan = TrialPlan(
            bernoulli_family(8), EstimatorKind.DS_ADAPTIVE, (64,), 50, 0
        )
        with pytest.raises(InvalidParameters):
            run_plan(plan)


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
        assert result.ratio_fit is None

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

    def test_relaxed_guard_accepts_square_grid(self):
        result = gap_experiment([1024], 1.0, trials=30, seed=1, c0=2.0)
        assert result.rows[0].n1 == 32


class TestRateExperiment:
    def test_p_ge_u_predictions(self):
        report = rate_experiment(
            Regime.P_GE_U, budgets=(64, 128, 256, 512), trials=120, seed=12
        )
        (check,) = report.checks
        assert check.fit is not None
        assert check.predicted is not None
        # Closed form 4/sqrt(n), asserted within a factor of 2.
        for row, predicted in zip(check.rows, check.predicted):
            assert predicted / 2.0 <= row.rms <= predicted * 2.0

    def test_guard_rejects_dense_grid(self):
        with pytest.raises(RegimeViolation):
            rate_experiment(
                Regime.P_GE_U, budgets=(64, 128, 256, 512), trials=40,
                seed=0, c0=1e-5,
            )

    def test_small_budget_regime_flat(self):
        report = rate_experiment(Regime.P_LT_2_LT_U, trials=150, seed=13)
        flat = report.checks[2]
        assert flat.target_slope == 0.0
        assert flat.fit is not None
        assert abs(flat.fit.slope) <= 0.1


class TestDsExperiment:
    def test_small_run(self):
        result = ds_experiment(
            k0_values=(4,), trials=30, seed=14, alpha=1.5, delta=0.2
        )
        assert len(result.rows) == 2
        (k0, ratio) = result.ratios[0]
        assert k0 == 4
        assert ratio > 0.0

    def test_single_mode(self):
        from adaptgap.oracle import Mode

        result = ds_experiment(
            k0_values=(4,), trials=10, seed=15, alpha=1.5, delta=0.2,
            modes=(Mode.NONADAPTIVE,),
        )
        assert len(result.rows) == 1
        assert result.rows[0].mode == "nonadaptive"
        assert result.ratios == ()

    def test_k_max_floor_checked(self):
        with pytest.raises(InvalidParameters):
            ds_experiment(k0_values=(4,), trials=10, seed=0, k_max=3)


class TestNormDeviationExperiment:
    def test_spike_population_rate(self):
        result = norm_deviation_experiment(
            [2.0, 0.0, 0.0, 0.0], 2.0, [2**k for k in range(4, 11)],
            trials=300, seed=16,
        )
        assert result.true_norm == pytest.approx(1.0)
        assert result.target_slope == -0.5
        assert result.fit is not None
        assert -0.6 <= result.fit.slope <= -0.4

    def test_workers_bitwise_equal(self):
        kwargs = dict(trials=40, seed=17)
        a = norm_deviation_experiment([1.0, 2.0], 2.0, [16, 32], workers=1, **kwargs)
        b = norm_deviation_experiment([1.0, 2.0], 2.0, [16, 32], workers=2, **kwargs)
        assert a.rows == b.rows


class TestA2DrawsItsPlanOnce:
    """Every a2 call site draws the index plan once; the tape answers it."""

    @pytest.fixture
    def draws(self, monkeypatch):
        sizes = []
        real = estimators.draw_indices

        def counting(spec, n, rng):
            sizes.append(int(n))
            return real(spec, n, rng)

        for module in (estimators, harness, cli, direct_sum):
            monkeypatch.setattr(module, "draw_indices", counting)
        return sizes

    def test_gap_trial(self, draws):
        task = harness._GapTask(n=256, n1=80, n2=80, m=None, seed=1, n_index=0)
        result = harness._gap_trial((task, 0))
        assert draws == [result[4]]

    def test_run_estimator(self, draws):
        family = HardFamily(Variant.FULL_BERNOULLI, ProblemSpec(6, 7, 2.0, 2.0))
        report, _ = harness._run_estimator(
            EstimatorKind.A2, family, 50, None, RngStream(4)
        )
        assert draws == [50] and report.cards == 50

    def test_cli_estimate(self, draws, capsys):
        code = cli.run(["estimate", "--alg", "a2", "--n1", "8", "--n2", "8",
                        "--n", "100", "--seed", "2"])
        assert code == 0 and "card=100" in capsys.readouterr().out
        assert draws == [100]

    def test_ds_estimate(self, draws):
        spec = DirectSumSpec(1.5, 1.0, INF, 1.0, 6)
        x = harness.sample_ds_input(spec, RngStream(5))
        schedule = direct_sum.level_allocation(4, 1.5, 0.2, 0.5)
        direct_sum.ds_estimate(x, 4, 0.2, Mode.NONADAPTIVE, None, RngStream(6))
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
        task = harness._GapTask(n=256, n1=80, n2=80, m=None, seed=1, n_index=0)
        harness._gap_trial((task, 0))

    @pytest.mark.parametrize(
        "variant", [Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI]
    )
    @pytest.mark.parametrize("kind", [EstimatorKind.A2, EstimatorKind.A3])
    def test_rms_error(self, variant, kind):
        family = HardFamily(variant, ProblemSpec(7, 9, 1.0, INF))
        rms_error(family, kind, 40, 3, 2)

    @pytest.mark.parametrize("mode", [Mode.ADAPTIVE, Mode.NONADAPTIVE])
    def test_ds_estimate(self, mode):
        spec = DirectSumSpec(1.5, 1.0, INF, 1.0, 6)
        x = harness.sample_ds_input(spec, RngStream(5))
        direct_sum.ds_integral(x)
        direct_sum.ds_estimate(x, 4, 0.2, mode, None, RngStream(6))

    def test_single_queries(self):
        spec = ProblemSpec(3, 4, 1.0, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(1))
        tape = open_adaptive(f)
        values = [tape.query(i, j) for i in (1, 2, 3) for j in (1, 2, 3, 4)]
        assert sum(v != 0.0 for v in values) == 4

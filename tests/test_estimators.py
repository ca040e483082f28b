import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import (
    BudgetExceeded,
    EmptyInput,
    InvalidExponent,
    PreconditionViolated,
)
from adaptgap.estimators import (
    adaptive_mean_a3,
    allocate_samples,
    default_probe_count,
    draw_plan,
    mc_mean_a2,
    median,
    norm_est_a1,
    run_a2,
    run_a3,
)
from adaptgap import estimators, oracle
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.oracle import Plan, open_adaptive, open_nonadaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec, RowChunk, as_count, scalar_mean
from reference import a2_by_pairs, draw_pairs, pairs_plan


def constant_matrix(c, n1=4, n2=4, p=1.0, u=INF):
    return MixedMatrix(ProblemSpec(n1, n2, p, u), np.full((n1, n2), float(c)))


class TestMedian:
    def test_singleton(self):
        assert median([5.0]) == 5.0

    def test_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            median([])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant_and_bounded(self, values, shuffler):
        m = median(values)
        assert min(values) <= m <= max(values)
        shuffled = list(values)
        shuffler.shuffle(shuffled)
        assert median(shuffled) == m


    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.integers(1, 12),
        m=st.integers(1, 16),
        pool=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        power=st.sampled_from([0, 600, -600]),
        data=st.data(),
    )
    def test_rows_match_np_median(self, n1, m, pool, power, data):
        # Entries come from a small pool, so rows are full of ties; signed
        # zeros are in the pool too. The scaled values stay finite.
        picks = data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=n1 * m, max_size=n1 * m)
        )
        x = np.ldexp(np.array(pool)[picks].reshape(n1, m), power)
        assert median(x, axis=1).tobytes() == np.median(x, axis=1).tobytes()
        assert np.float64(median(x[0])).tobytes() == np.median(x[0]).tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[-0.0, 1.0, -1.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]],
            [[-0.0, -0.0], [-0.0, 0.0], [2.0, -0.0]],
        ],
    )
    def test_signed_zeros_match_np_median(self, rows):
        x = np.array(rows)
        assert median(x, axis=1).tobytes() == np.median(x, axis=1).tobytes()

    def test_input_is_not_reordered(self):
        x = np.array([[3.0, 1.0, 2.0], [0.5, 9.0, -1.0]])
        assert median(x, axis=1).tolist() == [2.0, 0.5]
        assert x.tolist() == [[3.0, 1.0, 2.0], [0.5, 9.0, -1.0]]


class TestNormEstA1:
    def test_constant_population_exact(self):
        pop = np.full(10, 3.0)
        for seed in range(5):
            est = norm_est_a1(pop, 2.0, 7, RngStream(seed))
            assert est == 3.0

    def test_single_draw_hits_spike(self):
        pop = np.array([2.0, 0.0, 0.0, 0.0])
        seed = next(
            s
            for s in range(100)
            if RngStream(s).generator().integers(0, 4, size=1)[0] == 0
        )
        est = norm_est_a1(pop, 2.0, 1, RngStream(seed))
        assert est == 2.0

    def test_infinite_v_rejected(self):
        with pytest.raises(InvalidExponent):
            norm_est_a1(np.arange(1.0, 5.0), INF, 2, RngStream(0))

    def test_rms_deviation_rate(self):
        # Spike population, true averaged L2 norm = 1; RMS deviation should
        # decay like n^(-1/2).
        pop = np.array([2.0, 0.0, 0.0, 0.0])
        budgets = [2**k for k in range(4, 13)]
        trials = 400
        rms = []
        for i, n in enumerate(budgets):
            devs = np.array(
                [
                    norm_est_a1(pop, 2.0, n, RngStream(11, (i, t)))
                    - 1.0
                    for t in range(trials)
                ]
            )
            rms.append(math.sqrt((devs**2).mean()))
        slope = np.polyfit(np.log2(budgets), np.log2(rms), 1)[0]
        assert -0.6 <= slope <= -0.4


class TestMcMeanA2:
    def test_constant_exact(self):
        f = constant_matrix(2.5)
        tape = open_nonadaptive(f, draw_plan(f.spec, 12, RngStream(4)))
        report = mc_mean_a2(tape)
        assert report.value == 2.5
        assert report.cards == 12
        assert tape.card() == 12

    def test_exact_budget_never_exceeds(self):
        f = constant_matrix(1.0, 3, 5)
        for seed in range(10):
            rng = RngStream(seed)
            tape = open_nonadaptive(f, pairs_plan(f.spec, draw_pairs(f.spec, 20, rng)))
            report = mc_mean_a2(tape)
            assert report.cards == tape.card() == 20

    def test_reproducible(self):
        spec = ProblemSpec(6, 6, 1.0, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(3))
        r1 = run_a2(f, 50, RngStream(9))
        r2 = run_a2(f, 50, RngStream(9))
        assert r1.value == r2.value and r1.cards == r2.cards

    def test_requires_a_nonadaptive_tape(self):
        # An ADAPTIVE tape has no plan to average; a3 likewise refuses a
        # NONADAPTIVE tape.
        tape = open_adaptive(constant_matrix(1.0), budget=16)
        with pytest.raises(PreconditionViolated):
            mc_mean_a2(tape)
        assert tape.card() == 0

    def test_empty_plan_is_refused(self):
        tape = open_nonadaptive(constant_matrix(1.0), Plan(np.empty(0, np.int64)))
        with pytest.raises(ValueError):
            mc_mean_a2(tape)
        assert tape.card() == 0

    def test_unbiased_quick(self):
        rng = np.random.default_rng(12)
        f = MixedMatrix(ProblemSpec(8, 8, 2.0, 2.0), rng.normal(size=(8, 8)))
        truth = scalar_mean(f)
        trials = 3000
        values = np.array(
            [
                run_a2(f, 32, RngStream(5, (t,))).value
                for t in range(trials)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - truth) <= 3.0 * se


class TestA2OnAChunk:
    """On a chunk's tape, a2 sums each instance's row of answers: each mean
    equals a2 on that instance and its row of the plan, alone."""

    @pytest.mark.parametrize("n, trials, block", [(7, 5, 1 << 15), (10, 1, 4), (9, 1, 3)])
    def test_each_mean_is_a2_on_its_own_instance(self, monkeypatch, n, trials, block):
        monkeypatch.setattr(oracle, "PLAN_BLOCK", block)
        spec = ProblemSpec(3, 4, 1.5, INF)
        chunk = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample_chunk(
            RngStream(2), trials
        )
        tape = open_nonadaptive(chunk, draw_plan(spec, n * trials, RngStream(3)))
        report = mc_mean_a2(tape)
        assert report.cards == n and tape.card() == n * trials
        assert report.value.shape == (trials,)
        flat = RngStream(3).generator().integers(0, 12, size=(trials, n))
        for r in range(trials):
            f = MixedMatrix.from_rows(spec, [chunk.row_ids[r]], chunk.block[r : r + 1])
            alone = mc_mean_a2(open_nonadaptive(f, Plan(flat[r])))
            assert report.value[r] == alone.value and alone.cards == n

    def test_an_explicit_plan_asks_row_r_of_instance_r(self):
        spec = ProblemSpec(3, 4, 1.0, INF)
        g = np.random.default_rng(4)
        chunk = RowChunk(spec, [2, 0, 2, 1], g.normal(size=(4, 4)))
        flat = g.integers(0, 12, size=(4, 6))
        report = mc_mean_a2(open_nonadaptive(chunk, Plan(flat.reshape(-1))))
        assert report.cards == 6 and report.value.shape == (4,)
        for r in range(4):
            f = MixedMatrix.from_rows(spec, [chunk.row_ids[r]], chunk.block[r : r + 1])
            alone = mc_mean_a2(open_nonadaptive(f, Plan(flat[r])))
            assert report.value[r] == alone.value
            assert alone.value == f.entries.reshape(-1)[flat[r]].mean()
        # run_a2 on a chunk is this, on the plan draw_plan draws.
        got = run_a2(chunk, 24, RngStream(5)).value
        want = mc_mean_a2(open_nonadaptive(chunk, draw_plan(spec, 24, RngStream(5)))).value
        assert got.tolist() == want.tolist()


class TestA2DeclaredPlan:
    @settings(max_examples=80, deadline=None)
    @given(
        n1=st.integers(1, 9),
        n2=st.integers(1, 9),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32),
        fortran=st.booleans(),
    )
    def test_answers_the_declared_plan(self, n1, n2, n, seed, fortran):
        entries = np.random.default_rng(seed).normal(size=(n1, n2))
        if fortran:
            entries = np.asfortranarray(entries)
        f = MixedMatrix(ProblemSpec(n1, n2, 1.0, INF), entries)
        rng = RngStream(seed)
        plan = draw_pairs(f.spec, n, rng)
        tape = open_nonadaptive(f, pairs_plan(f.spec, plan))
        report = mc_mean_a2(tape)
        reference = entries[plan[:, 0], plan[:, 1]].mean()
        assert report.value == float(reference)
        assert report.cards == tape.card() == n
        # The same stream, drawn as a plan or asked as pairs on an ADAPTIVE
        # tape, draws and answers the same plan.
        assert run_a2(f, n, rng).value == report.value
        assert a2_by_pairs(f, n, rng).value == report.value

    def test_explicit_plan_is_one_flat_array(self):
        # The reference pairs are converted once into int64 flat indices, 8
        # bytes per query, that the caller's array does not share, and the
        # tape keeps that plan as it is.
        f = constant_matrix(1.0, 3, 5)
        plan = draw_pairs(f.spec, 40, RngStream(2))
        assert plan.shape == (40, 2)
        explicit = pairs_plan(f.spec, plan)
        kept = open_nonadaptive(f, explicit).plan
        assert kept is explicit
        assert kept.flat.dtype == np.int64 and kept.flat.nbytes == 8 * 40
        assert kept.flat.tolist() == (plan[:, 0] * 5 + plan[:, 1]).tolist()
        assert not np.shares_memory(kept.flat, plan) and not kept.flat.flags.writeable


def drawn_pairs(spec, n, rng):
    """Every (row, col) pair of ``draw_plan``, concatenated from its flat
    blocks and split as (f // N2, f % N2)."""
    flat = np.concatenate([np.empty(0, np.int64), *draw_plan(spec, n, rng).blocks()])
    return np.column_stack(np.divmod(flat, spec.n2))


class TestFlatMapping:
    """An a2 sample is one uniform flat index f in [0, N1*N2), the entry
    (f // N2, f % N2)."""

    @pytest.mark.parametrize("n1, n2", [(1, 7), (7, 1), (3, 5), (256, 255)])
    def test_pairs_in_range_and_row_major(self, n1, n2):
        spec = ProblemSpec(n1, n2, 1.0, INF)
        n = 500
        flat = RngStream(n1, (n2,)).generator().integers(0, n1 * n2, size=n)
        pairs = draw_pairs(spec, n, RngStream(n1, (n2,)))
        assert pairs[:, 0].min() >= 0 and pairs[:, 0].max() < n1
        assert pairs[:, 1].min() >= 0 and pairs[:, 1].max() < n2
        assert (pairs[:, 0] * n2 + pairs[:, 1]).tolist() == flat.tolist()
        # Entries that hold their own row-major position answer the draw.
        f = MixedMatrix(spec, np.arange(n1 * n2, dtype=float).reshape(n1, n2))
        for plan in (pairs_plan(spec, pairs), draw_plan(spec, n, RngStream(n1, (n2,)))):
            answers = np.concatenate(list(open_nonadaptive(f, plan).answers()))
            assert answers.tolist() == flat.tolist()
        want = float(np.add.reduce(flat.astype(float)) / n)
        assert run_a2(f, n, RngStream(n1, (n2,))).value == want
        assert a2_by_pairs(f, n, RngStream(n1, (n2,))).value == want

    def test_every_cell_is_uniform(self):
        # 150,000 draws on a 3 x 5 grid: each cell's count is binomial with
        # mean 10,000 and standard deviation about 96.6.
        n = 150_000
        pairs = draw_pairs(ProblemSpec(3, 5, 1.0, INF), n, RngStream(12))
        counts = np.zeros((3, 5))
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        sd = math.sqrt(n * (1 / 15) * (14 / 15))
        assert np.abs(counts - 10_000).max() <= 5 * sd

    def test_counts_beyond_2_to_the_53_are_refused(self):
        spec = ProblemSpec(3, 5, 1.0, INF)
        # A drawn plan allocates nothing, so 2^53 queries are only declared.
        assert draw_plan(spec, 2**53, RngStream(1)).size == 2**53
        for draw in (draw_plan, draw_pairs):
            with pytest.raises(ValueError, match=str(2**53 + 1)):
                draw(spec, 2**53 + 1, RngStream(1))

    @pytest.mark.parametrize("n", [2.5, math.nan])
    def test_counts_that_are_not_integers_are_refused(self, n):
        # int() would truncate 2.5 to a plan of 2 queries.
        spec = ProblemSpec(3, 5, 1.0, INF)
        for draw in (draw_plan, draw_pairs):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
                draw(spec, n, RngStream(1))
        assert draw_plan(spec, 3.0, RngStream(1)).size == 3

    def test_entries_beyond_int64_flat_indices_are_refused(self):
        with pytest.raises(ValueError, match=str(2**64)):
            draw_plan(ProblemSpec(2**62, 4, 1.0, INF), 8, RngStream(1))
        plan = draw_plan(ProblemSpec(2**63 - 1, 1, 1.0, INF), 8, RngStream(1))
        assert all(0 <= f < 2**63 - 1 for f in next(plan.blocks()).tolist())


class TestSampleCountsAreIntegers:
    """run_a3, adaptive_mean_a3 and norm_est_a1 refuse an n that is not an
    integer as draw_plan does, where int() would truncate it: run_a3 at
    n = 8.7 ran with n = 8 under a tape budget of 6*m*8.7."""

    @staticmethod
    def mu4():
        spec = ProblemSpec(2, 4, 1.0, INF)
        return HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(0))

    @pytest.mark.parametrize("n", [8.7, 2.5, math.nan, math.inf])
    def test_a3_refuses_before_its_tape_opens(self, monkeypatch, n):
        # run_a3 would raise TypeError calling its tape opener.
        monkeypatch.setattr(estimators, "open_adaptive", None)
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            run_a3(self.mu4(), n, 2, RngStream(1))
        tape = open_adaptive(self.mu4(), budget=1000)
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            adaptive_mean_a3(tape, n, 2, RngStream(1))
        assert tape.card() == 0

    @pytest.mark.parametrize("n", [2.5, 8.7, math.nan])
    def test_norm_est_a1_refuses(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            norm_est_a1(np.arange(1.0, 5.0), 2.0, n, RngStream(0))

    @pytest.mark.parametrize(
        "n", [8.0, np.int64(8), np.float64(8.0)], ids=["float", "int64", "float64"]
    )
    def test_integral_values_run_as_their_integer(self, n):
        want = run_a3(self.mu4(), 8, 2, RngStream(1))
        got = run_a3(self.mu4(), n, 2, RngStream(1))
        assert (got.value, got.stage_cards) == (want.value, want.stage_cards)
        pop = np.arange(1.0, 5.0)
        assert norm_est_a1(pop, 2.0, n, RngStream(0)) == norm_est_a1(
            pop, 2.0, 8, RngStream(0)
        )
        # An integer beyond the float range is still an integer.
        assert as_count(10**400, "n") == 10**400

    @pytest.mark.parametrize(
        "run, error, message",
        [
            (lambda f: run_a3(f, 1, 2, RngStream(1)), PreconditionViolated,
             "n = 1 must be at least N1 = 2"),
            (lambda f: run_a3(f, -5, 2, RngStream(1)), PreconditionViolated,
             "n = -5 must be at least N1 = 2"),
            (lambda f: norm_est_a1([1.0], 2.0, 0, RngStream(0)), ValueError,
             "n must be positive"),
        ],
        ids=["a3-below-n1", "a3-negative", "a1-zero"],
    )
    def test_integer_refusals_keep_their_text(self, run, error, message):
        with pytest.raises(error, match=message):
            run(self.mu4())


class TestA2Blocks:
    """a2 across several plan blocks: blocks of 7 queries instead of 2^15."""

    BLOCK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "PLAN_BLOCK", self.BLOCK)

    @pytest.mark.parametrize("n1", [1, 255, 256, 70_000])
    @pytest.mark.parametrize("n2", [1, 255, 256, 300])
    @pytest.mark.parametrize("n", [1, 6, 7, 8, 14, 15, 50])
    def test_drawn_pairs_equal_draw_indices(self, n1, n2, n):
        # Named for draw_indices, the one-shot draw that the tests keep as
        # reference.draw_pairs.
        spec = ProblemSpec(n1, n2, 1.0, INF)
        rng = RngStream(n1 * n2 + n, (3,))
        assert drawn_pairs(spec, n, rng).tolist() == draw_pairs(spec, n, rng).tolist()
        assert draw_plan(spec, n, rng).flat is None

    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(1, 2**20),
        n2=st.integers(1, 2**20),
        n=st.integers(1, 200),
        block=st.integers(1, 64),
        seed=st.integers(0, 2**32),
    )
    def test_any_block_cut_draws_the_same_pairs(self, n1, n2, n, block, seed):
        spec = ProblemSpec(n1, n2, 1.0, INF)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "PLAN_BLOCK", block)
            got = drawn_pairs(spec, n, RngStream(seed))
        assert got.tolist() == draw_pairs(spec, n, RngStream(seed)).tolist()

    @staticmethod
    def instances(seed, n1=9, n2=11):
        """A dense and a row-sparse (mu4) matrix, both of integer entries."""
        spec = ProblemSpec(n1, n2, 1.0, INF)
        g = np.random.default_rng(seed)
        dense = MixedMatrix(spec, g.integers(-9, 10, size=(n1, n2)).astype(float))
        mu4 = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec)
        return dense, mu4.sample(RngStream(seed, (0,)))

    @staticmethod
    def reference(f, n, rng):
        """The whole-plan mean: every answer at once, as x.mean() sums."""
        plan = draw_pairs(f.spec, n, rng)
        vals = f.entries[plan[:, 0], plan[:, 1]]
        return float(np.add.reduce(vals) / n), vals

    @pytest.mark.parametrize("n", [6, 7, 8, 14, 50, 301])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_at_integer_entries(self, n, seed):
        for f in self.instances(seed):
            rng = RngStream(seed, (2,))
            want, _ = self.reference(f, n, rng)
            explicit = open_nonadaptive(f, pairs_plan(f.spec, draw_pairs(f.spec, n, rng)))
            assert run_a2(f, n, rng).value == want
            assert mc_mean_a2(explicit).value == want
            assert a2_by_pairs(f, n, rng).value == want

    @pytest.mark.parametrize("n", [8, 50, 301, 2000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_within_the_summation_bound_otherwise(self, n, seed):
        # Two summation orders of the same n answers each lie within
        # (n - 1) * eps/2 * sum|x| of the exact sum, and each division by n
        # adds half an ulp; so the means differ by at most
        # (n + 1) * eps * mean|x|.
        spec = ProblemSpec(13, 17, 2.0, 2.0)
        f = MixedMatrix(spec, np.random.default_rng(seed).normal(size=(13, 17)) * 1e3)
        rng = RngStream(seed, (2,))
        want, vals = self.reference(f, n, rng)
        got = run_a2(f, n, rng).value
        assert abs(got - want) <= (n + 1) * np.finfo(float).eps * np.abs(vals).mean()
        # Explicit, drawn and adaptive runs sum the same blocks.
        explicit = open_nonadaptive(f, pairs_plan(spec, draw_pairs(spec, n, rng)))
        assert mc_mean_a2(explicit).value == got
        assert a2_by_pairs(f, n, rng).value == got

    @pytest.mark.parametrize("n", [1, 7, 8, 21, 22])
    def test_cards_equal_n(self, n):
        f = constant_matrix(1.5, 3, 5)
        rng = RngStream(n)
        for plan in (
            draw_plan(f.spec, n, rng),
            pairs_plan(f.spec, draw_pairs(f.spec, n, rng)),
        ):
            tape = open_nonadaptive(f, plan)
            report = mc_mean_a2(tape)
            assert report.cards == tape.card() == n and report.value == 1.5
        report = a2_by_pairs(f, n, rng)
        assert report.cards == n and report.value == 1.5


class TestA2Memory:
    """a2 holds its plan's rows and one block, not n-length index arrays."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: HardFamily(
                Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(1280, 1280, 1.0, INF)
            ).sample(RngStream(1)),
            lambda: MixedMatrix(
                ProblemSpec(512, 512, 2.0, 2.0),
                np.random.default_rng(1).normal(size=(512, 512)),
            ),
        ],
        ids=["mu4-1280", "dense-512"],
    )
    def test_peak_at_2_to_the_20(self, make):
        f = make()
        tracemalloc.start()
        try:
            report = run_a2(f, 2**20, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cards == 2**20
        # One block's indices and answers, about 1 MB; a whole-plan draw
        # holds 8 MiB of int64 flat indices, 16 MiB as pairs.
        assert peak < 2e6


class TestAllocateSamples:
    def test_uniform_takes_floor(self):
        assert allocate_samples([3.0, 3.0, 3.0], 1.5, 10).tolist() == [4, 4, 4]

    def test_all_zero_takes_floor(self):
        assert allocate_samples([0.0, 0.0], 1.0, 10).tolist() == [5, 5]

    def test_hand_examples(self):
        assert allocate_samples([1.0, 0.0], 1.0, 10).tolist() == [10, 5]
        assert allocate_samples([2.0, 1.0, 1.0], 1.0, 9).tolist() == [5, 3, 3]

    @pytest.mark.parametrize("p", [2.0, 3.0, INF, 0.5])
    def test_bad_exponent(self, p):
        with pytest.raises(InvalidExponent):
            allocate_samples([1.0, 2.0], p, 10)

    def test_budget_below_rows(self):
        with pytest.raises(ValueError):
            allocate_samples([1.0, 1.0, 1.0], 1.0, 2)

    @pytest.mark.parametrize(
        "a",
        [
            [1.0, -1.0],
            [-0.5],
            [1.0, np.nan],
            [np.nan, 1.0],
            [1.0, np.inf],
            [-np.inf, 1.0],
            [],
            [[1.0, 2.0]],
        ],
    )
    def test_rejects_bad_a_tilde(self, a):
        with pytest.raises(ValueError):
            allocate_samples(a, 1.0, 10)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_floor_and_total(self, data):
        n1 = data.draw(st.integers(1, 12))
        a = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=n1,
                max_size=n1,
            )
        )
        p = data.draw(st.floats(min_value=1.0, max_value=1.999))
        n = data.draw(st.integers(n1, 500))
        counts = allocate_samples(a, p, n)
        floor = -(-n // n1)
        assert (counts >= floor).all()
        # Heavy rows receive at most their proportional share, rounded up.
        powers, total = reference_powers(a, p, n)
        if total > 0:
            for x, count in zip(powers, counts):
                if x > total / n1:
                    assert count <= math.ceil(x * n / total) + 0

    def test_share_that_rounds_just_above_an_integer(self):
        # The heavy row holds the whole total, and 125 * x / x rounds to
        # 125.00000000000001 at this x, so its ceiling is 126.
        counts = allocate_samples([0.0, 24.78293102596541], 1.5, 125)
        assert counts.tolist() == [63, 126]

    def test_share_of_a_subnormal_power_is_taken_after_rescaling(self):
        # 1e-200 ** 1.6 is a subnormal of a few bits, on which 25 * x / x is
        # exactly 25. The powers are rescaled first, and on the rescaled
        # power the share rounds just above 25, so its ceiling is 26.
        assert (1e-200) ** 1.6 < sys.float_info.min
        counts = allocate_samples([0.0, 1e-200], 1.6, 25)
        assert counts.tolist() == [13, 26]


def reference_powers(a, p, n):
    """The powers and total that allocation documents: scalar ``x**p`` and a
    correctly rounded sum (numpy's array ``**`` can land one ulp away),
    rescaled by ``2**-e`` with ``max(a) = m * 2**e`` when the largest power
    is not a normal float or the total times n overflows."""
    powers = [x**p for x in a]
    total = math.fsum(powers)
    if max(a) > 0 and (max(powers) < sys.float_info.min or total * n == math.inf):
        _, exponent = math.frexp(max(a))
        powers = [math.ldexp(x, -exponent) ** p for x in a]
        total = math.fsum(powers)
    return powers, total


def scalar_allocation(a, p, n):
    """The allocation as one Python float operation per row: scalar powers
    and a correctly rounded sum, rescaled when the largest power is not
    normal or the sum (or it times n) overflows, then ``math.ceil`` of
    each heavy row's share."""
    top = max(a)
    try:
        powers = [x**p for x in a]
        total = math.fsum(powers)
        normal = top == 0.0 or (
            max(powers) >= sys.float_info.min and total * n < math.inf
        )
    except OverflowError:
        normal = False
    if not normal:
        _, exponent = math.frexp(top)
        powers = [math.ldexp(x, -exponent) ** p for x in a]
        total = math.fsum(powers)
    floor = -(-n // len(a))
    threshold = total / len(a)
    return [math.ceil(x * n / total) if x > threshold else floor for x in powers]


#: Row sizes by range: small integers, whose average ties rows at the
#: threshold (zero included, so all-zero vectors occur); ordinary values;
#: subnormals; values whose sum, or sum times n, overflows.
_ALLOCATION_VALUES = (
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=sys.float_info.min),
    st.floats(min_value=1e306, max_value=sys.float_info.max),
)


class TestAllocationMatchesTheScalarFormula:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_p_one(self, data):
        self.check(data, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_other_p(self, data):
        self.check(data, data.draw(st.sampled_from([1.25, 1.5, 1.9])))

    @staticmethod
    def check(data, p):
        n1 = data.draw(st.integers(1, 12))
        # One range for the whole vector, or a mix of all four.
        mixed = st.one_of(*_ALLOCATION_VALUES)
        values = data.draw(st.sampled_from(_ALLOCATION_VALUES + (mixed,)))
        a = data.draw(st.lists(values, min_size=n1, max_size=n1))
        n = data.draw(st.integers(n1, 64 * n1))
        assert allocate_samples(a, p, n).tolist() == scalar_allocation(a, p, n)

    @pytest.mark.parametrize(
        "a",
        [
            [0.0, 0.0, 0.0],
            [1.0, 3.0, 2.0],  # the middle row ties the threshold
            [5e-324, 0.0, 1e-310],
            [1.7e308] * 8,
            [1e308, 0.0],
        ],
    )
    def test_edge_cases(self, a):
        for p in (1.0, 1.5):
            for n in (len(a), 10 * len(a) + 3):
                assert allocate_samples(a, p, n).tolist() == scalar_allocation(a, p, n)


class TestAllocationOutOfRange:
    """Powers past the float range are taken on input scaled by a power of
    two; the allocation is the one of the scaled-down input."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
    @pytest.mark.parametrize("power", [1000, -1000])
    def test_matches_the_scaled_input(self, p, power):
        a = [3.0, 0.25, 1.0, 0.0, 2.5]
        expected = allocate_samples([x / 4.0 for x in a], p, 64).tolist()
        assert allocate_samples(np.ldexp(a, power), p, 64).tolist() == expected

    def test_largest_double(self):
        counts = allocate_samples([np.finfo(float).max, 1.0], 1.9, 10)
        assert counts.tolist() == [10, 5]

    def test_sum_of_powers_overflows(self):
        # Every power is finite, their sum is not.
        assert allocate_samples([1.7e308] * 8, 1.0, 64).tolist() == [8] * 8
        assert allocate_samples([1e308, 0.0], 1.0, 64).tolist() == [64, 32]

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=1e100), min_size=1, max_size=8),
        p=st.sampled_from([1.0, 1.5, 1.9]),
        extra=st.integers(0, 100),
    )
    def test_in_range_input_is_unscaled(self, a, p, extra):
        # Reference: the scalar powers, unscaled, whenever they are normal.
        powers = np.array([x**p for x in a])
        n = len(a) + extra
        counts = np.full(len(a), -(-n // len(a)))
        total = math.fsum(powers.tolist())
        if total > 0.0 and powers.max() >= np.finfo(float).tiny:
            heavy = powers > total / len(a)
            counts[heavy] = np.ceil(powers[heavy] * n / total)
            assert allocate_samples(a, p, n).tolist() == counts.tolist()


class TestAdaptiveMeanA3:
    def test_constant_exact(self):
        f = constant_matrix(-1.25, 4, 6)
        tape = open_adaptive(f, budget=6 * 3 * 8)
        report = adaptive_mean_a3(tape, 8, 3, RngStream(2))
        assert report.value == -1.25
        assert report.cards == tape.card()
        assert sum(report.allocation) == report.stage_cards[1]

    def test_active_row_allocation(self):
        # With a single nonzero row the probe medians vanish elsewhere, so
        # the active row gets the whole budget n and others get the floor.
        spec = ProblemSpec(8, 8, 1.0, INF)
        n = 64
        for seed in range(6):
            f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(seed))
            active = int(np.flatnonzero(np.abs(f.entries).sum(axis=1))[0])
            tape = open_adaptive(f, budget=6 * 3 * n)
            report = adaptive_mean_a3(tape, n, 3, RngStream(seed + 100))
            alloc = report.allocation.tolist()
            assert alloc[active] == n
            assert all(
                v == -(-n // spec.n1) for k, v in enumerate(alloc) if k != active
            )

    def test_card_bound(self):
        g = np.random.default_rng(8)
        for _ in range(50):
            n1 = int(g.integers(1, 12))
            n2 = int(g.integers(1, 12))
            n = int(g.integers(n1, 6 * n1 + 20))
            m = int(g.integers(1, 8))
            spec = ProblemSpec(n1, n2, 1.0, INF)
            f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(
                RngStream(int(g.integers(0, 1 << 32)))
            )
            tape = open_adaptive(f, budget=6 * m * n)
            report = adaptive_mean_a3(tape, n, m, RngStream(7, (n1, n)))
            assert report.cards <= 6 * m * n
            assert report.cards == tape.card()

    def test_reproducible_bitwise(self):
        spec = ProblemSpec(5, 9, 1.5, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(1))
        reports = [
            adaptive_mean_a3(open_adaptive(f, budget=6 * 4 * 25), 25, 4, RngStream(77))
            for _ in range(2)
        ]
        assert reports[0].value == reports[1].value
        assert reports[0].cards == reports[1].cards
        assert np.array_equal(reports[0].allocation, reports[1].allocation)

    def test_preconditions(self):
        f = constant_matrix(1.0, 8, 8)
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(f, budget=1000), 4, 2, RngStream(0))
        # The exponent is the p of the tape's spec.
        at_two = constant_matrix(1.0, 8, 8, p=2.0)
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(at_two, budget=1000), 16, 2, RngStream(0))
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(f, budget=1000), 16, 0, RngStream(0))
        tape = open_nonadaptive(f, Plan(np.zeros(1, np.int64)))
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(tape, 16, 2, RngStream(0))

    def test_budget_exceeded_propagates(self):
        f = constant_matrix(1.0, 2, 2)
        tape = open_adaptive(f, budget=5)
        with pytest.raises(BudgetExceeded):
            adaptive_mean_a3(tape, 4, 2, RngStream(0))

    @pytest.mark.parametrize("block", [7, 1 << 15])
    def test_a_failing_stage_charges_nothing(self, monkeypatch, block):
        # N1 = 6, n = 12, m = 3: stage 1 asks 6 x 6 = 36 probes, in 6 blocks
        # of one row when PLAN_BLOCK is 7; a constant matrix gives every row
        # the floor of 2 samples, so stage 2 asks 12, in 2 blocks.
        monkeypatch.setattr(oracle, "PLAN_BLOCK", block)
        f = constant_matrix(1.0, 6, 5)
        for budget, charged in ((35, 0), (36 + 11, 36)):
            tape = open_adaptive(f, budget=budget)
            with pytest.raises(BudgetExceeded):
                adaptive_mean_a3(tape, 12, 3, RngStream(0))
            assert tape.card() == charged
        tape = open_adaptive(f, budget=36 + 12)
        report = adaptive_mean_a3(tape, 12, 3, RngStream(0))
        assert report.stage_cards == (36, 12) and tape.card() == 48

    def test_default_probe_count(self):
        assert default_probe_count(1) == 1
        assert default_probe_count(64) == 7
        assert default_probe_count(256) == 9


def whole_grid_a3(tape, n, m, rng):
    """a3 as it was before blocks: the whole stage-1 grid asked row-major at
    once and scaled by its largest answer, then the whole stage 2 at once.
    Returns the report's fields, the stage-1 row sizes ``a_tilde``, whether
    its scaled squares were ``normal``, the stage-2 answers ``vals2`` and the
    row ends ``ends``."""
    n1, n2 = tape.spec.n1, tape.spec.n2
    per_probe = -(-n // n1)
    k = per_probe * m
    # Child streams 1 and 2 are the estimator's stage-1 and stage-2 streams.
    cols1 = rng.child(1).generator().integers(0, n2, size=k).reshape(1, k)
    row_ids = np.arange(n1, dtype=np.int64)
    vals1 = tape.query_many(row_ids.reshape(n1, 1), cols1)
    _, exponent = math.frexp(max(vals1.max(), -vals1.min()))
    scaled = np.ldexp(vals1, -exponent)
    squares = np.square(scaled)
    means = np.add.reduce(squares.reshape(n1, per_probe, m), 1) / per_probe
    a_tilde = np.ldexp(np.median(np.sqrt(means), axis=1), exponent)
    # Whether every nonzero scaled square and mean square is a normal float;
    # a per-block scale then gives the same bits.
    tiny = np.finfo(float).tiny
    normal = bool(
        np.all((scaled == 0.0) | (squares >= tiny))
        and np.all((means == 0.0) | (means >= tiny))
    )
    allocation = allocate_samples(a_tilde, tape.spec.p, n)
    ends = np.cumsum(allocation)
    cols2 = rng.child(2).generator().integers(0, n2, size=int(ends[-1]))
    vals2 = tape.query_many(np.repeat(row_ids, allocation), cols2)
    row_means = np.add.reduceat(vals2, ends - allocation) / allocation
    return SimpleNamespace(
        value=float(np.add.reduce(row_means) / n1),
        cards=n1 * k + int(ends[-1]),
        stage_cards=(n1 * k, int(ends[-1])),
        allocation=allocation,
        a_tilde=a_tilde,
        normal=normal,
        vals2=vals2,
        ends=ends,
    )


def a3_row_sizes(monkeypatch, f, n, m, rng):
    """The blocked a3's report and the row sizes it allocated from."""
    seen = []

    def recording(a_tilde, p, n):
        seen.append(np.array(a_tilde))
        return allocate_samples(a_tilde, p, n)

    with monkeypatch.context() as mp:
        mp.setattr(estimators, "allocate_samples", recording)
        tape = open_adaptive(f, budget=6 * m * n)
        report = adaptive_mean_a3(tape, n, m, rng)
    assert report.cards == tape.card()
    return report, seen[0]


class TestA3Blocks:
    """a3 across several blocks: PLAN_BLOCK 7 and 64 instead of 2^15."""

    @pytest.fixture(autouse=True, params=[7, 64])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(oracle, "PLAN_BLOCK", request.param)
        return request.param

    # (N1, N2, n, m): several row blocks and several sample blocks; N1 = 1;
    # m = 1; and k = m * ceil(n/N1) above either block size, one row a block.
    SHAPES = [(9, 11, 40, 4), (13, 7, 200, 3), (1, 9, 50, 1), (1, 5, 300, 2),
              (10, 6, 30, 1), (10, 6, 300, 1), (3, 17, 60, 5), (20, 30, 500, 5)]

    @staticmethod
    def instances(n1, n2, seed):
        """Integer dense; non-integer dense, of standard normal entries and
        with row magnitudes 2^-400 to 2^400; row-sparse mu1 and mu4 samples
        at p = 1 and p = 1.5; and dense matrices of all -0.0 and of zeros
        but one integer row, whose zero blocks give +0.0 row sizes."""
        g = np.random.default_rng(seed)
        integer = g.integers(-9, 10, size=(n1, n2)).astype(float)
        scales = np.ldexp(1.0, g.integers(-400, 401, size=(n1, 1)))
        spec = ProblemSpec(n1, n2, 1.5, 3.0)
        yield True, MixedMatrix(ProblemSpec(n1, n2, 1.0, INF), integer)
        yield False, MixedMatrix(spec, g.normal(size=(n1, n2)))
        yield False, MixedMatrix(spec, g.normal(size=(n1, n2)) * scales)
        for p in (1.0, 1.5):
            spec = ProblemSpec(n1, n2, p, INF)
            for variant in (Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI):
                f = HardFamily(variant, spec).sample(RngStream(seed, (0,)))
                yield bool(np.all(f.block == np.round(f.block))), f
        spec = ProblemSpec(n1, n2, 1.0, INF)
        yield True, MixedMatrix(spec, np.full((n1, n2), -0.0))
        one_row = np.zeros((n1, n2))
        one_row[g.integers(0, n1)] = integer[0]
        yield True, MixedMatrix(spec, one_row)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_whole_grid(self, monkeypatch, block, shape, seed):
        n1, n2, n, m = shape
        for integer, f in self.instances(n1, n2, seed):
            rng = RngStream(seed, (1,))
            got, a_tilde = a3_row_sizes(monkeypatch, f, n, m, rng)
            want = whole_grid_a3(open_adaptive(f, budget=6 * m * n), n, m, rng)
            if want.normal:
                assert a_tilde.tobytes() == want.a_tilde.tobytes()
            assert got.allocation.tolist() == want.allocation.tolist()
            assert got.cards == want.cards and got.stage_cards == want.stage_cards
            starts = want.ends - want.allocation
            if integer or np.array_equal(starts // block, (want.ends - 1) // block):
                # Exact row sums, or every row summed in one block as before.
                assert got.value == want.value
            else:
                # Per row, the two sums of its a_i answers differ by at most
                # (a_i - 1) * eps * sum|x|, and each row mean by at most
                # (a_i + 1) * eps * mean|x| after its division; the outer
                # sum of the N1 means, taken in one order from two inputs,
                # adds at most (N1 - 1) * eps * sum_i mean_i|x|, and the
                # division by N1 half an ulp.
                mean_abs = np.add.reduceat(np.abs(want.vals2), starts) / want.allocation
                eps = np.finfo(float).eps
                bound = eps * ((want.allocation + n1) * mean_abs).sum() / n1
                assert abs(got.value - want.value) <= bound + eps * abs(want.value)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_stage2_block_equals_several(self, monkeypatch, block, seed):
        # mu4 at p = 1 has integer entries, so every cut of stage 2 sums each
        # row exactly; at the default PLAN_BLOCK the 500-odd samples are one
        # block, drawn and asked at once.
        n1, n2, n, m = 20, 30, 500, 5
        mu4 = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(n1, n2, 1.0, INF))
        f = mu4.sample(RngStream(seed, (0,)))
        assert np.array_equal(f.block, np.round(f.block))
        rng = RngStream(seed, (1,))
        several = adaptive_mean_a3(open_adaptive(f, budget=6 * m * n), n, m, rng)
        assert several.stage_cards[1] > block
        monkeypatch.setattr(oracle, "PLAN_BLOCK", 2**15)
        one = adaptive_mean_a3(open_adaptive(f, budget=6 * m * n), n, m, rng)
        assert one.value.hex() == several.value.hex()
        assert one.allocation.tolist() == several.allocation.tolist()
        assert one.stage_cards == several.stage_cards

    def test_scale_is_taken_per_block(self, monkeypatch, block):
        # Row 1 is 2^-600 throughout and row 0 is zero but for 2^600 in the
        # first probe column, so the grid spans 2^1200. Scaled by 2^601, the
        # whole grid's largest answer, row 1's squares fall below 2^-1022 and
        # vanish; scaled per block, with one row a block, they are exact.
        n1, n2, n, m = 2, 50, 2, 5  # one sample per probe, k = 5
        rng = RngStream(4, (1,))
        cols = rng.child(1).generator().integers(0, n2, size=n // n1 * m)
        assert cols[0] not in cols[1:]
        entries = np.zeros((n1, n2))
        entries[0, cols[0]] = 2.0**600
        entries[1] = 2.0**-600
        f = MixedMatrix(ProblemSpec(n1, n2, 1.0, INF), entries)
        # The exact row sizes: the median of each row's m root-mean-square
        # probes, taken exactly (m is odd, so the median is one probe).
        exact = []
        for row in entries:
            squares = sorted(
                sum(Fraction(row[c]) ** 2 for c in probe) / (n // n1)
                for probe in cols.reshape(n // n1, m).T
            )
            middle = squares[m // 2]
            top, bottom = middle.numerator, middle.denominator
            root = Fraction(math.isqrt(top), math.isqrt(bottom))
            assert root * root == middle  # a power of two here
            exact.append(float(root))
        assert exact == [0.0, 2.0**-600]
        got, a_tilde = a3_row_sizes(monkeypatch, f, n, m, rng)
        whole = whole_grid_a3(open_adaptive(f, budget=6 * m * n), n, m, rng)
        assert whole.a_tilde.tolist() == [0.0, 0.0]
        assert whole.allocation.tolist() == [1, 1]
        if block < 2 * len(cols):  # one row a block: exact
            assert a_tilde.tolist() == exact
            assert got.allocation.tolist() == [1, 2]
        else:  # both rows in one block, scaled as the whole grid
            assert a_tilde.tolist() == whole.a_tilde.tolist()
            assert got.allocation.tolist() == whole.allocation.tolist()


class TestA3Memory:
    """a3 holds one block of answers, not its whole stage-1 grid."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: HardFamily(
                Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(5120, 5120, 1.0, INF)
            ).sample(RngStream(1)),
            lambda: MixedMatrix(
                ProblemSpec(1024, 1024, 1.5, 3.0),
                np.random.default_rng(1).normal(size=(1024, 1024)),
            ),
        ],
        ids=["mu4-5120", "dense-1024"],
    )
    def test_peak_at_2_to_the_20(self, make):
        f = make()
        tracemalloc.start()
        try:
            report = run_a3(f, 2**20, None, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.stage_cards[0] >= 2**20
        # A few blocks of float64 answers and int64 indices; the whole
        # stage-1 grid alone takes over 100 MB here.
        assert peak < 8e6


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(1, 24),
    n2=st.integers(1, 24),
    extra=st.integers(0, 64),
    seed=st.integers(0, 2**32),
    power=st.sampled_from([600, -600]),
)
def test_a3_is_homogeneous(n1, n2, extra, seed, power):
    # Scaling by a power of two is exact, so the stage-1 squares of the
    # scaled instance must neither overflow nor underflow into a different
    # allocation: the estimate scales by exactly the same factor.
    spec = ProblemSpec(n1, n2, 1.0, INF)
    f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(seed, (0,)))
    scaled = MixedMatrix(spec, np.ldexp(f.entries, power))
    n = n1 + extra
    m = default_probe_count(n1)
    base, big = [
        adaptive_mean_a3(open_adaptive(h, budget=6 * m * n), n, m, RngStream(seed, (1,)))
        for h in (f, scaled)
    ]
    assert big.value == math.ldexp(base.value, power)
    assert big.cards == base.cards and big.stage_cards == base.stage_cards
    assert big.allocation.tolist() == base.allocation.tolist()


@settings(max_examples=80, deadline=None)
@given(
    n1=st.integers(1, 9),
    n2=st.integers(1, 9),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32),
    sparse=st.booleans(),
)
def test_a2_is_invariant_under_permutations(n1, n2, n, seed, sparse):
    # permuted[i, j] = entries[row_perm[i], col_perm[j]]; the plan is mapped
    # through the inverse permutations, so both runs read the same values in
    # the same order.
    g = np.random.default_rng(seed)
    spec = ProblemSpec(n1, n2, 1.0, INF)
    row_perm = g.permutation(n1)
    col_perm = g.permutation(n2)
    inv_rows = np.argsort(row_perm)
    inv_cols = np.argsort(col_perm)
    if sparse:
        ids = g.choice(n1, size=g.integers(0, n1 + 1), replace=False)
        block = g.normal(size=(ids.size, n2))
        f = MixedMatrix.from_rows(spec, ids, block)
        permuted = MixedMatrix.from_rows(spec, inv_rows[ids], block[:, col_perm])
    else:
        entries = g.normal(size=(n1, n2))
        f = MixedMatrix(spec, entries)
        permuted = MixedMatrix(spec, entries[row_perm][:, col_perm])
    assert np.array_equal(permuted.entries, f.entries[row_perm][:, col_perm])
    rng = RngStream(seed)
    plan = draw_pairs(spec, n, rng)
    mapped = np.column_stack([inv_rows[plan[:, 0]], inv_cols[plan[:, 1]]])
    tape = open_nonadaptive(f, pairs_plan(spec, plan))
    tape_permuted = open_nonadaptive(permuted, pairs_plan(spec, mapped))
    report = mc_mean_a2(tape)
    report_permuted = mc_mean_a2(tape_permuted)
    assert report_permuted.value == report.value
    assert report_permuted.cards == report.cards == n
    assert tape_permuted.card() == tape.card() == n


def test_adaptive_beats_nonadaptive_at_equal_budget():
    # Active-row instances at n = 2^12: the adaptive estimator at budget n
    # against plain Monte Carlo granted the adaptive run's realized cost.
    n = 2**12
    side = 64
    spec = ProblemSpec(side, side, 1.0, INF)
    m = default_probe_count(side)
    sq3 = []
    sq2 = []
    for t in range(120):
        stream = RngStream(21, (t,))
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(stream.child(0))
        truth = scalar_mean(f)
        rep3 = adaptive_mean_a3(
            open_adaptive(f, budget=6 * m * n), n, m, stream.child(1)
        )
        rep2 = run_a2(f, rep3.cards, stream.child(2))
        sq3.append((rep3.value - truth) ** 2)
        sq2.append((rep2.value - truth) ** 2)
    assert math.sqrt(np.mean(sq3)) < math.sqrt(np.mean(sq2))


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from([Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI]),
    n1=st.integers(1, 16),
    n2=st.integers(1, 16),
    extra=st.integers(0, 80),
    p=st.sampled_from([1.0, 1.5]),
    seed=st.integers(0, 2**32),
)
def test_negated_samples_negate_both_estimates(variant, n1, n2, extra, p, seed):
    # Negating every entry keeps positions and the stage-1 magnitudes, so the
    # same streams spend the same queries and return the negated estimate.
    family = HardFamily(variant, ProblemSpec(n1, n2, p, INF))
    f = family.sample(RngStream(seed, (0,)))
    g = MixedMatrix.from_rows(f.spec, f.row_ids, -f.block)
    n = n1 + extra
    m = default_probe_count(n1)
    a3 = [
        adaptive_mean_a3(open_adaptive(h, budget=6 * m * n), n, m, RngStream(seed, (1,)))
        for h in (f, g)
    ]
    assert a3[1].value == -a3[0].value
    assert a3[1].cards == a3[0].cards and a3[1].stage_cards == a3[0].stage_cards
    assert a3[1].allocation.tolist() == a3[0].allocation.tolist()
    a2 = []
    for h in (f, g):
        rng = RngStream(seed, (2,))
        a2.append(run_a2(h, n, rng))
    assert a2[1].value == -a2[0].value and a2[1].cards == a2[0].cards == n


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    n1=st.integers(1, 40),
    n2=st.integers(1, 40),
    extra=st.integers(0, 400),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_a3_cost_within_6mn(variant, n1, n2, extra, m, seed):
    spec = ProblemSpec(n1, n2, 1.5, INF)
    f = HardFamily(variant, spec).sample(RngStream(seed, (0,)))
    n = n1 + extra
    tape = open_adaptive(f, budget=6 * m * n)
    report = adaptive_mean_a3(tape, n, m, RngStream(seed, (1,)))
    assert report.cards == tape.card() <= 6 * m * n

import math

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
    draw_indices,
    mc_mean_a2,
    median,
    norm_est_a1,
)
from adaptgap.hard_instances import HardFamily, Variant, sample_mu4
from adaptgap.oracle import open_adaptive, open_nonadaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec, scalar_mean


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


class TestNormEstA1:
    def test_constant_population_exact(self):
        pop = np.full(10, 3.0)
        for seed in range(5):
            est = norm_est_a1(lambda i: pop[i - 1], 10, 2.0, 7, RngStream(seed))
            assert est == 3.0

    def test_single_draw_hits_spike(self):
        pop = np.array([2.0, 0.0, 0.0, 0.0])
        seed = next(
            s
            for s in range(100)
            if RngStream(s).generator().integers(1, 5, size=1)[0] == 1
        )
        est = norm_est_a1(lambda i: pop[i - 1], 4, 2.0, 1, RngStream(seed))
        assert est == 2.0

    def test_infinite_v_rejected(self):
        with pytest.raises(InvalidExponent):
            norm_est_a1(lambda i: i, 4, INF, 2, RngStream(0))

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
                    norm_est_a1(lambda i_: pop[i_ - 1], 4, 2.0, n, RngStream(11, (i, t)))
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
        tape = open_adaptive(f)
        report = mc_mean_a2(tape, 12, RngStream(4))
        assert report.value == 2.5
        assert report.cards == 12
        assert tape.card() == 12

    def test_exact_budget_never_exceeds(self):
        f = constant_matrix(1.0, 3, 5)
        for seed in range(10):
            rng = RngStream(seed)
            tape = open_nonadaptive(f, draw_indices(f.spec, 20, rng))
            report = mc_mean_a2(tape, 20, rng)
            assert report.cards == tape.card() == 20

    def test_reproducible(self):
        spec = ProblemSpec(6, 6, 1.0, INF)
        f = sample_mu4(spec, RngStream(3))
        r1 = mc_mean_a2(open_adaptive(f), 50, RngStream(9))
        r2 = mc_mean_a2(open_adaptive(f), 50, RngStream(9))
        assert r1.value == r2.value and r1.cards == r2.cards

    def test_unbiased_quick(self):
        rng = np.random.default_rng(12)
        f = MixedMatrix(ProblemSpec(8, 8, 2.0, 2.0), rng.normal(size=(8, 8)))
        truth = scalar_mean(f)
        trials = 3000
        values = np.array(
            [
                mc_mean_a2(open_adaptive(f), 32, RngStream(5, (t,))).value
                for t in range(trials)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - truth) <= 3.0 * se


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
        plan = draw_indices(f.spec, n, rng)
        tape = open_nonadaptive(f, plan)
        report = mc_mean_a2(tape, n, rng)
        reference = entries[plan[:, 0] - 1, plan[:, 1] - 1].mean()
        assert report.value == float(reference)
        assert report.cards == tape.card() == n
        # The same stream on an ADAPTIVE tape draws and answers the same plan.
        assert mc_mean_a2(open_adaptive(f), n, rng).value == report.value

    def test_plan_is_kept_without_a_copy(self):
        f = constant_matrix(1.0, 3, 5)
        plan = draw_indices(f.spec, 40, RngStream(2))
        assert plan.shape == (40, 2)
        assert plan[:, 0].flags.c_contiguous and plan[:, 1].flags.c_contiguous
        rows, cols = open_nonadaptive(f, plan).declared
        assert np.shares_memory(rows, plan) and np.shares_memory(cols, plan)
        assert not rows.flags.writeable and not cols.flags.writeable

    @pytest.mark.parametrize("length", [19, 21])
    def test_plan_of_the_wrong_length(self, length):
        f = constant_matrix(1.0, 3, 5)
        tape = open_nonadaptive(f, draw_indices(f.spec, length, RngStream(1)))
        with pytest.raises(PreconditionViolated):
            mc_mean_a2(tape, 20, RngStream(1))
        assert tape.card() == 0


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
        # Heavy rows receive at most their proportional share plus one.
        powers = np.asarray(a) ** p
        total = powers.sum()
        if total > 0:
            heavy = powers > total / n1
            assert (
                counts[heavy] <= np.ceil(powers[heavy] * n / total) + 0
            ).all()


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
        tape = open_adaptive(f)
        report = adaptive_mean_a3(tape, 8, 3, 1.0, RngStream(2))
        assert report.value == -1.25
        assert report.cards == tape.card()
        assert sum(report.allocation) == report.stage_cards[1]

    def test_active_row_allocation(self):
        # With a single nonzero row the probe medians vanish elsewhere, so
        # the active row gets the whole budget n and others get the floor.
        spec = ProblemSpec(8, 8, 1.0, INF)
        n = 64
        for seed in range(6):
            f = sample_mu4(spec, RngStream(seed))
            active = int(np.flatnonzero(np.abs(f.entries).sum(axis=1))[0])
            tape = open_adaptive(f)
            report = adaptive_mean_a3(tape, n, 3, 1.0, RngStream(seed + 100))
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
            f = sample_mu4(spec, RngStream(int(g.integers(0, 1 << 32))))
            tape = open_adaptive(f, budget=6 * m * n)
            report = adaptive_mean_a3(tape, n, m, 1.0, RngStream(7, (n1, n)))
            assert report.cards <= 6 * m * n
            assert report.cards == tape.card()

    def test_reproducible_bitwise(self):
        spec = ProblemSpec(5, 9, 1.5, INF)
        f = sample_mu4(spec, RngStream(1))
        reports = [
            adaptive_mean_a3(open_adaptive(f), 25, 4, 1.5, RngStream(77))
            for _ in range(2)
        ]
        assert reports[0].value == reports[1].value
        assert reports[0].cards == reports[1].cards
        assert np.array_equal(reports[0].allocation, reports[1].allocation)

    def test_preconditions(self):
        f = constant_matrix(1.0, 8, 8)
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(f), 4, 2, 1.0, RngStream(0))
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(f), 16, 2, 2.0, RngStream(0))
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(open_adaptive(f), 16, 0, 1.0, RngStream(0))
        tape = open_nonadaptive(f, [(1, 1)])
        with pytest.raises(PreconditionViolated):
            adaptive_mean_a3(tape, 16, 2, 1.0, RngStream(0))

    def test_budget_exceeded_propagates(self):
        f = constant_matrix(1.0, 2, 2)
        tape = open_adaptive(f, budget=5)
        with pytest.raises(BudgetExceeded):
            adaptive_mean_a3(tape, 4, 2, 1.0, RngStream(0))

    def test_default_probe_count(self):
        assert default_probe_count(1) == 1
        assert default_probe_count(64) == 7
        assert default_probe_count(256) == 9


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
    f = sample_mu4(spec, RngStream(seed, (0,)))
    scaled = MixedMatrix(spec, np.ldexp(f.entries, power))
    n = n1 + extra
    m = default_probe_count(n1)
    base = adaptive_mean_a3(open_adaptive(f), n, m, 1.0, RngStream(seed, (1,)))
    big = adaptive_mean_a3(open_adaptive(scaled), n, m, 1.0, RngStream(seed, (1,)))
    assert big.value == math.ldexp(base.value, power)
    assert big.cards == base.cards and big.stage_cards == base.stage_cards
    assert big.allocation.tolist() == base.allocation.tolist()


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
        f = sample_mu4(spec, stream.child(0))
        truth = scalar_mean(f)
        rep3 = adaptive_mean_a3(
            open_adaptive(f, budget=6 * m * n), n, m, 1.0, stream.child(1)
        )
        rng2 = stream.child(2)
        tape2 = open_nonadaptive(f, draw_indices(spec, rep3.cards, rng2))
        rep2 = mc_mean_a2(tape2, rep3.cards, rng2)
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
def test_antithetic_samples_negate_both_estimates(variant, n1, n2, extra, p, seed):
    # Flipping every sign keeps positions and the stage-1 magnitudes, so the
    # same streams spend the same queries and return the negated estimate.
    family = HardFamily(variant, ProblemSpec(n1, n2, p, INF))
    f = family.sample(RngStream(seed, (0,)))
    g = family.sample(RngStream(seed, (0,)), antithetic=True)
    n = n1 + extra
    m = default_probe_count(n1)
    a3 = [
        adaptive_mean_a3(open_adaptive(h), n, m, p, RngStream(seed, (1,)))
        for h in (f, g)
    ]
    assert a3[1].value == -a3[0].value
    assert a3[1].cards == a3[0].cards and a3[1].stage_cards == a3[0].stage_cards
    assert a3[1].allocation.tolist() == a3[0].allocation.tolist()
    a2 = []
    for h in (f, g):
        rng = RngStream(seed, (2,))
        a2.append(mc_mean_a2(open_nonadaptive(h, draw_indices(h.spec, n, rng)), n, rng))
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
    report = adaptive_mean_a3(tape, n, m, 1.5, RngStream(seed, (1,)))
    assert report.cards == tape.card() <= 6 * m * n

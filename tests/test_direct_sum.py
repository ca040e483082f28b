import math

import numpy as np
import pytest

from adaptgap.direct_sum import (
    DirectSumElement,
    DirectSumSpec,
    MAX_LEVEL,
    ds_estimate,
    ds_integral,
    level_allocation,
    level_size,
)
from adaptgap.errors import InvalidParameters, PreconditionViolated
from adaptgap.harness import sample_ds_input
from adaptgap.oracle import Mode
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec


def ds_spec(alpha=1.5, p=1.0, u=INF, k_max=6):
    return DirectSumSpec(alpha, p, u, k_max)


def constant_level(spec, k, c):
    side = level_size(k)
    return (k, MixedMatrix(spec.level_spec(k), np.full((side, side), float(c))))


class TestSpecValidation:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(InvalidParameters):
            ds_spec(alpha=1.0)

    def test_k_max_cap(self):
        with pytest.raises(InvalidParameters):
            ds_spec(k_max=13)

    @pytest.mark.parametrize("k_max", [math.nan, math.inf, 2.5])
    def test_k_max_must_be_an_integer_level(self, k_max):
        with pytest.raises(InvalidParameters) as info:
            ds_spec(k_max=k_max)
        assert str(info.value) == f"k_max must be an integer in [0, 12], got {k_max}"

    def test_level_shape_checked(self):
        spec = ds_spec()
        wrong = MixedMatrix(ProblemSpec(2, 2, spec.p, spec.u), np.zeros((2, 2)))
        with pytest.raises(InvalidParameters):
            DirectSumElement(spec, [(2, wrong)])

    def test_duplicate_level_rejected(self):
        spec = ds_spec()
        with pytest.raises(InvalidParameters):
            DirectSumElement(
                spec, [constant_level(spec, 1, 1.0), constant_level(spec, 1, 2.0)]
            )


class TestDsIntegral:
    def test_level_zero_unit(self):
        spec = ds_spec(alpha=2.0)
        x = DirectSumElement(spec, [constant_level(spec, 0, 1.0)])
        assert ds_integral(x) == 1.0

    def test_weighted_level_two(self):
        spec = ds_spec(alpha=2.0)
        x = DirectSumElement(spec, [constant_level(spec, 2, 1.0)])
        assert ds_integral(x) == pytest.approx(0.0625)

    def test_empty(self):
        assert ds_integral(DirectSumElement(ds_spec(), [])) == 0.0

    def test_linearity(self):
        spec = ds_spec(alpha=1.25, k_max=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            levels_x = []
            levels_y = []
            levels_sum = []
            for k in range(5):
                side = level_size(k)
                a = rng.normal(size=(side, side))
                b = rng.normal(size=(side, side))
                levels_x.append((k, MixedMatrix(spec.level_spec(k), a)))
                levels_y.append((k, MixedMatrix(spec.level_spec(k), b)))
                levels_sum.append((k, MixedMatrix(spec.level_spec(k), a + b)))
            x = DirectSumElement(spec, levels_x)
            y = DirectSumElement(spec, levels_y)
            s = DirectSumElement(spec, levels_sum)
            assert ds_integral(s) == pytest.approx(
                ds_integral(x) + ds_integral(y), rel=1e-12, abs=1e-12
            )


class TestLevelAllocation:
    def test_hand_example(self):
        # k0 = 3, alpha = 2 (so k1 = 4), delta = 0.5, c0 = 0.5:
        # full readout 1, 4, 16 below k0, then ceil(0.5 * 2^6) - 1 = 31 and
        # ceil(0.5 * 2^5.5) - 1 = 22.
        alloc = level_allocation(3, 2.0, 0.5, 0.5)
        assert alloc.levels == ((0, 1), (1, 4), (2, 16), (3, 31), (4, 22))
        assert alloc.k1 == 4
        assert alloc.total == 74

    def test_full_readout_below_k0(self):
        alloc = level_allocation(5, 1.5, 0.2, 0.5)
        for k, n_k in alloc.levels:
            if k < 5:
                assert n_k == 4**k

    def test_delta_boundary_rejected(self):
        with pytest.raises(InvalidParameters):
            level_allocation(3, 2.0, 1.0, 0.5)
        with pytest.raises(InvalidParameters):
            level_allocation(3, 2.0, 0.0, 0.5)

    def test_c0_range(self):
        with pytest.raises(InvalidParameters):
            level_allocation(3, 2.0, 0.5, 1.0)

    @pytest.mark.parametrize("k0", [2.5, math.nan, math.inf])
    def test_k0_must_be_a_positive_integer(self, k0):
        with pytest.raises(InvalidParameters, match="k0 must be a positive integer"):
            level_allocation(k0, 1.5, 0.2, 0.5)

    @pytest.mark.parametrize("k0", [0, MAX_LEVEL + 1, 600])
    def test_k0_outside_the_levels_is_refused(self, k0):
        # From k0 = 512 on, 2^(2*k0) overflows a float; the bound refuses
        # such a k0 before any level is built.
        want = f"k0 must be a positive integer at most {MAX_LEVEL}, got {k0}"
        with pytest.raises(InvalidParameters) as info:
            level_allocation(k0, 1.5, 0.2, 0.5)
        assert str(info.value) == want
        assert level_allocation(MAX_LEVEL, 1.5, 0.2, 0.5).k1 == 20

    def test_budget_bound_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = float(rng.uniform(1.05, 3.0))
            delta = float(rng.uniform(1e-3, alpha - 1.0 - 1e-6))
            c0 = float(rng.uniform(0.05, 0.95))
            k0 = int(rng.integers(1, 8))
            alloc = level_allocation(k0, alpha, delta, c0)
            assert alloc.total <= alloc.budget_constant * 4**k0
            assert alloc.k1 == math.floor((alpha + 1.0) / alpha * k0)


class TestDsEstimate:
    def test_support_below_k0_is_exact(self):
        spec = ds_spec(alpha=2.0, k_max=4)
        rng = np.random.default_rng(9)
        levels = [
            (k, MixedMatrix(spec.level_spec(k),
                            rng.normal(size=(level_size(k), level_size(k)))))
            for k in range(3)
        ]
        x = DirectSumElement(spec, levels)
        schedule = level_allocation(4, 2.0, 0.3, 0.5)
        for mode in (Mode.ADAPTIVE, Mode.NONADAPTIVE):
            rep = ds_estimate(x, schedule, mode, 2, RngStream(3))
            assert rep.value == pytest.approx(ds_integral(x), abs=1e-15)
            assert rep.cards == sum(4**k for k in range(3))

    def test_zero_element(self):
        spec = ds_spec(k_max=6)
        x = DirectSumElement(spec, [])
        schedule = level_allocation(4, 1.5, 0.2, 0.5)
        for mode in (Mode.ADAPTIVE, Mode.NONADAPTIVE):
            rep = ds_estimate(x, schedule, mode, 2, RngStream(1))
            assert rep.value == 0.0
            assert rep.cards == 0

    def test_truncation_consistency(self):
        # The same level matrices produce bitwise-identical estimates no
        # matter how far the container's truncation extends.
        small = ds_spec(alpha=1.5, k_max=6)
        large = ds_spec(alpha=1.5, k_max=9)
        base = sample_ds_input(small, RngStream(44))
        carried = DirectSumElement(large, list(base.items()))
        schedule = level_allocation(4, 1.5, 0.2, 0.5)
        for mode in (Mode.ADAPTIVE, Mode.NONADAPTIVE):
            r1 = ds_estimate(base, schedule, mode, None, RngStream(7))
            r2 = ds_estimate(carried, schedule, mode, None, RngStream(7))
            assert r1.value == r2.value
            assert r1.cards == r2.cards

    def test_levels_above_k1_dropped(self):
        spec = ds_spec(alpha=2.0, k_max=6)
        # k0 = 2, alpha = 2 gives k1 = 3; a level-5 component is never read.
        x = DirectSumElement(spec, [constant_level(spec, 5, 1.0)])
        schedule = level_allocation(2, 2.0, 0.5, 0.5)
        rep = ds_estimate(x, schedule, Mode.NONADAPTIVE, None, RngStream(2))
        assert rep.value == 0.0
        assert rep.cards == 0

    def test_adaptive_needs_p_below_2_below_u(self):
        spec = ds_spec(p=2.0, u=INF, k_max=4)
        x = DirectSumElement(spec, [])
        with pytest.raises(PreconditionViolated):
            ds_estimate(x, level_allocation(2, 1.5, 0.2, 0.5), Mode.ADAPTIVE, None,
                        RngStream(0))

    def test_adaptive_budget_floor_enforced(self):
        # alpha = 1.1, k0 = 4, delta = 0.09: the top scheduled level gets a
        # budget below its side length, so the adaptive mode must refuse.
        spec = ds_spec(alpha=1.1, k_max=8)
        x = sample_ds_input(spec, RngStream(5))
        schedule = level_allocation(4, 1.1, 0.09, 0.5)
        with pytest.raises(PreconditionViolated):
            ds_estimate(x, schedule, Mode.ADAPTIVE, None, RngStream(1))
        rep = ds_estimate(x, schedule, Mode.NONADAPTIVE, None, RngStream(1))
        assert rep.cards > 0

    def test_budget_accounting(self):
        spec = ds_spec(alpha=1.5, k_max=6)
        x = sample_ds_input(spec, RngStream(10))
        k0, delta, c0 = 4, 0.2, 0.5
        alloc = level_allocation(k0, spec.alpha, delta, c0)
        bound = alloc.budget_constant * 4**k0
        rep_non = ds_estimate(x, alloc, Mode.NONADAPTIVE, None, RngStream(2))
        assert rep_non.cards <= bound
        m = 3
        rep_ad = ds_estimate(x, alloc, Mode.ADAPTIVE, m, RngStream(2))
        assert rep_ad.cards <= 6 * m * bound

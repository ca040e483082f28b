import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import InvalidExponent
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.rng import RngStream
from adaptgap.spaces import (
    INF,
    MixedMatrix,
    ProblemSpec,
    RowChunk,
    inverse_power,
    mixed_norm,
    scalar_mean,
)

GRID = [1.0, 1.5, 2.0, 4.0, INF]


class TestSingleSpike:
    def test_unit_norm_all_draws(self):
        for p, u in itertools.product(GRID, GRID):
            spec = ProblemSpec(5, 7, p, u)
            for seed in range(10):
                f = HardFamily(Variant.SINGLE_SPIKE, spec).sample(RngStream(seed))
                assert mixed_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_mean_magnitude(self):
        spec = ProblemSpec(4, 8, 1.5, 4.0)
        expected = (
            inverse_power(4, 1.5) * inverse_power(8, 4.0) / (4 * 8)
        )
        for seed in range(10):
            f = HardFamily(Variant.SINGLE_SPIKE, spec).sample(RngStream(seed))
            assert abs(scalar_mean(f)) == pytest.approx(expected, rel=1e-12)

    def test_inf_exponents_give_unit_spike(self):
        spec = ProblemSpec(3, 3, INF, INF)
        f = HardFamily(Variant.SINGLE_SPIKE, spec).sample(RngStream(0))
        nonzero = f.entries[f.entries != 0.0]
        assert nonzero.shape == (1,)
        assert abs(nonzero[0]) == 1.0
        assert abs(scalar_mean(f)) == pytest.approx(1.0 / 9.0)


class TestFullBernoulli:
    def test_unit_norm(self):
        for p, u in itertools.product(GRID, GRID):
            spec = ProblemSpec(3, 6, p, u)
            f = HardFamily(Variant.FULL_BERNOULLI, spec).sample(RngStream(42))
            assert mixed_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_mean(self):
        spec = ProblemSpec(64, 64, 2.0, 2.0)
        trials = 10_000
        fam = HardFamily(Variant.FULL_BERNOULLI, spec)
        means = np.array(
            [scalar_mean(fam.sample(RngStream(1, (t,)))) for t in range(trials)]
        )
        se = means.std(ddof=1) / math.sqrt(trials)
        assert abs(means.mean()) <= 3.0 * se
        rms = math.sqrt((means**2).mean())
        assert rms == pytest.approx(1.0 / 64.0, rel=0.10)


class TestRowSpikes:
    def test_unit_norm(self):
        for p, u in itertools.product(GRID, GRID):
            spec = ProblemSpec(6, 5, p, u)
            f = HardFamily(Variant.ROW_SPIKES, spec).sample(RngStream(3))
            assert mixed_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_mean_formula(self):
        spec = ProblemSpec(6, 5, 2.0, 3.0)
        f = HardFamily(Variant.ROW_SPIKES, spec).sample(RngStream(8))
        signs = f.entries.sum(axis=1) / inverse_power(5, 3.0)
        expected = inverse_power(5, 3.0) / 5 * signs.mean()
        assert scalar_mean(f) == pytest.approx(expected, rel=1e-12)

    def test_single_row_degenerates_to_spike(self):
        spec = ProblemSpec(1, 9, 1.0, 2.0)
        f = HardFamily(Variant.ROW_SPIKES, spec).sample(RngStream(5))
        assert np.count_nonzero(f.entries) == 1


class TestActiveRowBernoulli:
    def test_unit_norm(self):
        for p, u in itertools.product([1.0, 1.5, 2.0, 4.0], GRID):
            spec = ProblemSpec(4, 6, p, u)
            f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(9))
            assert mixed_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_structure(self):
        spec = ProblemSpec(5, 8, 1.0, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(17))
        nonzero_rows = np.flatnonzero(np.abs(f.entries).sum(axis=1))
        assert nonzero_rows.shape == (1,)
        assert np.count_nonzero(f.entries) == 8
        assert set(np.abs(f.entries[nonzero_rows[0]])) == {5.0}

    def test_mean_formula(self):
        spec = ProblemSpec(5, 8, 1.5, INF)
        f = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, spec).sample(RngStream(23))
        scale = inverse_power(5, 1.5)
        signs = f.entries[np.abs(f.entries).sum(axis=1) > 0] / scale
        expected = scale / (5 * 8) * signs.sum()
        assert scalar_mean(f) == pytest.approx(expected, rel=1e-12)

    def test_infinite_p_rejected(self):
        with pytest.raises(InvalidExponent):
            fam = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(2, 2, INF, 2.0))
            fam.sample(RngStream(0))


class TestSharedProperties:
    @pytest.mark.parametrize("variant", Variant, ids=lambda v: f"sample_{v.value}")
    def test_determinism(self, variant):
        fam = HardFamily(variant, ProblemSpec(4, 6, 1.5, 4.0))
        a = fam.sample(RngStream(31, (2,)))
        b = fam.sample(RngStream(31, (2,)))
        assert np.array_equal(a.entries, b.entries)

    def test_unit_ball_grid(self):
        for variant in Variant:
            for idx, (p, u) in enumerate(itertools.product(GRID, GRID)):
                if variant is Variant.ACTIVE_ROW_BERNOULLI and p == INF:
                    continue
                spec = ProblemSpec(3 + idx % 4, 2 + idx % 5, p, u)
                fam = HardFamily(variant, spec)
                for t in range(20):
                    f = fam.sample(RngStream(idx, (t,)))
                    assert mixed_norm(f) <= 1.0 + 1e-12


def dense_reference(variant, spec, rng):
    """The sample built as a dense array, the way every family once was:
    positions and signs from the same child streams, in the same order."""
    g_pos = rng.child(0).generator()
    g_sign = rng.child(1).generator()

    def signs(size):
        return (g_sign.integers(0, 2, size=size) * 2 - 1).astype(np.float64)

    n1, n2 = spec.n1, spec.n2
    entries = np.zeros((n1, n2))
    if variant is Variant.SINGLE_SPIKE:
        i = int(g_pos.integers(0, n1))
        j = int(g_pos.integers(0, n2))
        sign = float(signs(()))
        entries[i, j] = sign * inverse_power(n1, spec.p) * inverse_power(n2, spec.u)
    elif variant is Variant.FULL_BERNOULLI:
        entries = signs((n1, n2))
    elif variant is Variant.ROW_SPIKES:
        cols = g_pos.integers(0, n2, size=n1)
        entries[np.arange(n1), cols] = signs(n1) * inverse_power(n2, spec.u)
    else:
        active = int(g_pos.integers(0, n1))
        entries[active] = signs(n2) * inverse_power(n1, spec.p)
    return entries


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    n1=st.integers(1, 12),
    n2=st.integers(1, 12),
    p=st.sampled_from([1.0, 1.5, 2.0, INF]),
    u=st.sampled_from([1.0, 2.0, INF]),
    seed=st.integers(0, 2**32),
)
def test_samples_match_the_dense_reference(variant, n1, n2, p, u, seed):
    spec = ProblemSpec(n1, n2, p, u)
    rng = RngStream(seed, (3,))
    if variant is Variant.ACTIVE_ROW_BERNOULLI and p == INF:
        with pytest.raises(InvalidExponent):
            HardFamily(variant, spec).sample(rng)
        return
    f = HardFamily(variant, spec).sample(rng)
    reference = dense_reference(variant, spec, rng)
    assert np.array_equal(f.entries, reference)
    # Single spike and active row store their one nonzero row; the others
    # are dense.
    if variant in (Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI):
        nonzero = np.flatnonzero(reference.any(axis=1))
        assert f.row_ids == tuple(nonzero.tolist()) and len(f.row_ids) == 1
        assert np.array_equal(f.block, reference[nonzero])
    else:
        assert f.row_ids is None
        assert np.array_equal(f.block, reference)
    # The ground truth sums the stored rows only, in another order than the
    # dense sum: exact wherever the entries are integers, otherwise within 4
    # ulp of the mean absolute entry, the scale of the partial sums.
    truth = float(reference.mean())
    if np.array_equal(reference, np.round(reference)):
        assert scalar_mean(f) == truth
    else:
        ulp = np.spacing(np.abs(reference).mean())
        assert abs(scalar_mean(f) - truth) <= 4 * ulp


ONE_ROW = [Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI]


def chunk_reference(variant, spec, rng, trials):
    """A chunk built trial by trial from raw numpy draws: row ids from child
    0, spike columns from child 2 and signs from child 1, each drawn once
    for the whole chunk."""
    row_ids = rng.child(0).generator().integers(0, spec.n1, size=trials)
    scale = inverse_power(spec.n1, spec.p)
    if variant is Variant.SINGLE_SPIKE:
        cols = rng.child(2).generator().integers(0, spec.n2, size=trials)
        signs = rng.child(1).generator().integers(0, 2, size=trials) * 2 - 1
        rows = np.zeros((trials, spec.n2))
        for t in range(trials):
            rows[t, cols[t]] = signs[t] * scale * inverse_power(spec.n2, spec.u)
    else:
        signs = rng.child(1).generator().integers(0, 2, size=(trials, spec.n2))
        rows = (signs * 2 - 1) * scale
    return row_ids, rows


class TestSampleChunk:
    @settings(max_examples=100, deadline=None)
    @given(
        variant=st.sampled_from(ONE_ROW),
        n1=st.integers(1, 12),
        n2=st.integers(1, 12),
        p=st.sampled_from([1.0, 1.5, 2.0]),
        u=st.sampled_from([1.0, 2.0, INF]),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**32),
    )
    def test_chunk_matches_the_reference(self, variant, n1, n2, p, u, trials, seed):
        spec = ProblemSpec(n1, n2, p, u)
        rng = RngStream(seed, (5,))
        chunk = HardFamily(variant, spec).sample_chunk(rng, trials)
        assert isinstance(chunk, RowChunk) and chunk.spec == spec
        row_ids, rows = chunk.row_ids, chunk.block
        want_ids, want_rows = chunk_reference(variant, spec, rng, trials)
        assert row_ids.shape == (trials,) and rows.shape == (trials, n2)
        assert rows.dtype == np.float64
        assert row_ids.tolist() == want_ids.tolist()
        assert rows.tolist() == want_rows.tolist()
        # Every trial is a sample of the family: on the unit ball.
        for i, row in zip(row_ids, rows):
            f = MixedMatrix.from_rows(spec, [i], row[None, :])
            assert mixed_norm(f) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("variant", ONE_ROW)
    def test_first_trials_do_not_depend_on_the_count(self, variant):
        family = HardFamily(variant, ProblemSpec(9, 7, 1.0, INF))
        short = family.sample_chunk(RngStream(8, (1,)), 3)
        long = family.sample_chunk(RngStream(8, (1,)), 40)
        assert short.row_ids.tolist() == long.row_ids[:3].tolist()
        assert short.block.tolist() == long.block[:3].tolist()

    def test_only_one_row_families_draw_chunks(self):
        spec = ProblemSpec(4, 4, 1.0, INF)
        for variant, one_row in [(Variant.SINGLE_SPIKE, True),
                                 (Variant.FULL_BERNOULLI, False),
                                 (Variant.ROW_SPIKES, False),
                                 (Variant.ACTIVE_ROW_BERNOULLI, True)]:
            family = HardFamily(variant, spec)
            assert family.one_row is one_row
            if not one_row:
                with pytest.raises(ValueError, match="not a one-row family"):
                    family.sample_chunk(RngStream(1), 2)
        with pytest.raises(InvalidExponent):
            HardFamily(Variant.ACTIVE_ROW_BERNOULLI,
                       ProblemSpec(4, 4, INF, INF)).sample_chunk(RngStream(1), 2)

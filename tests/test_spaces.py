import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import InvalidExponent
from adaptgap.spaces import (
    INF,
    MixedMatrix,
    ProblemSpec,
    RowChunk,
    abbreviate,
    as_exponent,
    inverse_power,
    mixed_norm,
    mixed_norm_many,
    row_norm,
    scalar_mean,
)

EXPONENTS = [1.0, 1.5, 2.0, 4.0, INF]


def matrix(entries, p=2.0, u=2.0):
    arr = np.asarray(entries, dtype=float)
    return MixedMatrix(ProblemSpec(arr.shape[0], arr.shape[1], p, u), arr)


class TestExponents:
    def test_valid(self):
        assert as_exponent(1) == 1.0
        assert as_exponent(INF) == INF
        assert as_exponent("3.5" if False else 3.5) == 3.5

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan])
    def test_invalid(self, bad):
        with pytest.raises(InvalidExponent):
            as_exponent(bad)

    def test_inverse_power(self):
        assert inverse_power(16, 2.0) == 4.0
        assert inverse_power(16, INF) == 1.0


def test_sizes_from_2_64_are_abbreviated():
    assert abbreviate(2**64 - 1) == 2**64 - 1
    assert abbreviate(2**64) == "2^64 or more"
    assert abbreviate(3 * 2**500) == "2^501 or more"
    # A refused space with a side of 2^64 or more names its product that way
    # too; one with smaller sides names its product in full.
    with pytest.raises(ValueError, match=r"^N1\*N2 = 2\^64 or more\*2 = 2\^65 or more "):
        ProblemSpec(2**64, 2, 1.0, INF)
    with pytest.raises(ValueError, match=r"^N1\*N2 = 4\*4611686018427387904 = 18446744073709551616 "):
        ProblemSpec(4, 2**62, 1.0, INF)


class TestRowNorm:
    @pytest.mark.parametrize("u", EXPONENTS)
    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    def test_constant_row(self, u, c):
        assert row_norm([c] * 5, u) == pytest.approx(abs(c), rel=1e-12, abs=1e-15)

    def test_l2_spike(self):
        assert row_norm([2.0, 0.0, 0.0, 0.0], 2.0) == pytest.approx(1.0)

    def test_sup(self):
        assert row_norm([1.0, -3.0], INF) == 3.0

    @pytest.mark.parametrize(
        "row, u, want",
        [
            ([2.0, 0.0, 0.0, 0.0], 1e308, 2.0),  # 2^u overflows
            ([1e-200, 0.0], 2.0, 1e-200 * math.sqrt(0.5)),  # the squares underflow
            ([1.7e308, 1.7e308, -1.7e308], 1.0, 1.7e308),  # the sum overflows
        ],
    )
    def test_powers_out_of_range(self, row, u, want):
        assert row_norm(row, u) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            row_norm([], 2.0)


class TestMixedNorm:
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("u", EXPONENTS)
    def test_constant_matrix(self, p, u):
        f = matrix(np.full((3, 5), -1.75), p, u)
        assert mixed_norm(f) == pytest.approx(1.75, rel=1e-12)

    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("u", EXPONENTS)
    def test_unit_spike(self, p, u):
        # One entry of size N1^(1/p) * N2^(1/u) sits exactly on the sphere.
        n1, n2 = 4, 8
        entries = np.zeros((n1, n2))
        entries[1, 3] = inverse_power(n1, p) * inverse_power(n2, u)
        assert mixed_norm(matrix(entries, p, u)) == pytest.approx(1.0, rel=1e-12)

    def test_hand_example(self):
        f = matrix([[1.0, 2.0], [3.0, 4.0]], p=1.0, u=INF)
        assert mixed_norm(f) == pytest.approx(3.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(6, 3, 4))
        for p in EXPONENTS:
            for u in EXPONENTS:
                batch = mixed_norm_many(stack, p, u)
                single = [mixed_norm(matrix(s, p, u)) for s in stack]
                assert np.allclose(batch, single, rtol=1e-14)


class TestScalarMean:
    def test_constant(self):
        assert scalar_mean(matrix(np.full((3, 3), 2.5))) == pytest.approx(2.5)

    def test_spike(self):
        f = matrix([[2.0, 0.0], [0.0, 0.0]], p=1.0, u=INF)
        assert scalar_mean(f) == 0.5

    def test_ones(self):
        assert scalar_mean(matrix(np.ones((5, 7)))) == 1.0


class TestMatrixValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MixedMatrix(ProblemSpec(2, 2, 2.0, 2.0), np.zeros((2, 3)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            MixedMatrix(ProblemSpec(1, 2, 2.0, 2.0), np.array([[1.0, np.inf]]))

    def test_entries_frozen(self):
        f = matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            f.entries[0, 0] = 9.0

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ProblemSpec(0, 2, 2.0, 2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [
            np.full((2, 2), 1 + 5j),
            [[1 + 0j, 2.0], [0.0, 1.0]],  # a zero imaginary part too
            np.zeros((2, 2), np.complex64),
        ],
    )
    def test_complex_rejected(self, values):
        with pytest.raises(ValueError, match="real"):
            MixedMatrix(ProblemSpec(2, 2, 2.0, 2.0), values)

    def test_caller_array_stays_writable_and_detached(self):
        a = np.zeros((2, 2))
        f = MixedMatrix(ProblemSpec(2, 2, 2.0, 2.0), a)
        assert a.flags.writeable
        a[0, 0] = 5.0
        assert f.entries[0, 0] == 0.0
        assert not f.entries.flags.writeable


class TestRowSparse:
    SPEC = ProblemSpec(4, 3, 1.5, INF)

    def test_entries_are_zero_outside_the_rows(self):
        block = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -0.5]])
        f = MixedMatrix.from_rows(self.SPEC, [3, 1], block)
        expected = np.zeros((4, 3))
        expected[[3, 1]] = block
        assert f.row_ids == (3, 1)
        assert np.array_equal(f.entries, expected)
        assert scalar_mean(f) == expected.mean()
        assert mixed_norm(f) == mixed_norm(MixedMatrix(self.SPEC, expected))

    def test_entries_built_once_and_frozen(self):
        f = MixedMatrix.from_rows(self.SPEC, [0], [[1.0, 2.0, 3.0]])
        assert f.entries is f.entries
        with pytest.raises(ValueError):
            f.entries[0, 0] = 9.0
        with pytest.raises(ValueError):
            f.block[0, 0] = 9.0

    def test_block_is_copied(self):
        block = np.ones((1, 3))
        f = MixedMatrix.from_rows(self.SPEC, [2], block)
        block[0, 0] = 7.0
        assert block.flags.writeable
        assert f.block[0, 0] == 1.0

    def test_dense_matrix_stores_every_row(self):
        f = matrix([[1.0, 2.0]])
        assert f.row_ids is None
        assert f.block is f.entries

    @pytest.mark.parametrize("sparse", [True, False])
    def test_copies_stay_read_only(self, sparse):
        f = (
            MixedMatrix.from_rows(self.SPEC, [1], [[1.0, 2.0, 3.0]])
            if sparse
            else matrix([[1.0, 2.0]])
        )
        g = pickle.loads(pickle.dumps(f))
        assert g.row_ids == f.row_ids and g.spec == f.spec
        assert np.array_equal(g.entries, f.entries)
        assert not g.block.flags.writeable and not g.entries.flags.writeable

    def test_no_rows_is_the_zero_matrix(self):
        f = MixedMatrix.from_rows(self.SPEC, [], np.zeros((0, 3)))
        assert scalar_mean(f) == 0.0
        assert not f.entries.any()

    @pytest.mark.parametrize(
        "rows, block",
        [
            ([0, 0], np.ones((2, 3))),  # repeated row
            ([4], np.ones((1, 3))),  # past the last row
            ([-1], np.ones((1, 3))),
            ([0], np.ones((1, 2))),  # wrong row length
            ([0, 1], np.ones((1, 3))),  # one row short
            ([0], [[1.0, np.nan, 0.0]]),
            ([0], [[1.0, -np.inf, 0.0]]),
        ],
    )
    def test_rejects(self, rows, block):
        with pytest.raises(ValueError):
            MixedMatrix.from_rows(self.SPEC, rows, block)

    @pytest.mark.filterwarnings("error")
    def test_complex_block_rejected(self):
        with pytest.raises(ValueError, match="real"):
            MixedMatrix.from_rows(self.SPEC, [1], np.full((1, 3), 2 + 1j))


finite_exponents = st.sampled_from([1.0, 1.5, 2.0, 4.0, INF])
small_dims = st.tuples(st.integers(1, 6), st.integers(1, 6))
# Zeros are common and interesting; magnitudes below 1e-6 are rounded away
# so |x|**u cannot underflow to an artificial zero norm.
values = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-6 else v
)


@st.composite
def random_matrix(draw, p=None, u=None):
    n1, n2 = draw(small_dims)
    p = p if p is not None else draw(finite_exponents)
    u = u if u is not None else draw(finite_exponents)
    entries = draw(
        st.lists(
            st.lists(values, min_size=n2, max_size=n2),
            min_size=n1,
            max_size=n1,
        )
    )
    return matrix(entries, p, u)


@settings(max_examples=150, deadline=None)
@given(random_matrix())
def test_norm_nonnegative_zero_iff_zero(f):
    norm = mixed_norm(f)
    assert norm >= 0.0
    if np.all(f.entries == 0.0):
        assert norm == 0.0
    else:
        assert norm > 0.0


@settings(max_examples=150, deadline=None)
@given(random_matrix(), st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_homogeneity(f, c):
    scaled = MixedMatrix(f.spec, c * f.entries)
    lhs = mixed_norm(scaled)
    rhs = abs(c) * mixed_norm(f)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_inequality(data):
    f = data.draw(random_matrix())
    g_entries = data.draw(
        st.lists(
            st.lists(values, min_size=f.spec.n2, max_size=f.spec.n2),
            min_size=f.spec.n1,
            max_size=f.spec.n1,
        )
    )
    g = MixedMatrix(f.spec, np.asarray(g_entries))
    total = MixedMatrix(f.spec, f.entries + g.entries)
    assert mixed_norm(total) <= mixed_norm(f) + mixed_norm(g) + 1e-12


@settings(max_examples=150, deadline=None)
@given(random_matrix())
def test_mean_bounded_by_norm(f):
    assert abs(scalar_mean(f)) <= mixed_norm(f) + 1e-12


class TestRowChunk:
    """A chunk of one-row instances is checked as ``MixedMatrix`` checks its
    rows, and keeps read-only copies."""

    spec = ProblemSpec(3, 4, 1.0, INF)

    def test_keeps_read_only_copies(self):
        ids, rows = np.array([2, 0, 2]), np.arange(12.0).reshape(3, 4)
        chunk = RowChunk(self.spec, ids, rows)
        assert chunk.row_ids.dtype == np.int64 and chunk.block.dtype == np.float64
        assert chunk.row_ids.tolist() == [2, 0, 2] and chunk.block.tolist() == rows.tolist()
        assert not chunk.row_ids.flags.writeable and not chunk.block.flags.writeable
        ids[0], rows[0, 0] = 1, 99.0
        assert chunk.row_ids[0] == 2 and chunk.block[0, 0] == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            chunk.block = rows
        # An empty chunk is a chunk; open_nonadaptive refuses to open it.
        empty = RowChunk(self.spec, np.array([], dtype=np.int64), np.zeros((0, 4)))
        assert empty.row_ids.shape == (0,) and empty.block.shape == (0, 4)

    @pytest.mark.parametrize("ids, shape", [([0, 1], (3, 4)), ([0, 1, 2], (3, 3)),
                                            ([[0, 1, 2]], (3, 4)), (0, (1, 4)),
                                            ([0, 1], (2, 2, 4))])
    def test_mismatched_shapes_are_refused(self, ids, shape):
        with pytest.raises(ValueError, match="do not match a chunk of 4-entry rows"):
            RowChunk(self.spec, ids, np.zeros(shape))

    @pytest.mark.parametrize("bad", [3, -1, 2**63 - 1])
    def test_out_of_range_ids_are_refused(self, bad):
        with pytest.raises(ValueError, match=r"row ids must be in \[0, 3\)"):
            RowChunk(self.spec, [0, bad], np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rows_are_refused(self, bad):
        rows = np.zeros((2, 4))
        rows[1, 3] = bad
        with pytest.raises(ValueError, match="entries must all be finite"):
            RowChunk(self.spec, [0, 1], rows)

    def test_float_ids_and_complex_rows_are_refused(self):
        with pytest.raises(TypeError):
            RowChunk(self.spec, [0.0, 1.0], np.zeros((2, 4)))
        with pytest.raises(ValueError, match="entries must be real"):
            RowChunk(self.spec, [0, 1], np.zeros((2, 4), dtype=complex))

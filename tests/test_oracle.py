import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from adaptgap import oracle
from adaptgap.oracle import (
    Mode,
    UNBOUNDED,
    Plan,
    open_adaptive,
    open_nonadaptive,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec


def matrix(entries):
    arr = np.asarray(entries, dtype=float)
    return MixedMatrix(ProblemSpec(arr.shape[0], arr.shape[1], 2.0, 2.0), arr)


@pytest.fixture
def f22():
    return matrix([[1.0, 2.0], [3.0, 4.0]])


class TestOpenAdaptive:
    def test_fresh_card_zero(self, f22):
        tape = open_adaptive(f22)
        assert tape.card() == 0
        assert tape.mode is Mode.ADAPTIVE
        assert tape.budget is UNBOUNDED

    def test_budget_five_allows_five(self, f22):
        tape = open_adaptive(f22, budget=5)
        for _ in range(5):
            tape.query(1, 1)
        assert tape.card() == 5

    def test_budget_zero_rejects(self, f22):
        tape = open_adaptive(f22, budget=0)
        with pytest.raises(BudgetExceeded):
            tape.query(1, 1)
        assert tape.card() == 0


class TestOpenNonadaptive:
    def test_declared_sets_budget(self, f22):
        tape = open_nonadaptive(f22, [(1, 1), (2, 2)])
        assert tape.budget == 2
        assert tape.mode is Mode.NONADAPTIVE

    def test_out_of_range_declaration(self, f22):
        with pytest.raises(IndexOutOfRange):
            open_nonadaptive(f22, [(3, 1)])

    def test_empty_declaration(self, f22):
        tape = open_nonadaptive(f22, [])
        assert tape.card() == 0
        assert tape.budget == 0
        with pytest.raises(BudgetExceeded):
            tape.query(1, 1)
        assert tape.card() == 0


class TestQuery:
    def test_answers_value(self):
        tape = open_adaptive(matrix([[7.0]]))
        assert tape.query(1, 1) == 7.0
        assert tape.card() == 1

    def test_repeats_counted(self, f22):
        tape = open_adaptive(f22)
        assert tape.query(2, 1) == tape.query(2, 1) == 3.0
        assert tape.card() == 2

    def test_discipline_violation(self, f22):
        tape = open_nonadaptive(f22, [(1, 1)])
        with pytest.raises(DisciplineViolation):
            tape.query(1, 2)
        assert tape.card() == 0

    def test_out_of_range(self, f22):
        tape = open_adaptive(f22)
        with pytest.raises(IndexOutOfRange):
            tape.query(0, 1)
        with pytest.raises(IndexOutOfRange):
            tape.query(1, 3)
        assert tape.card() == 0

    def test_failed_budget_query_uncharged(self, f22):
        tape = open_adaptive(f22, budget=1)
        tape.query(1, 1)
        with pytest.raises(BudgetExceeded):
            tape.query(1, 2)
        assert tape.card() == 1


class TestQueryMany:
    def test_matches_single_queries(self, f22):
        batch = open_adaptive(f22)
        single = open_adaptive(f22)
        rows = np.array([1, 1, 2, 2, 1])
        cols = np.array([1, 2, 1, 2, 1])
        got = batch.query_many(rows, cols)
        expected = [single.query(i, j) for i, j in zip(rows, cols)]
        assert got.tolist() == expected
        assert batch.card() == single.card() == 5

    def test_all_or_nothing_budget(self, f22):
        tape = open_adaptive(f22, budget=3)
        with pytest.raises(BudgetExceeded):
            tape.query_many([1, 1, 1, 1], [1, 1, 1, 1])
        assert tape.card() == 0
        tape.query_many([1, 1, 1], [1, 2, 1])
        assert tape.card() == 3

    def test_nonadaptive_prefix(self, f22):
        declared = [(1, 1), (1, 2), (2, 1)]
        tape = open_nonadaptive(f22, declared)
        assert tape.query_many([1, 1], [1, 2]).tolist() == [1.0, 2.0]
        with pytest.raises(DisciplineViolation):
            tape.query_many([2], [2])
        assert tape.card() == 2
        assert tape.query_many([2], [1]).tolist() == [3.0]


def test_replay_is_deterministic(f22):
    declared = [(2, 2), (1, 1), (2, 2), (1, 2)]
    first = open_nonadaptive(f22, declared)
    second = open_nonadaptive(f22, declared)
    answers1 = [first.query(i, j) for i, j in declared]
    answers2 = [second.query(i, j) for i, j in declared]
    assert answers1 == answers2 == [4.0, 1.0, 4.0, 2.0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_deviation_detected(data):
    n1 = data.draw(st.integers(1, 4))
    n2 = data.draw(st.integers(1, 4))
    f = matrix(np.arange(n1 * n2, dtype=float).reshape(n1, n2))
    length = data.draw(st.integers(1, 8))
    declared = [
        (data.draw(st.integers(1, n1)), data.draw(st.integers(1, n2)))
        for _ in range(length)
    ]
    tape = open_nonadaptive(f, declared)
    deviate_at = data.draw(st.integers(0, length - 1))
    wrong = (
        data.draw(st.integers(1, n1)),
        data.draw(st.integers(1, n2)),
    )
    for k, (i, j) in enumerate(declared):
        if k == deviate_at and wrong != (i, j):
            with pytest.raises(DisciplineViolation):
                tape.query(*wrong)
            assert tape.card() == k
            return
        tape.query(i, j)
    assert tape.card() == length


class TestBroadcastQueries:
    def test_grid_is_answered_in_c_order(self, f22):
        tape = open_adaptive(f22)
        got = tape.query_many([[1], [2]], [[2, 1, 2]])
        assert got.tolist() == [2.0, 1.0, 2.0, 4.0, 3.0, 4.0]
        assert tape.card() == 6

    def test_scalar_against_vector(self, f22):
        tape = open_adaptive(f22)
        assert tape.query_many(2, [1, 2, 1]).tolist() == [3.0, 4.0, 3.0]
        assert tape.card() == 3

    def test_shapes_that_do_not_broadcast(self, f22):
        tape = open_adaptive(f22)
        with pytest.raises(ValueError):
            tape.query_many([1, 2], [1, 2, 1])
        assert tape.card() == 0

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([1, 0], [1, 1]),  # row below the range
            ([1, 3], [1, 1]),  # row above it
            ([1, 1], [2, 0]),
            ([1, 1], [3, 2]),
            ([[1], [0]], [[1, 2]]),  # as a grid
            ([[1], [2]], [[3, 2]]),
        ],
    )
    def test_batch_outside_the_range(self, f22, rows, cols):
        for sparse in (False, True):
            f = MixedMatrix.from_rows(f22.spec, [1], [[3.0, 4.0]]) if sparse else f22
            tape = open_adaptive(f)
            with pytest.raises(IndexOutOfRange):
                tape.query_many(rows, cols)
            assert tape.card() == 0
        if np.ndim(rows) == 1:
            with pytest.raises(IndexOutOfRange):
                open_nonadaptive(f22, list(zip(rows, cols)))

    def test_empty_grid_charges_nothing(self, f22):
        tape = open_adaptive(f22, budget=0)
        assert tape.query_many(np.ones((0, 1), dtype=int), [[1, 2]]).size == 0
        assert tape.card() == 0

    def test_whole_plan_with_the_tapes_own_arrays(self, f22):
        tape = open_nonadaptive(f22, [(2, 1), (1, 2)])
        assert tape.query_many(*tape.declared).tolist() == [3.0, 2.0]
        assert tape.card() == 2
        with pytest.raises(BudgetExceeded):
            tape.query_many(*tape.declared)
        assert tape.card() == 2

    def test_own_arrays_are_still_range_checked(self, f22):
        plan = np.array([[1, 2], [1, 2]]).T  # contiguous columns: kept as is
        tape = open_nonadaptive(f22, plan)
        plan[1, 1] = 3  # the caller still holds a writable view of the plan
        with pytest.raises(IndexOutOfRange):
            tape.query_many(*tape.declared)
        assert tape.card() == 0


class TestDrawnPlan:
    """A drawn plan holds its rows and draws each column block as it hands
    the block out; here blocks hold 3 queries."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "PLAN_BLOCK", 3)

    @staticmethod
    def drawn(n, n1=2, n2=2, seed=4):
        return Plan.drawn(n, n1, n2, np.random.default_rng(seed))

    def test_values_rows_dtype_and_budget(self, f22):
        plan = self.drawn(8)
        assert plan.rows.dtype == np.uint8 and plan.cols is None
        g = np.random.default_rng(4)
        want_rows, want_cols = g.integers(1, 3, size=8), g.integers(1, 3, size=8)
        tape = open_nonadaptive(f22, plan)
        assert tape.budget == 8 and tape.plan is plan and tape.declared is None
        blocks = list(plan.blocks())
        assert [r.size for r, _ in blocks] == [3, 3, 2]
        assert all(r.dtype == c.dtype == np.int64 for r, c in blocks)
        assert not any(r.flags.writeable or c.flags.writeable for r, c in blocks)
        assert np.concatenate([r for r, _ in blocks]).tolist() == want_rows.tolist()
        assert np.concatenate([c for _, c in blocks]).tolist() == want_cols.tolist()

    def test_blocks_answered_as_handed_out(self, f22):
        tape = open_nonadaptive(f22, self.drawn(8))
        answers = [tape.query_many(r, c) for r, c in tape.plan.blocks()]
        entries = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = np.random.default_rng(4)
        want = entries[g.integers(0, 2, size=8), g.integers(0, 2, size=8)]
        assert np.concatenate(answers).tolist() == want.tolist()
        assert tape.card() == 8

    def test_copies_of_the_handed_block_are_compared(self, f22):
        tape = open_nonadaptive(f22, self.drawn(8))
        rows, cols = next(tape.plan.blocks())
        tape.query(rows[0], cols[0])
        tape.query_many(rows[1:].tolist(), cols[1:].tolist())
        assert tape.card() == 3

    def test_queries_outside_the_handed_block_fail(self, f22):
        tape = open_nonadaptive(f22, self.drawn(8))
        with pytest.raises(DisciplineViolation):
            tape.query(1, 1)  # nothing handed out yet
        blocks = tape.plan.blocks()
        rows, cols = next(blocks)
        with pytest.raises(DisciplineViolation):
            tape.query_many(np.append(rows, 1), np.append(cols, 1))
        tape.query_many(rows, cols)
        with pytest.raises(DisciplineViolation):
            tape.query_many(rows, cols)  # answered already
        rows, cols = next(blocks)
        with pytest.raises(DisciplineViolation):
            tape.query_many(3 - rows, cols)
        assert tape.card() == 3

    def test_skipped_block_fails(self, f22):
        tape = open_nonadaptive(f22, self.drawn(8))
        blocks = tape.plan.blocks()
        next(blocks)
        rows, cols = next(blocks)
        with pytest.raises(DisciplineViolation):
            tape.query_many(rows, cols)
        assert tape.card() == 0

    def test_handed_out_once(self, f22):
        plan = self.drawn(4)
        assert len(list(plan.blocks())) == 2
        with pytest.raises(DisciplineViolation):
            next(plan.blocks())

    def test_every_block_is_range_checked(self, f22):
        # Columns drawn from [1, 40] on a 2 x 2 matrix: the first block
        # holding a column above 2 is refused and charged nothing.
        tape = open_nonadaptive(f22, self.drawn(30, n2=40))
        answered = 0
        with pytest.raises(IndexOutOfRange):
            for rows, cols in tape.plan.blocks():
                tape.query_many(rows, cols)
                answered += rows.size
        assert 0 <= answered == tape.card() < 30

    def test_explicit_plan_blocks_are_views(self, f22):
        tape = open_nonadaptive(f22, [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)])
        rows, cols = tape.declared
        blocks = list(tape.plan.blocks())
        assert [r.tolist() for r, _ in blocks] == [[1, 1, 2], [2, 1]]
        assert all(np.shares_memory(r, rows) and np.shares_memory(c, cols) for r, c in blocks)
        for r, c in blocks:
            tape.query_many(r, c)
        assert tape.card() == 5


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from([Variant.SINGLE_SPIKE, Variant.ACTIVE_ROW_BERNOULLI]),
    n1=st.integers(1, 9),
    n2=st.integers(1, 9),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    u=st.sampled_from([1.0, 2.0, INF]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_row_sparse_and_dense_answer_alike(variant, n1, n2, p, u, seed, data):
    # A row-sparse sample and the same matrix stored dense.
    sparse = HardFamily(variant, ProblemSpec(n1, n2, p, u)).sample(RngStream(seed))
    dense = MixedMatrix(sparse.spec, sparse.entries)
    assert sparse.row_ids is not None and dense.row_ids is None
    length = data.draw(st.integers(0, 30))

    def indices(n, size=None):
        low, high = (length, length) if size is None else (1, size)
        values = data.draw(st.lists(st.integers(1, n), min_size=low, max_size=high))
        return np.array(values, dtype=int)

    rows = indices(n1)
    cols = indices(n2)
    grid_rows = indices(n1, 5)[:, None]
    grid_cols = indices(n2, 5)[None, :]
    tapes = [open_adaptive(sparse), open_adaptive(dense)]
    answers = []
    for tape in tapes:
        single = [tape.query(i, j) for i, j in zip(rows, cols)]
        flat = tape.query_many(rows, cols)
        grid = tape.query_many(grid_rows, grid_cols)
        answers.append((single, flat.tolist(), grid.tolist(), tape.card()))
    assert answers[0] == answers[1]
    single, flat, grid, count = answers[0]
    assert single == flat == dense.entries[rows - 1, cols - 1].tolist()
    assert grid == dense.entries[grid_rows - 1, grid_cols - 1].ravel().tolist()
    assert count == 2 * length + grid_rows.size * grid_cols.size


def grid_case(data, n1, n2):
    """A (k1, 1) x (1, k2) grid; a quarter of the time one index lies one
    past either side of its range."""
    rows = data.draw(st.lists(st.integers(1, n1), min_size=1, max_size=4))
    cols = data.draw(st.lists(st.integers(1, n2), min_size=1, max_size=4))
    if data.draw(st.integers(0, 3)) == 0:
        index, n = (rows, n1) if data.draw(st.booleans()) else (cols, n2)
        index[data.draw(st.integers(0, len(index) - 1))] = data.draw(
            st.sampled_from([0, n + 1])
        )
    return np.array(rows)[:, None], np.array(cols)[None, :]


def outcome(tape, rows, cols):
    """The answers, or the error type, and the card after the call."""
    try:
        result = tape.query_many(rows, cols).tolist()
    except (IndexOutOfRange, BudgetExceeded, DisciplineViolation) as exc:
        result = type(exc)
    return result, tape.card()


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_grid_query_equals_the_materialized_query(variant, n1, n2, seed, data):
    f = HardFamily(variant, ProblemSpec(n1, n2, 1.5, INF)).sample(RngStream(seed))
    rows, cols = grid_case(data, n1, n2)
    flat_rows = np.repeat(rows.ravel(), cols.size)
    flat_cols = np.tile(cols.ravel(), rows.size)
    budget = max(0, rows.size * cols.size + data.draw(st.integers(-2, 2)))
    prior = data.draw(st.integers(0, 2))
    nonadaptive = data.draw(st.booleans())
    if nonadaptive:
        # The plan holds the prior queries, then the grid, possibly altered.
        declared = [(1, 1)] * prior + list(zip(flat_rows.tolist(), flat_cols.tolist()))
        if declared and data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(declared) - 1))
            declared[k] = (1 + declared[k][0] % n1, 1 + declared[k][1] % n2)
        declared = [(min(max(i, 1), n1), min(max(j, 1), n2)) for i, j in declared]

        def fresh():
            tape = open_nonadaptive(f, declared)
            tape.query_many([1] * prior, [1] * prior)
            return tape
    else:

        def fresh():
            tape = open_adaptive(f, budget=budget + prior)
            tape.query_many([1] * prior, [1] * prior)
            return tape

    try:
        grid = outcome(fresh(), rows, cols)
    except DisciplineViolation:  # an altered pair among the prior queries
        return
    assert grid == outcome(fresh(), flat_rows, flat_cols)
    if isinstance(grid[0], type):  # a failing batch charges nothing
        assert grid[1] == prior

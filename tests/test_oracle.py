import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from adaptgap.oracle import (
    Mode,
    UNBOUNDED,
    card,
    open_adaptive,
    open_nonadaptive,
    query,
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
        assert card(tape) == 0
        assert tape.mode is Mode.ADAPTIVE
        assert tape.budget is UNBOUNDED

    def test_budget_five_allows_five(self, f22):
        tape = open_adaptive(f22, budget=5)
        for _ in range(5):
            query(tape, 1, 1)
        assert card(tape) == 5

    def test_budget_zero_rejects(self, f22):
        tape = open_adaptive(f22, budget=0)
        with pytest.raises(BudgetExceeded):
            query(tape, 1, 1)
        assert card(tape) == 0


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
        assert card(tape) == 0
        assert tape.budget == 0
        with pytest.raises(BudgetExceeded):
            query(tape, 1, 1)
        assert card(tape) == 0


class TestQuery:
    def test_answers_value(self):
        tape = open_adaptive(matrix([[7.0]]))
        assert query(tape, 1, 1) == 7.0
        assert card(tape) == 1

    def test_repeats_counted(self, f22):
        tape = open_adaptive(f22)
        assert query(tape, 2, 1) == query(tape, 2, 1) == 3.0
        assert card(tape) == 2

    def test_discipline_violation(self, f22):
        tape = open_nonadaptive(f22, [(1, 1)])
        with pytest.raises(DisciplineViolation):
            query(tape, 1, 2)
        assert card(tape) == 0

    def test_out_of_range(self, f22):
        tape = open_adaptive(f22)
        with pytest.raises(IndexOutOfRange):
            query(tape, 0, 1)
        with pytest.raises(IndexOutOfRange):
            query(tape, 1, 3)
        assert card(tape) == 0

    def test_failed_budget_query_uncharged(self, f22):
        tape = open_adaptive(f22, budget=1)
        query(tape, 1, 1)
        with pytest.raises(BudgetExceeded):
            query(tape, 1, 2)
        assert card(tape) == 1


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
    answers1 = [query(first, i, j) for i, j in declared]
    answers2 = [query(second, i, j) for i, j in declared]
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
                query(tape, *wrong)
            assert card(tape) == k
            return
        query(tape, i, j)
    assert card(tape) == length


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

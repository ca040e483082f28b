import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgap.errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from adaptgap import oracle
from adaptgap.estimators import mc_mean_a2
from adaptgap.oracle import (
    Mode,
    Plan,
    open_adaptive,
    open_nonadaptive,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec
from reference import pairs_plan


#: A budget that no test here reaches.
ENOUGH = 1 << 30


def matrix(entries):
    arr = np.asarray(entries, dtype=float)
    return MixedMatrix(ProblemSpec(arr.shape[0], arr.shape[1], 2.0, 2.0), arr)


@pytest.fixture
def f22():
    return matrix([[1.0, 2.0], [3.0, 4.0]])


class TestOpenAdaptive:
    def test_fresh_card_zero(self, f22):
        tape = open_adaptive(f22, budget=7)
        assert tape.card() == 0
        assert tape.mode is Mode.ADAPTIVE
        assert tape.budget == 7 and tape.plan is None

    def test_budget_is_a_nonnegative_integer(self, f22):
        with pytest.raises(ValueError):
            open_adaptive(f22, budget=-1)
        # A plan would make the tape non-adaptive: only open_nonadaptive
        # takes one.
        with pytest.raises(TypeError):
            open_adaptive(f22, Plan(np.array([0])))

    def test_budget_five_allows_five(self, f22):
        tape = open_adaptive(f22, budget=5)
        for _ in range(5):
            tape.query_many(1, 1)
        assert tape.card() == 5

    def test_budget_zero_rejects(self, f22):
        tape = open_adaptive(f22, budget=0)
        with pytest.raises(BudgetExceeded):
            tape.query_many(1, 1)
        assert tape.card() == 0


class TestOpenNonadaptive:
    def test_declared_sets_budget(self, f22):
        tape = open_nonadaptive(f22, Plan(np.array([0, 3])))
        assert tape.budget == 2
        assert tape.mode is Mode.NONADAPTIVE

    def test_empty_declaration(self, f22):
        tape = open_nonadaptive(f22, Plan(np.empty(0, np.int64)))
        assert tape.card() == 0
        assert tape.budget == 0
        assert list(tape.answers()) == []
        with pytest.raises(DisciplineViolation):
            tape.query_many(1, 1)
        assert tape.card() == 0


class TestQuery:
    def test_answers_value(self):
        tape = open_adaptive(matrix([[7.0]]), budget=1)
        assert tape.query_many(1, 1)[0] == 7.0
        assert tape.card() == 1

    def test_repeats_counted(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
        assert tape.query_many(2, 1)[0] == tape.query_many(2, 1)[0] == 3.0
        assert tape.card() == 2

    def test_discipline_violation(self, f22):
        tape = open_nonadaptive(f22, Plan(np.array([0])))
        with pytest.raises(DisciplineViolation):
            tape.query_many(1, 2)
        assert tape.card() == 0

    def test_adaptive_tape_has_no_plan_to_answer(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
        with pytest.raises(DisciplineViolation):
            list(tape.answers())
        assert tape.card() == 0

    def test_out_of_range(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
        with pytest.raises(IndexOutOfRange):
            tape.query_many(0, 1)
        with pytest.raises(IndexOutOfRange):
            tape.query_many(1, 3)
        assert tape.card() == 0

    def test_failed_budget_query_uncharged(self, f22):
        tape = open_adaptive(f22, budget=1)
        tape.query_many(1, 1)
        with pytest.raises(BudgetExceeded):
            tape.query_many(1, 2)
        assert tape.card() == 1


class TestQueryMany:
    def test_matches_single_queries(self, f22):
        batch = open_adaptive(f22, budget=ENOUGH)
        single = open_adaptive(f22, budget=ENOUGH)
        rows = np.array([1, 1, 2, 2, 1])
        cols = np.array([1, 2, 1, 2, 1])
        got = batch.query_many(rows, cols)
        expected = [single.query_many(i, j)[0] for i, j in zip(rows, cols)]
        assert got.tolist() == expected
        assert batch.card() == single.card() == 5

    def test_all_or_nothing_budget(self, f22):
        tape = open_adaptive(f22, budget=3)
        with pytest.raises(BudgetExceeded):
            tape.query_many([1, 1, 1, 1], [1, 1, 1, 1])
        assert tape.card() == 0
        tape.query_many([1, 1, 1], [1, 2, 1])
        assert tape.card() == 3


def test_replay_is_deterministic(f22):
    declared = [(2, 2), (1, 1), (2, 2), (1, 2)]
    answers = [
        list(open_nonadaptive(f22, pairs_plan(f22.spec, declared)).answers())
        for _ in range(2)
    ]
    assert [a.tolist() for a in answers[0]] == [a.tolist() for a in answers[1]]
    assert np.concatenate(answers[0]).tolist() == [4.0, 1.0, 4.0, 2.0]


class TestBroadcastQueries:
    def test_grid_is_answered_in_c_order(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
        got = tape.query_many([[1], [2]], [[2, 1, 2]])
        assert got.tolist() == [2.0, 1.0, 2.0, 4.0, 3.0, 4.0]
        assert tape.card() == 6

    def test_scalar_against_vector(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
        assert tape.query_many(2, [1, 2, 1]).tolist() == [3.0, 4.0, 3.0]
        assert tape.card() == 3

    def test_shapes_that_do_not_broadcast(self, f22):
        tape = open_adaptive(f22, budget=ENOUGH)
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
            tape = open_adaptive(f, budget=ENOUGH)
            with pytest.raises(IndexOutOfRange):
                tape.query_many(rows, cols)
            assert tape.card() == 0
        if np.ndim(rows) == 1:  # and by the reference pairs conversion
            with pytest.raises(IndexOutOfRange):
                pairs_plan(f22.spec, list(zip(rows, cols)))

    def test_empty_grid_charges_nothing(self, f22):
        tape = open_adaptive(f22, budget=0)
        assert tape.query_many(np.ones((0, 1), dtype=int), [[1, 2]]).size == 0
        assert tape.card() == 0

    def test_whole_plan_with_the_tapes_own_arrays(self, f22):
        # The plan is answered once, and only through answers(): the pairs
        # of its own flat indices are refused by query_many, before and after.
        tape = open_nonadaptive(f22, pairs_plan(f22.spec, [(2, 1), (1, 2)]))
        plan = tape.plan
        assert plan.flat.tolist() == [2, 1]
        rows, cols = np.divmod(plan.flat, 2)
        with pytest.raises(DisciplineViolation):
            tape.query_many(rows + 1, cols + 1)
        assert [a.tolist() for a in tape.answers()] == [[3.0, 2.0]]
        assert tape.card() == 2
        with pytest.raises(DisciplineViolation):
            list(tape.answers())
        with pytest.raises(DisciplineViolation):
            tape.query_many(rows + 1, cols + 1)
        assert tape.card() == 2

    def test_own_arrays_are_still_range_checked(self, f22):
        # A plan built by hand is range-checked block by block: a flat index
        # outside [0, 4) is refused before its block is charged. Read as
        # unsigned, every negative index is at least 2^63.
        extremes = np.iinfo(np.int64)
        for flat in ([0, 4], [-1, 0], [extremes.min, 0], [3, extremes.max]):
            tape = open_nonadaptive(f22, Plan(flat))
            with pytest.raises(IndexOutOfRange):
                list(tape.answers())
            assert tape.card() == 0

    def test_size_and_budget_are_the_length_of_the_indices(self, f22):
        # The mean of the entries 1 and 4 is 2.5, at a cost of two queries.
        tape = open_nonadaptive(f22, Plan(np.array([0, 3])))
        report = mc_mean_a2(tape)
        assert report.value == 2.5
        assert report.cards == tape.card() == tape.budget == tape.plan.size == 2

    def test_int64_indices_are_kept_without_a_copy(self, f22):
        # Other integer arrays and lists are converted once to int64.
        flat = np.array([3, 0, 1], dtype=np.int64)
        assert Plan(flat).flat is flat
        for given in ([3, 0, 1], np.array([3, 0, 1], dtype=np.int32)):
            plan = Plan(given)
            assert plan.flat.dtype == np.int64 and plan.flat.tolist() == [3, 0, 1]
            assert plan.size == 3
        # Float indices are not truncated, and a plan is one flat sequence.
        with pytest.raises(TypeError):
            Plan([0.0, 1.5])
        with pytest.raises(ValueError):
            Plan(np.zeros((2, 2), np.int64))


class TestDrawnPlan:
    """A drawn plan holds its generator and draws each block of flat indices
    as it hands the block out; here blocks hold 3 queries."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "PLAN_BLOCK", 3)

    @staticmethod
    def drawn(n, n1=2, n2=2, seed=4):
        spec = ProblemSpec(n1, n2, 1.0, INF)
        return Plan.drawn(n, spec, np.random.default_rng(seed))

    def test_values_rows_dtype_and_budget(self, f22):
        plan = self.drawn(8)
        assert plan.flat is None
        want = np.random.default_rng(4).integers(0, 4, size=8)
        tape = open_nonadaptive(f22, plan)
        assert tape.budget == 8 and tape.plan is plan
        blocks = list(plan.blocks())
        assert [b.size for b in blocks] == [3, 3, 2]
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.concatenate(blocks).tolist() == want.tolist()

    def test_blocks_answered_as_handed_out(self, f22):
        tape = open_nonadaptive(f22, self.drawn(8))
        answers = list(tape.answers())
        assert [a.size for a in answers] == [3, 3, 2]
        entries = np.array([1.0, 2.0, 3.0, 4.0])
        want = entries[np.random.default_rng(4).integers(0, 4, size=8)]
        assert np.concatenate(answers).tolist() == want.tolist()
        assert tape.card() == 8

    def test_queries_outside_the_handed_block_fail(self, f22):
        # Before, between and after the blocks answers() yields, every
        # query fails and charges nothing, even one that repeats the block.
        tape = open_nonadaptive(f22, self.drawn(8))
        with pytest.raises(DisciplineViolation):
            tape.query_many(1, 1)
        answered = 0
        for block, flat in zip(tape.answers(), self.drawn(8).blocks()):
            answered += block.size
            rows, cols = np.divmod(flat, 2)
            with pytest.raises(DisciplineViolation):
                tape.query_many(rows + 1, cols + 1)
            assert tape.card() == answered
        with pytest.raises(DisciplineViolation):
            tape.query_many(1, 1)
        assert tape.card() == answered == 8

    def test_size_is_nonnegative(self, f22):
        # A negative size would open a tape with a negative budget; an
        # empty drawn plan stays allowed.
        with pytest.raises(ValueError, match="nonnegative"):
            self.drawn(-3)
        tape = open_nonadaptive(f22, self.drawn(0))
        assert tape.budget == 0 and list(tape.answers()) == []

    def test_skipped_block_fails(self, f22):
        # A block taken from the plan elsewhere cannot be skipped: the
        # tape no longer answers the plan at all.
        tape = open_nonadaptive(f22, self.drawn(8))
        next(tape.plan.blocks())
        with pytest.raises(DisciplineViolation):
            list(tape.answers())
        assert tape.card() == 0

    def test_handed_out_once(self, f22):
        plan = self.drawn(4)
        assert len(list(plan.blocks())) == 2
        with pytest.raises(DisciplineViolation):
            next(plan.blocks())

    def test_every_block_is_range_checked(self, f22):
        # Indices drawn from [0, 80) on a 2 x 2 matrix: the first block
        # holding an index of 4 or more is refused and charged nothing.
        tape = open_nonadaptive(f22, self.drawn(30, n2=40))
        answered = 0
        with pytest.raises(IndexOutOfRange):
            for block in tape.answers():
                answered += block.size
        assert 0 <= answered == tape.card() < 30

    def test_explicit_plan_blocks_are_views(self, f22):
        declared = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)]
        tape = open_nonadaptive(f22, pairs_plan(f22.spec, declared))
        plan = tape.plan
        assert plan.flat.dtype == np.int64 and not plan.flat.flags.writeable
        blocks = list(plan.blocks())
        assert [b.tolist() for b in blocks] == [[0, 1, 2], [3, 0]]
        assert all(np.shares_memory(b, plan.flat) for b in blocks)
        # Handed out once, so the tape no longer answers it.
        with pytest.raises(DisciplineViolation):
            list(tape.answers())
        tape = open_nonadaptive(f22, pairs_plan(f22.spec, declared))
        assert [a.tolist() for a in tape.answers()] == [[1.0, 2.0, 3.0], [4.0, 1.0]]
        assert tape.card() == 5

    def test_entries_beyond_int64_flat_indices_are_refused(self):
        # A 2^62 x 4 space has 2^64 entries, so no matrix, and hence no
        # tape or plan, is ever built on it.
        for n1, n2 in ((2**62, 4), (4, 2**62), (2**32, 2**31)):
            with pytest.raises(ValueError, match=r"N1\*N2 = .* = " + str(n1 * n2)):
                ProblemSpec(n1, n2, 1.0, INF)
        # 2^63 - 1 entries are the most a plan addresses.
        n1 = 2**63 - 1
        big = MixedMatrix.from_rows(ProblemSpec(n1, 1, 1.0, INF), [n1 - 1], [[5.0]])
        tape = open_nonadaptive(big, pairs_plan(big.spec, [(n1, 1), (1, 1)]))
        assert tape.plan.flat.tolist() == [n1 - 1, 0]
        assert np.concatenate(list(tape.answers())).tolist() == [5.0, 0.0]


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
    # The same pairs as equally shaped 2-D arrays, answered flat in C order.
    shape = (2, length // 2) if length % 2 == 0 else (length, 1)
    grid_rows = indices(n1, 5)[:, None]
    grid_cols = indices(n2, 5)[None, :]
    tapes = [open_adaptive(f, budget=ENOUGH) for f in (sparse, dense)]
    answers = []
    for tape in tapes:
        single = [tape.query_many(i, j)[0] for i, j in zip(rows, cols)]
        flat = tape.query_many(rows, cols)
        paired = tape.query_many(rows.reshape(shape), cols.reshape(shape))
        grid = tape.query_many(grid_rows, grid_cols)
        answers.append(
            (single, flat.tolist(), paired.tolist(), grid.tolist(), tape.card())
        )
    assert answers[0] == answers[1]
    single, flat, paired, grid, count = answers[0]
    assert single == flat == paired == dense.entries[rows - 1, cols - 1].tolist()
    assert grid == dense.entries[grid_rows - 1, grid_cols - 1].ravel().tolist()
    assert count == 3 * length + grid_rows.size * grid_cols.size


@settings(max_examples=150, deadline=None)
@given(
    n1=st.integers(1, 9),
    n2=st.integers(1, 9),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_row_sparse_blocks_answer_their_rows(n1, n2, seed, data):
    # Any number of stored rows, asked a block of consecutive rows at a
    # time, as a3 asks them: stored rows outside the block are skipped.
    g = np.random.default_rng(seed)
    ids = g.choice(n1, size=g.integers(0, n1 + 1), replace=False)
    block_of_rows = g.normal(size=(ids.size, n2))
    f = MixedMatrix.from_rows(ProblemSpec(n1, n2, 2.0, 2.0), ids, block_of_rows)
    first = data.draw(st.integers(1, n1))
    block = np.arange(first, data.draw(st.integers(first, n1)) + 1)
    cols = np.array(data.draw(st.lists(st.integers(1, n2), min_size=1, max_size=6)))
    counts = st.lists(st.integers(1, 3), min_size=block.size, max_size=block.size)
    rows = block.repeat(data.draw(counts))
    flat_cols = g.integers(1, n2 + 1, size=rows.size)
    # Probe-major (probes, rows, m) and row-major (rows, k) grids, and the
    # flat row-ordered pairs of a3's second stage.
    probes = cols.reshape(-1, 1, 2 - cols.size % 2)
    grids = [(block.reshape(1, -1, 1), probes), (block[:, None], cols[None, :])]
    tape = open_adaptive(f, budget=2 * block.size * cols.size + rows.size)
    entries = f.entries
    for grid_rows, grid_cols in grids:
        want = entries[grid_rows - 1, grid_cols - 1].ravel()
        assert tape.query_many(grid_rows, grid_cols).tolist() == want.tolist()
    want = entries[rows - 1, flat_cols - 1]
    assert tape.query_many(rows, flat_cols).tolist() == want.tolist()
    assert tape.card() == 2 * block.size * cols.size + rows.size


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (5, 1), (5, 4), (6, 3)])
@pytest.mark.parametrize("stored", ["all", "odd", "first", "last", "none"])
def test_plan_indices_at_the_edges_of_stored_rows(n1, n2, stored):
    # The flat indices one before, at the start of, at the end of and one
    # past each stored row, where they are entries: a row-sparse tape
    # answers them as the same matrix stored dense does.
    ids = {
        "all": range(n1),
        "odd": range(1, n1, 2),
        "first": [0],
        "last": [n1 - 1],
        "none": [],
    }[stored]
    spec = ProblemSpec(n1, n2, 2.0, 2.0)
    g = np.random.default_rng(n1 * n2)
    sparse = MixedMatrix.from_rows(spec, ids, g.normal(size=(len(ids), n2)))
    dense = MixedMatrix(spec, sparse.entries)
    edges = [i * n2 + d for i in ids for d in (-1, 0, n2 - 1, n2)]
    flat = np.array([e for e in edges if 0 <= e < n1 * n2], dtype=np.int64)
    answers = []
    for f in (sparse, dense):
        tape = open_nonadaptive(f, Plan(flat))
        answers.append(np.concatenate([np.empty(0), *tape.answers()]).tolist())
        assert tape.card() == flat.size
    assert answers[0] == answers[1] == dense.entries.ravel()[flat].tolist()


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
    except (IndexOutOfRange, BudgetExceeded) as exc:
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

    def fresh():
        tape = open_adaptive(f, budget=budget + prior)
        tape.query_many([1] * prior, [1] * prior)
        return tape

    grid = outcome(fresh(), rows, cols)
    assert grid == outcome(fresh(), flat_rows, flat_cols)
    if isinstance(grid[0], type):  # a failing batch charges nothing
        assert grid[1] == prior


@settings(max_examples=150, deadline=None)
@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    sparse=st.booleans(),
    drawn=st.booleans(),
    size=st.integers(0, 10),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_a_nonadaptive_tape_answers_only_its_plan(
    n1, n2, sparse, drawn, size, seed, data
):
    # Blocks of 3 queries, so most plans are answered in several blocks.
    g = np.random.default_rng(seed)
    if sparse:
        ids = g.choice(n1, size=g.integers(0, n1 + 1), replace=False)
        f = MixedMatrix.from_rows(
            ProblemSpec(n1, n2, 2.0, 2.0), ids, g.normal(size=(ids.size, n2))
        )
    else:
        f = matrix(g.normal(size=(n1, n2)))
    queries = [
        (data.draw(st.integers(1, n1)), data.draw(st.integers(1, n2)))
        for _ in range(3)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "PLAN_BLOCK", 3)
        if drawn:
            plan = Plan.drawn(size, f.spec, np.random.default_rng(seed))
            flat = np.random.default_rng(seed).integers(0, n1 * n2, size=size)
            rows, cols = np.divmod(flat, n2)
            rows += 1
            cols += 1
        else:
            rows = g.integers(1, n1 + 1, size=size)
            cols = g.integers(1, n2 + 1, size=size)
            plan = pairs_plan(f.spec, list(zip(rows.tolist(), cols.tolist())))
        tape = open_nonadaptive(f, plan)

        def refused(charged):
            for i, j in queries:
                with pytest.raises(DisciplineViolation):
                    tape.query_many(i, j)
            with pytest.raises(DisciplineViolation):
                tape.query_many(rows, cols)
            assert tape.card() == charged

        refused(0)
        answers = list(tape.answers())
        assert all(1 <= a.size <= 3 for a in answers)
        got = np.concatenate(answers) if answers else np.empty(0)
        assert got.tolist() == f.entries[rows - 1, cols - 1].tolist()
        assert tape.card() == size
        refused(size)
        with pytest.raises(DisciplineViolation):
            list(tape.answers())
        assert tape.card() == size

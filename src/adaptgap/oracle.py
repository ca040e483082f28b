"""Counted, budgeted access to matrix entries.

Algorithms never touch a matrix directly: they read single entries through a
:class:`QueryTape`, which counts every query (repeats included), enforces an
optional budget, and enforces the access discipline:

* ADAPTIVE tapes answer any in-range query, so later queries may depend on
  earlier answers.
* NONADAPTIVE tapes fix the whole query sequence up front, as a
  :class:`Plan`; any deviation from the declared order raises
  :class:`DisciplineViolation`. Non-adaptivity is thereby machine-checked
  structurally instead of audited after the fact. A plan hands itself out in
  order, in blocks of at most ``PLAN_BLOCK`` queries, so a non-adaptive
  estimator answers the plan it was opened on without drawing it again, and
  answers a block handed out at the cursor without comparing it pair by pair.

A plan is explicit or drawn. An explicit plan is kept as two contiguous
1-based int64 index arrays, exposed read-only as :attr:`QueryTape.declared`:
16 bytes per query. A drawn plan (:meth:`Plan.drawn`) holds only its rows, in
the narrowest unsigned dtype that fits N1 (2 bytes per query up to
N1 = 65535), and draws each block's columns from its generator as it hands
the block out. Its values equal one draw of all the rows followed by one draw
of all the columns, because numpy's ``Generator.integers`` drawn in pieces
continues the same stream; so it never holds more than a block of int64
indices, however long the plan.

Indices are 1-based, matching (i, j) in [1, N1] x [1, N2]. Failed queries
(budget or discipline errors) are not charged: the run is aborted, not billed.
``query_many`` answers a batch with exactly the semantics of issuing its
queries one at a time, but at vectorized cost. Its row and column arrays
broadcast against each other, so a grid of every row against a few columns
is one ``(N1, 1) x (1, k)`` query; the answers come back flat in C order.
A dense matrix is answered by one flat gather from its row-major entries;
a row-sparse one (see ``MixedMatrix.from_rows``) from its stored rows, with
zeros elsewhere, so no query ever builds the dense array.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from .spaces import MixedMatrix, ProblemSpec

__all__ = [
    "Mode",
    "UNBOUNDED",
    "PLAN_BLOCK",
    "Plan",
    "QueryTape",
    "open_adaptive",
    "open_nonadaptive",
]


class Mode(enum.Enum):
    ADAPTIVE = "adaptive"
    NONADAPTIVE = "nonadaptive"


#: Sentinel budget: the tape never refuses a query on budget grounds.
UNBOUNDED = None

#: Queries per block in which a plan is drawn and handed out: 256 KiB per
#: int64 array. Temporaries of this size stay on the allocator's heap from
#: block to block, while n-length ones are mapped, faulted in and unmapped on
#: every call: about 10 against 25k minor faults per 32-trial ``gap`` run.
PLAN_BLOCK = 1 << 15

_NO_BLOCK = np.empty(0, dtype=np.int64)


def _within(index: np.ndarray, high: int) -> bool:
    """Whether every entry of a nonempty integer array lies in [1, high]."""
    # The ufunc reductions skip the Python layer of ndarray.min and .max.
    return (
        np.minimum.reduce(index, axis=None) >= 1
        and np.maximum.reduce(index, axis=None) <= high
    )


class Plan:
    """The declared query sequence of a NONADAPTIVE tape.

    Build an explicit plan with :func:`open_nonadaptive` and a drawn one with
    :meth:`Plan.drawn`. ``rows`` holds every row index; ``cols`` every column
    index of an explicit plan, and None for a drawn one, whose columns exist
    only a block at a time. :meth:`blocks` hands the plan out, and
    ``handed`` is the block it handed out last as (rows, cols, position),
    which a tape at that position answers without comparing pair by pair.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray | None, draw=None) -> None:
        self.rows = rows
        self.cols = cols
        self.size = rows.size
        self._draw = draw
        # The block handed out last and its position in the plan. Before
        # any, an explicit plan counts as handed out whole.
        self.handed = (rows, cols, 0) if draw is None else (_NO_BLOCK, _NO_BLOCK, 0)

    @classmethod
    def drawn(cls, n: int, n1: int, n2: int, generator) -> Plan:
        """n uniform pairs in [1, N1] x [1, N2] from a numpy ``Generator``:
        the same values as ``generator.integers(1, N1 + 1, size=n)``
        followed by ``generator.integers(1, N2 + 1, size=n)``.

        The rows are drawn now, block by block, into the narrowest unsigned
        dtype that holds N1; each column block is drawn when ``blocks``
        hands it out.
        """
        rows = np.empty(n, dtype=np.min_scalar_type(n1))
        for start in range(0, n, PLAN_BLOCK):
            end = min(start + PLAN_BLOCK, n)
            rows[start:end] = generator.integers(1, n1 + 1, size=end - start)
        return cls(rows, None, functools.partial(generator.integers, 1, n2 + 1))

    def blocks(self):
        """Yield the plan in order as read-only int64 (rows, cols) blocks of
        at most ``PLAN_BLOCK`` queries.

        An explicit plan's blocks are views of its arrays. A drawn plan
        draws each block's columns as it yields the block, so it can be
        handed out only once.
        """
        draw, self._draw = self._draw, None
        if draw is None and self.cols is None:
            raise DisciplineViolation("a drawn plan is handed out only once")
        for start in range(0, self.size, PLAN_BLOCK):
            end = min(start + PLAN_BLOCK, self.size)
            if draw is None:
                rows, cols = self.rows[start:end], self.cols[start:end]
            else:
                rows = self.rows[start:end].astype(np.int64)
                cols = draw(end - start)
                rows.setflags(write=False)
                cols.setflags(write=False)
            self.handed = (rows, cols, start)
            yield rows, cols


class QueryTape:
    """Single-owner handle mediating all entry access to one matrix.

    Construct via :func:`open_adaptive` or :func:`open_nonadaptive`.
    """

    def __init__(
        self,
        target: MixedMatrix,
        mode: Mode,
        budget: int | None,
        plan: Plan | None,
    ) -> None:
        self._target = target
        # The stored rows: the whole C-ordered matrix when dense.
        self._row_ids = target.row_ids
        self._block = target.block
        self._mode = mode
        if budget is not UNBOUNDED:
            budget = int(budget)
            if budget < 0:
                raise ValueError("budget must be nonnegative or UNBOUNDED")
        self._budget = budget
        self._plan = plan
        self._cursor = 0
        self._issued = 0

    @property
    def spec(self) -> ProblemSpec:
        return self._target.spec

    @property
    def mode(self) -> Mode:
        return self._mode

    @property
    def budget(self) -> int | None:
        return self._budget

    @property
    def plan(self) -> Plan | None:
        """The declared plan; None when ADAPTIVE."""
        return self._plan

    @property
    def declared(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only (rows, cols) of an explicit declared plan; None when
        ADAPTIVE or when the plan is drawn."""
        if self._plan is None or self._plan.cols is None:
            return None
        return self._plan.rows, self._plan.cols

    def card(self) -> int:
        """Number of queries answered so far (repeats counted)."""
        return self._issued

    def _check_range(self, rows: np.ndarray, cols: np.ndarray) -> None:
        spec = self._target.spec
        if not (_within(rows, spec.n1) and _within(cols, spec.n2)):
            raise IndexOutOfRange(
                f"query indices outside [1, {spec.n1}] x [1, {spec.n2}]"
            )

    def _check_budget(self, count: int) -> None:
        if self._budget is not UNBOUNDED and self._issued + count > self._budget:
            raise BudgetExceeded(
                f"{self._issued} issued + {count} requested exceeds "
                f"budget {self._budget}"
            )

    def _check_declared(
        self, rows: np.ndarray, cols: np.ndarray, count: int, shape=None
    ) -> None:
        plan = self._plan
        known_rows, known_cols, start = plan.handed
        if self._cursor == start and rows is known_rows and cols is known_cols:
            return  # a block asked at the cursor with the arrays the plan handed out
        if plan.cols is not None:
            known_rows, known_cols, start = plan.rows, plan.cols, 0
        # else a drawn plan, whose columns are known for its last block only
        begin = self._cursor - start
        end = begin + count
        if begin < 0 or end > known_rows.size:
            raise DisciplineViolation(
                "query past the end of the declared sequence"
                if plan.cols is not None
                else "query outside the block the drawn plan handed out last"
            )
        want_rows = known_rows[begin:end]
        want_cols = known_cols[begin:end]
        if shape is not None:
            want_rows = want_rows.reshape(shape)
            want_cols = want_cols.reshape(shape)
        if not ((want_rows == rows).all() and (want_cols == cols).all()):
            raise DisciplineViolation(
                "query differs from the next declared index pair"
            )

    def query(self, i: int, j: int) -> float:
        """Answer f(i, j) and charge one query."""
        i = int(i)
        j = int(j)
        spec = self._target.spec
        if not (1 <= i <= spec.n1 and 1 <= j <= spec.n2):
            raise IndexOutOfRange(
                f"({i}, {j}) outside [1, {spec.n1}] x [1, {spec.n2}]"
            )
        self._check_budget(1)
        if self._mode is Mode.NONADAPTIVE:
            self._check_declared(
                np.array([i], dtype=np.int64), np.array([j], dtype=np.int64), 1
            )
            self._cursor += 1
        self._issued += 1
        if self._row_ids is None:
            return float(self._block[i - 1, j - 1])
        if i - 1 in self._row_ids:
            return float(self._block[self._row_ids.index(i - 1), j - 1])
        return 0.0

    def query_many(self, rows, cols) -> np.ndarray:
        """Answer a batch of queries; equivalent to issuing them in order.

        ``rows`` and ``cols`` are integer arrays that broadcast against each
        other; the queries are their broadcast pairs in C order, and so are
        the 1-D answers. The ranges of ``rows`` and ``cols`` are checked as
        given, and the broadcast size is charged. The whole batch is
        validated first, so a failing batch charges nothing and leaves the
        tape unchanged.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape == cols.shape:
            shape = None  # flat pairs
            if rows.ndim != 1:
                rows = rows.reshape(-1)
                cols = cols.reshape(-1)
            count = rows.size
        else:
            grid = np.broadcast(rows, cols)
            shape = grid.shape
            count = grid.size
        if count:
            self._check_range(rows, cols)
        self._check_budget(count)
        if self._mode is Mode.NONADAPTIVE:
            self._check_declared(rows, cols, count, shape)
            self._cursor += count
        self._issued += count
        if shape is None:
            return self._gather(rows, cols, count)
        return self._gather_grid(rows, cols, shape)

    def _gather(self, rows: np.ndarray, cols: np.ndarray, count: int) -> np.ndarray:
        """Answers to equally shaped 1-D rows and cols, unchecked."""
        if self._row_ids is None:
            # Row-major offset (rows-1)*N2 + (cols-1), built in one buffer.
            n2 = self._target.spec.n2
            flat = np.multiply(rows, n2)
            flat += cols
            flat -= n2 + 1
            return self._block.take(flat)
        # Only the queries that hit a stored row are gathered.
        out = np.zeros(count)
        for i, values in zip(self._row_ids, self._block):
            hit = (rows == i + 1).nonzero()[0]
            out[hit] = values.take(cols.take(hit) - 1)
        return out

    def _gather_grid(self, rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
        """Answers to rows and cols broadcast to ``shape``, flat, unchecked."""
        if self._row_ids is None:
            n2 = self._target.spec.n2
            flat = np.multiply(rows, n2) + cols
            flat -= n2 + 1
            return self._block.take(flat.reshape(-1))
        out = np.zeros(shape)
        cols0 = cols - 1
        for i, values in zip(self._row_ids, self._block):
            np.copyto(out, values.take(cols0), where=rows == i + 1)
        return out.reshape(-1)


def open_adaptive(f: MixedMatrix, budget: int | None = UNBOUNDED) -> QueryTape:
    """Open a tape whose queries may depend on earlier answers."""
    return QueryTape(f, Mode.ADAPTIVE, budget, plan=None)


def open_nonadaptive(f: MixedMatrix, queries) -> QueryTape:
    """Open a tape that will answer exactly ``queries``, in order.

    ``queries`` is a :class:`Plan` or a sequence of 1-based (i, j) pairs;
    the budget equals its length. Out-of-range pairs of a sequence are
    rejected here, before any query is made; a plan's are rejected block by
    block, as ``query_many`` checks every batch. An ``(n, 2)`` array
    with contiguous columns, as ``draw_indices`` returns, is stored without a
    copy.
    """
    if isinstance(queries, Plan):
        return QueryTape(f, Mode.NONADAPTIVE, queries.size, queries)
    declared = np.asarray(queries, dtype=np.int64)
    if declared.size == 0:
        declared = declared.reshape(0, 2)
    if declared.ndim != 2 or declared.shape[1] != 2:
        raise ValueError("queries must be a sequence of (i, j) pairs")
    rows = np.ascontiguousarray(declared[:, 0])
    cols = np.ascontiguousarray(declared[:, 1])
    rows.setflags(write=False)
    cols.setflags(write=False)
    spec = f.spec
    if rows.size and not (_within(rows, spec.n1) and _within(cols, spec.n2)):
        raise IndexOutOfRange(
            f"declared indices outside [1, {spec.n1}] x [1, {spec.n2}]"
        )
    return QueryTape(f, Mode.NONADAPTIVE, rows.size, Plan(rows, cols))


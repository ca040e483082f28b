"""Counted, budgeted access to matrix entries.

Algorithms never touch a matrix directly: they read single entries through a
:class:`QueryTape`, which counts every query (repeats included), enforces an
optional budget, and enforces the access discipline:

* ADAPTIVE tapes answer any in-range query, so later queries may depend on
  earlier answers.
* NONADAPTIVE tapes fix the whole query sequence up front; any deviation from
  the declared order raises :class:`DisciplineViolation`. Non-adaptivity is
  thereby machine-checked structurally instead of audited after the fact.
  The declared plan is kept as two contiguous 1-based index arrays, exposed
  read-only as :attr:`QueryTape.declared`, so a non-adaptive estimator can
  answer the plan it was opened on without drawing it again.

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

import numpy as np

from .errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from .spaces import MixedMatrix, ProblemSpec

__all__ = [
    "Mode",
    "UNBOUNDED",
    "QueryTape",
    "open_adaptive",
    "open_nonadaptive",
    "query",
    "card",
]


class Mode(enum.Enum):
    ADAPTIVE = "adaptive"
    NONADAPTIVE = "nonadaptive"


#: Sentinel budget: the tape never refuses a query on budget grounds.
UNBOUNDED = None


class QueryTape:
    """Single-owner handle mediating all entry access to one matrix.

    Construct via :func:`open_adaptive` or :func:`open_nonadaptive`.
    """

    def __init__(
        self,
        target: MixedMatrix,
        mode: Mode,
        budget: int | None,
        declared: tuple[np.ndarray, np.ndarray] | None,
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
        self._declared = declared
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
    def declared(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only (rows, cols) of the declared plan; None when ADAPTIVE."""
        return self._declared

    def card(self) -> int:
        """Number of queries answered so far (repeats counted)."""
        return self._issued

    def _check_range(self, rows: np.ndarray, cols: np.ndarray) -> None:
        spec = self._target.spec
        if (
            rows.min() < 1
            or rows.max() > spec.n1
            or cols.min() < 1
            or cols.max() > spec.n2
        ):
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
        declared_rows, declared_cols = self._declared
        if self._cursor == 0 and rows is declared_rows and cols is declared_cols:
            return  # the whole plan, asked with the tape's own arrays
        end = self._cursor + count
        if end > declared_rows.size:
            raise DisciplineViolation(
                "query past the end of the declared sequence"
            )
        want_rows = declared_rows[self._cursor : end]
        want_cols = declared_cols[self._cursor : end]
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
            hit = np.flatnonzero(rows == i + 1)
            out[hit] = values.take(cols[hit] - 1)
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
    return QueryTape(f, Mode.ADAPTIVE, budget, declared=None)


def open_nonadaptive(f: MixedMatrix, queries) -> QueryTape:
    """Open a tape that will answer exactly ``queries``, in order.

    ``queries`` is a sequence of 1-based (i, j) pairs; the budget equals its
    length. Out-of-range pairs are rejected here, before any query is made.
    An ``(n, 2)`` array with contiguous columns, as ``draw_indices`` returns,
    is stored without a copy.
    """
    declared = np.asarray(queries, dtype=np.int64)
    if declared.size == 0:
        declared = declared.reshape(0, 2)
    if declared.ndim != 2 or declared.shape[1] != 2:
        raise ValueError("queries must be a sequence of (i, j) pairs")
    rows = np.ascontiguousarray(declared[:, 0])
    cols = np.ascontiguousarray(declared[:, 1])
    rows.flags.writeable = False
    cols.flags.writeable = False
    spec = f.spec
    if rows.size:
        if (
            rows.min() < 1
            or rows.max() > spec.n1
            or cols.min() < 1
            or cols.max() > spec.n2
        ):
            raise IndexOutOfRange(
                f"declared indices outside [1, {spec.n1}] x [1, {spec.n2}]"
            )
    return QueryTape(f, Mode.NONADAPTIVE, rows.size, declared=(rows, cols))


def query(tape: QueryTape, i: int, j: int) -> float:
    """Functional form of :meth:`QueryTape.query`."""
    return tape.query(i, j)


def card(tape: QueryTape) -> int:
    """Functional form of :meth:`QueryTape.card`."""
    return tape.card()

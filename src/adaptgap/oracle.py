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
queries one at a time, but at vectorized cost: one flat gather from the
row-major entries.
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


def _as_index_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D integer array")
    return arr


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
        # Row-major view of the entries (a copy only for non-C-ordered input).
        self._flat = target.entries.reshape(-1)
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
        if rows.size == 0:
            return
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

    def _check_declared(self, rows: np.ndarray, cols: np.ndarray) -> None:
        declared_rows, declared_cols = self._declared
        end = self._cursor + rows.size
        if end > declared_rows.size:
            raise DisciplineViolation(
                "query past the end of the declared sequence"
            )
        if not (
            np.array_equal(declared_rows[self._cursor : end], rows)
            and np.array_equal(declared_cols[self._cursor : end], cols)
        ):
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
                np.array([i], dtype=np.int64), np.array([j], dtype=np.int64)
            )
            self._cursor += 1
        self._issued += 1
        return float(self._target.entries[i - 1, j - 1])

    def query_many(self, rows, cols) -> np.ndarray:
        """Answer a batch of queries; equivalent to issuing them in order.

        The whole batch is validated first, so a failing batch charges
        nothing and leaves the tape unchanged.
        """
        rows = _as_index_array(rows, "rows")
        cols = _as_index_array(cols, "cols")
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        self._check_range(rows, cols)
        self._check_budget(rows.size)
        if self._mode is Mode.NONADAPTIVE:
            self._check_declared(rows, cols)
            self._cursor += rows.size
        self._issued += rows.size
        # Row-major offset (rows-1)*N2 + (cols-1), built in one buffer.
        n2 = self._target.spec.n2
        flat = np.multiply(rows, n2)
        flat += cols
        flat -= n2 + 1
        return self._flat.take(flat)


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

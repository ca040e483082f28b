"""Counted, budgeted access to matrix entries.

Algorithms never touch a matrix directly: they read entries through a
:class:`QueryTape`, which counts every query (repeats included), enforces an
optional budget, and enforces the access discipline:

* ADAPTIVE tapes answer any in-range query through ``query`` and
  ``query_many``, so later queries may depend on earlier answers.
* NONADAPTIVE tapes fix the whole query sequence up front, as a
  :class:`Plan`, and only answer it: ``answers`` yields the answers to the
  plan in order, once, in blocks of at most ``PLAN_BLOCK`` queries. Any
  other query raises :class:`DisciplineViolation`. Non-adaptivity thereby
  holds by construction: no answer can reach the choice of a query.

A plan holds flat entry indices: the query (i, j) is the 0-based row-major
position ``f = (i - 1) * N2 + (j - 1)``, so a plan addresses fewer than
2^63 entries. A plan is explicit or drawn. An explicit plan is converted
once, at :func:`open_nonadaptive`, into one int64 array: 8 bytes per query.
A drawn plan (:meth:`Plan.drawn`) holds only its generator and its length,
and draws each block of uniform flat indices as it hands the block out: one
bounded draw per query. Its values equal one draw of all n indices, because
numpy's ``Generator.integers`` drawn in pieces continues the same stream; so
it never holds more than a block of indices, however long the plan.

Query indices are 1-based, matching (i, j) in [1, N1] x [1, N2]. Failed
queries (budget or discipline errors) are not charged: the run is aborted,
not billed. ``query_many`` answers a batch with exactly the semantics of
issuing its queries one at a time, but at vectorized cost. Its row and
column arrays broadcast against each other, so a grid of a block of rows
against a few columns is one ``(r, 1) x (1, k)`` query, or
``(1, r, 1) x (q, 1, m)`` probe-major; the answers come back flat in C
order. A dense matrix is answered by one flat gather from its row-major
entries; a row-sparse one (see ``MixedMatrix.from_rows``) from its stored
rows, with zeros elsewhere, so no query ever builds the dense array; a grid
looks only at the stored rows between the least and the greatest row it
asks. A plan's block is answered the same way, from its flat indices: by
one gather when dense, and by one range test per stored row when
row-sparse.
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

#: Queries per block in which a plan is drawn and handed out, and about the
#: answers per block in which the adaptive estimator asks: 256 KiB per int64
#: index or float64 answer array. Temporaries of this size can stay on the
#: allocator's heap from block to block, while n-length ones are mapped,
#: faulted in and unmapped on every call: about 10 against 25k minor faults
#: per 32-trial ``gap`` run. With glibc they stay only under the thresholds
#: that ``cli.run`` sets (see ``cli._keep_freed_blocks``).
PLAN_BLOCK = 1 << 15


def _within(index: np.ndarray, high: int) -> bool:
    """Whether every entry of a nonempty integer array lies in [1, high]."""
    # The ufunc reductions skip the Python layer of ndarray.min and .max.
    return (
        np.minimum.reduce(index, axis=None) >= 1
        and np.maximum.reduce(index, axis=None) <= high
    )


def _plan_entries(n1: int, n2: int) -> int:
    """N1 * N2, or ``ValueError`` if flat int64 indices cannot address it."""
    entries = n1 * n2
    if entries >= 1 << 63:
        raise ValueError(
            f"N1*N2 = {n1}*{n2} = {entries} entries exceed what a plan's flat "
            "int64 indices address (below 2^63)"
        )
    return entries


class Plan:
    """The declared query sequence of a NONADAPTIVE tape, as flat entry
    indices ``(i - 1) * N2 + (j - 1)``.

    Build an explicit plan from pairs with :func:`open_nonadaptive`, or from
    int64 flat indices as ``Plan(size, flat)``, and a drawn one with
    :meth:`Plan.drawn`. ``flat`` holds every index of an explicit plan, and
    is None for a drawn one, whose indices exist only a block at a time.
    :meth:`blocks` hands the plan out, once.
    """

    def __init__(self, size: int, flat: np.ndarray | None = None, draw=None) -> None:
        self.size = size
        self.flat = flat
        self._draw = draw
        self._handed = False

    @classmethod
    def drawn(cls, n: int, n1: int, n2: int, generator) -> Plan:
        """n uniform entries of an N1 x N2 matrix from a numpy ``Generator``:
        the same flat indices as ``generator.integers(0, N1 * N2, size=n)``,
        drawn a block at a time as ``blocks`` hands them out."""
        entries = _plan_entries(n1, n2)
        return cls(n, draw=functools.partial(generator.integers, 0, entries))

    def blocks(self):
        """Yield the plan in order as int64 flat index blocks of at most
        ``PLAN_BLOCK`` queries.

        An explicit plan's blocks are views of its array. A drawn plan draws
        each block as it yields it. Either is handed out only once:
        iterating a second ``blocks()`` raises ``DisciplineViolation``.
        """
        if self._handed:
            raise DisciplineViolation("a plan is handed out only once")
        self._handed = True
        for start in range(0, self.size, PLAN_BLOCK):
            end = min(start + PLAN_BLOCK, self.size)
            if self.flat is None:
                yield self._draw(end - start)
            else:
                yield self.flat[start:end]


class QueryTape:
    """Single-owner handle mediating all entry access to one matrix.

    Construct via :func:`open_adaptive`, whose tape answers ``query`` and
    ``query_many``, or :func:`open_nonadaptive`, whose tape only answers its
    plan, through ``answers``.
    """

    def __init__(
        self,
        target: MixedMatrix,
        mode: Mode,
        budget: int | None,
        plan: Plan | None,
    ) -> None:
        self._spec = target.spec
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
        self._issued = 0

    @property
    def spec(self) -> ProblemSpec:
        return self._spec

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

    def card(self) -> int:
        """Number of queries answered so far (repeats counted)."""
        return self._issued

    def _check_range(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """Raise ``IndexOutOfRange`` unless nonempty rows and cols are in
        range; return the least and the greatest row."""
        spec = self._spec
        low = np.minimum.reduce(rows, axis=None)
        top = np.maximum.reduce(rows, axis=None)
        if not (low >= 1 and top <= spec.n1 and _within(cols, spec.n2)):
            raise IndexOutOfRange(
                f"query indices outside [1, {spec.n1}] x [1, {spec.n2}]"
            )
        return low, top

    def check_budget(self, count: int) -> None:
        """Raise ``BudgetExceeded`` unless ``count`` more queries fit in the
        budget. Charges nothing, so a caller that asks in several batches can
        refuse the whole before answering any of them."""
        if self._budget is not UNBOUNDED and self._issued + count > self._budget:
            raise BudgetExceeded(
                f"{self._issued} issued + {count} requested exceeds "
                f"budget {self._budget}"
            )

    def query(self, i: int, j: int) -> float:
        """Answer f(i, j) and charge one query; ADAPTIVE only."""
        return float(self.query_many(i, j)[0])

    def query_many(self, rows, cols) -> np.ndarray:
        """Answer a batch of queries; equivalent to issuing them in order.

        ``rows`` and ``cols`` are integer arrays that broadcast against each
        other; the queries are their broadcast pairs in C order, and so are
        the 1-D answers. The ranges of ``rows`` and ``cols`` are checked as
        given, and the broadcast size is charged. The whole batch is
        validated first, so a failing batch charges nothing and leaves the
        tape unchanged. A NONADAPTIVE tape answers only its plan, through
        :meth:`answers`, and raises ``DisciplineViolation`` here.
        """
        if self._mode is Mode.NONADAPTIVE:
            raise DisciplineViolation(
                "a NONADAPTIVE tape answers only its plan, through answers()"
            )
        return self._answer(rows, cols)

    def answers(self):
        """Yield the answers to the tape's plan in order, as one float64
        array per block of at most ``PLAN_BLOCK`` queries.

        Each block is checked and charged as a ``query_many`` batch is, so a
        block out of range or over the budget raises before it is charged.
        The plan is answered once: iterating a second ``answers()`` raises
        ``DisciplineViolation``, and so does calling it on an ADAPTIVE tape.
        """
        if self._mode is not Mode.NONADAPTIVE:
            raise DisciplineViolation("an ADAPTIVE tape has no plan to answer")
        return (self._answer_flat(flat) for flat in self._plan.blocks())

    def _answer_flat(self, flat: np.ndarray) -> np.ndarray:
        """Answer a block of flat entry indices: checked and charged as a
        ``query_many`` batch is."""
        spec = self._spec
        count = flat.size
        if count and not (
            np.minimum.reduce(flat) >= 0 and np.maximum.reduce(flat) < spec.n_entries
        ):
            raise IndexOutOfRange(
                f"plan entry indices outside [0, {spec.n_entries}) of a "
                f"{spec.n1} x {spec.n2} matrix"
            )
        self.check_budget(count)
        self._issued += count
        if self._row_ids is None:
            return self._block.take(flat)
        # Only the indices that fall in a stored row are gathered.
        n2 = spec.n2
        out = np.zeros(count)
        for i, values in zip(self._row_ids, self._block):
            low = i * n2
            hit = ((flat >= low) & (flat < low + n2)).nonzero()[0]
            out[hit] = values.take(flat.take(hit) - low)
        return out

    def _answer(self, rows, cols) -> np.ndarray:
        """``query_many`` without the discipline check."""
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
        asked = self._check_range(rows, cols) if count else (1, 0)
        self.check_budget(count)
        self._issued += count
        if shape is None:
            return self._gather(rows, cols, count)
        return self._gather_grid(rows, cols, shape, asked)

    def _gather(self, rows: np.ndarray, cols: np.ndarray, count: int) -> np.ndarray:
        """Answers to equally shaped 1-D rows and cols, unchecked."""
        if self._row_ids is None:
            # Row-major offset (rows-1)*N2 + (cols-1), built in one buffer.
            n2 = self._spec.n2
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

    def _gather_grid(
        self, rows: np.ndarray, cols: np.ndarray, shape, asked: tuple
    ) -> np.ndarray:
        """Answers to rows and cols broadcast to ``shape``, flat, unchecked.
        ``asked`` is the least and the greatest row in ``rows``: a stored row
        outside them is skipped, not compared against the whole grid."""
        if self._row_ids is None:
            n2 = self._spec.n2
            flat = np.multiply(rows, n2) + cols
            flat -= n2 + 1
            return self._block.take(flat.reshape(-1))
        low, top = asked
        out = np.zeros(shape)
        cols0 = cols - 1
        for i, values in zip(self._row_ids, self._block):
            if low <= i + 1 <= top:
                np.copyto(out, values.take(cols0), where=rows == i + 1)
        return out.reshape(-1)


def open_adaptive(f: MixedMatrix, budget: int | None = UNBOUNDED) -> QueryTape:
    """Open a tape whose queries may depend on earlier answers."""
    return QueryTape(f, Mode.ADAPTIVE, budget, plan=None)


def open_nonadaptive(f: MixedMatrix, queries) -> QueryTape:
    """Open a tape that answers exactly ``queries``, in order, through
    :meth:`QueryTape.answers`, and nothing else.

    ``queries`` is a :class:`Plan` or a sequence of 1-based (i, j) pairs;
    the budget equals its length. Out-of-range pairs of a sequence are
    rejected here, before any query is made, and the pairs are converted
    once into the plan's own flat indices; a plan's indices are rejected
    block by block, as ``answers`` checks every block.
    """
    if isinstance(queries, Plan):
        return QueryTape(f, Mode.NONADAPTIVE, queries.size, queries)
    declared = np.asarray(queries, dtype=np.int64)
    if declared.size == 0:
        declared = declared.reshape(0, 2)
    if declared.ndim != 2 or declared.shape[1] != 2:
        raise ValueError("queries must be a sequence of (i, j) pairs")
    rows, cols = declared[:, 0], declared[:, 1]
    spec = f.spec
    _plan_entries(spec.n1, spec.n2)
    if rows.size and not (_within(rows, spec.n1) and _within(cols, spec.n2)):
        raise IndexOutOfRange(
            f"declared indices outside [1, {spec.n1}] x [1, {spec.n2}]"
        )
    # (i - 1) * N2 + j - 1, whose partial sums stay below N1 * N2.
    flat = np.subtract(rows, 1)
    flat *= spec.n2
    flat += cols
    flat -= 1
    flat.setflags(write=False)
    return QueryTape(f, Mode.NONADAPTIVE, flat.size, Plan(flat.size, flat))

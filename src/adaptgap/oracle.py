"""Counted, budgeted access to matrix entries.

Algorithms never touch a matrix directly: they read entries through a
:class:`QueryTape`, which counts every query (repeats included), enforces a
budget, and enforces the access discipline, set by whether it holds a plan:

* ADAPTIVE tapes answer any in-range batch through ``query_many``, so later
  queries may depend on earlier answers.
* NONADAPTIVE tapes fix the whole query sequence up front, as a
  :class:`Plan`, and only answer it: ``answers`` yields the answers to the
  plan in order, once, in blocks of at most ``PLAN_BLOCK`` queries. Any
  other query raises :class:`DisciplineViolation`. Non-adaptivity thereby
  holds by construction: no answer can reach the choice of a query. The
  budget is the plan's size.

Query indices are 0-based, as numpy's are: (i, j) in [0, N1) x [0, N2). A
plan holds flat entry indices: the query (i, j) is the row-major position
``f = i * N2 + j``, which int64 holds because a :class:`ProblemSpec` has
fewer than 2^63 entries. A plan is explicit or drawn. An explicit plan is
``Plan(flat)``, its int64 flat indices, 8 bytes per query, as
``DirectSumElement.readout`` builds it; its size is their count. A drawn
plan (:meth:`Plan.drawn`) holds only its generator and its length, and draws
each block of uniform flat indices as it hands the block out: one bounded
draw per query. Its values equal one draw of all n indices, because numpy's
``Generator.integers`` drawn in pieces continues the same stream; so it
never holds more than a block of indices, however long the plan.
:func:`open_nonadaptive` takes a plan and nothing else.

:func:`open_nonadaptive` also opens a plan on a :class:`RowChunk` of T
one-row instances. Its tape hands each block of the plan out as T rows, row
r asking instance r, so a plan of T * n queries asks n of each instance; a
drawn plan's rows are those of ``integers(0, N1 * N2, size=(T, n))``.
Several instances must share one block; one instance takes its row in
pieces.

Failed queries (budget or discipline errors) are not charged: the run is
aborted, not billed. ``query_many`` answers a batch with exactly the
semantics of issuing its queries one at a time, but at vectorized cost.

There are two answer routes. An adaptive batch is a grid: its row and
column arrays broadcast against each other, so equally shaped pairs, a
block of rows against a few columns, ``(r, 1) x (1, k)``, and a probe-major
``(1, r, 1) x (q, 1, m)`` are all one query, answered flat in C order. A
dense matrix answers it by one flat gather from its row-major entries; a
row-sparse one (see ``MixedMatrix.from_rows``) from its stored rows, with
zeros elsewhere, looking only at the stored rows between the least and the
greatest row asked, so no query ever builds the dense array. A plan's block
is answered from its flat indices: by one gather when dense, and by one
unsigned range test of the offsets into each stored row when row-sparse; a
chunk's block by one such test of each row against its instance's stored
row.

The first tape a process builds also sets glibc's malloc thresholds (see
``_keep_freed_blocks``), so that the block temporaries of every caller,
the CLI's and the library's alike, stay on the heap from block to block.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from .spaces import MixedMatrix, ProblemSpec, RowChunk, as_count

__all__ = [
    "Mode",
    "PLAN_BLOCK",
    "Plan",
    "QueryTape",
    "open_adaptive",
    "open_nonadaptive",
]


class Mode(enum.Enum):
    ADAPTIVE = "adaptive"
    NONADAPTIVE = "nonadaptive"


#: Queries per block in which a plan is drawn and handed out, and about the
#: answers per block in which the adaptive estimator asks: 256 KiB per int64
#: index or float64 answer array. Temporaries of this size can stay on the
#: allocator's heap from block to block, while n-length ones are mapped,
#: faulted in and unmapped on every call: about 10 against 25k minor faults
#: per 32-trial ``gap`` run. With glibc they stay only under the thresholds
#: that the first tape sets (see ``_keep_freed_blocks``).
PLAN_BLOCK = 1 << 15


@functools.cache
def _keep_freed_blocks() -> None:
    """Keep the estimators' freed block temporaries on glibc's malloc heap;
    run once per process, by the first :class:`QueryTape`.

    Their blocks of ``PLAN_BLOCK`` queries allocate 256 KiB arrays, about
    1 MiB per block. glibc's default thresholds map such arrays, or trim them
    off the heap when freed, so every block faults them in again: about
    12,000 minor faults per ``gap --trials 8`` run, at about 3.5 us each on a
    shared 2-core host. Serving arrays up to 1 MiB from the heap and keeping
    up to 8 MiB of free heap top brings that to about 15. Without glibc this
    does nothing.
    """
    import ctypes  # deferred: only a tape needs it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


class Plan:
    """The declared query sequence of a NONADAPTIVE tape, as flat entry
    indices ``i * N2 + j``.

    Build an explicit plan from a 1-D integer array of flat indices as
    ``Plan(flat)``, and a drawn one with :meth:`Plan.drawn`. ``flat`` holds
    every index of an explicit plan as int64, with no copy of int64 input,
    and is None for a drawn one, whose indices exist only a block at a time.
    ``size`` is the number of queries. :meth:`blocks` hands the plan out,
    once. Float indices raise ``TypeError``, other shapes ``ValueError``.
    """

    def __init__(self, flat) -> None:
        self.flat = np.asarray(flat).astype(np.int64, casting="same_kind", copy=False)
        if self.flat.ndim != 1:
            raise ValueError("a plan's flat indices are a 1-D array")
        self.size = len(self.flat)
        self._draw = None
        self._handed = False

    @classmethod
    def drawn(cls, n: int, spec: ProblemSpec, generator) -> Plan:
        """n uniform entries of a ``spec`` matrix from a numpy ``Generator``:
        the same flat indices as ``generator.integers(0, N1 * N2, size=n)``,
        drawn a block at a time as ``blocks`` hands them out. An n that is
        negative or not an integer (a str included) raises ``ValueError``,
        in one message for every refusal.
        """
        try:
            size = as_count(n, "n")
        except ValueError:
            size = None
        if size is None or size < 0:
            raise ValueError(f"a plan's size must be a nonnegative integer, got {n}")
        plan = cls.__new__(cls)
        plan.flat, plan.size, plan._handed = None, size, False
        plan._draw = functools.partial(generator.integers, 0, spec.n_entries)
        return plan

    def blocks(self):
        """Yield the plan in order as 1-D int64 flat index blocks of at most
        ``PLAN_BLOCK`` queries.

        An explicit plan's blocks are views of its array; a drawn plan draws
        each block as it yields it. Either is handed out only once:
        iterating a second ``blocks()`` raises ``DisciplineViolation``.
        """
        if self._handed:
            raise DisciplineViolation("a plan is handed out only once")
        self._handed = True
        for start in range(0, self.size, PLAN_BLOCK):
            end = min(start + PLAN_BLOCK, self.size)
            yield self._draw(end - start) if self.flat is None else self.flat[start:end]


class QueryTape:
    """Single-owner handle mediating all entry access to one matrix.

    Construct via :func:`open_adaptive`, whose tape answers ``query_many``
    up to its budget, or :func:`open_nonadaptive`, whose tape only answers
    its plan, through ``answers``, and whose budget is the plan's size; on
    a :class:`RowChunk` it hands each block out as one row per instance.
    """

    def __init__(self, target: MixedMatrix | RowChunk, plan_or_budget: Plan | int) -> None:
        _keep_freed_blocks()
        self._spec = target.spec
        # The stored rows: the whole C-ordered matrix when dense.
        self._row_ids = target.row_ids
        self._block = target.block
        # A chunk's instance count: the rows each plan block is cut into.
        self._instances = len(target.row_ids) if isinstance(target, RowChunk) else None
        if isinstance(plan_or_budget, Plan):
            self._plan, budget = plan_or_budget, plan_or_budget.size
        else:
            self._plan, budget = None, as_count(plan_or_budget, "budget")
            if budget < 0:
                raise ValueError("budget must be nonnegative")
        self._budget = budget
        self._issued = 0

    @property
    def spec(self) -> ProblemSpec:
        return self._spec

    @property
    def mode(self) -> Mode:
        return Mode.ADAPTIVE if self._plan is None else Mode.NONADAPTIVE

    @property
    def budget(self) -> int:
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
        # The ufunc reductions skip the Python layer of ndarray.min and .max.
        # Columns are read as unsigned, as in ``_answer_flat``.
        low = np.minimum.reduce(rows, axis=None)
        top = np.maximum.reduce(rows, axis=None)
        if not (
            low >= 0 and top < spec.n1
            and np.maximum.reduce(cols.view(np.uint64), axis=None) < spec.n2
        ):
            raise IndexOutOfRange(
                f"query indices outside [0, {spec.n1}) x [0, {spec.n2})"
            )
        return low, top

    def check_budget(self, count: int) -> None:
        """Raise ``BudgetExceeded`` unless ``count`` more queries fit in the
        budget. Charges nothing, so a caller that asks in several batches can
        refuse the whole before answering any of them."""
        if self._issued + count > self._budget:
            raise BudgetExceeded(
                f"{self._issued} issued + {count} requested exceeds "
                f"budget {self._budget}"
            )

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
        if self._plan is not None:
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
        On a chunk of T instances each block of answers is ``(T, width)``.
        """
        if self._plan is None:
            raise DisciplineViolation("an ADAPTIVE tape has no plan to answer")
        blocks, instances = self._plan.blocks(), self._instances
        if instances is not None:
            blocks = (flat.reshape(instances, -1) for flat in blocks)
        return (self._answer_flat(flat) for flat in blocks)

    def _answer_flat(self, flat: np.ndarray) -> np.ndarray:
        """Answer a block of flat entry indices: checked and charged as a
        ``query_many`` batch is. ``flat`` is int64: read as unsigned, a
        negative index is 2^63 or more, so one pass checks both ends. A 2-D
        block is a chunk's: its row r asks instance r."""
        spec = self._spec
        count = flat.size
        if count and not np.maximum.reduce(flat.view(np.uint64), axis=None) < spec.n_entries:
            raise IndexOutOfRange(
                f"plan entry indices outside [0, {spec.n_entries}) of a "
                f"{spec.n1} x {spec.n2} matrix"
            )
        self.check_budget(count)
        self._issued += count
        if self._row_ids is None:
            return self._block.take(flat)
        # Only the indices that fall in a stored row are gathered: those
        # whose offset from its start lies in [0, N2). Read as unsigned, a
        # negative offset does not.
        n2 = spec.n2
        if flat.ndim == 2:
            # Row r against instance r's row, at r * N2 in the flat block;
            # found and gathered flat, as 1-D indexing is faster than 2-D.
            off = np.subtract(flat, self._row_ids[:, None] * n2, dtype=np.int64)
            hit = (off.view(np.uint64) < n2).reshape(-1).nonzero()[0]
            out = np.zeros(flat.shape)
            trial_start = hit // flat.shape[1] * n2
            out.reshape(-1)[hit] = self._block.take(off.reshape(-1).take(hit) + trial_start)
            return out
        out = np.zeros(count)
        for i, values in zip(self._row_ids, self._block):
            off = np.subtract(flat, i * n2, dtype=np.int64)
            hit = (off.view(np.uint64) < n2).nonzero()[0]
            out[hit] = values.take(off.take(hit))
        return out

    def _answer(self, rows, cols) -> np.ndarray:
        """``query_many`` without the discipline check: the answers to rows
        and cols broadcast against each other, flat in C order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        grid = np.broadcast(rows, cols)
        count = grid.size
        # The least and the greatest row asked: a stored row outside them is
        # skipped, not compared against the whole grid.
        low, top = self._check_range(rows, cols) if count else (0, -1)
        self.check_budget(count)
        self._issued += count
        if self._row_ids is None:
            return self._block.take(np.multiply(rows, self._spec.n2) + cols).reshape(-1)
        out = np.zeros(grid.shape)
        for i, values in zip(self._row_ids, self._block):
            if low <= i <= top:
                np.copyto(out, values.take(cols), where=rows == i)
        return out.reshape(-1)


def open_adaptive(f: MixedMatrix, budget: int) -> QueryTape:
    """Open a tape whose queries may depend on earlier answers, refusing any
    batch that would take it past ``budget`` queries."""
    if isinstance(budget, Plan) or isinstance(f, RowChunk):
        raise TypeError("open_adaptive takes one matrix and a budget")
    return QueryTape(f, budget)


def open_nonadaptive(f: MixedMatrix | RowChunk, plan: Plan) -> QueryTape:
    """Open a tape that answers exactly ``plan``, in order, through
    :meth:`QueryTape.answers`, and nothing else; the budget equals the
    plan's size. Anything but a :class:`Plan` raises ``TypeError``.

    On a chunk of T instances the plan asks each its ``size / T`` queries.
    An empty chunk, a size that T does not divide, and a plan over more than
    one instance that does not fit one block of ``PLAN_BLOCK`` queries are
    refused with ``ValueError``, before anything is charged.
    """
    if not isinstance(plan, Plan):
        raise TypeError(f"open_nonadaptive takes a Plan, not {type(plan).__name__}")
    if isinstance(f, RowChunk):
        instances = len(f.row_ids)
        if not instances:
            raise ValueError("a chunk must hold at least one instance")
        if plan.size % instances or instances > 1 and plan.size > PLAN_BLOCK:
            raise ValueError(
                f"a plan of {plan.size} queries does not split into {instances} "
                f"equal rows within one block of {PLAN_BLOCK}"
            )
    return QueryTape(f, plan)

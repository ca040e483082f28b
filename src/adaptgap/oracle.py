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

A plan holds flat entry indices: the query (i, j) is the 0-based row-major
position ``f = (i - 1) * N2 + (j - 1)``, which int64 holds because a
:class:`ProblemSpec` has fewer than 2^63 entries. A plan is explicit or
drawn. An explicit plan is ``Plan(flat)``, its int64 flat indices, 8 bytes
per query, as ``DirectSumElement.readout`` builds it; its size is their
count. A drawn plan (:meth:`Plan.drawn`) holds only its generator and
its length, and draws each block of uniform flat indices as it hands the
block out: one bounded draw per query. Its values equal one draw of all n
indices, because numpy's ``Generator.integers`` drawn in pieces continues
the same stream; so it never holds more than a block of indices, however
long the plan. :func:`open_nonadaptive` takes a plan and nothing else.

Query indices are 1-based, matching (i, j) in [1, N1] x [1, N2]. Failed
queries (budget or discipline errors) are not charged: the run is aborted,
not billed. ``query_many`` answers a batch with exactly the semantics of
issuing its queries one at a time, but at vectorized cost.

There are two answer routes. An adaptive batch is a grid: its row and
column arrays broadcast against each other, so equally shaped pairs, a
block of rows against a few columns, ``(r, 1) x (1, k)``, and a probe-major
``(1, r, 1) x (q, 1, m)`` are all one query, answered flat in C order. A
dense matrix answers it by one flat gather from its row-major entries; a
row-sparse one (see ``MixedMatrix.from_rows``) from its stored rows, with
zeros elsewhere, looking only at the stored rows between the least and the
greatest row asked, so no query ever builds the dense array. A plan's block
is answered from its flat indices: by one gather when dense, and by one
unsigned range test of the offsets into each stored row when row-sparse.

The first tape a process builds also sets glibc's malloc thresholds (see
``_keep_freed_blocks``), so that the block temporaries of every caller,
the CLI's and the library's alike, stay on the heap from block to block.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import BudgetExceeded, DisciplineViolation, IndexOutOfRange
from .spaces import MixedMatrix, ProblemSpec

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
    indices ``(i - 1) * N2 + (j - 1)``.

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
        drawn a block at a time as ``blocks`` hands them out. A negative n
        raises ``ValueError``."""
        if n < 0:
            raise ValueError("a plan's size must be nonnegative")
        plan = cls.__new__(cls)
        plan.flat, plan.size, plan._handed = None, n, False
        plan._draw = functools.partial(generator.integers, 0, spec.n_entries)
        return plan

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

    Construct via :func:`open_adaptive`, whose tape answers ``query_many``
    up to its budget, or :func:`open_nonadaptive`, whose tape only answers
    its plan, through ``answers``, and whose budget is the plan's size.
    """

    def __init__(self, target: MixedMatrix, plan_or_budget: Plan | int) -> None:
        _keep_freed_blocks()
        self._spec = target.spec
        # The stored rows: the whole C-ordered matrix when dense.
        self._row_ids = target.row_ids
        self._block = target.block
        if isinstance(plan_or_budget, Plan):
            self._plan, budget = plan_or_budget, plan_or_budget.size
        else:
            self._plan, budget = None, int(plan_or_budget)
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
        low = np.minimum.reduce(rows, axis=None)
        top = np.maximum.reduce(rows, axis=None)
        if not (
            low >= 1 and top <= spec.n1
            and np.minimum.reduce(cols, axis=None) >= 1
            and np.maximum.reduce(cols, axis=None) <= spec.n2
        ):
            raise IndexOutOfRange(
                f"query indices outside [1, {spec.n1}] x [1, {spec.n2}]"
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
        """
        if self._plan is None:
            raise DisciplineViolation("an ADAPTIVE tape has no plan to answer")
        return (self._answer_flat(flat) for flat in self._plan.blocks())

    def _answer_flat(self, flat: np.ndarray) -> np.ndarray:
        """Answer a block of flat entry indices: checked and charged as a
        ``query_many`` batch is. ``flat`` is int64: read as unsigned, a
        negative index is 2^63 or more, so one pass checks both ends."""
        spec = self._spec
        count = flat.size
        if count and not np.maximum.reduce(flat.view(np.uint64)) < spec.n_entries:
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
        low, top = self._check_range(rows, cols) if count else (1, 0)
        self.check_budget(count)
        self._issued += count
        if self._row_ids is None:
            n2 = self._spec.n2
            flat = np.multiply(rows, n2) + cols
            flat -= n2 + 1
            return self._block.take(flat.reshape(-1))
        out = np.zeros(grid.shape)
        cols0 = cols - 1
        for i, values in zip(self._row_ids, self._block):
            if low <= i + 1 <= top:
                np.copyto(out, values.take(cols0), where=rows == i + 1)
        return out.reshape(-1)


def open_adaptive(f: MixedMatrix, budget: int) -> QueryTape:
    """Open a tape whose queries may depend on earlier answers, refusing any
    batch that would take it past ``budget`` queries."""
    return QueryTape(f, int(budget))  # int() refuses a Plan


def open_nonadaptive(f: MixedMatrix, plan: Plan) -> QueryTape:
    """Open a tape that answers exactly ``plan``, in order, through
    :meth:`QueryTape.answers`, and nothing else; the budget equals the
    plan's size. Anything but a :class:`Plan` raises ``TypeError``.
    """
    if not isinstance(plan, Plan):
        raise TypeError(f"open_nonadaptive takes a Plan, not {type(plan).__name__}")
    return QueryTape(f, plan)

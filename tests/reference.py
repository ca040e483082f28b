"""Reference routes to plain Monte Carlo that the package no longer ships.

The package answers a2 one way: ``run_a2`` opens a NONADAPTIVE tape on
``draw_plan``'s flat indices, and ``mc_mean_a2`` sums its answers. The
tests check that route against the older ones kept here:

* ``draw_pairs`` -- the same uniform draw, taken at once and split into
  (i, j) pairs, 0-based as every tape query is;
* ``pairs_plan`` -- an explicit ``Plan`` from such pairs, range-checked and
  converted once into int64 flat indices;
* ``a2_by_pairs`` -- a2 on an ADAPTIVE tape: the drawn plan split into
  pairs and asked block by block through ``query_many``.
"""

import numpy as np

from adaptgap.errors import IndexOutOfRange
from adaptgap.estimators import EstimateReport, _plan_length, draw_plan
from adaptgap.oracle import Plan, open_adaptive


def _pairs(flat, n2):
    """The (rows, cols) of row-major flat entry indices."""
    return np.divmod(flat, n2)


def _within(index, high):
    """Whether every entry of a nonempty integer array lies in [0, high)."""
    return index.min() >= 0 and index.max() < high


def draw_pairs(spec, n, rng):
    """The n uniform (i, j) pairs of ``draw_plan(spec, n, rng)``, as one
    ``(n, 2)`` array: its flat indices, drawn at once and split into pairs."""
    n = _plan_length(n)
    flat = rng.generator().integers(0, spec.n_entries, size=n)
    return np.array(_pairs(flat, spec.n2)).T


def pairs_plan(spec, pairs):
    """An explicit ``Plan`` of (i, j) pairs: ``IndexOutOfRange`` if a
    pair lies outside the ``spec``, and otherwise the pairs converted once
    into a read-only int64 array of flat indices that the caller's array
    does not share."""
    declared = np.asarray(pairs, dtype=np.int64)
    if declared.size == 0:
        declared = declared.reshape(0, 2)
    if declared.ndim != 2 or declared.shape[1] != 2:
        raise ValueError("queries must be a sequence of (i, j) pairs")
    rows, cols = declared[:, 0], declared[:, 1]
    if rows.size and not (_within(rows, spec.n1) and _within(cols, spec.n2)):
        raise IndexOutOfRange(
            f"declared indices outside [0, {spec.n1}) x [0, {spec.n2})"
        )
    # i * N2 + j, whose partial sums stay below N1 * N2.
    flat = np.multiply(rows, spec.n2)
    flat += cols
    flat.setflags(write=False)
    return Plan(flat)


def a2_by_pairs(f, n, rng):
    """a2 on an ADAPTIVE tape of ``f``: ``draw_plan(f.spec, n, rng)`` split
    into pairs and asked block by block through ``query_many``; the value is
    the sum of the block sums over n."""
    plan = draw_plan(f.spec, n, rng)
    tape = open_adaptive(f, budget=plan.size)
    total = None
    for flat in plan.blocks():
        block = np.add.reduce(tape.query_many(*_pairs(flat, f.spec.n2)))
        total = block if total is None else total + block
    return EstimateReport(value=float(total / plan.size), cards=plan.size)

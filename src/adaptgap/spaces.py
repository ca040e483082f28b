"""Finite mixed-norm sequence spaces of real matrices.

An ``N1 x N2`` real matrix is treated as a function on the index grid. Its
mixed norm takes the averaged ``L_u`` norm of each row and then the averaged
``L_p`` norm of the resulting row-norm vector:

    row_norm(r, u)  = ((1/N2) * sum_j |r_j|^u)^(1/u)        (u finite)
                    = max_j |r_j|                            (u = INF)
    mixed_norm(f)   = ((1/N1) * sum_i row_norm(f_i, u)^p)^(1/p)

The mean functional averages all entries and has operator norm one, so
|scalar_mean(f)| <= mixed_norm(f) for every matrix.

A :class:`MixedMatrix` stores either the whole dense array or, for matrices
with few nonzero rows, only those rows: their 0-based row ids and an
``r x N2`` block. ``MixedMatrix(spec, entries)`` builds the dense form and
``MixedMatrix.from_rows`` the row-sparse one. Query tapes and
``scalar_mean`` read the stored rows directly; ``MixedMatrix.entries`` is
the full dense array, built on first access and cached, for the readers that
need every entry (``mixed_norm``). A :class:`RowChunk` holds a chunk of
one-row matrices of one spec as arrays, one row id and one row each.

Exponents are plain floats with ``INF`` (``math.inf``) as the sentinel for
the supremum norm; finite exponents must lie in [1, inf). Every exponent a
caller passes goes through ``as_exponent``, every count through ``as_count``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent

__all__ = [
    "INF",
    "as_exponent",
    "as_count",
    "abbreviate",
    "inverse_power",
    "ProblemSpec",
    "MixedMatrix",
    "RowChunk",
    "row_norm",
    "mixed_norm",
    "mixed_norm_many",
    "scalar_mean",
]

INF = math.inf


def as_exponent(value) -> float:
    """Validate and return an extended exponent.

    Accepts any real ``>= 1`` or ``INF``; raises :class:`InvalidExponent`
    otherwise.
    """
    x = float(value)
    if math.isnan(x) or x < 1.0:
        raise InvalidExponent(f"exponent must be >= 1 or INF, got {value!r}")
    return x


# Built once: as_count runs several times in every estimator trial.
_INTEGERS, _FLOATS = (int, np.integer), (float, np.floating)


def as_count(value, name: str) -> int:
    """An int, numpy integer or float with no fraction, as an int; anything
    else (a str, NaN, inf, 2.5) raises ``ValueError`` naming ``name``."""
    if isinstance(value, _INTEGERS) or isinstance(value, _FLOATS) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value}")


def abbreviate(n: int):
    """n itself below 2^64, else ``"2^k or more"`` with 2^k <= n < 2^(k+1)."""
    return n if n < 1 << 64 else f"2^{n.bit_length() - 1} or more"


def inverse_power(base: float, e: float) -> float:
    """base**(1/e), with the convention base**(1/INF) = 1."""
    e = as_exponent(e)
    if e == INF:
        return 1.0
    return float(base) ** (1.0 / e)


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensions and exponents (N1, N2, p, u) of one mean-computation space.

    N1*N2 must lie below 2^63, so that an int64 ``i * N2 + j`` addresses
    every 0-based entry (i, j); a larger space raises ``ValueError``.
    """

    n1: int
    n2: int
    p: float
    u: float

    def __post_init__(self) -> None:
        for name in ("n1", "n2"):
            if (side := as_count(getattr(self, name), name)) < 1:
                raise ValueError(f"{name} must be a positive integer, got {side}")
            object.__setattr__(self, name, side)
        if self.n_entries >= 1 << 63:
            # Sides below 2^64 have their product printed in full.
            huge = max(self.n1, self.n2) >= 1 << 64
            raise ValueError(
                f"N1*N2 = {abbreviate(self.n1)}*{abbreviate(self.n2)} = "
                f"{abbreviate(self.n_entries) if huge else self.n_entries} entries "
                "exceed what a plan's flat int64 indices address (below 2^63)"
            )
        object.__setattr__(self, "p", as_exponent(self.p))
        object.__setattr__(self, "u", as_exponent(self.u))

    @property
    def n_entries(self) -> int:
        return self.n1 * self.n2


class MixedMatrix:
    """An element of the mixed-norm space: a spec plus a finite real matrix.

    ``MixedMatrix(spec, entries)`` keeps a private C-ordered copy of
    ``entries``, so the caller's array stays writable and later writes to it
    do not reach the matrix. The matrix is immutable: every array it exposes
    is read-only. Entries must be real and finite; complex input raises
    ``ValueError`` instead of losing its imaginary part.
    """

    __slots__ = ("_spec", "_row_ids", "_block", "_entries")

    def __init__(self, spec: ProblemSpec, entries) -> None:
        self._store(spec, None, _real_copy(entries))

    @classmethod
    def from_rows(cls, spec: ProblemSpec, row_ids, block) -> MixedMatrix:
        """The matrix that is zero outside the rows ``row_ids``.

        ``row_ids`` are distinct 0-based row positions and ``block`` holds
        their values, one row of ``block`` per id; ``block`` is copied.
        """
        ids = tuple(as_count(i, "row id") for i in row_ids)
        return cls._adopt(spec, ids, _real_copy(block))

    @classmethod
    def _adopt(
        cls, spec: ProblemSpec, row_ids: tuple[int, ...] | None, block: np.ndarray
    ) -> MixedMatrix:
        """Take ``block`` (a fresh float64 array) without a copy; for
        samplers that hand over an array nobody else holds."""
        f = cls.__new__(cls)
        f._store(spec, row_ids, block)
        return f

    def _store(
        self, spec: ProblemSpec, row_ids: tuple[int, ...] | None, block: np.ndarray
    ) -> None:
        expected = (spec.n1 if row_ids is None else len(row_ids), spec.n2)
        if block.shape != expected:
            raise ValueError(
                f"entries shape {block.shape} does not match {expected} "
                f"for spec ({spec.n1}, {spec.n2})"
            )
        if row_ids is not None and (
            len(set(row_ids)) != len(row_ids)
            or not all(0 <= i < spec.n1 for i in row_ids)
        ):
            raise ValueError(f"row ids must be distinct and in [0, {spec.n1})")
        self._spec = spec
        self._row_ids = row_ids
        self._block = _frozen(block)
        self._entries = block if row_ids is None else None

    def __reduce__(self):
        # Rebuilt through the validating path, so copies are read-only too.
        return (MixedMatrix._adopt, (self._spec, self._row_ids, self._block))

    @property
    def spec(self) -> ProblemSpec:
        return self._spec

    @property
    def row_ids(self) -> tuple[int, ...] | None:
        """0-based ids of the stored rows; None for a dense matrix."""
        return self._row_ids

    @property
    def block(self) -> np.ndarray:
        """The stored rows, one per row id; the whole matrix when dense."""
        return self._block

    @property
    def entries(self) -> np.ndarray:
        """The dense ``N1 x N2`` array, read-only; built once when sparse."""
        if self._entries is None:
            dense = np.zeros((self._spec.n1, self._spec.n2))
            dense[list(self._row_ids)] = self._block
            dense.setflags(write=False)
            self._entries = dense
        return self._entries


@dataclass(frozen=True, eq=False)
class RowChunk:
    """T one-row matrices of one spec: instance r is zero but for row
    ``row_ids[r]``, which holds ``block[r]``. Both are kept as read-only
    copies: int64 ids in [0, N1), not necessarily distinct, and a finite real
    ``(T, N2)`` block. Float ids raise ``TypeError``, other refusals
    ``ValueError``, as ``MixedMatrix`` refuses its rows."""

    spec: ProblemSpec
    row_ids: np.ndarray
    block: np.ndarray

    def __post_init__(self) -> None:
        n1, n2 = self.spec.n1, self.spec.n2
        ids = np.asarray(self.row_ids).astype(np.int64, casting="same_kind")
        block = _real_copy(self.block)
        if ids.ndim != 1 or block.shape != (len(ids), n2):
            raise ValueError(f"row ids of shape {ids.shape} and rows of shape {block.shape}"
                             f" do not match a chunk of {n2}-entry rows")
        # Read as unsigned, a negative id is 2^63 or more.
        if len(ids) and not np.maximum.reduce(ids.view(np.uint64)) < n1:
            raise ValueError(f"row ids must be in [0, {n1})")
        ids.setflags(write=False)
        object.__setattr__(self, "row_ids", ids)
        object.__setattr__(self, "block", _frozen(block))


def _frozen(block: np.ndarray) -> np.ndarray:
    """``block``, made read-only, once every entry is checked finite."""
    # The ufunc reduction skips the Python layer of ndarray.all.
    if not np.logical_and.reduce(np.isfinite(block), axis=None):
        raise ValueError("entries must all be finite")
    block.setflags(write=False)
    return block


def _real_copy(values) -> np.ndarray:
    """A fresh C-ordered float64 copy of ``values``, which must be real."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"entries must be real, got {arr.dtype} values")
    return np.array(arr, dtype=np.float64, order="C")


def _vector_norm(values: np.ndarray, e: float, axis: int) -> np.ndarray:
    """Averaged L_e norm along ``axis`` (max for e = INF)."""
    a = np.abs(values)
    if e == INF:
        return a.max(axis=axis)
    if e == 1.0:
        return a.mean(axis=axis)
    if e == 2.0:
        return np.sqrt((a * a).mean(axis=axis))
    return (a**e).mean(axis=axis) ** (1.0 / e)


def row_norm(row, u) -> float:
    """Averaged L_u norm of a single row vector.

    When the direct power mean is not finite, or the largest power falls
    below the normal range, the row is first divided by its largest
    magnitude, so the largest power is 1: at u = 1e308 the row 2, 0, 0, 0
    has norm about 2, not inf. Every in-range row keeps its direct value bit
    for bit.
    """
    arr = np.asarray(row, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("row must be a nonempty 1-D vector")
    u = as_exponent(u)
    top = np.maximum.reduce(np.abs(arr))
    with np.errstate(over="ignore"):
        norm = float(_vector_norm(arr, u, axis=0))
        largest = top**u
    if u == INF or top == 0.0 or (
        math.isfinite(norm) and largest >= sys.float_info.min
    ):
        return norm
    return float(top * _vector_norm(arr / top, u, axis=0))


def mixed_norm(f: MixedMatrix) -> float:
    """Mixed norm: L_p over rows of the per-row L_u norms."""
    return float(mixed_norm_many(f.entries[np.newaxis], f.spec.p, f.spec.u)[0])


def mixed_norm_many(stack, p, u) -> np.ndarray:
    """Mixed norms of a stack of equally shaped matrices.

    ``stack`` has shape (batch, N1, N2); returns a length-``batch`` vector.
    """
    arr = np.asarray(stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("stack must have shape (batch, n1, n2)")
    p = as_exponent(p)
    u = as_exponent(u)
    rows = _vector_norm(arr, u, axis=2)
    return np.asarray(_vector_norm(rows, p, axis=1), dtype=np.float64)


def scalar_mean(f: MixedMatrix) -> float:
    """Arithmetic mean of all N1*N2 entries (exact full readout).

    Sums the stored rows only: the other rows are zero.
    """
    # np.add.reduce over every axis is what ndarray.sum computes.
    return float(np.add.reduce(f.block, axis=None)) / f.spec.n_entries

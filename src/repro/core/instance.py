"""The PAR problem model: photos, pre-defined subsets, and instances.

This module implements the formal model of Section 3.1 of the paper.  A
:class:`PARInstance` is the validated tuple ``⟨P, S0, Q, C, W, R, SIM, B⟩``,
held as arrays:

* ``P`` and ``C`` — the photo archive as a cost column ``costs`` (photo
  ``p`` is row ``p``, ids ``0 .. n-1``), with optional ``labels`` and
  ``metadata`` columns,
* ``S0`` — the retention set (photos that must be kept, e.g. for legal or
  policy reasons),
* ``Q`` — the pre-defined subsets (landing pages, albums, query results),
  each a :class:`PredefinedSubset` holding its ``members`` array, its
  importance weight ``W(q)``, normalised relevance scores ``R(q, ·)`` and
  contextualised similarity ``SIM(q, ·, ·)``,
* ``B`` — the storage budget in bytes.

Every check runs as a vector operation over those arrays.  Per-photo
:class:`Photo` records, the ``membership`` lists and a subset's
photo-to-local map are views built on first use, for the few callers
that read them; no solver does.

Similarities are stored *per subset* because the paper's SIM function is
contextual: the same pair of photos may have different similarity in
different subsets.  Two interchangeable backends are provided:

* :class:`DenseSimilarity` — an ``m × m`` matrix, the natural form for the
  exact (non-sparsified) instance;
* :class:`SparseSimilarity` — per-row neighbour lists, the form produced by
  τ-sparsification (Section 4.3).  Entries absent from a row are treated as
  similarity 0, exactly matching the paper's "round down to zero" semantics,
  except the mandatory self-similarity of 1 which is always present.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InfeasibleError, ValidationError

__all__ = [
    "Photo",
    "DenseSimilarity",
    "SparseSimilarity",
    "SimilarityBackend",
    "PredefinedSubset",
    "SubsetSpec",
    "PARInstance",
    "IncidenceCSR",
    "as_ids",
    "build_incidence",
    "normalize_relevance",
]

_SIM_ATOL = 1e-9
_INT64_LIMIT = 2.0**63


def as_ids(values, what: str) -> np.ndarray:
    """``values`` as an int64 array of photo or entry ids.

    Integers pass through, as do floats with integral values.  A
    fractional, non-finite, non-numeric or out-of-int64 entry raises
    :class:`ValidationError` instead of being truncated.  An int64 array
    is returned as is; anything else is a new array.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be integers") from exc
    kind = arr.dtype.kind
    if kind == "f":
        if not np.all(np.isfinite(arr)) or np.any(arr != np.trunc(arr)):
            raise ValidationError(f"{what} must be integers")
        if arr.size and np.abs(arr).max() >= _INT64_LIMIT:
            raise ValidationError(f"{what} overflow int64")
    elif kind == "u":
        if arr.size and int(arr.max()) >= _INT64_LIMIT:
            raise ValidationError(f"{what} overflow int64")
    elif kind not in "ib":
        raise ValidationError(f"{what} must be integers")
    return arr.astype(np.int64, copy=False)


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`ValidationError` when a row of ``values`` holds a NaN
    or an infinity, before it reaches arithmetic that would spread it."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise ValidationError(f"{what}: row {row} is not finite")


def _in_unit_interval(values: np.ndarray) -> bool:
    """Every value lies in ``[0, 1]`` within tolerance (NaN never does)."""
    return bool(np.all((values >= -_SIM_ATOL) & (values <= 1.0 + _SIM_ATOL)))


def _has_duplicates(ids: np.ndarray) -> bool:
    """True when some id occurs twice; ascending ids need no sort."""
    if ids.size < 2 or np.all(ids[1:] > ids[:-1]):
        return False
    ordered = np.sort(ids)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def normalize_relevance(raw: Sequence[float]) -> np.ndarray:
    """Normalise raw relevance scores so they sum to 1 (Section 3.1).

    Raises :class:`ValidationError` if any score is negative or not
    finite, or the total is zero — a subset in which no photo is relevant
    cannot be scored.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("relevance must be a 1-D sequence")
    if arr.size == 0:
        raise ValidationError("relevance must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("relevance scores must be finite")
    if np.any(arr < 0):
        raise ValidationError("relevance scores must be nonnegative")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValidationError("relevance scores must not all be zero")
    return arr / total


@dataclass(frozen=True)
class Photo:
    """A single photo in the archive, as one record.

    Instances hold photos as columns; this record is what dataset
    generators produce (:meth:`PARInstance.from_photos` turns a list of
    them into columns) and what the lazy :attr:`PARInstance.photos` view
    hands out.

    Parameters
    ----------
    photo_id:
        Integer identifier; equals the photo's row in ``PARInstance.costs``.
    cost:
        Storage cost in bytes (the paper's ``C(p)``); must be positive.
    label:
        Optional human-readable name (file name, product title, ...).
    metadata:
        Free-form attributes (EXIF fields, product category, quality score).
    """

    photo_id: int
    cost: float
    label: str = ""
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.photo_id < 0:
            raise ValidationError(f"photo_id must be nonnegative, got {self.photo_id}")
        if not (self.cost > 0):
            raise ValidationError(
                f"photo {self.photo_id}: cost must be positive, got {self.cost!r}"
            )


class DenseSimilarity:
    """Contextual similarity stored as a full ``m × m`` matrix.

    The matrix indexes photos by their *local* position within the subset's
    member list.  Values must lie in ``[0, 1]`` with a unit diagonal (the
    similarity of a photo to itself is 1 by definition).
    """

    is_sparse = False

    def __init__(self, matrix: np.ndarray, *, validate: bool = True) -> None:
        # The stored matrix is always a new array (the clip), so callers
        # may pass a view they do not own.
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("similarity matrix must be square")
        if validate:
            if not _in_unit_interval(matrix):
                raise ValidationError("similarities must lie in [0, 1]")
            # np.allclose(a, b, atol=1e-6) on values already known finite:
            # |a - b| <= 1e-6 + 1e-5 * |b|.
            if not np.all(np.abs(np.diagonal(matrix) - 1.0) <= 1e-6 + 1e-5):
                raise ValidationError("self-similarity must be 1")
            bits = matrix.view(np.uint64)
            # A matrix equal to its transpose bit for bit (what a sender
            # serialises) passes the tolerance check, and averaging it
            # with its transpose gives it back bit for bit: x + x = 2x and
            # 2x / 2 = x exactly, the sign of zero included.
            if not np.array_equal(bits, bits.T):
                if not np.all(
                    np.abs(matrix - matrix.T) <= 1e-6 + 1e-5 * np.abs(matrix.T)
                ):
                    # SIM is a normalised measure of how alike two photos
                    # are; the incremental evaluators rely on symmetry.
                    raise ValidationError("similarity matrix must be symmetric")
                matrix = (matrix + matrix.T) / 2.0
        self.matrix = np.clip(matrix, 0.0, 1.0)
        np.fill_diagonal(self.matrix, 1.0)

    @classmethod
    def adopt(cls, matrix: np.ndarray) -> "DenseSimilarity":
        """Wrap a matrix that already holds the invariants, without a copy.

        The trusted path for a packed copy of a checked backend (see
        :func:`repro.core.parallel.build_view_instance`).
        """
        obj = cls.__new__(cls)
        obj.matrix = matrix
        return obj

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def row(self, local_idx: int) -> np.ndarray:
        """Similarities of member ``local_idx`` to every member (dense row)."""
        return self.matrix[local_idx]

    def pair(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def neighbors(self, local_idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and similarities of the nonzero entries of a row."""
        row = self.matrix[local_idx]
        idx = np.nonzero(row)[0]
        return idx, row[idx]

    def nnz(self) -> int:
        """Number of stored (nonzero) similarity entries."""
        return int(np.count_nonzero(self.matrix))

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, cols, vals)`` of the nonzero entries, row-major.

        Row ``i``'s entries occupy ``cols[indptr[i]:indptr[i+1]]`` in the
        same order :meth:`neighbors` reports them, so flat consumers (the
        incidence kernels) see exactly what the per-row API sees.
        """
        # One pass over a boolean mask finds the row-major flat positions;
        # a row's entries start where its first flat position i·m would
        # sort, and a column is the position less its row's start.
        m = len(self)
        flat = np.flatnonzero(self.matrix != 0).astype(np.int64, copy=False)
        row_starts = np.arange(m + 1, dtype=np.int64) * m
        indptr = np.searchsorted(flat, row_starts).astype(np.int64, copy=False)
        cols = flat - np.repeat(row_starts[:-1], np.diff(indptr))
        return indptr, cols, np.take(self.matrix, flat)

    def sparsified(self, tau: float) -> "SparseSimilarity":
        """Return the τ-sparsified copy: entries below ``tau`` become 0."""
        m = len(self)
        indices: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for i in range(m):
            row = self.matrix[i]
            keep = np.nonzero(row >= tau)[0]
            if i not in keep:
                keep = np.sort(np.append(keep, i))
            indices.append(keep.astype(np.int64))
            values.append(row[keep])
        return SparseSimilarity(m, indices, values, validate=False)


#: Value dtypes a sparse backend may store.  float32 halves the resident
#: footprint of archive-scale instances at ~1e-7 relative similarity error
#: (see docs/million_scale.md for the measured solve impact).
_SPARSE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _check_sparse_dtype(dtype) -> np.dtype:
    dt = np.dtype(np.float64 if dtype is None else dtype)
    if dt not in _SPARSE_DTYPES:
        raise ValidationError(
            f"sparse similarity dtype must be float32 or float64, got {dt}"
        )
    return dt


#: The largest matrix whose entry keys ``row * size + col`` fit in int64.
_MAX_SORTED_SIZE = math.isqrt(np.iinfo(np.int64).max)


def _entry_order(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """The stable order that sorts entries by ``(row, col)``.

    One stable argsort of the key ``row * size + col``, where
    ``np.lexsort((cols, rows))`` makes one per key: for
    ``0 ≤ cols < size`` both order entries alike, ties included.
    """
    if size > _MAX_SORTED_SIZE:
        raise ValidationError(
            f"{size} members are too many for int64 entry keys "
            f"(at most {_MAX_SORTED_SIZE})"
        )
    return np.argsort(rows * size + cols, kind="stable")


def _has_duplicate_entry(rows: np.ndarray, cols: np.ndarray, size: int) -> bool:
    """True when some ``(rows[t], cols[t])`` pair occurs twice.

    Canonical CSR (columns strictly ascending within each row) is proven
    duplicate-free in one linear pass; any other layout pays a sort.
    """
    if rows.size < 2:
        return False
    ascending = (cols[1:] > cols[:-1]) | (rows[1:] != rows[:-1])
    if ascending.all():
        return False
    order = _entry_order(rows, cols, size)
    r, c = rows[order], cols[order]
    return bool(np.any((r[1:] == r[:-1]) & (c[1:] == c[:-1])))


def _mapped_empty(size: int, dtype: np.dtype) -> np.ndarray:
    """A (zeroed) array in an anonymous mapping of its own, unmapped as
    soon as the array is freed, whatever malloc's thresholds."""
    buf = mmap.mmap(-1, max(size * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=size)


def interleave_tail(
    indptr: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    tail: Tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    empty=np.empty,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One compact CSR holding each range's base entries, then its tail's.

    ``indptr`` and ``tail[0]`` both have one entry per range plus one.
    Range ``r``'s merged start is ``indptr[r] + tail_indptr[r]``: base
    entry ``e`` of range ``r`` moves to ``e + tail_indptr[r]`` and tail
    entry ``t`` to ``t + indptr[r + 1]``.  The tail entries are placed by
    index and the base entries fill the other positions in order, through
    a byte mask rather than an nnz-sized index array.  ``empty(size,
    dtype)`` allocates the two entry arrays.
    """
    tail_indptr, tail_cols, tail_vals = tail
    merged = indptr + tail_indptr
    nnz = int(merged[-1])
    dest = np.repeat(indptr[1:], np.diff(tail_indptr))
    dest += np.arange(tail_cols.size, dtype=np.int64)
    from_base = np.ones(nnz, dtype=bool)
    from_base[dest] = False
    out = []
    for base, extra in ((cols, tail_cols), (vals, tail_vals)):
        arr = empty(nnz, base.dtype)
        arr[from_base] = base
        arr[dest] = extra
        out.append(arr)
    return merged, out[0], out[1]


def _tail_limit(nnz: int, added: int) -> int:
    """Entries a similarity's tail may hold, at ``nnz`` entries in all
    after an append of ``added``, before it merges into a fresh base:
    ``√(2·nnz·added) + added`` balances each append's rewrite of the tail
    against the amortised merge (the bucket index's rule, per entry)."""
    return math.ceil(math.sqrt(2 * nnz * added)) + added


class SparseSimilarity:
    """Contextual similarity stored natively as a CSR matrix.

    Row ``i`` holds the local indices and similarity values of the photos
    whose similarity to member ``i`` survived sparsification.  The diagonal
    entry ``(i, i) = 1`` is always present so a retained photo covers itself
    perfectly regardless of the threshold.

    Storage is three flat arrays — ``indptr`` (int64, ``size + 1``),
    ``cols`` (int64) and ``vals`` (``dtype``, float64 or float32) — so the
    streamed instance builder (:mod:`repro.scale`) can construct a backend
    directly from verified pair triplets without ever holding a dense
    matrix, and :meth:`csr` / :meth:`neighbors` are zero-copy views.  The
    legacy per-row-list constructor is kept for callers that assemble rows
    incrementally; it concatenates into the same flat layout.

    A similarity grown by :meth:`append_rows` holds those arrays as an
    immutable *base*, shared with the similarity it grew from, plus a
    *tail* of what was appended since: ``(indptr, cols, vals)`` with one
    range per row, holding each old row's new entries (whose columns all
    exceed the base's rows) and the new rows whole.  Row ``i`` is its base
    range followed by its tail range; rows past the base have an empty
    base range.  :meth:`csr` then returns a compact copy, and
    :func:`build_incidence` hands both ranges to the kernels.
    """

    is_sparse = True

    __slots__ = ("_size", "_indptr", "_cols", "_vals", "_tail")

    def __init__(
        self,
        size: int,
        indices: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        *,
        validate: bool = True,
        dtype=None,
    ) -> None:
        dt = _check_sparse_dtype(dtype)
        if len(indices) != size or len(values) != size:
            raise ValidationError("one neighbour list required per member")
        row_idx: List[np.ndarray] = []
        row_val: List[np.ndarray] = []
        for i in range(size):
            if validate:
                idx = as_ids(indices[i], f"row {i}: neighbour indices")
            else:
                idx = np.asarray(indices[i], dtype=np.int64)
            val = np.asarray(values[i], dtype=np.float64)
            if idx.shape != val.shape:
                raise ValidationError(f"row {i}: index/value length mismatch")
            if validate:
                if idx.size and (idx.min() < 0 or idx.max() >= size):
                    raise ValidationError(f"row {i}: neighbour index out of range")
                if not _in_unit_interval(val):
                    raise ValidationError(f"row {i}: similarity outside [0, 1]")
                if idx.size != np.unique(idx).size:
                    raise ValidationError(f"row {i}: duplicate neighbour index")
            val = np.clip(val, 0.0, 1.0)
            self_pos = np.nonzero(idx == i)[0]
            if self_pos.size == 0:
                idx = np.append(idx, i)
                val = np.append(val, 1.0)
            else:
                val[self_pos[0]] = 1.0
            row_idx.append(idx)
            row_val.append(val)
        lens = np.fromiter((idx.size for idx in row_idx), dtype=np.int64, count=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        if size:
            cols = np.concatenate(row_idx)
            vals = np.concatenate(row_val)
        else:
            cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0, dtype=np.float64)
        self._size = size
        self._indptr = indptr
        self._cols = cols
        self._vals = vals.astype(dt, copy=False)
        self._tail = None

    # ------------------------------------------------------- constructors

    @classmethod
    def from_csr(
        cls,
        size: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        dtype=None,
        validate: bool = True,
    ) -> "SparseSimilarity":
        """Adopt ready-made CSR arrays (no per-row Python, no dense detour).

        Rows must already contain their diagonal entry with value 1 — this
        is the trusted fast path for builders that guarantee the invariant.
        ``validate=True`` checks the CSR as strictly as the per-row
        constructor checks its lists, vectorised: integral indices in
        range, values in ``[0, 1]`` (clipped within tolerance; NaN is not
        in range), exactly one diagonal
        entry per row with value 1, and no duplicate ``(row, col)`` entry.
        """
        dt = _check_sparse_dtype(dtype if dtype is not None else vals.dtype)
        if validate:
            indptr = as_ids(indptr, "CSR indptr")
            cols = as_ids(cols, "CSR indices")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=dt)
        if indptr.shape != (size + 1,) or int(indptr[0]) != 0:
            raise ValidationError("malformed CSR indptr")
        if cols.shape != vals.shape or cols.ndim != 1:
            raise ValidationError("CSR cols/vals length mismatch")
        if int(indptr[-1]) != cols.size or np.any(np.diff(indptr) < 0):
            raise ValidationError("CSR indptr does not span the entry arrays")
        if validate:
            if cols.size and (cols.min() < 0 or cols.max() >= size):
                raise ValidationError("CSR neighbour index out of range")
            if not _in_unit_interval(vals):
                raise ValidationError("CSR similarity outside [0, 1]")
            if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
                vals = np.clip(vals, 0.0, 1.0)
            rows = np.repeat(np.arange(size, dtype=np.int64), np.diff(indptr))
            diag = cols == rows
            if np.any(np.bincount(rows[diag], minlength=size) != 1):
                raise ValidationError(
                    "every CSR row must hold exactly one diagonal entry"
                )
            if not np.all(vals[diag] == 1.0):
                raise ValidationError("CSR self-similarity must be 1")
            if _has_duplicate_entry(rows, cols, size):
                raise ValidationError("CSR row holds a duplicate neighbour index")
        return cls.from_parts(size, indptr, cols, vals)

    @classmethod
    def from_parts(
        cls,
        size: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        tail: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> "SparseSimilarity":
        """Adopt a base CSR (``indptr`` of ``size + 1``) and an optional
        tail, unchecked: the trusted path for arrays that came from a
        checked similarity (:meth:`parts`, a packed copy)."""
        obj = cls.__new__(cls)
        obj._size = size
        obj._indptr = indptr
        obj._cols = cols
        obj._vals = vals
        obj._tail = tail
        return obj

    def parts(
        self,
    ) -> Tuple[
        Tuple[np.ndarray, np.ndarray, np.ndarray],
        Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ]:
        """``((indptr, cols, vals), tail)``: the base CSR, with one
        ``indptr`` range per row, and the tail (``None`` when there is
        none), all zero-copy."""
        return (self._indptr, self._cols, self._vals), self._tail

    @classmethod
    def from_pairs(
        cls,
        size: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        dtype=None,
        validate: bool = True,
    ) -> "SparseSimilarity":
        """Build from unique undirected off-diagonal pairs (the LSH output).

        Each ``(rows[k], cols[k])`` pair contributes the symmetric entries
        ``(i, j)`` and ``(j, i)``; the unit diagonal is added for every row.
        Entries land in canonical order — per row, ascending column index
        with the diagonal in its sorted position — matching the layout of
        :meth:`DenseSimilarity.sparsified`, so the fused streamed build and
        the dense-then-threshold path accumulate floats identically.
        """
        dt = _check_sparse_dtype(dtype)
        ii = np.asarray(rows, dtype=np.int64).ravel()
        jj = np.asarray(cols, dtype=np.int64).ravel()
        vv = np.asarray(vals, dtype=np.float64).ravel()
        if not (ii.size == jj.size == vv.size):
            raise ValidationError("pair arrays must have equal length")
        if validate and ii.size:
            if min(ii.min(), jj.min()) < 0 or max(ii.max(), jj.max()) >= size:
                raise ValidationError("pair index out of range")
            if np.any(ii == jj):
                raise ValidationError("pairs must be off-diagonal")
            if not _in_unit_interval(vv):
                raise ValidationError("pair similarity outside [0, 1]")
        vv = np.clip(vv, 0.0, 1.0)
        diag = np.arange(size, dtype=np.int64)
        all_rows = np.concatenate([ii, jj, diag])
        all_cols = np.concatenate([jj, ii, diag])
        all_vals = np.concatenate([vv, vv, np.ones(size, dtype=np.float64)])
        order = _entry_order(all_rows, all_cols, size)
        all_rows = all_rows[order]
        all_cols = all_cols[order]
        if validate and all_rows.size > 1:
            dup = (all_rows[1:] == all_rows[:-1]) & (all_cols[1:] == all_cols[:-1])
            if np.any(dup):
                raise ValidationError("duplicate undirected pair")
        counts = np.bincount(all_rows, minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls.from_csr(
            size, indptr, all_cols, all_vals[order], dtype=dt, validate=False
        )

    # ------------------------------------------------------------- growth

    def append_rows(
        self,
        k: int,
        rows: np.ndarray = (),
        cols: np.ndarray = (),
        vals: np.ndarray = (),
        *,
        validate: bool = True,
    ) -> "SparseSimilarity":
        """Grow by ``k`` members, given pairs that touch the new range.

        ``(rows[t], cols[t], vals[t])`` are unique undirected off-diagonal
        pairs with **at least one endpoint ≥ len(self)** — the delta an LSH
        re-bucketing of only the new photos produces.  Old↔old pairs are
        rejected: they would interleave inside existing rows.

        Every new column index is ``≥ len(self)``, larger than any column
        already stored, so an old row's additions land after its current
        entries.  The grown similarity therefore shares this one's base
        and rewrites only the tail: each old row's tail range gains the
        row's additions (sorted, no per-row Python), and the ``k`` new rows
        follow whole.  Nothing the size of the base is copied, and this
        similarity stays as it was.  Once the tail holds more than
        :func:`_tail_limit` entries it merges into a fresh compact base.
        Either way every row is bit-identical to :meth:`from_pairs` rebuilt
        from the union of old and new pairs — delta ingestion and a
        from-scratch build agree exactly.
        """
        if k < 0:
            raise ValidationError("append_rows: k must be non-negative")
        n = self._size
        total = n + k
        dt = self._vals.dtype
        ii = np.asarray(rows, dtype=np.int64).ravel()
        jj = np.asarray(cols, dtype=np.int64).ravel()
        vv = np.asarray(vals, dtype=np.float64).ravel()
        if not (ii.size == jj.size == vv.size):
            raise ValidationError("pair arrays must have equal length")
        if k == 0 and ii.size == 0:
            return self
        if validate and ii.size:
            if min(ii.min(), jj.min()) < 0 or max(ii.max(), jj.max()) >= total:
                raise ValidationError("pair index out of range")
            if np.any(ii == jj):
                raise ValidationError("pairs must be off-diagonal")
            if np.any((ii < n) & (jj < n)):
                raise ValidationError(
                    "append_rows pairs must touch the appended range; "
                    "old-old pairs require a from_pairs rebuild"
                )
            if not _in_unit_interval(vv):
                raise ValidationError("pair similarity outside [0, 1]")
        vv = np.clip(vv, 0.0, 1.0).astype(dt, copy=False)
        # Directed entries: each undirected pair contributes both (i, j)
        # and (j, i); the new rows additionally hold their unit diagonal.
        dir_r = np.concatenate([ii, jj])
        dir_c = np.concatenate([jj, ii])
        dir_v = np.concatenate([vv, vv])
        old_side = dir_r < n
        # --- additions to existing rows (columns all ≥ n: append-only) ---
        add_r = dir_r[old_side]
        add_c = dir_c[old_side]
        add_v = dir_v[old_side]
        order = _entry_order(add_r, add_c, total)
        add_r = add_r[order]
        add_c = add_c[order]
        add_v = add_v[order]
        add_counts = np.bincount(add_r, minlength=n)[:n]
        add_prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(add_counts, out=add_prefix[1:])
        # --- entries of the appended rows (diagonal included) -----------
        diag = np.arange(n, total, dtype=np.int64)
        new_r = np.concatenate([dir_r[~old_side], diag])
        new_c = np.concatenate([dir_c[~old_side], diag])
        new_v = np.concatenate([dir_v[~old_side], np.ones(k, dtype=dt)])
        order = _entry_order(new_r, new_c, total)
        new_r = new_r[order]
        new_c = new_c[order]
        new_v = new_v[order]
        if validate:
            for rr, cc in ((add_r, add_c), (new_r, new_c)):
                if rr.size > 1:
                    dup = (rr[1:] == rr[:-1]) & (cc[1:] == cc[:-1])
                    if np.any(dup):
                        raise ValidationError("duplicate undirected pair")
        new_counts = np.bincount(new_r - n, minlength=k)[:k] if k else np.zeros(
            0, dtype=np.int64
        )
        # --- the grown tail ----------------------------------------------
        if self._tail is None:
            # The base becomes shared from here on: freeze it.
            for a in (self._indptr, self._cols, self._vals):
                a.flags.writeable = False
            tail_indptr = np.zeros(n + 1, dtype=np.int64)
            tail_cols = np.zeros(0, dtype=np.int64)
            tail_vals = np.zeros(0, dtype=dt)
        else:
            tail_indptr, tail_cols, tail_vals = self._tail
        old_nnz = tail_cols.size
        grown = old_nnz + add_r.size
        nnz = grown + new_r.size
        out_cols = np.empty(nnz, dtype=np.int64)
        out_vals = np.empty(nnz, dtype=dt)
        if add_r.size:
            # The t-th sorted addition (row r) lands right after row r's
            # tail entries plus the additions to earlier rows already placed
            # before it: tail_indptr[r + 1] + t.  The old tail entries fill
            # the other positions in order, placed through a byte mask.
            dest_add = tail_indptr[add_r + 1] + np.arange(add_r.size, dtype=np.int64)
            keep = np.ones(grown, dtype=bool)
            keep[dest_add] = False
            out_cols[:grown][keep] = tail_cols
            out_vals[:grown][keep] = tail_vals
            out_cols[dest_add] = add_c
            out_vals[dest_add] = add_v
        else:
            out_cols[:old_nnz] = tail_cols
            out_vals[:old_nnz] = tail_vals
        out_cols[grown:] = new_c
        out_vals[grown:] = new_v
        indptr = np.empty(total + 1, dtype=np.int64)
        indptr[: n + 1] = tail_indptr + add_prefix
        if k:
            np.cumsum(new_counts, out=indptr[n + 1 :])
            indptr[n + 1 :] += grown
        base_indptr = self._indptr
        if k:
            base_indptr = np.concatenate(
                [base_indptr, np.full(k, base_indptr[-1], dtype=np.int64)]
            )
        result = SparseSimilarity.from_parts(
            total, base_indptr, self._cols, self._vals, (indptr, out_cols, out_vals)
        )
        if nnz > _tail_limit(self._cols.size + nnz, add_r.size + new_r.size):
            result = result.compacted()
        return result

    def compacted(self) -> "SparseSimilarity":
        """The same rows with the tail merged into one compact base, frozen
        (the base of whatever grows from it next); ``self`` without a
        tail.

        The base's entry arrays each get an anonymous mapping of their own
        rather than malloc's heap, so a base that a later merge replaces
        goes back to the system when the last similarity holding it is
        dropped.  On the heap (``serve`` keeps blocks under 32 MiB there)
        it left a resident hole that the next, larger base could not reuse.
        """
        if self._tail is None:
            return self
        merged = SparseSimilarity.from_parts(
            self._size,
            *interleave_tail(
                self._indptr, self._cols, self._vals, self._tail, empty=_mapped_empty
            ),
        )
        for a in merged.parts()[0]:
            a.flags.writeable = False
        return merged

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return self._size

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the similarity values (float64 or float32)."""
        return self._vals.dtype

    def astype(self, dtype) -> "SparseSimilarity":
        """Copy with values cast to ``dtype`` (indices are shared)."""
        dt = _check_sparse_dtype(dtype)
        if dt == self._vals.dtype:
            return self
        if self._tail is not None:
            return self.compacted().astype(dt)
        vals = self._vals.astype(dt)
        if dt == np.float32:
            # Rounding may nudge a value past 1; the invariant wins.
            np.clip(vals, 0.0, 1.0, out=vals)
            vals[self._cols == np.repeat(np.arange(self._size), np.diff(self._indptr))] = 1.0
        return SparseSimilarity.from_csr(
            self._size, self._indptr, self._cols, vals, dtype=dt, validate=False
        )

    def row(self, local_idx: int) -> np.ndarray:
        """Materialise a dense row (zeros where no entry is stored).

        O(size) allocation per call — never use in a per-member hot loop;
        route through :meth:`neighbors`.
        """
        dense = np.zeros(self._size, dtype=np.float64)
        idx, val = self.neighbors(local_idx)
        dense[idx] = val
        return dense

    def pair(self, i: int, j: int) -> float:
        idx, val = self.neighbors(i)
        pos = np.nonzero(idx == j)[0]
        return float(val[pos[0]]) if pos.size else 0.0

    def neighbors(self, local_idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` of one stored row: zero-copy views, except
        for a row with both base and tail entries, which is concatenated."""
        s, e = self._indptr[local_idx], self._indptr[local_idx + 1]
        if self._tail is not None:
            tail_indptr, tail_cols, tail_vals = self._tail
            ts, te = tail_indptr[local_idx], tail_indptr[local_idx + 1]
            if s == e:
                return tail_cols[ts:te], tail_vals[ts:te]
            if ts < te:
                return (
                    np.concatenate([self._cols[s:e], tail_cols[ts:te]]),
                    np.concatenate([self._vals[s:e], tail_vals[ts:te]]),
                )
        return self._cols[s:e], self._vals[s:e]

    def nnz(self) -> int:
        tail = 0 if self._tail is None else self._tail[1].size
        return int(self._cols.size + tail)

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, cols, vals)`` of the stored entries, row-major.

        Same contract as :meth:`DenseSimilarity.csr` — and zero-copy
        without a tail: the returned arrays are the live backing store, so
        treat them as read-only.  With a tail they are a compact copy
        (:func:`interleave_tail`).
        """
        if self._tail is None:
            return self._indptr, self._cols, self._vals
        return interleave_tail(self._indptr, self._cols, self._vals, self._tail)


SimilarityBackend = Union[DenseSimilarity, SparseSimilarity]


class IncidenceCSR:
    """Flat photo→(subset, neighbour) incidence arrays (the kernel layout).

    The per-subset coverage vectors ``best[q]`` are laid out back to back
    in one *slot space* of length ``total_slots`` (subset ``qi`` owns slots
    ``subset_offsets[qi] : subset_offsets[qi+1]``).  For every photo ``p``
    and every subset containing it, the neighbour list of ``p``'s local row
    is stored contiguously as

    * ``slots`` — the neighbour's global slot,
    * ``sims`` — ``SIM(q, p, neighbour)``,

    grouped first by photo (``entry_indptr``), then by membership inside
    the photo in ascending subset order (``photo_member_indptr`` into
    ``member_entry_indptr``).  The weights live once per slot, not per
    entry: ``slot_wrel[s]`` is ``W(q) · R(q, local)`` for the member that
    owns slot ``s``, and the kernels read ``slot_wrel[slots[e]]`` — the
    very doubles a per-entry gather would hold, in the same order.  Membership order and per-row entry order
    match ``PARInstance.membership`` / ``similarity.neighbors`` exactly,
    which is what lets :class:`repro.core.objective.CoverageState`'s kernel
    backend reproduce the reference float accumulation bit for bit.

    ``tail`` is ``None``, or ``(member_tail_indptr, tail_slots,
    tail_sims)``: a second range per membership, read right after its
    range in ``slots``/``sims``.  A live archive's incidence is its
    similarity's base and tail (:meth:`SparseSimilarity.parts`), so an
    upload builds no archive-sized array; :meth:`merged` is the one
    layout both ranges stand for.
    """

    __slots__ = (
        "subset_offsets",
        "photo_member_indptr",
        "member_entry_indptr",
        "entry_indptr",
        "slots",
        "sims",
        "slot_wrel",
        "tail",
        "total_slots",
        "_native",
    )

    def __init__(
        self,
        subset_offsets: np.ndarray,
        photo_member_indptr: np.ndarray,
        member_entry_indptr: np.ndarray,
        entry_indptr: np.ndarray,
        slots: np.ndarray,
        sims: np.ndarray,
        slot_wrel: np.ndarray,
        tail: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.subset_offsets = subset_offsets
        self.photo_member_indptr = photo_member_indptr
        self.member_entry_indptr = member_entry_indptr
        self.entry_indptr = entry_indptr
        self.slots = slots
        self.sims = sims
        self.slot_wrel = slot_wrel
        self.tail = tail
        self.total_slots = int(subset_offsets[-1]) if subset_offsets.size else 0
        # The native kernel's checked layout (repro.core.native), built on
        # first use: None until then, False when numpy must serve.
        self._native = None

    def __getstate__(self) -> Dict[str, object]:
        # The layout holds C pointers; an unpickled copy checks afresh.
        return {k: getattr(self, k) for k in self.__slots__ if k != "_native"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._native = None

    @property
    def nnz(self) -> int:
        tail = 0 if self.tail is None else self.tail[1].size
        return int(self.slots.size + tail)

    def photo_entries(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Photo ``p``'s ``(slots, sims, bounds)`` in kernel order: each
        membership's range, then its tail range.  Membership ``j`` of the
        photo spans ``bounds[j]:bounds[j + 1]``; ``bounds`` is ``None``
        for a photo in one subset.  Zero-copy slices when the photo has no
        tail entries."""
        ms = self.photo_member_indptr[p]
        me = self.photo_member_indptr[p + 1]
        eptr = self.member_entry_indptr
        s0 = self.entry_indptr[p]
        tail = self.tail
        if tail is None or tail[0][ms] == tail[0][me]:
            e0 = self.entry_indptr[p + 1]
            bounds = None if me - ms == 1 else eptr[ms : me + 1] - s0
            return self.slots[s0:e0], self.sims[s0:e0], bounds
        tptr, tail_slots, tail_sims = tail
        slot_parts, sim_parts = [], []
        for k in range(ms, me):
            slot_parts += [self.slots[eptr[k] : eptr[k + 1]], tail_slots[tptr[k] : tptr[k + 1]]]
            sim_parts += [self.sims[eptr[k] : eptr[k + 1]], tail_sims[tptr[k] : tptr[k + 1]]]
        bounds = None
        if me - ms > 1:
            bounds = np.zeros(me - ms + 1, dtype=np.int64)
            np.cumsum([part.size for part in slot_parts[::2]], out=bounds[1:])
            bounds[1:] += np.cumsum([part.size for part in slot_parts[1::2]])
        return np.concatenate(slot_parts), np.concatenate(sim_parts), bounds

    def merged(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entry_indptr, slots, sims)`` with every membership's tail
        range folded in after its range: the layout of the same incidence
        built without a tail (a new copy when there is a tail)."""
        if self.tail is None:
            return self.entry_indptr, self.slots, self.sims
        member_indptr, slots, sims = interleave_tail(
            self.member_entry_indptr, self.slots, self.sims, self.tail
        )
        return member_indptr[self.photo_member_indptr], slots, sims


def build_incidence(subsets: Sequence[PredefinedSubset], n: int) -> IncidenceCSR:
    """Build the flat incidence CSR for ``n`` photos over ``subsets``.

    Fully vectorised (O(nnz) numpy, no per-entry Python): each subset
    contributes its similarity CSR; entries are then permuted from
    subset-major to photo-major order with a gather.  The per-slot
    weights are one O(total slots) product per subset.  An archive-wide
    single subset is its own incidence: its similarity's base and tail
    are adopted as they are, with no O(nnz) pass.
    """
    n_subsets = len(subsets)
    sizes = np.fromiter((len(q) for q in subsets), dtype=np.int64, count=n_subsets)
    subset_offsets = np.zeros(n_subsets + 1, dtype=np.int64)
    np.cumsum(sizes, out=subset_offsets[1:])

    slot_wrel = (
        np.concatenate([q.weight * q.relevance for q in subsets])
        if n_subsets
        else np.zeros(0, dtype=np.float64)
    )
    if n_subsets == 0:
        zero = np.zeros(0, dtype=np.int64)
        return IncidenceCSR(
            subset_offsets,
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(n + 1, dtype=np.int64),
            zero,
            np.zeros(0, dtype=np.float64),
            slot_wrel,
        )

    if n_subsets == 1 and len(subsets[0]) == n:
        q = subsets[0]
        members = np.asarray(q.members, dtype=np.int64)
        if members.size == n and np.array_equal(
            members, np.arange(n, dtype=np.int64)
        ):
            # Archive-wide single-subset instances (the streamed/live
            # builds): local ids are global ids, the photo-major
            # permutation is the identity, and the incidence is the
            # similarity CSR itself — no O(nnz) pass at all.  A grown
            # live similarity hands over its base and its tail.
            if q.similarity.is_sparse:
                (indptr, cols, vals), tail = q.similarity.parts()
            else:
                (indptr, cols, vals), tail = q.similarity.csr(), None
            indptr = np.asarray(indptr, dtype=np.int64)
            if tail is not None:
                tail = (
                    tail[0],
                    tail[1],
                    np.asarray(tail[2], dtype=np.float64),
                )
            return IncidenceCSR(
                subset_offsets,
                np.arange(n + 1, dtype=np.int64),
                indptr,
                indptr,
                np.asarray(cols, dtype=np.int64),
                np.asarray(vals, dtype=np.float64),
                slot_wrel,
                tail,
            )

    # Subset-major pass: concatenate every subset's row CSR, converting
    # local columns to global slots.
    slot_parts, val_parts, len_parts = [], [], []
    mem_photo_parts = []
    for qi, q in enumerate(subsets):
        indptr, cols, vals = q.similarity.csr()
        slot_parts.append(cols + subset_offsets[qi])
        val_parts.append(vals)
        len_parts.append(indptr[1:] - indptr[:-1])
        mem_photo_parts.append(q.members)

    all_slots = np.concatenate(slot_parts)
    all_vals = np.concatenate(val_parts)
    mem_len = np.concatenate(len_parts)
    mem_photo = np.concatenate(mem_photo_parts)

    src_start = np.zeros(mem_len.size + 1, dtype=np.int64)
    np.cumsum(mem_len, out=src_start[1:])
    src_start = src_start[:-1]

    # Photo-major permutation.  A stable sort keeps memberships of the
    # same photo in ascending subset order — the exact iteration order of
    # PARInstance.membership, on which bit-identical accumulation rests.
    order = np.argsort(mem_photo, kind="stable")
    counts = np.bincount(mem_photo, minlength=n)
    photo_member_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=photo_member_indptr[1:])

    sorted_len = mem_len[order]
    member_entry_indptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(sorted_len, out=member_entry_indptr[1:])
    nnz = int(member_entry_indptr[-1])

    within = np.arange(nnz, dtype=np.int64) - np.repeat(
        member_entry_indptr[:-1], sorted_len
    )
    src_idx = np.repeat(src_start[order], sorted_len) + within

    return IncidenceCSR(
        subset_offsets,
        photo_member_indptr,
        member_entry_indptr,
        member_entry_indptr[photo_member_indptr],
        all_slots[src_idx],
        all_vals[src_idx],
        slot_wrel,
    )


class PredefinedSubset:
    """A pre-defined subset ``q ∈ Q`` with weight, relevance and similarity.

    Parameters
    ----------
    subset_id:
        Stable identifier, e.g. the landing-page title or the query string.
    weight:
        Importance ``W(q)``, positive and finite.
    members:
        Photo ids belonging to the subset, in local-index order (an int64
        array; integral floats are accepted, fractional ones rejected).
    relevance:
        ``R(q, p)`` per member.  Normalised to sum to 1 on construction
        unless ``normalize=False`` is passed (in which case the values must
        already sum to 1).
    similarity:
        A :class:`DenseSimilarity` or :class:`SparseSimilarity` over the
        members, indexed by local position.
    validate:
        ``False`` adopts ``members`` and ``relevance`` as they are, with no
        check and no copy: the trusted path for a packed copy of a checked
        subset.

    The photo-id-to-local-index map behind ``in``, :meth:`local_index` and
    :meth:`sim` is built on first use; solvers never need it.
    """

    __slots__ = ("subset_id", "weight", "members", "relevance", "similarity", "_local")

    def __init__(
        self,
        subset_id: str,
        weight: float,
        members: Sequence[int],
        relevance: Sequence[float],
        similarity: SimilarityBackend,
        *,
        normalize: bool = True,
        validate: bool = True,
    ) -> None:
        self.subset_id = subset_id
        self.weight = float(weight)
        self.similarity = similarity
        self._local: Optional[Dict[int, int]] = None
        if not validate:
            self.members = np.asarray(members, dtype=np.int64)
            self.relevance = np.asarray(relevance, dtype=np.float64)
            return
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValidationError(
                f"subset {subset_id!r}: weight must be positive and finite, "
                f"got {weight!r}"
            )
        member_arr = as_ids(members, f"subset {subset_id!r}: members")
        if member_arr.ndim != 1 or member_arr.size == 0:
            raise ValidationError(f"subset {subset_id!r}: members must be non-empty")
        if _has_duplicates(member_arr):
            raise ValidationError(f"subset {subset_id!r}: duplicate member")
        if normalize:
            rel = normalize_relevance(relevance)
        else:
            rel = np.asarray(relevance, dtype=np.float64)
            if rel.ndim != 1:
                raise ValidationError(f"subset {subset_id!r}: relevance must be 1-D")
            if not np.all(np.isfinite(rel)):
                raise ValidationError(f"subset {subset_id!r}: relevance must be finite")
            if np.any(rel < 0):
                raise ValidationError(f"subset {subset_id!r}: negative relevance")
            if abs(float(rel.sum()) - 1.0) > 1e-6:
                raise ValidationError(
                    f"subset {subset_id!r}: relevance must sum to 1 "
                    f"(got {float(rel.sum()):.6f})"
                )
        if rel.size != member_arr.size:
            raise ValidationError(
                f"subset {subset_id!r}: relevance length {rel.size} != "
                f"member count {member_arr.size}"
            )
        if len(similarity) != member_arr.size:
            raise ValidationError(
                f"subset {subset_id!r}: similarity size {len(similarity)} != "
                f"member count {member_arr.size}"
            )
        self.members = member_arr
        self.relevance = rel

    def __len__(self) -> int:
        return self.members.size

    def _local_map(self) -> Dict[int, int]:
        if self._local is None:
            self._local = {p: i for i, p in enumerate(self.members.tolist())}
        return self._local

    def __contains__(self, photo_id: int) -> bool:
        return int(photo_id) in self._local_map()

    def local_index(self, photo_id: int) -> int:
        """Local position of ``photo_id`` inside this subset."""
        try:
            return self._local_map()[int(photo_id)]
        except KeyError:
            raise ValidationError(
                f"photo {photo_id} is not a member of subset {self.subset_id!r}"
            ) from None

    def sim(self, p1: int, p2: int) -> float:
        """``SIM(q, p1, p2)`` by *photo id* (0 if either is not a member)."""
        local = self._local_map()
        i = local.get(int(p1))
        j = local.get(int(p2))
        if i is None or j is None:
            return 0.0
        return self.similarity.pair(i, j)

    def with_similarity(self, similarity: SimilarityBackend) -> "PredefinedSubset":
        """Copy of this subset with a replaced similarity backend."""
        return PredefinedSubset(
            self.subset_id,
            self.weight,
            self.members,
            self.relevance,
            similarity,
            normalize=False,
        )


@dataclass
class SubsetSpec:
    """Raw, pre-validation description of a subset (builder input).

    ``relevance`` may be un-normalised; ``similarity`` may be omitted when
    the instance builder is given photo embeddings and a similarity function.
    """

    subset_id: str
    weight: float
    members: Sequence[int]
    relevance: Sequence[float]
    similarity: Optional[np.ndarray] = None


class PARInstance:
    """A fully validated Photo Archive Reduction instance, held as columns.

    Parameters
    ----------
    costs:
        ``C(p)`` per photo: a flat array of positive, finite byte costs.
        Photo ``p`` is row ``p``; the length is ``n``.
    subsets:
        The pre-defined subsets ``Q``; their members index ``costs``.
    budget:
        The storage budget ``B`` (positive; ``+inf`` is allowed).
    retained:
        The retention set ``S0`` (integral photo ids).
    embeddings:
        Optional ``(n, dim)`` photo embeddings.
    labels, metadata:
        Optional per-photo columns (one label string / one mapping per
        photo); they ride along into :attr:`photos` and the wire document.
    incidence:
        A ready :class:`IncidenceCSR` for these subsets and ``n`` (copies
        that keep the subsets, such as :meth:`with_budget`, reuse it).
    variants:
        Optional per-photo variant menus (a ``repro.fidelity``
        ``VariantCatalog``).
    validate:
        ``False`` is the trusted path for arrays that were checked when
        first built (a packed copy, a budget change): they are adopted
        without checks or copies.  The budget and the retention set's
        feasibility are checked either way.

    Solvers read the flat ``costs`` and :attr:`incidence` arrays.  The
    per-photo :attr:`photos` records and the :attr:`membership` lists are
    views built on first use.  Callers holding :class:`Photo` records
    construct through :meth:`from_photos`.
    """

    def __init__(
        self,
        costs: Union[np.ndarray, Sequence[float]],
        subsets: Sequence[PredefinedSubset],
        budget: float,
        retained: Iterable[int] = (),
        embeddings: Optional[np.ndarray] = None,
        *,
        labels: Optional[Sequence[str]] = None,
        metadata: Optional[Sequence[Mapping[str, object]]] = None,
        incidence: Optional[IncidenceCSR] = None,
        variants: Optional[object] = None,
        validate: bool = True,
    ) -> None:
        try:
            costs = (np.array if validate else np.asarray)(costs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "costs must be a flat array of numbers (lists of Photo "
                "records go through PARInstance.from_photos)"
            ) from exc
        if costs.ndim != 1:
            raise ValidationError("costs must be a flat array of numbers")
        self.n = n = costs.size
        if n == 0:
            raise ValidationError("instance must contain at least one photo")
        if validate:
            bad = np.flatnonzero(~(np.isfinite(costs) & (costs > 0)))
            if bad.size:
                p = int(bad[0])
                raise ValidationError(
                    f"photo {p}: cost must be positive and finite, "
                    f"got {float(costs[p])!r}"
                )
        self.costs = costs
        if not (budget > 0):
            raise ValidationError(f"budget must be positive, got {budget!r}")
        self.budget = float(budget)

        self.subsets: List[PredefinedSubset] = list(subsets)
        if validate:
            seen_ids = set()
            for q in self.subsets:
                if q.subset_id in seen_ids:
                    raise ValidationError(f"duplicate subset id {q.subset_id!r}")
                seen_ids.add(q.subset_id)
                if q.members.min() < 0 or q.members.max() >= n:
                    raise ValidationError(
                        f"subset {q.subset_id!r} references a photo outside 0..{n - 1}"
                    )

        if not isinstance(retained, (list, tuple, np.ndarray)):
            retained = list(retained)
        retained_ids = as_ids(retained, "retained photo ids")
        if retained_ids.ndim != 1:
            raise ValidationError("retained photo ids must be a flat list")
        if validate and retained_ids.size:
            outside = (retained_ids < 0) | (retained_ids >= n)
            if outside.any():
                p = int(retained_ids[np.argmax(outside)])
                raise ValidationError(f"retained photo {p} outside 0..{n - 1}")
        self.retained = frozenset(retained_ids.tolist())
        retained_cost = self.cost_of(self.retained)
        if retained_cost > self.budget * (1 + 1e-12):
            raise InfeasibleError(
                f"retention set costs {retained_cost:.1f} bytes, which exceeds "
                f"the budget of {self.budget:.1f} bytes"
            )

        if embeddings is not None:
            embeddings = np.asarray(embeddings, dtype=np.float64)
            if embeddings.ndim != 2 or embeddings.shape[0] != n:
                raise ValidationError(
                    "embeddings must be an (n_photos, dim) array when provided"
                )
            if validate:
                check_finite(embeddings, "embeddings")
        self.embeddings = embeddings

        for name, column in (("labels", labels), ("metadata", metadata)):
            if column is not None and len(column) != n:
                raise ValidationError(
                    f"{name} column has {len(column)} entries for {n} photos"
                )
        self.labels = labels
        self.metadata = metadata

        # Optional per-photo variant menus (a repro.fidelity VariantCatalog,
        # held duck-typed so core carries no fidelity import).  Archives
        # uploaded with a catalog solve multi-fidelity by default.
        if variants is not None:
            n_photos = getattr(variants, "n_photos", None)
            if n_photos != n:
                raise ValidationError(
                    f"variant catalog covers {n_photos} photos, "
                    f"instance has {n}"
                )
        self.variants = variants

        # Flat incidence CSR: the hot-path layout every gain/add/all_gains
        # kernel runs on.  The arrays only depend on subsets and n.
        self.incidence: IncidenceCSR = (
            incidence if incidence is not None else build_incidence(self.subsets, n)
        )
        self._photos: Optional[List[Photo]] = None
        self._membership: Optional[List[List[Tuple[int, int]]]] = None

    @classmethod
    def from_photos(
        cls,
        photos: Sequence[Photo],
        subsets: Sequence[PredefinedSubset],
        budget: float,
        retained: Iterable[int] = (),
        embeddings: Optional[np.ndarray] = None,
        **kwargs,
    ) -> "PARInstance":
        """Build from :class:`Photo` records (dataset generators, tests).

        The records become the ``costs``/``labels``/``metadata`` columns,
        checked like any other; each record's ``photo_id`` must equal its
        position.  Keyword arguments pass through to the constructor.
        """
        photos = list(photos)
        ids = np.fromiter((p.photo_id for p in photos), dtype=np.int64, count=len(photos))
        wrong = np.flatnonzero(ids != np.arange(len(photos)))
        if wrong.size:
            idx = int(wrong[0])
            raise ValidationError(
                f"photo at position {idx} has photo_id {photos[idx].photo_id}; "
                "photo_id must equal list position"
            )
        instance = cls(
            np.fromiter((p.cost for p in photos), dtype=np.float64, count=len(photos)),
            subsets,
            budget,
            retained,
            embeddings,
            labels=[p.label for p in photos],
            metadata=[p.metadata for p in photos],
            **kwargs,
        )
        instance._photos = photos
        return instance

    # ------------------------------------------------------------------
    # Lazy per-photo views
    # ------------------------------------------------------------------

    @property
    def photos(self) -> List[Photo]:
        """One :class:`Photo` record per row of the columns (built on first use)."""
        if self._photos is None:
            labels = self.labels if self.labels is not None else [""] * self.n
            metadata = self.metadata
            self._photos = [
                Photo(p, cost, labels[p], {} if metadata is None else metadata[p])
                for p, cost in enumerate(self.costs.tolist())
            ]
        return self._photos

    @property
    def membership(self) -> List[List[Tuple[int, int]]]:
        """Per photo id, its ``(subset index, local index)`` pairs in
        ascending subset order (built on first use; the kernels read the
        same order from :attr:`incidence`)."""
        if self._membership is None:
            membership: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
            for qi, q in enumerate(self.subsets):
                for local, photo_id in enumerate(q.members.tolist()):
                    membership[photo_id].append((qi, local))
            self._membership = membership
        return self._membership

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def cost_of(self, selection: Iterable[int]) -> float:
        """Total byte cost ``C(S)`` of a selection of photo ids."""
        ids = list(selection)
        return float(self.costs[ids].sum()) if ids else 0.0

    def total_cost(self) -> float:
        """Cost of retaining the entire archive."""
        return float(self.costs.sum())

    def feasible(self, selection: Iterable[int]) -> bool:
        """Whether a selection respects both the budget and ``S0 ⊆ S``."""
        sel = set(int(p) for p in selection)
        if not self.retained.issubset(sel):
            return False
        return self.cost_of(sel) <= self.budget * (1 + 1e-12)

    def is_sparse(self) -> bool:
        """True when every subset uses a sparse similarity backend."""
        return all(q.similarity.is_sparse for q in self.subsets)

    def similarity_nnz(self) -> int:
        """Total stored similarity entries across all subsets."""
        return sum(q.similarity.nnz() for q in self.subsets)

    def with_subsets(self, subsets: Sequence[PredefinedSubset]) -> "PARInstance":
        """Copy of this instance with the subset list replaced."""
        return PARInstance(
            self.costs,
            subsets,
            self.budget,
            self.retained,
            embeddings=self.embeddings,
            labels=self.labels,
            metadata=self.metadata,
            variants=self.variants,
        )

    def with_budget(self, budget: float) -> "PARInstance":
        """Copy of this instance with a different budget (arrays shared)."""
        return PARInstance(
            self.costs,
            self.subsets,
            budget,
            self.retained,
            embeddings=self.embeddings,
            labels=self.labels,
            metadata=self.metadata,
            incidence=self.incidence,
            variants=self.variants,
            validate=False,
        )

    def with_adjusted_weights(
        self,
        factors: Mapping[str, float],
        *,
        strict: bool = True,
    ) -> "PARInstance":
        """Copy with some subsets' importance weights rescaled.

        Section 5.1: "The weights for subsets derived by all methods may
        be adjusted using a dedicated UI."  ``factors`` maps subset ids to
        positive multipliers; unmentioned subsets keep their weight.  With
        ``strict`` (default) an unknown subset id raises — silently
        ignoring an analyst's adjustment would be worse than failing.
        """
        known = {q.subset_id for q in self.subsets}
        unknown = set(factors) - known
        if unknown and strict:
            raise ValidationError(
                f"weight adjustment references unknown subsets: {sorted(unknown)[:5]}"
            )
        for subset_id, factor in factors.items():
            if not (factor > 0):
                raise ValidationError(
                    f"weight factor for {subset_id!r} must be positive, got {factor!r}"
                )
        new_subsets = [
            PredefinedSubset(
                q.subset_id,
                q.weight * float(factors.get(q.subset_id, 1.0)),
                q.members,
                q.relevance,
                q.similarity,
                normalize=False,
            )
            for q in self.subsets
        ]
        return self.with_subsets(new_subsets)

    def restricted(
        self,
        photo_ids: Sequence[int],
        budget: Optional[float] = None,
    ) -> "PARInstance":
        """Sub-instance over a subset of the photos (ids are remapped).

        Photos are renumbered ``0 .. k-1`` in the order given.  Each
        pre-defined subset is intersected with the sample (its similarity
        matrix sliced, its relevance renormalised); subsets left empty are
        dropped.  Retained photos outside the sample are dropped from
        ``S0``.  Used by the user-study benches, which evaluate methods on
        ~100-photo samples the way Section 5.4 does.
        """
        ids = [int(p) for p in photo_ids]
        if len(set(ids)) != len(ids):
            raise ValidationError("restricted(): duplicate photo ids")
        remap = {old: new for new, old in enumerate(ids)}
        subsets: List[PredefinedSubset] = []
        for q in self.subsets:
            kept_locals = [j for j, p in enumerate(q.members) if int(p) in remap]
            if not kept_locals:
                continue
            rel = q.relevance[kept_locals]
            if float(rel.sum()) <= 0:
                continue
            members = [remap[int(q.members[j])] for j in kept_locals]
            if q.similarity.is_sparse:
                local_remap = {old: new for new, old in enumerate(kept_locals)}
                indices, values = [], []
                for j in kept_locals:
                    idx, val = q.similarity.neighbors(j)
                    keep = [k for k, x in enumerate(idx) if int(x) in local_remap]
                    indices.append(
                        np.asarray([local_remap[int(idx[k])] for k in keep], dtype=np.int64)
                    )
                    values.append(val[keep])
                backend: SimilarityBackend = SparseSimilarity(
                    len(kept_locals), indices, values, validate=False
                )
            else:
                matrix = q.similarity.matrix[np.ix_(kept_locals, kept_locals)]
                backend = DenseSimilarity(matrix, validate=False)
            subsets.append(
                PredefinedSubset(q.subset_id, q.weight, members, rel, backend)
            )
        if not subsets:
            raise ValidationError("restriction removed every subset")
        retained = [remap[p] for p in self.retained if p in remap]
        embeddings = self.embeddings[ids] if self.embeddings is not None else None
        return PARInstance(
            self.costs[ids],
            subsets,
            self.budget if budget is None else budget,
            retained,
            embeddings=embeddings,
            labels=None if self.labels is None else [self.labels[p] for p in ids],
            metadata=None if self.metadata is None else [self.metadata[p] for p in ids],
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        photos: Sequence[Photo],
        subset_specs: Sequence[SubsetSpec],
        budget: float,
        retained: Iterable[int] = (),
        embeddings: Optional[np.ndarray] = None,
        similarity_fn=None,
    ) -> "PARInstance":
        """Build an instance from raw specs, deriving similarities if needed.

        For specs without an explicit matrix, ``similarity_fn(spec, emb)`` is
        called with the spec and the member-row slice of ``embeddings`` and
        must return an ``m × m`` matrix; if ``similarity_fn`` is omitted the
        cosine similarity of the member embeddings (clipped to ``[0, 1]``)
        is used.
        """
        subsets: List[PredefinedSubset] = []
        for spec in subset_specs:
            if spec.similarity is not None:
                backend: SimilarityBackend = DenseSimilarity(spec.similarity)
            else:
                if embeddings is None:
                    raise ValidationError(
                        f"subset {spec.subset_id!r} has no similarity matrix and "
                        "no embeddings were provided to derive one"
                    )
                member_emb = np.asarray(embeddings, dtype=np.float64)[
                    np.asarray(spec.members, dtype=np.int64)
                ]
                if similarity_fn is not None:
                    matrix = similarity_fn(spec, member_emb)
                else:
                    matrix = _cosine_similarity_matrix(member_emb)
                backend = DenseSimilarity(matrix)
            subsets.append(
                PredefinedSubset(
                    spec.subset_id,
                    spec.weight,
                    spec.members,
                    spec.relevance,
                    backend,
                )
            )
        return cls.from_photos(photos, subsets, budget, retained, embeddings=embeddings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PARInstance(n={self.n}, subsets={len(self.subsets)}, "
            f"budget={self.budget:.0f}, retained={len(self.retained)})"
        )


def _cosine_similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, clipped into [0, 1] with a unit diagonal."""
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = embeddings / norms
    matrix = np.clip(unit @ unit.T, 0.0, 1.0)
    np.fill_diagonal(matrix, 1.0)
    return matrix

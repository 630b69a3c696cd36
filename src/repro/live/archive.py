"""Live archive: a stored PAR instance that absorbs photo deltas in place.

A :class:`LiveArchive` is the in-memory half of online curation — one
sparse archive-wide instance plus exactly the SimHash state needed to
bucket *new* photos against it:

* the seeded hyperplanes (re-derived from ``(seed, n_bits, dim)``, never
  stored);
* one bucket key per photo per band, held as a short list of immutable
  sorted *runs* (the bucket index, below).

:meth:`ingest` re-buckets only the ``k`` arriving photos: their band keys
are matched against the stored keys (old↔new candidates, two sorted
searches per band and run) and against each other (new↔new, the builder's
own within-bucket emitter), verified with the shared exact-cosine kernel,
and appended to the CSR via :meth:`SparseSimilarity.append_rows` — the
dense SIM is never rebuilt, and the old CSR is neither re-sorted nor
copied: the grown similarity shares it as its base and rewrites only a
tail of what was appended since, which merges into a fresh base past a
√-bound, as the recent run does.
The grown instance is **bit-identical** to a from-scratch
:func:`repro.scale.build_streamed_instance` over the union of photos at
the same ``(seed, n_bits)``: identical planes give identical bucket keys,
the union of (old-old, old-new, new-new) within-bucket pairs is exactly
the fresh build's candidate set, and both paths verify through
:func:`repro.sparsify.simhash.verify_candidate_pairs` (per-pair values
independent of chunking) into the same canonical CSR layout.

**The bucket index.**  A run is ``(keys, order)``: two ``(bands, m)``
arrays, each row sorted by key, ``order`` holding the photo ids.  A
created archive holds one base run; an upload sorts its own ``k`` keys
and merges them into a small recent run, which merges into the base once
it holds more than ``√(2·n·k) + k`` keys (:func:`_recent_limit`).  An
upload's own merge then costs ``O(bands·√(n·k))`` and the ``O(bands·n)``
fold comes about every ``√(n/k)`` uploads.  Keys are held in the
smallest unsigned dtype that fits ``rows`` bits and ``order`` as
``int32``; stored documents and log records keep ``uint64`` keys.  No
run is written after it is made, so a grown archive shares its parent's
base and the parent stays valid.

Relevance stays uniform under growth by storing the *raw* (unnormalised)
per-photo relevance and renormalising after each delta — ``n`` ones
become ``1/n`` exactly, matching the fresh build's default.

An ingestion is two steps with one growth path: :meth:`LiveArchive.delta`
computes what the upload adds (a :class:`Delta`: the photos, their band
keys and the verified pairs), and ``_extend`` applies a delta.  The
tenant store logs each upload's delta as one record, and :func:`fold`
rebuilds the archive from a stored base plus its logged records with a
single ``_extend`` over all of them — bit-identical to the resident copy
that ingested them one by one, because ``append_rows`` of a union of
pairs equals the chain of appends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.instance import (
    PARInstance,
    PredefinedSubset,
    SparseSimilarity,
    _in_unit_interval,
    as_ids,
    check_finite,
)
from repro.core.serialize import instance_from_dict, instance_to_dict
from repro.errors import ConfigurationError, ValidationError
from repro.live.resolve import solve_result_from_dict
from repro.scale.builder import (
    DEFAULT_SIGNATURE_CHUNK,
    ScaleBuildReport,
    _emit_band_pairs,
    _sorted_dedup,
    _streamed_band_keys,
    build_streamed_instance,
)
from repro.sparsify.simhash import (
    DEFAULT_VERIFY_CHUNK,
    SimHasher,
    recommended_bits,
    tune_bands,
    unit_normalize,
    verify_candidate_pairs,
)

__all__ = ["Delta", "IngestReport", "LiveArchive", "LIVE_FORMAT", "fold"]

LIVE_FORMAT = 1


class _Run(NamedTuple):
    """One immutable sorted run of the bucket index (see the module doc)."""

    keys: np.ndarray  # (bands, m), each row sorted
    order: np.ndarray  # (bands, m) int32 photo ids, keys[b] == band_keys[b, order[b]]

    @property
    def size(self) -> int:
        return int(self.keys.shape[1])


def _key_dtype(rows: int) -> np.dtype:
    """The smallest unsigned dtype holding a ``rows``-bit bucket key."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if rows <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _recent_limit(n: int, k: int) -> int:
    """Keys the recent run may hold, at ``n`` photos after a ``k``-photo
    upload, before it merges into the base: ``√(2·n·k) + k``, which
    balances the upload's own merge against the amortised fold."""
    return math.ceil(math.sqrt(2 * n * k)) + k


def _checked_band_keys(raw: Any, rows: int, what: str) -> np.ndarray:
    """Band keys read from outside the process, as ``uint64``.

    Each key must be an integer in ``[0, 2**rows)``: anything else would
    overflow numpy's cast, or wrap silently into another bucket once
    narrowed to :func:`_key_dtype`.
    """
    try:
        keys = np.asarray(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc
    if keys.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got {keys.dtype}")
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >> rows):
        raise ValidationError(f"{what} must lie in [0, 2**{rows})")
    return keys.astype(np.uint64, copy=False)


#: Index entries one vectorised step of a sort or merge covers: whole
#: bands at a time, so small runs (an upload's own, the recent run) take
#: a few numpy calls, while a fold into the base goes band by band and no
#: temporary grows with the archive.
_BAND_BLOCK = 1 << 16


def _band_blocks(bands: int, m: int):
    """``(b0, b1)`` ranges of bands holding at most ~``_BAND_BLOCK``
    entries of width ``m`` (at least one band each)."""
    step = max(1, _BAND_BLOCK // max(m, 1))
    return [(b0, min(b0 + step, bands)) for b0 in range(0, bands, step)]


def _sorted_run(keys: np.ndarray, first_id: int) -> _Run:
    """The run of ``keys`` (photo order, ids from ``first_id``)."""
    sorted_keys = np.empty_like(keys)
    order = np.empty(keys.shape, dtype=np.int32)
    for b0, b1 in _band_blocks(*keys.shape):
        perm = np.argsort(keys[b0:b1], axis=1, kind="stable")
        sorted_keys[b0:b1] = np.take_along_axis(keys[b0:b1], perm, axis=1)
        order[b0:b1] = perm + first_id
    return _Run(sorted_keys, order)


def _merge_runs(old: _Run, new: _Run) -> _Run:
    """One run holding both, merged into preallocated arrays.

    Each of ``new``'s keys lands after the equal keys of ``old`` (a
    ``searchsorted`` plus its rank); a mask places ``old``'s keys in the
    remaining slots.  Any interleave that keeps rows sorted is valid —
    the bucket search recovers hit *sets*, not orders.
    """
    bands, m = old.keys.shape[0], old.size + new.size
    keys = np.empty((bands, m), dtype=old.keys.dtype)
    order = np.empty((bands, m), dtype=np.int32)
    rank = np.arange(new.size)
    for b0, b1 in _band_blocks(bands, m):
        at = np.empty((b1 - b0, new.size), dtype=np.int64)
        for b in range(b0, b1):
            at[b - b0] = old.keys[b].searchsorted(new.keys[b], side="right")
        at += rank
        at += np.arange(0, (b1 - b0) * m, m)[:, None]
        at = at.ravel()
        from_old = np.ones((b1 - b0) * m, dtype=bool)
        from_old[at] = False
        for out, a, b in ((keys, old.keys, new.keys), (order, old.order, new.order)):
            flat = out[b0:b1].reshape(-1)
            flat[at] = b[b0:b1].ravel()
            flat[from_old] = a[b0:b1].ravel()
    return _Run(keys, order)


def _grown_index(runs: Tuple[_Run, ...], new: _Run, n: int, k: int) -> Tuple[_Run, ...]:
    """``runs`` plus an upload's sorted run, at ``n`` photos after it."""
    base, *recent = runs
    if recent:
        new = _merge_runs(recent[0], new)
    if new.size > _recent_limit(n, k):
        return (_merge_runs(base, new),)
    return (base, new)


@dataclass
class Delta:
    """What one upload adds to an archive of ``n`` photos.

    ``k`` photos (costs, raw embeddings, ``(bands, k)`` bucket keys) and
    the verified similarity pairs ``(rows, cols, vals)``, each touching
    the appended id range ``[n, n + k)`` — exactly the arguments of
    :meth:`SparseSimilarity.append_rows`.
    """

    costs: np.ndarray
    embeddings: np.ndarray
    band_keys: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def k(self) -> int:
        return int(self.costs.size)

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.costs, self.embeddings, self.band_keys,
                self.rows, self.cols, self.vals,
            )
        )

    def to_record(self) -> Dict[str, Any]:
        """The tenant-store log record (every leaf an array)."""
        return {
            "costs": self.costs,
            "embeddings": self.embeddings,
            "band_keys": self.band_keys,
            "pairs": {"rows": self.rows, "cols": self.cols, "vals": self.vals},
        }

    @classmethod
    def from_record(
        cls, record: Dict[str, Any], archive: "LiveArchive", n: int
    ) -> "Delta":
        """A logged record checked as strictly as an upload body.

        ``n`` is the archive size the record was appended to.  Costs must
        be finite and positive, embeddings finite and ``(k, dim)``, keys
        ``(bands, k)`` integers below ``2**rows``, and every pair in
        range, off-diagonal, touching ``[n, n + k)``, unique and valued in
        ``[0, 1]``.
        """
        try:
            pairs = record["pairs"]
            costs = np.asarray(record["costs"], dtype=np.float64)
            embeddings = np.asarray(record["embeddings"], dtype=np.float64)
            band_keys = _checked_band_keys(
                record["band_keys"], archive.rows, "delta band_keys"
            )
            rows = as_ids(pairs["rows"], "logged pair rows")
            cols = as_ids(pairs["cols"], "logged pair cols")
            vals = np.asarray(pairs["vals"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed delta record: {exc!r}") from exc
        k = costs.size
        if costs.ndim != 1 or k < 1:
            raise ValidationError("a delta record needs a non-empty costs vector")
        if embeddings.shape != (k, archive.dim):
            raise ValidationError(
                f"delta embeddings shape {embeddings.shape} != ({k}, {archive.dim})"
            )
        check_finite(embeddings, "embeddings")
        if not np.all(np.isfinite(costs) & (costs > 0)):
            raise ValidationError("costs must be positive and finite")
        if band_keys.shape != (archive.bands, k):
            raise ValidationError(
                f"delta band_keys shape {band_keys.shape} != ({archive.bands}, {k})"
            )
        if not (rows.ndim == cols.ndim == vals.ndim == 1) or not (
            rows.size == cols.size == vals.size
        ):
            raise ValidationError("delta pair arrays must be flat and equal-length")
        if rows.size:
            total = n + k
            lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
            if lo.min() < 0 or hi.max() >= total:
                raise ValidationError("delta pair index out of range")
            if np.any(lo == hi):
                raise ValidationError("delta pairs must be off-diagonal")
            if hi.min() < n:
                raise ValidationError("delta pairs must touch the appended range")
            if not _in_unit_interval(vals):
                raise ValidationError("delta pair similarity outside [0, 1]")
            if np.unique(lo * np.int64(total) + hi).size != rows.size:
                raise ValidationError("delta holds a duplicate pair")
        return cls(costs, embeddings, band_keys, rows, cols, vals)

    @classmethod
    def concat(cls, deltas: List["Delta"]) -> "Delta":
        """One delta doing the work of ``deltas`` applied in order."""
        return cls(
            np.concatenate([d.costs for d in deltas]),
            np.concatenate([d.embeddings for d in deltas]),
            np.concatenate([d.band_keys for d in deltas], axis=1),
            np.concatenate([d.rows for d in deltas]),
            np.concatenate([d.cols for d in deltas]),
            np.concatenate([d.vals for d in deltas]),
        )


@dataclass
class IngestReport:
    """Diagnostics of one delta ingestion (``delta`` is what it added)."""

    n_before: int
    n_added: int
    candidate_pairs: int
    kept_pairs: int
    nnz: int
    seconds: float
    delta: Optional[Delta] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_before": self.n_before,
            "n_added": self.n_added,
            "candidate_pairs": self.candidate_pairs,
            "kept_pairs": self.kept_pairs,
            "nnz": self.nnz,
            "seconds": self.seconds,
        }


class LiveArchive:
    """A single-subset sparse instance plus its incremental LSH state."""

    __slots__ = (
        "instance",
        "tau",
        "seed",
        "n_bits",
        "bands",
        "rows",
        "target_recall",
        "subset_id",
        "weight",
        "raw_relevance",
        "signature_chunk",
        "chunk_pairs",
        "_planes",
        "_index",
    )

    def __init__(
        self,
        instance: PARInstance,
        *,
        tau: float,
        seed: int,
        n_bits: int,
        bands: int,
        rows: int,
        target_recall: float,
        subset_id: str,
        weight: float,
        raw_relevance: np.ndarray,
        band_keys: Union[np.ndarray, Tuple[_Run, ...]],
        signature_chunk: int = DEFAULT_SIGNATURE_CHUNK,
        chunk_pairs: int = DEFAULT_VERIFY_CHUNK,
    ) -> None:
        """``band_keys`` is the bucket index: a ``(bands, n)`` array in
        photo order, sorted into a base run on the first upload, or the
        runs themselves."""
        if instance.embeddings is None:
            raise ConfigurationError(
                "a live archive needs embeddings attached to its instance"
            )
        if rows > 64:
            raise ConfigurationError(
                "live archives require band rows <= 64 (single-word bucket "
                "keys are the only banding stable under deltas)"
            )
        if instance.n > np.iinfo(np.int32).max:
            raise ConfigurationError("live archives hold fewer than 2**31 photos")
        if isinstance(band_keys, np.ndarray):
            if band_keys.shape != (bands, instance.n):
                raise ConfigurationError(
                    f"band_keys shape {band_keys.shape} != ({bands}, {instance.n})"
                )
            band_keys = band_keys.astype(_key_dtype(rows), copy=False)
        self.instance = instance
        self.tau = float(tau)
        self.seed = int(seed)
        self.n_bits = int(n_bits)
        self.bands = int(bands)
        self.rows = int(rows)
        self.target_recall = float(target_recall)
        self.subset_id = subset_id
        self.weight = float(weight)
        self.raw_relevance = np.asarray(raw_relevance, dtype=np.float64)
        self.signature_chunk = int(signature_chunk)
        self.chunk_pairs = int(chunk_pairs)
        self._planes: Optional[np.ndarray] = None
        self._index: Union[np.ndarray, Tuple[_Run, ...]] = band_keys

    # ------------------------------------------------------------ geometry

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def dim(self) -> int:
        return int(self.instance.embeddings.shape[1])

    def planes(self) -> np.ndarray:
        """The seeded hyperplanes, re-derived on first use.

        ``SimHasher(dim, n_bits, default_rng(seed))`` consumes the rng
        exactly like the fused builder did at creation, so the planes —
        and therefore every bucket key ever computed — are reproducible
        from ``(seed, n_bits, dim)`` alone.
        """
        if self._planes is None:
            hasher = SimHasher(
                self.dim, self.n_bits, np.random.default_rng(self.seed)
            )
            self._planes = hasher.planes
        return self._planes

    def _keys_for(self, embeddings: np.ndarray) -> np.ndarray:
        """Per-band uint64 bucket keys for a block of embeddings."""
        out = np.empty((self.bands, embeddings.shape[0]), dtype=np.uint64)
        planes = self.planes()
        for b in range(self.bands):
            out[b] = _streamed_band_keys(
                embeddings,
                planes[b * self.rows : (b + 1) * self.rows],
                self.signature_chunk,
            )
        return out

    def _runs(self) -> Tuple[_Run, ...]:
        """The bucket index as sorted runs; a loaded archive's photo-order
        keys become its base run here, on its first upload."""
        if isinstance(self._index, np.ndarray):
            self._index = (_sorted_run(self._index, 0),)
        return self._index

    @property
    def band_keys(self) -> np.ndarray:
        """``(bands, n)`` uint64 bucket keys in photo order (a new array:
        the stored document's form, scattered back from the runs)."""
        if isinstance(self._index, np.ndarray):
            return self._index.astype(np.uint64)
        out = np.empty((self.bands, self.n), dtype=np.uint64)
        for b in range(self.bands):
            for run in self._index:
                out[b, run.order[b]] = run.keys[b]
        return out

    # ------------------------------------------------------------ creation

    @classmethod
    def create(
        cls,
        costs: np.ndarray,
        embeddings: np.ndarray,
        budget: float,
        *,
        tau: float,
        seed: int = 0,
        n_bits: Union[int, str] = "auto",
        target_recall: float = 0.95,
        retained=(),
        subset_id: str = "archive",
        weight: float = 1.0,
        dtype=np.float64,
        chunk_pairs: int = DEFAULT_VERIFY_CHUNK,
        signature_chunk: int = DEFAULT_SIGNATURE_CHUNK,
    ) -> Tuple["LiveArchive", ScaleBuildReport]:
        """Fused streamed build plus the banding state deltas will reuse.

        ``n_bits="auto"`` resolves against the *initial* archive size and
        is then frozen: the planes must stay fixed as the archive grows,
        or old and new bucket keys would stop being comparable.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2:
            raise ConfigurationError("embeddings must be a 2-D (n, dim) array")
        n = embeddings.shape[0]
        if n_bits == "auto":
            n_bits = recommended_bits(n, tau, target_recall)
        bands, rows = tune_bands(tau, n_bits, target_recall)
        if rows > 64:
            raise ConfigurationError(
                f"tuned band rows {rows} > 64; pass a smaller n_bits"
            )
        # The emitter sorts every band's keys for the candidates; the
        # sorted keys and their order are the base run, so uploads pay
        # only the merge of their own keys and no band is hashed or
        # sorted twice.
        base = _Run(
            np.empty((bands, n), dtype=_key_dtype(rows)),
            np.empty((bands, n), dtype=np.int32),
        )
        instance, report = build_streamed_instance(
            costs,
            embeddings,
            budget,
            tau=tau,
            subset_id=subset_id,
            weight=weight,
            retained=retained,
            n_bits=n_bits,
            target_recall=target_recall,
            rng=int(seed),
            dtype=dtype,
            chunk_pairs=chunk_pairs,
            signature_chunk=signature_chunk,
            keep_embeddings=True,
            _bucket_index=base,
        )
        hasher = SimHasher(
            embeddings.shape[1], int(n_bits), np.random.default_rng(int(seed))
        )
        archive = cls(
            instance,
            tau=tau,
            seed=int(seed),
            n_bits=int(n_bits),
            bands=bands,
            rows=rows,
            target_recall=target_recall,
            subset_id=subset_id,
            weight=weight,
            raw_relevance=np.ones(n, dtype=np.float64),
            band_keys=(base,),
            signature_chunk=signature_chunk,
            chunk_pairs=chunk_pairs,
        )
        archive._planes = hasher.planes
        return archive, report

    # ----------------------------------------------------------- ingestion

    def ingest(
        self, costs: np.ndarray, embeddings: np.ndarray
    ) -> Tuple["LiveArchive", IngestReport]:
        """Absorb ``k`` new photos; returns ``(grown_archive, report)``.

        :meth:`delta` then ``_extend``; the report carries the delta, which
        is what the live manager logs.  ``self`` is left untouched — the
        caller swaps archives only after the grown one is durable, which
        is what makes a mid-ingest crash invisible.
        """
        t0 = time.perf_counter()
        delta, n_candidates = self.delta(costs, embeddings)
        grown = self._extend(delta)
        report = IngestReport(
            n_before=self.n,
            n_added=delta.k,
            candidate_pairs=n_candidates,
            kept_pairs=int(delta.rows.size),
            nnz=grown.instance.subsets[0].similarity.nnz(),
            seconds=time.perf_counter() - t0,
            delta=delta,
        )
        return grown, report

    def delta(
        self, costs: np.ndarray, embeddings: np.ndarray
    ) -> Tuple[Delta, int]:
        """What ``k`` new photos add: ``(delta, candidate_pair_count)``.

        Only the new photos are bucketed.  Candidates are the old↔new
        within-bucket matches (two sorted searches per band and run, the
        rest done once for all bands) plus the new↔new pairs (one call of
        the builder's emitter over ``(band, key)`` groups); both touch the
        appended id range, which is exactly the contract of
        :meth:`SparseSimilarity.append_rows`.  Only the candidates'
        endpoints are normalised; ``unit_normalize`` works row by row, so
        every value equals the fresh build's.
        """
        n = self.n
        new_emb = np.asarray(embeddings, dtype=np.float64)
        if new_emb.ndim != 2 or new_emb.shape[1] != self.dim:
            raise ValidationError(
                f"expected embeddings of shape (k, {self.dim}), "
                f"got {new_emb.shape}"
            )
        k = new_emb.shape[0]
        if k < 1:
            raise ValidationError("a delta must contain at least one photo")
        check_finite(new_emb, "embeddings")
        new_costs = np.asarray(costs, dtype=np.float64).ravel()
        if new_costs.size != k:
            raise ValidationError(
                f"costs length {new_costs.size} != embedding rows {k}"
            )
        if not np.all(np.isfinite(new_costs) & (new_costs > 0)):
            raise ValidationError("costs must be positive and finite")
        total = n + k
        bands = self.bands

        new_keys = self._keys_for(new_emb)
        narrow = new_keys.astype(_key_dtype(self.rows))
        # Band b's new photo j sits at flat position b*k + j.
        new_ids = n + np.tile(np.arange(k, dtype=np.int64), bands)
        pending = []
        left = np.empty((bands, k), dtype=np.int64)
        right = np.empty((bands, k), dtype=np.int64)
        for run in self._runs():
            # old↔new: every stored photo sharing a bucket with a new one.
            for b in range(bands):
                left[b] = run.keys[b].searchsorted(narrow[b], side="left")
                right[b] = run.keys[b].searchsorted(narrow[b], side="right")
            counts = (right - left).ravel()
            hits = int(counts.sum())
            if not hits:
                continue
            left += np.arange(0, bands * run.size, run.size)[:, None]
            # Hit t of group g reads flat slot left[g] + (t - first[g]).
            first = np.cumsum(counts) - counts
            slots = np.repeat(left.ravel() - first, counts)
            slots += np.arange(hits)
            old_idx = run.order.ravel()[slots].astype(np.int64)
            pending.append(old_idx * total + np.repeat(new_ids, counts))
        # new↔new: the builder's own emitter over (band, key) group ids —
        # each band's keys ranked among themselves, offset by b*k.
        perm = np.argsort(narrow, axis=1, kind="stable")
        ranked = np.take_along_axis(narrow, perm, axis=1)
        rank = np.zeros((bands, k), dtype=np.int64)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
        rank += np.arange(0, bands * k, k)[:, None]
        groups = np.empty((bands, k), dtype=np.int64)
        np.put_along_axis(groups, perm, rank, axis=1)
        local = _emit_band_pairs(groups.ravel(), bands * k, self.chunk_pairs)
        if local.size:
            li = new_ids[local // (bands * k)]
            lj = new_ids[local % (bands * k)]
            pending.append(li * total + lj)
        if pending:
            pair_keys = _sorted_dedup(np.concatenate(pending))
            ii = pair_keys // total
            jj = pair_keys % total
        else:
            ii = np.zeros(0, dtype=np.int64)
            jj = np.zeros(0, dtype=np.int64)
        n_candidates = int(ii.size)

        # ii is sorted and every jj is new: gather the old endpoints once,
        # after them the k new rows, and verify in that compact numbering.
        old_ii = ii[ii < n]
        fresh = np.ones(old_ii.size, dtype=bool)
        np.not_equal(old_ii[1:], old_ii[:-1], out=fresh[1:])
        endpoints = old_ii[fresh]
        compact = endpoints.size + k
        ci = np.concatenate(
            [np.cumsum(fresh) - 1, endpoints.size + ii[old_ii.size :] - n]
        )
        unit = unit_normalize(
            np.concatenate([self.instance.embeddings[endpoints], new_emb])
        )
        ki, kj, vals = verify_candidate_pairs(
            unit,
            ci * compact + (endpoints.size + jj - n),
            self.tau,
            chunk=self.chunk_pairs,
        )
        ids = np.concatenate([endpoints, np.arange(n, total, dtype=np.int64)])
        return (
            Delta(new_costs, new_emb, new_keys, ids[ki], ids[kj], vals),
            n_candidates,
        )

    def _extend(self, delta: Delta, *, validate: bool = False) -> "LiveArchive":
        """The archive grown by ``delta`` — the one growth path, shared by
        ingestion and :func:`fold`.

        ``validate=True`` re-checks the pairs inside ``append_rows`` (the
        fold's logged records); an ingestion's own delta is trusted.  The
        instance itself is not re-validated: only the appended rows and
        costs are new, and re-validating all ``n + k`` would make uploads
        O(n).  The bucket index grows by a merge of the delta's keys
        (:func:`_grown_index`); a loaded archive not yet sorted
        concatenates them instead.
        """
        inst = self.instance
        n, k = inst.n, delta.k
        total = n + k
        sim = inst.subsets[0].similarity.append_rows(
            k, delta.rows, delta.cols, delta.vals, validate=validate
        )
        raw = np.concatenate([self.raw_relevance, np.ones(k)])
        grown_subset = PredefinedSubset(
            self.subset_id,
            self.weight,
            np.arange(total, dtype=np.int64),
            raw / raw.sum(),
            sim,
            normalize=False,
        )
        grown = PARInstance(
            np.concatenate([inst.costs, delta.costs]),
            [grown_subset],
            inst.budget,
            retained=inst.retained,
            embeddings=np.concatenate([inst.embeddings, delta.embeddings]),
            labels=None if inst.labels is None else [*inst.labels, *[""] * k],
            metadata=None if inst.metadata is None else [*inst.metadata, *[{}] * k],
            validate=False,
        )
        new_keys = delta.band_keys.astype(_key_dtype(self.rows))
        if isinstance(self._index, np.ndarray):
            index = np.concatenate([self._index, new_keys], axis=1)
        else:
            index = _grown_index(self._index, _sorted_run(new_keys, n), total, k)
        return self._replaced(grown, raw, index)

    def _replaced(
        self,
        instance: PARInstance,
        raw_relevance: np.ndarray,
        index: Union[np.ndarray, Tuple[_Run, ...]],
    ) -> "LiveArchive":
        """An archive with this one's settings and planes over new state."""
        archive = LiveArchive(
            instance,
            tau=self.tau,
            seed=self.seed,
            n_bits=self.n_bits,
            bands=self.bands,
            rows=self.rows,
            target_recall=self.target_recall,
            subset_id=self.subset_id,
            weight=self.weight,
            raw_relevance=raw_relevance,
            band_keys=index,
            signature_chunk=self.signature_chunk,
            chunk_pairs=self.chunk_pairs,
        )
        archive._planes = self._planes
        return archive

    def compacted(self) -> "LiveArchive":
        """This archive with its similarity's tail merged into a fresh base
        (``self`` when there is no tail).

        The rows, and so every answer, stay the same.  The live manager
        calls it before writing a full base: :meth:`to_doc` then reads the
        CSR in place instead of copying it, and the archive that keeps
        growing drops its old base and tail at once.
        """
        inst = self.instance
        subset = inst.subsets[0]
        sim = subset.similarity
        if not sim.is_sparse or sim.parts()[1] is None:
            return self
        compact = PARInstance(
            inst.costs,
            [
                PredefinedSubset(
                    subset.subset_id,
                    subset.weight,
                    subset.members,
                    subset.relevance,
                    sim.compacted(),
                    validate=False,
                )
            ],
            inst.budget,
            retained=inst.retained,
            embeddings=inst.embeddings,
            labels=inst.labels,
            metadata=inst.metadata,
            validate=False,
        )
        return self._replaced(compact, self.raw_relevance, self._index)

    # --------------------------------------------------------- persistence

    def to_doc(self) -> Dict[str, Any]:
        """The instance document in array form, live sidecar under ``"live"``.

        :func:`repro.core.serialize.instance_from_dict` reads only the keys
        it knows, so the same stored document keeps serving plain
        ``by_ref`` solves while carrying the banding state deltas need.
        Every array leaf but the band keys is a view of this archive's
        own state — the tenant store writes them as raw bytes, never as
        decimal text.
        """
        doc = instance_to_dict(self.instance, arrays=True)
        doc["live"] = {
            "format": LIVE_FORMAT,
            "tau": self.tau,
            "seed": self.seed,
            "n_bits": self.n_bits,
            "bands": self.bands,
            "rows": self.rows,
            "target_recall": self.target_recall,
            "subset_id": self.subset_id,
            "weight": self.weight,
            "raw_relevance": self.raw_relevance,
            "band_keys": self.band_keys,
        }
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "LiveArchive":
        """Rebuild from :meth:`to_doc`'s array form or any all-lists JSON
        rendering of it (format-1 blobs hold one, with neighbour rows)."""
        live = doc.get("live")
        if not isinstance(live, dict):
            raise ValidationError("document carries no 'live' sidecar")
        if live.get("format") != LIVE_FORMAT:
            raise ValidationError(
                f"unsupported live format {live.get('format')!r}"
            )
        instance = instance_from_dict(doc)
        if instance.embeddings is None:
            raise ValidationError(
                "live document lost its embeddings; cannot ingest deltas"
            )
        try:
            rows = int(live["rows"])
            archive = cls(
                instance,
                tau=float(live["tau"]),
                seed=int(live["seed"]),
                n_bits=int(live["n_bits"]),
                bands=int(live["bands"]),
                rows=rows,
                target_recall=float(live["target_recall"]),
                subset_id=str(live["subset_id"]),
                weight=float(live["weight"]),
                raw_relevance=np.asarray(
                    live["raw_relevance"], dtype=np.float64
                ),
                band_keys=_checked_band_keys(
                    live["band_keys"], rows, "live band_keys"
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed live sidecar: {exc!r}") from exc
        if archive.raw_relevance.shape != (archive.n,):
            raise ValidationError(
                f"live raw_relevance shape {archive.raw_relevance.shape} != "
                f"({archive.n},)"
            )
        # The bucket keys are sorted on the first upload, not here: a
        # loaded archive may only ever be folded and solved.
        return archive


def fold(store: Any, envelope: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[LiveArchive]]:
    """Apply a stored envelope's logged records to its base document.

    ``envelope`` is what :meth:`repro.tenants.store.TenantStore.get`
    returned.  Without ``"records"`` it comes back unchanged, with
    ``None`` for the archive.  Otherwise every record is checked as strictly as an upload
    body (:meth:`Delta.from_record`, a curation object) and the photo
    records are applied by one ``_extend`` over their concatenation.  The
    result is the envelope the resident copy would have written: the
    grown archive's document with the last record's curation, at the last
    record's version — plus the grown archive itself.

    The first invalid record, and every record after it, is cut from the
    store's log (quarantined, never served); the envelope then ends at
    the last good record.
    """
    records = envelope.get("records")
    if not records:
        return envelope, None
    tenant, instance_id = envelope.get("tenant"), envelope.get("instance_id")
    base_envelope = {k: v for k, v in envelope.items() if k != "records"}
    doc = envelope["instance"]
    try:
        archive = LiveArchive.from_doc(doc)
    except ValidationError as exc:
        store.cut_log(tenant, instance_id, records[0]["version"], str(exc))
        return base_envelope, None
    curation = doc["live"].get("curation", {})
    deltas: List[Delta] = []
    n = archive.n
    good = 0
    for rec in records:
        body = rec["record"]
        try:
            delta = (
                None
                if set(body) == {"curation"}
                else Delta.from_record(body, archive, n)
            )
            _check_curation(body.get("curation"))
        except ValidationError as exc:
            store.cut_log(tenant, instance_id, rec["version"], f"invalid record: {exc}")
            break
        if delta is not None:
            deltas.append(delta)
            n += delta.k
        curation = body["curation"]
        good += 1
    if not good:
        return base_envelope, archive
    if deltas:
        archive = archive._extend(Delta.concat(deltas), validate=True)
    grown = archive.to_doc()
    grown["live"]["curation"] = curation
    last = records[good - 1]
    base_envelope.update(
        instance=grown, version=last["version"], updated_at=last["updated_at"]
    )
    return base_envelope, archive


def _check_curation(curation: Any) -> None:
    """A logged curation block must rebuild as the live manager reads it."""
    if not isinstance(curation, dict):
        raise ValidationError("a record's curation must be an object")
    try:
        solve_result_from_dict(curation.get("solution"))
        int(curation.get("pending_deltas", 0))
        int(curation.get("pending_photos", 0))
        float(curation.get("accumulated_regret", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed curation block: {exc!r}") from exc

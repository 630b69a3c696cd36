"""Live archive: a stored PAR instance that absorbs photo deltas in place.

A :class:`LiveArchive` is the in-memory half of online curation — one
sparse archive-wide instance plus exactly the SimHash state needed to
bucket *new* photos against it:

* the seeded hyperplanes (re-derived from ``(seed, n_bits, dim)``, never
  stored);
* one ``uint64`` bucket key per photo per band (``O(n · bands)`` ints,
  the only per-photo LSH residue kept between uploads).

:meth:`ingest` re-buckets only the ``k`` arriving photos: their band keys
are matched against the stored keys (old↔new candidates, a sorted search
per band) and against each other (new↔new, the builder's own
within-bucket emitter), verified with the shared exact-cosine kernel, and
appended to the CSR via :meth:`SparseSimilarity.append_rows` — the dense
SIM is never rebuilt and the old CSR region is never re-sorted.  The
grown instance is **bit-identical** to a from-scratch
:func:`repro.scale.build_streamed_instance` over the union of photos at
the same ``(seed, n_bits)``: identical planes give identical bucket keys,
the union of (old-old, old-new, new-new) within-bucket pairs is exactly
the fresh build's candidate set, and both paths verify through
:func:`repro.sparsify.simhash.verify_candidate_pairs` (per-pair values
independent of chunking) into the same canonical CSR layout.

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

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

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
        ``(bands, k)``, and every pair in range, off-diagonal, touching
        ``[n, n + k)``, unique and valued in ``[0, 1]``.
        """
        try:
            pairs = record["pairs"]
            costs = np.asarray(record["costs"], dtype=np.float64)
            embeddings = np.asarray(record["embeddings"], dtype=np.float64)
            band_keys = np.asarray(record["band_keys"], dtype=np.uint64)
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
        "band_keys",
        "signature_chunk",
        "chunk_pairs",
        "_planes",
        "_sorted_keys",
        "_key_order",
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
        band_keys: np.ndarray,
        signature_chunk: int = DEFAULT_SIGNATURE_CHUNK,
        chunk_pairs: int = DEFAULT_VERIFY_CHUNK,
    ) -> None:
        if instance.embeddings is None:
            raise ConfigurationError(
                "a live archive needs embeddings attached to its instance"
            )
        if rows > 64:
            raise ConfigurationError(
                "live archives require band rows <= 64 (single-word bucket "
                "keys are the only banding stable under deltas)"
            )
        if band_keys.shape != (bands, instance.n):
            raise ConfigurationError(
                f"band_keys shape {band_keys.shape} != ({bands}, {instance.n})"
            )
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
        self.band_keys = np.ascontiguousarray(band_keys, dtype=np.uint64)
        self.signature_chunk = int(signature_chunk)
        self.chunk_pairs = int(chunk_pairs)
        self._planes: Optional[np.ndarray] = None
        self._sorted_keys: Optional[np.ndarray] = None
        self._key_order: Optional[np.ndarray] = None

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

    def _sorted_key_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-band sorted bucket keys plus the argsort realising them.

        The old↔new candidate search is a binary search of the stored
        keys, which needs them sorted per band.  Sorting ``O(n log n)``
        keys on every upload would dominate small deltas, so the sorted
        view is built once per archive lifetime and then *merged* forward
        at each ingest (a linear interleave of ``k`` new keys) — the
        steady-state upload path never re-sorts the stored keys.
        """
        if self._key_order is None:
            order = np.argsort(self.band_keys, axis=1, kind="stable")
            self._key_order = order
            self._sorted_keys = np.take_along_axis(
                self.band_keys, order, axis=1
            )
        return self._sorted_keys, self._key_order

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
        )
        hasher = SimHasher(
            embeddings.shape[1], int(n_bits), np.random.default_rng(int(seed))
        )
        band_keys = np.empty((bands, n), dtype=np.uint64)
        for b in range(bands):
            band_keys[b] = _streamed_band_keys(
                instance.embeddings,
                hasher.planes[b * rows : (b + 1) * rows],
                signature_chunk,
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
            band_keys=band_keys,
            signature_chunk=signature_chunk,
            chunk_pairs=chunk_pairs,
        )
        archive._planes = hasher.planes
        # Sort the bucket keys now, at build time: uploads then pay only
        # the linear merge, never an O(n log n) sort.
        archive._sorted_key_state()
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
        within-bucket matches (one sorted search of the stored keys per
        band) plus the new↔new pairs; both necessarily touch the appended
        id range, which is exactly the contract of
        :meth:`SparseSimilarity.append_rows`.
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

        new_keys = self._keys_for(new_emb)
        sorted_keys, key_order = self._sorted_key_state()
        pending = []
        for b in range(self.bands):
            new_b = new_keys[b]
            # old↔new: every stored photo sharing a bucket with a new one
            # — a binary search of the cached sorted keys, no re-sort.
            sorted_old = sorted_keys[b]
            order = key_order[b]
            left = np.searchsorted(sorted_old, new_b, side="left")
            right = np.searchsorted(sorted_old, new_b, side="right")
            counts = right - left
            hits = int(counts.sum())
            if hits:
                starts = np.repeat(left, counts)
                within = np.arange(hits, dtype=np.int64) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                old_idx = order[starts + within]
                new_idx = n + np.repeat(np.arange(k, dtype=np.int64), counts)
                pending.append(old_idx * np.int64(total) + new_idx)
            # new↔new: the builder's own within-bucket emitter over just
            # the delta, re-keyed from local to global ids.
            local = _emit_band_pairs(new_b, k, self.chunk_pairs)
            if local.size:
                li = local // np.int64(k) + n
                lj = local % np.int64(k) + n
                pending.append(li * np.int64(total) + lj)
        if pending:
            keys = _sorted_dedup(np.concatenate(pending))
            ii = keys // np.int64(total)
            jj = keys % np.int64(total)
        else:
            ii = np.zeros(0, dtype=np.int64)
            jj = np.zeros(0, dtype=np.int64)
        n_candidates = int(ii.size)

        unit = unit_normalize(np.concatenate([self.instance.embeddings, new_emb]))
        ki, kj, vals = verify_candidate_pairs(
            unit, ii, jj, self.tau, chunk=self.chunk_pairs
        )
        return Delta(new_costs, new_emb, new_keys, ki, kj, vals), n_candidates

    def _extend(self, delta: Delta, *, validate: bool = False) -> "LiveArchive":
        """The archive grown by ``delta`` — the one growth path, shared by
        ingestion and :func:`fold`.

        ``validate=True`` re-checks the pairs inside ``append_rows`` (the
        fold's logged records); an ingestion's own delta is trusted.  The
        instance itself is not re-validated: only the appended rows and
        costs are new, and re-validating all ``n + k`` would make uploads
        O(n).
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
        archive = LiveArchive(
            grown,
            tau=self.tau,
            seed=self.seed,
            n_bits=self.n_bits,
            bands=self.bands,
            rows=self.rows,
            target_recall=self.target_recall,
            subset_id=self.subset_id,
            weight=self.weight,
            raw_relevance=raw,
            band_keys=np.concatenate([self.band_keys, delta.band_keys], axis=1),
            signature_chunk=self.signature_chunk,
            chunk_pairs=self.chunk_pairs,
        )
        archive._planes = self._planes
        if self._key_order is None:
            return archive  # sorted lazily, on the grown archive's first upload
        # Carry the sorted-key cache forward with a linear merge: the k
        # new keys (sorted among themselves) interleave into each band's
        # already-sorted run.  Any interleave that keeps keys sorted is a
        # valid argsort — equal keys are interchangeable for the bucket
        # search, which recovers hit *sets*, not orders.
        sorted_keys, key_order = self._sorted_keys, self._key_order
        new_keys = delta.band_keys
        new_order = np.argsort(new_keys, axis=1, kind="stable")
        new_sorted = np.take_along_axis(new_keys, new_order, axis=1)
        merged_sorted = np.empty((self.bands, total), dtype=np.uint64)
        merged_order = np.empty((self.bands, total), dtype=np.int64)
        for b in range(self.bands):
            pos = np.searchsorted(sorted_keys[b], new_sorted[b], side="right")
            merged_sorted[b] = np.insert(sorted_keys[b], pos, new_sorted[b])
            merged_order[b] = np.insert(key_order[b], pos, new_order[b] + n)
        archive._sorted_keys = merged_sorted
        archive._key_order = merged_order
        return archive

    # --------------------------------------------------------- persistence

    def to_doc(self) -> Dict[str, Any]:
        """The instance document in array form, live sidecar under ``"live"``.

        :func:`repro.core.serialize.instance_from_dict` reads only the keys
        it knows, so the same stored document keeps serving plain
        ``by_ref`` solves while carrying the banding state deltas need.
        Every array leaf is a view of this archive's own state — the
        tenant store writes them as raw bytes, never as decimal text.
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
            archive = cls(
                instance,
                tau=float(live["tau"]),
                seed=int(live["seed"]),
                n_bits=int(live["n_bits"]),
                bands=int(live["bands"]),
                rows=int(live["rows"]),
                target_recall=float(live["target_recall"]),
                subset_id=str(live["subset_id"]),
                weight=float(live["weight"]),
                raw_relevance=np.asarray(
                    live["raw_relevance"], dtype=np.float64
                ),
                band_keys=np.asarray(live["band_keys"], dtype=np.uint64),
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

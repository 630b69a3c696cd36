"""Fused streamed instance builder: embeddings → LSH → CSR, no dense SIM.

The build runs four bounded-memory phases, each traced and counted when
observability is armed (``phocus_scalebuild_*`` families):

``signatures``
    Seeded random hyperplanes (one :class:`SimHasher`, consuming the rng
    exactly like the unfused pipeline) and the ``(bands, rows)`` tuning;
    with ``n_bits="auto"`` the width scales so candidate counts stay
    sub-quadratic (:func:`repro.sparsify.simhash.recommended_bits`).
``candidates``
    :func:`lsh_candidate_keys`, the repository's one LSH pair emitter:
    per LSH band, that band's signature bits are computed in photo chunks
    and collapsed to one integer bucket key per photo (a single ``uint64``
    for ``rows ≤ 64``, packed bytes above) — the full ``(n, n_bits)``
    signature matrix is never held.  Photos sharing a key become candidate
    pairs, deduplicated across bands.  The native emitter
    (``native_lsh.c``) serves whenever the library loads: a stable radix
    sort per band, then every photo's partners over all bands written
    once each, in order.  Without a compiler the numpy emitter generates
    each band's pairs in batches of about ``chunk_pairs`` and merges them
    with sorted-unique merges.  Both give the same keys, byte for byte,
    and the candidate set equals the per-band bucket loop of
    ``tests/oracles/lsh.py`` on the same signatures.
``verify``
    Exact cosines for the sorted candidate keys via the shared
    :func:`repro.sparsify.simhash.verify_candidate_pairs` kernel in
    ``chunk_pairs``-sized chunks (``scalebuild.chunk`` fault site fires
    before each chunk).  The native verifier reads each key and both
    unit rows in place; the numpy fallback splits and gathers each chunk
    into buffers it allocates once.  Per-pair values are
    chunk-independent, so the fused build matches the unfused pipeline
    bit for bit.
``assemble``
    Surviving pairs become a canonical-layout CSR
    :class:`SparseSimilarity` (``from_pairs``) wrapped in a single
    archive-wide :class:`PredefinedSubset` and validated
    :class:`PARInstance`.

Peak memory is ``O(n·dim + n·n_bits + candidates + nnz + chunk_pairs)`` —
never O(n²); the candidates are one int64 key each, held once, since
verification reads the keys themselves.  See ``docs/million_scale.md``
for the full memory model and chunk tuning guidance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import faults
from repro.core import native
from repro.core.instance import (
    PARInstance,
    Photo,
    PredefinedSubset,
    SparseSimilarity,
    check_finite,
    normalize_relevance,
)
from repro.errors import ConfigurationError
from repro.obs import probes
from repro.obs import trace as _trace
from repro.sparsify.simhash import (
    DEFAULT_VERIFY_CHUNK,
    SimHasher,
    recommended_bits,
    tune_bands,
    unit_normalize,
    verify_candidate_pairs,
)

__all__ = [
    "ScaleBuildReport",
    "build_streamed_instance",
    "lsh_candidate_keys",
    "save_streamed_instance",
]

#: Photos whose signatures are computed per chunk (bounds the matmul
#: temporary to O(signature_chunk · n_bits)).
DEFAULT_SIGNATURE_CHUNK = 1 << 16


@dataclass
class ScaleBuildReport:
    """Diagnostics of one fused streamed build."""

    n_photos: int
    dim: int
    tau: float
    n_bits: int
    bands: int
    rows: int
    target_recall: float
    dtype: str
    chunk_pairs: int
    signature_chunk: int
    candidate_pairs: int
    verified_pairs: int
    kept_pairs: int
    nnz: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def build_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    @property
    def candidate_fraction(self) -> float:
        """Candidates over all possible pairs (the LSH saving)."""
        total = self.n_photos * (self.n_photos - 1) // 2
        return self.candidate_pairs / total if total else 0.0

    @property
    def kept_fraction(self) -> float:
        """Verified pairs that survived τ."""
        if self.verified_pairs == 0:
            return 0.0
        return self.kept_pairs / self.verified_pairs

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_photos": self.n_photos,
            "dim": self.dim,
            "tau": self.tau,
            "n_bits": self.n_bits,
            "bands": self.bands,
            "rows": self.rows,
            "target_recall": self.target_recall,
            "dtype": self.dtype,
            "chunk_pairs": self.chunk_pairs,
            "signature_chunk": self.signature_chunk,
            "candidate_pairs": self.candidate_pairs,
            "verified_pairs": self.verified_pairs,
            "kept_pairs": self.kept_pairs,
            "nnz": self.nnz,
            "candidate_fraction": self.candidate_fraction,
            "kept_fraction": self.kept_fraction,
            "phase_seconds": dict(self.phase_seconds),
            "build_seconds": self.build_seconds,
        }


def _band_keys(band: np.ndarray) -> np.ndarray:
    """Collapse one band's signature bits to one sortable key per photo.

    For ``rows ≤ 64`` the bits pack into a single ``uint64`` (equal key ⟺
    equal band bits, exactly the bucket equivalence of banded LSH).  Wider
    bands pack to bytes and are relabelled with dense group ids via
    ``np.unique``.
    """
    rows = band.shape[1]
    if rows <= 64:
        powers = np.left_shift(np.uint64(1), np.arange(rows, dtype=np.uint64))
        return band.astype(np.uint64) @ powers
    packed = np.packbits(band, axis=1)
    _, inverse = np.unique(packed, axis=0, return_inverse=True)
    return inverse.astype(np.int64)


def _streamed_band_keys(
    embeddings: np.ndarray,
    planes_band: np.ndarray,
    signature_chunk: int,
    on_chunk: Optional[Callable[[], None]] = None,
) -> np.ndarray:
    """One band's bucket keys, signatures computed in photo chunks.

    Equivalent to slicing a full ``(n, n_bits)`` signature matrix — the
    sign of each bit is a single length-``dim`` dot product either way —
    but peak scratch is ``O(signature_chunk · rows)`` instead of
    ``O(n · n_bits)``, which matters once ``recommended_bits`` pushes the
    signature into the thousands of bits.
    """
    n = embeddings.shape[0]
    rows = planes_band.shape[0]
    if rows <= 64:
        powers = np.left_shift(np.uint64(1), np.arange(rows, dtype=np.uint64))
        keys = np.empty(n, dtype=np.uint64)
        for start in range(0, n, signature_chunk):
            end = min(start + signature_chunk, n)
            if on_chunk is not None:
                on_chunk()
            bits = (embeddings[start:end] @ planes_band.T) >= 0.0
            keys[start:end] = bits.astype(np.uint64) @ powers
        return keys
    # rows > 64 cannot pack into one machine word; fall back to holding
    # this one band's bits (still O(n · rows), never O(n · n_bits)).
    bits = np.empty((n, rows), dtype=bool)
    for start in range(0, n, signature_chunk):
        end = min(start + signature_chunk, n)
        if on_chunk is not None:
            on_chunk()
        bits[start:end] = (embeddings[start:end] @ planes_band.T) >= 0.0
    return _band_keys(bits)


def _sorted_dedup(arr: np.ndarray) -> np.ndarray:
    """In-place sort + adjacent-duplicate drop (``np.unique`` without the
    hash table — the sort path is several times faster on int64 keys)."""
    arr.sort()
    if arr.size < 2:
        return arr
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def _emit_band_pairs(
    keys: np.ndarray,
    n: int,
    chunk_pairs: int,
    on_batch: Optional[Callable[[int], None]] = None,
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pair keys ``i * n + j`` (i < j) for one band.

    Photos sharing a bucket key pair up all-vs-all.  Buckets partition the
    photos, so one band never repeats a pair — the returned keys are
    duplicate-free (cross-band dedup is the caller's job).  Pair
    generation is fully vectorised but batched so no temporary exceeds
    ~``chunk_pairs`` entries (a single bucket larger than the chunk still
    emits in one batch — its pair count is irreducible).  ``order`` is
    ``np.argsort(keys, kind="stable")`` when the caller already has it.
    """
    if order is None:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    m = keys.size
    # Per sorted position: how many within-bucket partners sit to its right.
    if m:
        boundary = np.nonzero(sorted_keys[1:] != sorted_keys[:-1])[0] + 1
        starts = np.concatenate([[0], boundary]).astype(np.int64)
        ends = np.concatenate([boundary, [m]]).astype(np.int64)
        sizes = ends - starts
        end_for_pos = np.repeat(ends, sizes)
        rep = end_for_pos - np.arange(m, dtype=np.int64) - 1
    else:
        rep = np.zeros(0, dtype=np.int64)
    total = int(rep.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)

    cum = np.cumsum(rep)
    n_batches = int((total + chunk_pairs - 1) // chunk_pairs)
    cut_targets = np.arange(1, n_batches, dtype=np.int64) * chunk_pairs
    cuts = np.searchsorted(cum, cut_targets, side="left") + 1
    edges = np.concatenate([[0], cuts, [m]])

    parts: List[np.ndarray] = []
    for b in range(len(edges) - 1):
        lo, hi = int(edges[b]), int(edges[b + 1])
        if lo >= hi:
            continue
        r = rep[lo:hi]
        t = int(r.sum())
        if t == 0:
            continue
        if on_batch is not None:
            on_batch(t)
        starts_flat = np.cumsum(r) - r
        within = np.arange(t, dtype=np.int64) - np.repeat(starts_flat, r)
        left_pos = np.repeat(np.arange(lo, hi, dtype=np.int64), r)
        right_pos = left_pos + 1 + within
        ii = order[left_pos]
        jj = order[right_pos]
        # Stable argsort keeps original order inside a bucket, so ii < jj.
        parts.append(ii * np.int64(n) + jj)
    return np.concatenate(parts)


def lsh_candidate_keys(
    embeddings: np.ndarray,
    planes: np.ndarray,
    bands: int,
    rows: int,
    *,
    chunk_pairs: int = DEFAULT_VERIFY_CHUNK,
    signature_chunk: int = DEFAULT_SIGNATURE_CHUNK,
    on_signature_chunk: Optional[Callable[[], None]] = None,
    on_pair_batch: Optional[Callable[[int], None]] = None,
    _bucket_index: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, float]:
    """Banded SimHash candidate pairs of ``embeddings``, as sorted keys.

    Band ``b`` hashes with ``planes[b*rows:(b+1)*rows]``.  Photos whose
    bits agree on a whole band pair up.  A pair ``(i, j)`` with ``i < j``
    is the key ``i * n + j``, where ``n = len(embeddings)``.  The keys
    come back sorted and unique, which is the ascending ``(i, j)`` order.

    This is the one LSH pair emitter: the fused builder, ``LiveArchive.
    create`` and ``sparsify_instance(method="lsh")`` all call it.  Each
    band's signatures come in photo chunks of ``signature_chunk``
    (``on_signature_chunk()`` fires before each), and its bucket keys go
    to one of two emitters that return the same keys, byte for byte:

    * the native emitter (``native_lsh.c``, whenever
      :func:`repro.core.native.candidate_emitter` loads) sorts each band
      with a stable radix sort and keeps its order, 12 bytes per photo
      per band; it then writes every photo's partners across all bands,
      deduplicated, in photo blocks of about ``chunk_pairs`` emitted pairs
      (``on_pair_batch(count)`` fires before each) straight into the
      exactly sized result;
    * the numpy emitter, without a compiler, holds one band at a time,
      emits its pairs in batches of about ``chunk_pairs``
      (``on_pair_batch(count)`` fires before each) and folds them into
      the result with sorted merges on a geometric schedule.

    Either way temporary memory stays within about twice the unique
    candidates plus a bounded buffer, never the bands-fold blow-up of one
    collect-then-unique, and results do not depend on either chunk size.

    ``_bucket_index`` is internal to :meth:`repro.live.LiveArchive.create`:
    ``(keys, order)``, two ``(bands, n)`` arrays (``order`` int32) that
    receive every band's keys in stable sorted order and that order.

    Returns ``(keys, signature_seconds)``, the second being the time
    spent computing signatures.
    """
    n = embeddings.shape[0]
    index_keys, index_order = _bucket_index or (None, None)
    emitter = native.candidate_emitter(n, bands, index_order)
    # Keys below 2**rows, or group ids below n for rows past a word.
    bound = 1 << rows if rows <= 64 else n
    sig_seconds = 0.0
    keys = np.zeros(0, dtype=np.int64)
    pending: List[np.ndarray] = []
    pending_count = 0
    for b in range(bands):
        ts = time.perf_counter()
        band_keys = _streamed_band_keys(
            embeddings,
            planes[b * rows : (b + 1) * rows],
            signature_chunk,
            on_signature_chunk,
        )
        sig_seconds += time.perf_counter() - ts
        if emitter is not None:
            emitter.add_band(band_keys, bound)
            if index_keys is not None:
                index_keys[b] = emitter.sorted_keys
            continue
        order = np.argsort(band_keys, kind="stable")
        if index_keys is not None:
            index_keys[b] = band_keys[order]
            index_order[b] = order
        band_pair_keys = _emit_band_pairs(
            band_keys, n, chunk_pairs, on_pair_batch, order
        )
        if band_pair_keys.size:
            pending.append(band_pair_keys)
            pending_count += band_pair_keys.size
        # Geometric merge schedule: fold the pending band outputs into
        # the sorted accumulator only once they rival its size, so the
        # whole pass costs O(log bands) full sorts instead of one per
        # band, while temporary memory stays within ~2x the unique
        # candidates plus a bounded pending buffer.
        if pending and pending_count >= max(keys.size, 8 * chunk_pairs):
            keys = _sorted_dedup(np.concatenate([keys] + pending))
            pending, pending_count = [], 0
    if emitter is not None:
        return emitter.pair_keys(chunk_pairs, on_pair_batch), sig_seconds
    if pending:
        keys = _sorted_dedup(np.concatenate([keys] + pending))
    return keys, sig_seconds


def build_streamed_instance(
    costs: np.ndarray,
    embeddings: np.ndarray,
    budget: float,
    *,
    tau: float,
    subset_id: str = "archive",
    weight: float = 1.0,
    relevance: Optional[np.ndarray] = None,
    retained: Iterable[int] = (),
    n_bits: Union[int, str] = "auto",
    target_recall: float = 0.95,
    rng: Union[np.random.Generator, int, None] = None,
    dtype=np.float64,
    chunk_pairs: int = DEFAULT_VERIFY_CHUNK,
    signature_chunk: int = DEFAULT_SIGNATURE_CHUNK,
    keep_embeddings: bool = False,
    photos: Optional[List[Photo]] = None,
    _bucket_index: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[PARInstance, ScaleBuildReport]:
    """Build a sparse archive-wide PAR instance straight from embeddings.

    Parameters
    ----------
    costs, embeddings:
        Per-photo byte costs ``(n,)`` and embedding matrix ``(n, dim)``.
    budget:
        Byte budget ``B`` of the instance.
    tau:
        Sparsification threshold: pairs with cosine < τ are dropped.
    subset_id, weight, relevance, retained:
        The single archive-wide subset's identity, importance, per-photo
        relevance (uniform when omitted; normalised to sum to 1) and the
        mandatory-retention ids ``S0``.
    n_bits, target_recall, rng:
        SimHash signature width (the default ``"auto"`` resolves via
        :func:`repro.sparsify.simhash.recommended_bits`, which scales band
        width ~log₂(n) for sub-quadratic candidate counts), banding recall
        target at τ, and the hyperplane randomness (pass an int seed or a
        seeded Generator; matched seed *and* explicit ``n_bits`` reproduce
        the unfused pipeline bit for bit).
    dtype:
        Similarity value storage — ``float64`` (default, bit-exact vs the
        unfused pipeline) or ``float32`` (half the value bytes, ≤ 6e-8
        relative rounding per entry).
    chunk_pairs, signature_chunk:
        Bounded-memory knobs: candidate/verification pairs per chunk and
        photos per signature matmul.  Results are chunk-size independent.
    keep_embeddings:
        Attach the embeddings to the returned instance (off by default —
        at archive scale they are usually the largest array in play).
    photos:
        Pre-built :class:`Photo` records (labels/metadata preserved); when
        omitted, bare records are synthesised from ``costs``.  Their costs
        must match ``costs`` position for position.
    _bucket_index:
        Internal to :meth:`repro.live.LiveArchive.create`: passed to
        :func:`lsh_candidate_keys`, which fills it with every band's
        sorted keys and stable order.

    Returns ``(instance, report)``.  Never materialises an O(n²) object;
    peak memory is ``O(n·dim + n·n_bits + candidates + nnz + chunk)``,
    with one candidate-sized array (the keys): verification reads them
    without splitting them into row and column ids.
    """
    costs = np.asarray(costs, dtype=np.float64).ravel()
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ConfigurationError("embeddings must be a 2-D (n, dim) array")
    n, dim = embeddings.shape
    if costs.size != n:
        raise ConfigurationError(
            f"costs length {costs.size} != embedding rows {n}"
        )
    if n < 1:
        raise ConfigurationError("instance must contain at least one photo")
    check_finite(embeddings, "embeddings")
    if chunk_pairs < 1 or signature_chunk < 1:
        raise ConfigurationError("chunk sizes must be positive")
    if not (0.0 < tau <= 1.0):
        raise ConfigurationError(f"tau must lie in (0, 1], got {tau}")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)

    obs = probes.active()
    phase_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------ signatures
    t0 = time.perf_counter()
    with _trace.span("scalebuild.signatures"):
        if n_bits == "auto":
            n_bits = recommended_bits(n, tau, target_recall)
        bands, rows = tune_bands(tau, n_bits, target_recall)
        hasher = SimHasher(dim, n_bits, rng)
    phase_seconds["signatures"] = time.perf_counter() - t0

    # ------------------------------------------------------------ candidates
    t0 = time.perf_counter()
    with _trace.span("scalebuild.candidates"):

        def _count_chunk(stage: str) -> Callable[..., None]:
            def _inc(*_args) -> None:
                if obs is not None:
                    obs.scalebuild_chunks.labels(stage=stage).inc()

            return _inc

        keys, sig_seconds = lsh_candidate_keys(
            embeddings,
            hasher.planes,
            bands,
            rows,
            chunk_pairs=chunk_pairs,
            signature_chunk=signature_chunk,
            on_signature_chunk=_count_chunk("signatures"),
            on_pair_batch=_count_chunk("candidates"),
            _bucket_index=_bucket_index,
        )
    phase_seconds["signatures"] += sig_seconds
    phase_seconds["candidates"] = time.perf_counter() - t0 - sig_seconds
    n_candidates = int(keys.size)
    if obs is not None:
        obs.scalebuild_candidates.inc(n_candidates)

    # ---------------------------------------------------------------- verify
    t0 = time.perf_counter()
    with _trace.span("scalebuild.verify"):

        def _on_chunk(start: int, end: int) -> None:
            faults.check("scalebuild.chunk")
            if obs is not None:
                obs.scalebuild_chunks.labels(stage="verify").inc()

        unit = unit_normalize(embeddings)
        ki, kj, vals = verify_candidate_pairs(
            unit, keys, tau, chunk=chunk_pairs, on_chunk=_on_chunk
        )
        del unit, keys
    phase_seconds["verify"] = time.perf_counter() - t0
    if obs is not None:
        obs.scalebuild_verified.inc(n_candidates)
        obs.scalebuild_kept.inc(int(ki.size))

    # -------------------------------------------------------------- assemble
    t0 = time.perf_counter()
    with _trace.span("scalebuild.assemble"):
        sparse = SparseSimilarity.from_pairs(
            n, ki, kj, vals, dtype=dtype, validate=False
        )
        if relevance is None:
            rel = np.full(n, 1.0 / n, dtype=np.float64)
        else:
            rel = normalize_relevance(relevance)
        subset = PredefinedSubset(
            subset_id, weight, np.arange(n, dtype=np.int64), rel, sparse,
            normalize=False,
        )
        if photos is not None and len(photos) != n:
            raise ConfigurationError(
                f"{len(photos)} photo records for {n} embedding rows"
            )
        rest = ([subset], budget, retained, embeddings if keep_embeddings else None)
        instance = (
            PARInstance(costs, *rest)
            if photos is None
            else PARInstance.from_photos(photos, *rest)
        )
    phase_seconds["assemble"] = time.perf_counter() - t0

    if obs is not None:
        for phase, seconds in phase_seconds.items():
            obs.scalebuild_phase_seconds.labels(phase=phase).observe(seconds)

    report = ScaleBuildReport(
        n_photos=n,
        dim=dim,
        tau=float(tau),
        n_bits=n_bits,
        bands=bands,
        rows=rows,
        target_recall=float(target_recall),
        dtype=np.dtype(dtype).name,
        chunk_pairs=chunk_pairs,
        signature_chunk=signature_chunk,
        candidate_pairs=n_candidates,
        verified_pairs=n_candidates,
        kept_pairs=int(ki.size),
        nnz=sparse.nnz(),
        phase_seconds=phase_seconds,
    )
    return instance, report


def save_streamed_instance(instance: PARInstance, path) -> int:
    """Serialise a built instance to ``path`` atomically; returns byte size.

    The write goes through :func:`repro.ioutil.atomic_write_bytes` under
    the ``scalebuild`` fault-site family, with ``scalebuild.flush`` firing
    before serialisation — a build killed at any point leaves either the
    complete file or nothing (no partial instance, no stray temp file).
    """
    from repro.core.serialize import instance_to_json

    faults.check("scalebuild.flush")
    with _trace.span("scalebuild.flush"):
        data = instance_to_json(instance).encode("utf-8")
        from repro.ioutil import atomic_write_bytes

        atomic_write_bytes(path, data, site="scalebuild")
    return len(data)

"""Compression-aware archiving (the paper's Section 6 future work).

Section 6: "In future work, we plan to consider which photos to compress
(i.e., to sacrifice quality to gain space) rather than to remove.  While
we believe that our model can already capture this problem, it would be
interesting to see how it performs practically."

This module realises that claim: each photo is expanded into *variants* —
the original plus one or more compressed renditions with smaller byte
costs and degraded fidelity — and the variant universe is encoded as a
plain PAR instance, which the unmodified solvers then optimise.

Encoding.  A variant ``v`` of photo ``p`` at fidelity ``φ ∈ (0, 1]``:

* cost: ``C(v) = C(p) · size_factor`` (the compression ratio);
* similarity: ``SIM(q, x, v) = SIM(q, x, p) · φ`` for every photo/variant
  ``x`` — a compressed copy covers its neighbours (and the original's own
  ``(q, p)`` slot) only up to its fidelity, so selecting it scores
  ``R(q, p) · φ`` where the original would score ``R(q, p)``.

Both are exactly expressible in the PAR model (costs are arbitrary
positives; SIM is any symmetric [0, 1] function), confirming the paper's
"our model can already capture this" — no solver changes are needed.
Selecting several variants of the same photo is never *invalid*, merely
wasteful (their coverage dominates pairwise), and the greedy solvers'
marginal gains make them avoid it naturally; :func:`deduplicate_variants`
post-processes any remaining redundancy for reporting.

Sparse inputs stay sparse: a CSR
:class:`~repro.core.instance.SparseSimilarity` expands into the block
CSR of :func:`_expand_sparse_similarity` (nnz × blocks², no dense
detour).  The flat expansion doubles as the *cross-check oracle* for the
exclusive-choice solver in :mod:`repro.fidelity`: after
:func:`deduplicate_variants` its selection is a feasible exclusive
assignment, and tests assert the exclusive solver's value dominates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
    SparseSimilarity,
)
from repro.errors import ValidationError

__all__ = [
    "CompressionLevel",
    "VariantMap",
    "expand_with_compression",
    "deduplicate_variants",
    "selection_summary",
]

# (fidelity, size factor) for a typical mid-quality JPEG re-encode.
DEFAULT_LEVELS = ((0.85, 0.45),)


@dataclass(frozen=True)
class CompressionLevel:
    """One compression rendition: quality kept vs bytes kept.

    ``fidelity`` multiplies the photo's similarities (coverage power);
    ``size_factor`` multiplies its byte cost.  A useful level has
    ``size_factor < fidelity`` — otherwise the original dominates it.
    """

    fidelity: float
    size_factor: float

    def __post_init__(self) -> None:
        if not (0.0 < self.fidelity < 1.0):
            raise ValidationError("fidelity must lie in (0, 1)")
        if not (0.0 < self.size_factor < 1.0):
            raise ValidationError("size_factor must lie in (0, 1)")


@dataclass
class VariantMap:
    """Bookkeeping from variant ids back to original photos.

    ``origin[v]`` is the original photo id of variant id ``v``;
    ``level[v]`` is ``None`` for originals, else the applied level.
    """

    origin: List[int]
    level: List[Optional[CompressionLevel]]

    def is_original(self, variant_id: int) -> bool:
        return self.level[variant_id] is None

    def originals_of(self, selection: Sequence[int]) -> List[int]:
        """Distinct original photo ids a variant selection represents."""
        return sorted({self.origin[int(v)] for v in selection})


def expand_with_compression(
    instance: PARInstance,
    levels: Sequence[Tuple[float, float]] = DEFAULT_LEVELS,
) -> Tuple[PARInstance, VariantMap]:
    """Expand a PAR instance with compressed variants of every photo.

    Returns the expanded instance (original photos keep their ids;
    variants are appended after them) plus the :class:`VariantMap`.
    Retained photos (``S0``) stay pinned as originals — a policy pin
    means the *full-quality* photo must stay.
    """
    parsed = [CompressionLevel(f, s) for f, s in levels]
    n = instance.n

    origin = list(range(n))
    level: List[Optional[CompressionLevel]] = [None] * n
    photos: List[Photo] = list(instance.photos)
    variant_ids: Dict[Tuple[int, int], int] = {}
    for li, lvl in enumerate(parsed):
        for p in range(n):
            vid = len(photos)
            photos.append(
                Photo(
                    photo_id=vid,
                    cost=float(instance.costs[p] * lvl.size_factor),
                    label=(instance.photos[p].label or f"photo-{p}")
                    + f"@q{lvl.fidelity:.2f}",
                    metadata={"origin": p, "fidelity": lvl.fidelity},
                )
            )
            origin.append(p)
            level.append(lvl)
            variant_ids[(p, li)] = vid

    subsets: List[PredefinedSubset] = []
    for q in instance.subsets:
        m = len(q)
        fidelities = [1.0] + [lvl.fidelity for lvl in parsed]
        blocks = len(fidelities)
        if q.similarity.is_sparse:
            # Sparse stays sparse: the expanded matrix is a blocks×blocks
            # tiling of the base CSR, never densified (τ-thresholded
            # million-photo instances would not survive an (m·B)² dense
            # detour).
            similarity = _expand_sparse_similarity(q.similarity, fidelities)
        else:
            base = np.array(q.similarity.matrix, dtype=np.float64)
            big = np.zeros((m * blocks, m * blocks))
            for bi, fi in enumerate(fidelities):
                for bj, fj in enumerate(fidelities):
                    # A pair's effective similarity is capped by both
                    # fidelities: a degraded copy neither covers nor is
                    # covered beyond its quality.
                    big[bi * m : (bi + 1) * m, bj * m : (bj + 1) * m] = base * (
                        fi * fj
                    )
            # PAR requires a unit diagonal; we encode "covers itself at φ"
            # by making the variant a DISTINCT member whose similarity to
            # the original member slot is φ.  The variant's own (q, v) pair
            # is not a scoring target — only original pairs carry
            # relevance — so variants get zero relevance below and the
            # diagonal stays 1.
            np.fill_diagonal(big, 1.0)
            big = np.clip((big + big.T) / 2.0, 0.0, 1.0)
            similarity = DenseSimilarity(big, validate=False)

        members = list(q.members)
        relevance = list(q.relevance)
        for li in range(len(parsed)):
            for photo in q.members:
                members.append(variant_ids[(int(photo), li)])
                relevance.append(0.0)
        # Relevance must stay a distribution: original slots keep their
        # mass, variant slots carry none (they are coverers, not targets).
        subsets.append(
            PredefinedSubset(
                q.subset_id,
                q.weight,
                members,
                relevance,
                similarity,
                normalize=False,
            )
        )

    expanded = PARInstance.from_photos(
        photos,
        subsets,
        instance.budget,
        retained=instance.retained,
        embeddings=None,
    )
    return expanded, VariantMap(origin=origin, level=level)


def _expand_sparse_similarity(
    sim: SparseSimilarity, fidelities: Sequence[float]
) -> SparseSimilarity:
    """Tile a base CSR into the ``blocks × blocks`` variant similarity.

    Block ``(bi, bj)`` of the expanded matrix is the base matrix scaled
    by ``fidelities[bi] · fidelities[bj]``; the unit diagonal of every
    expanded row is restored afterwards (each base row holds its own
    diagonal entry, so each expanded row inherits exactly one).  nnz
    grows by ``blocks²`` — the sparsity structure itself never
    densifies.  Entries land in canonical per-row ascending-column
    order, and the output keeps the base dtype (float32 stays float32).
    """
    indptr, cols, vals = sim.csr()
    m = len(sim)
    blocks = len(fidelities)
    rows_idx = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    base_vals = vals.astype(np.float64)
    out_cols_parts: List[np.ndarray] = []
    out_vals_parts: List[np.ndarray] = []
    for fi in fidelities:
        rows_exp = np.concatenate([rows_idx] * blocks)
        cols_exp = np.concatenate([cols + bj * m for bj in range(blocks)])
        vals_exp = np.concatenate(
            [base_vals * (fi * fj) for fj in fidelities]
        )
        # Per expanded row, block columns are disjoint ascending ranges,
        # so sorting by (base row, expanded column) yields canonical CSR.
        order = np.lexsort((cols_exp, rows_exp))
        out_cols_parts.append(cols_exp[order])
        out_vals_parts.append(vals_exp[order])
    out_cols = np.concatenate(out_cols_parts)
    out_vals = np.concatenate(out_vals_parts)
    counts = np.tile(np.diff(indptr) * blocks, blocks)
    out_indptr = np.zeros(m * blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    out_rows = np.repeat(np.arange(m * blocks, dtype=np.int64), counts)
    out_vals[out_rows == out_cols] = 1.0
    return SparseSimilarity.from_csr(
        m * blocks,
        out_indptr,
        out_cols,
        out_vals,
        dtype=vals.dtype,
        validate=False,
    )


def deduplicate_variants(
    selection: Sequence[int], variants: VariantMap
) -> List[int]:
    """Keep only the highest-fidelity selected variant per original photo."""
    best: Dict[int, Tuple[float, int]] = {}
    for v in selection:
        v = int(v)
        fidelity = 1.0 if variants.is_original(v) else variants.level[v].fidelity
        origin = variants.origin[v]
        if origin not in best or fidelity > best[origin][0]:
            best[origin] = (fidelity, v)
    return sorted(v for _, v in best.values())


def selection_summary(
    selection: Sequence[int], variants: VariantMap
) -> Dict[str, int]:
    """Counts of originals vs compressed renditions in a selection."""
    originals = sum(1 for v in selection if variants.is_original(int(v)))
    return {
        "kept_original": originals,
        "kept_compressed": len(list(selection)) - originals,
        "distinct_photos": len(variants.originals_of(selection)),
    }

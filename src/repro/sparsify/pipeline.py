"""End-to-end instance sparsification (exact thresholding or LSH).

This is the preprocessing step the full PHOcus algorithm runs before the
lazy greedy (Section 4.3): replace every subset's similarity with its
τ-sparsified version, either

* ``method="exact"`` — materialise/threshold all pairwise similarities, or
* ``method="lsh"`` — SimHash the member embeddings, verify only colliding
  pairs, and keep those at or above τ; roughly linear-time per subset and
  the preferred mode "when there are many large predefined subsets".
  Candidates come from :func:`repro.scale.lsh_candidate_keys`, the same
  pair emitter the fused archive builder runs.

The LSH mode reads pair similarities from the subset's own (contextual)
similarity backend, so the surviving values are identical to exact
thresholding; LSH only decides *which pairs get looked at*, i.e. it can
miss a few τ-similar pairs (bounded by the tuned recall) but never invents
similarity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.instance import (
    PARInstance,
    PredefinedSubset,
    SparseSimilarity,
)
from repro.errors import ConfigurationError
from repro.sparsify.simhash import SimHasher, tune_bands
from repro.sparsify.threshold import sparsify_subset

__all__ = ["SparsifyReport", "sparsify_instance"]

logger = logging.getLogger(__name__)


@dataclass
class SparsifyReport:
    """Instance-level outcome of a sparsification pass."""

    tau: float
    method: str
    nnz_before: int
    nnz_after: int
    pairs_checked: int
    pairs_possible: int

    @property
    def kept_fraction(self) -> float:
        if self.nnz_before == 0:
            return 1.0
        return self.nnz_after / self.nnz_before

    @property
    def checked_fraction(self) -> float:
        """Pair comparisons actually performed over all possible pairs."""
        if self.pairs_possible == 0:
            return 0.0
        return self.pairs_checked / self.pairs_possible


def _lsh_sparsify(
    subset: PredefinedSubset,
    vectors: np.ndarray,
    tau: float,
    bands: int,
    rows: int,
    planes: np.ndarray,
) -> Tuple[PredefinedSubset, int]:
    """Sparsify one subset via SimHash candidates; returns pairs checked."""
    # A local import: repro.scale imports repro.sparsify.simhash.
    from repro.scale.builder import lsh_candidate_keys

    m = len(subset)
    keys, _ = lsh_candidate_keys(vectors, planes, bands, rows)
    # Candidates in ascending (i, j) order, so the surviving-pair arrays
    # (and therefore the CSR layout and every downstream float
    # accumulation) are deterministic.
    kept: List[Tuple[int, int, float]] = []
    for i, j in zip((keys // m).tolist(), (keys % m).tolist()):
        s = subset.similarity.pair(i, j)
        if s >= tau:
            kept.append((i, j, s))
    ii = np.fromiter((k[0] for k in kept), dtype=np.int64, count=len(kept))
    jj = np.fromiter((k[1] for k in kept), dtype=np.int64, count=len(kept))
    vv = np.fromiter((k[2] for k in kept), dtype=np.float64, count=len(kept))
    sparse = SparseSimilarity.from_pairs(m, ii, jj, vv, validate=False)
    return subset.with_similarity(sparse), int(keys.size)


def sparsify_instance(
    instance: PARInstance,
    tau: float,
    *,
    method: str = "exact",
    n_bits: int = 64,
    target_recall: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[PARInstance, SparsifyReport]:
    """τ-sparsify an instance; returns the new instance and a report.

    Parameters
    ----------
    instance:
        The dense (or already sparse) instance.
    tau:
        Similarity threshold; entries below τ become 0.
    method:
        ``"exact"`` or ``"lsh"``.  The LSH mode requires
        ``instance.embeddings`` (the per-photo vectors SimHash hashes).
    n_bits, target_recall:
        LSH signature width and the recall the banding is tuned for at τ.
    rng:
        Randomness for the hyperplanes (seed it for reproducible runs).
    """
    if not (0.0 <= tau <= 1.0):
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    if method not in ("exact", "lsh"):
        raise ConfigurationError(f"unknown sparsification method {method!r}")

    nnz_before = instance.similarity_nnz()
    pairs_possible = sum(len(q) * (len(q) - 1) // 2 for q in instance.subsets)

    if method == "exact":
        new_subsets = [sparsify_subset(q, tau) for q in instance.subsets]
        pairs_checked = pairs_possible
    else:
        if instance.embeddings is None:
            raise ConfigurationError(
                "LSH sparsification requires instance embeddings"
            )
        rng = rng or np.random.default_rng()
        bands, rows = tune_bands(tau, n_bits, target_recall)
        new_subsets = []
        pairs_checked = 0
        for q in instance.subsets:
            vectors = np.asarray(instance.embeddings[q.members], dtype=np.float64)
            # One hasher per subset, in subset order: the rng stream
            # hands every subset its own hyperplanes.
            planes = SimHasher(vectors.shape[1], n_bits, rng).planes
            sparse_q, checked = _lsh_sparsify(q, vectors, tau, bands, rows, planes)
            new_subsets.append(sparse_q)
            pairs_checked += checked

    sparse_instance = instance.with_subsets(new_subsets)
    logger.info(
        "sparsified tau=%.2f method=%s: entries %d -> %d, pairs checked %d/%d",
        tau, method, nnz_before, sparse_instance.similarity_nnz(),
        pairs_checked, pairs_possible,
    )
    report = SparsifyReport(
        tau=tau,
        method=method,
        nnz_before=nnz_before,
        nnz_after=sparse_instance.similarity_nnz(),
        pairs_checked=pairs_checked,
        pairs_possible=pairs_possible,
    )
    return sparse_instance, report

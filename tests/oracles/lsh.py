"""The set-based SimHash pair emitter: the oracle for ``repro.scale``.

Banded LSH as written in the seed: one dict of buckets per band, keyed
by the band's packed signature bits, and one set of ``(i, j)`` tuples
over all bands.  :func:`repro.scale.lsh_candidate_keys` emits the same
pairs vectorised, and ships.  This module keeps the plain version so
tests can prove that the fused build and ``sparsify_instance(
method="lsh")`` lost no candidate:

* :func:`lsh_similar_pairs` is the unfused pipeline (signatures, buckets,
  exact verification) that the fused builder must match bit for bit;
* :func:`lsh_sparsify_reference` is the per-subset LSH sparsifier that
  ``sparsify_instance(method="lsh")`` must match bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.instance import PARInstance, PredefinedSubset, SparseSimilarity
from repro.errors import ConfigurationError
from repro.sparsify.simhash import (
    SimHasher,
    tune_bands,
    unit_normalize,
    verify_candidate_pairs,
)

__all__ = [
    "LshResult",
    "candidate_pairs",
    "lsh_similar_pairs",
    "lsh_sparsify_reference",
]


def candidate_pairs(
    signatures: np.ndarray,
    bands: int,
    rows: int,
) -> Set[Tuple[int, int]]:
    """Banded LSH candidate pairs from boolean signatures.

    Vectors whose signature agrees on every bit of at least one band are
    returned as candidate pairs ``(i, j)`` with ``i < j``.
    """
    n, n_bits = signatures.shape
    if bands * rows > n_bits:
        raise ConfigurationError(
            f"bands*rows = {bands * rows} exceeds signature width {n_bits}"
        )
    pairs: Set[Tuple[int, int]] = set()
    for b in range(bands):
        band = signatures[:, b * rows : (b + 1) * rows]
        buckets: Dict[bytes, List[int]] = defaultdict(list)
        packed = np.packbits(band, axis=1)
        for i in range(n):
            buckets[packed[i].tobytes()].append(i)
        for members in buckets.values():
            if len(members) < 2:
                continue
            for a in range(len(members)):
                for c in range(a + 1, len(members)):
                    pairs.add((members[a], members[c]))
    return pairs


@dataclass
class LshResult:
    """Verified similar pairs plus LSH diagnostics."""

    pairs: List[Tuple[int, int]]
    similarities: np.ndarray
    candidates_checked: int
    bands: int
    rows: int
    n_vectors: int

    @property
    def candidate_fraction(self) -> float:
        """Candidates checked over all possible pairs (the LSH saving)."""
        total = self.n_vectors * (self.n_vectors - 1) // 2
        return self.candidates_checked / total if total else 0.0


def lsh_similar_pairs(
    vectors: np.ndarray,
    tau: float,
    *,
    n_bits: int = 64,
    target_recall: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> LshResult:
    """Find (almost) all pairs of cosine similarity ≥ τ via SimHash.

    Candidates from banded signatures are verified with the exact cosine
    similarity, so the output has perfect precision; recall is governed by
    the LSH S-curve at the tuned ``(bands, rows)``.  Pairs are returned in
    ascending ``(i, j)`` order and verified through the same
    :func:`verify_candidate_pairs` kernel the fused builder uses, making
    this the bit-exact unfused reference for ``repro.scale``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    bands, rows = tune_bands(tau, n_bits, target_recall)
    hasher = SimHasher(vectors.shape[1], n_bits, rng)
    sigs = hasher.signatures(vectors)
    candidates = candidate_pairs(sigs, bands, rows)

    keys = np.array([i * n + j for i, j in sorted(candidates)], dtype=np.int64)
    unit = unit_normalize(vectors)
    ki, kj, vals = verify_candidate_pairs(unit, keys, tau)
    return LshResult(
        pairs=list(zip(ki.tolist(), kj.tolist())),
        similarities=vals,
        candidates_checked=len(candidates),
        bands=bands,
        rows=rows,
        n_vectors=n,
    )


def _lsh_sparsify_subset(
    subset: PredefinedSubset,
    member_vectors: np.ndarray,
    tau: float,
    n_bits: int,
    target_recall: float,
    rng: np.random.Generator,
) -> Tuple[PredefinedSubset, int]:
    """Sparsify one subset via SimHash candidates; returns pairs checked."""
    m = len(subset)
    bands, rows = tune_bands(tau, n_bits, target_recall)
    hasher = SimHasher(member_vectors.shape[1], n_bits, rng)
    sigs = hasher.signatures(member_vectors)
    candidates = candidate_pairs(sigs, bands, rows)

    # Iterate candidates in sorted order so the surviving-pair arrays (and
    # therefore the CSR layout and every downstream float accumulation) are
    # deterministic rather than set-iteration-order dependent.
    kept: List[Tuple[int, int, float]] = []
    for i, j in sorted(candidates):
        s = subset.similarity.pair(i, j)
        if s >= tau:
            kept.append((i, j, s))
    ii = np.fromiter((k[0] for k in kept), dtype=np.int64, count=len(kept))
    jj = np.fromiter((k[1] for k in kept), dtype=np.int64, count=len(kept))
    vv = np.fromiter((k[2] for k in kept), dtype=np.float64, count=len(kept))
    sparse = SparseSimilarity.from_pairs(m, ii, jj, vv, validate=False)
    return subset.with_similarity(sparse), len(candidates)


def lsh_sparsify_reference(
    instance: PARInstance,
    tau: float,
    *,
    n_bits: int = 64,
    target_recall: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[PredefinedSubset], int]:
    """``sparsify_instance(instance, tau, method="lsh")``'s subsets and
    ``pairs_checked``, computed subset by subset with the set emitter."""
    rng = rng or np.random.default_rng()
    subsets: List[PredefinedSubset] = []
    pairs_checked = 0
    for q in instance.subsets:
        vectors = instance.embeddings[q.members]
        sparse_q, checked = _lsh_sparsify_subset(
            q, vectors, tau, n_bits, target_recall, rng
        )
        subsets.append(sparse_q)
        pairs_checked += checked
    return subsets, pairs_checked

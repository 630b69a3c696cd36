"""Input sparsification (Section 4.3): τ-thresholding and SimHash LSH."""

from repro.sparsify.pipeline import SparsifyReport, sparsify_instance
from repro.sparsify.simhash import (
    SimHasher,
    bit_agreement_probability,
    candidate_probability,
    tune_bands,
)
from repro.sparsify.threshold import SparsifyStats, sparsify_subset, threshold_sparsify

__all__ = [
    "sparsify_instance",
    "SparsifyReport",
    "sparsify_subset",
    "threshold_sparsify",
    "SparsifyStats",
    "SimHasher",
    "bit_agreement_probability",
    "candidate_probability",
    "tune_bands",
]

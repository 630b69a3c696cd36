"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Deterministic property tests: same examples every run, so suite results
# are reproducible and CI-stable.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
)
from repro.core.paper_example import figure1_instance


#: A valid size-3 CSR similarity: row 0 -> {0, 1}, row 1 -> {0, 1, 2},
#: row 2 -> {1, 2}.
VALID_CSR = {
    "kind": "sparse",
    "size": 3,
    "indptr": [0, 2, 5, 7],
    "indices": [0, 1, 0, 1, 2, 1, 2],
    "values": [1.0, 0.5, 0.5, 1.0, 0.4, 0.4, 1.0],
}

#: Overrides of VALID_CSR's fields that each make it invalid.
MALFORMED_CSR = {
    # Row 0 holds two diagonals and row 1 none: the totals still match.
    "diagonal-twice-hides-missing": {
        "indptr": [0, 2, 4, 6],
        "indices": [0, 0, 0, 2, 1, 2],
        "values": [1.0, 1.0, 0.5, 0.4, 0.4, 1.0],
    },
    "row-without-diagonal": {
        "indptr": [0, 2, 4, 6],
        "indices": [0, 1, 0, 2, 1, 2],
        "values": [1.0, 0.5, 0.5, 0.4, 0.4, 1.0],
    },
    "duplicate-off-diagonal": {
        "indptr": [0, 3, 6, 8],
        "indices": [0, 1, 1, 0, 1, 2, 1, 2],
        "values": [1.0, 0.5, 0.5, 0.5, 1.0, 0.4, 0.4, 1.0],
    },
    "duplicate-unsorted-row": {
        "indptr": [0, 3, 6, 8],
        "indices": [1, 0, 1, 0, 1, 2, 1, 2],
        "values": [0.5, 1.0, 0.5, 0.5, 1.0, 0.4, 0.4, 1.0],
    },
    "index-out-of-range": {"indices": [0, 1, 0, 1, 3, 1, 2]},
    "negative-index": {"indices": [0, -1, 0, 1, 2, 1, 2]},
    "index-overflows-int64": {"indices": [0, 1, 0, 1, 10**19, 1, 2]},
    "value-above-one": {"values": [1.0, 1.5, 0.5, 1.0, 0.4, 0.4, 1.0]},
    "negative-value": {"values": [1.0, -0.5, 0.5, 1.0, 0.4, 0.4, 1.0]},
    "diagonal-not-one": {"values": [0.9, 0.5, 0.5, 1.0, 0.4, 0.4, 1.0]},
    "values-length-mismatch": {"values": [1.0, 0.5, 0.5, 1.0, 0.4, 0.4]},
    "values-not-numbers": {"values": ["x"] * 7},
    "values-nested": {"values": [[1.0]] * 7},
    "indices-missing": {"indices": None},
    "indptr-too-short": {"indptr": [0, 2, 7]},
    "indptr-not-from-zero": {"indptr": [1, 2, 5, 7]},
    "indptr-decreasing": {"indptr": [0, 5, 2, 7]},
    "indptr-short-of-entries": {"indptr": [0, 2, 5, 6]},
    "indptr-not-a-list": {"indptr": {"not": "a list"}},
    "size-mismatch": {"size": 4},
    "size-negative": {"size": -1},
    "size-huge": {"size": 10**15},
    "size-missing": {"size": None},
    "dtype-unknown": {"dtype": "float16"},
}


NAN, INF = float("nan"), float("inf")

#: Overrides of csr_instance_doc's ids that are not integers: fractional
#: ids used to be truncated (1.6 -> 1) and solved.
MALFORMED_IDS = {
    "photo-id-fractional": {"photo_ids": [0, 1.6, 2]},
    "photo-id-nan": {"photo_ids": [0, NAN, 2]},
    "members-fractional": {"members": [0.4, 1.9, 2.2]},
    "members-infinite": {"members": [0, 1, INF]},
    "retained-fractional": {"retained": [0.7]},
    "retained-nan": {"retained": [NAN]},
    "indices-fractional": {"indices": [0, 1, 0, 1, 2, 1, 2.5]},
    "indptr-fractional": {"indptr": [0, 2.2, 5, 7]},
    "indptr-infinite": {"indptr": [0, 2, 5, INF]},
}


def csr_instance_doc(
    *, photo_ids=(0, 1, 2), members=(0, 1, 2), retained=(), **similarity
) -> dict:
    """A 3-photo instance document whose similarity is VALID_CSR with
    ``similarity`` fields overridden (and its ids, when given)."""
    return {
        "format": 1,
        "budget": 2.0,
        "retained": list(retained),
        "photos": [{"photo_id": i, "cost": 1.0} for i in photo_ids],
        "subsets": [
            {
                "subset_id": "q",
                "weight": 1.0,
                "members": list(members),
                "relevance": [0.2, 0.3, 0.5],
                "similarity": {**VALID_CSR, **similarity},
            }
        ],
        "embeddings": None,
    }


#: One number of the paper example's wire document made non-finite:
#: ``(form, path, value)``, where form "dense" is figure1_instance(4.0),
#: "rows" its tau=0.6 sparsification in the neighbour-rows form and
#: "csr" the document of csr_instance_doc().
#: Each was solved at face value before (a NaN or infinite "value").
NON_FINITE = {
    "relevance-nan": ("dense", ("subsets", 0, "relevance"), [NAN, 0.5, 0.5]),
    "weight-infinite": ("dense", ("subsets", 0, "weight"), INF),
    "cost-infinite": ("dense", ("photos", 2, "cost"), INF),
    "rows-similarity-nan": ("rows", ("subsets", 0, "similarity", "rows", 0, "values", 1), NAN),
    "csr-similarity-nan": ("csr", ("subsets", 0, "similarity", "values", 1), NAN),
    "embeddings-infinite": ("csr", ("embeddings",), [[1.0, 0.0], [INF, 0.0], [0.0, 1.0]]),
}


def non_finite_doc(case: str) -> dict:
    """The instance document of NON_FINITE[case]."""
    from repro.core.serialize import instance_to_dict
    from repro.sparsify.threshold import threshold_sparsify

    form, path, value = NON_FINITE[case]
    if form == "csr":
        doc = copy.deepcopy(csr_instance_doc())  # VALID_CSR stays intact
    else:
        instance = figure1_instance(4.0)
        if form == "rows":
            instance, _ = threshold_sparsify(instance, 0.6)
        doc = instance_to_dict(instance)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def random_instance(
    seed: int = 0,
    *,
    n_photos: int = 12,
    n_subsets: int = 4,
    budget_fraction: float = 0.4,
    retained: int = 0,
    embedding_dim: int = 8,
) -> PARInstance:
    """A small random-but-valid PAR instance (shared test workhorse).

    Similarities come from random unit embeddings so they are symmetric,
    in [0, 1], and contextually sliced per subset; costs are uniform in
    [0.5, 2.0]; weights and raw relevance are positive random values.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.5, 2.0, size=n_photos)
    photos = [Photo(photo_id=i, cost=float(costs[i])) for i in range(n_photos)]
    emb = rng.standard_normal((n_photos, embedding_dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)

    subsets = []
    for qi in range(n_subsets):
        size = int(rng.integers(2, max(3, n_photos // 2) + 1))
        members = sorted(int(p) for p in rng.choice(n_photos, size=size, replace=False))
        sub_emb = emb[members]
        sim = np.clip(sub_emb @ sub_emb.T, 0.0, 1.0)
        sim = (sim + sim.T) / 2.0
        np.fill_diagonal(sim, 1.0)
        subsets.append(
            PredefinedSubset(
                subset_id=f"q{qi}",
                weight=float(rng.uniform(0.5, 5.0)),
                members=members,
                relevance=rng.uniform(0.1, 1.0, size=size),
                similarity=DenseSimilarity(sim),
            )
        )
    retained_ids = sorted(int(p) for p in rng.choice(n_photos, size=retained, replace=False)) if retained else []
    budget = float(costs.sum() * budget_fraction)
    if retained_ids:
        budget = max(budget, float(costs[retained_ids].sum()) * 1.05)
    return PARInstance.from_photos(photos, subsets, budget, retained_ids, embeddings=emb)


@pytest.fixture
def figure1():
    """The paper's Figure 1 example with the default 4 Mb budget."""
    return figure1_instance(4.0)


@pytest.fixture
def small_instance():
    """Deterministic small random instance."""
    return random_instance(seed=42)


@pytest.fixture
def retained_instance():
    """Instance with a non-empty retention set S0."""
    return random_instance(seed=7, retained=2)

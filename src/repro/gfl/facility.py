"""Classic Facility Location: the uniform-weight special case of GFL.

Section 4.3 notes that when every GFL node weight equals 1 the problem is
exactly the Facility Location formulation used by Lindgren, Wu & Dimakis
[32] — ``k`` facilities to open (unit costs, cardinality budget), customers
served by their most similar open facility:

    maximise  F(S) = Σ_j max_{i ∈ S} sim(i, j)   s.t.  |S| ≤ k

This module provides the standalone problem (useful on its own and for
tests that check the GFL generalisation collapses correctly) plus the
standard greedy solver with its (1 − 1/e) guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    PredefinedSubset,
)
from repro.errors import ValidationError

__all__ = ["FacilityLocationProblem", "greedy_facility_location", "facility_to_par"]


@dataclass
class FacilityLocationProblem:
    """Facility location over a similarity matrix.

    ``similarity[i, j]`` is the benefit of serving customer ``j`` from
    facility ``i``; both index the same ground set (photos serving photos,
    as in [32]).  ``k`` facilities may be opened.
    """

    similarity: np.ndarray
    k: int

    def __post_init__(self) -> None:
        self.similarity = np.asarray(self.similarity, dtype=np.float64)
        if self.similarity.ndim != 2 or self.similarity.shape[0] != self.similarity.shape[1]:
            raise ValidationError("similarity must be a square matrix")
        if self.k <= 0:
            raise ValidationError("k must be positive")

    @property
    def n(self) -> int:
        return self.similarity.shape[0]

    def value(self, selection: Iterable[int]) -> float:
        """``F(S) = Σ_j max_{i∈S} sim(i, j)`` (0 for an empty selection)."""
        sel = list(set(int(i) for i in selection))
        if not sel:
            return 0.0
        return float(self.similarity[sel].max(axis=0).sum())


def greedy_facility_location(
    problem: FacilityLocationProblem,
) -> Tuple[List[int], float]:
    """Lazy-free greedy for facility location; (1 − 1/e)-approximate.

    The cardinality constraint makes the plain greedy optimal-guarantee
    here [37]; we keep it simple (no priority queue) since this solver
    exists as a reference point, not a hot path.
    """
    n = problem.n
    best_serve = np.zeros(n, dtype=np.float64)
    chosen: List[int] = []
    remaining = set(range(n))
    for _ in range(min(problem.k, n)):
        best_i, best_gain = -1, 0.0
        for i in remaining:
            gain = float(np.maximum(problem.similarity[i] - best_serve, 0.0).sum())
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:
            break
        chosen.append(best_i)
        best_serve = np.maximum(best_serve, problem.similarity[best_i])
        remaining.discard(best_i)
    return chosen, float(best_serve.sum())


def facility_to_par(problem: FacilityLocationProblem) -> PARInstance:
    """Embed facility location as a PAR instance (one subset, unit costs).

    The single pre-defined subset contains every photo with uniform
    relevance and weight ``n`` so that PAR's normalised score times the
    weight reproduces the raw facility-location value; the budget equals
    ``k`` with unit photo costs.  Tests use this embedding to check that
    PAR solvers generalise the facility-location special case.
    """
    n = problem.n
    sim = np.clip((problem.similarity + problem.similarity.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    subset = PredefinedSubset(
        subset_id="facility-location",
        weight=float(n),
        members=list(range(n)),
        relevance=[1.0 / n] * n,
        similarity=DenseSimilarity(sim),
    )
    return PARInstance(np.ones(n), [subset], budget=float(problem.k))

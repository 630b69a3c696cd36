"""The Theorem 3.4 reduction: Maximum Coverage → PAR.

The paper proves PAR is NP-hard to approximate beyond ``1 − 1/e`` by
embedding Maximum Coverage (MC) instances into PAR:

* every MC set ``s`` becomes a photo ``p_s`` of unit cost;
* every MC element ``e`` becomes a pre-defined subset ``q_e`` of weight 1
  containing the photos of the sets that cover ``e``, with uniform
  relevance ``1 / |q_e|``;
* similarities within a subset are all 1 (and 0 across subsets);
* the budget is the MC cardinality bound ``k``.

Selecting any one photo of ``q_e`` then scores the full weight of ``q_e``,
exactly mirroring "covering" element ``e``.  This module materialises the
reduction so tests can verify the equivalence empirically (both directions:
PAR scores equal MC coverage counts, and optimal solutions transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    PredefinedSubset,
)
from repro.errors import ValidationError

__all__ = [
    "MaxCoverageInstance",
    "greedy_max_coverage",
    "exact_max_coverage",
    "mc_to_par",
    "par_selection_to_mc",
]


@dataclass
class MaxCoverageInstance:
    """A Maximum Coverage instance: choose ``k`` sets covering most elements.

    ``sets`` is a list of element-id collections over universe
    ``0 .. n_elements - 1``.
    """

    n_elements: int
    sets: List[FrozenSet[int]]
    k: int

    def __post_init__(self) -> None:
        if self.n_elements <= 0:
            raise ValidationError("universe must be non-empty")
        if self.k <= 0:
            raise ValidationError("k must be positive")
        normalized = []
        for si, s in enumerate(self.sets):
            fs = frozenset(int(e) for e in s)
            for e in fs:
                if e < 0 or e >= self.n_elements:
                    raise ValidationError(
                        f"set {si} covers element {e} outside the universe"
                    )
            normalized.append(fs)
        self.sets = normalized

    def coverage(self, chosen: Sequence[int]) -> int:
        """Number of elements covered by the chosen set indices."""
        covered: Set[int] = set()
        for si in chosen:
            covered |= self.sets[si]
        return len(covered)


def greedy_max_coverage(mc: MaxCoverageInstance) -> Tuple[List[int], int]:
    """The classical (1 − 1/e) greedy for Maximum Coverage [37]."""
    covered: Set[int] = set()
    chosen: List[int] = []
    remaining = set(range(len(mc.sets)))
    for _ in range(min(mc.k, len(mc.sets))):
        best_si, best_gain = -1, 0
        for si in remaining:
            gain = len(mc.sets[si] - covered)
            if gain > best_gain:
                best_si, best_gain = si, gain
        if best_si < 0:
            break
        chosen.append(best_si)
        covered |= mc.sets[best_si]
        remaining.discard(best_si)
    return chosen, len(covered)


def exact_max_coverage(mc: MaxCoverageInstance, max_sets: int = 20) -> Tuple[List[int], int]:
    """Optimal Maximum Coverage by enumeration (small instances only)."""
    if len(mc.sets) > max_sets:
        raise ValueError(f"exact MC limited to {max_sets} sets")
    best_combo: Tuple[int, ...] = ()
    best_cov = 0
    for combo in combinations(range(len(mc.sets)), min(mc.k, len(mc.sets))):
        cov = mc.coverage(combo)
        if cov > best_cov:
            best_cov = cov
            best_combo = combo
    return list(best_combo), best_cov


def mc_to_par(mc: MaxCoverageInstance) -> PARInstance:
    """Materialise the Theorem 3.4 reduction as a PAR instance.

    The resulting instance satisfies: for any selection ``S`` of photos,
    ``G(S)`` equals the number of MC elements covered by the corresponding
    sets (elements covered by no set contribute no subset and are ignored
    on both sides).
    """
    subsets: List[PredefinedSubset] = []
    for e in range(mc.n_elements):
        members = [si for si, s in enumerate(mc.sets) if e in s]
        if not members:
            continue  # an uncoverable element contributes nothing on either side
        m = len(members)
        sim = np.ones((m, m), dtype=np.float64)
        subsets.append(
            PredefinedSubset(
                subset_id=f"element-{e}",
                weight=1.0,
                members=members,
                relevance=[1.0 / m] * m,
                similarity=DenseSimilarity(sim),
            )
        )
    return PARInstance(
        np.ones(len(mc.sets)),
        subsets,
        budget=float(mc.k),
        labels=[f"set-{si}" for si in range(len(mc.sets))],
    )


def par_selection_to_mc(selection: Sequence[int]) -> List[int]:
    """Map a PAR solution of the reduced instance back to MC set indices."""
    return sorted(int(p) for p in selection)

"""The per-subset coverage evaluation: the oracle for ``CoverageState``.

This is the seed's evaluation of the PAR objective (Section 3.1): a
photo's marginal gain walks each subset it belongs to, reads its
neighbour list with ``similarity.neighbors()``, and sums
``W(q)·R(q, j)·(sim − best)`` over the members it would improve.
:class:`~repro.core.objective.CoverageState` runs the same sums on a flat
incidence CSR, in C or in numpy.  It must agree with this loop bit for
bit, on every gain, add, coverage vector and checkpoint, and tests and
the kernel bench check that against :class:`ReferenceCoverageState`.

:func:`reference_score`, :func:`reference_score_breakdown` and
:func:`reference_fidelity_score` evaluate a finished selection the same
way, from scratch: per subset, ``np.maximum.at`` over each selected
member's neighbour list, then ``W(q)·(R(q)·best)``.  They are the oracle
for :func:`~repro.core.objective.score`,
:func:`~repro.core.objective.score_breakdown`,
:func:`~repro.fidelity.solver.fidelity_score` and every solver's
reported ``value``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.greedy import CB, UC, GreedyRun, lazy_greedy
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState
from repro.errors import ValidationError

__all__ = [
    "ReferenceCoverageState",
    "reference_main_algorithm",
    "reference_score",
    "reference_score_breakdown",
    "reference_fidelity_score",
]


class ReferenceCoverageState(CoverageState):
    """A :class:`CoverageState` whose evaluations run the per-subset loop.

    Only the per-photo evaluation and ``all_gains`` differ.  The
    per-subset coverage vectors are views into the flat slot vector, so
    ``add``, ``copy``, ``coverage_of`` and ``subset_value`` are inherited.
    """

    def __init__(self, instance: PARInstance, selection: Iterable[int] = ()) -> None:
        super().__init__(instance)
        self._native = None  # every gain and add runs _evaluate below
        for p in selection:
            self.add(int(p))

    def _evaluate(self, p: int, phi: float) -> Tuple[float, list]:
        total = 0.0
        segments: list = []
        off = self.instance.incidence.subset_offsets
        for qi, local in self.instance.membership[p]:
            best = self._best[qi]
            wrel = self._weighted_rel[qi]
            idx, sims = self.instance.subsets[qi].similarity.neighbors(local)
            if phi != 1.0:
                sims = phi * sims
            delta = sims - best[idx]
            positive = delta > 0
            if np.any(positive):
                total += float(wrel[idx[positive]] @ delta[positive])
                segments.append((off[qi] + idx, sims, positive))
        return total, segments

    def all_gains(self) -> np.ndarray:
        gains = np.zeros(self.instance.n, dtype=np.float64)
        for qi, subset in enumerate(self.instance.subsets):
            best = self._best[qi]
            wrel = self._weighted_rel[qi]
            sim = subset.similarity
            if not sim.is_sparse:
                delta = sim.matrix - best[None, :]
                np.maximum(delta, 0.0, out=delta)
                local_gains = delta @ wrel
            else:
                local_gains = np.empty(len(subset))
                for local in range(len(subset)):
                    idx, sims = sim.neighbors(local)
                    diff = sims - best[idx]
                    positive = diff > 0
                    local_gains[local] = (
                        float(wrel[idx[positive]] @ diff[positive])
                        if np.any(positive)
                        else 0.0
                    )
            np.add.at(gains, subset.members, local_gains)
        if self._selected:
            gains[list(self._selected)] = 0.0
        return gains


def reference_main_algorithm(instance: PARInstance) -> GreedyRun:
    """Algorithm 1 on reference states: UC and CB lazy-greedy passes from
    ``S0``, the better kept as :func:`repro.core.greedy.main_algorithm`
    keeps it (ties go to CB; evaluations are summed)."""
    uc = lazy_greedy(instance, UC, state=ReferenceCoverageState(instance, instance.retained))
    cb = lazy_greedy(instance, CB, state=ReferenceCoverageState(instance, instance.retained))
    winner = cb if cb.value >= uc.value else uc
    winner.evaluations = uc.evaluations + cb.evaluations
    return winner


def reference_score(instance: PARInstance, selection: Iterable[int]) -> float:
    """``G(S)`` from scratch (quadratic in subset size)."""
    return sum(contrib for _, contrib in _subset_contributions(instance, selection))


def reference_score_breakdown(
    instance: PARInstance, selection: Iterable[int]
) -> Dict[str, float]:
    """Per-subset weighted contributions ``{subset_id: W(q) · G(q, S)}``."""
    return {
        instance.subsets[qi].subset_id: contrib
        for qi, contrib in _subset_contributions(instance, selection)
    }


def _subset_contributions(
    instance: PARInstance, selection: Iterable[int]
) -> List[Tuple[int, float]]:
    sel = set(int(p) for p in selection)
    out: List[Tuple[int, float]] = []
    for qi, subset in enumerate(instance.subsets):
        local_selected = [
            j for j, photo_id in enumerate(subset.members) if int(photo_id) in sel
        ]
        if not local_selected:
            out.append((qi, 0.0))
            continue
        best = np.zeros(len(subset), dtype=np.float64)
        for j in local_selected:
            idx, sims = subset.similarity.neighbors(j)
            np.maximum.at(best, idx, sims)
        out.append((qi, float(subset.weight * (subset.relevance @ best))))
    return out


def reference_fidelity_score(
    instance: PARInstance, catalog, chosen: Dict[int, int]
) -> float:
    """The exclusive objective ``G(A)`` from scratch; ``chosen`` maps photo
    id → variant id of ``catalog`` (a :class:`repro.fidelity.VariantCatalog`)."""
    total = 0.0
    for subset in instance.subsets:
        best = np.zeros(len(subset), dtype=np.float64)
        for j, photo_id in enumerate(subset.members):
            vid = chosen.get(int(photo_id))
            if vid is None:
                continue
            if not catalog.indptr[photo_id] <= vid < catalog.indptr[photo_id + 1]:
                raise ValidationError(
                    f"variant {vid} does not belong to photo {photo_id}"
                )
            idx, sims = subset.similarity.neighbors(j)
            np.maximum.at(best, idx, float(catalog.fidelity[vid]) * sims)
        total += float(subset.weight * (subset.relevance @ best))
    return total

"""The per-subset coverage evaluation: the oracle for ``CoverageState``.

This is the seed's evaluation of the PAR objective (Section 3.1): a
photo's marginal gain walks each subset it belongs to, reads its
neighbour list with ``similarity.neighbors()``, and sums
``W(q)·R(q, j)·(sim − best)`` over the members it would improve.
:class:`~repro.core.objective.CoverageState` runs the same sums on a flat
incidence CSR, in C or in numpy.  It must agree with this loop bit for
bit, on every gain, add, coverage vector and checkpoint, and tests and
the kernel bench check that against :class:`ReferenceCoverageState`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.core.greedy import CB, UC, GreedyRun, lazy_greedy
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState

__all__ = ["ReferenceCoverageState", "reference_main_algorithm"]


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

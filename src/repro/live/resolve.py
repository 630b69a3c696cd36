"""Warm-started re-solve: continue the greedy from the previous solution.

The checkpoint machinery of :mod:`repro.core.greedy` resumes a solve on
the *same* instance by replaying the recorded add order through a fresh
:class:`~repro.core.objective.CoverageState`.  :func:`warm_resolve`
generalises that restart vector to a *changed* instance:

1. **validate** the surviving picks — drop ids outside the grown/shrunk
   photo range, deduplicate, and (when the budget shrank underneath the
   solution) evict back inside the budget with the reverse greedy of
   :func:`shrink_to_budget`;
2. **replay** the surviving picks in their original order (bit-identical
   float accumulation, exactly like a checkpoint resume; one native call
   when the kernel loads);
3. **re-enter the CELF heap** only where the delta invalidated gains: the
   seeding pass of :func:`~repro.core.greedy.lazy_greedy` skips photos
   that are already selected or unaffordable, and a *completed* greedy
   pass leaves every non-selected photo unaffordable — so after a pure
   append the heap re-admits (and evaluates) essentially only the new
   photos, never the whole archive.

Why the result is trustworthy: :func:`repro.core.bounds.online_bound`
certifies an upper bound on the PAR **optimum** for the current
instance, so ``regret_bound = 1 − value / bound`` bounds the relative
loss against *any* solution — in particular against a cold
``main_algorithm`` re-solve.  Tests assert exactly that inequality, and
that an **empty delta reproduces the previous solution bit for bit**
(the heap seeds empty, the replayed value is the stored value).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.bounds import online_bound
from repro.core.greedy import CB, lazy_greedy, main_algorithm
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState, first_occurrences

__all__ = [
    "LiveSolveResult",
    "warm_resolve",
    "cold_resolve",
    "replay_solution",
    "shrink_to_budget",
    "solve_result_from_dict",
]


@dataclass
class LiveSolveResult:
    """One re-curation outcome, warm or cold.

    ``selection`` is in add order (the replay vector for the *next* warm
    re-solve).  ``regret_bound`` is the certified relative distance to
    the instance optimum: the achieved value is at least
    ``(1 − regret_bound)`` of any feasible solution's value.
    """

    selection: List[int]
    value: float
    cost: float
    mode: str
    kind: str  # "warm" | "cold"
    evaluations: int
    regret_bound: float
    upper_bound: float
    seconds: float
    evicted: List[int]
    added: List[int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "selection": [int(p) for p in self.selection],
            "value": float(self.value),
            "cost": float(self.cost),
            "mode": self.mode,
            "kind": self.kind,
            "evaluations": int(self.evaluations),
            "regret_bound": float(self.regret_bound),
            "upper_bound": float(self.upper_bound),
            "seconds": float(self.seconds),
            "evicted": [int(p) for p in self.evicted],
            "added": [int(p) for p in self.added],
        }


def _distinct_ids(selection: Iterable[int], n: int) -> List[int]:
    """The ids of ``selection`` in ``[0, n)``, each at its first
    occurrence, in order (one numpy pass, no per-id Python)."""
    ids = np.asarray(
        selection if isinstance(selection, np.ndarray) else list(selection)
    ).astype(np.int64, copy=False)
    return first_occurrences(ids[(ids >= 0) & (ids < n)]).tolist()


def _certify(
    instance: PARInstance,
    selection: Iterable[int],
    value: float,
    *,
    state: Optional[CoverageState] = None,
):
    bound = online_bound(instance, selection, state=state)
    regret = 0.0 if bound <= 0 else max(0.0, 1.0 - value / bound)
    return bound, regret


def warm_resolve(
    instance: PARInstance,
    previous_selection: Iterable[int],
) -> LiveSolveResult:
    """Seed the CELF pass from a previous solution on a changed instance."""
    t0 = time.perf_counter()
    survivors = _distinct_ids(previous_selection, instance.n)
    seen = set(survivors)
    previous = set(survivors)
    missing_retained = [p for p in sorted(instance.retained) if p not in seen]
    if missing_retained:
        survivors = missing_retained + survivors
        seen.update(missing_retained)
    if instance.cost_of(seen | set(instance.retained)) > instance.budget * (
        1 + 1e-12
    ):
        # The budget shrank under the solution: reverse-greedy eviction
        # restores feasibility, keeping the original pick order among the
        # survivors (retained ids are already among them).
        kept = set(shrink_to_budget(instance, survivors))
        survivors = [p for p in survivors if p in kept]
    state = CoverageState(instance, survivors)
    run = lazy_greedy(instance, CB, state=state)
    # The replay vector for the next warm re-solve must be the *add*
    # order; with a pre-seeded state the run's own selection list starts
    # from an unordered set listing, so take the state's recorded order.
    selection = state.order
    bound, regret = _certify(instance, selection, run.value, state=state)
    final = set(selection)
    return LiveSolveResult(
        selection=selection,
        value=run.value,
        cost=run.cost,
        mode=run.mode,
        kind="warm",
        evaluations=run.evaluations,
        regret_bound=regret,
        upper_bound=bound,
        seconds=time.perf_counter() - t0,
        evicted=sorted(previous - final),
        added=sorted(final - previous),
    )


def _removal_loss(
    instance: PARInstance, selection: Iterable[int], photo_id: int
) -> float:
    """Objective lost by evicting one photo from a selection.

    Coverage only changes for members whose *nearest selected neighbour*
    was the evicted photo, and those members all sit in its stored
    similarity rows — so the loss is computed neighbourhood-locally:
    for each subset containing the photo, scan the CSR rows of its
    neighbours for the runner-up selected provider.  No dense per-member
    vector is ever materialised; cost is
    ``O(|selection ∩ q| + Σ_{j ∈ N_q(p)} deg_q(j))`` per subset ``q``,
    independent of the subset size.
    """
    sel = set(int(p) for p in selection)
    p = int(photo_id)
    if p not in sel:
        return 0.0
    loss = 0.0
    for qi, local_p in instance.membership[p]:
        subset = instance.subsets[qi]
        similarity = subset.similarity
        other_locals = np.fromiter(
            (
                subset.local_index(s)
                for s in sel
                if s != p and s in subset
            ),
            dtype=np.int64,
        )
        other_locals.sort()
        idx_p, sims_p = similarity.neighbors(local_p)
        relevance = subset.relevance
        subset_loss = 0.0
        for j, s_pj in zip(idx_p, sims_p):
            # Runner-up provider: best selected neighbour of j besides p.
            cols_j, vals_j = similarity.neighbors(j)
            if other_locals.size:
                pos = np.searchsorted(other_locals, cols_j)
                pos[pos == other_locals.size] = other_locals.size - 1
                hit = other_locals[pos] == cols_j
                runner_up = float(vals_j[hit].max()) if np.any(hit) else 0.0
            else:
                runner_up = 0.0
            if s_pj > runner_up:
                subset_loss += float(relevance[j]) * (float(s_pj) - runner_up)
        loss += subset.weight * subset_loss
    return loss


def shrink_to_budget(
    instance: PARInstance, selection: Iterable[int]
) -> List[int]:
    """Reverse greedy eviction until the selection fits the budget.

    Evicts, at each step, the non-retained photo minimising
    ``removal_loss / cost`` (cheapest objective per byte freed).  Uses
    lazy re-evaluation, the mirror image of CELF: by submodularity a
    photo's removal loss only *grows* as the selection shrinks, so a
    cached loss is a valid lower bound and a refreshed entry that stays
    at the top of the min-heap can be evicted without refreshing the
    rest.  ``S0`` is never evicted; it always fits, because an instance
    whose retention set exceeds its budget cannot be constructed.
    """
    budget = instance.budget
    sel = set(int(p) for p in selection) | set(instance.retained)
    spent = instance.cost_of(sel)
    if spent <= budget * (1 + 1e-12):
        return sorted(sel)

    counter = itertools.count()
    evictions = 0
    heap: List[Tuple[float, int, int, int]] = []
    for p in sel:
        if p in instance.retained:
            continue
        key = _removal_loss(instance, sel, p) / instance.costs[p]
        heapq.heappush(heap, (key, next(counter), p, evictions))

    while spent > budget * (1 + 1e-12) and heap:
        key, _, p, stamp = heapq.heappop(heap)
        if p not in sel:
            continue
        if stamp == evictions:
            sel.discard(p)
            spent -= float(instance.costs[p])
            evictions += 1
        else:
            key = _removal_loss(instance, sel, p) / instance.costs[p]
            heapq.heappush(heap, (key, next(counter), p, evictions))
    return sorted(sel)


def cold_resolve(instance: PARInstance) -> LiveSolveResult:
    """Full two-phase re-solve; value replayed through the stored order.

    The value is recomputed by replaying the winning selection through a
    fresh :class:`CoverageState` so the stored ``(selection, value)`` pair
    is exactly what a later :func:`warm_resolve` replay reproduces —
    keeping the empty-delta path bit-identical even when the retention
    set's iteration order differs between runs.
    """
    t0 = time.perf_counter()
    run = main_algorithm(instance)
    replayed = CoverageState(instance, run.selection)
    bound, regret = _certify(
        instance, run.selection, replayed.value, state=replayed
    )
    return LiveSolveResult(
        selection=list(run.selection),
        value=replayed.value,
        cost=run.cost,
        mode=run.mode,
        kind="cold",
        evaluations=run.evaluations,
        regret_bound=regret,
        upper_bound=bound,
        seconds=time.perf_counter() - t0,
        evicted=[],
        added=list(run.selection),
    )


def replay_solution(
    instance: PARInstance,
    selection: Iterable[int],
    *,
    mode: str = "job",
    seconds: float = 0.0,
) -> LiveSolveResult:
    """Adopt an externally computed selection as a full-solve result.

    Ids outside the instance are dropped, duplicates collapsed, and the
    value + regret certificate recomputed locally by replaying the
    selection through a fresh :class:`CoverageState` — the caller's
    floats are never trusted.
    """
    order = _distinct_ids(selection, instance.n)
    seen = set(order)
    state = CoverageState(instance, order)
    cost = instance.cost_of(seen)
    bound, regret = _certify(instance, order, state.value, state=state)
    return LiveSolveResult(
        selection=order,
        value=state.value,
        cost=cost,
        mode=mode,
        kind="cold",
        evaluations=0,
        regret_bound=regret,
        upper_bound=bound,
        seconds=seconds,
        evicted=[],
        added=order,
    )


def solve_result_from_dict(doc: Optional[Dict[str, Any]]) -> Optional[LiveSolveResult]:
    """Rebuild a stored solution block (``None`` passes through)."""
    if doc is None:
        return None
    return LiveSolveResult(
        selection=[int(p) for p in doc["selection"]],
        value=float(doc["value"]),
        cost=float(doc["cost"]),
        mode=str(doc["mode"]),
        kind=str(doc["kind"]),
        evaluations=int(doc["evaluations"]),
        regret_bound=float(doc["regret_bound"]),
        upper_bound=float(doc["upper_bound"]),
        seconds=float(doc["seconds"]),
        evicted=[int(p) for p in doc.get("evicted", [])],
        added=[int(p) for p in doc.get("added", [])],
    )

"""A-posteriori performance bounds (Sections 4.2 and 4.3).

Two families of certificates:

* :func:`online_bound` / :func:`certify` / :func:`performance_certificate`
  — the online bound of Leskovec et al. [30].  For a monotone submodular
  objective under a knapsack budget ``B``, any optimum ``O`` satisfies
  ``G(O) ≤ G(S) + Σ_{p ∈ O \\ S} δ_p`` where ``δ_p`` is the marginal gain of
  ``p`` at ``S``; the right-hand side is bounded by packing the gains into
  the budget fractionally (a fractional-knapsack relaxation).  Dividing the
  achieved value by this bound yields a *data-dependent* approximation
  ratio that in practice far exceeds the a-priori ``(1 − 1/e)/2`` guarantee
  — the paper leverages exactly this to justify the scalable algorithm.

* :func:`sparsification_bound` — Theorem 4.8.  For a τ-sparsified instance,
  if a witness set ``S`` of cost at most ``B`` τ-covers an ``α`` fraction of
  the total right-node weight ``W_R`` in the GFL formulation, then the
  sparsified optimum is at least ``1 / (1 + 1/α)`` of the true optimum.
  The witness is produced by solving Budgeted Maximum Coverage over the
  τ-neighbourhood structure (Section 4.3 notes this sub-problem is much
  faster than PAR itself since no nearest-neighbour evaluation is needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.budgeted_coverage import (
    CoverageProblem,
    CoverageSolution,
    greedy_budgeted_coverage,
)
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState

__all__ = [
    "online_bound",
    "Certificate",
    "certify",
    "performance_certificate",
    "SparsificationBound",
    "sparsification_bound",
]


def online_bound(
    instance: PARInstance,
    selection: Iterable[int],
    *,
    state: Optional[CoverageState] = None,
) -> float:
    """Upper bound on the PAR optimum given an evaluated solution ``S``.

    Computes ``G(S)`` plus the fractional-knapsack packing of the current
    marginal gains into the full budget ``B``.  Valid for *any* ``S`` — the
    bound certifies the optimum, not the solution.

    ``state`` may carry an already-built :class:`CoverageState` whose
    selection is exactly ``S`` — callers that just finished a greedy pass
    (or a checkpoint replay) reuse it instead of replaying the whole
    selection a second time.  The bound is identical either way: a fresh
    state replays the same add order into the same floats.

    The packing takes photos in descending (density, gain, cost) order,
    whole while they fit and then a fraction of the first that does not.
    Only the density prefix the budget reaches is sorted
    (:func:`_knapsack_prefix`), and two ``np.cumsum`` passes, which add
    sequentially, give the remaining budget and the bound, bit for bit as
    a loop over the sorted photos would.
    """
    if state is None:
        state = CoverageState(instance, selection)
    costs = instance.costs
    gains = state.all_gains()
    keep = np.nonzero(
        (gains > 0) & (costs <= instance.budget * (1 + 1e-12))
    )[0]
    g, c, left, cut = _knapsack_prefix(gains[keep], costs[keep], instance.budget)
    bound = float(np.cumsum(np.concatenate(([state.value], g[:cut])))[-1])
    if cut < g.size and left[cut] > 0:
        bound += float(g[cut]) * (float(left[cut]) / float(c[cut]))
    return bound


def _knapsack_prefix(
    gains: np.ndarray, costs: np.ndarray, budget: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The head of the items' descending (density, gain, cost) order that
    a fractional knapsack of ``budget`` reaches: ``(g, c, left, cut)``.

    ``g`` and ``c`` are the sorted gains and costs, ``left[j]`` the
    budget before item ``j`` had every earlier item fit whole, and
    ``cut`` the first item that does not fit whole (or ``len(g)``).  Only
    the items whose density reaches a cut found by ``np.partition`` are
    sorted: the ``k`` densest and every tie of the ``k``-th, so the
    sorted prefix is exactly the head of ``np.lexsort`` over all items.
    ``k`` starts at twice the count of mean-cost items ``budget`` holds
    and doubles until the knapsack fills inside the prefix.
    """
    m = gains.size
    density = gains / costs
    k = m
    if m and np.isfinite(budget):
        k = min(m, 2 * int(budget / costs.mean()) + 16)
    while True:
        if k < m:
            idx = np.flatnonzero(density >= np.partition(density, m - k)[m - k])
        else:
            idx = np.arange(m)
        order = idx[np.lexsort((-costs[idx], -gains[idx], -density[idx]))]
        g, c = gains[order], costs[order]
        left = np.cumsum(np.concatenate(([budget], -c)))
        stops = np.flatnonzero((left[:-1] <= 0) | (c > left[:-1]))
        if stops.size or idx.size == m:
            return g, c, left, int(stops[0]) if stops.size else idx.size
        k *= 2


class Certificate(NamedTuple):
    """What :func:`certify` reports for a finished selection."""

    value: float
    bound: Optional[float] = None
    ratio: Optional[float] = None


def certify(
    instance: PARInstance, selection: Iterable[int], *, bound: bool = False
) -> Certificate:
    """``G(S)`` of a finished selection and, with ``bound``, its online
    bound and certified ratio ``min(1, G(S) / bound)``, all from one
    :class:`CoverageState` built over ``selection`` in the given order.

    ``value`` is :meth:`CoverageState.score`; the bound starts from the
    state's running value, exactly as :func:`online_bound` over the same
    selection would.
    """
    state = CoverageState(instance, selection)
    value = state.score()
    if not bound:
        return Certificate(value)
    bound = online_bound(instance, selection, state=state)
    return Certificate(value, bound, 1.0 if bound <= 0 else min(1.0, value / bound))


def performance_certificate(
    instance: PARInstance, selection: Iterable[int]
) -> Tuple[float, float]:
    """Return ``(achieved_value, ratio_lower_bound)`` for a solution.

    ``ratio_lower_bound = G(S) / online_bound(S)`` certifies that ``S`` is
    at least that fraction of optimal.  The paper reports these ratios far
    above the worst-case ``(1 − 1/e)/2 ≈ 0.316``.
    """
    value, _, ratio = certify(instance, selection, bound=True)
    return value, ratio


@dataclass
class SparsificationBound:
    """Theorem 4.8 certificate for a τ-sparsified instance.

    ``factor = α / (1 + α)`` lower-bounds the ratio between the sparsified
    optimum and the true optimum.  ``witness`` is the photo set realising
    coverage fraction ``α`` of the right-node weight ``W_R``.
    """

    tau: float
    alpha: float
    factor: float
    witness: List[int]
    covered_weight: float
    total_weight: float


def sparsification_bound(
    instance: PARInstance,
    tau: float,
    *,
    budget: Optional[float] = None,
) -> SparsificationBound:
    """Compute the data-dependent bound of Theorem 4.8 for threshold τ.

    Builds the GFL right side — one item per ``(q, p)`` membership pair with
    weight ``W(q) · R(q, p)`` — and, for each photo, the set of items whose
    τ-surviving similarity to the photo is at least τ.  A Budgeted Maximum
    Coverage witness over this structure gives ``α`` and hence the bound
    ``1 / (1 + 1/α)``.

    The instance may be either dense (τ applied on the fly) or already
    τ-sparsified (stored neighbours used directly).
    """
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    budget = instance.budget if budget is None else float(budget)

    item_weights: List[float] = []
    # covers[p] accumulates right-item indices covered by photo p.
    covers: List[List[int]] = [[] for _ in range(instance.n)]
    item_idx = 0
    for subset in instance.subsets:
        wrel = subset.weight * subset.relevance
        base = item_idx
        for local in range(len(subset)):
            item_weights.append(float(wrel[local]))
        item_idx += len(subset)
        for local, photo_id in enumerate(subset.members):
            idx, sims = subset.similarity.neighbors(local)
            keep = idx[sims >= tau]
            for j in keep:
                covers[int(photo_id)].append(base + int(j))

    problem = CoverageProblem(
        item_weights=np.asarray(item_weights, dtype=np.float64),
        sets=[np.asarray(c, dtype=np.int64) for c in covers],
        set_costs=instance.costs,
        budget=budget,
    )
    solution: CoverageSolution = greedy_budgeted_coverage(problem)
    total = problem.total_weight
    alpha = solution.coverage_fraction(total)
    factor = 0.0 if alpha <= 0 else alpha / (1.0 + alpha)
    return SparsificationBound(
        tau=tau,
        alpha=alpha,
        factor=factor,
        witness=sorted(solution.chosen),
        covered_weight=solution.covered_weight,
        total_weight=total,
    )

"""The online bound's fractional knapsack as a loop over every kept photo.

:func:`repro.core.bounds.online_bound` sorts only the density prefix the
budget reaches and packs it with two ``np.cumsum`` passes;
:func:`knapsack_bound_loop` is the packing it replaced, which sorts every
kept photo and walks them in Python.  ``tests/core/test_bounds.py``
proves the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def knapsack_bound_loop(
    value: float, gains: np.ndarray, costs: np.ndarray, budget: float
) -> float:
    """``value`` plus the gains of the photos with a positive gain and a
    cost within ``budget``, packed fractionally into ``budget`` in
    descending (density, gain, cost) order."""
    keep = np.nonzero((gains > 0) & (costs <= budget * (1 + 1e-12)))[0]
    kept_gains = gains[keep]
    kept_costs = costs[keep]
    order = np.lexsort((-kept_costs, -kept_gains, -(kept_gains / kept_costs)))
    bound = value
    for i in order:
        if budget <= 0:
            break
        gain = float(kept_gains[i])
        cost = float(kept_costs[i])
        if cost <= budget:
            bound += gain
            budget -= cost
        else:
            bound += gain * (budget / cost)
            budget = 0.0
    return bound

"""Quarterly archive maintenance: living with a drifting query log.

Run with::

    python examples/archive_maintenance.py

The paper's EC datasets come from a *quarter's* query log (Section 5.2) —
real deployments re-derive the landing pages every quarter as shopping
interests drift, and occasionally gain or lose cache capacity.  This
example simulates four quarters of such drift and compares two operating
modes:

* **cold** — re-solve from scratch every quarter;
* **warm** — adapt last quarter's selection with
  :func:`repro.live.warm_resolve`, which evicts by reverse greedy when
  the budget shrinks, then continues the greedy into any headroom.

Watch the quality track the cold solve while the churn (photos moved in
or out of the cache each quarter) stays small — the operational win of
incremental maintenance.  Each warm answer also carries a certified
``regret_bound``: its value is at least ``1 − regret`` of the optimum.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import PARInstance
from repro.core.solver import solve
from repro.datasets.ecommerce import generate_ecommerce_dataset
from repro.live import warm_resolve


def drifted_instance(dataset, budget: float, quarter: int, rng) -> PARInstance:
    """This quarter's instance: same photos, drifted subset weights.

    Query popularity drifts multiplicatively quarter over quarter
    (log-normal shocks), re-ranking the landing pages the way a real
    query log would.
    """
    from repro.core.instance import PredefinedSubset

    base = dataset.instance(budget)
    drifted = []
    for q in base.subsets:
        shock = float(rng.lognormal(mean=0.0, sigma=0.35))
        drifted.append(
            PredefinedSubset(
                q.subset_id, q.weight * shock, q.members, q.relevance,
                q.similarity, normalize=False,
            )
        )
    return base.with_subsets(drifted)


def main() -> None:
    rng = np.random.default_rng(42)
    dataset = generate_ecommerce_dataset("Fashion", 220, n_queries=35, seed=8)
    budget = dataset.total_cost() * 0.12
    print(
        f"dataset: {dataset.n_photos} photos, {dataset.n_subsets} landing pages; "
        f"budget {budget / 1e6:.0f} MB\n"
    )

    header = (
        f"{'quarter':>8} {'warm value':>11} {'cold value':>11} {'kept':>7} "
        f"{'churn':>6} {'regret':>7} {'warm s':>8} {'cold s':>8}"
    )
    print(header)
    print("-" * len(header))

    previous = None
    for quarter in range(1, 5):
        inst = drifted_instance(dataset, budget, quarter, rng)
        # Capacity event in Q3: the cache loses 25%.
        if quarter == 3:
            inst = inst.with_budget(budget * 0.75)

        start = time.perf_counter()
        cold = solve(inst, "phocus")
        cold_s = time.perf_counter() - start

        if previous is None:
            previous = cold.selection
            print(f"{'Q1':>8} {'—':>11} {cold.value:>11.4f} {'—':>7} {'—':>6} "
                  f"{'—':>7} {'—':>8} {cold_s:>8.2f}   (initial cold solve)")
            continue

        start = time.perf_counter()
        warm = warm_resolve(inst, previous)
        warm_s = time.perf_counter() - start
        churn = len(warm.evicted) + len(warm.added)
        kept = warm.value / cold.value if cold.value > 0 else 1.0
        print(
            f"{'Q' + str(quarter):>8} {warm.value:>11.4f} {cold.value:>11.4f} "
            f"{kept:>6.1%} {churn:>6} {warm.regret_bound:>7.1%} "
            f"{warm_s:>8.2f} {cold_s:>8.2f}"
        )
        previous = warm.selection

    print(
        "\nShape: warm maintenance stays within a few percent of the cold"
        "\nre-solve each quarter while touching only the changed margin of"
        "\nthe cache (small churn), including through the Q3 capacity cut."
    )


if __name__ == "__main__":
    main()

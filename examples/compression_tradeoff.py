"""Compression trade-off: keep fewer originals, or more degraded copies?

Run with::

    python examples/compression_tradeoff.py

Explores the paper's Section 6 future-work idea with :mod:`repro.fidelity`:
at each budget, compare remove-only archiving against archiving that may
keep a compressed rendition (85% fidelity at 45% of the bytes) instead of
the full photo — at most one rendition per photo — and watch the solver's
keep/compress/archive mix shift with the budget.
"""

from __future__ import annotations

from repro.core.greedy import main_algorithm
from repro.core.solver import solve
from repro.datasets.public import generate_public_dataset
from repro.fidelity import VariantCatalog

LEVELS = ((0.85, 0.45),)


def main() -> None:
    dataset = generate_public_dataset(200, 35, name="compress-demo", seed=21)
    corpus = dataset.total_cost()
    print(
        f"dataset: {dataset.n_photos} photos, {dataset.n_subsets} subsets, "
        f"{corpus / 1e6:.0f} MB"
    )
    print(f"compression level: fidelity {LEVELS[0][0]:.0%} at {LEVELS[0][1]:.0%} bytes\n")
    header = (
        f"{'budget':>8} {'remove-only':>12} {'w/ compress':>12} {'gain':>7}   "
        f"{'originals':>9} {'compressed':>10}"
    )
    print(header)
    print("-" * len(header))
    for fraction in (0.05, 0.1, 0.2, 0.4, 0.7):
        inst = dataset.instance(corpus * fraction)
        remove_only = solve(inst, "phocus")
        catalog = VariantCatalog.from_levels(inst.costs, LEVELS)
        compressed = main_algorithm(inst, catalog=catalog)
        kept = catalog.describe_selection(compressed.chosen)
        gain = compressed.value / remove_only.value - 1.0
        print(
            f"{fraction:>7.0%} {remove_only.value:>12.3f} {compressed.value:>12.3f} "
            f"{gain:>6.1%}   {kept['kept_original']:>9} "
            f"{kept['recompressed']:>10}"
        )
    print(
        "\nShape: at tight budgets nearly everything kept is compressed (more"
        "\ncoverage per byte); as the budget loosens, full-quality originals"
        "\ntake over and the compression advantage fades."
    )


if __name__ == "__main__":
    main()

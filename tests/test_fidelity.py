"""The multi-fidelity subsystem: catalog, exclusive solver, guarantees.

Covers the acceptance criteria of the ``repro.fidelity`` subsystem:

* the exclusive solver selects **at most one variant per photo**, stays
  within budget, and its incremental value agrees with the from-scratch
  :func:`repro.fidelity.solver.fidelity_score` oracle;
* a trivial (originals-only) catalog reproduces the discard-only
  ``lazy_greedy`` **bit for bit** — selection, value, cost, picks, and
  evaluation count — for both UC and CB;
* ``fidelity_main`` preserves the ``(1 − 1/e)/2``-style approximation
  against the brute-forced exclusive optimum on small instances across
  seeds × budgets;
* the exclusive value dominates the flat-expansion cross-check oracle
  (``expand_with_compression`` + ``deduplicate_variants`` from
  ``tests/oracles/compression.py``), and the oracle's sparse expansion
  path is bit-identical to its dense one;
* variant instances round-trip through serialization (float32 and
  float64) and non-variant blobs stay back-compatible.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm
from repro.core.instance import DenseSimilarity, PARInstance, PredefinedSubset
from repro.core.serialize import instance_from_json, instance_to_json
from repro.errors import ValidationError
from repro.fidelity import (
    DEFAULT_TIERS,
    VariantCatalog,
    budget_frontier,
    fidelity_main,
    fidelity_score,
)
from repro.scale import build_streamed_instance, synthetic_archive

from tests.oracles.compression import deduplicate_variants, expand_with_compression

LEVELS = [(0.85, 0.45), (0.6, 0.22)]


def _archive(n, *, frac, seed, tau=0.5, noise=0.7, dtype=np.float64, retained=()):
    costs, emb = synthetic_archive(n, dim=8, noise=noise, seed=seed)
    total = float(costs.sum())
    instance, _ = build_streamed_instance(
        costs, emb, total * frac, tau=tau, rng=seed, dtype=dtype,
        retained=list(retained),
    )
    return instance


# ---------------------------------------------------------------- catalog


class TestVariantCatalog:
    def test_default_menu_shape(self):
        cat = VariantCatalog.default([10.0, 4.0])
        assert cat.n_photos == 2
        assert cat.n_variants == 2 * (1 + len(DEFAULT_TIERS))
        assert cat.tier[:3] == ["original", "q85", "q60"]
        # Slot 0 is the original; fidelity and cost strictly decrease.
        assert cat.fidelity[cat.original_of(0)] == 1.0
        assert list(cat.photo_of) == [0, 0, 0, 1, 1, 1]

    def test_from_levels_sorts_best_first(self):
        a = VariantCatalog.from_levels([8.0], LEVELS)
        b = VariantCatalog.from_levels([8.0], list(reversed(LEVELS)))
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.cost, b.cost)

    def test_trivial_is_discard_only(self):
        cat = VariantCatalog.trivial([3.0, 5.0, 7.0])
        assert cat.is_trivial()
        assert cat.n_variants == 3
        assert all(t == "original" for t in cat.tier)

    def test_rejects_dominated_variant(self):
        # Lower fidelity at equal cost: dominated, must be rejected.
        with pytest.raises(ValidationError, match="strictly decrease"):
            VariantCatalog(
                np.array([0, 2]),
                np.array([10.0, 10.0]),
                np.array([1.0, 0.8]),
                ["original", "q80"],
            )

    def test_rejects_missing_original(self):
        with pytest.raises(ValidationError, match="slot 0"):
            VariantCatalog(
                np.array([0, 1]),
                np.array([10.0]),
                np.array([0.9]),
                ["q90"],
            )

    def test_rejects_out_of_range_fidelity(self):
        with pytest.raises(ValidationError, match="fidelity"):
            VariantCatalog.from_levels([10.0], [(1.5, 0.5)])

    def test_round_trip(self):
        cat = VariantCatalog.from_levels([10.0, 4.0, 2.5], LEVELS)
        back = VariantCatalog.from_dict(cat.to_dict())
        assert np.array_equal(back.indptr, cat.indptr)
        assert np.array_equal(back.cost, cat.cost)
        assert np.array_equal(back.fidelity, cat.fidelity)
        assert back.tier == cat.tier

    def test_from_dict_rejects_unknown_format(self):
        doc = VariantCatalog.trivial([1.0]).to_dict()
        doc["format"] = 99
        with pytest.raises(ValidationError, match="format"):
            VariantCatalog.from_dict(doc)

    def test_describe_selection(self):
        cat = VariantCatalog.default([10.0, 4.0, 2.0])
        chosen = {0: cat.original_of(0), 1: cat.original_of(1) + 1}
        report = cat.describe_selection(chosen)
        assert report["kept"] == 2 and report["dropped"] == 1
        assert report["kept_original"] == 1 and report["recompressed"] == 1
        assert report["by_tier"] == {"original": 1, "q85": 1}
        assert report["mean_fidelity"] == pytest.approx((1.0 + 0.85) / 3)


# ----------------------------------------------------- degradation contract


_S0 = (0, 7, 33, 101, 140, 149)


@pytest.mark.parametrize(
    "mode, retained",
    [(UC, ()), (CB, ()), (UC, _S0), (CB, _S0)],
    ids=["UC", "CB", "UC-retained", "CB-retained"],
)
def test_trivial_catalog_reproduces_lazy_greedy_bit_for_bit(mode, retained):
    instance = _archive(150, frac=0.2, seed=3, retained=retained)
    catalog = VariantCatalog.trivial(instance.costs)
    base = lazy_greedy(instance, mode)
    excl = lazy_greedy(instance, mode, catalog=catalog)
    assert excl.selection == base.selection
    assert excl.value == base.value
    assert excl.cost == base.cost
    assert excl.evaluations == base.evaluations
    assert excl.picks == base.picks
    assert excl.upgrades == []


def test_trivial_catalog_fidelity_main_matches_main_algorithm():
    instance = _archive(150, frac=0.2, seed=4)
    catalog = VariantCatalog.trivial(instance.costs)
    base = main_algorithm(instance)
    excl = fidelity_main(instance, catalog)
    assert excl.selection == base.selection
    assert excl.value == base.value
    assert excl.mode == base.mode
    assert excl.evaluations == base.evaluations


# -------------------------------------------------- solver core properties


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("frac", [0.1, 0.3])
def test_exclusive_choice_feasibility_and_oracle(seed, frac):
    instance = _archive(120, frac=frac, seed=seed)
    catalog = VariantCatalog.default(instance.costs)
    run = fidelity_main(instance, catalog)

    # At most one variant per photo, each owned by its photo.
    for p, vid in run.chosen.items():
        assert catalog.indptr[p] <= vid < catalog.indptr[p + 1]
    assert len(run.chosen) == len(set(run.chosen))

    spent = float(sum(catalog.cost[v] for v in run.chosen.values()))
    assert spent == pytest.approx(run.cost)
    assert spent <= instance.budget * (1 + 1e-12)

    # The incrementally tracked value agrees with the scratch oracle.
    assert run.value == pytest.approx(
        fidelity_score(instance, catalog, run.chosen), rel=1e-9
    )


def test_retained_photos_stay_at_original_rendition():
    costs, emb = synthetic_archive(60, dim=8, noise=0.7, seed=9)
    total = float(costs.sum())
    instance, _ = build_streamed_instance(
        costs, emb, total * 0.2, tau=0.5, rng=9, retained=[0, 7]
    )
    catalog = VariantCatalog.default(instance.costs)
    run = fidelity_main(instance, catalog)
    for p in (0, 7):
        assert run.chosen[p] == catalog.original_of(p)


def test_in_drain_upgrades_never_hurt():
    for seed in (0, 1, 2):
        instance = _archive(120, frac=0.25, seed=seed)
        catalog = VariantCatalog.default(instance.costs)
        with_up = fidelity_main(instance, catalog, upgrade=True)
        without = fidelity_main(instance, catalog, upgrade=False)
        assert with_up.value >= without.value - 1e-12


def test_solver_rejects_mismatched_catalog():
    instance = _archive(50, frac=0.2, seed=1)
    catalog = VariantCatalog.default(instance.costs[:-1])
    with pytest.raises(ValidationError, match="catalog covers"):
        lazy_greedy(instance, catalog=catalog)


# ------------------------------------------------- approximation guarantee


def _brute_force_opt(instance, catalog):
    """Exhaustive exclusive optimum: per photo pick a variant or drop."""
    menus = [
        [None] + list(catalog.variants_of(p)) for p in range(instance.n)
    ]
    best = 0.0
    for combo in itertools.product(*menus):
        chosen = {p: v for p, v in enumerate(combo) if v is not None}
        cost = float(sum(catalog.cost[v] for v in chosen.values()))
        if cost > instance.budget * (1 + 1e-12):
            continue
        best = max(best, fidelity_score(instance, catalog, chosen))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("frac", [0.25, 0.5])
def test_approximation_guarantee_vs_brute_force(seed, frac):
    instance = _archive(7, frac=frac, seed=seed, tau=0.1)
    catalog = VariantCatalog.from_levels(instance.costs, [(0.85, 0.45)])
    opt = _brute_force_opt(instance, catalog)
    run = fidelity_main(instance, catalog)
    # Algorithm 1's bound, lifted to the exclusive ground set.
    assert run.value >= (1 - 1 / np.e) / 2 * opt - 1e-9


# -------------------------------------------------------- frontier sweeps


def test_budget_frontier_shape_and_dominance_fields():
    instance = _archive(100, frac=1.0, seed=2)
    total = float(instance.costs.sum())
    catalog = VariantCatalog.default(instance.costs)
    doc = budget_frontier(instance, catalog, [total * 0.3, total * 0.1])
    assert doc["budgets"] == sorted(doc["budgets"])
    assert len(doc["points"]) == 2
    for point in doc["points"]:
        assert point["frontier_value"] == max(
            point["fidelity_value"], point["discard_value"]
        )
        assert point["weakly_dominates"] in (True, False)
    assert set(doc["checks"]) == {"weakly_dominates_all", "strict_points"}


def test_budget_frontier_rejects_empty_and_nonpositive():
    instance = _archive(30, frac=0.5, seed=0)
    catalog = VariantCatalog.trivial(instance.costs)
    with pytest.raises(ValidationError):
        budget_frontier(instance, catalog, [])
    with pytest.raises(ValidationError):
        budget_frontier(instance, catalog, [0.0])


# ------------------------------------- flat-expansion cross-check oracle


def _flat_to_exclusive(dedup, vmap, catalog):
    """Map a deduplicated flat selection onto catalog variant ids."""
    chosen = {}
    for v in dedup:
        p = vmap.origin[v]
        if vmap.is_original(v):
            chosen[p] = catalog.original_of(p)
        else:
            fid = vmap.level[v].fidelity
            chosen[p] = next(
                k
                for k in catalog.variants_of(p)
                if catalog.fidelity[k] == fid
            )
    return chosen


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("frac", [0.1, 0.3])
def test_exclusive_value_dominates_flat_expansion(seed, frac):
    instance = _archive(60, frac=frac, seed=seed, tau=0.4, noise=0.6)
    catalog = VariantCatalog.from_levels(instance.costs, LEVELS)

    expanded, vmap = expand_with_compression(instance, LEVELS)
    flat = main_algorithm(expanded)
    dedup = deduplicate_variants(flat.selection, vmap)
    flat_value = fidelity_score(
        instance, catalog, _flat_to_exclusive(dedup, vmap, catalog)
    )

    run = fidelity_main(instance, catalog)
    assert run.value >= flat_value - 1e-9


def test_sparse_expansion_matches_dense_expansion():
    instance = _archive(50, frac=0.25, seed=6, tau=0.4, noise=0.6)
    subset = instance.subsets[0]
    assert subset.similarity.is_sparse

    indptr, cols, vals = subset.similarity.csr()
    m = len(subset)
    dense = np.zeros((m, m))
    for i in range(m):
        dense[i, cols[indptr[i] : indptr[i + 1]]] = vals[
            indptr[i] : indptr[i + 1]
        ]
    dense_instance = PARInstance.from_photos(
        list(instance.photos),
        [
            PredefinedSubset(
                subset.subset_id,
                subset.weight,
                list(subset.members),
                list(subset.relevance),
                DenseSimilarity(dense),
                normalize=False,
            )
        ],
        instance.budget,
        retained=instance.retained,
    )

    exp_sparse, _ = expand_with_compression(instance, LEVELS)
    exp_dense, _ = expand_with_compression(dense_instance, LEVELS)
    assert exp_sparse.subsets[0].similarity.is_sparse
    run_sparse = main_algorithm(exp_sparse)
    run_dense = main_algorithm(exp_dense)
    assert run_sparse.selection == run_dense.selection
    assert run_sparse.value == pytest.approx(run_dense.value, abs=1e-12)


def test_sparse_expansion_preserves_dtype():
    instance = _archive(40, frac=0.25, seed=5, dtype=np.float32)
    expanded, _ = expand_with_compression(instance, LEVELS)
    sim = expanded.subsets[0].similarity
    assert sim.is_sparse
    assert sim.csr()[2].dtype == np.float32


# ------------------------------------------------------------- serialize


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_variant_instance_round_trips(dtype):
    instance = _archive(60, frac=0.2, seed=8, dtype=dtype)
    instance.variants = VariantCatalog.default(instance.costs)

    back = instance_from_json(instance_to_json(instance))
    assert back.variants is not None
    assert np.array_equal(back.variants.indptr, instance.variants.indptr)
    assert np.array_equal(back.variants.cost, instance.variants.cost)
    assert np.array_equal(back.variants.fidelity, instance.variants.fidelity)
    assert back.variants.tier == instance.variants.tier

    # The round-tripped instance solves to the same exclusive choices.
    a = fidelity_main(instance, instance.variants)
    b = fidelity_main(back, back.variants)
    assert a.chosen == b.chosen
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_non_variant_blob_stays_back_compatible():
    instance = _archive(40, frac=0.2, seed=8)
    text = instance_to_json(instance)
    assert '"variants"' not in text
    back = instance_from_json(text)
    assert back.variants is None


def test_instance_rejects_mismatched_variants():
    instance = _archive(40, frac=0.2, seed=8)
    with pytest.raises(ValidationError, match="variant"):
        PARInstance.from_photos(
            list(instance.photos),
            list(instance.subsets),
            instance.budget,
            variants=VariantCatalog.trivial(instance.costs[:-1]),
        )


def test_with_budget_carries_variants():
    instance = _archive(40, frac=0.5, seed=8)
    instance.variants = VariantCatalog.default(instance.costs)
    smaller = instance.with_budget(instance.budget * 0.5)
    assert smaller.variants is instance.variants

"""Tests for the flat compression expansion oracle (Section 6 future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import max_score, score
from repro.core.solver import solve
from repro.errors import ValidationError

from tests.conftest import random_instance
from tests.oracles.compression import (
    CompressionLevel,
    deduplicate_variants,
    expand_with_compression,
)


class TestCompressionLevel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CompressionLevel(fidelity=1.0, size_factor=0.5)
        with pytest.raises(ValidationError):
            CompressionLevel(fidelity=0.8, size_factor=0.0)
        CompressionLevel(fidelity=0.8, size_factor=0.4)  # valid


class TestExpand:
    def test_sizes_and_ids(self, figure1):
        expanded, variants = expand_with_compression(figure1, [(0.8, 0.4)])
        assert expanded.n == 14
        # Originals keep their ids and costs.
        for p in range(7):
            assert expanded.costs[p] == pytest.approx(figure1.costs[p])
            assert variants.is_original(p)
        # Variants cost size_factor of the original.
        for v in range(7, 14):
            origin = variants.origin[v]
            assert expanded.costs[v] == pytest.approx(0.4 * figure1.costs[origin])
            assert not variants.is_original(v)

    def test_original_selection_scores_unchanged(self, figure1):
        """The expansion is conservative: selections of originals score
        exactly as in the base instance."""
        expanded, _ = expand_with_compression(figure1, [(0.8, 0.4)])
        for sel in ([0], [0, 5], [1, 3, 6], list(range(7))):
            assert score(expanded, sel) == pytest.approx(score(figure1, sel))

    def test_variant_covers_its_origin_at_fidelity(self, figure1):
        expanded, variants = expand_with_compression(figure1, [(0.8, 0.4)])
        # Variant of p6 (origin id 5): covers Bookshelf at 0.8 * weight 3.
        v = next(v for v in range(7, 14) if variants.origin[v] == 5)
        from repro.core.objective import score_breakdown

        breakdown = score_breakdown(expanded, [v])
        assert breakdown["Bookshelf"] == pytest.approx(3 * 0.8)
        # And Cats at 1*(0.3*0.4 + 0.4*0.7 + 0.3*1) * 0.8.
        assert breakdown["Cats"] == pytest.approx(0.8 * (0.12 + 0.28 + 0.3))

    def test_variant_cross_coverage_scaled(self, figure1):
        expanded, variants = expand_with_compression(figure1, [(0.5, 0.3)])
        v1 = next(v for v in range(7, 14) if variants.origin[v] == 0)  # p1@0.5
        from repro.core.objective import score_breakdown

        breakdown = score_breakdown(expanded, [v1])
        # p1 covers Bikes at 9*(0.5*1 + 0.3*0.7 + 0.2*0.8) when original;
        # the 0.5-fidelity copy covers everything at half that.
        assert breakdown["Bikes"] == pytest.approx(0.5 * 7.83)

    def test_retained_pins_survive(self):
        inst = random_instance(seed=7, retained=2)
        expanded, _ = expand_with_compression(inst)
        assert expanded.retained == inst.retained

    def test_max_score_unchanged(self, figure1):
        expanded, _ = expand_with_compression(figure1)
        assert max_score(expanded) == pytest.approx(max_score(figure1))

    def test_multiple_levels(self, figure1):
        expanded, variants = expand_with_compression(
            figure1, [(0.9, 0.6), (0.6, 0.25)]
        )
        assert expanded.n == 21
        fidelities = {
            variants.level[v].fidelity for v in range(7, 21)
        }
        assert fidelities == {0.9, 0.6}


class TestCompressionHelps:
    def test_compression_beats_remove_only_under_tight_budget(self):
        """The paper's future-work hypothesis: allowing compression yields
        at least the remove-only quality, and strictly more when the
        budget is tight relative to photo sizes."""
        wins = 0
        for seed in range(6):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5,
                                   budget_fraction=0.2)
            expanded, _ = expand_with_compression(inst, [(0.85, 0.4)])
            remove_only = solve(inst, "phocus").value
            with_compression = solve(expanded, "phocus").value
            # Greedy is not monotone under ground-set growth; allow a hair
            # of slack but require a strict win on most instances.
            assert with_compression >= 0.98 * remove_only
            if with_compression > remove_only + 1e-9:
                wins += 1
        assert wins >= 4, "compression should strictly help on most tight instances"

    def test_worthless_level_never_hurts(self, figure1):
        # fidelity 0.5 at 90% of the size: the original dominates.
        expanded, _ = expand_with_compression(figure1, [(0.5, 0.9)])
        base = solve(figure1, "phocus").value
        assert solve(expanded, "phocus").value >= 0.98 * base


class TestVariantBookkeeping:
    def test_deduplicate_keeps_best_fidelity(self, figure1):
        expanded, variants = expand_with_compression(figure1, [(0.8, 0.4)])
        v0 = next(v for v in range(7, 14) if variants.origin[v] == 0)
        deduped = deduplicate_variants([0, v0, 5], variants)
        assert deduped == [0, 5]  # original p1 beats its variant

    def test_originals_of(self, figure1):
        expanded, variants = expand_with_compression(figure1, [(0.8, 0.4)])
        v3 = next(v for v in range(7, 14) if variants.origin[v] == 3)
        assert variants.originals_of([0, v3]) == [0, 3]

"""Tests for the instance-diagnostics module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import DenseSimilarity, PARInstance, Photo, PredefinedSubset
from repro.system.analysis import analyze_instance

from tests.conftest import random_instance


def _instance_with_orphan():
    photos = [Photo(photo_id=i, cost=1.0) for i in range(3)]
    q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], DenseSimilarity(np.eye(2)))
    return PARInstance.from_photos(photos, [q], budget=2.0)


class TestAnalyzeInstance:
    def test_basic_counts(self, figure1):
        diag = analyze_instance(figure1)
        assert diag.n_photos == 7
        assert diag.n_subsets == 4
        assert diag.budget_fraction == pytest.approx(4.0 / 8.1, rel=1e-3)
        assert diag.mean_subset_size == pytest.approx((3 + 3 + 1 + 2) / 4)
        assert diag.max_subset_size == 3

    def test_orphans_detected(self):
        diag = analyze_instance(_instance_with_orphan())
        assert diag.orphan_photos == [2]
        assert any("no subset" in w for w in diag.warnings)

    def test_singletons_detected(self, figure1):
        diag = analyze_instance(figure1)
        assert diag.singleton_subsets == ["Bookshelf"]

    def test_overlap_degree(self, figure1):
        # Memberships: 9 pairs over 7 photos.
        diag = analyze_instance(figure1)
        assert diag.mean_overlap_degree == pytest.approx(9 / 7)

    def test_generous_budget_warning(self, figure1):
        diag = analyze_instance(figure1.with_budget(1e9))
        assert any("whole corpus" in w for w in diag.warnings)

    def test_heavy_retention_warning(self):
        inst = random_instance(seed=7, retained=2)
        tight = inst.with_budget(inst.cost_of(inst.retained) * 1.2)
        diag = analyze_instance(tight)
        assert any("half the budget" in w for w in diag.warnings)

    def test_no_photo_fits_warning(self, figure1):
        diag = analyze_instance(figure1.with_budget(0.1e6))
        assert any("no single photo fits" in w.lower() for w in diag.warnings)

    def test_sparse_instance_density(self, figure1):
        from repro.sparsify.threshold import threshold_sparsify

        dense_density = analyze_instance(figure1).similarity_density
        sparse, _ = threshold_sparsify(figure1, 0.75)
        sparse_density = analyze_instance(sparse).similarity_density
        assert sparse_density < dense_density

    def test_summary_lines_render(self, figure1):
        lines = analyze_instance(figure1).summary_lines()
        text = "\n".join(lines)
        assert "photos" in text
        assert "budget" in text
        assert "singleton subsets" in text


class TestCliInspect:
    def test_inspect_command(self, capsys):
        from repro.system.cli import main

        code = main(["inspect", "--dataset", "P-1K", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "instance diagnostics" in out
        assert "pre-defined subsets" in out

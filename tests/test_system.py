"""Tests for the end-to-end PHOcus pipeline (Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Photo
from repro.errors import ConfigurationError, ValidationError
from repro.images.exif import synthesize_event_exif
from repro.system.phocus import (
    ArchiveReport,
    DataRepresentationModule,
    PHOcus,
    PhocusConfig,
)

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


def _photos_with_embeddings(n=10, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    photos = [Photo(photo_id=i, cost=float(rng.uniform(0.5, 2.0))) for i in range(n)]
    return photos, emb


class TestConfig:
    def test_tau_validation(self):
        with pytest.raises(ConfigurationError):
            PhocusConfig(tau=1.5)

    def test_defaults(self):
        config = PhocusConfig()
        assert config.algorithm == "phocus"
        assert config.tau == 0.0


class TestDataRepresentationModule:
    def test_from_tags_uniform_relevance(self):
        photos, emb = _photos_with_embeddings()
        module = DataRepresentationModule()
        inst = module.from_tags(
            photos, emb, {"beach": [0, 1, 2], "city": [3, 4]}, budget=5.0
        )
        assert len(inst.subsets) == 2
        beach = next(q for q in inst.subsets if q.subset_id == "beach")
        assert beach.relevance == pytest.approx([1 / 3] * 3)

    def test_from_tags_with_weights_and_relevance(self):
        photos, emb = _photos_with_embeddings()
        module = DataRepresentationModule()
        inst = module.from_tags(
            photos, emb, {"beach": [0, 1]}, budget=5.0,
            weights={"beach": 4.0}, relevance={"beach": [3.0, 1.0]},
        )
        q = inst.subsets[0]
        assert q.weight == 4.0
        assert q.relevance == pytest.approx([0.75, 0.25])

    def test_from_tags_skips_empty(self):
        photos, emb = _photos_with_embeddings()
        module = DataRepresentationModule()
        inst = module.from_tags(photos, emb, {"a": [0, 1], "b": []}, budget=5.0)
        assert [q.subset_id for q in inst.subsets] == ["a"]

    def test_empty_input_rejected(self):
        photos, emb = _photos_with_embeddings()
        with pytest.raises(ValidationError):
            DataRepresentationModule().from_tags(photos, emb, {}, budget=5.0)

    def test_from_queries(self):
        photos, emb = _photos_with_embeddings(4)
        texts = {0: "paris eiffel tower", 1: "paris louvre", 2: "beach sunset", 3: "dog park"}
        module = DataRepresentationModule()
        inst = module.from_queries(
            photos, emb, texts, [("paris vacation", 2.0), ("beach", 1.0)], budget=4.0
        )
        ids = {q.subset_id for q in inst.subsets}
        assert ids == {"paris vacation", "beach"}
        paris = next(q for q in inst.subsets if q.subset_id == "paris vacation")
        assert set(int(m) for m in paris.members) == {0, 1}
        assert paris.weight == 2.0

    def test_from_metadata_labels_and_exif(self):
        rng = np.random.default_rng(0)
        exif = synthesize_event_exif(4, rng)
        photos = [
            Photo(0, 1.0, metadata={"labels": ["cat"], "exif": exif[0]}),
            Photo(1, 1.0, metadata={"labels": ["cat", "sofa"], "exif": exif[1]}),
            Photo(2, 1.0, metadata={"labels": ["sofa"], "exif": exif[2]}),
            Photo(3, 1.0, metadata={"labels": ["cat"], "exif": exif[3]}),
        ]
        emb = rng.standard_normal((4, 6))
        inst = DataRepresentationModule().from_metadata(photos, emb, budget=4.0)
        ids = {q.subset_id for q in inst.subsets}
        assert "cat" in ids and "sofa" in ids
        # One shooting event -> a shared day bucket subset.
        assert any(i.startswith("20") for i in ids)
        assert any(i.startswith("geo:") for i in ids)

    def test_from_metadata_exif_dict_form(self):
        rng = np.random.default_rng(0)
        photos = [
            Photo(0, 1.0, metadata={"exif": {"timestamp": "2022-03-01T10:00:00"}}),
            Photo(1, 1.0, metadata={"exif": {"timestamp": "2022-03-01T11:00:00"}}),
        ]
        emb = rng.standard_normal((2, 4))
        inst = DataRepresentationModule().from_metadata(photos, emb, budget=2.0)
        assert [q.subset_id for q in inst.subsets] == ["2022-03-01"]

    def test_from_metadata_weights_by_size(self):
        rng = np.random.default_rng(1)
        photos = [
            Photo(0, 1.0, metadata={"labels": ["big", "small"]}),
            Photo(1, 1.0, metadata={"labels": ["big"]}),
            Photo(2, 1.0, metadata={"labels": ["big", "small"]}),
        ]
        emb = rng.standard_normal((3, 4))
        inst = DataRepresentationModule().from_metadata(photos, emb, budget=3.0)
        by_id = {q.subset_id: q for q in inst.subsets}
        assert by_id["big"].weight == 3.0
        assert by_id["small"].weight == 2.0


class TestPHOcusPipeline:
    def test_basic_run(self, small_instance):
        report = PHOcus().run(small_instance)
        assert isinstance(report, ArchiveReport)
        sol = report.solution
        assert small_instance.feasible(sol.selection)
        assert sol.value == pytest.approx(reference_score(small_instance, sol.selection))
        assert report.retained_count + report.archived_count == small_instance.n
        assert sum(report.subset_scores.values()) == pytest.approx(sol.value)

    def test_certificate(self, small_instance):
        report = PHOcus(PhocusConfig(certificate=True)).run(small_instance)
        assert report.optimum_upper_bound is not None
        assert report.optimum_upper_bound >= report.solution.value - 1e-9
        assert 0 < report.solution.ratio_certificate <= 1.0

    def test_no_certificate(self, small_instance):
        report = PHOcus(PhocusConfig(certificate=False)).run(small_instance)
        assert report.optimum_upper_bound is None
        assert report.solution.ratio_certificate is None

    def test_sparsified_run_reports_true_objective(self, small_instance):
        report = PHOcus(PhocusConfig(tau=0.5, seed=1)).run(small_instance)
        assert report.sparsify is not None
        assert report.sparsify.tau == 0.5
        assert report.sparsification_guarantee is not None
        # The reported value must be the TRUE score, not the sparsified one.
        assert report.solution.value == pytest.approx(
            reference_score(small_instance, report.solution.selection)
        )

    def test_lsh_sparsified_run(self, small_instance):
        config = PhocusConfig(tau=0.5, sparsify_method="lsh", seed=3)
        report = PHOcus(config).run(small_instance)
        assert report.sparsify.method == "lsh"
        assert small_instance.feasible(report.solution.selection)

    def test_sparsification_loss_is_small(self, small_instance):
        dense = PHOcus(PhocusConfig(certificate=False)).run(small_instance)
        sparse = PHOcus(PhocusConfig(tau=0.3, certificate=False, seed=0)).run(small_instance)
        assert sparse.solution.value >= 0.75 * dense.solution.value

    def test_worst_covered_subsets(self, small_instance):
        report = PHOcus().run(small_instance)
        worst = report.worst_covered_subsets
        assert len(worst) <= 5
        values = [v for _, v in worst]
        assert values == sorted(values)

    def test_alternative_algorithm(self, small_instance):
        report = PHOcus(PhocusConfig(algorithm="greedy-nr", certificate=False)).run(
            small_instance
        )
        assert report.solution.algorithm == "greedy-nr"

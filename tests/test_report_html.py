"""Tests for the static HTML archive report."""

from __future__ import annotations

import pytest

from repro.system.phocus import PHOcus, PhocusConfig
from repro.system.report_html import render_report_html, write_report_html


@pytest.fixture(scope="module")
def report_and_instance():
    from repro.core.paper_example import figure1_instance

    instance = figure1_instance(4.0)
    report = PHOcus(PhocusConfig(certificate=True)).run(instance)
    return report, instance


class TestRenderReportHtml:
    def test_is_complete_html(self, report_and_instance):
        report, instance = report_and_instance
        page = render_report_html(report, instance)
        assert page.startswith("<!doctype html>")
        assert page.endswith("</html>")
        assert "PHOcus archive report" in page

    def test_headline_numbers_present(self, report_and_instance):
        report, instance = report_and_instance
        page = render_report_html(report, instance)
        assert f"{report.solution.value:.3f}" in page
        assert "photos retained" in page
        assert "budget used" in page

    def test_certificate_rendered(self, report_and_instance):
        report, instance = report_and_instance
        page = render_report_html(report, instance)
        assert "certified" in page
        assert "online bound" in page

    def test_subset_rows_and_bars(self, report_and_instance):
        report, instance = report_and_instance
        page = render_report_html(report, instance)
        for subset_id in ("Bikes", "Cats", "Bookshelf", "Books"):
            assert subset_id in page
        assert page.count('class="bar"') == 4

    def test_retained_photo_table(self, report_and_instance):
        report, instance = report_and_instance
        page = render_report_html(report, instance)
        for p in report.solution.selection:
            assert f"<td>{p}</td>" in page

    def test_without_instance_detail(self, report_and_instance):
        report, _ = report_and_instance
        page = render_report_html(report)
        assert "Retained photos" not in page
        assert "Coverage by pre-defined subset" in page

    def test_escapes_labels(self):
        import numpy as np

        from repro.core.instance import (
            DenseSimilarity, PARInstance, Photo, PredefinedSubset,
        )

        photos = [Photo(0, 1.0, label="<script>alert(1)</script>")]
        q = PredefinedSubset(
            "<b>evil</b>", 1.0, [0], [1.0], DenseSimilarity(np.ones((1, 1)))
        )
        inst = PARInstance.from_photos(photos, [q], budget=2.0)
        report = PHOcus(PhocusConfig(certificate=False)).run(inst)
        page = render_report_html(report, inst)
        assert "<script>" not in page
        assert "&lt;script&gt;" in page
        assert "<b>evil</b>" not in page

    def test_sparsified_report_mentions_tau(self, report_and_instance):
        from repro.core.paper_example import figure1_instance

        instance = figure1_instance(4.0)
        report = PHOcus(PhocusConfig(tau=0.6, certificate=False)).run(instance)
        page = render_report_html(report, instance)
        assert "τ-sparsification" in page
        assert "Theorem 4.8" in page


class TestWriteReportHtml:
    def test_writes_file(self, tmp_path, report_and_instance):
        report, instance = report_and_instance
        path = write_report_html(report, tmp_path / "deep" / "report.html", instance)
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("<!doctype html>")

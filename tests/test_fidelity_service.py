"""The ``fidelity`` policy through the service, jobs, and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.serialize import instance_to_dict
from repro.fidelity import VariantCatalog, fidelity_main
from repro.fidelity.policy import execute_fidelity_payload
from repro.jobs import JobManager
from repro.scale import build_streamed_instance, synthetic_archive
from repro.system.cli import main
from repro.system.service import ServiceContext, handle_request


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture(scope="module")
def archive():
    costs, emb = synthetic_archive(80, dim=8, noise=0.7, seed=11)
    total = float(costs.sum())
    instance, _ = build_streamed_instance(
        costs, emb, total * 0.2, tau=0.5, rng=11
    )
    return instance


@pytest.fixture(scope="module")
def archive_doc(archive):
    return instance_to_dict(archive)


class TestSolveEndpoint:
    def test_solve_with_fidelity_policy(self, archive, archive_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": archive_doc, "fidelity": {}}),
        )
        assert status == 200
        assert doc["algorithm"] == "fidelity"
        local = fidelity_main(archive, VariantCatalog.default(archive.costs))
        assert doc["value"] == pytest.approx(local.value)
        assert doc["selection"] == sorted(int(p) for p in local.chosen)
        assert doc["quality"]["kept"] == len(local.chosen)
        # One record per chosen photo, slot-local variant indices.
        assert len(doc["chosen"]) == len(local.chosen)
        assert all(rec["variant"] >= 0 for rec in doc["chosen"])

    def test_solve_fidelity_with_explicit_levels(self, archive, archive_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body(
                {
                    "instance": archive_doc,
                    "fidelity": {"levels": [[0.85, 0.45]], "mode": "cb"},
                }
            ),
        )
        assert status == 200
        assert doc["mode"] == "CB"
        assert {rec["tier"] for rec in doc["chosen"]} <= {
            "original",
            "c0.85x0.45",
        }

    def test_solve_fidelity_unknown_key_is_422(self, archive_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": archive_doc, "fidelity": {"nope": 1}}),
        )
        assert status == 422
        assert "unknown fidelity policy keys" in doc["error"]

    def test_solve_fidelity_bad_mode_is_422(self, archive_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": archive_doc, "fidelity": {"mode": "zz"}}),
        )
        assert status == 422

    def test_solve_rejects_top_level_budgets_with_fidelity(self, archive_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body(
                {
                    "instance": archive_doc,
                    "budgets": [1.0],
                    "fidelity": {},
                }
            ),
        )
        assert status == 422

    def test_solve_fidelity_budget_sweep(self, archive, archive_doc):
        total = float(archive.costs.sum())
        status, doc = handle_request(
            "POST",
            "/solve",
            _body(
                {
                    "instance": archive_doc,
                    "fidelity": {"budgets": [total * 0.1, total * 0.3]},
                }
            ),
        )
        assert status == 200
        assert doc["algorithm"] == "fidelity-frontier"
        assert len(doc["points"]) == 2


class TestScoreEndpoint:
    def test_score_chosen_assignment(self, archive, archive_doc):
        run = fidelity_main(archive, VariantCatalog.default(archive.costs))
        catalog = VariantCatalog.default(archive.costs)
        records = [
            {"photo": int(p), "variant": int(v - catalog.indptr[p])}
            for p, v in run.chosen.items()
        ]
        status, doc = handle_request(
            "POST",
            "/score",
            _body({"instance": archive_doc, "fidelity": {"chosen": records}}),
        )
        assert status == 200
        assert doc["value"] == pytest.approx(run.value)
        assert doc["feasible"] is True
        assert doc["quality"]["kept"] == len(records)

    def test_score_without_selection_or_fidelity_is_422(self, archive_doc):
        status, doc = handle_request(
            "POST", "/score", _body({"instance": archive_doc})
        )
        assert status == 422
        assert "selection" in doc["error"]

    def test_score_duplicate_photo_is_422(self, archive_doc):
        status, doc = handle_request(
            "POST",
            "/score",
            _body(
                {
                    "instance": archive_doc,
                    "fidelity": {
                        "chosen": [
                            {"photo": 0, "variant": 0},
                            {"photo": 0, "variant": 1},
                        ]
                    },
                }
            ),
        )
        assert status == 422
        assert "at most one variant" in doc["error"]

    def test_score_bad_slot_is_422(self, archive_doc):
        status, doc = handle_request(
            "POST",
            "/score",
            _body(
                {
                    "instance": archive_doc,
                    "fidelity": {"chosen": [{"photo": 0, "variant": 9}]},
                }
            ),
        )
        assert status == 422
        assert "slot 9 does not exist" in doc["error"]


class TestFrontierEndpoint:
    def test_frontier_route(self, archive, archive_doc):
        total = float(archive.costs.sum())
        status, doc = handle_request(
            "POST",
            "/fidelity/frontier",
            _body({"instance": archive_doc, "budgets": [total * 0.1, total * 0.25]}),
        )
        assert status == 200
        assert doc["algorithm"] == "fidelity-frontier"
        assert len(doc["points"]) == 2
        assert "weakly_dominates_all" in doc["checks"]

    def test_frontier_needs_budgets(self, archive_doc):
        status, doc = handle_request(
            "POST", "/fidelity/frontier", _body({"instance": archive_doc})
        )
        assert status == 422
        assert "budgets" in doc["error"]

    def test_frontier_wrong_method_is_405(self):
        status, doc = handle_request("GET", "/fidelity/frontier", None)
        assert status == 405
        assert doc["allow"] == ["POST"]


class TestJobs:
    def test_fidelity_job_round_trip(self, archive, archive_doc):
        with JobManager(workers=1, queue_depth=4) as manager:
            status, payload = handle_request(
                "POST",
                "/jobs",
                _body({"instance": archive_doc, "fidelity": {}}),
                ServiceContext(jobs=manager),
            )
            assert status == 202
            final = manager.wait(payload["job_id"], timeout=60)
        assert final["state"] == "SUCCEEDED"
        doc = final["result"]
        assert doc["algorithm"] == "fidelity"
        local = execute_fidelity_payload({}, instance=archive)
        assert doc["value"] == pytest.approx(local["value"])
        assert doc["chosen"] == local["chosen"]

    def test_malformed_fidelity_job_fails_validation(self, archive_doc):
        with JobManager(workers=1, queue_depth=4) as manager:
            status, payload = handle_request(
                "POST",
                "/jobs",
                _body({"instance": archive_doc, "fidelity": "nope"}),
                ServiceContext(jobs=manager),
            )
        assert status == 422


class TestCli:
    def test_fidelity_single_solve(self, capsys):
        code = main(
            [
                "fidelity",
                "--dataset",
                "P-1K",
                "--scale",
                "0.05",
                "--budget-fraction",
                "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "value" in out
        assert "mean fidelity" in out

    def test_fidelity_frontier_table(self, capsys):
        code = main(
            [
                "fidelity",
                "--dataset",
                "P-1K",
                "--scale",
                "0.05",
                "--budget-fractions",
                "0.1,0.3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier" in out
        assert "discard" in out

    def test_fidelity_bad_levels(self, capsys):
        code = main(
            [
                "fidelity",
                "--dataset",
                "P-1K",
                "--scale",
                "0.05",
                "--levels",
                "bogus",
            ]
        )
        assert code == 2


class TestObservability:
    def test_fidelity_metric_families_are_exported(self, archive):
        from repro.obs import probes
        from repro.obs.prom import render_registry

        instruments = probes.arm()
        try:
            catalog = VariantCatalog.default(archive.costs)
            fidelity_main(archive, catalog)
            execute_fidelity_payload(
                {"budgets": [archive.budget, archive.budget * 2]},
                instance=archive,
            )
            text = render_registry(instruments.registry)
        finally:
            probes.disarm()
        for family in (
            "phocus_fidelity_solves_total",
            "phocus_fidelity_solve_seconds",
            "phocus_fidelity_variants_selected_total",
            "phocus_fidelity_frontier_points_total",
        ):
            assert family in text

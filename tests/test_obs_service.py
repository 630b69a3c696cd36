"""Service-level observability tests: /metrics, /stats failures, access log."""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.serialize import instance_to_dict
from repro.obs import probes
from repro.obs.prom import CONTENT_TYPE
from repro.system.service import RAW_BODY, RAW_CONTENT_TYPE, PhocusService, ServiceContext, handle_request

from tests.conftest import random_instance
from tests.test_obs import check_exposition


# NOTE: no module-wide autouse disarm fixture here — a function-scoped
# disarm would run *after* the class-scoped service fixture below arms
# the probes, cutting the live service off from its own instruments.
# Each test class manages the process-global probe state explicitly.


class TestMetricsDispatch:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        probes.disarm()
        yield
        probes.disarm()

    def test_metrics_disabled_is_404(self):
        status, payload = handle_request("GET", "/metrics", None)
        assert status == 404
        assert "disabled" in payload["error"]

    def test_metrics_returns_raw_exposition(self):
        instruments = probes.arm()
        status, payload = handle_request(
            "GET", "/metrics", None, ServiceContext(instruments=instruments)
        )
        assert status == 200
        assert payload[RAW_CONTENT_TYPE] == CONTENT_TYPE
        check_exposition(payload[RAW_BODY])

    def test_post_metrics_is_405(self):
        status, payload = handle_request("POST", "/metrics", None)
        assert status == 405
        assert payload["allow"] == ["GET"]


class TestMetricsOverHttp:
    @pytest.fixture(scope="class")
    def service(self):
        probes.disarm()
        with PhocusService(workers=2) as svc:
            yield svc
        probes.disarm()

    def _get_raw(self, service, path):
        resp = urllib.request.urlopen(f"http://{service.address}{path}")
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()

    def test_scrape_after_job_has_all_layers(self, service):
        base = f"http://{service.address}"
        instance = random_instance(3)
        req = urllib.request.Request(
            f"{base}/jobs",
            data=json.dumps(
                {"instance": instance_to_dict(instance), "tenant": "obs-test"}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        job_id = json.loads(urllib.request.urlopen(req).read())["job_id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            doc = json.loads(
                urllib.request.urlopen(f"{base}/jobs/{job_id}").read()
            )
            if doc["state"] in ("SUCCEEDED", "FAILED", "CANCELLED"):
                break
            time.sleep(0.02)
        assert doc["state"] == "SUCCEEDED", doc

        status, content_type, body = self._get_raw(service, "/metrics")
        assert status == 200
        assert content_type == CONTENT_TYPE
        check_exposition(body)
        for series in (
            "phocus_solver_runs_total",
            "phocus_solver_gain_evaluations_total",
            "phocus_jobs_submitted_total",
            'phocus_jobs_completed_total{tenant="obs-test",state="SUCCEEDED"} 1',
            "phocus_jobs_queue_depth",
            "phocus_http_requests_total",
            "phocus_http_request_seconds_bucket",
        ):
            assert series in body, f"missing {series}"

    def test_stats_exposes_failure_counts(self, service):
        doc = json.loads(
            urllib.request.urlopen(f"http://{service.address}/stats").read()
        )
        assert doc["failures"] == {
            "by_kind": {},
            "retries": 0,
            "timeouts": 0,
            "rejected": 0,
        }

    def test_http_route_label_not_raw_path(self, service):
        # the earlier job polling used /jobs/<real id>; the label must be
        # the pattern, never the id
        _, _, body = self._get_raw(service, "/metrics")
        assert 'route="/jobs/<id>"' in body
        for line in body.splitlines():
            if line.startswith("phocus_http_requests_total{") and '/jobs/' in line:
                assert 'route="/jobs/<id>"' in line, line


class TestMetricsDisabledService:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        probes.disarm()
        yield
        probes.disarm()

    def test_no_metrics_route_404s(self):
        with PhocusService(workers=0, metrics=False) as svc:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"http://{svc.address}/metrics")
            assert exc_info.value.code == 404
        assert not probes.is_armed()  # metrics=False never arms


class TestJobFailureMetrics:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        probes.disarm()
        yield
        probes.disarm()

    def test_timeout_and_failure_kind_counted(self):
        with PhocusService(workers=1) as svc:
            base = f"http://{svc.address}"
            # Big enough that the solve cannot finish inside the timeout
            # machinery's first cancellation-poll window.
            instance = random_instance(5, n_photos=400, n_subsets=40)
            req = urllib.request.Request(
                f"{base}/jobs",
                data=json.dumps(
                    {
                        "instance": instance_to_dict(instance),
                        "tenant": "slow",
                        "timeout_seconds": 1e-9,
                        "max_attempts": 1,
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            job_id = json.loads(urllib.request.urlopen(req).read())["job_id"]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                doc = json.loads(
                    urllib.request.urlopen(f"{base}/jobs/{job_id}").read()
                )
                if doc["state"] in ("SUCCEEDED", "FAILED", "CANCELLED"):
                    break
                time.sleep(0.02)
            assert doc["state"] == "FAILED"
            assert doc["error_kind"] == "timeout"

            stats = json.loads(urllib.request.urlopen(f"{base}/stats").read())
            assert stats["failures"]["timeouts"] == 1
            assert stats["failures"]["by_kind"] == {"timeout": 1}

            body = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert 'phocus_jobs_failures_total{kind="timeout"} 1' in body
            assert (
                'phocus_jobs_completed_total{tenant="slow",state="FAILED"} 1'
                in body
            )


class TestAccessLog:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        probes.disarm()
        yield
        probes.disarm()

    def test_structured_line_per_request(self):
        stream = io.StringIO()
        with PhocusService(workers=0, access_log=True) as svc:
            # swap the default stderr stream for an inspectable one
            svc._server.access_log._stream = stream
            urllib.request.urlopen(f"http://{svc.address}/health").read()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["method"] == "GET"
        assert entry["path"] == "/health"
        assert entry["status"] == 200
        assert entry["duration_ms"] >= 0
        assert "ts" in entry

    def test_off_by_default(self):
        with PhocusService(workers=0) as svc:
            assert svc._server.access_log is None
            urllib.request.urlopen(f"http://{svc.address}/health").read()

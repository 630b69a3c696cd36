"""Tests for the job endpoints of the HTTP service, and the `phocus jobs` CLI."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.serialize import instance_to_dict
from repro.core.solver import solve
from repro.jobs import JobManager
from repro.system.cli import main
from repro.system.service import PhocusService, ServiceContext, handle_request

from tests.conftest import random_instance


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture
def manager():
    with JobManager(workers=2, queue_depth=8) as m:
        yield m


@pytest.fixture
def parked_manager():
    """A manager that accepts jobs but never executes them."""
    with JobManager(workers=0, queue_depth=2, autostart=False) as m:
        yield m


class TestMethodNotAllowed:
    @pytest.mark.parametrize(
        "method,path,allow",
        [
            ("GET", "/solve", ["POST"]),
            ("GET", "/score", ["POST"]),
            ("POST", "/health", ["GET"]),
            ("POST", "/algorithms", ["GET"]),
            ("DELETE", "/jobs", ["GET", "POST"]),
            ("POST", "/jobs/abc", ["DELETE", "GET"]),
            ("POST", "/stats", ["GET"]),
        ],
    )
    def test_wrong_method_is_405_with_allow(self, method, path, allow):
        status, payload = handle_request(method, path, None)
        assert status == 405
        assert payload["allow"] == allow
        assert "error" in payload

    def test_unknown_path_is_still_404(self):
        status, payload = handle_request("GET", "/nope", None)
        assert status == 404


class TestJobsDispatcher:
    def test_jobs_routes_without_manager_are_503(self):
        assert handle_request("POST", "/jobs", _body({}))[0] == 503
        assert handle_request("GET", "/jobs", None)[0] == 503
        assert handle_request("GET", "/stats", None)[0] == 503

    def test_submit_and_poll_round_trip(self, manager, figure1):
        status, payload = handle_request(
            "POST",
            "/jobs",
            _body({"instance": instance_to_dict(figure1)}),
            ServiceContext(jobs=manager),
        )
        assert status == 202
        job_id = payload["job_id"]
        assert payload["state"] == "QUEUED"

        final = manager.wait(job_id, timeout=30)
        assert final["state"] == "SUCCEEDED"
        status, doc = handle_request(
            "GET", f"/jobs/{job_id}", None, ServiceContext(jobs=manager)
        )
        assert status == 200
        local = solve(figure1, "phocus")
        assert doc["result"]["selection"] == local.selection
        assert doc["result"]["value"] == pytest.approx(local.value)

    def test_submit_requires_instance(self, manager):
        status, payload = handle_request(
            "POST", "/jobs", _body({}), ServiceContext(jobs=manager)
        )
        assert status == 422
        assert "instance" in payload["error"]

    def test_submit_malformed_parameters_are_422(self, manager, figure1):
        status, payload = handle_request(
            "POST",
            "/jobs",
            _body({"instance": instance_to_dict(figure1), "tau": "lots"}),
            ServiceContext(jobs=manager),
        )
        assert status == 422

    def test_unknown_job_is_404(self, manager):
        assert handle_request(
            "GET", "/jobs/missing", None, ServiceContext(jobs=manager)
        )[0] == 404
        assert handle_request(
            "DELETE", "/jobs/missing", None, ServiceContext(jobs=manager)
        )[0] == 404

    def test_queue_full_is_429_with_depth(self, parked_manager, figure1):
        body = _body({"instance": instance_to_dict(figure1)})
        assert handle_request(
            "POST", "/jobs", body, ServiceContext(jobs=parked_manager)
        )[0] == 202
        assert handle_request(
            "POST", "/jobs", body, ServiceContext(jobs=parked_manager)
        )[0] == 202
        status, payload = handle_request(
            "POST", "/jobs", body, ServiceContext(jobs=parked_manager)
        )
        assert status == 429
        assert payload["queue_depth"] == 2
        assert payload["queue_limit"] == 2
        assert "error" in payload

    def test_cancel_queued_job(self, parked_manager, figure1):
        _, payload = handle_request(
            "POST",
            "/jobs",
            _body({"instance": instance_to_dict(figure1)}),
            ServiceContext(jobs=parked_manager),
        )
        job_id = payload["job_id"]
        status, doc = handle_request(
            "DELETE", f"/jobs/{job_id}", None, ServiceContext(jobs=parked_manager)
        )
        assert status == 200
        assert doc["cancelled"] is True
        assert doc["state"] == "CANCELLED"

    def test_list_filters(self, parked_manager, figure1):
        body = _body({"instance": instance_to_dict(figure1), "tenant": "alice"})
        handle_request("POST", "/jobs", body, ServiceContext(jobs=parked_manager))
        status, doc = handle_request(
            "GET", "/jobs?tenant=alice", None, ServiceContext(jobs=parked_manager)
        )
        assert status == 200
        assert len(doc["jobs"]) == 1
        status, doc = handle_request(
            "GET", "/jobs?tenant=bob", None, ServiceContext(jobs=parked_manager)
        )
        assert doc["jobs"] == []
        status, doc = handle_request(
            "GET", "/jobs?state=QUEUED", None, ServiceContext(jobs=parked_manager)
        )
        assert len(doc["jobs"]) == 1
        status, doc = handle_request(
            "GET", "/jobs?state=bogus", None, ServiceContext(jobs=parked_manager)
        )
        assert status == 400

    def test_stats_shape(self, manager):
        status, doc = handle_request("GET", "/stats", None, ServiceContext(jobs=manager))
        assert status == 200
        # "failures" appears only while observability probes are armed
        # (tests/test_obs_service.py covers it).
        assert set(doc) - {"failures"} == {
            "queue", "jobs", "workers", "solve_latency_seconds", "draining"
        }
        assert doc["draining"] is False
        assert doc["queue"]["oldest_wait_seconds"] == 0.0
        assert doc["workers"]["total"] == 2


class TestLiveJobsServer:
    @pytest.fixture(scope="class")
    def service(self):
        with PhocusService(workers=2) as svc:
            yield svc

    def _request(self, service, method, path, payload=None):
        req = urllib.request.Request(
            f"http://{service.address}{path}",
            data=_body(payload) if payload is not None else None,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_async_job_matches_sync_solve(self, service, figure1):
        doc = instance_to_dict(figure1)
        status, submitted = self._request(service, "POST", "/jobs", {"instance": doc})
        assert status == 202
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 30
        while True:
            status, job = self._request(service, "GET", f"/jobs/{job_id}")
            if job["state"] in ("SUCCEEDED", "FAILED", "CANCELLED"):
                break
            assert time.monotonic() < deadline, "job did not finish in time"
            time.sleep(0.02)
        assert job["state"] == "SUCCEEDED"
        _, sync = self._request(service, "POST", "/solve", {"instance": doc})
        assert job["result"]["selection"] == sync["selection"]
        assert job["result"]["value"] == pytest.approx(sync["value"])

    def test_405_sets_allow_header(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{service.address}/solve")
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"
        assert json.loads(excinfo.value.read())["allow"] == ["POST"]

    def test_stats_over_http(self, service):
        status, doc = self._request(service, "GET", "/stats")
        assert status == 200
        assert doc["workers"]["total"] == 2


class TestJobsCli:
    def test_submit_wait_status_result_cancel(self, tmp_path, capsys, figure1):
        instance_file = tmp_path / "instance.json"
        instance_file.write_text(json.dumps(instance_to_dict(figure1)))
        with PhocusService(workers=2) as svc:
            base = f"http://{svc.address}"
            rc = main(
                [
                    "jobs", "--server", base, "submit",
                    "--instance-file", str(instance_file),
                    "--tenant", "cli-tenant", "--wait", "--poll-interval", "0.02",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "submitted job" in out
            assert "SUCCEEDED" in out
            job_id = out.split("submitted job ")[1].split()[0]

            assert main(["jobs", "--server", base, "status", "--id", job_id]) == 0
            assert json.loads(capsys.readouterr().out)["state"] == "SUCCEEDED"

            assert main(["jobs", "--server", base, "result", "--id", job_id]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["selection"] == solve(figure1, "phocus").selection

            assert main(["jobs", "--server", base, "list", "--tenant", "cli-tenant"]) == 0
            assert job_id in capsys.readouterr().out

            assert main(["jobs", "--server", base, "cancel", "--id", job_id]) == 0
            assert "not cancellable" in capsys.readouterr().out

            assert main(["jobs", "--server", base, "stats"]) == 0
            assert json.loads(capsys.readouterr().out)["jobs"]["SUCCEEDED"] >= 1

    def test_result_of_unknown_job_fails(self, capsys):
        with PhocusService(workers=0) as svc:
            rc = main(
                ["jobs", "--server", f"http://{svc.address}", "result", "--id", "nope"]
            )
        assert rc == 1
        assert "error" in capsys.readouterr().err

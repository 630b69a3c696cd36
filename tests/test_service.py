"""Tests for the HTTP solver service (dispatcher + live server)."""

from __future__ import annotations

import json
import socket
import urllib.request

import numpy as np
import pytest

from repro.core.serialize import instance_to_dict
from repro.core.solver import solve
from repro.obs import probes
from repro.system.service import PhocusService, handle_request

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class TestDispatcher:
    def test_health(self):
        status, payload = handle_request("GET", "/health", None)
        assert status == 200
        assert payload["status"] == "ok"

    def test_algorithms(self):
        status, payload = handle_request("GET", "/algorithms", None)
        assert status == 200
        assert "phocus" in payload["algorithms"]

    def test_unknown_route(self):
        status, payload = handle_request("GET", "/nope", None)
        assert status == 404
        assert "error" in payload

    def test_solve_round_trip(self, figure1):
        status, payload = handle_request(
            "POST", "/solve",
            _body({"instance": instance_to_dict(figure1), "certificate": True}),
        )
        assert status == 200
        local = solve(figure1, "phocus", certificate=True)
        assert payload["selection"] == local.selection
        assert payload["value"] == pytest.approx(local.value)
        assert payload["ratio_certificate"] == pytest.approx(local.ratio_certificate)
        assert payload["sparsify"] is None

    def test_solve_with_sparsification(self, small_instance):
        status, payload = handle_request(
            "POST", "/solve",
            _body({"instance": instance_to_dict(small_instance), "tau": 0.5, "seed": 1}),
        )
        assert status == 200
        assert payload["sparsify"]["tau"] == 0.5
        assert payload["sparsify"]["kept_fraction"] <= 1.0
        # Values are reported on the TRUE objective.
        assert payload["value"] == pytest.approx(
            reference_score(small_instance, payload["selection"])
        )

    def test_solve_with_algorithm_choice(self, figure1):
        status, payload = handle_request(
            "POST", "/solve",
            _body({"instance": instance_to_dict(figure1), "algorithm": "greedy-nr"}),
        )
        assert status == 200
        assert payload["algorithm"] == "greedy-nr"

    def test_score_endpoint(self, figure1):
        status, payload = handle_request(
            "POST", "/score",
            _body({"instance": instance_to_dict(figure1), "selection": [0, 5]}),
        )
        assert status == 200
        assert payload["value"] == pytest.approx(
            solve(figure1, "phocus").value, rel=1.0
        )  # sanity: a float came back
        assert payload["feasible"] is True
        assert set(payload["breakdown"]) == {"Bikes", "Cats", "Bookshelf", "Books"}

    def test_empty_body(self):
        status, payload = handle_request("POST", "/solve", b"")
        assert status == 400

    def test_invalid_json(self):
        status, payload = handle_request("POST", "/solve", b"{broken")
        assert status == 400

    def test_non_object_body(self):
        status, payload = handle_request("POST", "/solve", b"[1,2]")
        assert status == 400

    def test_missing_instance(self):
        status, payload = handle_request("POST", "/solve", _body({"algorithm": "phocus"}))
        assert status == 422

    def test_validation_errors_are_422(self, figure1):
        doc = instance_to_dict(figure1)
        doc["budget"] = -1.0
        status, payload = handle_request("POST", "/solve", _body({"instance": doc}))
        assert status == 422
        assert "error" in payload

    def test_unknown_algorithm_is_422(self, figure1):
        status, payload = handle_request(
            "POST", "/solve",
            _body({"instance": instance_to_dict(figure1), "algorithm": "magic"}),
        )
        assert status == 422


class TestLiveServer:
    @pytest.fixture(scope="class")
    def service(self):
        with PhocusService() as svc:
            yield svc

    def _get(self, service, path):
        with urllib.request.urlopen(f"http://{service.address}{path}") as resp:
            return resp.status, json.loads(resp.read())

    def _post(self, service, path, payload):
        req = urllib.request.Request(
            f"http://{service.address}{path}",
            data=_body(payload),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_health_over_http(self, service):
        status, payload = self._get(service, "/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_solve_over_http(self, service, figure1):
        status, payload = self._post(
            service, "/solve", {"instance": instance_to_dict(figure1)}
        )
        assert status == 200
        assert payload["selection"] == [0, 1, 4, 5]
        assert payload["value"] == pytest.approx(13.46)

    def test_concurrent_requests(self, service):
        import concurrent.futures

        instances = [random_instance(seed=s) for s in range(4)]

        def call(inst):
            return self._post(service, "/solve", {"instance": instance_to_dict(inst)})

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            results = list(pool.map(call, instances))
        for (status, payload), inst in zip(results, instances):
            assert status == 200
            assert payload["value"] == pytest.approx(solve(inst, "phocus").value)

    def test_error_status_over_http(self, service):
        req = urllib.request.Request(
            f"http://{service.address}/solve",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 422

    def test_stop_is_idempotent(self):
        svc = PhocusService().start()
        svc.stop()
        svc.stop()


class TestRequestFraming:
    """A body the transport cannot read is answered, not dropped or hung."""

    @pytest.fixture
    def service(self):
        probes.disarm()
        try:
            with PhocusService(workers=0) as svc:
                yield svc
        finally:
            probes.disarm()

    @staticmethod
    def _raw_post(service, content_length: str) -> bytes:
        host, port = service.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                (
                    "POST /solve HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {content_length}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
            )
            answer = b""
            while True:  # the server closes after one answer (HTTP/1.0)
                chunk = sock.recv(65536)
                if not chunk:
                    return answer
                answer += chunk

    @pytest.mark.parametrize(
        "content_length,status",
        [("-1", 400), ("abc", 400), ("1e3", 400), (str(64 * 1024 * 1024 + 1), 413)],
    )
    def test_bad_content_length_is_answered_and_counted(
        self, service, content_length, status
    ):
        answer = self._raw_post(service, content_length)
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        assert "error" in json.loads(body)
        line = (
            'phocus_http_requests_total{method="POST",route="/solve",'
            f'status="{status}"}} 1'
        )
        # One scrape: a request is counted before its answer is written.
        url = f"http://{service.address}/metrics"
        text = urllib.request.urlopen(url).read().decode()
        assert line in text

"""Properties of the service's one route table (``repro.system.service.ROUTES``).

404, 405 with its ``allow`` list, the metrics ``route`` label and the
absent-collaborator answers all derive from the table; these tests walk
every pattern and method rather than a hand-picked sample.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.jobs import JobManager
from repro.live import LiveManager
from repro.obs import probes
from repro.system.service import (
    ROUTES,
    PhocusService,
    ServiceContext,
    handle_request,
    route_label,
    served_routes,
)
from repro.tenants import Tenants

METHODS = ("DELETE", "GET", "POST", "PUT")
PATTERNS = sorted({pattern for _, pattern, _, _ in ROUTES})


def _allowed(pattern: str):
    return sorted(method for method, p, _, _ in ROUTES if p == pattern)


def _concrete(pattern: str) -> str:
    return pattern.replace("<id>", "acme").replace("<iid>", "p")


WRONG_METHODS = [
    (method, pattern)
    for pattern in PATTERNS
    for method in METHODS
    if method not in _allowed(pattern)
]


def test_each_pattern_and_method_is_declared_once():
    keys = [(method, pattern) for method, pattern, _, _ in ROUTES]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("method,pattern", WRONG_METHODS)
def test_a_method_outside_the_patterns_set_is_405_with_the_tables_allow(method, pattern):
    status, payload = handle_request(method, _concrete(pattern), b"{}")
    assert status == 405, payload
    assert payload["allow"] == _allowed(pattern)
    assert "error" in payload


@pytest.mark.parametrize(
    "path",
    ["/", "/nope", "/jobs/a/b", "/tenants/acme", "/tenants/acme/instances/p/extra", "//["],
)
def test_a_path_outside_the_table_is_404(path):
    for method in METHODS:
        status, payload = handle_request(method, path, b"{}")
        assert status == 404, (method, payload)


#: One wrong method per route family, checked over HTTP for the header.
FAMILY_PROBES = [
    ("POST", "/health"),
    ("GET", "/solve"),
    ("DELETE", "/jobs"),
    ("POST", "/jobs/<id>"),
    ("DELETE", "/metrics"),
    ("POST", "/tenants/<id>/instances/<iid>"),
    ("PUT", "/tenants/<id>/instances/<iid>/live"),
]


def test_the_allow_header_matches_the_table_over_http(tmp_path):
    with PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path)) as svc:
        for method, pattern in FAMILY_PROBES:
            request = urllib.request.Request(
                f"http://{svc.address}{_concrete(pattern)}",
                data=b"{}" if method in ("POST", "PUT") else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 405
            assert excinfo.value.headers["Allow"] == ", ".join(_allowed(pattern))
            assert json.loads(excinfo.value.read())["allow"] == _allowed(pattern)


# ------------------------------------------------------------ route labels


@pytest.mark.parametrize("pattern", PATTERNS)
def test_route_label_of_a_concrete_path_is_its_pattern(pattern):
    path = _concrete(pattern)
    assert route_label(path) == pattern
    assert route_label(path + "/") == pattern
    assert route_label(path + "?state=QUEUED") == pattern


@pytest.mark.parametrize(
    "path",
    [
        "/etc/passwd",
        "/",
        "/jobs/a/b",
        "/tenants/acme",
        "/tenants/acme/instances/p/extra",
        "/fidelity/unknown",
        "//[",
    ],
)
def test_route_label_of_an_unknown_path_is_other(path):
    assert route_label(path) == "<other>"


def test_route_label_bounds_cardinality():
    assert route_label("/health") == "/health"
    assert route_label("/jobs/abc123") == "/jobs/<id>"
    assert route_label("/jobs/") == "/jobs"
    assert route_label("/etc/passwd") == "<other>"
    assert route_label("/metrics/") == "/metrics"


def test_fidelity_frontier_keeps_a_bounded_label():
    assert route_label("/fidelity/frontier") == "/fidelity/frontier"
    assert route_label("/fidelity/unknown") == "<other>"


def test_live_uploads_are_counted_under_their_own_label(tmp_path):
    probes.disarm()
    try:
        with PhocusService(workers=0, tenants_root=str(tmp_path)) as svc:
            request = urllib.request.Request(
                f"http://{svc.address}/tenants/a/instances/b/photos",
                data=b'{"costs": [1.0], "embeddings": [[1.0, 0.0]]}',
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)  # no live archive "b" yet
            line = (
                'phocus_http_requests_total{method="POST",'
                'route="/tenants/<id>/instances/<iid>/photos",'
                f'status="{excinfo.value.code}"}} 1'
            )
            # One scrape: a request is counted before its answer is written.
            url = f"http://{svc.address}/metrics"
            text = urllib.request.urlopen(url).read().decode()
    finally:
        probes.disarm()
    assert line in text
    assert 'route="/tenants/<id>/instances/<iid>",' not in text


# ------------------------------------------------ absent collaborators


@pytest.mark.parametrize(
    "method,pattern,needs",
    [(method, pattern, needs) for method, pattern, _, needs in ROUTES if needs],
)
def test_a_route_without_its_collaborator_answers_the_absent_answer(method, pattern, needs):
    status, payload = handle_request(method, _concrete(pattern), b"{}")
    expected = {
        "instruments": (404, "metrics are disabled on this service"),
        "jobs": (503, "job manager not running on this service"),
        # A live route without a tenant store answers the store's message.
        "tenants": (503, "no tenant store configured on this service"),
        "live": (503, "no tenant store configured on this service"),
    }[needs]
    assert (status, payload) == (expected[0], {"error": expected[1]})


def test_a_live_route_with_tenants_but_no_live_manager_is_503(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        status, payload = handle_request(
            "GET", "/tenants/acme/instances/p/live", None, ServiceContext(tenants=tenants)
        )
    finally:
        tenants.close()
    assert (status, payload) == (
        503, {"error": "live curation is not enabled on this service"}
    )


def test_served_routes_follow_the_context(tmp_path):
    every = [(method, pattern) for method, pattern, _, _ in ROUTES]
    assert served_routes(ServiceContext()) == [
        (m, p) for m, p, _, needs in ROUTES if needs is None
    ]
    with JobManager(workers=0, autostart=False) as jobs:
        tenants = Tenants(str(tmp_path), sweep=False)
        try:
            full = ServiceContext(
                jobs=jobs,
                instruments=probes.Instruments(),
                tenants=tenants,
                live=LiveManager(tenants),
            )
            assert served_routes(full) == every
        finally:
            tenants.close()

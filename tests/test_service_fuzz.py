"""Fuzzing the service dispatcher: malformed input must never crash it.

The service boundary promises: bad requests yield 4xx with an ``error``
field; only genuine internal faults may yield 500.  Hypothesis throws
arbitrary JSON documents and byte strings at every endpoint and checks
the contract — a 500 on user-supplied input is a bug.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import JobManager
from repro.live import LiveManager
from repro.scale import synthetic_archive
from repro.system.service import _ALLOWED_METHODS, handle_request
from repro.tenants import Tenants

from tests.conftest import (
    MALFORMED_CSR,
    MALFORMED_IDS,
    NON_FINITE,
    csr_instance_doc,
    non_finite_doc,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(doc=json_values)
def test_solve_never_500s_on_arbitrary_json(doc):
    body = json.dumps(doc).encode("utf-8")
    status, payload = handle_request("POST", "/solve", body)
    assert status in (200, 400, 422), f"unexpected status {status}: {payload}"
    if status != 200:
        assert "error" in payload


@settings(max_examples=80, deadline=None)
@given(doc=json_values)
def test_score_never_500s_on_arbitrary_json(doc):
    body = json.dumps(doc).encode("utf-8")
    status, payload = handle_request("POST", "/score", body)
    assert status in (200, 400, 422), f"unexpected status {status}: {payload}"


@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=200))
def test_raw_bytes_never_500(raw):
    status, payload = handle_request("POST", "/solve", raw)
    assert status in (200, 400, 422)


@settings(max_examples=40, deadline=None)
@given(path=st.text(max_size=30), method=st.sampled_from(["GET", "POST", "PUT"]))
def test_unknown_routes_are_404(path, method):
    if (method, "/" + path) in (
        ("GET", "/health"), ("GET", "/algorithms"),
        ("POST", "/solve"), ("POST", "/score"),
    ):
        return
    status, _ = handle_request(method, "/" + path, b"{}")
    assert status == 404


@settings(max_examples=40, deadline=None)
@given(doc=json_values)
def test_instance_field_fuzzing(doc):
    """A structurally plausible envelope with a fuzzed instance field."""
    body = json.dumps({"instance": doc, "algorithm": "phocus"}).encode("utf-8")
    status, payload = handle_request("POST", "/solve", body)
    assert status in (200, 400, 422)
    if status != 200:
        assert "error" in payload


# ------------------------------------------------- CSR-form similarities


@pytest.mark.parametrize("case", sorted(MALFORMED_CSR))
def test_malformed_csr_solve_is_422(case):
    body = json.dumps({"instance": csr_instance_doc(**MALFORMED_CSR[case])})
    status, payload = handle_request("POST", "/solve", body.encode("utf-8"))
    assert status == 422, payload
    assert "error" in payload


@pytest.mark.parametrize("case", sorted(MALFORMED_CSR))
def test_malformed_csr_put_is_422_and_stores_nothing(tmp_path, case):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        body = json.dumps({"instance": csr_instance_doc(**MALFORMED_CSR[case])})
        status, payload = handle_request(
            "PUT", "/tenants/acme/instances/p", body.encode("utf-8"),
            tenants=tenants,
        )
        assert status == 422, payload
        assert tenants.list_instances("acme") == []
    finally:
        tenants.close()


# ------------------------------------- non-integral ids, non-finite numbers

#: Each malformed document of the two tables, by a unique case id.
_MALFORMED_DOCS = {
    **{f"ids-{case}": (lambda c=case: csr_instance_doc(**MALFORMED_IDS[c])) for case in MALFORMED_IDS},
    **{f"non-finite-{case}": (lambda c=case: non_finite_doc(c)) for case in NON_FINITE},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCS))
def test_non_integral_or_non_finite_solve_is_422(case):
    body = json.dumps({"instance": _MALFORMED_DOCS[case]()})
    status, payload = handle_request("POST", "/solve", body.encode("utf-8"))
    assert status == 422, payload
    assert "error" in payload


@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCS))
def test_non_integral_or_non_finite_put_is_422_and_stores_nothing(tmp_path, case):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        body = json.dumps({"instance": _MALFORMED_DOCS[case]()})
        status, payload = handle_request(
            "PUT", "/tenants/acme/instances/p", body.encode("utf-8"),
            tenants=tenants,
        )
        assert status == 422, payload
        assert tenants.list_instances("acme") == []
    finally:
        tenants.close()


#: A non-finite number planted in one embedding row of a live upload.
_NON_FINITE_EMBEDDING = {"nan": float("nan"), "infinite": float("inf")}


def _live_body(costs, embeddings, **fields):
    doc = {"costs": costs.tolist(), "embeddings": embeddings.tolist(), **fields}
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("case", sorted(_NON_FINITE_EMBEDDING))
def test_non_finite_embedding_live_create_is_422_and_stores_nothing(tmp_path, case):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        costs, embeddings = synthetic_archive(40, dim=4, seed=1)
        embeddings[7, 2] = _NON_FINITE_EMBEDDING[case]
        body = _live_body(costs, embeddings, budget=float(costs.sum()) * 0.3, tau=0.6)
        status, payload = handle_request(
            "POST", "/tenants/acme/instances/a1/live", body,
            tenants=tenants, live=LiveManager(tenants),
        )
        assert status == 422, payload
        assert tenants.list_instances("acme") == []
    finally:
        tenants.close()


@pytest.mark.parametrize("case", sorted(_NON_FINITE_EMBEDDING))
def test_non_finite_embedding_upload_is_422_and_keeps_the_version(tmp_path, case):
    tenants = Tenants(str(tmp_path), sweep=False)
    live = LiveManager(tenants)
    try:
        costs, embeddings = synthetic_archive(44, dim=4, seed=1)
        body = _live_body(
            costs[:40], embeddings[:40], budget=float(costs.sum()) * 0.3, tau=0.6
        )
        status, payload = handle_request(
            "POST", "/tenants/acme/instances/a1/live", body,
            tenants=tenants, live=live,
        )
        assert status == 201, payload
        delta = embeddings[40:].copy()
        delta[1, 0] = _NON_FINITE_EMBEDDING[case]
        status, payload = handle_request(
            "POST", "/tenants/acme/instances/a1/photos",
            _live_body(costs[40:], delta), tenants=tenants, live=live,
        )
        assert status == 422, payload
        assert tenants.store.meta("acme", "a1").version == 1
    finally:
        tenants.close()


def test_valid_csr_instance_solves_inline():
    body = json.dumps({"instance": csr_instance_doc()}).encode("utf-8")
    status, payload = handle_request("POST", "/solve", body)
    assert status == 200 and payload["selection"]


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["size", "indptr", "indices", "values", "dtype"]),
    value=json_values,
)
def test_csr_field_fuzzing(field, value):
    body = json.dumps({"instance": csr_instance_doc(**{field: value})})
    status, payload = handle_request("POST", "/solve", body.encode("utf-8"))
    assert status in (200, 400, 422), f"unexpected status {status}: {payload}"


# ------------------------------------------ bodies json rejects otherwise

#: Bodies ``json.loads`` rejects with something other than a
#: JSONDecodeError: nesting past the recursion limit (RecursionError) and
#: an integer past ``int()``'s digit limit (ValueError).
UNPARSABLE_BODIES = {
    "nested-100000-deep": b"[" * 100000,
    "5000-digit-integer": b'{"instance": ' + b"9" * 5000 + b"}",
}

#: Every route that reads a body, from the dispatcher's own table.
BODY_ROUTES = sorted(
    (method, key.replace("<id>", "acme").replace("<iid>", "p"))
    for key, methods in _ALLOWED_METHODS.items()
    for method in methods
    if method in ("POST", "PUT")
)


@pytest.fixture(scope="module")
def collaborators(tmp_path_factory):
    tenants = Tenants(str(tmp_path_factory.mktemp("tenants")), sweep=False)
    jobs = JobManager(workers=0)
    try:
        yield {"jobs": jobs, "tenants": tenants, "live": LiveManager(tenants)}
    finally:
        jobs.shutdown()
        tenants.close()


@pytest.mark.parametrize("case", sorted(UNPARSABLE_BODIES))
@pytest.mark.parametrize("method,path", BODY_ROUTES)
def test_unparsable_body_is_400_on_every_body_route(collaborators, method, path, case):
    status, payload = handle_request(
        method, path, UNPARSABLE_BODIES[case], **collaborators
    )
    assert status == 400, payload
    assert payload["error"].startswith("invalid JSON: ")

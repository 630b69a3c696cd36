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

from repro.system.service import handle_request
from repro.tenants import Tenants

from tests.conftest import MALFORMED_CSR, csr_instance_doc

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

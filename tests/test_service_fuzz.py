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

from repro.core.paper_example import figure1_instance
from repro.core.serialize import instance_to_dict
from repro.jobs import JobManager
from repro.live import LiveManager
from repro.scale import synthetic_archive
from repro.system.service import ROUTES, ServiceContext, handle_request
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


_FIGURE1 = instance_to_dict(figure1_instance(4.0))


def _score(selection):
    body = json.dumps({"instance": _FIGURE1, "selection": selection})
    return handle_request("POST", "/score", body.encode("utf-8"))


#: Selections that answered 500 (out of range, fractional, int64 overflow,
#: not a number, nested), or 200 with a negative index's cost or a repeat
#: billed twice, before the route checked them.
BAD_SELECTIONS = [[99], [1.5], [1e30], ["a"], [None], [[1]], [-1], [0, 0, 1]]


@pytest.mark.parametrize("selection", BAD_SELECTIONS, ids=repr)
def test_malformed_score_selection_is_422_naming_it(selection):
    status, payload = _score(selection)
    assert status == 422, payload
    assert "'selection'" in payload["error"]


def test_integral_float_selection_ids_read_as_ints():
    assert _score([1.0, 4.0]) == _score([1, 4])
    assert _score([1, 4])[0] == 200


def _score_fidelity(chosen):
    body = json.dumps({"instance": _FIGURE1, "fidelity": {"chosen": chosen}})
    return handle_request("POST", "/score", body.encode("utf-8"))


#: ``chosen`` records that answered 200 with the value of ``{"photo": 1}``
#: (their ids truncated or parsed from a string) before the ids went
#: through the selection's rule.
BAD_CHOSEN = [
    ({"photo": 1.5}, "photo"),
    ({"photo": "1"}, "photo"),
    ({"photo": 1, "variant": 0.9}, "variant"),
]


@pytest.mark.parametrize("record,field", BAD_CHOSEN, ids=repr)
def test_malformed_fidelity_chosen_id_is_422_naming_it(record, field):
    status, payload = _score_fidelity([record])
    assert status == 422, payload
    assert repr(field) in payload["error"]


def test_integral_float_chosen_photo_reads_as_an_int():
    assert _score_fidelity([{"photo": 1.0}]) == _score_fidelity([{"photo": 1}])
    assert _score_fidelity([{"photo": 1}])[0] == 200


@settings(max_examples=80, deadline=None)
@given(
    selection=json_values
    | st.lists(st.integers(-2, 8) | st.floats(-2, 8) | json_values, max_size=8)
)
def test_score_never_500s_on_an_arbitrary_selection(selection):
    status, payload = _score(selection)
    assert status in (200, 422), f"unexpected status {status}: {payload}"


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
            "PUT",
            "/tenants/acme/instances/p",
            body.encode("utf-8"),
            ServiceContext(tenants=tenants),
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
            "PUT",
            "/tenants/acme/instances/p",
            body.encode("utf-8"),
            ServiceContext(tenants=tenants),
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
            "POST",
            "/tenants/acme/instances/a1/live",
            body,
            ServiceContext(tenants=tenants, live=LiveManager(tenants)),
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
            "POST",
            "/tenants/acme/instances/a1/live",
            body,
            ServiceContext(tenants=tenants, live=live),
        )
        assert status == 201, payload
        delta = embeddings[40:].copy()
        delta[1, 0] = _NON_FINITE_EMBEDDING[case]
        status, payload = handle_request(
            "POST",
            "/tenants/acme/instances/a1/photos",
            _live_body(costs[40:], delta),
            ServiceContext(tenants=tenants, live=live),
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
    (method, pattern.replace("<id>", "acme").replace("<iid>", "p"))
    for method, pattern, _, _ in ROUTES
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
        method, path, UNPARSABLE_BODIES[case], ServiceContext(**collaborators)
    )
    assert status == 400, payload
    assert payload["error"].startswith("invalid JSON: ")


# ------------------------------------------------ malformed option fields

#: ``(route, field, value)``: an option each body reader must answer 422
#: for, naming the field, instead of letting a TypeError, ValueError or
#: OverflowError through as a 500.
BAD_OPTIONS = [
    *(("live", "seed", v) for v in ("x", -1, 1.5)),
    *(("live", "retained", v) for v in (5, ["a"], [1.5])),
    *(("live", "n_bits", v) for v in ("foo", 12.5)),
    ("live", "target_recall", [1]),
    *(("solve", "budgets", v) for v in ("x", -1, 1.5, True, ["x"])),
    *(("solve", "tau", v) for v in ("x", [1])),
    *(("solve", "seed", v) for v in ("x", -1, 1.5)),
    *(("jobs", "seed", v) for v in ("x", -1, 1.5)),
    *(
        ("jobs", f, 1e400)  # parses as inf: int() raised OverflowError
        for f in ("priority", "max_attempts", "checkpoint_every", "parallel_workers")
    ),
    ("jobs", "max_attempts", 0),
    ("jobs", "priority", 1.5),
    ("jobs", "checkpoint_every", 2.7),
    ("jobs", "tau", ""),
    ("jobs", "timeout_seconds", "x"),
    ("jobs", "deadline_ms", "x"),
    # The inline routes read deadline_ms as every other number field:
    # "5" was a 5 ms deadline, true 1 ms, and "inf" no deadline at all.
    *(("solve", "deadline_ms", v) for v in ("5", True, "inf")),
    ("frontier", "deadline_ms", "5"),
    *(("by_ref", "budget", v) for v in ("x", [], {})),
    *(("frontier", "fidelity", v) for v in ("x", 5, [1])),
]


@pytest.fixture(scope="module")
def option_service(tmp_path_factory):
    tenants = Tenants(str(tmp_path_factory.mktemp("options")), sweep=False)
    jobs = JobManager(workers=0)
    try:
        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/p",
            json.dumps({"instance": csr_instance_doc()}).encode("utf-8"),
            ServiceContext(tenants=tenants),
        )
        assert status == 201, payload
        yield {"tenants": tenants, "live": LiveManager(tenants), "jobs": jobs}
    finally:
        jobs.shutdown()
        tenants.close()


def _option_request(route, field, value):
    """``(path, body)`` of a valid request to ``route`` with ``field`` set."""
    if route == "live":
        costs, embeddings = synthetic_archive(40, dim=4, seed=1)
        base = {
            "costs": costs.tolist(),
            "embeddings": embeddings.tolist(),
            "budget": float(costs.sum()) * 0.3,
            "tau": 0.6,
        }
        return "/tenants/acme/instances/a1/live", {**base, field: value}
    if route == "by_ref":
        by_ref = {"tenant": "acme", "instance_id": "p"}
        return "/solve", {"by_ref": by_ref, field: value}
    if route == "frontier":
        doc = {"instance": csr_instance_doc(), "budgets": [2.0], field: value}
        return "/fidelity/frontier", doc
    path = "/jobs" if route == "jobs" else "/solve"
    return path, {"instance": csr_instance_doc(), field: value}


@pytest.mark.parametrize(
    "route,field,value", BAD_OPTIONS, ids=[f"{r}-{f}-{v!r}" for r, f, v in BAD_OPTIONS]
)
def test_malformed_option_field_is_422_naming_it(option_service, route, field, value):
    path, doc = _option_request(route, field, value)
    status, payload = handle_request(
        "POST", path, json.dumps(doc).encode("utf-8"), ServiceContext(**option_service)
    )
    assert status == 422, payload
    assert repr(field) in payload["error"]
    stored = option_service["tenants"].list_instances("acme")
    assert [m.instance_id for m in stored] == ["p"]


DEADLINE = "X-Phocus-Deadline-Ms"


def test_job_deadline_header_beats_the_body(option_service):
    # The one rule of /solve, /score and /fidelity/frontier holds for
    # POST /jobs too: the header wins over the body's deadline_ms.
    context = ServiceContext(**option_service)
    path, doc = _option_request("jobs", "deadline_ms", 50000)
    status, payload = handle_request(
        "POST", path, json.dumps(doc).encode("utf-8"), context,
        headers={DEADLINE: "10"},
    )
    assert status == 202, payload
    status, job = handle_request("GET", f"/jobs/{payload['job_id']}", None, context)
    assert status == 200
    assert job["spec"]["deadline_ms"] == 10.0


@pytest.mark.parametrize("route", ["solve", "frontier", "jobs"])
def test_body_deadline_is_checked_even_when_the_header_is_set(option_service, route):
    path, doc = _option_request(route, "deadline_ms", "abc")
    status, payload = handle_request(
        "POST", path, json.dumps(doc).encode("utf-8"),
        ServiceContext(**option_service), headers={DEADLINE: "50000"},
    )
    assert status == 422, payload
    assert "'deadline_ms'" in payload["error"]


@pytest.mark.parametrize("route", ["solve", "frontier", "jobs"])
@pytest.mark.parametrize("header", ["inf", "nan", "-5", "0", "abc"])
def test_deadline_header_must_be_a_positive_finite_number(option_service, route, header):
    path, doc = _option_request(route, "tenant", "default")
    body = json.dumps(doc).encode("utf-8")
    context = ServiceContext(**option_service)
    status, payload = handle_request(
        "POST", path, body, context, headers={DEADLINE: header}
    )
    assert status == 422, payload
    assert DEADLINE in payload["error"]
    status, payload = handle_request(
        "POST", path, body, context, headers={DEADLINE: "50000"}
    )
    assert status in (200, 202), payload

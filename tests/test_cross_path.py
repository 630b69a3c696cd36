"""Every solve path gives the same answer for the same instance.

One instance, eight ways in: an inline ``POST /solve`` parsed by the
native scanner (ndarray leaves), the same request with the native
library unavailable (list leaves), ``PUT`` then a ``by_ref`` solve (the
warm cache's shared-memory view instance), ``POST /jobs`` and a wait, a
``/solve`` through a brownout policy that answers at full quality,
``PHOcus(...).run`` (what ``phocus solve`` runs), and an in-process
``solve`` of the instance as built (the ``PARInstance.from_photos`` path
``phocus solve`` takes for datasets).  Each is asked once plainly and once
with ``certificate: true``; selections, values and certificates must be
identical, not merely close, and ``/score`` of the selection must report
the same value.  A ``budgets`` sweep job on two worker processes must give,
per budget, the certified in-process solve at that budget.  A live
archive's cold re-solve must likewise equal an inline solve of the
document ``GET`` returns for it, and so must a ``by_ref`` solve of a live
archive whose latest uploads are still in the store's log.
"""

from __future__ import annotations

import json

import pytest

from repro.core import native
from repro.core.paper_example import figure1_instance
from repro.core.serialize import instance_to_dict, json_default
from repro.core.solver import solve
from repro.datasets.ecommerce import generate_ecommerce_dataset
from repro.datasets.public import generate_public_dataset
from repro.jobs import JobManager
from repro.live import LiveManager
from repro.resilience import BrownoutPolicy, Resilience
from repro.scale import synthetic_archive
from repro.sparsify.threshold import threshold_sparsify
from repro.system.phocus import PHOcus, PhocusConfig
from repro.system.service import ServiceContext, handle_request
from repro.tenants import Tenants

from tests.conftest import random_instance


def _fraction(dataset, share: float = 0.35):
    return dataset.instance(dataset.total_cost() * share)


#: Instance makers; the datasets build through PARInstance.from_photos.
INSTANCES = {
    "paper": lambda: figure1_instance(4.0),
    "paper-rows": lambda: threshold_sparsify(figure1_instance(4.0), 0.6)[0],
    "ecommerce": lambda: _fraction(
        generate_ecommerce_dataset("Fashion", 40, n_queries=6, seed=11)
    ),
    "public": lambda: _fraction(generate_public_dataset(80, 12, seed=4)),
    "random-retained": lambda: random_instance(seed=7, retained=2),
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tenants = Tenants(str(tmp_path_factory.mktemp("tenants")), sweep=False)
    jobs = JobManager(workers=1)
    try:
        yield {"tenants": tenants, "jobs": jobs, "live": LiveManager(tenants)}
    finally:
        jobs.shutdown()
        tenants.close()


def _answer(doc):
    return list(doc["selection"]), doc["value"], doc.get("ratio_certificate")


def _post(path, doc, **collaborators):
    body = json.dumps(doc, default=json_default).encode("utf-8")
    status, payload = handle_request("POST", path, body, ServiceContext(**collaborators))
    assert status in (200, 201, 202), payload
    return payload


def _inline(instance_doc, **fields):
    return _answer(_post("/solve", {"instance": instance_doc, **fields}))


def _put(service, name, doc):
    status, _ = handle_request(
        "PUT",
        f"/tenants/acme/instances/{name}",
        json.dumps({"instance": doc}).encode("utf-8"),
        ServiceContext(tenants=service["tenants"]),
    )
    assert status in (200, 201)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_path_gives_the_same_answer(service, monkeypatch, name):
    instance = INSTANCES[name]()
    doc = instance_to_dict(instance)
    for certificate in (False, True):
        fields = {"certificate": certificate}
        in_process = solve(instance, "phocus", certificate=certificate)
        want = _answer(vars(in_process))
        answers = {"inline-scanner": _inline(doc, **fields)}

        _put(service, name, doc)  # a new version: the first lease is cold
        by_ref = {"by_ref": {"tenant": "acme", "instance_id": name}, **fields}
        tenants = service["tenants"]
        answers["by-ref-cold"] = _answer(_post("/solve", by_ref, tenants=tenants))
        answers["by-ref-warm"] = _answer(_post("/solve", by_ref, tenants=tenants))

        submitted = _post("/jobs", {"instance": doc, **fields}, jobs=service["jobs"])
        finished = service["jobs"].wait(submitted["job_id"], timeout=60)
        assert finished["state"] == "SUCCEEDED", finished
        answers["job"] = _answer(service["jobs"].result(submitted["job_id"]))

        brownout = Resilience(brownout=BrownoutPolicy())
        full = _post(
            "/solve",
            {"instance": doc, "degraded_ok": True, **fields},
            resilience=brownout,
        )
        assert "degraded" not in full
        answers["brownout-full"] = _answer(full)

        report = PHOcus(PhocusConfig(certificate=certificate)).run(instance)
        answers["phocus-run"] = _answer(vars(report.solution))

        with monkeypatch.context() as patch:
            patch.setattr(native, "library", lambda: None)
            answers["inline-lists"] = _inline(doc, **fields)

        assert {path: got for path, got in answers.items() if got != want} == {}
        scored = _post("/score", {"instance": doc, "selection": want[0]})
        assert scored["value"] == want[1]


def test_a_parallel_sweep_member_equals_a_certified_solve_at_its_budget(service):
    instance = INSTANCES["public"]()
    budgets = [instance.budget * 0.5, instance.budget]
    submitted = _post(
        "/jobs",
        {
            "instance": instance_to_dict(instance),
            "budgets": budgets,
            "parallel_workers": 2,
            "certificate": True,
        },
        jobs=service["jobs"],
    )
    finished = service["jobs"].wait(submitted["job_id"], timeout=120)
    assert finished["state"] == "SUCCEEDED", finished
    members = service["jobs"].result(submitted["job_id"])["solutions"]
    assert len(members) == len(budgets)
    for budget, member in zip(budgets, members):
        want = solve(instance.with_budget(budget), "phocus", certificate=True)
        assert _answer(member) == _answer(vars(want))


def test_live_cold_resolve_equals_inline_solve_of_its_document(service):
    costs, embeddings = synthetic_archive(400, dim=8, seed=3)
    created = _post(
        "/tenants/acme/instances/live-archive/live",
        {
            "costs": costs.tolist(),
            "embeddings": embeddings.tolist(),
            "budget": float(costs.sum()) * 0.1,
            "tau": 0.7,
        },
        tenants=service["tenants"],
        live=service["live"],
    )
    status, envelope = handle_request(
        "GET",
        "/tenants/acme/instances/live-archive",
        None,
        ServiceContext(tenants=service["tenants"]),
    )
    assert status == 200
    cold = created["solution"]  # cold_resolve's answer, in pick order
    assert _inline(envelope["instance"]) == (
        sorted(cold["selection"]), cold["value"], None
    )


def test_live_by_ref_with_a_logged_upload_equals_inline_solve_of_get(service):
    costs, embeddings = synthetic_archive(330, dim=8, seed=5)
    base = "/tenants/acme/instances/live-logged"
    collaborators = {"tenants": service["tenants"], "live": service["live"]}
    _post(
        base + "/live",
        {
            "costs": costs[:300].tolist(),
            "embeddings": embeddings[:300].tolist(),
            "budget": float(costs[:300].sum()) * 0.1,
            "tau": 0.7,
        },
        **collaborators,
    )
    for lo in (300, 315):
        _post(
            base + "/photos",
            {
                "costs": costs[lo : lo + 15].tolist(),
                "embeddings": embeddings[lo : lo + 15].tolist(),
            },
            **collaborators,
        )
    meta = service["tenants"].store.meta("acme", "live-logged")
    assert meta.log_records == 2  # the last two versions live in the log
    status, envelope = handle_request(
        "GET", base, None, ServiceContext(tenants=service["tenants"])
    )
    assert status == 200 and envelope["version"] == meta.version
    by_ref = {"by_ref": {"tenant": "acme", "instance_id": "live-logged"}}
    # The fold appends both logged uploads onto the stored base at once, so
    # the leased instance reads their rows from its similarity's tail.
    with service["tenants"].lease_for_solve(by_ref["by_ref"]) as (leased, _):
        assert leased.incidence.tail is not None
        assert leased.subsets[0].similarity.parts()[1] is not None
    assert _answer(_post("/solve", by_ref, tenants=service["tenants"])) == _inline(
        envelope["instance"]
    )

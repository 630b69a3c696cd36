"""Service-level resilience tests: 503 shedding, 504 deadlines, 507 disk-full,
brownout labeling, readiness, and the ``Retry-After`` header."""

from __future__ import annotations

import errno
import json
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.core.serialize import instance_to_dict
from repro.faults.plan import FaultPlan
from repro.jobs import JobManager
from repro.resilience import (
    AdmissionController,
    BrownoutPolicy,
    Resilience,
)
from repro.system.service import PhocusService, ServiceContext, handle_request

from tests.conftest import random_instance


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture(autouse=True)
def always_disarmed():
    yield
    faults.disarm()


@pytest.fixture
def instance_doc():
    return instance_to_dict(random_instance(seed=0))


def _resilience(**kw) -> Resilience:
    kw.setdefault("admission", AdmissionController(2, retry_after_seconds=2.0))
    return Resilience(**kw)


class TestReadiness:
    def test_ready_without_bundle(self):
        status, doc = handle_request("GET", "/readyz", None)
        assert status == 200 and doc["status"] == "ready"

    def test_unready_while_draining(self):
        res = _resilience()
        res.drain.begin()
        status, doc = handle_request("GET", "/readyz", None, ServiceContext(resilience=res))
        assert status == 503
        assert doc["status"] == "unready" and doc["draining"] is True

    def test_unready_while_overloaded(self):
        res = Resilience(
            admission=AdmissionController(1, target_wait_seconds=1.0)
        )
        res.admission.observe_wait(10.0)
        status, doc = handle_request("GET", "/readyz", None, ServiceContext(resilience=res))
        assert status == 503 and doc["overloaded"] is True

    def test_healthz_stays_alive_during_drain(self):
        res = _resilience()
        res.drain.begin()
        status, doc = handle_request(
            "GET", "/healthz", None, ServiceContext(resilience=res)
        )
        assert status == 200  # liveness never gates on drain


class TestShedding:
    def test_solve_shed_at_capacity(self, instance_doc):
        res = _resilience()
        with res.admission.admit("x"), res.admission.admit("y"):
            status, doc = handle_request(
                "POST",
                "/solve",
                _body({"instance": instance_doc}),
                ServiceContext(resilience=res),
            )
        assert status == 503
        assert doc["reason"] == "capacity"
        assert doc["retry_after"] > 0

    def test_draining_sheds_posts_but_not_gets(self, instance_doc):
        res = _resilience()
        res.drain.begin()
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc}),
            ServiceContext(resilience=res),
        )
        assert status == 503 and doc["reason"] == "draining"
        status, _ = handle_request("GET", "/version", None, ServiceContext(resilience=res))
        assert status == 200

    def test_job_submission_shed_before_hard_bound(self, instance_doc):
        res = Resilience(
            admission=AdmissionController(2, shed_queue_fraction=0.5)
        )
        with JobManager(workers=0, queue_depth=4, autostart=False) as jobs:
            for _ in range(2):  # fill to the 0.5 watermark of 4
                handle_request(
                    "POST",
                    "/jobs",
                    _body({"instance": instance_doc}),
                    ServiceContext(jobs=jobs),
                )
            status, doc = handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc}),
                ServiceContext(jobs=jobs, resilience=res),
            )
        assert status == 503 and doc["reason"] == "queue_full_soon"

    def test_queue_full_429_carries_retry_after(self, instance_doc):
        with JobManager(workers=0, queue_depth=1, autostart=False) as jobs:
            handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc}),
                ServiceContext(jobs=jobs),
            )
            status, doc = handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc}),
                ServiceContext(jobs=jobs),
            )
        assert status == 429
        assert doc["retry_after"] > 0

    def test_deadline_unmeetable_shed(self, instance_doc):
        res = _resilience()
        for _ in range(3):
            res.admission.observe_service_time(5.0)
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "deadline_ms": 1.0}),
            ServiceContext(resilience=res),
        )
        assert status == 503 and doc["reason"] == "deadline_unmeetable"


class TestDeadline504:
    def test_expired_deadline_is_504_with_progress(self, instance_doc):
        faults.arm(FaultPlan().on("resilience.slow_solve", "drop", times=None))
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "deadline_ms": 5.0}),
        )
        assert status == 504
        assert doc["reason"] == "deadline"
        assert doc["progress"] is not None  # checkpoint travelled out

    def test_expired_fidelity_deadline_is_504_with_progress(self, instance_doc):
        # Multi-fidelity solves run the same driver, so their 504s carry
        # the same {"phase", "picks"} progress as plain ones.
        faults.arm(FaultPlan().on("resilience.slow_solve", "drop", times=None))
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "fidelity": {}, "deadline_ms": 5.0}),
        )
        assert status == 504
        assert doc["reason"] == "deadline"
        assert set(doc["progress"]) == {"phase", "picks"}

    def test_deadline_applies_without_bundle(self, instance_doc):
        # deadline_ms in the body works even on a service with no bundle.
        faults.arm(FaultPlan().on("resilience.slow_solve", "drop", times=None))
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "deadline_ms": 5.0}),
        )
        assert status == 504

    def test_generous_deadline_solves_normally(self, instance_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "deadline_ms": 600000}),
        )
        assert status == 200 and "degraded" not in doc

    def test_invalid_deadline_is_422(self, instance_doc):
        status, doc = handle_request(
            "POST",
            "/solve",
            _body({"instance": instance_doc, "deadline_ms": -5}),
        )
        assert status == 422

    def test_job_deadline_from_body(self, instance_doc):
        with JobManager(workers=0, queue_depth=4, autostart=False) as jobs:
            status, doc = handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc, "deadline_ms": 60000}),
                ServiceContext(jobs=jobs),
            )
            assert status == 202
            status, doc = handle_request(
                "GET", f"/jobs/{doc['job_id']}", None, ServiceContext(jobs=jobs)
            )
            assert doc["spec"]["deadline_ms"] == 60000


class TestStorageExhausted507:
    def test_journal_enospc_is_structured_507(self, tmp_path, instance_doc):
        faults.arm(
            FaultPlan().on(
                "journal.write",
                "raise",
                exc=lambda: OSError(errno.ENOSPC, "No space left on device"),
            )
        )
        with JobManager(
            workers=0, queue_depth=4, autostart=False,
            journal_path=str(tmp_path / "j.jsonl"),
        ) as jobs:
            status, doc = handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc}),
                ServiceContext(jobs=jobs),
            )
        assert status == 507
        assert doc["kind"] == "storage_exhausted"
        assert doc["errno"] == errno.ENOSPC

    def test_injected_non_enospc_faults_stay_500(self, tmp_path, instance_doc):
        faults.arm(
            FaultPlan().on("journal.write", "raise", exc=lambda: OSError("boom"))
        )
        with JobManager(
            workers=0, queue_depth=4, autostart=False,
            journal_path=str(tmp_path / "j.jsonl"),
        ) as jobs:
            status, doc = handle_request(
                "POST",
                "/jobs",
                _body({"instance": instance_doc}),
                ServiceContext(jobs=jobs),
            )
        assert status == 500  # no errno: not a disk-full signal


class TestBrownoutService:
    @pytest.fixture
    def stack(self, tmp_path, instance_doc):
        res = Resilience(
            admission=AdmissionController(2, target_wait_seconds=1.0),
            brownout=BrownoutPolicy(
                tau=0.3, degrade_at=0.0001, cache_at=0.9
            ),
        )
        svc = PhocusService(
            workers=0, tenants_root=str(tmp_path / "tenants"), resilience=res
        )
        handle_request(
            "PUT",
            "/tenants/acme/instances/i1",
            _body({"instance": instance_doc}),
            ServiceContext(tenants=svc.tenants),
        )
        yield svc, res
        svc.stop()
        svc.jobs.shutdown()
        svc.tenants.close()

    def _solve(self, svc, res, payload):
        return handle_request(
            "POST",
            "/solve",
            _body(payload),
            ServiceContext(tenants=svc.tenants, resilience=res),
        )

    def test_not_opted_in_never_degrades(self, stack):
        svc, res = stack
        res.admission.observe_wait(0.5)  # pressure > degrade_at
        status, doc = self._solve(
            svc, res, {"by_ref": {"tenant": "acme", "instance_id": "i1"}}
        )
        assert status == 200 and "degraded" not in doc

    def test_sparsified_tier_is_labeled(self, stack):
        svc, res = stack
        res.admission.observe_wait(0.5)
        status, doc = self._solve(
            svc,
            res,
            {"by_ref": {"tenant": "acme", "instance_id": "i1"}, "degraded_ok": True},
        )
        assert status == 200
        assert doc["degraded"]["mode"] == "sparsified"
        assert doc["degraded"]["tau"] == 0.3

    def test_cached_tier_replays_full_answer(self, stack):
        svc, res = stack
        ref = {"by_ref": {"tenant": "acme", "instance_id": "i1"}}
        status, full = self._solve(svc, res, dict(ref))  # full solve: cached
        assert status == 200 and "degraded" not in full
        res.admission.observe_wait(10.0)  # pressure >= cache_at
        status, doc = self._solve(svc, res, {**ref, "degraded_ok": True})
        assert status == 200
        assert doc["degraded"]["mode"] == "cached"
        assert doc["degraded"]["age_seconds"] >= 0
        assert doc["selection"] == full["selection"]
        assert doc["value"] == full["value"]

    def test_cache_miss_falls_back_to_sparsified(self, stack):
        svc, res = stack
        res.admission.observe_wait(10.0)  # straight to the cached tier
        status, doc = self._solve(
            svc,
            res,
            {"by_ref": {"tenant": "acme", "instance_id": "i1"}, "degraded_ok": True},
        )
        assert status == 200
        assert doc["degraded"]["mode"] == "sparsified"  # nothing cached yet

    def test_stats_exposes_resilience_snapshot(self, stack):
        svc, res = stack
        status, doc = handle_request(
            "GET", "/stats", None, ServiceContext(jobs=svc.jobs, resilience=res)
        )
        assert status == 200
        assert "admission" in doc["resilience"]
        assert "brownout" in doc["resilience"]
        assert doc["resilience"]["drain"]["state"] == "accepting"


class TestLiveHttpHeaders:
    """The pieces only visible over a real socket: headers both ways."""

    @pytest.fixture(scope="class")
    def service(self):
        res = Resilience(
            admission=AdmissionController(2, retry_after_seconds=2.0)
        )
        with PhocusService(workers=2, resilience=res) as svc:
            yield svc

    def _request(self, service, method, path, payload=None, headers=None):
        url = f"http://{service.address}{path}"
        data = _body(payload) if payload is not None else None
        req = urllib.request.Request(
            url, data=data, method=method, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, dict(resp.headers), json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_shed_sends_retry_after_header(self, service, instance_doc):
        admission = service.resilience.admission
        with admission.admit("x"), admission.admit("y"):
            status, headers, doc = self._request(
                service, "POST", "/solve", {"instance": instance_doc}
            )
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert doc["reason"] == "capacity"

    def test_deadline_header_reaches_the_solver(self, service, instance_doc):
        # The previous test's admit() contexts wrapped a whole HTTP round
        # trip, seeding the service-time EWMA with its duration; on a slow
        # or loaded runner that predicted time exceeds the 5 ms deadline
        # and the request sheds as deadline_unmeetable before the solver
        # ever sees the header.  Clear the estimator so this test always
        # exercises the in-solver expiry path it is about.
        service.resilience.admission._service_ewma.value = 0.0
        faults.arm(FaultPlan().on("resilience.slow_solve", "drop", times=None))
        status, headers, doc = self._request(
            service,
            "POST",
            "/solve",
            {"instance": instance_doc},
            headers={"X-Phocus-Deadline-Ms": "5"},
        )
        faults.disarm()
        assert status == 504 and doc["reason"] == "deadline"

    def test_deadline_header_lands_in_job_spec(self, service, instance_doc):
        status, headers, doc = self._request(
            service,
            "POST",
            "/jobs",
            {"instance": instance_doc},
            headers={"X-Phocus-Deadline-Ms": "60000"},
        )
        assert status == 202
        status, _, doc = self._request(service, "GET", f"/jobs/{doc['job_id']}")
        assert doc["spec"]["deadline_ms"] == 60000.0

    def test_readyz_round_trip(self, service):
        status, _, doc = self._request(service, "GET", "/readyz")
        assert status == 200 and doc["status"] == "ready"

"""Service-level tests for the multi-tenant archive store.

Dispatcher tests exercise :func:`handle_request` directly (pure, fast);
the live-server tests run a real :class:`PhocusService` over
``ThreadingHTTPServer`` — including the satellite concurrency scenario
(parallel uploads + by_ref solves + deletes) and the guarantee that a
stopped service leaves no shared-memory segment behind.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.serialize import instance_to_dict
from repro.core.solver import solve
from repro.live import LiveManager
from repro.obs import probes
from repro.system.service import ROUTES, PhocusService, ServiceContext, handle_request
from repro.tenants import TenantQuota, Tenants
from repro.tenants import cache as cache_mod

from tests.conftest import random_instance


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _shm_segments(prefix):
    return glob.glob(f"/dev/shm/{prefix}-*")


@pytest.fixture()
def tenants(tmp_path):
    t = Tenants(
        str(tmp_path / "tenants"),
        name_prefix=f"phtest-{os.getpid()}-svc",
        sweep=False,
    )
    yield t
    t.close()
    assert _shm_segments(f"phtest-{os.getpid()}-svc") == []


# ----------------------------------------------------------------- dispatcher


class TestHealthRoutes:
    def test_healthz_is_bare_liveness(self):
        status, payload = handle_request("GET", "/healthz", None)
        assert (status, payload) == (200, {"status": "ok"})

    def test_version_route(self):
        from repro import __version__

        status, payload = handle_request("GET", "/version", None)
        assert (status, payload) == (200, {"version": __version__})

    def test_healthz_rejects_post(self):
        status, payload = handle_request("POST", "/healthz", b"{}")
        assert status == 405
        assert payload["allow"] == ["GET"]


class TestTenantRoutes:
    def test_503_without_tenant_store(self):
        status, payload = handle_request("GET", "/tenants/acme/stats", None)
        assert status == 503
        assert "no tenant store" in payload["error"]

    def test_put_get_delete_lifecycle(self, tenants, small_instance):
        doc = instance_to_dict(small_instance)
        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/p",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 201
        assert payload["stored"]["version"] == 1

        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/p",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 200  # overwrite, not create
        assert payload["stored"]["version"] == 2

        status, payload = handle_request(
            "GET", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 200
        assert payload["instance"] == doc
        assert payload["version"] == 2

        status, payload = handle_request(
            "GET", "/tenants/acme/instances", None, ServiceContext(tenants=tenants)
        )
        assert status == 200
        assert [m["instance_id"] for m in payload["instances"]] == ["p"]

        status, payload = handle_request(
            "GET", "/tenants/acme/stats", None, ServiceContext(tenants=tenants)
        )
        assert status == 200
        assert payload["store"]["instances"] == 1

        status, payload = handle_request(
            "DELETE", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 200
        assert payload["deleted"]["version"] == 2

        status, payload = handle_request(
            "GET", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 404

    def test_put_garbage_is_422_and_nothing_stored(self, tenants):
        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/p",
            _body({"instance": {"format": 1, "nonsense": True}}),
            ServiceContext(tenants=tenants),
        )
        assert status == 422
        assert tenants.list_instances("acme") == []

    def test_bad_identifier_is_422(self, tenants):
        status, payload = handle_request(
            "GET", "/tenants/.evil/instances", None, ServiceContext(tenants=tenants)
        )
        # Path ids are checked at the edge, from the route table, so even
        # a listing names the bad tenant id; by_ref ids are checked when
        # the reference is parsed.
        assert status == 422 and "tenant id" in payload["error"]
        status, payload = handle_request(
            "POST",
            "/solve",
            _body({"by_ref": {"tenant": "../up", "instance_id": "p"}}),
            ServiceContext(tenants=tenants),
        )
        assert status == 422

    def test_unknown_tenant_subroute_is_404(self, tenants):
        status, _ = handle_request(
            "GET", "/tenants/acme", None, ServiceContext(tenants=tenants)
        )
        assert status == 404
        status, _ = handle_request(
            "GET", "/tenants/acme/instances/p/extra", None, ServiceContext(tenants=tenants)
        )
        assert status == 404

    def test_stats_rejects_write_methods(self, tenants):
        status, payload = handle_request(
            "DELETE", "/tenants/acme/stats", None, ServiceContext(tenants=tenants)
        )
        assert status == 405

    def test_quota_exceeded_maps_to_413_with_structure(self, tmp_path):
        tenants = Tenants(
            str(tmp_path),
            quota=TenantQuota(max_instances=1),
            name_prefix=f"phtest-{os.getpid()}-q413",
            sweep=False,
        )
        doc = instance_to_dict(random_instance(1, n_photos=10))
        status, _ = handle_request(
            "PUT",
            "/tenants/acme/instances/a",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 201
        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/b",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 413
        assert payload["tenant"] == "acme"
        assert payload["kind"] == "instances"
        assert payload["used"] == 2 and payload["limit"] == 1
        tenants.close()

    def test_rate_limit_maps_to_429_with_retry_after(self, tmp_path):
        tenants = Tenants(
            str(tmp_path),
            quota=TenantQuota(rate_per_second=0.001, burst=1),
            name_prefix=f"phtest-{os.getpid()}-q429",
            sweep=False,
        )
        doc = instance_to_dict(random_instance(1, n_photos=10))
        status, _ = handle_request(
            "PUT",
            "/tenants/acme/instances/a",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 201
        status, payload = handle_request(
            "PUT",
            "/tenants/acme/instances/a",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 429
        assert payload["tenant"] == "acme"
        assert payload["retry_after"] > 0
        # Other tenants keep their own bucket.
        status, _ = handle_request(
            "PUT",
            "/tenants/globex/instances/a",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status == 201
        tenants.close()


class TestPathIds:
    """Both path ids are checked once, from the route table, before the
    rate check: every tenant and instance route answers 422 naming the
    bad segment, and a refused call leaves no lock and no token bucket."""

    BAD_TENANT = "t" * 80
    ROUTES = [(m, p) for m, p, _, _ in ROUTES if p.startswith("/tenants/")]

    @pytest.fixture()
    def context(self, tmp_path):
        tenants = Tenants(
            str(tmp_path),
            quota=TenantQuota(rate_per_second=1000.0, burst=1000),
            name_prefix=f"phtest-{os.getpid()}-ids",
            sweep=False,
        )
        yield ServiceContext(tenants=tenants, live=LiveManager(tenants))
        tenants.close()

    @staticmethod
    def _path(pattern, tenant, instance):
        return pattern.replace("<id>", tenant).replace("<iid>", instance)

    def test_every_tenant_route_is_in_the_sweep(self):
        assert len(self.ROUTES) == 9
        assert {p for _, p in self.ROUTES} >= {
            "/tenants/<id>/stats",
            "/tenants/<id>/instances",
            "/tenants/<id>/instances/<iid>/photos",
        }

    @pytest.mark.parametrize("method, pattern", ROUTES)
    @pytest.mark.parametrize(
        "tenant, instance, what",
        [
            (BAD_TENANT, "a", "tenant id"),
            (".hidden", "a", "tenant id"),
            ("acme", "i" * 65, "instance id"),
            ("acme", ".x", "instance id"),
        ],
    )
    def test_a_bad_id_is_422_naming_it(self, context, method, pattern, tenant, instance, what):
        if "<iid>" not in pattern and what == "instance id":
            pytest.skip("the route carries no instance id")
        status, payload = handle_request(
            method, self._path(pattern, tenant, instance), _body({}), context
        )
        assert status == 422, payload
        assert payload["error"].startswith(what)

    def test_refused_calls_leave_no_locks_and_no_buckets(self, context):
        live, quotas = context.live, context.tenants.quotas
        for i in range(200):
            for method, pattern in self.ROUTES:
                status, _ = handle_request(
                    method, self._path(pattern, f"{'t' * 70}{i}", f"x{i}"), _body({}), context
                )
                assert status == 422
        assert live._locks == {} and quotas._buckets == {}

    def test_calls_for_absent_instances_leave_no_locks(self, context):
        for i in range(50):
            for path in ("/live", "/photos", "/recurate"):
                status, _ = handle_request(
                    "POST",
                    f"/tenants/acme/instances/missing{i}{path}",
                    _body({"costs": [1.0], "embeddings": [[1.0]]}),
                    context,
                )
                assert 400 <= status < 500
            status, _ = handle_request(
                "GET", f"/tenants/acme/instances/missing{i}/live", None, context
            )
            assert status == 404
        assert context.live._locks == {}


class TestSolveByRef:
    def _upload(self, tenants, instance, tenant="acme", instance_id="p"):
        doc = instance_to_dict(instance)
        status, _ = handle_request(
            "PUT",
            f"/tenants/{tenant}/instances/{instance_id}",
            _body({"instance": doc}),
            ServiceContext(tenants=tenants),
        )
        assert status in (200, 201)
        return doc

    def test_by_ref_solve_bit_identical_to_inline(self, tenants):
        inst = random_instance(17, n_photos=80)
        doc = self._upload(tenants, inst)

        status, inline = handle_request(
            "POST",
            "/solve",
            _body({"instance": doc, "seed": 3}),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        status, by_ref = handle_request(
            "POST",
            "/solve",
            _body({"by_ref": {"tenant": "acme", "instance_id": "p"}, "seed": 3}),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        assert by_ref["selection"] == inline["selection"]
        assert by_ref["value"] == inline["value"]
        assert by_ref["cost"] == inline["cost"]
        assert by_ref["warm_cache_hit"] is False
        assert "warm_cache_hit" not in inline

    def test_second_solve_is_warm_and_never_repacks(self, tenants, monkeypatch):
        inst = random_instance(17, n_photos=80)
        self._upload(tenants, inst)

        packs = []
        real = cache_mod.SharedInstance

        def counting_shared(instance, **kwargs):
            packs.append(1)
            return real(instance, **kwargs)

        monkeypatch.setattr(cache_mod, "SharedInstance", counting_shared)

        body = _body({"by_ref": {"tenant": "acme", "instance_id": "p"}})
        status, cold = handle_request(
            "POST", "/solve", body, ServiceContext(tenants=tenants)
        )
        assert status == 200 and cold["warm_cache_hit"] is False
        status, warm = handle_request(
            "POST", "/solve", body, ServiceContext(tenants=tenants)
        )
        assert status == 200 and warm["warm_cache_hit"] is True
        assert warm["selection"] == cold["selection"]
        assert len(packs) == 1  # the warm solve neither deserialised nor packed
        assert tenants.cache.stats()["hits"] == 1
        assert tenants.cache.stats()["misses"] == 1

    def test_by_ref_budget_override(self, tenants):
        inst = random_instance(17, n_photos=80)
        self._upload(tenants, inst)
        tight = inst.budget * 0.4
        status, payload = handle_request(
            "POST",
            "/solve",
            _body({
                "by_ref": {"tenant": "acme", "instance_id": "p"},
                "budget": tight,
            }),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        assert payload["cost"] <= tight
        assert payload["selection"] == solve(inst.with_budget(tight)).selection

    def test_by_ref_without_store_is_422(self):
        status, payload = handle_request(
            "POST", "/solve",
            _body({"by_ref": {"tenant": "acme", "instance_id": "p"}}),
        )
        assert status == 422
        assert "no tenant store" in payload["error"]

    def test_by_ref_plus_inline_is_422(self, tenants, small_instance):
        doc = self._upload(tenants, small_instance)
        status, payload = handle_request(
            "POST",
            "/solve",
            _body({
                "instance": doc,
                "by_ref": {"tenant": "acme", "instance_id": "p"},
            }),
            ServiceContext(tenants=tenants),
        )
        assert status == 422
        assert "not both" in payload["error"]

    def test_by_ref_missing_instance_is_404(self, tenants):
        status, payload = handle_request(
            "POST",
            "/solve",
            _body({"by_ref": {"tenant": "acme", "instance_id": "ghost"}}),
            ServiceContext(tenants=tenants),
        )
        assert status == 404

    def test_score_by_ref_matches_inline(self, tenants):
        inst = random_instance(17, n_photos=60)
        doc = self._upload(tenants, inst)
        selection = solve(inst).selection
        status, inline = handle_request(
            "POST",
            "/score",
            _body({"instance": doc, "selection": selection}),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        status, by_ref = handle_request(
            "POST",
            "/score",
            _body({
                "by_ref": {"tenant": "acme", "instance_id": "p"},
                "selection": selection,
            }),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        assert by_ref == inline


# ---------------------------------------------------------------- live server


def _request(service, method, path, payload=None, timeout=30):
    req = urllib.request.Request(
        f"http://{service.address}{path}",
        data=(None if payload is None else _body(payload)),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _wait_job(service, job_id, deadline=60.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, doc = _request(service, "GET", f"/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("SUCCEEDED", "FAILED", "CANCELLED", "TIMED_OUT"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {deadline}s")


class TestLiveTenantService:
    def test_jobs_by_ref_and_metrics_exposition(self, tmp_path):
        prefix = f"phtest-{os.getpid()}-live"
        inst = random_instance(23, n_photos=80)
        probes.disarm()
        try:
            tenants = Tenants(str(tmp_path / "t"), name_prefix=prefix, sweep=False)
            with PhocusService(workers=2, tenants=tenants) as service:
                status, _ = _request(
                    service, "PUT", "/tenants/acme/instances/p",
                    {"instance": instance_to_dict(inst)},
                )
                assert status == 201

                # Background job solving by reference.
                status, payload = _request(
                    service, "POST", "/jobs",
                    {"by_ref": {"tenant": "acme", "instance_id": "p"}},
                )
                assert status == 202
                doc = _wait_job(service, payload["job_id"])
                assert doc["state"] == "SUCCEEDED"
                assert doc["result"]["selection"] == solve(inst).selection

                # Synchronous warm solve over the same cached packing.
                status, payload = _request(
                    service, "POST", "/solve",
                    {"by_ref": {"tenant": "acme", "instance_id": "p"}},
                )
                assert status == 200
                assert payload["warm_cache_hit"] is True

                # The tenant metric families made it into the exposition.
                with urllib.request.urlopen(
                    f"http://{service.address}/metrics", timeout=30
                ) as resp:
                    text = resp.read().decode("utf-8")
                assert 'phocus_tenants_cache_hits_total{tenant="acme"}' in text
                assert 'phocus_tenants_store_bytes{tenant="acme"}' in text
                assert "phocus_tenants_cache_bytes" in text
            tenants.close()
            assert _shm_segments(prefix) == []
        finally:
            probes.disarm()

    def test_concurrent_mixed_methods_no_races_no_leaks(self, tmp_path):
        prefix = f"phtest-{os.getpid()}-conc"
        tenants = Tenants(str(tmp_path / "t"), name_prefix=prefix, sweep=False)
        shared_inst = random_instance(5, n_photos=60)
        expected = solve(shared_inst).selection
        errors = []
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        with PhocusService(workers=2, metrics=False, tenants=tenants) as service:
            status, _ = _request(
                service, "PUT", "/tenants/shared/instances/hot",
                {"instance": instance_to_dict(shared_inst)},
            )
            assert status == 201

            def worker(idx):
                try:
                    barrier.wait(timeout=30)
                    tenant = f"t{idx}"
                    own = instance_to_dict(random_instance(idx, n_photos=40))
                    for round_no in range(3):
                        # Private lifecycle: upload, solve, delete, 404.
                        status, _ = _request(
                            service, "PUT",
                            f"/tenants/{tenant}/instances/mine",
                            {"instance": own},
                        )
                        assert status == 201  # each round deletes: fresh create
                        status, doc = _request(
                            service, "POST", "/solve",
                            {"by_ref": {"tenant": tenant, "instance_id": "mine"}},
                        )
                        assert status == 200, doc
                        # Shared hot instance: everyone hammers one key.
                        status, doc = _request(
                            service, "POST", "/solve",
                            {"by_ref": {"tenant": "shared", "instance_id": "hot"}},
                        )
                        assert status == 200, doc
                        assert doc["selection"] == expected
                        status, _ = _request(
                            service, "DELETE",
                            f"/tenants/{tenant}/instances/mine",
                        )
                        assert status == 200
                        status, _ = _request(
                            service, "POST", "/solve",
                            {"by_ref": {"tenant": tenant, "instance_id": "mine"}},
                        )
                        assert status == 404
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append((idx, exc))

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)

        assert errors == []
        stats = tenants.cache.stats()
        assert stats["hits"] > 0  # the hot key actually went warm
        assert stats["zombie_segments"] == 0
        tenants.close()
        assert _shm_segments(prefix) == []  # no leaked shared memory

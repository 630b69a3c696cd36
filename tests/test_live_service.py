"""Tests for the live-curation serving path: manager, scheduler, routes.

The manager's contract: every ingestion is exactly one atomic store
version bump, the warm cache is invalidated on commit, and ``by_ref``
solves keep working against live documents.  The scheduler's contract:
bursts coalesce into one warm re-solve, accumulated regret escalates to
a full re-solve (inline or via the job manager), and a stale job result
is discarded by the version guard instead of clobbering a newer ingest.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.core import native
from repro.core.objective import CoverageState
from repro.core.solver import solve
from repro.errors import ValidationError
from repro.jobs import JobManager
from repro.live import LiveArchive, LiveManager, RecurationScheduler
from repro.scale import synthetic_archive
from repro.system.service import PhocusService, ServiceContext, handle_request
from repro.tenants import Tenants
from repro.tenants import store as store_mod


@pytest.fixture
def tenants(tmp_path):
    t = Tenants(str(tmp_path), sweep=False)
    yield t
    t.close()


def _create(manager, tenants_or_none=None, *, n=300, seed=3, **kw):
    costs, emb = synthetic_archive(n, dim=8, seed=seed)
    return manager.create(
        "acme", "a1", costs, emb, float(costs.sum()) * 0.25, tau=0.6,
        seed=seed, **kw
    )


def _delta(k=10, seed=90):
    return synthetic_archive(k, dim=8, seed=seed)


# ------------------------------------------------------------------- manager


def test_manager_ingest_bumps_exactly_one_version(tenants):
    manager = LiveManager(tenants)
    created = _create(manager)
    assert created["version"] == 1
    assert created["regret_bound"] is not None

    dc, de = _delta()
    out = manager.ingest("acme", "a1", dc, de)
    assert out["version"] == 2
    assert out["delta"]["n_added"] == 10
    assert out["solution"]["kind"] == "warm"
    assert out["recurated_at"] is not None
    assert tenants.store.meta("acme", "a1").version == 2


def test_manager_deferred_ingest_tracks_pending(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    dc, de = _delta(5)
    out = manager.ingest("acme", "a1", dc, de, resolve="none")
    assert out["pending_deltas"] == 1
    status = manager.status("acme", "a1")
    assert status.pending_deltas == 1 and status.pending_photos == 5
    # The stored (stale) solution keeps serving.
    assert status.solution is not None

    with pytest.raises(ValidationError):
        manager.ingest("acme", "a1", dc, de, resolve="bogus")


def test_manager_survives_resident_eviction(tenants):
    """State round-trips through the store when the LRU drops an entry."""
    manager = LiveManager(tenants, max_resident=1)
    _create(manager)
    dc, de = _delta(4)
    manager.ingest("acme", "a1", dc, de, resolve="none")

    # Loading another instance evicts a1 from the resident set.
    costs, emb = synthetic_archive(100, dim=8, seed=55)
    manager.create("acme", "other", costs, emb, float(costs.sum()) * 0.3, tau=0.6)
    assert ("acme", "a1") not in manager.resident_keys()

    status = manager.status("acme", "a1")  # reloads from the stored doc
    assert status.pending_deltas == 1 and status.pending_photos == 4
    out = manager.recurate("acme", "a1", kind="warm")
    assert out is not None
    assert manager.status("acme", "a1").pending_deltas == 0


def test_manager_commit_invalidates_warm_cache(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    ref = {"tenant": "acme", "instance_id": "a1"}
    with tenants.lease_for_solve(ref) as (instance, _hit):
        n_before = instance.n
    dc, de = _delta(7)
    manager.ingest("acme", "a1", dc, de)
    with tenants.lease_for_solve(ref) as (instance, hit):
        assert not hit  # the old packing was invalidated
        assert instance.n == n_before + 7


def test_manager_commit_solution_version_guard(tenants):
    manager = LiveManager(tenants)
    created = _create(manager)
    selection = created["solution"]["selection"]
    # A concurrent ingest moves the version; the stale commit is refused.
    dc, de = _delta(3)
    manager.ingest("acme", "a1", dc, de)
    assert (
        manager.commit_solution(
            "acme", "a1", selection, expect_version=created["version"]
        )
        is None
    )
    current = manager.status("acme", "a1").version
    assert (
        manager.commit_solution(
            "acme", "a1", selection, expect_version=current
        )
        == current + 1
    )
    assert manager.status("acme", "a1").accumulated_regret == 0.0


def test_manager_rejects_non_live_instances(tenants):
    from repro.core.serialize import instance_to_dict
    from tests.conftest import random_instance

    tenants.put_instance("acme", "plain", instance_to_dict(random_instance(1)))
    manager = LiveManager(tenants)
    with pytest.raises(ValidationError, match="not live"):
        manager.status("acme", "plain")


def test_by_ref_solve_works_on_live_documents(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    status, doc = handle_request(
        "POST",
        "/solve",
        json.dumps(
            {"by_ref": {"tenant": "acme", "instance_id": "a1"}}
        ).encode(),
        ServiceContext(tenants=tenants),
    )
    assert status == 200
    assert doc["selection"]


# ----------------------------------------------------------------- scheduler


def test_scheduler_coalesces_burst_into_one_warm_resolve(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    sched = RecurationScheduler(
        manager, debounce_seconds=0.0, regret_threshold=10.0
    )
    sched.track("acme", "a1")
    for i in range(3):
        dc, de = _delta(2, seed=70 + i)
        manager.ingest("acme", "a1", dc, de, resolve="none")
    assert manager.status("acme", "a1").pending_deltas == 3

    actions = sched.sweep_once()
    assert actions["warm"] == 1  # one re-solve for the whole burst
    status = manager.status("acme", "a1")
    assert status.pending_deltas == 0
    assert status.solution["kind"] == "warm"


def test_scheduler_debounce_waits_for_quiet(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    sched = RecurationScheduler(
        manager, debounce_seconds=30.0, regret_threshold=10.0
    )
    sched.track("acme", "a1")
    dc, de = _delta(2)
    manager.ingest("acme", "a1", dc, de, resolve="none")
    actions = sched.sweep_once()  # burst still hot: nothing happens
    assert actions["warm"] == 0
    assert manager.status("acme", "a1").pending_deltas == 1


def test_scheduler_regret_threshold_escalates_to_full_inline(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    dc, de = _delta(6)
    manager.ingest("acme", "a1", dc, de)  # warm: accumulates regret
    sched = RecurationScheduler(manager, regret_threshold=0.0)
    sched.track("acme", "a1")
    actions = sched.sweep_once()
    assert actions["full"] == 1
    status = manager.status("acme", "a1")
    assert status.accumulated_regret == 0.0
    assert status.solution["kind"] == "cold"


def test_scheduler_full_resolve_rides_the_job_manager(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    dc, de = _delta(6)
    manager.ingest("acme", "a1", dc, de)

    # The job manager resolves by_ref exactly like the service does.
    import contextlib

    @contextlib.contextmanager
    def resolver(by_ref):
        with tenants.lease_for_solve(by_ref) as (instance, _hit):
            yield instance

    jobs = JobManager(workers=1, by_ref_resolver=resolver)
    try:
        sched = RecurationScheduler(manager, jobs=jobs, regret_threshold=0.0)
        sched.track("acme", "a1")
        before = manager.status("acme", "a1").version
        actions = sched.sweep_once()
        assert actions["full"] == 1  # submitted, not yet landed
        deadline = time.monotonic() + 30.0
        committed = 0
        while time.monotonic() < deadline:
            committed = sched.sweep_once()["committed"]
            if committed:
                break
            time.sleep(0.05)
        assert committed == 1
        status = manager.status("acme", "a1")
        assert status.version == before + 1
        assert status.accumulated_regret == 0.0
        assert status.solution["kind"] == "cold"
    finally:
        jobs.shutdown()


def test_scheduler_thread_start_stop(tenants):
    manager = LiveManager(tenants)
    _create(manager)
    sched = RecurationScheduler(
        manager, interval=0.02, debounce_seconds=0.0, regret_threshold=10.0
    )
    dc, de = _delta(2)
    manager.ingest("acme", "a1", dc, de, resolve="none")
    sched.start()
    try:
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if manager.status("acme", "a1").pending_deltas == 0:
                break
            time.sleep(0.02)
        assert manager.status("acme", "a1").pending_deltas == 0
        assert sched.sweeps > 0
    finally:
        sched.stop()


# -------------------------------------------------------------- HTTP routes


def _live_request(svc, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else None
    return handle_request(
        method,
        path,
        body,
        ServiceContext(tenants=svc.tenants, live=svc.live, sweeper=svc.sweeper),
    )


def test_live_routes_end_to_end(tmp_path):
    svc = PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path))
    try:
        costs, emb = synthetic_archive(250, dim=8, seed=3)
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/live",
            {
                "costs": costs.tolist(),
                "embeddings": emb.tolist(),
                "budget": float(costs.sum()) * 0.25,
                "tau": 0.6,
                "seed": 3,
            },
        )
        assert status == 201
        assert doc["version"] == 1
        assert doc["regret_bound"] is not None and doc["recurated_at"]

        dc, de = _delta(8)
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/photos",
            {"costs": dc.tolist(), "embeddings": de.tolist()},
        )
        assert status == 200
        assert doc["version"] == 2 and doc["delta"]["n_added"] == 8
        assert doc["solution"]["kind"] == "warm"
        assert "recurated_at" in doc and "regret_bound" in doc

        status, doc = _live_request(
            svc, "GET", "/tenants/acme/instances/a1/live"
        )
        assert status == 200
        assert doc["n_photos"] == 258 and doc["version"] == 2
        assert doc["solution"]["selection"]

        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/recurate",
            {"kind": "full"},
        )
        assert status == 200
        assert doc["solution"]["kind"] == "cold"
    finally:
        svc.stop()


def test_live_routes_error_paths(tmp_path):
    svc = PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path))
    try:
        # Wrong method / unknown sub-resource.
        status, _ = _live_request(
            svc, "DELETE", "/tenants/acme/instances/a1/photos"
        )
        assert status == 405
        status, _ = _live_request(
            svc, "POST", "/tenants/acme/instances/a1/bogus", {}
        )
        assert status == 404
        # Ingest into a nonexistent instance.
        dc, de = _delta(2)
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/missing/photos",
            {"costs": dc.tolist(), "embeddings": de.tolist()},
        )
        assert status == 404
        # Malformed arrays.
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/photos",
            {"costs": [1.0], "embeddings": "nope"},
        )
        assert status == 422
        # Missing budget/tau on create.
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/live",
            {"costs": dc.tolist(), "embeddings": de.tolist()},
        )
        assert status == 422 and "budget" in doc["error"]
    finally:
        svc.stop()


def test_live_routes_503_without_live_manager(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        status, doc = handle_request(
            "GET", "/tenants/acme/instances/a1/live", None, ServiceContext(tenants=tenants)
        )
        assert status == 503
        assert "live curation" in doc["error"]
    finally:
        tenants.close()


def test_service_recuration_sweep_over_http(tmp_path):
    """A deferred upload gets curated by the service's own sweeper."""
    svc = PhocusService(
        workers=0,
        metrics=False,
        tenants_root=str(tmp_path),
        recuration=True,
        recuration_interval=0.02,
        recuration_debounce=0.0,
        recuration_regret=10.0,
    )
    try:
        costs, emb = synthetic_archive(200, dim=8, seed=4)
        status, _ = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/live",
            {
                "costs": costs.tolist(),
                "embeddings": emb.tolist(),
                "budget": float(costs.sum()) * 0.25,
                "tau": 0.6,
            },
        )
        assert status == 201
        dc, de = _delta(4)
        status, doc = _live_request(
            svc,
            "POST",
            "/tenants/acme/instances/a1/photos",
            {
                "costs": dc.tolist(),
                "embeddings": de.tolist(),
                "resolve": "none",
            },
        )
        assert status == 200 and doc["pending_deltas"] == 1
        deadline = time.monotonic() + 20.0
        pending = 1
        while time.monotonic() < deadline:
            _, doc = _live_request(
                svc, "GET", "/tenants/acme/instances/a1/live"
            )
            pending = doc["pending_deltas"]
            if pending == 0:
                break
            time.sleep(0.02)
        assert pending == 0
        assert doc["solution"]["kind"] == "warm"
    finally:
        svc.stop()


def test_cli_live_round_trip(tmp_path, capsys):
    from repro.system.cli import main

    svc = PhocusService(
        workers=0, metrics=False, tenants_root=str(tmp_path)
    ).start()
    server = f"http://{svc.address}"
    try:
        assert main(
            [
                "live", "--server", server, "create", "--tenant", "acme",
                "--id", "a1", "--photos", "200", "--dim", "8", "--tau",
                "0.6", "--seed", "3",
            ]
        ) == 0
        assert main(
            [
                "live", "--server", server, "ingest", "--tenant", "acme",
                "--id", "a1", "--photos", "6", "--dim", "8", "--seed", "77",
            ]
        ) == 0
        assert main(
            [
                "live", "--server", server, "status", "--tenant", "acme",
                "--id", "a1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "created live acme/a1" in out
        assert "ingested 6 photos" in out
        assert '"n_photos": 206' in out
    finally:
        svc.stop()


# ------------------------------------------------- stored live documents


def _http(svc, method, path, payload=None):
    req = urllib.request.Request(
        f"http://{svc.address}{path}",
        data=json.dumps(payload).encode() if payload is not None else None,
        method=method,
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def test_live_instance_get_is_json_and_solves_when_put_back(tmp_path):
    costs, emb = synthetic_archive(260, dim=8, seed=3)
    with PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path)) as svc:
        base = "/tenants/acme/instances/a1"
        _http(svc, "POST", base + "/live", {
            "costs": costs[:250].tolist(), "embeddings": emb[:250].tolist(),
            "budget": float(costs[:250].sum()) * 0.25, "tau": 0.6, "seed": 3,
        })
        _http(svc, "POST", base + "/photos", {
            "costs": costs[250:].tolist(), "embeddings": emb[250:].tolist(),
        })
        status, envelope = _http(svc, "GET", base)
        assert status == 200 and envelope["version"] == 2
        doc = envelope["instance"]
        sim = doc["subsets"][0]["similarity"]
        assert sim["size"] == 260 and len(sim["indptr"]) == 261
        assert len(sim["indices"]) == len(sim["values"]) == sim["indptr"][-1]
        assert len(doc["live"]["band_keys"][0]) == 260

        status, _ = _http(svc, "PUT", "/tenants/acme/instances/copy", {"instance": doc})
        assert status == 201
        _, live_solution = _http(svc, "POST", "/solve", {
            "by_ref": {"tenant": "acme", "instance_id": "a1"},
        })
        _, copy_solution = _http(svc, "POST", "/solve", {
            "by_ref": {"tenant": "acme", "instance_id": "copy"},
        })
    archive = LiveArchive.create(
        costs[:250], emb[:250], float(costs[:250].sum()) * 0.25, tau=0.6, seed=3
    )[0].ingest(costs[250:], emb[250:])[0]
    expected = solve(archive.instance)
    for got in (live_solution, copy_solution):
        assert got["selection"] == [int(p) for p in expected.selection]
        assert got["value"] == expected.value


@pytest.mark.skipif(
    native.kernel() is None, reason="the native kernel cannot load here"
)
def test_cold_by_ref_lease_of_a_format2_live_blob_solves_bit_for_bit(tmp_path):
    costs, emb = synthetic_archive(330, dim=8, seed=4)
    budget = float(costs[:300].sum()) * 0.2
    archive, _ = LiveArchive.create(costs[:300], emb[:300], budget, tau=0.6, seed=4)
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        manager = LiveManager(tenants)
        manager.create("acme", "a1", costs[:300], emb[:300], budget, tau=0.6, seed=4)
        for lo in (300, 310, 320):
            manager.ingest("acme", "a1", costs[lo : lo + 10], emb[lo : lo + 10])
            archive, _ = archive.ingest(costs[lo : lo + 10], emb[lo : lo + 10])
    finally:
        tenants.close()
    assert (tmp_path / "acme" / "a1.inst").read_bytes()[:8] == store_mod._MAGIC

    cold = Tenants(str(tmp_path), sweep=False)
    try:
        ref = {"tenant": "acme", "instance_id": "a1"}
        with cold.lease_for_solve(ref) as (view, hit):
            assert not hit and view.n == 330
            assert CoverageState(view)._native is not None
            got = solve(view)
    finally:
        cold.close()
    expected = solve(archive.instance)
    assert got.selection == expected.selection
    assert got.value == expected.value
    assert got.cost == expected.cost

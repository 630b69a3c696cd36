"""Chaos tests for the tenant store and warm cache (satellite: fault sites).

Every scenario arms a deterministic :class:`FaultPlan` against the
``tenantstore.*`` / ``tenantcache.evict`` injection sites and asserts the
recovery contract: a crashed write never tears a stored instance, a
corrupt blob is quarantined rather than served, a failed segment reclaim
is retried until it succeeds, and a worker killed mid-solve never
strands an unlinked shared-memory segment.
"""

from __future__ import annotations

import contextlib
import glob
import os
import threading
import time

import pytest

from repro import faults
from repro.core.serialize import instance_to_dict
from repro.core.solver import solve
from repro.errors import InstanceNotFound
from repro.faults.plan import FaultPlan, ProcessKilled
from repro.jobs import JobManager
from repro.jobs.spec import JobSpec
from repro.tenants import Tenants
from repro.tenants.store import TenantStore

from tests.conftest import random_instance

CHAOS_SEED = int(os.environ.get("PHOCUS_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def always_disarmed():
    yield
    faults.disarm()


@contextlib.contextmanager
def quiet_process_kills():
    previous = threading.excepthook

    def _hook(args):
        if not issubclass(args.exc_type, ProcessKilled):
            previous(args)

    threading.excepthook = _hook
    try:
        yield
    finally:
        threading.excepthook = previous


def _wait_for(predicate, timeout=30.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _doc(seed=0, **kw):
    return instance_to_dict(random_instance(seed, **kw))


def _shm_segments(prefix):
    return glob.glob(f"/dev/shm/{prefix}-*")


# ----------------------------------------------------------------- store chaos


def test_killed_replace_leaves_previous_version_intact(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", _doc(1))

    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.replace", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            store.put("acme", "p", _doc(2))

    # The crash hit after the temp write but before the atomic rename:
    # the published file is still version 1, the index never moved, and
    # the temp file was cleaned up.
    assert store.meta("acme", "p").version == 1
    assert store.get("acme", "p")["version"] == 1
    assert glob.glob(str(tmp_path / "acme" / "*.tmp*")) == []

    # A reopened store (crash recovery) agrees.
    reopened = TenantStore(str(tmp_path))
    assert reopened.meta("acme", "p").version == 1
    # And the next put proceeds normally.
    assert store.put("acme", "p", _doc(2)).version == 2


def test_killed_first_write_leaves_no_trace(tmp_path):
    store = TenantStore(str(tmp_path))
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.write", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            store.put("acme", "p", _doc(1))
    with pytest.raises(InstanceNotFound):
        store.meta("acme", "p")
    assert os.listdir(tmp_path / "acme") == []  # no blob, no temp file


def test_corrupted_write_is_quarantined_on_read(tmp_path):
    store = TenantStore(str(tmp_path))
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.write", "corrupt")
    with faults.armed(plan):
        meta = store.put("acme", "p", _doc(1))  # write "succeeds"...
        assert meta.version == 1
        with pytest.raises(InstanceNotFound):  # ...but the bytes are bad
            store.get("acme", "p")
    assert (tmp_path / "acme" / "p.inst.quarantine").exists()
    assert store.quarantined_count == 1
    # The id is free again; a clean re-upload starts a fresh lineage.
    assert store.put("acme", "p", _doc(1)).version == 1
    assert store.get("acme", "p")["version"] == 1


def test_dropped_fsync_is_silent_without_a_crash(tmp_path):
    store = TenantStore(str(tmp_path))
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.fsync", "drop")
    with faults.armed(plan):
        store.put("acme", "p", _doc(1))
        assert plan.fired("tenantstore.fsync") == 1
    # No crash followed the dropped fsync, so the data is still there.
    assert store.get("acme", "p")["version"] == 1


def test_transient_load_error_quarantines(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", _doc(1))
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.load", "raise")
    with faults.armed(plan):
        with pytest.raises(InstanceNotFound):
            store.get("acme", "p")
    # An unreadable blob is treated exactly like a corrupt one: moved
    # aside, never served, never silently retried.
    assert (tmp_path / "acme" / "p.inst.quarantine").exists()


# ------------------------------------------------------------ log append chaos


def _logged_store(tmp_path):
    """A store holding acme/p at version 2: a base plus one log record."""
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", _doc(1))
    store.append("acme", "p", {"curation": {"n": 1}}, expect_version=1)
    return store


def _versions(store):
    envelope = store.get("acme", "p")
    return envelope["version"], [r["version"] for r in envelope.get("records", [])]


def test_killed_append_leaves_the_log_untouched(tmp_path):
    store = _logged_store(tmp_path)
    log = tmp_path / "acme" / "p.inst.log"
    size = log.stat().st_size

    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            store.append("acme", "p", {"curation": {"n": 2}}, expect_version=2)
        assert plan.fired("tenantstore.append") == 1

    # Killed before a byte was written: same version, same log.
    assert store.meta("acme", "p").version == 2
    assert log.stat().st_size == size
    assert _versions(TenantStore(str(tmp_path))) == (1, [2])
    # And the retry lands as the next version.
    assert store.append("acme", "p", {"curation": {"n": 2}}, expect_version=2).version == 3
    assert _versions(TenantStore(str(tmp_path))) == (1, [2, 3])


def test_record_torn_by_a_kill_mid_write_is_cut_on_reopen(tmp_path):
    store = _logged_store(tmp_path)
    log = tmp_path / "acme" / "p.inst.log"
    good = log.stat().st_size
    store.append("acme", "p", {"curation": {"n": 2}}, expect_version=2)
    grown = log.stat().st_size
    # The process died with only part of the record on disk.
    torn = good + 1 + (CHAOS_SEED * 104729) % (grown - good - 1)
    with open(log, "r+b") as fh:
        fh.truncate(torn)

    reopened = TenantStore(str(tmp_path))
    assert reopened.quarantined_count == 1
    assert reopened.meta("acme", "p").version == 2
    assert _versions(reopened) == (1, [2])
    # The torn bytes moved aside whole; the log ends at its good prefix.
    assert log.stat().st_size == good
    assert (tmp_path / "acme" / "p.inst.log.quarantine").stat().st_size == torn - good
    # The retry appends cleanly after the good prefix.
    assert reopened.append("acme", "p", {"curation": {"n": 2}}, expect_version=2).version == 3
    assert _versions(TenantStore(str(tmp_path))) == (1, [2, 3])


def test_corrupted_append_is_cut_and_the_previous_version_served(tmp_path):
    store = _logged_store(tmp_path)
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append", "corrupt")
    with faults.armed(plan):
        meta = store.append("acme", "p", {"curation": {"n": 2}}, expect_version=2)
        assert meta.version == 3  # the write "succeeds"...
    # ...but the read finds the bad record, cuts it and serves version 2.
    assert _versions(store) == (1, [2])
    assert store.meta("acme", "p").version == 2
    assert store.quarantined_count == 1
    assert (tmp_path / "acme" / "p.inst.log.quarantine").exists()
    assert _versions(TenantStore(str(tmp_path))) == (1, [2])


def test_dropped_append_fsync_is_silent_without_a_crash(tmp_path):
    store = _logged_store(tmp_path)
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append_fsync", "drop")
    with faults.armed(plan):
        store.append("acme", "p", {"curation": {"n": 2}}, expect_version=2)
        assert plan.fired("tenantstore.append_fsync") == 1
    # No crash followed the dropped fsync, so the record is still there.
    assert _versions(TenantStore(str(tmp_path))) == (1, [2, 3])


# ----------------------------------------------------------------- cache chaos


def test_failed_evict_parks_zombie_then_reclaims(tmp_path):
    prefix = f"phtest-{os.getpid()}-chaos-evict"
    tenants = Tenants(str(tmp_path), name_prefix=prefix, sweep=False)
    tenants.put_instance("acme", "p", _doc(1, n_photos=30))
    ref = {"tenant": "acme", "instance_id": "p"}
    with tenants.lease_for_solve(ref):
        pass
    assert len(_shm_segments(prefix)) == 1

    plan = FaultPlan(seed=CHAOS_SEED).on("tenantcache.evict", "raise")
    with faults.armed(plan):
        tenants.cache.invalidate("acme")
        # The reclaim failed: the segment survives on a zombie list
        # rather than leaking untracked.
        assert tenants.cache.stats()["zombie_segments"] == 1
        assert len(_shm_segments(prefix)) == 1

    # First operation after the fault clears retries the reclaim.
    with tenants.lease_for_solve(ref):
        pass
    assert tenants.cache.stats()["zombie_segments"] == 0
    tenants.close()
    assert _shm_segments(prefix) == []


def test_close_retries_zombie_reclaim(tmp_path):
    prefix = f"phtest-{os.getpid()}-chaos-close"
    tenants = Tenants(str(tmp_path), name_prefix=prefix, sweep=False)
    tenants.put_instance("acme", "p", _doc(1, n_photos=30))
    with tenants.lease_for_solve({"tenant": "acme", "instance_id": "p"}):
        pass

    plan = FaultPlan(seed=CHAOS_SEED).on("tenantcache.evict", "raise")
    with faults.armed(plan):
        tenants.cache.invalidate("acme")
        assert tenants.cache.stats()["zombie_segments"] == 1
    tenants.close()  # close() reaps the zombie now that faults cleared
    assert tenants.cache.stats()["zombie_segments"] == 0
    assert _shm_segments(prefix) == []


# ------------------------------------------------------------ killed worker


def test_killed_worker_mid_solve_strands_no_segment(tmp_path):
    """A worker dying inside a by_ref solve must release its cache lease
    on the way down (context-manager unwind happens even for
    BaseException), so shutdown can still unlink every segment."""
    prefix = f"phtest-{os.getpid()}-chaos-kill"
    tenants = Tenants(str(tmp_path), name_prefix=prefix, sweep=False)
    tenants.put_instance(
        "acme", "p", _doc(40 + CHAOS_SEED, n_photos=60, budget_fraction=0.5)
    )
    resolver = _Resolver(tenants)

    plan = FaultPlan(seed=CHAOS_SEED).on(
        "solver.iteration", "kill", nth=5 + (CHAOS_SEED % 5)
    )
    with quiet_process_kills(), faults.armed(plan):
        jobs = JobManager(workers=1, by_ref_resolver=resolver)
        jobs.submit(
            JobSpec(
                job_id="chaos-by-ref",
                by_ref={"tenant": "acme", "instance_id": "p", "version": 1},
                max_attempts=1,
            )
        )
        assert _wait_for(lambda: plan.fired("solver.iteration") > 0)
        time.sleep(0.2)  # let the killed thread unwind its lease
        assert resolver.open_leases == 0
        jobs.shutdown()

    # The packing is still cached (the lease released cleanly) and a
    # fresh solve after the chaos matches an undisturbed one.
    with tenants.lease_for_solve({"tenant": "acme", "instance_id": "p"}) as (
        view,
        hit,
    ):
        assert hit  # the crash did not evict or corrupt the packing
        survivor = solve(view)
    assert survivor.selection == solve(
        random_instance(40 + CHAOS_SEED, n_photos=60, budget_fraction=0.5)
    ).selection

    tenants.close()
    assert _shm_segments(prefix) == []
    assert tenants.cache.stats()["zombie_segments"] == 0


class _Resolver:
    """A by_ref resolver that counts open leases (balance must hit 0)."""

    def __init__(self, tenants: Tenants) -> None:
        self._tenants = tenants
        self.open_leases = 0

    @contextlib.contextmanager
    def __call__(self, by_ref):
        with self._tenants.lease_for_solve(by_ref) as (instance, _hit):
            self.open_leases += 1
            try:
                yield instance
            finally:
                self.open_leases -= 1


# --------------------------------------------------------------- dead sweeper


def test_startup_sweep_reclaims_crashed_process_segments(tmp_path):
    prefix = f"phtest-{os.getpid()}-chaos-sweep"
    leaked = f"/dev/shm/{prefix}-99999999-3"
    with open(leaked, "wb") as fh:
        fh.write(b"\0" * 128)
    try:
        tenants = Tenants(str(tmp_path), name_prefix=prefix, sweep=True)
        assert tenants.cache.swept == [os.path.basename(leaked)]
        assert not os.path.exists(leaked)
        tenants.close()
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(leaked)

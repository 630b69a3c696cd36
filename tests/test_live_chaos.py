"""Chaos tests for the live ingestion pipeline (``live.*`` fault sites).

The crash-atomicity contract: a delta ingestion performs exactly one
durable mutation — one log record append, or the tenant store's atomic
versioned ``put`` when the commit compacts — so a process killed
*anywhere* in the pipeline (at the ingestion entry, just before the
re-solve, before or during the record append, or inside the base
write/rename itself) leaves the stored instance either at the complete
old version or the complete new one, never torn, and a retry of the same
delta lands bit-identical state.  The ``tenantstore.write``/``replace``
cases force every commit to compact (``COMPACT_FRACTION = 0``) so they
exercise the ``put`` path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults
from repro.errors import InstanceNotFound
from repro.faults.plan import FaultPlan, ProcessKilled
from repro.live import LiveManager, RecurationScheduler
from repro.live import manager as live_manager
from repro.live.archive import LiveArchive
from repro.scale import synthetic_archive
from repro.tenants import Tenants

CHAOS_SEED = int(os.environ.get("PHOCUS_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def always_disarmed():
    yield
    faults.disarm()


@pytest.fixture
def tenants(tmp_path):
    t = Tenants(str(tmp_path), sweep=False)
    yield t
    t.close()


def _fresh(tenants, *, n=200, seed=3):
    manager = LiveManager(tenants)
    costs, emb = synthetic_archive(n, dim=8, seed=seed)
    created = manager.create(
        "acme", "a1", costs, emb, float(costs.sum()) * 0.25, tau=0.6, seed=seed
    )
    return manager, created


def _delta(k=6, seed=91):
    return synthetic_archive(k, dim=8, seed=seed)


def _stored_state(tenants):
    """(version, n_photos, selection) of the durable instance: the base
    with its logged records folded in, as every reader sees it."""
    envelope = tenants.get_instance("acme", "a1")
    doc = envelope["instance"]
    curation = doc["live"]["curation"]
    solution = curation.get("solution") or {}
    return (
        envelope["version"],
        len(doc["photos"]),
        solution.get("selection"),
    )


def _without_timing(doc):
    return {k: v for k, v in doc.items() if k != "seconds"}


def _force_compaction(monkeypatch):
    """Make every live commit write a full base through ``put``."""
    monkeypatch.setattr(live_manager, "COMPACT_FRACTION", 0.0)


KILL_SITES = [
    "live.append",       # before any state is touched
    "live.resolve",      # archive grown in memory, nothing durable yet
    "tenantstore.append",  # before the log record is written
    "tenantstore.write", # inside the store's temp-file write (compaction)
    "tenantstore.replace",  # after the write, before the atomic rename
]


@pytest.mark.parametrize("site", KILL_SITES)
def test_kill_mid_ingestion_never_tears_the_store(tenants, monkeypatch, site):
    if site.startswith("tenantstore.") and site != "tenantstore.append":
        _force_compaction(monkeypatch)
    manager, created = _fresh(tenants)
    before = _stored_state(tenants)
    assert before[0] == created["version"]

    dc, de = _delta()
    plan = FaultPlan(seed=CHAOS_SEED).on(site, "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            manager.ingest("acme", "a1", dc, de)
        assert plan.fired(site) == 1

    # Old version, old photo count, old solution — completely intact.
    assert _stored_state(tenants) == before
    # And a reopened store (full crash recovery) agrees.
    reopened = Tenants(str(tenants.store.root), sweep=False)
    try:
        assert _stored_state(reopened) == before
    finally:
        reopened.close()

    # The retry (new manager = post-crash process) lands the delta whole.
    retry = LiveManager(tenants)
    out = retry.ingest("acme", "a1", dc, de)
    assert out["version"] == before[0] + 1
    after = _stored_state(tenants)
    assert after[1] == before[1] + len(dc)
    assert after[2] == out["solution"]["selection"]


def test_killed_ingestion_retry_is_bit_identical(tenants, monkeypatch):
    """The delta is deterministic: crash + retry == never crashed."""
    _force_compaction(monkeypatch)
    manager, _ = _fresh(tenants, seed=7)
    dc, de = _delta(5, seed=44)

    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.replace", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            manager.ingest("acme", "a1", dc, de)
    crashed_then_retried = LiveManager(tenants).ingest("acme", "a1", dc, de)

    # A parallel universe where the crash never happened.
    other = Tenants(str(tenants.store.root) + "-clean", sweep=False)
    try:
        clean_manager = LiveManager(other)
        costs, emb = synthetic_archive(200, dim=8, seed=7)
        clean_manager.create(
            "acme", "a1", costs, emb, float(costs.sum()) * 0.25, tau=0.6, seed=7
        )
        clean = clean_manager.ingest("acme", "a1", dc, de)
    finally:
        other.close()

    assert _without_timing(crashed_then_retried["solution"]) == _without_timing(
        clean["solution"]
    )
    assert _without_timing(crashed_then_retried["delta"]) == _without_timing(
        clean["delta"]
    )


def test_corrupt_store_write_is_quarantined_not_served(tmp_path, monkeypatch):
    """A corrupt record (the append path) is cut and the previous version
    serves; a corrupt base (the compaction path) reads as missing."""
    for path in ("append", "compaction"):
        if path == "compaction":
            _force_compaction(monkeypatch)
        root = str(tmp_path / path)
        tenants = Tenants(root, sweep=False)
        try:
            manager, _ = _fresh(tenants)
            before = _stored_state(tenants)
            site = "tenantstore.append" if path == "append" else "tenantstore.write"
            plan = FaultPlan(seed=CHAOS_SEED).on(site, "corrupt")
            with faults.armed(plan):
                manager.ingest("acme", "a1", *_delta())  # the write "succeeds"...
                assert plan.fired(site) == 1
        finally:
            tenants.close()
        # ...but a fresh process finds the corruption instead of serving it.
        reopened = Tenants(root, sweep=False)
        try:
            if path == "compaction":
                # A corrupt base is indistinguishable from a missing one.
                with pytest.raises(InstanceNotFound):
                    LiveManager(reopened).status("acme", "a1")
            else:
                # A corrupt record is cut: the previous version is served.
                assert reopened.store.quarantined_count == 1
                assert os.path.exists(
                    os.path.join(root, "acme", "a1.inst.log.quarantine")
                )
                assert _stored_state(reopened) == before
                status = LiveManager(reopened).status("acme", "a1")
                assert (status.version, status.n_photos) == before[:2]
        finally:
            reopened.close()


def test_killed_sweep_leaves_manager_state_intact(tenants):
    manager, _ = _fresh(tenants)
    dc, de = _delta(3)
    manager.ingest("acme", "a1", dc, de, resolve="none")
    before = _stored_state(tenants)

    sched = RecurationScheduler(
        manager, debounce_seconds=0.0, regret_threshold=10.0
    )
    sched.track("acme", "a1")
    plan = FaultPlan(seed=CHAOS_SEED).on("live.sweep", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            sched.sweep_once()
    assert _stored_state(tenants) == before

    # The next sweep (fault cleared) performs the deferred curation.
    actions = sched.sweep_once()
    assert actions["warm"] == 1
    assert manager.status("acme", "a1").pending_deltas == 0


def test_kill_during_recurate_keeps_stale_solution_serving(tenants):
    manager, created = _fresh(tenants)
    dc, de = _delta(4)
    manager.ingest("acme", "a1", dc, de, resolve="none")
    before = _stored_state(tenants)

    plan = FaultPlan(seed=CHAOS_SEED).on("live.resolve", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            manager.recurate("acme", "a1", kind="full")
    assert _stored_state(tenants) == before
    # The stale-but-valid solution is still what status reports.
    status = LiveManager(tenants).status("acme", "a1")
    assert status.solution["selection"] == before[2]
    assert status.pending_deltas == 1


def test_transient_append_fault_raises_cleanly(tenants):
    """A non-fatal raise at the ingestion entry surfaces as an error and
    leaves the pipeline reusable (no lock leak, no partial state)."""
    manager, _ = _fresh(tenants)
    dc, de = _delta()
    plan = FaultPlan(seed=CHAOS_SEED).on("live.append", "raise")
    with faults.armed(plan):
        with pytest.raises(OSError):
            manager.ingest("acme", "a1", dc, de)
        # Same manager, same process: the key lock was released and the
        # next attempt (fault exhausted) succeeds.
        out = manager.ingest("acme", "a1", dc, de)
    assert out["version"] == 2


# ------------------------------------------------------------ the log append


def _archive_arrays(tenants):
    """Every array of the stored archive (base plus folded log)."""
    doc = tenants.get_instance("acme", "a1")["instance"]
    archive = LiveArchive.from_doc(doc)
    sim = archive.instance.subsets[0].similarity
    return [
        archive.instance.costs,
        archive.instance.embeddings,
        archive.band_keys,
        *sim.csr(),
        archive.instance.subsets[0].relevance,
    ], doc["live"]["curation"]["solution"]["selection"]


@pytest.mark.parametrize("when", ["before", "during", "corrupt"])
def test_killed_append_reads_old_and_retries_bit_identical(tenants, when):
    """A kill before the record write leaves nothing; a kill during it
    leaves a torn record, and a corrupted write a record that fails its
    CRC — the next process cuts both.  Either way the old version serves,
    and the retried delta equals a never-crashed run."""
    manager, _ = _fresh(tenants, seed=7)
    manager.ingest("acme", "a1", *_delta(4, seed=12))  # a log to append to
    before = _stored_state(tenants)
    dc, de = _delta(5, seed=44)
    log = os.path.join(tenants.store.root, "acme", "a1.inst.log")
    if when == "before":
        plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append", "kill")
        with faults.armed(plan):
            with pytest.raises(ProcessKilled):
                manager.ingest("acme", "a1", dc, de)
    elif when == "corrupt":
        plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append", "corrupt")
        with faults.armed(plan):
            manager.ingest("acme", "a1", dc, de)
        assert plan.fired("tenantstore.append") == 1
    else:
        good = os.path.getsize(log)
        manager.ingest("acme", "a1", dc, de)
        grown = os.path.getsize(log)
        # The process died with part of the record on disk.
        cut = good + 1 + (CHAOS_SEED * 7919) % (grown - good - 1)
        with open(log, "r+b") as fh:
            fh.truncate(cut)

    crashed = Tenants(str(tenants.store.root), sweep=False)
    try:
        assert _stored_state(crashed) == before
        assert crashed.store.quarantined_count == (0 if when == "before" else 1)
        retried = LiveManager(crashed).ingest("acme", "a1", dc, de)
        crashed_arrays, crashed_selection = _archive_arrays(crashed)
    finally:
        crashed.close()

    other = Tenants(str(tenants.store.root) + "-clean", sweep=False)
    try:
        clean_manager, _ = _fresh(other, seed=7)
        clean_manager.ingest("acme", "a1", *_delta(4, seed=12))
        clean = clean_manager.ingest("acme", "a1", dc, de)
        clean_arrays, clean_selection = _archive_arrays(other)
    finally:
        other.close()

    assert retried["version"] == clean["version"] == before[0] + 1
    assert _without_timing(retried["solution"]) == _without_timing(clean["solution"])
    assert _without_timing(retried["delta"]) == _without_timing(clean["delta"])
    assert crashed_selection == clean_selection
    for got, want in zip(crashed_arrays, clean_arrays):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dropped_append_fsync_is_silent_without_a_crash(tenants):
    manager, _ = _fresh(tenants)
    dc, de = _delta()
    plan = FaultPlan(seed=CHAOS_SEED).on("tenantstore.append_fsync", "drop")
    with faults.armed(plan):
        out = manager.ingest("acme", "a1", dc, de)
        assert plan.fired("tenantstore.append_fsync") == 1
    # No crash followed the dropped fsync, so the record is still there.
    reopened = Tenants(str(tenants.store.root), sweep=False)
    try:
        assert _stored_state(reopened) == (
            out["version"], 200 + len(dc), out["solution"]["selection"]
        )
    finally:
        reopened.close()

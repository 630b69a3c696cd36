"""Tests for the tenant store's append-only log and the live fold.

A live upload appends one CRC-framed record to ``<id>.inst.log`` instead
of rewriting the archive; compaction writes a new base once the log
would pass ``COMPACT_FRACTION`` of it.  These tests pin the contract:

* a reload (new process on the same root) folds the log into exactly the
  archive the resident copy holds, across compactions, and any split of
  the same photos into uploads folds to the same archive;
* a hostile or damaged record is cut (quarantined), never served, and
  never answers 500 — the instance reads at its last good version;
* the quota counts the log, ``delete`` and ``PUT`` remove it, and a stale
  log left by a crash between a base rename and the log removal is
  ignored;
* a write computed from an older version is refused with 409
  (:class:`~repro.errors.VersionConflict`) rather than overwriting a
  concurrent ``PUT``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import instance_to_dict, json_default
from repro.errors import ValidationError, VersionConflict
from repro.live import LiveArchive, LiveManager
from repro.live import manager as live_manager
from repro.scale import synthetic_archive
from repro.system.service import ServiceContext, handle_request
from repro.tenants import Tenants, TenantQuota
from repro.tenants import store as store_mod

from tests.conftest import random_instance

N0, K, DIM = 120, 8, 8


@pytest.fixture
def tenants(tmp_path):
    t = Tenants(str(tmp_path / "root"), sweep=False)
    yield t
    t.close()


def _photos(total, seed=5):
    return synthetic_archive(total, dim=DIM, clusters=6, seed=seed)


def _create(manager, costs, emb, *, n=N0, seed=5):
    return manager.create(
        "acme", "a1", costs[:n], emb[:n], float(costs[:n].sum()) * 0.3,
        tau=0.6, seed=seed,
    )


def _upload(manager, costs, emb, lo, hi, **kw):
    return manager.ingest("acme", "a1", costs[lo:hi], emb[lo:hi], **kw)


def _log_path(tenants):
    return os.path.join(tenants.store.root, "acme", "a1.inst.log")


def _arrays(archive):
    inst = archive.instance
    q = inst.subsets[0]
    indptr, cols, vals = q.similarity.csr()
    return {
        "costs": inst.costs,
        "embeddings": inst.embeddings,
        "indptr": indptr,
        "indices": cols,
        "values": vals,
        "relevance": q.relevance,
        "raw_relevance": archive.raw_relevance,
        "band_keys": archive.band_keys,
    }


def _assert_same_archive(got, want):
    assert got.n == want.n
    got_arrays, want_arrays = _arrays(got), _arrays(want)
    for name, arr in want_arrays.items():
        assert got_arrays[name].dtype == arr.dtype, name
        assert np.array_equal(got_arrays[name], arr), name


def _resident(manager):
    return manager._resident[("acme", "a1")]


def _reloaded_entry(root):
    """The entry a brand-new process loads for acme/a1."""
    fresh = Tenants(root, sweep=False)
    try:
        manager = LiveManager(fresh)
        manager.status("acme", "a1")
        return _resident(manager)
    finally:
        fresh.close()


# ------------------------------------------------------------ reload = resident


def test_reload_across_compactions_equals_the_resident_archive(tenants, monkeypatch):
    # A fraction small enough that a few uploads cross a compaction.
    monkeypatch.setattr(live_manager, "COMPACT_FRACTION", 0.3)
    costs, emb = _photos(N0 + 16 * K)
    manager = LiveManager(tenants)
    _create(manager, costs, emb)
    log_sizes = []
    for j in range(16):
        _upload(manager, costs, emb, N0 + j * K, N0 + (j + 1) * K)
        log_sizes.append(tenants.store.meta("acme", "a1").log_records)
        # Stop once a compaction has happened (the log emptied after
        # growing) and the log is non-empty again, so the reload folds.
        if 0 in log_sizes[1:] and log_sizes[-1] >= 1:
            break
    assert 0 in log_sizes[1:] and max(log_sizes) >= 2 and log_sizes[-1] >= 1

    resident = _resident(manager)
    loaded = _reloaded_entry(tenants.store.root)
    assert loaded.version == resident.version
    _assert_same_archive(loaded.archive, resident.archive)
    for field in ("selection", "value", "regret_bound"):
        assert getattr(loaded.solution, field) == getattr(resident.solution, field)
    assert loaded.meta_dict() == resident.meta_dict()


def test_compacted_reload_equals_uncompacted(tmp_path, monkeypatch):
    costs, emb = _photos(N0 + 5 * K)
    loaded = {}
    for name, fraction in (("logged", 1e9), ("compacted", 0.0)):
        monkeypatch.setattr(live_manager, "COMPACT_FRACTION", fraction)
        root = str(tmp_path / name)
        t = Tenants(root, sweep=False)
        try:
            manager = LiveManager(t)
            _create(manager, costs, emb)
            for j in range(5):
                _upload(manager, costs, emb, N0 + j * K, N0 + (j + 1) * K)
            meta = t.store.meta("acme", "a1")
            assert (meta.log_records == 5) == (name == "logged")
            doc = t.get_instance("acme", "a1")
        finally:
            t.close()
        loaded[name] = (_reloaded_entry(root), doc)
    (logged, logged_doc), (compacted, compacted_doc) = loaded["logged"], loaded["compacted"]
    assert logged.version == compacted.version == 6
    _assert_same_archive(logged.archive, compacted.archive)
    untimed = [
        {k: v for k, v in entry.meta_dict()["solution"].items() if k != "seconds"}
        for entry in (logged, compacted)
    ]
    assert untimed[0] == untimed[1]
    # GET serves the same document either way (curation timestamps aside).
    docs = []
    for envelope in (logged_doc, compacted_doc):
        doc = dict(envelope["instance"])
        doc["live"] = {k: v for k, v in doc["live"].items() if k != "curation"}
        docs.append(json.dumps(doc, default=json_default))
    assert docs[0] == docs[1]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cuts=st.lists(st.integers(1, 3 * K - 1), max_size=4, unique=True))
def test_any_split_into_uploads_folds_to_the_same_archive(tmp_path, cuts):
    costs, emb = _photos(N0 + 3 * K, seed=9)
    bounds = [N0, *sorted(N0 + c for c in cuts), N0 + 3 * K]
    root = str(tmp_path / f"split-{'-'.join(map(str, bounds))}")
    shutil.rmtree(root, ignore_errors=True)
    t = Tenants(root, sweep=False)
    try:
        manager = LiveManager(t)
        _create(manager, costs, emb, seed=9)
        for lo, hi in zip(bounds, bounds[1:]):
            _upload(manager, costs, emb, lo, hi, resolve="none")
    finally:
        t.close()
    folded = _reloaded_entry(root).archive
    whole, _ = LiveArchive.create(
        costs, emb, float(costs[:N0].sum()) * 0.3, tau=0.6, seed=9,
        n_bits=folded.n_bits,
    )
    _assert_same_archive(folded, whole)


# ------------------------------------------------------------- hostile records


def _live_with_log(tenants):
    """A live archive at version 3 (base 1 + two logged uploads)."""
    costs, emb = _photos(N0 + 3 * K)
    manager = LiveManager(tenants)
    _create(manager, costs, emb)
    _upload(manager, costs, emb, N0, N0 + K)
    _upload(manager, costs, emb, N0 + K, N0 + 2 * K)
    meta = tenants.store.meta("acme", "a1")
    assert (meta.version, meta.log_records) == (3, 2)
    return manager, costs, emb


def _state(tenants):
    doc = tenants.get_instance("acme", "a1")
    return doc["version"], len(doc["instance"]["photos"])


def _hostile(tenants, manager, costs, emb, edit):
    """Append the next upload's record with ``edit`` applied to it."""
    archive = _resident(manager).archive
    delta, _ = archive.delta(costs[N0 + 2 * K :], emb[N0 + 2 * K :])
    record = delta.to_record()
    record["curation"] = _resident(manager).meta_dict()
    edit(record)
    tenants.store.append("acme", "a1", record, expect_version=3)


def _old_only(record):
    pairs = record["pairs"]
    pairs["rows"] = np.array([0], dtype=np.int64)
    pairs["cols"] = np.array([1], dtype=np.int64)
    pairs["vals"] = np.array([0.9])


def _out_of_range(record):
    record["pairs"]["cols"] = record["pairs"]["cols"].copy()
    record["pairs"]["cols"][0] = 10**6


def _non_finite(record):
    record["costs"] = record["costs"].copy()
    record["costs"][0] = np.nan


def _nan_similarity(record):
    record["pairs"]["vals"] = np.full_like(record["pairs"]["vals"], np.nan)


def _bad_curation(record):
    record["curation"] = {"solution": {"selection": "nope"}}


def _wide_band_key(record):
    # Past any band's rows: narrowing it would wrap it into another bucket.
    record["band_keys"] = record["band_keys"].copy()
    record["band_keys"][0, 0] = np.iinfo(np.uint64).max


def _wrapped_band_key(record):
    # A negative key a cast to uint64 would wrap past the rows.
    record["band_keys"] = record["band_keys"].astype(np.int64)
    record["band_keys"][0, 0] = -1


HOSTILE = {
    "old-only-pairs": _old_only,
    "out-of-range": _out_of_range,
    "non-finite-cost": _non_finite,
    "non-finite-similarity": _nan_similarity,
    "bad-curation": _bad_curation,
    "wide-band-key": _wide_band_key,
    "wrapped-band-key": _wrapped_band_key,
}


def _read_all(tenants, first):
    """GET, a ``by_ref`` solve and live status, ``first`` reading first
    (it meets the hostile record and cuts it); each answers version 3."""
    by_ref = json.dumps({"by_ref": {"tenant": "acme", "instance_id": "a1"}}).encode()
    readers = {
        "get": lambda: handle_request(
            "GET", "/tenants/acme/instances/a1", None, ServiceContext(tenants=tenants)
        ),
        "solve": lambda: handle_request(
            "POST", "/solve", by_ref, ServiceContext(tenants=tenants)
        ),
        "live": lambda: handle_request(
            "GET",
            "/tenants/acme/instances/a1/live",
            None,
            ServiceContext(tenants=tenants, live=LiveManager(tenants)),
        ),
    }
    for name in [first, *(r for r in readers if r != first)]:
        status, doc = readers[name]()
        assert status == 200, (name, doc)
        if name == "get":
            assert doc["version"] == 3
            assert len(doc["instance"]["photos"]) == N0 + 2 * K
        elif name == "live":
            assert (doc["version"], doc["n_photos"]) == (3, N0 + 2 * K)


@pytest.mark.parametrize(
    "case, first",
    [(case, ("get", "solve", "live")[i % 3]) for i, case in enumerate(sorted(HOSTILE))],
)
def test_hostile_record_is_cut_never_served(tenants, case, first):
    manager, costs, emb = _live_with_log(tenants)
    _hostile(tenants, manager, costs, emb, HOSTILE[case])
    assert tenants.store.meta("acme", "a1").version == 4
    _read_all(tenants, first)
    assert tenants.store.quarantined_count == 1
    assert tenants.store.meta("acme", "a1").version == 3
    assert os.path.getsize(_log_path(tenants) + ".quarantine") > 0
    # The next upload lands on the good prefix, as version 4.
    out = LiveManager(tenants).ingest(
        "acme", "a1", costs[N0 + 2 * K :], emb[N0 + 2 * K :]
    )
    assert out["version"] == 4
    assert _state(tenants) == (4, N0 + 3 * K)


def test_record_with_a_bad_crc_is_cut_at_scan(tenants):
    manager, costs, emb = _live_with_log(tenants)
    log = _log_path(tenants)
    with open(log, "r+b") as fh:
        fh.seek(os.path.getsize(log) - 3)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x10]))
    reopened = Tenants(tenants.store.root, sweep=False)
    try:
        assert reopened.store.quarantined_count == 1
        assert reopened.store.meta("acme", "a1").version == 2
        assert _state(reopened) == (2, N0 + K)
    finally:
        reopened.close()


def test_record_with_a_wrong_version_is_cut(tenants):
    manager, costs, emb = _live_with_log(tenants)
    chunks, size = store_mod._encode_blob(
        {"format": 2, "version": 9, "updated_at": 0.0, "record": {"curation": {}}}
    )
    with open(_log_path(tenants), "ab") as fh:
        fh.write(store_mod._RECORD_LEN.pack(size))
        for chunk in chunks:
            fh.write(chunk)
    reopened = Tenants(tenants.store.root, sweep=False)
    try:
        assert reopened.store.quarantined_count == 1
        assert _state(reopened) == (3, N0 + 2 * K)
    finally:
        reopened.close()


def test_torn_record_in_this_process_is_never_followed(tenants):
    """Bytes past the acknowledged log (a write that failed midway) are
    dropped by the next append instead of being read as a record."""
    manager, costs, emb = _live_with_log(tenants)
    with open(_log_path(tenants), "ab") as fh:
        fh.write(b"\x07torn")
    out = _upload(manager, costs, emb, N0 + 2 * K, N0 + 3 * K)
    assert out["version"] == 4
    reopened = Tenants(tenants.store.root, sweep=False)
    try:
        assert reopened.store.quarantined_count == 0
        assert _state(reopened) == (4, N0 + 3 * K)
    finally:
        reopened.close()


# ---------------------------------------------------------- quota, delete, PUT


def test_quota_counts_the_log_and_an_append_over_it_writes_nothing(tmp_path):
    costs, emb = _photos(N0 + 2 * K)
    probe = Tenants(str(tmp_path / "probe"), sweep=False)
    try:
        manager = LiveManager(probe)
        _create(manager, costs, emb)
        base = probe.store.meta("acme", "a1").nbytes
        _upload(manager, costs, emb, N0, N0 + K)
        one = probe.store.meta("acme", "a1")
        assert one.nbytes == base + one.log_nbytes > base
    finally:
        probe.close()

    quota = TenantQuota(max_bytes=one.nbytes + 64)
    t = Tenants(str(tmp_path / "tight"), sweep=False, quota=quota)
    try:
        manager = LiveManager(t)
        _create(manager, costs, emb)
        _upload(manager, costs, emb, N0, N0 + K)
        meta = t.store.meta("acme", "a1")
        log_size = os.path.getsize(_log_path(t))
        status, doc = handle_request(
            "POST",
            "/tenants/acme/instances/a1/photos",
            json.dumps(
                {"costs": costs[N0 + K :].tolist(), "embeddings": emb[N0 + K :].tolist()}
            ).encode(),
            ServiceContext(tenants=t, live=manager),
        )
        assert status == 413, doc
        assert t.store.meta("acme", "a1") == meta
        assert os.path.getsize(_log_path(t)) == log_size
        assert t.store.stats("acme")["bytes"] == meta.nbytes
    finally:
        t.close()


def test_delete_and_put_over_a_live_id_remove_the_log(tenants):
    for action in ("delete", "put"):
        _live_with_log(tenants)
        assert os.path.exists(_log_path(tenants))
        if action == "delete":
            tenants.delete_instance("acme", "a1")
        else:
            tenants.put_instance("acme", "a1", instance_to_dict(random_instance(3)))
            assert tenants.get_instance("acme", "a1")["version"] == 4
        assert not os.path.exists(_log_path(tenants))
        if action == "put":
            tenants.delete_instance("acme", "a1")


def test_stale_log_is_ignored_then_removed_by_the_next_append(tenants):
    manager, costs, emb = _live_with_log(tenants)
    log = _log_path(tenants)
    with open(log, "rb") as fh:
        stale = fh.read()
    # A compaction that crashed after renaming the base, before removing
    # the log: the log holds versions 2..3, the base is version 4.
    tenants.store.put(
        "acme", "a1", tenants.get_instance("acme", "a1")["instance"],
        expect_version=3,
    )
    with open(log, "wb") as fh:
        fh.write(stale)
    reopened = Tenants(tenants.store.root, sweep=False)
    try:
        meta = reopened.store.meta("acme", "a1")
        assert (meta.version, meta.log_records, meta.log_nbytes) == (4, 0, 0)
        assert reopened.store.quarantined_count == 0
        assert _state(reopened) == (4, N0 + 2 * K)
        out = _upload(LiveManager(reopened), costs, emb, N0 + 2 * K, N0 + 3 * K)
        assert out["version"] == 5
        assert os.path.getsize(log) == reopened.store.meta("acme", "a1").log_nbytes
    finally:
        reopened.close()
    assert _reloaded_entry(tenants.store.root).archive.n == N0 + 3 * K


# ------------------------------------------------------------- version guard


def test_put_during_a_live_upload_wins_and_the_upload_answers_409(
    tenants, monkeypatch
):
    costs, emb = _photos(N0 + K)
    manager = LiveManager(tenants)
    _create(manager, costs, emb)
    plain = instance_to_dict(random_instance(8, n_photos=30))
    real = live_manager.warm_resolve

    def put_then_solve(instance, previous):
        status, _ = handle_request(
            "PUT",
            "/tenants/acme/instances/a1",
            json.dumps({"instance": plain}).encode(),
            ServiceContext(tenants=tenants),
        )
        assert status == 200
        return real(instance, previous)

    monkeypatch.setattr(live_manager, "warm_resolve", put_then_solve)
    body = json.dumps(
        {"costs": costs[N0:].tolist(), "embeddings": emb[N0:].tolist()}
    ).encode()
    status, doc = handle_request(
        "POST",
        "/tenants/acme/instances/a1/photos",
        body,
        ServiceContext(tenants=tenants, live=manager),
    )
    assert status == 409, doc
    assert (doc["expected_version"], doc["version"]) == (1, 2)
    stored = tenants.get_instance("acme", "a1")
    assert stored["version"] == 2
    assert stored["instance"] == plain
    assert ("acme", "a1") not in manager.resident_keys()


def test_recurate_refuses_to_overwrite_a_concurrent_put(tenants, monkeypatch):
    costs, emb = _photos(N0 + K)
    manager = LiveManager(tenants)
    _create(manager, costs, emb)
    _upload(manager, costs, emb, N0, N0 + K, resolve="none")
    plain = instance_to_dict(random_instance(8, n_photos=30))
    real = live_manager.warm_resolve

    def put_then_solve(instance, previous):
        tenants.put_instance("acme", "a1", plain)
        return real(instance, previous)

    monkeypatch.setattr(live_manager, "warm_resolve", put_then_solve)
    assert manager.recurate("acme", "a1") is None
    assert tenants.get_instance("acme", "a1")["instance"] == plain


def test_conditional_store_writes_raise_version_conflict(tenants):
    tenants.store.put("acme", "p", instance_to_dict(random_instance(1)))
    with pytest.raises(VersionConflict):
        tenants.store.put("acme", "p", {"x": 1}, expect_version=2)
    with pytest.raises(VersionConflict):
        tenants.store.append("acme", "p", {"curation": {}}, expect_version=0)
    with pytest.raises(VersionConflict):
        tenants.store.put("acme", "new", {"x": 1}, expect_version=1)
    assert tenants.store.meta("acme", "p").version == 1
    # Unconditional puts (plain client PUTs) still overwrite.
    assert tenants.store.put("acme", "p", {"x": 1}).version == 2


def test_store_rejects_non_object_records(tenants):
    tenants.store.put("acme", "p", instance_to_dict(random_instance(1)))
    with pytest.raises(ValidationError):
        tenants.store.append("acme", "p", [1, 2], expect_version=1)
    assert tenants.store.meta("acme", "p").version == 1


def test_concurrent_uploads_and_reads_keep_every_version(tenants):
    """Uploads and reads from more threads than cores: no write is lost,
    no read fails, and a reload still equals each resident archive."""
    import sys
    import threading

    manager = LiveManager(tenants)
    photos = {}
    for name, seed in (("a1", 5), ("a2", 6)):
        costs, emb = _photos(N0 + 6 * K, seed=seed)
        manager.create(
            "acme", name, costs[:N0], emb[:N0], float(costs[:N0].sum()) * 0.3,
            tau=0.6, seed=seed,
        )
        photos[name] = (costs, emb)
    errors = []

    def upload(name):
        costs, emb = photos[name]
        try:
            for j in range(6):
                lo = N0 + j * K
                manager.ingest("acme", name, costs[lo : lo + K], emb[lo : lo + K])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def read(name):
        try:
            last = 0
            for _ in range(12):
                version = tenants.get_instance("acme", name)["version"]
                assert version >= last
                last = version
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=fn, args=(name,))
            for name in ("a1", "a2")
            for fn in (upload, read)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    for name in ("a1", "a2"):
        assert tenants.store.meta("acme", name).version == 7
        fresh = Tenants(tenants.store.root, sweep=False)
        try:
            loaded = LiveManager(fresh)
            loaded.status("acme", name)
            _assert_same_archive(
                loaded._resident[("acme", name)].archive,
                manager._resident[("acme", name)].archive,
            )
        finally:
            fresh.close()

"""Tests for the multi-tenant archive store (repro.tenants).

Covers the persistent store (CRUD, versioning, CRC quarantine, quotas,
the format-2 binary tail, hostile blobs, format-1 golden fixtures), the
token-bucket rate limiter, the shared-memory warm cache (hit/miss, leases
vs eviction, leak-free unlinking, the startup sweep), and the
:class:`Tenants` facade the service wires in.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import instance_from_dict, instance_to_dict
from repro.core.solver import solve
from repro.errors import (
    InstanceNotFound,
    QuotaExceeded,
    RateLimited,
    ValidationError,
)
from repro.live import LiveArchive, LiveManager, warm_resolve
from repro.scale import synthetic_archive
from repro.system.service import ServiceContext, handle_request
from repro.tenants import Tenants, TenantQuota, parse_ref, validate_id
from repro.tenants import store as store_mod
from repro.tenants.cache import WarmCache, sweep_leaked_segments
from repro.tenants.quota import QuotaPolicy, TokenBucket
from repro.tenants.store import TenantStore

from tests.conftest import random_instance

FIXTURES = Path(__file__).parent / "data" / "tenants"


def _doc(seed=0, **kw):
    return instance_to_dict(random_instance(seed, **kw))


def _shm_segments(prefix):
    return glob.glob(f"/dev/shm/{prefix}-*")


# ----------------------------------------------------------------- identifiers


def test_validate_id_accepts_sane_names():
    for good in ("acme", "a", "A-1_b.2", "x" * 64):
        assert validate_id(good, "id") == good


@pytest.mark.parametrize(
    "bad",
    ["", ".", "..", ".hidden", "a/b", "../x", "a b", "x" * 65, None, 7],
)
def test_validate_id_rejects_path_hazards(bad):
    with pytest.raises(ValidationError):
        validate_id(bad, "id")


def test_parse_ref_shapes():
    assert parse_ref({"tenant": "t", "instance_id": "i"}) == ("t", "i", None)
    assert parse_ref({"tenant": "t", "instance_id": "i", "version": 3}) == (
        "t",
        "i",
        3,
    )
    for bad in (
        None,
        [],
        {"tenant": "t"},
        {"tenant": "t", "instance_id": "i", "version": 0},
        {"tenant": "t", "instance_id": "i", "version": True},
        {"tenant": "t", "instance_id": "i", "extra": 1},
    ):
        with pytest.raises(ValidationError):
            parse_ref(bad)


# ----------------------------------------------------------------------- store


def test_store_put_get_roundtrip_and_versioning(tmp_path):
    store = TenantStore(str(tmp_path))
    doc = _doc(1)
    meta1 = store.put("acme", "p", doc)
    assert (meta1.version, meta1.tenant, meta1.instance_id) == (1, "acme", "p")
    envelope = store.get("acme", "p")
    assert envelope["instance"] == doc
    assert envelope["version"] == 1

    meta2 = store.put("acme", "p", _doc(2))
    assert meta2.version == 2
    assert meta2.created_at == meta1.created_at
    assert store.get("acme", "p")["version"] == 2


def test_store_index_survives_restart(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "a", _doc(1))
    store.put("acme", "b", _doc(2))
    store.put("globex", "a", _doc(3))
    store.put("acme", "a", _doc(4))  # bump to v2

    reopened = TenantStore(str(tmp_path))
    assert reopened.tenants() == ["acme", "globex"]
    assert [m.instance_id for m in reopened.list_instances("acme")] == ["a", "b"]
    assert reopened.meta("acme", "a").version == 2
    assert reopened.quarantined_count == 0


def test_store_missing_instance_raises_not_found(tmp_path):
    store = TenantStore(str(tmp_path))
    with pytest.raises(InstanceNotFound):
        store.get("acme", "nope")
    with pytest.raises(InstanceNotFound):
        store.delete("acme", "nope")


def test_store_corrupt_blob_is_quarantined_not_deleted(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", _doc(1))
    path = tmp_path / "acme" / "p.inst"
    blob = bytearray(path.read_bytes())
    blob[15] ^= 0xFF  # flip a payload bit: CRC must catch it
    path.write_bytes(bytes(blob))

    with pytest.raises(InstanceNotFound):
        store.get("acme", "p")
    assert not path.exists()
    assert (tmp_path / "acme" / "p.inst.quarantine").exists()
    assert store.quarantined_count == 1
    assert store.list_instances("acme") == []  # dropped from the index


def test_store_scan_quarantines_corrupt_files(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "good", _doc(1))
    (tmp_path / "acme" / "bad.inst").write_bytes(b"not an envelope at all\n")

    reopened = TenantStore(str(tmp_path))
    assert [m.instance_id for m in reopened.list_instances("acme")] == ["good"]
    assert reopened.quarantined_count == 1
    assert (tmp_path / "acme" / "bad.inst.quarantine").exists()


def test_store_delete_removes_file_and_index(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", _doc(1))
    meta = store.delete("acme", "p")
    assert meta.version == 1
    assert not (tmp_path / "acme" / "p.inst").exists()
    assert store.tenants() == []


def test_store_byte_quota_rejects_before_writing(tmp_path):
    small = _doc(1, n_photos=8)
    store = TenantStore(str(tmp_path))
    nbytes = store.put("probe", "p", small).nbytes

    quota = QuotaPolicy(TenantQuota(max_bytes=nbytes * 2 + 64))
    limited = TenantStore(str(tmp_path / "q"), quota_policy=quota)
    limited.put("acme", "a", small)
    limited.put("acme", "b", small)
    with pytest.raises(QuotaExceeded) as exc:
        limited.put("acme", "c", small)
    assert exc.value.kind == "bytes"
    assert not (tmp_path / "q" / "acme" / "c.inst").exists()
    # Overwriting an existing instance only counts the delta: still allowed.
    assert limited.put("acme", "a", small).version == 2
    # Other tenants are unaffected.
    limited.put("globex", "a", small)


def test_store_instance_count_quota(tmp_path):
    quota = QuotaPolicy(TenantQuota(max_instances=2))
    store = TenantStore(str(tmp_path), quota_policy=quota)
    store.put("acme", "a", _doc(1))
    store.put("acme", "b", _doc(2))
    with pytest.raises(QuotaExceeded) as exc:
        store.put("acme", "c", _doc(3))
    assert exc.value.kind == "instances"
    store.put("acme", "a", _doc(4))  # overwrite is not a new instance
    store.delete("acme", "b")
    store.put("acme", "c", _doc(3))  # freed slot is reusable


# ------------------------------------------------------------ format 2 blobs


def _split(blob: bytes):
    """``(table, body, tail)`` of a format-2 blob, the tail unpadded."""
    _, _, head_len = store_mod._PREFIX.unpack_from(blob)
    head = blob[store_mod._PREFIX.size : store_mod._PREFIX.size + head_len]
    table, body = head.split(b"\n", 1)
    tail_start = store_mod._aligned(store_mod._PREFIX.size + head_len)
    return json.loads(table), body, blob[tail_start:]


def _frame(head: bytes, tail: bytes) -> bytes:
    """A format-2 blob with a valid CRC around raw head bytes and a tail."""
    size = store_mod._PREFIX.size + len(head)
    rest = head + bytes(store_mod._aligned(size) - size) + tail
    prefix = store_mod._PREFIX.pack(store_mod._MAGIC, zlib.crc32(rest), len(head))
    return prefix + rest


def _reframe(table, body: bytes, tail: bytes) -> bytes:
    """A format-2 blob with a valid CRC around an arbitrary table, body and
    tail."""
    return _frame(json.dumps(table, separators=(",", ":")).encode() + b"\n" + body, tail)


def _live_doc(n=40):
    """A small live archive's document: int64, uint64, float64 and float32
    arrays."""
    costs, emb = synthetic_archive(n, dim=8, seed=12)
    archive, _ = LiveArchive.create(
        costs, emb, float(costs.sum()) * 0.3, tau=0.6, seed=1, dtype=np.float32
    )
    return archive.to_doc()


@pytest.fixture(scope="module")
def live_blob(tmp_path_factory):
    root = tmp_path_factory.mktemp("blob")
    TenantStore(str(root)).put("acme", "p", _live_doc())
    return (root / "acme" / "p.inst").read_bytes()


def test_store_round_trips_every_array_exactly(tmp_path):
    doc = _live_doc()
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", doc)
    blob = (tmp_path / "acme" / "p.inst").read_bytes()
    assert blob[:8] == store_mod._MAGIC
    table, body, _ = _split(blob)
    assert {name for name, _, _ in table} == {"int64", "uint64", "float64", "float32"}
    assert all(offset % 8 == 0 for _, _, offset in table)

    got = TenantStore(str(tmp_path)).get("acme", "p")["instance"]
    sim, got_sim = doc["subsets"][0]["similarity"], got["subsets"][0]["similarity"]
    pairs = [(sim[k], got_sim[k]) for k in ("indptr", "indices", "values")]
    pairs += [(doc["embeddings"], got["embeddings"])]
    pairs += [(doc["live"][k], got["live"][k]) for k in ("raw_relevance", "band_keys")]
    for sent, back in pairs:
        assert back.dtype == sent.dtype and back.shape == sent.shape
        assert np.array_equal(back, sent)
        assert back.flags.writeable
    assert got["photos"] == doc["photos"]


def test_store_tail_takes_odd_arrays(tmp_path):
    store = TenantStore(str(tmp_path))
    store.put(
        "acme",
        "p",
        {
            "odd_float32": np.arange(3, dtype=np.float32),  # pads the next
            "strided": np.arange(10.0)[::3],
            "empty": np.zeros((0, 3)),
            "scalar": np.array(7, dtype=np.uint64),
            "big_endian": np.arange(3, dtype=">i8"),
            "int32": np.arange(3, dtype=np.int32),  # not a tail dtype
            "np_int": np.int64(4),
        },
    )
    table, _, _ = _split((tmp_path / "acme" / "p.inst").read_bytes())
    assert [offset for _, _, offset in table[:2]] == [0, 16]
    got = TenantStore(str(tmp_path)).get("acme", "p")["instance"]
    assert got["odd_float32"].dtype == np.float32
    assert got["odd_float32"].tolist() == [0.0, 1.0, 2.0]
    assert got["strided"].tolist() == [0.0, 3.0, 6.0, 9.0]
    assert got["empty"].shape == (0, 3)
    assert got["scalar"].shape == () and int(got["scalar"]) == 7
    assert got["big_endian"].tolist() == [0, 1, 2]
    assert got["int32"] == [0, 1, 2] and got["np_int"] == 4


def test_store_writes_plain_documents_as_sent(tmp_path):
    doc = _doc(3)
    store = TenantStore(str(tmp_path))
    store.put("acme", "p", doc)
    table, body, tail = _split((tmp_path / "acme" / "p.inst").read_bytes())
    assert (table, tail) == ([], b"")
    assert json.loads(body)["instance"] == doc


def _flip(pos, bit=0x01):
    def mutate(blob):
        out = bytearray(blob)
        out[pos] ^= bit
        return bytes(out)

    return mutate


def _rewrite(table=None, body=None, tail=None):
    """Edit a blob's table, body or tail, then reframe it with a valid CRC."""

    def mutate(blob):
        tbl, bdy, tl = _split(blob)
        if table:
            table(tbl)
        return _reframe(tbl, body(bdy) if body else bdy, tail(tl) if tail else tl)

    return mutate


def _set_dtype(name):
    def edit(table):
        table[0][0] = name

    return edit


def _grow_last(table):
    table[-1][1][0] += 1


def _overlap(table):
    table[1][2] = table[0][2]


def _misalign(table):
    table[1][2] += 4


_REF0 = json.dumps({store_mod._REF_KEY: 0}, separators=(",", ":")).encode()
_REF1 = json.dumps({store_mod._REF_KEY: 1}, separators=(",", ":")).encode()
_REF99 = json.dumps({store_mod._REF_KEY: 99}, separators=(",", ":")).encode()

HOSTILE = {
    # flipped bits: prefix (magic, CRC, head length), head, tail
    "prefix-magic": _flip(1),
    "prefix-crc": _flip(9),
    "prefix-head-length-low": _flip(12),
    "prefix-head-length-high": _flip(15, 0xFF),
    "head": _flip(store_mod._PREFIX.size + 40),
    "tail": _flip(-1),
    # wrong length, with the CRC left stale and with it recomputed
    "one-byte-short": lambda blob: blob[:-1],
    "trailing-bytes": lambda blob: blob + b"\x00",
    "one-byte-short-crc-ok": _rewrite(tail=lambda tail: tail[:-1]),
    "trailing-bytes-crc-ok": _rewrite(tail=lambda tail: tail + bytes(8)),
    # array references (CRC recomputed: the decoder's own checks)
    "runs-past-tail": _rewrite(table=_grow_last),
    "overlaps-another": _rewrite(table=_overlap),
    "misaligned": _rewrite(table=_misalign),
    "reference-twice": _rewrite(body=lambda body: body.replace(_REF1, _REF0)),
    "reference-out-of-range": _rewrite(
        body=lambda body: body.replace(_REF0, _REF99)
    ),
    "dtype-int32": _rewrite(table=_set_dtype("int32")),
    "dtype-object": _rewrite(table=_set_dtype("object")),
    "dtype-O": _rewrite(table=_set_dtype("O")),
    "dtype-bool": _rewrite(table=_set_dtype("bool")),
    "dtype-not-a-string": _rewrite(table=_set_dtype(8)),
    # a head JSON nests deeper than the parser's recursion limit
    "nested-head": _rewrite(body=lambda body: b"[" * 100_000 + b"]" * 100_000),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_blob_is_quarantined_at_scan_and_get(tmp_path, live_blob, case):
    bad = HOSTILE[case](live_blob)
    assert bad != live_blob

    # At scan: a store opened over the blob never indexes it.
    scan_root = tmp_path / "scan"
    (scan_root / "acme").mkdir(parents=True)
    (scan_root / "acme" / "p.inst").write_bytes(bad)
    store = TenantStore(str(scan_root))
    assert store.quarantined_count == 1
    assert store.list_instances("acme") == []
    assert (scan_root / "acme" / "p.inst.quarantine").read_bytes() == bad
    with pytest.raises(InstanceNotFound):
        store.get("acme", "p")

    # At get, over HTTP: an indexed blob that went bad answers 404.
    tenants = Tenants(str(tmp_path / "get"), sweep=False)
    try:
        tenants.store.put("acme", "p", {"format": 1})
        (tmp_path / "get" / "acme" / "p.inst").write_bytes(bad)
        status, payload = handle_request(
            "GET", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 404 and "error" in payload
        assert tenants.store.quarantined_count == 1
        assert (tmp_path / "get" / "acme" / "p.inst.quarantine").exists()
        status, _ = handle_request(
            "GET", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 404
    finally:
        tenants.close()


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
        min_size=1,
        max_size=3,
    )
)
def test_any_head_with_a_valid_crc_decodes_or_is_rejected(live_blob, edits):
    """Arbitrary head bytes behind a recomputed CRC never raise anything
    but the ``ValueError`` the store turns into a quarantine."""
    _, _, head_len = store_mod._PREFIX.unpack_from(live_blob)
    head = bytearray(live_blob[store_mod._PREFIX.size :][:head_len])
    for where, value in edits:
        head[int(where * len(head))] = value
    tail = _split(live_blob)[2]
    try:
        store_mod._decode_blob(bytearray(_frame(bytes(head), tail)))
    except ValueError:
        pass


def test_document_content_cannot_forge_an_array_reference(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    try:
        doc = _doc(1)
        ref = {store_mod._REF_KEY: 0}
        doc["photos"][0]["metadata"] = ref
        doc["photos"][1]["metadata"] = {"nested": [ref, {store_mod._REF_KEY: 1}]}
        body = json.dumps({"instance": doc}).encode()
        status, _ = handle_request(
            "PUT", "/tenants/acme/instances/p", body, ServiceContext(tenants=tenants)
        )
        assert status == 201
        status, got = handle_request(
            "GET", "/tenants/acme/instances/p", None, ServiceContext(tenants=tenants)
        )
        assert status == 200 and got["instance"] == doc

        # Beside real arrays, content holding the reference key stays
        # content, and the arrays still round-trip.
        tenants.store.put("acme", "m", {"a": np.arange(4.0), "meta": ref})
        back = TenantStore(str(tmp_path)).get("acme", "m")["instance"]
        assert back["meta"] == ref
        assert np.asarray(back["a"]).tolist() == [0.0, 1.0, 2.0, 3.0]
    finally:
        tenants.close()


# --------------------------------------------------------- format-1 fixtures
#
# tests/data/tenants/acme/{plain,live}.inst were written by the format-1
# store (CRC-hex-framed JSON, before the binary tail existed) with:
#
#   tenants.put_instance("acme", "plain", instance_to_dict(
#       random_instance(11, n_photos=40, retained=2)))
#   costs, emb = synthetic_archive(166, dim=8, clusters=6, seed=5)
#   LiveManager(tenants).create("acme", "live", costs[:150], emb[:150],
#       float(costs[:150].sum()) * 0.2, tau=0.8, seed=3)
#
# Photos 150..165 of the same draw are the delta ingested below.


def _fixture_root(tmp_path) -> Path:
    root = tmp_path / "tenants"
    shutil.copytree(FIXTURES, root)
    return root


def _format1_envelope(instance_id):
    """The envelope a format-1 fixture holds, parsed without the store."""
    raw = (FIXTURES / "acme" / f"{instance_id}.inst").read_bytes()
    assert int(raw[:8], 16) == zlib.crc32(raw[9:].rstrip(b"\n"))
    return json.loads(raw[9:])


def test_format1_fixtures_are_indexed_and_read_unchanged(tmp_path):
    store = TenantStore(str(_fixture_root(tmp_path)))
    assert store.quarantined_count == 0
    assert [m.instance_id for m in store.list_instances("acme")] == ["live", "plain"]
    for instance_id in ("plain", "live"):
        assert store.get("acme", instance_id) == _format1_envelope(instance_id)
    assert store.get("acme", "plain")["instance"] == instance_to_dict(
        random_instance(11, n_photos=40, retained=2)
    )


@pytest.mark.parametrize("instance_id", ["plain", "live"])
def test_format1_fixture_by_ref_solve_matches_its_document(tmp_path, instance_id):
    tenants = Tenants(str(_fixture_root(tmp_path)), sweep=False)
    try:
        doc = _format1_envelope(instance_id)["instance"]
        expected = solve(instance_from_dict(doc))
        ref = {"tenant": "acme", "instance_id": instance_id}
        with tenants.lease_for_solve(ref) as (view, hit):
            got = solve(view)
        assert not hit
        assert got.selection == expected.selection
        assert got.value == expected.value
    finally:
        tenants.close()


def test_format1_live_fixture_ingests_like_the_library_chain(tmp_path):
    root = _fixture_root(tmp_path)
    costs, emb = synthetic_archive(166, dim=8, clusters=6, seed=5)
    delta = (costs[150:], emb[150:])
    parent = _format1_envelope("live")

    tenants = Tenants(str(root), sweep=False)
    try:
        out = LiveManager(tenants).ingest("acme", "live", *delta)
    finally:
        tenants.close()
    grown, _ = LiveArchive.from_doc(parent["instance"]).ingest(*delta)
    previous = parent["instance"]["live"]["curation"]["solution"]["selection"]
    expected = warm_resolve(grown.instance, previous)
    assert out["solution"]["selection"] == [int(p) for p in expected.selection]
    assert out["solution"]["value"] == expected.value
    assert out["regret_bound"] == expected.regret_bound

    # The commit is a format-2 blob at version + 1 holding the same arrays.
    assert out["version"] == parent["version"] + 1
    assert (root / "acme" / "live.inst").read_bytes()[:8] == store_mod._MAGIC
    envelope = TenantStore(str(root)).get("acme", "live")
    assert envelope["version"] == parent["version"] + 1
    stored = LiveArchive.from_doc(envelope["instance"])
    got_csr = stored.instance.subsets[0].similarity.csr()
    for got, want in zip(got_csr, grown.instance.subsets[0].similarity.csr()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(stored.band_keys, grown.band_keys)
    assert np.array_equal(stored.instance.embeddings, grown.instance.embeddings)


# ------------------------------------------------------------------ rate limit


def test_token_bucket_refills_continuously():
    clock = [0.0]
    bucket = TokenBucket(rate_per_second=2.0, burst=2, clock=lambda: clock[0])
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is None
    retry = bucket.try_acquire()
    assert retry == pytest.approx(0.5)
    clock[0] += 0.5  # one token refilled
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is not None


def test_quota_policy_rate_limits_per_tenant():
    clock = [0.0]
    policy = QuotaPolicy(
        TenantQuota(rate_per_second=1.0, burst=1), clock=lambda: clock[0]
    )
    policy.check_rate("acme")
    with pytest.raises(RateLimited) as exc:
        policy.check_rate("acme")
    assert exc.value.tenant == "acme"
    assert exc.value.retry_after > 0
    policy.check_rate("globex")  # separate bucket
    clock[0] += 1.0
    policy.check_rate("acme")  # refilled


# ------------------------------------------------------------------ warm cache


def test_warm_cache_hit_skips_loader_and_unlinks_on_close():
    prefix = f"phtest-{os.getpid()}-a"
    cache = WarmCache(64 * 1024 * 1024, name_prefix=prefix, sweep=False)
    inst = random_instance(3, n_photos=30)
    loads = []

    def loader():
        loads.append(1)
        return inst

    with cache.lease(("t", "i", 1), loader) as (view, hit):
        assert not hit
        assert _shm_segments(prefix)  # segment exists while resident
        first = solve(view)
    with cache.lease(("t", "i", 1), loader) as (view, hit):
        assert hit
        second = solve(view)
    assert len(loads) == 1  # warm lease never re-loaded
    assert first.selection == second.selection
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
    cache.close()
    assert _shm_segments(prefix) == []


def test_warm_cache_eviction_closes_segment():
    prefix = f"phtest-{os.getpid()}-b"
    inst = random_instance(3, n_photos=30)
    probe = WarmCache(64 * 1024 * 1024, name_prefix=prefix, sweep=False)
    with probe.lease(("t", "i", 1), lambda: inst) as (view, _):
        pass
    nbytes = probe.stats()["used_bytes"]
    probe.close()

    # Capacity for exactly one packed instance: the second admit evicts.
    cache = WarmCache(nbytes * 1.5, name_prefix=prefix, sweep=False)
    with cache.lease(("t", "a", 1), lambda: inst) as (view, _):
        pass
    with cache.lease(("t", "b", 1), lambda: inst) as (view, _):
        pass
    assert cache.stats()["entries"] == 1
    assert cache.stats()["evictions"] == 1
    assert len(_shm_segments(prefix)) == 1  # the evicted segment is gone
    cache.close()
    assert _shm_segments(prefix) == []


def test_warm_cache_eviction_deferred_while_leased():
    prefix = f"phtest-{os.getpid()}-c"
    inst = random_instance(3, n_photos=30)
    probe = WarmCache(64 * 1024 * 1024, name_prefix=prefix, sweep=False)
    with probe.lease(("t", "i", 1), lambda: inst) as (view, _):
        pass
    nbytes = probe.stats()["used_bytes"]
    probe.close()

    cache = WarmCache(nbytes * 1.5, name_prefix=prefix, sweep=False)
    with cache.lease(("t", "a", 1), lambda: inst) as (view_a, _):
        # Evict ("t","a",1) while its lease is held: the solve must still
        # read valid arrays, and the segment must survive until release.
        with cache.lease(("t", "b", 1), lambda: inst) as (view_b, _):
            pass
        assert ("t", "a", 1) not in cache._lru
        solution = solve(view_a)  # arrays still mapped
        assert solution.selection
    cache.close()
    assert _shm_segments(prefix) == []


def test_warm_cache_oversize_instance_served_transiently():
    prefix = f"phtest-{os.getpid()}-d"
    inst = random_instance(3, n_photos=30)
    cache = WarmCache(16, name_prefix=prefix, sweep=False)  # nothing fits
    with cache.lease(("t", "i", 1), lambda: inst) as (view, hit):
        assert not hit
        assert _shm_segments(prefix)  # transient segment while leased
        solve(view)
    assert _shm_segments(prefix) == []  # destroyed on release
    assert cache.stats()["entries"] == 0
    cache.close()


def test_warm_cache_disabled_packs_transiently():
    prefix = f"phtest-{os.getpid()}-e"
    inst = random_instance(3, n_photos=30)
    cache = WarmCache(0, name_prefix=prefix, sweep=False)
    for _ in range(2):
        with cache.lease(("t", "i", 1), lambda: inst) as (view, hit):
            assert not hit
    assert cache.stats()["capacity_bytes"] == 0
    assert _shm_segments(prefix) == []
    cache.close()


def test_warm_cache_invalidate_evicts_tenant_entries():
    prefix = f"phtest-{os.getpid()}-f"
    inst = random_instance(3, n_photos=30)
    cache = WarmCache(64 * 1024 * 1024, name_prefix=prefix, sweep=False)
    for key in (("t", "a", 1), ("t", "b", 1), ("u", "a", 1)):
        with cache.lease(key, lambda: inst):
            pass
    assert cache.invalidate("t", "a") == 1
    assert cache.invalidate("t") == 1  # remaining t entry
    assert cache.stats()["entries"] == 1  # u's survives
    assert len(_shm_segments(prefix)) == 1
    cache.close()
    assert _shm_segments(prefix) == []


def test_warm_cache_concurrent_misses_pack_once():
    prefix = f"phtest-{os.getpid()}-g"
    inst = random_instance(3, n_photos=30)
    cache = WarmCache(64 * 1024 * 1024, name_prefix=prefix, sweep=False)
    loads = []
    barrier = threading.Barrier(4)
    errors = []

    def loader():
        loads.append(1)
        return inst

    def worker():
        try:
            barrier.wait(timeout=10)
            with cache.lease(("t", "i", 1), loader) as (view, _):
                assert view.n == inst.n
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []
    assert len(loads) == 1  # one pack, three waiters reused it
    assert cache.stats()["hits"] == 3 and cache.stats()["misses"] == 1
    cache.close()
    assert _shm_segments(prefix) == []


def test_sweep_reclaims_dead_pid_segments_only():
    prefix = f"phtest-{os.getpid()}-h"
    # A "leaked" segment from a pid that cannot exist, plus one from us.
    dead = f"/dev/shm/{prefix}-99999999-0"
    ours = f"/dev/shm/{prefix}-{os.getpid()}-0"
    with open(dead, "wb") as fh:
        fh.write(b"x" * 64)
    with open(ours, "wb") as fh:
        fh.write(b"x" * 64)
    try:
        reclaimed = sweep_leaked_segments(prefix)
        assert reclaimed == [os.path.basename(dead)]
        assert not os.path.exists(dead)
        assert os.path.exists(ours)  # never touch live-pid segments
    finally:
        for path in (dead, ours):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


# --------------------------------------------------------------------- facade


def test_facade_by_ref_solve_matches_inline_and_hits_cache(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    inst = random_instance(9, n_photos=80)
    tenants.put_instance("acme", "p", instance_to_dict(inst))

    direct = solve(inst)
    ref = {"tenant": "acme", "instance_id": "p"}
    with tenants.lease_for_solve(ref) as (view, hit1):
        first = solve(view)
    with tenants.lease_for_solve(ref) as (view, hit2):
        second = solve(view)
    assert (hit1, hit2) == (False, True)
    assert direct.selection == first.selection == second.selection
    assert direct.value == first.value == second.value
    tenants.close()


def test_facade_put_validates_before_writing(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    with pytest.raises(ValidationError):
        tenants.put_instance("acme", "p", {"format": 1, "garbage": True})
    assert tenants.list_instances("acme") == []
    assert not (tmp_path / "acme").exists()
    tenants.close()


def test_facade_overwrite_invalidates_stale_packing(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    inst_v1 = random_instance(1, n_photos=40)
    inst_v2 = random_instance(2, n_photos=40)
    tenants.put_instance("acme", "p", instance_to_dict(inst_v1))
    ref = {"tenant": "acme", "instance_id": "p"}
    with tenants.lease_for_solve(ref) as (view, _):
        v1_solution = solve(view)
    tenants.put_instance("acme", "p", instance_to_dict(inst_v2))
    assert tenants.cache.stats()["entries"] == 0  # stale packing evicted
    with tenants.lease_for_solve(ref) as (view, hit):
        assert not hit  # new version is a fresh key
        v2_solution = solve(view)
    assert v2_solution.selection == solve(inst_v2).selection
    assert v1_solution.selection == solve(inst_v1).selection
    tenants.close()


def test_facade_pinned_version_rejected_after_overwrite(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    tenants.put_instance("acme", "p", _doc(1))
    tenants.put_instance("acme", "p", _doc(2))
    with pytest.raises(ValidationError):
        with tenants.lease_for_solve(
            {"tenant": "acme", "instance_id": "p", "version": 1}
        ):
            pass  # pragma: no cover - lease must not be entered
    tenants.close()


def test_facade_budget_override(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    inst = random_instance(9, n_photos=60)
    tenants.put_instance("acme", "p", instance_to_dict(inst))
    tight = inst.budget * 0.5
    ref = {"tenant": "acme", "instance_id": "p"}
    with tenants.lease_for_solve(ref, budget=tight) as (view, _):
        assert view.budget == pytest.approx(tight)
        constrained = solve(view)
    assert constrained.cost <= tight
    assert constrained.selection == solve(inst.with_budget(tight)).selection
    tenants.close()


def test_facade_stats_shape(tmp_path):
    tenants = Tenants(
        str(tmp_path), quota=TenantQuota(max_bytes=1e9, rate_per_second=100.0),
        sweep=False,
    )
    tenants.put_instance("acme", "p", _doc(1))
    stats = tenants.stats("acme")
    assert stats["store"]["instances"] == 1
    assert stats["store"]["bytes"] > 0
    assert stats["quota"]["max_bytes"] == 1e9
    assert set(stats["cache"]) == {
        "entries",
        "used_bytes",
        "capacity_bytes",
        "hits",
        "misses",
        "evictions",
    }
    tenants.close()


def test_facade_roundtrip_document_identical(tmp_path):
    tenants = Tenants(str(tmp_path), sweep=False)
    doc = _doc(5)
    tenants.put_instance("acme", "p", doc)
    envelope = tenants.get_instance("acme", "p")
    assert envelope["instance"] == doc
    # And it deserialises to a solvable instance.
    assert solve(instance_from_dict(envelope["instance"])).selection
    tenants.close()

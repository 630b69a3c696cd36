"""Persistent per-tenant instance store: upload once, solve by reference.

The store holds serialised :class:`~repro.core.instance.PARInstance`
documents on disk, one base file per ``(tenant, instance)``, optionally
followed by an append-only log of delta records::

    <root>/
      <tenant_id>/
        <instance_id>.inst                  # CRC-framed base envelope
        <instance_id>.inst.log              # appended records (live uploads)
        <instance_id>.inst.quarantine       # corrupt blob moved aside
        <instance_id>.inst.log.quarantine   # cut log suffixes moved aside

Every write goes through :func:`repro.ioutil.atomic_write_bytes` (site
``tenantstore`` — chaos tests can crash the write, the fsync, or the
rename), so a crash leaves either the previous version or the new one,
never a torn file.  The envelope carries the instance document plus its
metadata (version, timestamps).  Writes use format 2::

    prefix  magic (8 bytes) | CRC32 (u32 LE) | head length (u64 LE)
    head    JSON array table, "\n", JSON envelope
    tail    zero padding to 8 bytes, then each array's raw bytes,
            every one starting 8-byte aligned, in table order

Every ``np.ndarray`` of the stored document (int64, uint64, float64 or
float32) goes to the tail, and the envelope holds ``{"\u0000ndarray": k}``
in its place; table entry ``k`` is ``[dtype, shape, offset]``, the offset
counted from the tail start.  The CRC covers every byte after the
prefix.  Plain documents (no arrays) are stored exactly as sent, with an
empty table.  Format-1 blobs (``crc32-hex SP json``, the job journal's
framing, written before format 2) are still read; their next write is
format 2.

Loads verify the CRC and every array reference.  A corrupt blob — bit
rot, a torn legacy write, an editor accident, a hostile edit — is
*quarantined*: renamed aside (never deleted; the bytes may still be
partially salvageable by hand), logged, counted, and reported to callers
as :class:`~repro.errors.InstanceNotFound` so the service answers 404
rather than 500.

``put`` is versioned: each overwrite bumps a monotonically increasing
``version``, which the warm cache uses as part of its key, so a stale
cached packing can never serve a newer upload.  Storage quotas
(:class:`~repro.tenants.quota.QuotaPolicy`) are enforced under the store
lock using post-write totals, so concurrent uploads cannot overshoot.
``put`` and ``append`` take an optional ``expect_version``: when the
stored version differs they raise
:class:`~repro.errors.VersionConflict` (HTTP 409) and write nothing.

**The log.**  ``append`` adds one record after the base without
rewriting it: a length (u64 LE) followed by a format-2 blob whose
envelope is ``{"format", "version", "updated_at", "record"}``, written
with ``O_APPEND`` and fsynced (sites ``tenantstore.append`` and
``tenantstore.append_fsync``).  Record versions run base+1, base+2, …;
the index version and ``nbytes`` count base plus log.  Reads stop at
the first short, CRC-failing, out-of-order or malformed record: that
record and everything after it move to ``<id>.inst.log.quarantine``
(counted in ``quarantined_count``) and the instance reads at its last
good version.  :meth:`TenantStore.cut_log` does the same for a record a
reader finds semantically invalid.  ``put`` renames a new base into
place and then removes the log; a log left behind by a crash between the
two holds only versions at or below its base, is ignored as stale, and
is removed before the next append.  ``get`` returns the base envelope
plus ``"records"`` (only when there are any) and never interprets them:
folding them into the document is the reader's job
(:func:`repro.live.archive.fold`).

Identifiers (tenant and instance ids) are restricted to
``[A-Za-z0-9._-]``, max 64 chars, not starting with a dot — they become
path components, and this closes traversal at the validation layer.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.serialize import json_default
from repro.errors import InstanceNotFound, ValidationError, VersionConflict
from repro.ioutil import atomic_write_bytes, fsync_directory, raise_if_no_space
from repro.obs import probes as _obs_probes
from repro.tenants.quota import QuotaPolicy

__all__ = ["TenantStore", "StoredInstance", "validate_id"]

logger = logging.getLogger(__name__)

_FORMAT = 2
_SUFFIX = ".inst"
_LOG_SUFFIX = _SUFFIX + ".log"
_QUARANTINE = ".quarantine"
#: Each log record starts with its blob's length.
_RECORD_LEN = struct.Struct("<Q")
#: Format-2 blobs start with this; format-1 blobs start with 8 hex digits.
_MAGIC = b"\x89PHOCUS\n"
_PREFIX = struct.Struct("<8sIQ")  # magic, CRC32 of the rest, head length
_ALIGN = 8
#: The dtypes the tail stores (always little-endian); other arrays are
#: written into the head as JSON lists.
_TAIL_DTYPES = {
    name: np.dtype(name).newbyteorder("<")
    for name in ("int64", "uint64", "float64", "float32")
}
_REF_KEY = "\x00ndarray"
_REF_TOKEN = json.dumps(_REF_KEY) + ":"  # the key as the head spells it
_ID_RE = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,63}$")


def validate_id(value: str, what: str) -> str:
    """Path-safe tenant / instance identifier, or :class:`ValidationError`."""
    if not isinstance(value, str) or not _ID_RE.match(value):
        raise ValidationError(
            f"{what} must match [A-Za-z0-9._-]{{1,64}} (not starting with '.'), "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class StoredInstance:
    """Metadata of one stored instance (the index entry; no payload)."""

    tenant: str
    instance_id: str
    version: int
    nbytes: int  # on-disk size: base envelope plus its log
    created_at: float
    updated_at: float
    log_nbytes: int = 0  # the log's valid bytes (part of nbytes)
    log_records: int = 0

    @property
    def base_version(self) -> int:
        return self.version - self.log_records

    @property
    def base_nbytes(self) -> int:
        return self.nbytes - self.log_nbytes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "instance_id": self.instance_id,
            "version": self.version,
            "nbytes": self.nbytes,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _encode_blob(envelope: Dict[str, Any]) -> Tuple[List[Any], int]:
    """A format-2 blob as buffers to write back to back, plus its size.

    The arrays go out as zero-copy byte views and the CRC is accumulated
    chunk by chunk: the blob is never joined into one ``bytes``, so the
    only copy of the arrays a write makes is the kernel's.
    """
    arrays: List[np.ndarray] = []

    def to_ref(value: Any) -> Any:
        if isinstance(value, np.ndarray) and value.dtype.name in _TAIL_DTYPES:
            dtype = _TAIL_DTYPES[value.dtype.name]
            arrays.append(np.asarray(value, dtype=dtype, order="C"))
            return {_REF_KEY: len(arrays) - 1}
        return json_default(value)

    body = json.dumps(envelope, separators=(",", ":"), default=to_ref)
    if arrays and body.count(_REF_TOKEN) != len(arrays):
        # The document's own content holds the reference key: keep every
        # array in the head as lists, so content can never be read back
        # as a reference (an empty table disables reference decoding).
        arrays = []
        body = json.dumps(envelope, separators=(",", ":"), default=json_default)
    table: List[Any] = []
    chunks: List[Any] = []
    end = 0
    for arr in arrays:
        start = _aligned(end)
        table.append([arr.dtype.name, list(arr.shape), start])
        chunks += [bytes(start - end), arr.reshape(-1).view(np.uint8)]
        end = start + arr.nbytes
    head = (json.dumps(table, separators=(",", ":")) + "\n" + body).encode()
    tail_start = _aligned(_PREFIX.size + len(head))
    chunks[:0] = [head, bytes(tail_start - _PREFIX.size - len(head))]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.insert(0, _PREFIX.pack(_MAGIC, crc & 0xFFFFFFFF, len(head)))
    return chunks, tail_start + end


def _decode_blob(blob: bytearray) -> Dict[str, Any]:
    """Parse a stored blob of either format; ``ValueError`` on any defect."""
    try:
        if blob[: len(_MAGIC)] == _MAGIC:
            return _decode_v2(blob)
        return _decode_v1(blob)
    except (TypeError, KeyError, IndexError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed blob: {exc!r}") from exc


def _decode_v1(blob: bytearray) -> Dict[str, Any]:
    if len(blob) < 10 or blob[8:9] != b" ":
        raise ValueError("missing CRC frame")
    try:
        expected = int(blob[:8].decode("ascii"), 16)
    except (UnicodeDecodeError, ValueError):
        raise ValueError("malformed CRC prefix") from None
    payload = blob[9:].rstrip(b"\n")
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        raise ValueError("envelope CRC32 mismatch")
    doc = json.loads(payload)
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise ValueError("unsupported format-1 envelope")
    return doc


def _decode_v2(blob: bytearray) -> Dict[str, Any]:
    if len(blob) < _PREFIX.size:
        raise ValueError("blob shorter than its prefix")
    _, crc, head_len = _PREFIX.unpack_from(blob)
    head_end = _PREFIX.size + head_len
    if head_end > len(blob):
        raise ValueError("head runs past the end of the blob")
    if zlib.crc32(memoryview(blob)[_PREFIX.size :]) & 0xFFFFFFFF != crc:
        raise ValueError("blob CRC32 mismatch")
    newline = blob.find(b"\n", _PREFIX.size, head_end)
    if newline < 0:
        raise ValueError("head has no array table")
    arrays = _tail_arrays(
        blob, json.loads(blob[_PREFIX.size : newline]), _aligned(head_end)
    )
    body = blob[newline + 1 : head_end]
    if arrays:
        used = [False] * len(arrays)

        def resolve(obj: Dict[str, Any]) -> Any:
            if _REF_KEY not in obj:
                return obj
            k = obj[_REF_KEY]
            if len(obj) != 1 or type(k) is not int or not 0 <= k < len(arrays):
                raise ValueError(f"malformed array reference {obj!r}")
            if used[k]:
                raise ValueError(f"array {k} is referenced twice")
            used[k] = True
            return arrays[k]

        envelope = json.loads(body, object_hook=resolve)
        if not all(used):
            raise ValueError(f"array {used.index(False)} is never referenced")
    else:
        envelope = json.loads(body)
    if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
        raise ValueError("unsupported format-2 envelope")
    return envelope


def _tail_arrays(blob: bytearray, table: Any, tail_start: int) -> List[np.ndarray]:
    """Zero-copy views of the tail's arrays, after checking every reference.

    The layout must be exactly the one :func:`_encode_blob` writes: each
    array 8-byte aligned directly after the previous one, none past the
    tail, and no byte after the last — so a hostile table can neither
    alias two arrays nor read outside the blob.
    """
    if not isinstance(table, list):
        raise ValueError("array table is not a list")
    tail_len = len(blob) - tail_start
    arrays = []
    end = 0
    for k, ref in enumerate(table):
        if not (isinstance(ref, list) and len(ref) == 3):
            raise ValueError(f"array {k}: malformed reference {ref!r}")
        name, shape, offset = ref
        dtype = _TAIL_DTYPES.get(name) if isinstance(name, str) else None
        if dtype is None:
            raise ValueError(f"array {k}: dtype {name!r} is not storable")
        if not (
            isinstance(shape, list)
            and len(shape) <= 32
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"array {k}: malformed shape {shape!r}")
        if type(offset) is not int or offset % _ALIGN:
            raise ValueError(f"array {k}: offset {offset!r} is not aligned")
        if offset < end:
            raise ValueError(f"array {k} overlaps the array before it")
        if offset != _aligned(end):
            raise ValueError(f"array {k} leaves a gap after the array before it")
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > tail_len:
            raise ValueError(f"array {k} runs past the tail")
        arrays.append(
            np.frombuffer(
                blob, dtype=dtype, count=count, offset=tail_start + offset
            ).reshape(shape)
        )
    if tail_len != end:
        raise ValueError(
            f"blob is {len(blob)} bytes; its table describes {tail_start + end}"
        )
    return arrays


def _read_log(
    path: str, base_version: int, limit: Optional[int] = None
) -> Tuple[List[Dict[str, Any]], int, Optional[str]]:
    """Decode a log's records in order: ``(records, good_bytes, defect)``.

    Reading stops at the first record that is short, fails its CRC or
    framing, is not a record envelope, or does not carry the next
    version; ``defect`` then says why and ``good_bytes`` is where that
    record starts.  A log whose first record is at or below
    ``base_version`` is stale (its base was rewritten after it) and reads
    as empty with no defect.  ``limit`` caps the bytes read: the index
    knows how many were acknowledged.
    """
    records: List[Dict[str, Any]] = []
    good = 0
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return [], 0, ("log is missing" if limit else None)
    except OSError as exc:
        return [], 0, f"log is unreadable: {exc}"
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if limit is not None:
            if size < limit:
                return [], 0, f"log holds {size} bytes, {limit} were written"
            size = limit
        while good < size:
            head = fh.read(_RECORD_LEN.size)
            if good + _RECORD_LEN.size > size or len(head) != _RECORD_LEN.size:
                return records, good, "short record length"
            (length,) = _RECORD_LEN.unpack(head)
            if length > size - good - _RECORD_LEN.size:
                return records, good, "short record"
            blob = bytearray(length)
            if fh.readinto(blob) != length:
                return records, good, "short record"
            if blob[: len(_MAGIC)] != _MAGIC:
                return records, good, "record is not a format-2 blob"
            try:
                rec = _decode_blob(blob)
            except ValueError as exc:
                return records, good, f"record: {exc}"
            version = rec.get("version")
            if type(version) is not int:
                return records, good, "record carries no version"
            if not records and version <= base_version:
                return [], 0, None  # stale: a put rewrote the base after it
            if version != base_version + len(records) + 1:
                return records, good, f"record version {version!r} is out of order"
            if not isinstance(rec.get("record"), dict) or type(
                rec.get("updated_at")
            ) not in (int, float):
                return records, good, "malformed record envelope"
            records.append(rec)
            good += _RECORD_LEN.size + length
    return records, good, None


class TenantStore:
    """Durable tenant-scoped instance blobs with a scanned in-memory index."""

    def __init__(
        self, root: str, *, quota_policy: Optional[QuotaPolicy] = None
    ) -> None:
        self.root = os.fspath(root)
        self.quotas = quota_policy or QuotaPolicy()
        self._lock = threading.RLock()
        # tenant -> instance_id -> StoredInstance
        self._index: Dict[str, Dict[str, StoredInstance]] = {}
        self.quarantined_count = 0
        os.makedirs(self.root, exist_ok=True)
        self._scan()

    # ------------------------------------------------------------ index scan

    def _path(self, tenant: str, instance_id: str) -> str:
        return os.path.join(self.root, tenant, instance_id + _SUFFIX)

    def _log_path(self, tenant: str, instance_id: str) -> str:
        return os.path.join(self.root, tenant, instance_id + _LOG_SUFFIX)

    def _scan(self) -> None:
        """Build the index from disk; quarantine anything unreadable."""
        for tenant in sorted(os.listdir(self.root)):
            tenant_dir = os.path.join(self.root, tenant)
            if not os.path.isdir(tenant_dir) or not _ID_RE.match(tenant):
                continue
            for entry in sorted(os.listdir(tenant_dir)):
                if not entry.endswith(_SUFFIX):
                    continue
                instance_id = entry[: -len(_SUFFIX)]
                path = os.path.join(tenant_dir, entry)
                try:
                    envelope = self._read_envelope(path)
                except (OSError, ValueError) as exc:
                    self._quarantine(path, exc)
                    continue
                meta = StoredInstance(
                    tenant=tenant,
                    instance_id=instance_id,
                    version=int(envelope.get("version", 1)),
                    nbytes=os.path.getsize(path),
                    created_at=float(envelope.get("created_at", 0.0)),
                    updated_at=float(envelope.get("updated_at", 0.0)),
                )
                records, good, defect = _read_log(
                    self._log_path(tenant, instance_id), meta.version
                )
                if records:
                    meta = replace(
                        meta,
                        version=meta.version + len(records),
                        nbytes=meta.nbytes + good,
                        updated_at=float(records[-1].get("updated_at", 0.0)),
                        log_nbytes=good,
                        log_records=len(records),
                    )
                self._index.setdefault(tenant, {})[instance_id] = meta
                if defect is not None:
                    self._cut_locked(meta, meta.version + 1, good, defect)

    @staticmethod
    def _read_envelope(path: str) -> Dict[str, Any]:
        faults.check("tenantstore.load")
        with open(path, "rb") as fh:
            # A writable buffer: tail arrays are views of it, as mutable
            # as the arrays a JSON decode would have produced.
            blob = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(blob) != len(blob):
                raise ValueError("blob shrank while being read")
        return _decode_blob(blob)

    def _quarantine(self, path: str, exc: Exception) -> None:
        """Move a corrupt blob, and any log after it, aside (never delete);
        count + log it."""
        quarantine_path = path + _QUARANTINE
        with contextlib.suppress(OSError):
            os.replace(path + ".log", path + ".log" + _QUARANTINE)
        try:
            os.replace(path, quarantine_path)
        except OSError:
            quarantine_path = "<unmovable>"
        self.quarantined_count += 1
        logger.warning(
            "tenant store: quarantined corrupt blob %s -> %s (%s)",
            path,
            quarantine_path,
            exc,
        )

    def _cut_locked(
        self, meta: StoredInstance, version: int, offset: int, reason: str
    ) -> None:
        """Quarantine the log from record ``version`` (at byte ``offset``) on.

        The suffix, up to the end of the file, is appended to the log's
        quarantine file (never deleted), the log is truncated back to its
        good prefix, and the index drops to ``version - 1``.
        """
        path = self._log_path(meta.tenant, meta.instance_id)
        try:
            with open(path, "r+b") as fh:
                fh.seek(offset)
                suffix = fh.read()
                with open(path + _QUARANTINE, "ab") as out:
                    out.write(suffix)
                    out.flush()
                    os.fsync(out.fileno())
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
        except FileNotFoundError:
            pass
        except OSError as exc:
            # The index still stops at the good prefix; the next append
            # truncates whatever follows it.
            logger.warning("tenant store: could not move %s aside (%s)", path, exc)
        self._index[meta.tenant][meta.instance_id] = replace(
            meta,
            version=version - 1,
            nbytes=meta.base_nbytes + offset,
            log_nbytes=offset,
            log_records=version - 1 - meta.base_version,
        )
        self.quarantined_count += 1
        self._gauge(meta.tenant)
        logger.warning(
            "tenant store: cut the log of %s/%s at version %d, serving "
            "version %d (%s)",
            meta.tenant,
            meta.instance_id,
            version,
            version - 1,
            reason,
        )

    # ----------------------------------------------------------------- CRUD

    def put(
        self,
        tenant: str,
        instance_id: str,
        instance_doc: Dict[str, Any],
        *,
        expect_version: Optional[int] = None,
    ) -> StoredInstance:
        """Store (or overwrite) an instance document; returns its metadata.

        The caller is expected to have validated ``instance_doc`` (the
        service deserialises it first so garbage is rejected with 422
        before any disk write).  Raises
        :class:`~repro.errors.QuotaExceeded` without writing when the
        post-write totals would violate the tenant's quota, and
        :class:`~repro.errors.VersionConflict` when ``expect_version`` is
        given and is not the stored version (0 for "absent").  The new
        base replaces the old one and its log.
        """
        validate_id(tenant, "tenant id")
        validate_id(instance_id, "instance id")
        if not isinstance(instance_doc, dict):
            raise ValidationError("instance document must be an object")
        now = time.time()
        with self._lock:
            existing = self._index.get(tenant, {}).get(instance_id)
            current = existing.version if existing else 0
            if expect_version is not None and expect_version != current:
                raise VersionConflict(tenant, instance_id, expect_version, current)
            envelope = {
                "format": _FORMAT,
                "tenant": tenant,
                "instance_id": instance_id,
                "version": current + 1,
                "created_at": existing.created_at if existing else now,
                "updated_at": now,
                "instance": instance_doc,
            }
            chunks, nbytes = _encode_blob(envelope)
            used = self.tenant_bytes(tenant) - (existing.nbytes if existing else 0)
            count = len(self._index.get(tenant, {})) - (1 if existing else 0)
            self.quotas.check_storage(
                tenant, new_bytes=used + nbytes, new_instances=count + 1
            )
            path = self._path(tenant, instance_id)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_bytes(path, chunks, site="tenantstore")
            meta = StoredInstance(
                tenant=tenant,
                instance_id=instance_id,
                version=envelope["version"],
                nbytes=nbytes,
                created_at=envelope["created_at"],
                updated_at=now,
            )
            self._index.setdefault(tenant, {})[instance_id] = meta
            self._gauge(tenant)
            # The new base is durable; the old log is now stale whether or
            # not this unlink happens (a crash here leaves it for the next
            # append to remove).
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._log_path(tenant, instance_id))
            return meta

    def append(
        self,
        tenant: str,
        instance_id: str,
        record: Dict[str, Any],
        *,
        expect_version: int,
    ) -> StoredInstance:
        """Append one delta record to an instance's log; returns its metadata.

        The record becomes version ``expect_version + 1``.  Raises
        :class:`~repro.errors.VersionConflict` if the stored version is
        not ``expect_version`` and :class:`~repro.errors.QuotaExceeded` if
        base plus log would pass the tenant's quota; both write nothing.
        """
        if not isinstance(record, dict):
            raise ValidationError("a log record must be an object")
        now = time.time()
        with self._lock:
            meta = self._meta(tenant, instance_id)
            if meta.version != expect_version:
                raise VersionConflict(
                    tenant, instance_id, expect_version, meta.version
                )
            chunks, size = _encode_blob(
                {
                    "format": _FORMAT,
                    "version": meta.version + 1,
                    "updated_at": now,
                    "record": record,
                }
            )
            framed = _RECORD_LEN.size + size
            self.quotas.check_storage(
                tenant,
                new_bytes=self.tenant_bytes(tenant) + framed,
                new_instances=len(self._index[tenant]),
            )
            path = self._log_path(tenant, instance_id)
            chunks.insert(0, _RECORD_LEN.pack(size))
            faults.check("tenantstore.append")
            if faults.is_armed():
                chunks = [faults.mangle("tenantstore.append", b"".join(chunks))]
            try:
                with open(path, "ab") as fh:
                    if os.fstat(fh.fileno()).st_size != meta.log_nbytes:
                        # A stale log, or the torn end of a write that
                        # failed in this process: neither was acknowledged.
                        fh.truncate(meta.log_nbytes)
                    for chunk in chunks:
                        fh.write(chunk)
                    fh.flush()
                    if not faults.should_drop("tenantstore.append_fsync"):
                        os.fsync(fh.fileno())
            except OSError as exc:
                raise_if_no_space(exc, path)
                raise
            if meta.log_nbytes == 0:
                fsync_directory(os.path.dirname(path))
            meta = replace(
                meta,
                version=meta.version + 1,
                nbytes=meta.nbytes + framed,
                updated_at=now,
                log_nbytes=meta.log_nbytes + framed,
                log_records=meta.log_records + 1,
            )
            self._index[tenant][instance_id] = meta
            self._gauge(tenant)
            return meta

    def get(self, tenant: str, instance_id: str) -> Dict[str, Any]:
        """The stored base envelope (metadata + ``instance`` document), plus
        ``"records"`` — the logged record envelopes, oldest first — when the
        instance has a log.

        A CRC/parse failure of the base quarantines it (and its log),
        drops it from the index, and raises :class:`InstanceNotFound` — a
        corrupt blob is indistinguishable from a missing one to callers,
        by design.  A defective log record is cut instead (see
        :meth:`cut_log`): the envelope then ends at the last good record.
        """
        with self._lock:
            meta = self._meta(tenant, instance_id)
            path = self._path(tenant, instance_id)
            try:
                envelope = self._read_envelope(path)
            except (OSError, ValueError) as exc:
                self._quarantine(path, exc)
                self._index[tenant].pop(instance_id, None)
                self._gauge(tenant)
                raise InstanceNotFound(
                    f"instance {instance_id!r} of tenant {tenant!r} is corrupt "
                    "and was quarantined"
                ) from exc
            if meta.log_nbytes:
                records, good, defect = _read_log(
                    self._log_path(tenant, instance_id),
                    meta.base_version,
                    limit=meta.log_nbytes,
                )
                if defect is not None:
                    version = meta.base_version + len(records) + 1
                    self._cut_locked(meta, version, good, defect)
                if records:
                    envelope["records"] = records
            return envelope

    def cut_log(
        self, tenant: str, instance_id: str, version: int, reason: str
    ) -> None:
        """Quarantine logged records from ``version`` on (a reader found that
        record invalid); the instance then reads at ``version - 1``.

        A no-op when ``version`` is not in the current log (another reader
        cut it already, or a writer rewrote the base).
        """
        with self._lock:
            meta = self._index.get(tenant, {}).get(instance_id)
            if meta is None or not meta.base_version < version <= meta.version:
                return
            offset = 0
            try:
                with open(self._log_path(tenant, instance_id), "rb") as fh:
                    for _ in range(version - 1 - meta.base_version):
                        (length,) = _RECORD_LEN.unpack(fh.read(_RECORD_LEN.size))
                        offset += _RECORD_LEN.size + length
                        fh.seek(offset)
            except (OSError, struct.error):
                return  # the framing itself broke: the next get cuts there
            self._cut_locked(meta, version, offset, reason)

    def meta(self, tenant: str, instance_id: str) -> StoredInstance:
        with self._lock:
            return self._meta(tenant, instance_id)

    def _meta(self, tenant: str, instance_id: str) -> StoredInstance:
        meta = self._index.get(tenant, {}).get(instance_id)
        if meta is None:
            raise InstanceNotFound(
                f"no instance {instance_id!r} stored for tenant {tenant!r}"
            )
        return meta

    def delete(self, tenant: str, instance_id: str) -> StoredInstance:
        """Remove an instance and its log; returns the metadata it had."""
        with self._lock:
            meta = self._meta(tenant, instance_id)
            # The log goes first: a crash in between leaves a base with no
            # log, never a log that a later base could mistake for its own.
            for path in (
                self._log_path(tenant, instance_id),
                self._path(tenant, instance_id),
            ):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
            del self._index[tenant][instance_id]
            if not self._index[tenant]:
                del self._index[tenant]
            self._gauge(tenant)
            return meta

    # ------------------------------------------------------------- listings

    def list_instances(self, tenant: str) -> List[StoredInstance]:
        with self._lock:
            return sorted(
                self._index.get(tenant, {}).values(),
                key=lambda m: m.instance_id,
            )

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._index)

    def tenant_bytes(self, tenant: str) -> int:
        with self._lock:
            return sum(m.nbytes for m in self._index.get(tenant, {}).values())

    def stats(self, tenant: str) -> Dict[str, Any]:
        with self._lock:
            instances = self._index.get(tenant, {})
            return {
                "instances": len(instances),
                "bytes": sum(m.nbytes for m in instances.values()),
                "quarantined_total": self.quarantined_count,
            }

    def _gauge(self, tenant: str) -> None:
        # Called under the store lock after every mutation.
        obs = _obs_probes.active()
        if obs is not None:
            instances = self._index.get(tenant, {})
            obs.tenants_store_bytes.labels(tenant=tenant).set(
                sum(m.nbytes for m in instances.values())
            )
            obs.tenants_store_instances.labels(tenant=tenant).set(len(instances))

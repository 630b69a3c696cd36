"""Persistent per-tenant instance store: upload once, solve by reference.

The store holds serialised :class:`~repro.core.instance.PARInstance`
documents on disk, one file per ``(tenant, instance)``::

    <root>/
      <tenant_id>/
        <instance_id>.inst                  # CRC-framed envelope
        <instance_id>.inst.quarantine       # corrupt blob moved aside

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

Identifiers (tenant and instance ids) are restricted to
``[A-Za-z0-9._-]``, max 64 chars, not starting with a dot — they become
path components, and this closes traversal at the validation layer.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.serialize import json_default
from repro.errors import InstanceNotFound, ValidationError
from repro.ioutil import atomic_write_bytes
from repro.obs import probes as _obs_probes
from repro.tenants.quota import QuotaPolicy

__all__ = ["TenantStore", "StoredInstance", "validate_id"]

logger = logging.getLogger(__name__)

_FORMAT = 2
_SUFFIX = ".inst"
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
    nbytes: int  # on-disk envelope size
    created_at: float
    updated_at: float

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
                self._index.setdefault(tenant, {})[instance_id] = meta

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
        """Move a corrupt blob aside (never delete); count + log it."""
        quarantine_path = path + ".quarantine"
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

    # ----------------------------------------------------------------- CRUD

    def put(
        self, tenant: str, instance_id: str, instance_doc: Dict[str, Any]
    ) -> StoredInstance:
        """Store (or overwrite) an instance document; returns its metadata.

        The caller is expected to have validated ``instance_doc`` (the
        service deserialises it first so garbage is rejected with 422
        before any disk write).  Raises
        :class:`~repro.errors.QuotaExceeded` without writing when the
        post-write totals would violate the tenant's quota.
        """
        validate_id(tenant, "tenant id")
        validate_id(instance_id, "instance id")
        if not isinstance(instance_doc, dict):
            raise ValidationError("instance document must be an object")
        now = time.time()
        with self._lock:
            existing = self._index.get(tenant, {}).get(instance_id)
            envelope = {
                "format": _FORMAT,
                "tenant": tenant,
                "instance_id": instance_id,
                "version": (existing.version + 1) if existing else 1,
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
            return meta

    def get(self, tenant: str, instance_id: str) -> Dict[str, Any]:
        """The full stored envelope (metadata + ``instance`` document).

        A CRC/parse failure quarantines the blob, drops it from the
        index, and raises :class:`InstanceNotFound` — a corrupt blob is
        indistinguishable from a missing one to callers, by design.
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
            return envelope

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
        """Remove an instance; returns the metadata it had."""
        with self._lock:
            meta = self._meta(tenant, instance_id)
            try:
                os.unlink(self._path(tenant, instance_id))
            except FileNotFoundError:  # pragma: no cover - index ahead of disk
                pass
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

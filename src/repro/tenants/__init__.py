"""Multi-tenant archive store: upload instances once, solve by reference.

The service-facing workflow this package enables::

    PUT /tenants/acme/instances/photos-2024   {"instance": {...}}   # once
    POST /solve   {"by_ref": {"tenant": "acme", "instance_id": "photos-2024"}}
    POST /solve   {"by_ref": ...}            # warm: served from shared memory

Three cooperating pieces, each usable on its own:

* :class:`~repro.tenants.store.TenantStore` — durable, versioned,
  CRC-checked instance blobs under a root directory.
* :class:`~repro.tenants.cache.WarmCache` — a byte-capacity LRU of
  *packed* shared-memory instances, so repeated solves of the same
  stored instance skip both deserialisation and packing.
* :class:`~repro.tenants.quota.QuotaPolicy` — per-tenant storage quotas
  (413) and token-bucket rate limits (429).

:class:`Tenants` glues them together behind the handful of calls the
service, job manager, and CLI actually need — most importantly
:meth:`Tenants.lease_for_solve`, which turns a ``by_ref`` document into
a live :class:`~repro.core.instance.PARInstance` under a cache lease.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.serialize import instance_from_dict
from repro.errors import ValidationError
from repro.tenants.cache import (
    DEFAULT_PREFIX,
    CacheKey,
    WarmCache,
    sweep_leaked_segments,
)
from repro.tenants.quota import QuotaPolicy, TenantQuota, TokenBucket
from repro.tenants.store import StoredInstance, TenantStore, validate_id

__all__ = [
    "Tenants",
    "TenantStore",
    "StoredInstance",
    "WarmCache",
    "CacheKey",
    "QuotaPolicy",
    "TenantQuota",
    "TokenBucket",
    "validate_id",
    "parse_ref",
    "sweep_leaked_segments",
    "DEFAULT_PREFIX",
]


class _VersionMoved(ValidationError):
    """The stored version changed between choosing a cache key and loading."""


def parse_ref(doc: Any) -> Tuple[str, str, Optional[int]]:
    """Validate a ``by_ref`` document -> ``(tenant, instance_id, version?)``.

    ``version`` defaults to ``None`` meaning "latest stored".  Raises
    :class:`ValidationError` on shape or identifier problems, never
    touches storage.
    """
    if not isinstance(doc, dict):
        raise ValidationError("'by_ref' must be an object")
    unknown = set(doc) - {"tenant", "instance_id", "version"}
    if unknown:
        raise ValidationError(f"unknown 'by_ref' fields: {sorted(unknown)}")
    tenant = validate_id(doc.get("tenant"), "'by_ref' tenant")
    instance_id = validate_id(doc.get("instance_id"), "'by_ref' instance_id")
    version = doc.get("version")
    if version is not None:
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            raise ValidationError("'by_ref' version must be a positive integer")
    return tenant, instance_id, version


class Tenants:
    """Store + warm cache + quotas behind one service-shaped facade."""

    def __init__(
        self,
        root: str,
        *,
        cache_bytes: float = 256 * 1024 * 1024,
        quota: Optional[TenantQuota] = None,
        name_prefix: str = DEFAULT_PREFIX,
        sweep: bool = True,
    ) -> None:
        self.quotas = QuotaPolicy(quota)
        self.store = TenantStore(root, quota_policy=self.quotas)
        self.cache = WarmCache(cache_bytes, name_prefix=name_prefix, sweep=sweep)

    # ----------------------------------------------------------------- CRUD

    def put_instance(
        self, tenant: str, instance_id: str, instance_doc: Dict[str, Any]
    ) -> StoredInstance:
        """Validate + store an instance document; returns its new metadata.

        The document is fully deserialised first, so malformed uploads
        fail with :class:`ValidationError` before any byte hits disk.
        Cached packings of the previous version are evicted — the
        version bump already makes them unreachable, eviction just
        returns their memory promptly.
        """
        instance_from_dict(instance_doc)
        meta = self.store.put(tenant, instance_id, instance_doc)
        self.cache.invalidate(tenant, instance_id)
        return meta

    def get_instance(self, tenant: str, instance_id: str) -> Dict[str, Any]:
        """The stored envelope: metadata fields + the ``instance`` document.

        A live instance's logged uploads are folded in, so the document is
        the archive the live manager holds, at its latest version.
        """
        return self._read(tenant, instance_id)[0]

    def _read(
        self, tenant: str, instance_id: str
    ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """The stored envelope with its logged records folded in, plus the
        folded :class:`~repro.live.LiveArchive` (``None`` without a log)."""
        envelope = self.store.get(tenant, instance_id)
        if "records" not in envelope:
            return envelope, None
        from repro.live.archive import fold  # only live instances log

        return fold(self.store, envelope)

    def delete_instance(self, tenant: str, instance_id: str) -> StoredInstance:
        meta = self.store.delete(tenant, instance_id)
        self.cache.invalidate(tenant, instance_id)
        return meta

    def list_instances(self, tenant: str) -> List[StoredInstance]:
        return self.store.list_instances(tenant)

    def stats(self, tenant: str) -> Dict[str, Any]:
        """Store + cache + quota view for one tenant (``GET .../stats``)."""
        cache = self.cache.stats()
        q = self.quotas.quota
        return {
            "tenant": tenant,
            "store": self.store.stats(tenant),
            "cache": {
                "entries": cache["entries"],
                "used_bytes": cache["used_bytes"],
                "capacity_bytes": cache["capacity_bytes"],
                "hits": cache["hits"],
                "misses": cache["misses"],
                "evictions": cache["evictions"],
            },
            "quota": {
                "max_bytes": q.max_bytes,
                "max_instances": q.max_instances,
                "rate_per_second": q.rate_per_second,
                "burst": q.burst,
            },
        }

    # ---------------------------------------------------------------- solve

    def check_rate(self, tenant: str) -> None:
        """Admission control for one tenant-scoped request (may raise 429)."""
        self.quotas.check_rate(tenant)

    @contextmanager
    def lease_for_solve(
        self, by_ref: Any, *, budget: Optional[float] = None
    ) -> Iterator[Tuple[Any, bool]]:
        """Resolve a ``by_ref`` document to ``(PARInstance, was_warm)``.

        Warm path: the packed segment is already resident; the instance
        is zero-copy views over it.  Cold path: load from the store,
        deserialise, pack, admit.  Either way the yielded instance is
        valid for the duration of the ``with`` block — eviction cannot
        unmap it mid-solve.  ``budget`` overrides the stored instance's
        budget without copying arrays.
        """
        tenant, instance_id, pinned = parse_ref(by_ref)

        def _load(version: int):
            envelope, archive = self._read(tenant, instance_id)
            if envelope.get("version") != version:
                raise _VersionMoved(
                    f"instance {instance_id!r} of tenant {tenant!r} is at "
                    f"version {envelope.get('version')}, not {version} "
                    "(only the latest version is retrievable)"
                )
            if archive is not None:
                return archive.instance
            return instance_from_dict(envelope["instance"])

        with ExitStack() as stack:
            for last_try in (False, True):
                version = pinned
                if version is None:
                    version = self.store.meta(tenant, instance_id).version
                key: CacheKey = (tenant, instance_id, version)
                try:
                    instance, hit = stack.enter_context(
                        self.cache.lease(key, partial(_load, version), budget=budget)
                    )
                    break
                except _VersionMoved:
                    # An unpinned reference asks again: a write landed, or
                    # a read cut a damaged log back to its last good record.
                    if pinned is not None or last_try:
                        raise
            yield instance, hit

    def close(self) -> None:
        """Release every cached segment (service shutdown)."""
        self.cache.close()

"""Live curation manager: resident archives over the tenant store.

One :class:`LiveManager` fronts a :class:`~repro.tenants.Tenants` facade
and keeps a bounded set of *resident* :class:`LiveArchive` objects keyed
by ``(tenant, instance_id)`` and pinned to the store version they were
loaded from.  The hot path — ``ingest`` — then never re-parses the stored
document: the resident archive absorbs the delta in memory, the delta is
appended to the store as one fsynced log record, and only after that
single durable commit does the resident slot (and the stored solution)
advance.

Each commit writes what changed, not the archive: an upload appends its
:class:`~repro.live.archive.Delta` plus the curation block, and a
re-curation appends the curation block alone.  A full base goes through
the store's atomic ``put`` instead on creation, on the first commit over
a format-1 base, and once the log would pass :data:`COMPACT_FRACTION` of
the base's bytes (compaction).  Loading folds the log back in
(:func:`repro.live.archive.fold`), bit-identical to the resident copy.

Crash atomicity falls out of the one-write design: the **only** durable
mutation an ingestion performs is one record append or one ``put``, each
old-or-new atomic under the ``tenantstore.*`` fault sites (a torn record
is cut on the next read).  The ``live.append`` and ``live.resolve`` fault
sites fire *before* that write, so a kill anywhere in the pipeline
leaves the store at the old version with the old solution — never a torn
instance.  Every write is conditional on the version its entry was
loaded at: a concurrent plain ``PUT`` makes it fail with
:class:`~repro.errors.VersionConflict` (HTTP 409) instead of being
silently overwritten, and the resident slot is dropped.  Chaos tests
assert all of this.

Every commit invalidates the tenant warm cache for the instance, so
``by_ref`` solves and jobs immediately see the new version.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.serialize import json_default
from repro.errors import ValidationError, VersionConflict
from repro.live.archive import Delta, IngestReport, LiveArchive, fold
from repro.live.resolve import (
    LiveSolveResult,
    cold_resolve,
    replay_solution,
    solve_result_from_dict,
    warm_resolve,
)
from repro.obs import probes
from repro.obs import trace as _trace
from repro.tenants import Tenants

__all__ = ["LiveManager", "LiveStatus"]

#: Resident archives kept in memory (LRU beyond this).
DEFAULT_MAX_RESIDENT = 8

#: A commit writes a new base instead of a log record once the log would
#: pass this fraction of the base's bytes.
COMPACT_FRACTION = 0.25


@dataclass
class LiveStatus:
    """Scheduler-relevant view of one live instance."""

    tenant: str
    instance_id: str
    version: int
    n_photos: int
    nnz: int
    recurated_at: Optional[float]
    regret_bound: Optional[float]
    accumulated_regret: float
    pending_deltas: int
    pending_photos: int
    last_ingest_at: Optional[float]
    solution: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "instance_id": self.instance_id,
            "version": self.version,
            "n_photos": self.n_photos,
            "nnz": self.nnz,
            "recurated_at": self.recurated_at,
            "regret_bound": self.regret_bound,
            "accumulated_regret": self.accumulated_regret,
            "pending_deltas": self.pending_deltas,
            "pending_photos": self.pending_photos,
            "last_ingest_at": self.last_ingest_at,
        }


class _Entry:
    """One resident live instance: archive + curation bookkeeping."""

    __slots__ = (
        "archive",
        "version",
        "base_format",
        "solution",
        "recurated_at",
        "pending_deltas",
        "pending_photos",
        "accumulated_regret",
        "last_ingest_at",
    )

    def __init__(
        self,
        archive: LiveArchive,
        version: int,
        meta: Dict[str, Any],
        base_format: int = 2,
    ):
        self.archive = archive
        self.version = version
        # Logs follow format-2 bases only: a format-1 base is rewritten.
        self.base_format = base_format
        self.solution = solve_result_from_dict(meta.get("solution"))
        self.recurated_at = meta.get("recurated_at")
        self.pending_deltas = int(meta.get("pending_deltas", 0))
        self.pending_photos = int(meta.get("pending_photos", 0))
        self.accumulated_regret = float(meta.get("accumulated_regret", 0.0))
        self.last_ingest_at = meta.get("last_ingest_at")

    def meta_dict(self) -> Dict[str, Any]:
        return {
            "solution": self.solution.to_dict() if self.solution else None,
            "recurated_at": self.recurated_at,
            "pending_deltas": self.pending_deltas,
            "pending_photos": self.pending_photos,
            "accumulated_regret": self.accumulated_regret,
            "last_ingest_at": self.last_ingest_at,
        }


class LiveManager:
    """Delta ingestion + re-curation over the multi-tenant archive store."""

    def __init__(
        self,
        tenants: Tenants,
        *,
        max_resident: int = DEFAULT_MAX_RESIDENT,
    ) -> None:
        self._tenants = tenants
        self._max_resident = max(1, int(max_resident))
        self._resident: "OrderedDict[Tuple[str, str], _Entry]" = OrderedDict()
        self._mu = threading.Lock()
        # key -> [lock, calls holding or waiting for it]
        self._locks: Dict[Tuple[str, str], list] = {}

    # ------------------------------------------------------------- plumbing

    @contextmanager
    def _key_lock(self, key: Tuple[str, str]) -> Iterator[None]:
        """Hold ``key``'s lock for the block.

        Each entry counts the calls holding or waiting for it and leaves
        ``_locks`` with the last of them, so a call refused for an
        instance the store does not hold leaves no lock behind.
        """
        with self._mu:
            slot = self._locks.get(key)
            if slot is None:
                slot = self._locks[key] = [threading.Lock(), 0]
            slot[1] += 1
        try:
            with slot[0]:
                yield
        finally:
            with self._mu:
                slot[1] -= 1
                if slot[1] == 0:
                    del self._locks[key]

    def _load_entry(self, tenant: str, instance_id: str) -> _Entry:
        """The resident entry, reloaded (base plus folded log) if the store
        moved past it."""
        key = (tenant, instance_id)
        version = self._tenants.store.meta(tenant, instance_id).version
        with self._mu:
            entry = self._resident.get(key)
            if entry is not None and entry.version == version:
                self._resident.move_to_end(key)
                return entry
        envelope, archive = fold(
            self._tenants.store, self._tenants.store.get(tenant, instance_id)
        )
        doc = envelope["instance"]
        if "live" not in doc:
            raise ValidationError(
                f"instance {instance_id!r} of tenant {tenant!r} is not live "
                "(create it through the live API to ingest deltas)"
            )
        entry = _Entry(
            archive if archive is not None else LiveArchive.from_doc(doc),
            int(envelope["version"]),
            doc["live"].get("curation", {}),
            int(envelope.get("format", 1)),
        )
        self._admit(key, entry)
        return entry

    def _admit(self, key: Tuple[str, str], entry: _Entry) -> None:
        with self._mu:
            self._resident[key] = entry
            self._resident.move_to_end(key)
            while len(self._resident) > self._max_resident:
                self._resident.popitem(last=False)

    def _drop(self, key: Tuple[str, str]) -> None:
        with self._mu:
            self._resident.pop(key, None)

    def _commit(
        self,
        tenant: str,
        instance_id: str,
        entry: _Entry,
        delta: Optional[Delta] = None,
        *,
        create: bool = False,
    ) -> int:
        """One durable store write; resident state advances only on success.

        Appends ``delta`` (if any) plus the curation block as one log
        record, or writes a full base (see the module docstring).  Unless
        ``create``, the write is conditional on ``entry.version``.  On any
        failure the resident slot is dropped, so the next call reloads
        what the store holds.
        """
        key = (tenant, instance_id)
        store = self._tenants.store
        curation = entry.meta_dict()
        try:
            meta = None if create else store.meta(tenant, instance_id)
            record_nbytes = len(json.dumps(curation, default=json_default))
            if delta is not None:
                record_nbytes += delta.nbytes
            if (
                meta is not None
                and entry.base_format == 2
                and meta.log_nbytes + record_nbytes
                <= COMPACT_FRACTION * meta.base_nbytes
            ):
                record = {} if delta is None else delta.to_record()
                record["curation"] = curation
                meta = store.append(
                    tenant, instance_id, record, expect_version=entry.version
                )
            else:
                # A full base is written from the compact CSR, read in
                # place; the resident archive keeps growing from it.
                entry.archive = entry.archive.compacted()
                doc = entry.archive.to_doc()
                doc["live"]["curation"] = curation
                meta = store.put(
                    tenant,
                    instance_id,
                    doc,
                    expect_version=None if create else entry.version,
                )
        except BaseException:
            self._drop(key)
            raise
        self._tenants.cache.invalidate(tenant, instance_id)
        entry.version = meta.version
        entry.base_format = 2
        self._admit(key, entry)
        return meta.version

    # ------------------------------------------------------------ lifecycle

    def create(
        self,
        tenant: str,
        instance_id: str,
        costs: np.ndarray,
        embeddings: np.ndarray,
        budget: float,
        *,
        tau: float,
        seed: int = 0,
        n_bits="auto",
        target_recall: float = 0.95,
        retained=(),
        solve: bool = True,
    ) -> Dict[str, Any]:
        """Build a live archive, optionally solve it cold, and store it."""
        key = (tenant, instance_id)
        with self._key_lock(key):
            archive, report = LiveArchive.create(
                costs,
                embeddings,
                budget,
                tau=tau,
                seed=seed,
                n_bits=n_bits,
                target_recall=target_recall,
                retained=retained,
            )
            entry = _Entry(archive, 0, {})
            if solve:
                entry.solution = cold_resolve(archive.instance)
                entry.recurated_at = time.time()
                self._observe_resolve(tenant, entry.solution)
            version = self._commit(tenant, instance_id, entry, create=True)
        return {
            "tenant": tenant,
            "instance_id": instance_id,
            "version": version,
            "build": report.to_dict(),
            "solution": entry.solution.to_dict() if entry.solution else None,
            "recurated_at": entry.recurated_at,
            "regret_bound": (
                entry.solution.regret_bound if entry.solution else None
            ),
        }

    # ------------------------------------------------------------ ingestion

    def ingest(
        self,
        tenant: str,
        instance_id: str,
        costs: np.ndarray,
        embeddings: np.ndarray,
        *,
        resolve: str = "warm",
    ) -> Dict[str, Any]:
        """Absorb a photo delta as one new store version.

        ``resolve="warm"`` (the default) re-curates inline with the
        warm-started CELF pass; ``resolve="none"`` defers curation to the
        sweep (the solution keeps serving, marked stale via the pending
        counters).  Either way the delta itself is durable — and the
        whole operation is one atomic version bump.
        """
        if resolve not in ("warm", "none"):
            raise ValidationError(
                f"unknown resolve policy {resolve!r}; expected warm or none"
            )
        obs = probes.active()
        key = (tenant, instance_id)
        with self._key_lock(key):
            faults.check("live.append")
            entry = self._load_entry(tenant, instance_id)
            with _trace.span("live.append"):
                grown, report = entry.archive.ingest(costs, embeddings)
            new_entry = _Entry(
                grown, entry.version, entry.meta_dict(), entry.base_format
            )
            new_entry.last_ingest_at = time.time()
            # Release the old archive before the solve and the commit, so
            # peak memory holds one archive, not two.  If anything fails
            # from here on, the empty slot makes the next call reload.
            self._drop(key)
            del entry
            if resolve == "warm":
                faults.check("live.resolve")
                previous = (
                    new_entry.solution.selection if new_entry.solution else []
                )
                with _trace.span("live.resolve"):
                    solved = warm_resolve(grown.instance, previous)
                new_entry.solution = solved
                new_entry.recurated_at = time.time()
                new_entry.pending_deltas = 0
                new_entry.pending_photos = 0
                new_entry.accumulated_regret += solved.regret_bound
                self._observe_resolve(tenant, solved)
            else:
                new_entry.pending_deltas += 1
                new_entry.pending_photos += report.n_added
            version = self._commit(
                tenant, instance_id, new_entry, report.delta
            )
        if obs is not None:
            obs.live_ingests.labels(tenant=tenant).inc()
            obs.live_photos.labels(tenant=tenant).inc(report.n_added)
            obs.live_pending.labels(tenant=tenant).set(
                new_entry.pending_deltas
            )
        return {
            "tenant": tenant,
            "instance_id": instance_id,
            "version": version,
            "delta": report.to_dict(),
            "resolve": resolve,
            "solution": (
                new_entry.solution.to_dict() if new_entry.solution else None
            ),
            "recurated_at": new_entry.recurated_at,
            "regret_bound": (
                new_entry.solution.regret_bound
                if new_entry.solution
                else None
            ),
            "pending_deltas": new_entry.pending_deltas,
        }

    # ----------------------------------------------------------- re-solving

    def recurate(
        self, tenant: str, instance_id: str, *, kind: str = "warm"
    ) -> Optional[Dict[str, Any]]:
        """Re-solve the stored instance (sweep/coalesce entry point).

        ``kind="warm"`` seeds from the stored solution (coalescing any
        deferred deltas into one pass); ``kind="full"`` runs the cold
        two-phase solver and resets the accumulated regret.  Commits a
        new version only if the store did not move underneath the solve
        (a concurrent write wins and this returns ``None``; the sweep
        retries next tick).
        """
        if kind not in ("warm", "full"):
            raise ValidationError(f"unknown recuration kind {kind!r}")
        key = (tenant, instance_id)
        with self._key_lock(key):
            faults.check("live.resolve")
            entry = self._load_entry(tenant, instance_id)
            with _trace.span(f"live.recurate.{kind}"):
                if kind == "full":
                    solved = cold_resolve(entry.archive.instance)
                else:
                    previous = (
                        entry.solution.selection if entry.solution else []
                    )
                    solved = warm_resolve(entry.archive.instance, previous)
            entry.solution = solved
            entry.recurated_at = time.time()
            entry.pending_deltas = 0
            entry.pending_photos = 0
            if kind == "full":
                entry.accumulated_regret = 0.0
            else:
                entry.accumulated_regret += solved.regret_bound
            try:
                version = self._commit(tenant, instance_id, entry)
            except VersionConflict:
                return None
        self._observe_resolve(tenant, solved)
        obs = probes.active()
        if obs is not None:
            obs.live_pending.labels(tenant=tenant).set(0)
        return {
            "tenant": tenant,
            "instance_id": instance_id,
            "version": version,
            "solution": solved.to_dict(),
            "recurated_at": entry.recurated_at,
            "regret_bound": solved.regret_bound,
        }

    def commit_solution(
        self,
        tenant: str,
        instance_id: str,
        selection,
        *,
        expect_version: int,
        mode: str = "job",
        seconds: float = 0.0,
    ) -> Optional[int]:
        """Version-guarded commit of an externally computed full re-solve.

        The scheduler uses this to land a solve that ran as a background
        job: if any ingest bumped the version since the job was
        submitted, the stale selection is discarded (returns ``None``)
        and the sweep re-evaluates.  The value and regret certificate are
        recomputed locally by replaying the selection, so the stored
        solution never trusts wire-format floats.
        """
        key = (tenant, instance_id)
        with self._key_lock(key):
            entry = self._load_entry(tenant, instance_id)
            if entry.version != expect_version:
                return None
            solved = replay_solution(
                entry.archive.instance, selection, mode=mode, seconds=seconds
            )
            entry.solution = solved
            entry.recurated_at = time.time()
            entry.pending_deltas = 0
            entry.pending_photos = 0
            entry.accumulated_regret = 0.0
            try:
                version = self._commit(tenant, instance_id, entry)
            except VersionConflict:
                return None
        self._observe_resolve(tenant, solved)
        return version

    # -------------------------------------------------------------- queries

    def status(self, tenant: str, instance_id: str) -> LiveStatus:
        entry = self._load_entry(tenant, instance_id)
        archive = entry.archive
        return LiveStatus(
            tenant=tenant,
            instance_id=instance_id,
            version=entry.version,
            n_photos=archive.n,
            nnz=archive.instance.subsets[0].similarity.nnz(),
            recurated_at=entry.recurated_at,
            regret_bound=(
                entry.solution.regret_bound if entry.solution else None
            ),
            accumulated_regret=entry.accumulated_regret,
            pending_deltas=entry.pending_deltas,
            pending_photos=entry.pending_photos,
            last_ingest_at=entry.last_ingest_at,
            solution=(
                entry.solution.to_dict() if entry.solution else None
            ),
        )

    def resident_keys(self):
        """Keys currently resident (the sweep's scan set)."""
        with self._mu:
            return list(self._resident.keys())

    # ------------------------------------------------------------- metrics

    def _observe_resolve(self, tenant: str, solved: LiveSolveResult) -> None:
        obs = probes.active()
        if obs is None:
            return
        obs.live_resolves.labels(kind=solved.kind).inc()
        obs.live_resolve_seconds.labels(kind=solved.kind).observe(
            solved.seconds
        )
        obs.live_regret_bound.labels(tenant=tenant).set(solved.regret_bound)

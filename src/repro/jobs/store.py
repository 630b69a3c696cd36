"""Pluggable job stores: in-memory, and a crash-safe JSONL journal.

The store is the durability layer under :class:`repro.jobs.manager.JobManager`.
Its contract is tiny — ``save`` a record snapshot on every state change,
``load_all`` the latest snapshot (highest ``revision``) per job — so
alternative backends (SQLite, Redis, a real queue service) can slot in
later without touching the scheduler.

:class:`JournalJobStore` appends one CRC32-prefixed JSON line per state
change (*append-only*: no seeks, no rewrites, so a crash can at worst
truncate the final line).  Replay reads the file top to bottom and keeps
the snapshot with the highest ``revision`` per job id (the last one among
equals); any corrupt line — torn tail, bit flip, editor accident
mid-file — is *quarantined*: logged, counted, skipped, and the remainder
of the journal still replays.  Records carry the full
serialised instance in the :mod:`repro.core.serialize` wire format plus
the latest solver checkpoint, so a replayed ``RUNNING`` job can resume
mid-solve on a fresh manager with no other state.

Durability/throughput trade-off is explicit via ``fsync_policy``:

``"always"``
    fsync after every append (default; exactly-once up to the last
    completed fsync).
``"batch"``
    fsync every ``fsync_every`` appends — bounded data loss, much less
    write amplification.
``"never"``
    flush only; rely on the OS page cache (tests / throwaway runs).

When the journal grows past ``compact_bytes`` *and* holds more lines
than live jobs, ``save`` triggers an automatic compaction: the latest
snapshots are rewritten through a same-directory temp file, fsynced,
atomically ``os.replace``d over the journal, and the directory entry is
fsynced — a crash at any point leaves either the old or the new journal,
never a mix.

Fault-injection sites (:mod:`repro.faults`): ``journal.write`` (raise or
corrupt an append), ``journal.fsync`` (drop the fsync), and
``journal.compact`` (die mid-compaction).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from typing import Dict, Optional

from repro import faults
from repro.errors import ConfigurationError
from repro.ioutil import fsync_directory, raise_if_no_space
from repro.jobs.spec import JobRecord

__all__ = ["JobStore", "InMemoryJobStore", "JournalJobStore", "open_store"]

logger = logging.getLogger(__name__)

_FSYNC_POLICIES = frozenset({"always", "batch", "never"})


class JobStore:
    """Interface: persist job record snapshots and recover them."""

    def save(self, record: JobRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def load_all(self) -> Dict[str, JobRecord]:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (default: nothing to do)."""


class InMemoryJobStore(JobStore):
    """Volatile store: records live only as long as the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}

    def save(self, record: JobRecord) -> None:
        with self._lock:
            self._keep_locked(record)

    def _keep_locked(self, record: JobRecord) -> None:
        """Hold ``record`` unless a higher revision of its job is held.

        Equal revisions (journals written without them) keep the later
        snapshot, i.e. line order.
        """
        held = self._records.get(record.job_id)
        if held is None or record.revision >= held.revision:
            self._records[record.job_id] = record

    def load_all(self) -> Dict[str, JobRecord]:
        with self._lock:
            return dict(self._records)


def _encode_line(doc: Dict[str, object]) -> bytes:
    """One journal line: ``crc32-hex SP json NL`` over the JSON bytes."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + payload + b"\n"


def _decode_line(line: bytes) -> Dict[str, object]:
    """Parse a journal line, verifying its CRC when one is present.

    Legacy journals (pre-CRC) wrote bare JSON lines; those still parse,
    just without corruption detection.  Raises ``ValueError`` on any
    defect so the caller can quarantine the line.
    """
    if len(line) > 9 and line[8:9] == b" ":
        prefix = line[:8]
        try:
            expected = int(prefix.decode("ascii"), 16)
        except (UnicodeDecodeError, ValueError):
            expected = None
        if expected is not None:
            payload = line[9:]
            if zlib.crc32(payload) & 0xFFFFFFFF != expected:
                raise ValueError("journal line CRC32 mismatch")
            doc = json.loads(payload.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("journal line is not a JSON object")
            return doc
    doc = json.loads(line.decode("utf-8"))  # legacy bare-JSON line
    if not isinstance(doc, dict):
        raise ValueError("journal line is not a JSON object")
    return doc


class JournalJobStore(InMemoryJobStore):
    """In-memory store backed by an append-only, CRC-checked JSONL journal.

    Construction replays any existing journal at ``path`` into memory
    (quarantining corrupt lines); the manager then decides which
    recovered jobs to re-enqueue or resume.  See the module docstring
    for the durability policy and compaction protocol.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync_policy: str = "always",
        fsync_every: int = 16,
        compact_bytes: Optional[int] = None,
    ) -> None:
        if fsync_policy not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync_policy must be one of {sorted(_FSYNC_POLICIES)}, "
                f"got {fsync_policy!r}"
            )
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        if compact_bytes is not None and compact_bytes < 1:
            raise ConfigurationError("compact_bytes must be >= 1")
        super().__init__()
        self.path = str(path)
        self.fsync_policy = fsync_policy
        self.fsync_every = int(fsync_every)
        self.compact_bytes = compact_bytes
        self._quarantined = 0
        self._compactions = 0
        self._lines = 0  # journal lines on disk (live + superseded)
        self._unsynced = 0  # appends since the last fsync
        self._replayed = self._replay()
        self._file = open(self.path, "ab")

    @property
    def replayed_count(self) -> int:
        """How many distinct jobs the journal held at startup."""
        return self._replayed

    @property
    def quarantined_count(self) -> int:
        """Corrupt journal lines skipped during replay."""
        return self._quarantined

    @property
    def compaction_count(self) -> int:
        """How many times the journal has been compacted."""
        return self._compactions

    def _replay(self) -> int:
        if not os.path.exists(self.path):
            return 0
        with self._lock, open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                self._lines += 1
                try:
                    record = JobRecord.from_dict(_decode_line(line))
                except Exception as exc:
                    # Corrupt anywhere — torn tail or mid-file damage:
                    # quarantine the line, keep replaying the rest.
                    self._quarantined += 1
                    logger.warning(
                        "journal %s: quarantined corrupt line %d (%s)",
                        self.path,
                        lineno,
                        exc,
                    )
                    continue
                self._keep_locked(record)
            return len(self._records)

    def _maybe_fsync_locked(self) -> None:
        self._unsynced += 1
        if self.fsync_policy == "never":
            return
        if self.fsync_policy == "batch" and self._unsynced < self.fsync_every:
            return
        if not faults.should_drop("journal.fsync"):
            os.fsync(self._file.fileno())
        self._unsynced = 0

    def save(self, record: JobRecord) -> None:
        try:
            faults.check("journal.write")
        except OSError as exc:
            # An injected ENOSPC behaves exactly like a real full disk
            # (structured 507); other injected types pass through intact.
            raise_if_no_space(exc, self.path)
            raise
        line = faults.mangle("journal.write", _encode_line(record.to_dict()))
        with self._lock:
            self._keep_locked(record)
            try:
                self._file.write(line)
                self._file.flush()
                self._maybe_fsync_locked()
            except OSError as exc:
                # A full disk surfaces here as a structured 507 instead of
                # an unhandled 500 (injected faults have no errno and keep
                # their original type for the chaos tests).
                raise_if_no_space(exc, self.path)
                raise
            self._lines += 1
            if self._due_for_compaction_locked():
                self._compact_locked()

    def _due_for_compaction_locked(self) -> bool:
        if self.compact_bytes is None:
            return False
        if self._lines <= len(self._records):
            return False  # nothing to reclaim
        try:
            return os.path.getsize(self.path) >= self.compact_bytes
        except OSError:
            return False

    def compact(self) -> None:
        """Rewrite the journal with one line per job (latest snapshots).

        Crash-safe: writes a same-directory temp file, fsyncs it,
        atomically replaces the journal, then fsyncs the directory.
        """
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        faults.check("journal.compact")
        tmp = self.path + ".compact.tmp"
        try:
            with open(tmp, "wb") as fh:
                for record in self._records.values():
                    fh.write(_encode_line(record.to_dict()))
                fh.flush()
                if not faults.should_drop("journal.fsync"):
                    os.fsync(fh.fileno())
            self._file.close()
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if self._file.closed:  # keep the store usable after the fault
                self._file = open(self.path, "ab")
            raise
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._file = open(self.path, "ab")
        self._lines = len(self._records)
        self._unsynced = 0
        self._compactions += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


def open_store(journal_path: Optional[str]) -> JobStore:
    """The default store for a manager: journalled when a path is given."""
    return JournalJobStore(journal_path) if journal_path else InMemoryJobStore()

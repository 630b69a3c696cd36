"""Job model: specs, records, and the lifecycle state machine.

A *job* is one deferred solve request.  :class:`JobSpec` is the immutable
request — who asked (``tenant``), what to solve (the serialised instance
plus algorithm/τ parameters, exactly the ``POST /solve`` vocabulary), and
the execution envelope (priority, timeout, retry budget).  The mutable
execution state lives in :class:`JobRecord`, which walks the state machine

.. code-block:: text

    QUEUED ──► RUNNING ──► SUCCEEDED
       │          │  ╲
       │          │   ╲──► FAILED          (permanent / retries exhausted /
       │          │                         timeout)
       │          └─────► QUEUED           (transient failure → retry)
       └──────────┴─────► CANCELLED

Illegal transitions raise :class:`~repro.errors.ConfigurationError`, so a
buggy scheduler fails loudly instead of corrupting the journal.  Records
serialise with :meth:`JobRecord.to_dict` / :meth:`JobRecord.from_dict`;
the instance travels in the :mod:`repro.core.serialize` wire format, so a
journal line is self-contained and can be re-executed after a restart.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, Optional

from repro.errors import ConfigurationError, ValidationError

__all__ = ["JobState", "JobSpec", "JobRecord", "new_job_id"]


class JobState(str, Enum):
    """Lifecycle states of a job."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL: FrozenSet[JobState] = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED}
)

# RUNNING → QUEUED is the retry re-queue after a transient failure.
_TRANSITIONS: Dict[JobState, FrozenSet[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED, JobState.QUEUED}
    ),
    JobState.SUCCEEDED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


def new_job_id() -> str:
    """A fresh, URL-safe job identifier."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class JobSpec:
    """The immutable request half of a job.

    ``instance`` is the serialised PAR instance document
    (:func:`repro.core.serialize.instance_to_dict` format); the solve
    parameters mirror the synchronous ``POST /solve`` body so a job is
    exactly "a /solve request, deferred".
    """

    job_id: str
    # Exactly one of the two instance sources: an inline wire-format
    # document, or a tenant-store reference ({"tenant", "instance_id",
    # "version"?}) resolved at execution time through the warm cache.
    instance: Optional[Dict[str, Any]] = None
    by_ref: Optional[Dict[str, Any]] = None
    tenant: str = "default"
    algorithm: str = "phocus"
    tau: float = 0.0
    sparsify_method: str = "exact"
    certificate: bool = False
    seed: Optional[int] = None
    priority: int = 0
    timeout_seconds: Optional[float] = None
    # Total latency budget in milliseconds, measured from *submission*
    # (queue wait included).  A job whose budget expires is failed with
    # error_kind="deadline", keeping its latest checkpoint for a manual
    # resume; ``None`` means no deadline.
    deadline_ms: Optional[float] = None
    max_attempts: int = 3
    checkpoint_every: Optional[int] = None
    # A budget sweep: solve the same instance once per budget (a Fig 5
    # curve as one job).  parallel_workers > 1 fans the sweep out over the
    # shared-memory process pool (repro.core.parallel).
    budgets: Optional[Tuple[float, ...]] = None
    parallel_workers: Optional[int] = None
    # Multi-fidelity policy document (repro.fidelity.policy vocabulary):
    # when present the solve routes to the exclusive-choice solver.
    fidelity: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValidationError("job_id must be non-empty")
        if (self.instance is None) == (self.by_ref is None):
            raise ValidationError(
                "a job needs exactly one of 'instance' (inline document) or "
                "'by_ref' (tenant store reference)"
            )
        if self.by_ref is not None and not isinstance(self.by_ref, dict):
            raise ValidationError("'by_ref' must be an object")
        if not self.tenant:
            raise ValidationError("tenant must be non-empty")
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError("timeout_seconds must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValidationError("deadline_ms must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        if self.budgets is not None:
            budgets = tuple(float(b) for b in self.budgets)
            if not budgets:
                raise ValidationError("budgets must be non-empty when given")
            if any(not (b > 0) for b in budgets):
                raise ValidationError("every sweep budget must be positive")
            object.__setattr__(self, "budgets", budgets)
        if self.parallel_workers is not None and self.parallel_workers < 1:
            raise ValidationError("parallel_workers must be >= 1")
        if self.fidelity is not None and not isinstance(self.fidelity, dict):
            raise ValidationError("'fidelity' must be a policy object")

    def solve_payload(self) -> Dict[str, Any]:
        """The equivalent ``POST /solve`` request body."""
        payload = {
            "algorithm": self.algorithm,
            "tau": self.tau,
            "sparsify_method": self.sparsify_method,
            "certificate": self.certificate,
            "seed": self.seed,
        }
        if self.instance is not None:
            payload["instance"] = self.instance
        else:
            payload["by_ref"] = self.by_ref
        if self.checkpoint_every is not None:
            payload["checkpoint_every"] = self.checkpoint_every
        if self.budgets is not None:
            payload["budgets"] = list(self.budgets)
        if self.parallel_workers is not None:
            payload["parallel_workers"] = self.parallel_workers
        if self.fidelity is not None:
            payload["fidelity"] = self.fidelity
        return payload

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "instance": self.instance,
            "by_ref": self.by_ref,
            "algorithm": self.algorithm,
            "tau": self.tau,
            "sparsify_method": self.sparsify_method,
            "certificate": self.certificate,
            "seed": self.seed,
            "priority": self.priority,
            "timeout_seconds": self.timeout_seconds,
            "deadline_ms": self.deadline_ms,
            "max_attempts": self.max_attempts,
            "checkpoint_every": self.checkpoint_every,
            "budgets": None if self.budgets is None else list(self.budgets),
            "parallel_workers": self.parallel_workers,
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                job_id=str(doc["job_id"]),
                tenant=str(doc.get("tenant", "default")),
                instance=doc.get("instance"),
                by_ref=doc.get("by_ref"),
                algorithm=str(doc.get("algorithm", "phocus")),
                tau=float(doc.get("tau", 0.0)),
                sparsify_method=str(doc.get("sparsify_method", "exact")),
                certificate=bool(doc.get("certificate", False)),
                seed=doc.get("seed"),
                priority=int(doc.get("priority", 0)),
                timeout_seconds=doc.get("timeout_seconds"),
                deadline_ms=doc.get("deadline_ms"),
                max_attempts=int(doc.get("max_attempts", 3)),
                checkpoint_every=doc.get("checkpoint_every"),
                budgets=(
                    None
                    if doc.get("budgets") is None
                    else tuple(float(b) for b in doc["budgets"])
                ),
                parallel_workers=(
                    None
                    if doc.get("parallel_workers") is None
                    else int(doc["parallel_workers"])
                ),
                fidelity=doc.get("fidelity"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed job spec document: {exc!r}") from exc


@dataclass
class JobRecord:
    """The mutable execution half of a job.

    Timings are ``time.time()`` epoch seconds; ``solve_seconds`` is the
    wall-clock of the *successful* attempt.  ``dequeue_seq`` is the global
    order in which the scheduler handed the job to a worker — tests use it
    to assert tenant fairness without racing on thread start times.
    """

    spec: JobSpec
    state: JobState = JobState.QUEUED
    attempt: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None  # transient | permanent | timeout | cancelled
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    solve_seconds: Optional[float] = None
    dequeue_seq: Optional[int] = None
    # Latest resumable checkpoint: a base64 wire record
    # (repro.core.checkpoint) plus its small progress view.  The blob is
    # journal-only; the API serves just the progress dict.
    checkpoint: Optional[str] = None
    checkpoint_progress: Optional[Dict[str, Any]] = None
    # Bumped under the manager lock with every journalled snapshot; replay
    # keeps each job's highest revision, so a snapshot appended late
    # never overrides a newer state.  0 on journals written without it.
    revision: int = 0

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def terminal(self) -> bool:
        return self.state.terminal

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the state machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.job_id}: illegal transition {self.state.value} → "
                f"{new_state.value}"
            )
        self.state = new_state

    def to_dict(self, *, include_instance: bool = True) -> Dict[str, Any]:
        spec_doc = self.spec.to_dict()
        if not include_instance:
            spec_doc.pop("instance", None)
        return {
            "spec": spec_doc,
            "state": self.state.value,
            "attempt": self.attempt,
            "result": self.result,
            "error": self.error,
            "error_kind": self.error_kind,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "solve_seconds": self.solve_seconds,
            "dequeue_seq": self.dequeue_seq,
            "checkpoint": self.checkpoint,
            "checkpoint_progress": self.checkpoint_progress,
            "revision": self.revision,
        }

    def public_dict(self) -> Dict[str, Any]:
        """The API view of a record: everything except the (large) instance,
        the raw checkpoint blob (its progress view is kept) and the
        journal revision."""
        doc = self.to_dict(include_instance=False)
        doc.pop("checkpoint", None)
        doc.pop("revision", None)
        doc["job_id"] = self.job_id
        doc["tenant"] = self.tenant
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRecord":
        try:
            record = cls(
                spec=JobSpec.from_dict(doc["spec"]),
                state=JobState(doc.get("state", "QUEUED")),
                attempt=int(doc.get("attempt", 0)),
                result=doc.get("result"),
                error=doc.get("error"),
                error_kind=doc.get("error_kind"),
                submitted_at=float(doc.get("submitted_at", 0.0)),
                started_at=doc.get("started_at"),
                finished_at=doc.get("finished_at"),
                solve_seconds=doc.get("solve_seconds"),
                dequeue_seq=doc.get("dequeue_seq"),
                checkpoint=doc.get("checkpoint"),
                checkpoint_progress=doc.get("checkpoint_progress"),
                revision=int(doc.get("revision") or 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed job record document: {exc!r}") from exc
        return record

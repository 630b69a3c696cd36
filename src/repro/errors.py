"""Exception hierarchy for the PHOcus reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  The concrete
subclasses distinguish the three failure domains a caller may want to
handle differently: malformed problem inputs, infeasible optimisation
requests, and misconfigured components.

Each error also carries the answer the HTTP service gives for it: an
``http_status`` (422 unless a subclass says otherwise) and a
:meth:`~ReproError.to_doc` body (``{"error": message}`` plus the
structured fields a subclass adds), so the service needs one
``except ReproError`` clause rather than one per class.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    http_status = 422

    def to_doc(self) -> Dict[str, Any]:
        """The JSON body the service answers this error with."""
        return {"error": str(self)}


class ValidationError(ReproError, ValueError):
    """A problem input violates the PAR model contract.

    Raised while building :class:`repro.core.instance.PARInstance` (or any
    substrate input) when, e.g., relevance scores are negative, a similarity
    value lies outside ``[0, 1]``, or a subset references an unknown photo.
    """


class BadRequest(ValidationError):
    """The service cannot read the request itself (HTTP 400).

    An empty or unparsable body, a body that is not a JSON object, or a
    malformed ``Content-Length``.
    """

    http_status = 400


class RequestTooLarge(BadRequest):
    """A request body over the service's size limit (HTTP 413)."""

    http_status = 413


class InfeasibleError(ReproError):
    """The optimisation problem admits no feasible solution.

    The canonical case is a retention set ``S0`` whose total cost already
    exceeds the storage budget ``B``.
    """


class ConfigurationError(ReproError):
    """A component was configured inconsistently.

    For example requesting an unknown solver name, or asking the SimHash
    sparsifier for more bands than signature bits.
    """


class CheckpointError(ReproError):
    """A solve checkpoint cannot be decoded or does not fit the instance.

    Raised when a checkpoint record fails its CRC32 (bit rot, torn
    write), carries an unknown format, or references a different
    instance than the one being resumed.  Callers that merely *recover*
    (the job manager) catch this and fall back to a from-scratch solve;
    a resume explicitly requested with a bad checkpoint fails loudly.
    """


class QuotaExceeded(ReproError):
    """A tenant's storage quota refuses the write (HTTP 413).

    ``kind`` names the exhausted resource (``"bytes"`` or
    ``"instances"``); ``used``/``limit`` quantify it so the service can
    return a structured error body instead of prose.
    """

    http_status = 413

    def __init__(self, tenant: str, kind: str, used: float, limit: float) -> None:
        super().__init__(
            f"tenant {tenant!r} over {kind} quota ({used:g} of {limit:g})"
        )
        self.tenant = tenant
        self.kind = kind
        self.used = used
        self.limit = limit

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "tenant": self.tenant,
            "kind": self.kind,
            "used": self.used,
            "limit": self.limit,
        }


class RateLimited(ReproError):
    """A tenant's token bucket is empty — back off (HTTP 429).

    ``retry_after`` is the seconds until one token refills, surfaced in
    the structured error body (and usable as a ``Retry-After`` header).
    """

    http_status = 429

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is over its request rate; retry in "
            f"{retry_after:.2f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "tenant": self.tenant,
            "retry_after": self.retry_after,
        }


class InstanceNotFound(ReproError, KeyError):
    """A ``by_ref`` reference names no stored tenant instance (HTTP 404)."""

    http_status = 404

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class VersionConflict(ReproError):
    """A conditional tenant-store write found the instance moved (HTTP 409).

    Raised by :meth:`repro.tenants.store.TenantStore.put` and ``append``
    when the caller's ``expect_version`` is no longer the stored version:
    another writer committed in between, and the write computed from the
    older version is refused rather than silently overwriting it.
    """

    http_status = 409

    def __init__(self, tenant: str, instance_id: str, expected: int, actual: int) -> None:
        super().__init__(
            f"instance {instance_id!r} of tenant {tenant!r} is at version "
            f"{actual}, not {expected}; reload and retry"
        )
        self.tenant = tenant
        self.instance_id = instance_id
        self.expected = expected
        self.actual = actual

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "tenant": self.tenant,
            "instance_id": self.instance_id,
            "expected_version": self.expected,
            "version": self.actual,
        }


class DeadlineExceeded(ReproError):
    """A request's deadline expired while its solve was in flight (HTTP 504).

    Raised cooperatively from the solver hot loops when a
    :class:`repro.resilience.Deadline` armed for the current thread
    expires (or is interrupted, e.g. by a graceful drain).  Instead of
    burning CPU for a client that has already given up, the solve stops
    at the next iteration and carries its latest resumable ``checkpoint``
    document (:mod:`repro.core.checkpoint` plain-dict form) out with the
    exception, so the work done so far is never lost: the job manager
    persists it and a later resume continues bit-identically.

    ``reason`` distinguishes a genuine timeout (``"deadline"``) from an
    external interruption (``"drain"``, ``"clock_skew"``, ...).
    """

    http_status = 504

    def __init__(
        self,
        message: str,
        *,
        reason: str = "deadline",
        deadline_seconds: "float | None" = None,
        elapsed_seconds: "float | None" = None,
        checkpoint: "dict | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        self.checkpoint = checkpoint

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "reason": self.reason,
            "deadline_seconds": self.deadline_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "progress": self.progress(),
        }

    def progress(self) -> "dict | None":
        """The checkpoint's small progress view (``None`` without one)."""
        if not isinstance(self.checkpoint, dict):
            return None
        progress = self.checkpoint.get("progress")
        return progress if isinstance(progress, dict) else None


class ServiceOverloaded(ReproError):
    """The service shed this request to protect itself (HTTP 503).

    Raised by the admission controller (:mod:`repro.resilience.admission`)
    *before* expensive work starts — when in-flight capacity is gone,
    when one tenant would exceed its fair share under contention, when
    the predicted queue wait cannot meet the request's deadline, or while
    the service is draining.  ``retry_after`` is the suggested backoff in
    seconds (also sent as the ``Retry-After`` header); ``reason`` is a
    stable machine-readable shed cause.
    """

    http_status = 503

    def __init__(
        self,
        message: str,
        *,
        reason: str = "capacity",
        retry_after: float = 1.0,
        tenant: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after
        self.tenant = tenant

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "error": str(self),
            "reason": self.reason,
            "retry_after": self.retry_after,
        }
        if self.tenant is not None:
            doc["tenant"] = self.tenant
        return doc


class StorageExhausted(ReproError, OSError):
    """A durable write failed because the disk is full (HTTP 507).

    Raised when a journal append or tenant-store write hits ``ENOSPC`` /
    ``EDQUOT`` (or a read-only filesystem), so the service can answer a
    structured ``507 Insufficient Storage`` instead of an unhandled 500
    traceback.  Classified as *transient* by
    :func:`repro.core.solver.classify_failure` — space may be reclaimed,
    so a retried job can plausibly succeed.
    """

    http_status = 507

    def __init__(self, message: str, *, path: "str | None" = None, errno_value: "int | None" = None) -> None:
        ReproError.__init__(self, message)
        self.path = path
        self.errno_value = errno_value
        self.kind = "storage_exhausted"

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "kind": self.kind,
            "path": self.path,
            "errno": self.errno_value,
        }


class TransientSolveError(ReproError):
    """A solve failed for a reason that may succeed on retry.

    Raised (or used to wrap lower-level faults) when the failure is
    environmental — a flaky backend, resource exhaustion, an interrupted
    worker — rather than a property of the problem input.  The job
    orchestration layer retries these with exponential backoff; every
    other :class:`ReproError` is treated as permanent and fails the job
    immediately (see :func:`repro.core.solver.classify_failure`).
    """

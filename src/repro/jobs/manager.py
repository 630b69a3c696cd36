"""The job manager: durable queued solves on a worker pool.

:class:`JobManager` is the orchestration façade the service and CLI talk
to: ``submit`` / ``status`` / ``result`` / ``cancel`` / ``stats``.  It
owns the fair bounded queue (:mod:`repro.jobs.queue`), the worker pool
(:mod:`repro.jobs.worker`), and the durability layer
(:mod:`repro.jobs.store`), and implements the scheduling policy:

* every state change is persisted *before* the next scheduling step, so
  a crash leaves a journal a fresh manager can replay;
* transient failures (:func:`repro.core.solver.classify_failure`) are
  retried with exponential backoff + jitter up to ``max_attempts``;
  permanent failures and per-job timeouts fail immediately;
* cancellation works in every non-terminal state — queued jobs are pulled
  out of the queue, running jobs are flagged and abandoned at the next
  cancellation checkpoint;
* on construction, unfinished jobs recovered from the journal (QUEUED or
  RUNNING at crash time) are re-enqueued exactly once; finished jobs are
  kept as queryable history.
"""

from __future__ import annotations

import copy
import inspect
import logging
import math
import random
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.core.checkpoint import (
    checkpoint_progress,
    decode_record_b64,
    encode_record_b64,
)
from repro.core.solver import PERMANENT, TRANSIENT, classify_failure
from repro.errors import (
    CheckpointError,
    DeadlineExceeded,
    ServiceOverloaded,
    ValidationError,
)
from repro.faults.plan import ProcessKilled
from repro.jobs.queue import FairPriorityQueue, QueueFull
from repro.jobs.spec import JobRecord, JobSpec, JobState, new_job_id
from repro.jobs.store import InMemoryJobStore, JobStore, JournalJobStore
from repro.jobs.worker import WorkerPool, execute_solve_payload, run_with_timeout
from repro.obs import probes as _obs_probes
from repro.obs import trace as _trace
from repro.resilience.deadline import Deadline, deadline_scope

__all__ = ["JobManager", "QueueFull"]

logger = logging.getLogger(__name__)


def _supports_checkpoints(fn: Callable[..., Any]) -> bool:
    """Whether a solve function accepts the checkpoint keyword hooks.

    Injected test solve_fns are usually plain ``spec → doc`` callables;
    they keep working untouched.  A function opts in by declaring
    ``checkpoint_sink`` (and ``resume_from``) keywords, or ``**kwargs``.
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return True
    return "checkpoint_sink" in params


class JobManager:
    """Accepts solve requests as durable jobs and runs them asynchronously.

    Parameters
    ----------
    workers:
        Size of the worker thread pool.
    queue_depth:
        Bound on waiting jobs; :class:`QueueFull` signals backpressure
        (``0`` disables the bound).
    journal_path:
        When given, jobs are journalled to this JSONL file and unfinished
        ones are replayed on construction.  Mutually exclusive with
        ``store``.
    store:
        An explicit :class:`~repro.jobs.store.JobStore` (default:
        in-memory).
    solve_fn:
        The function executed per job (``JobSpec → result doc``).  The
        default runs the real solver; tests inject failures through it.
    retry_base_delay / retry_max_delay:
        Exponential backoff envelope for transient retries (delay for
        attempt *k* is ``base · 2^(k-1)``, capped, with ±25% jitter).
    autostart:
        Start the worker pool immediately (set ``False`` to stage jobs
        without executing, e.g. in replay tests).
    default_checkpoint_every:
        When set, jobs that do not specify their own ``checkpoint_every``
        checkpoint every this-many greedy picks; replayed ``RUNNING``
        jobs then resume from their last checkpoint instead of starting
        from scratch.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 256,
        *,
        journal_path: Optional[str] = None,
        store: Optional[JobStore] = None,
        solve_fn: Optional[Callable[[JobSpec], Dict[str, Any]]] = None,
        retry_base_delay: float = 0.5,
        retry_max_delay: float = 30.0,
        latency_window: int = 512,
        autostart: bool = True,
        rng_seed: Optional[int] = None,
        default_checkpoint_every: Optional[int] = None,
        by_ref_resolver: Optional[Callable[[Dict[str, Any]], Any]] = None,
        wait_observer: Optional[Callable[[float], None]] = None,
    ) -> None:
        if store is not None and journal_path is not None:
            raise ValueError("give either store or journal_path, not both")
        if default_checkpoint_every is not None and default_checkpoint_every < 1:
            raise ValueError("default_checkpoint_every must be >= 1")
        self._store: JobStore = (
            store
            if store is not None
            else (JournalJobStore(journal_path) if journal_path else InMemoryJobStore())
        )
        self._default_checkpoint_every = default_checkpoint_every
        self._by_ref_resolver = by_ref_resolver
        self._solve_fn = solve_fn or self._default_solve
        self._solve_accepts_checkpoints = _supports_checkpoints(self._solve_fn)
        self._retry_base_delay = retry_base_delay
        self._retry_max_delay = retry_max_delay
        self._rng = random.Random(rng_seed)
        # Fed the measured queue wait (submission → first dequeue) of every
        # job; the service wires the admission controller's EWMA here.
        self._wait_observer = wait_observer
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        # Per-running-job deadline handles; drain() trips every one with
        # expire_now("drain") so solves checkpoint and yield cooperatively.
        self._running_deadlines: Dict[str, Deadline] = {}
        self._draining = False
        self._timers: List[threading.Timer] = []
        self._dequeue_counter = 0
        self._latencies: deque = deque(maxlen=latency_window)
        self._queue = FairPriorityQueue(maxsize=queue_depth, on_pop=self._mark_dequeued)
        self._pool = WorkerPool(self._queue, self._execute, workers=workers)
        self._closed = False
        self._replay()
        if autostart:
            self.start()

    # ------------------------------------------------------------------ API

    def submit(self, spec: JobSpec) -> str:
        """Enqueue a job; returns its id.  Raises :class:`QueueFull` at capacity."""
        if self._closed:
            raise RuntimeError("job manager is shut down")
        if self._draining:
            raise ServiceOverloaded(
                "job manager is draining; submit to another instance",
                reason="draining",
            )
        record = JobRecord(spec=spec)
        with self._lock:
            if spec.job_id in self._records:
                raise ValueError(f"duplicate job id {spec.job_id!r}")
            self._records[spec.job_id] = record
            self._cancel_events[spec.job_id] = threading.Event()
        obs = _obs_probes.active()
        try:
            self._queue.put(record, tenant=spec.tenant, priority=spec.priority)
        except QueueFull:
            with self._lock:
                del self._records[spec.job_id]
                del self._cancel_events[spec.job_id]
            if obs is not None:
                obs.jobs_rejected.inc()
            raise
        if obs is not None:
            obs.jobs_submitted.labels(tenant=spec.tenant).inc()
        self._save(record)
        return spec.job_id

    def submit_solve(self, instance_doc: Dict[str, Any], **spec_kwargs: Any) -> str:
        """Convenience: build a :class:`JobSpec` (fresh id) and submit it."""
        spec_kwargs.setdefault("job_id", new_job_id())
        return self.submit(JobSpec(instance=instance_doc, **spec_kwargs))

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The public record document, or ``None`` for an unknown id."""
        with self._lock:
            record = self._records.get(job_id)
            return record.public_dict() if record is not None else None

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The solution document of a SUCCEEDED job (``None`` otherwise)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.state is not JobState.SUCCEEDED:
                return None
            return record.result

    def wait(self, job_id: str, timeout: float = 30.0, poll: float = 0.01) -> Dict[str, Any]:
        """Block until the job reaches a terminal state; returns its status."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc is None:
                raise KeyError(f"unknown job {job_id!r}")
            if JobState(doc["state"]).terminal:
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} not finished after {timeout}s")
            time.sleep(poll)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation.  True iff the job was still cancellable."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise KeyError(f"unknown job {job_id!r}")
            if record.terminal:
                return False
            event = self._cancel_events.get(job_id)
            if event is not None:
                event.set()
            if record.state is JobState.QUEUED:
                removed = self._queue.remove(lambda item: item.job_id == job_id)
                # Not in the queue: either a retry timer holds it (cancel
                # now; the timer checks state) or a worker just popped it
                # (the worker's pre-flight checkpoint sees the event).
                if removed is not None or record.state is JobState.QUEUED:
                    record.transition(JobState.CANCELLED)
                    record.error_kind = "cancelled"
                    record.finished_at = time.time()
                    self._save(record)
                    self._count_cancelled(record)
            return True

    def jobs(
        self, state: Optional[str] = None, tenant: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Public documents of all known jobs, optionally filtered."""
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.submitted_at)
            docs = [
                r.public_dict()
                for r in records
                if (state is None or r.state.value == state)
                and (tenant is None or r.tenant == tenant)
            ]
        return docs

    def stats(self) -> Dict[str, Any]:
        """Operational gauges: depth, per-state counts, utilisation, latency."""
        with self._lock:
            by_state = {s.value: 0 for s in JobState}
            for record in self._records.values():
                by_state[record.state.value] += 1
            latencies = sorted(self._latencies)
        busy = self._pool.busy_count
        stats: Dict[str, Any] = {
            "draining": self._draining,
            "queue": {
                "depth": len(self._queue),
                "limit": self._queue.maxsize,
                "by_tenant": self._queue.depth_by_tenant(),
                "oldest_wait_seconds": round(
                    self._queue.oldest_wait_seconds(), 4
                ),
            },
            "jobs": by_state,
            "workers": {
                "total": self._pool.size,
                "busy": busy,
                "utilisation": busy / self._pool.size if self._pool.size else 0.0,
            },
            "solve_latency_seconds": {
                "count": len(latencies),
                "p50": _percentile(latencies, 0.50),
                "p90": _percentile(latencies, 0.90),
                "p99": _percentile(latencies, 0.99),
            },
        }
        if isinstance(self._store, JournalJobStore):
            stats["journal"] = {
                "replayed": self._store.replayed_count,
                "quarantined": self._store.quarantined_count,
                "compactions": self._store.compaction_count,
            }
        obs = _obs_probes.active()
        if obs is not None:
            # Failure classification tallies (classify_failure verdicts,
            # retries, timeouts, 429s) live in the obs registry; surface
            # them next to the journal gauges when observability is on.
            stats["failures"] = obs.failure_counts()
        return stats

    def start(self) -> "JobManager":
        self._pool.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop workers and retry timers and close the store.

        Unfinished jobs stay QUEUED/RUNNING in the journal — a future
        manager on the same journal picks them up.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
        self._pool.stop(wait=wait)
        self._store.close()

    def drain(self, grace_seconds: float = 10.0) -> Dict[str, Any]:
        """Gracefully stop: checkpoint running jobs and requeue them.

        The drain sequence (idempotent; returns a summary document):

        1. stop accepting — new :meth:`submit` calls shed with
           :class:`~repro.errors.ServiceOverloaded` (``reason="draining"``);
           pending retry timers are cancelled (their jobs are already
           journalled QUEUED and will replay).
        2. interrupt — every running job's deadline handle is tripped with
           ``expire_now("drain")``; the solver raises at its next
           cooperative check carrying a fresh checkpoint, and the outcome
           handler journals the job back to QUEUED.
        3. grace wait — up to ``grace_seconds`` for running jobs to yield.
        4. force-requeue stragglers — a non-cooperative solve (stuck in a
           C call, injected stall) is abandoned: its job goes back to
           QUEUED in the journal with its *last persisted* checkpoint, and
           the still-running thread can no longer touch the record (the
           checkpoint sink and outcome handler both re-check the state).
        5. shutdown — workers stop, the journal is flushed and closed.

        A fresh manager on the same journal replays every QUEUED job and
        resumes each solve from its checkpoint bit-identically.
        """
        self._draining = True
        obs = _obs_probes.active()
        if obs is not None:
            obs.resilience_draining.set(1)
        with self._lock:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
        with self._lock:
            running_ids = set(self._running_deadlines)
            for deadline in self._running_deadlines.values():
                deadline.expire_now("drain")
        forced = 0
        wait_until = time.monotonic() + max(0.0, grace_seconds)
        while time.monotonic() < wait_until:
            with self._lock:
                if not any(
                    r.state is JobState.RUNNING for r in self._records.values()
                ):
                    break
            time.sleep(0.02)
        with self._lock:
            for record in self._records.values():
                if record.state is JobState.RUNNING:
                    # Straggler: abandon its solve thread, requeue from the
                    # last *persisted* checkpoint.  After this transition
                    # the solve thread's sink/outcome guards see != RUNNING
                    # and leave the record alone; setting the cancel event
                    # unblocks the worker thread polling the solve.
                    record.transition(JobState.QUEUED)
                    forced += 1
                    event = self._cancel_events.get(record.job_id)
                    if event is not None:
                        event.set()
                    try:
                        self._save(record)
                    except Exception:  # noqa: BLE001 - drain must not die
                        logger.exception(
                            "drain: failed to journal straggler %s", record.job_id
                        )
        self.shutdown(wait=True)
        summary = {
            "interrupted": len(running_ids),
            "forced_requeue": forced,
        }
        logger.info("drain complete: %s", summary)
        return summary

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (the admission controller's queue view)."""
        return len(self._queue)

    @property
    def queue_limit(self) -> int:
        """The queue's hard bound (``0`` = unbounded)."""
        return self._queue.maxsize

    def __enter__(self) -> "JobManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ internals

    def _default_solve(
        self,
        spec: JobSpec,
        *,
        checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        resume_from: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        payload = spec.solve_payload()
        if "checkpoint_every" not in payload and self._default_checkpoint_every:
            payload["checkpoint_every"] = self._default_checkpoint_every
        if spec.by_ref is not None:
            if self._by_ref_resolver is None:
                raise ValidationError(
                    "this job manager has no tenant store to resolve 'by_ref'"
                )
            # The resolver is a context manager factory (the service wires
            # Tenants.lease_for_solve): the cache lease spans the solve, so
            # the packed segment cannot be evicted mid-run.
            with self._by_ref_resolver(spec.by_ref) as instance:
                return execute_solve_payload(
                    payload,
                    instance=instance,
                    checkpoint_sink=checkpoint_sink,
                    resume_from=resume_from,
                )
        return execute_solve_payload(
            payload, checkpoint_sink=checkpoint_sink, resume_from=resume_from
        )

    def _snapshot(self, record: JobRecord) -> JobRecord:
        """A copy of ``record`` at its next revision, taken under the lock.

        Revisions follow the order of the changes they capture, whatever
        order the snapshots reach the journal in, and replay keeps the
        highest: a QUEUED line appended after its job's SUCCEEDED line
        can no longer make the job run twice.
        """
        with self._lock:
            record.revision += 1
            return copy.copy(record)

    def _save(self, record: JobRecord) -> None:
        """Journal a snapshot of ``record`` (outside the lock, unless held)."""
        self._store.save(self._snapshot(record))

    @staticmethod
    def _count_cancelled(record: JobRecord) -> None:
        obs = _obs_probes.active()
        if obs is not None:
            obs.jobs_failures.labels(kind="cancelled").inc()
            obs.jobs_completed.labels(
                tenant=record.tenant, state=JobState.CANCELLED.value
            ).inc()

    def _mark_dequeued(self, record: JobRecord) -> None:
        # Runs under the queue lock, atomically with the pop: dequeue_seq
        # is therefore a faithful global dispatch order even with many
        # workers racing (tests assert tenant fairness on it).
        self._dequeue_counter += 1
        record.dequeue_seq = self._dequeue_counter

    def _replay(self) -> None:
        """Adopt journal state: finished jobs become history, unfinished
        jobs are re-enqueued exactly once (RUNNING-at-crash counts as
        unfinished — the attempt died with the old process).  A recovered
        RUNNING job keeps its last checkpoint, so its next attempt
        resumes mid-solve instead of starting over."""
        recovered = self._store.load_all()
        with self._lock:
            for record in sorted(recovered.values(), key=lambda r: r.submitted_at):
                self._records[record.job_id] = record
                if record.terminal:
                    continue
                self._cancel_events[record.job_id] = threading.Event()
                if record.state is JobState.RUNNING:
                    record.transition(JobState.QUEUED)
                    self._save(record)
                self._queue.put(
                    record,
                    tenant=record.tenant,
                    priority=record.spec.priority,
                    force=True,
                )

    def _execute(self, record: JobRecord) -> None:
        """Worker-side lifecycle of one dequeued job."""
        event = self._cancel_events.get(record.job_id) or threading.Event()
        with self._lock:
            if record.state is not JobState.QUEUED:
                return  # cancelled (or otherwise resolved) while waiting
            if event.is_set():
                record.transition(JobState.CANCELLED)
                record.error_kind = "cancelled"
                record.finished_at = time.time()
                self._save(record)
                self._count_cancelled(record)
                return
            record.transition(JobState.RUNNING)
            record.attempt += 1
            record.started_at = time.time()
            obs = _obs_probes.active()
            if record.attempt == 1:
                # True queue wait (submission → first dequeue); retry
                # attempts would fold the backoff delay in and lie.
                waited = max(0.0, record.started_at - record.submitted_at)
                if obs is not None:
                    obs.jobs_wait_seconds.observe(waited)
                if self._wait_observer is not None:
                    self._wait_observer(waited)
            # The job's latency budget counts from *submission*: a job that
            # waited out its whole deadline in the queue fails here without
            # burning a worker on an answer nobody is waiting for.
            budget_left: Optional[float] = None
            if record.spec.deadline_ms is not None:
                budget_left = record.spec.deadline_ms / 1000.0 - max(
                    0.0, record.started_at - record.submitted_at
                )
                if budget_left <= 0:
                    record.transition(JobState.FAILED)
                    record.error = (
                        f"deadline of {record.spec.deadline_ms:g}ms expired "
                        "in the queue before execution"
                    )
                    record.error_kind = "deadline"
                    record.finished_at = time.time()
                    if obs is not None:
                        obs.resilience_deadline_exceeded.labels(where="queue").inc()
                        obs.jobs_failures.labels(kind="deadline").inc()
                        obs.jobs_completed.labels(
                            tenant=record.tenant, state=record.state.value
                        ).inc()
                    self._save(record)
                    return
            # One deadline handle per execution: timed when the spec has a
            # budget, interrupt-only otherwise — either way drain() can
            # trip it and stop the solve at its next cooperative check.
            job_deadline = Deadline(budget_left)
            self._running_deadlines[record.job_id] = job_deadline
            resume_doc: Optional[Dict[str, Any]] = None
            if record.checkpoint and self._solve_accepts_checkpoints:
                try:
                    resume_doc = decode_record_b64(record.checkpoint)
                except CheckpointError as exc:
                    # A corrupt checkpoint never blocks the job — fall
                    # back to solving from scratch.
                    logger.warning(
                        "job %s: discarding corrupt checkpoint (%s)",
                        record.job_id,
                        exc,
                    )
                    record.checkpoint = None
                    record.checkpoint_progress = None
        self._save(record)
        # Set under the lock as the outcome is taken; from then on an
        # abandoned (timed-out or cancelled) solve thread's checkpoints
        # are dropped, so none can follow the outcome into the journal.
        attempt_over = False

        if self._solve_accepts_checkpoints:

            def _on_checkpoint(doc: Dict[str, Any]) -> None:
                # Runs on the solve thread, possibly after a timeout or
                # cancel abandoned it — only persist while still RUNNING.
                blob = encode_record_b64(doc)
                progress = checkpoint_progress(doc)
                with self._lock:
                    if attempt_over or record.state is not JobState.RUNNING:
                        return
                    record.checkpoint = blob
                    record.checkpoint_progress = progress
                    snapshot = self._snapshot(record)
                self._store.save(snapshot)

            solve_call = lambda: self._solve_fn(  # noqa: E731
                record.spec,
                checkpoint_sink=_on_checkpoint,
                resume_from=resume_doc,
            )
        else:
            solve_call = lambda: self._solve_fn(record.spec)  # noqa: E731

        def scoped_solve() -> Any:
            # Runs on the solve thread run_with_timeout spawns — the
            # deadline scope must be armed there, not on this worker
            # thread, for the solver's thread-local check to see it.
            with deadline_scope(job_deadline):
                return solve_call()

        try:
            with _trace.span("jobs.execute") as sp:
                sp.annotate(
                    job_id=record.job_id,
                    tenant=record.tenant,
                    attempt=record.attempt,
                )
                outcome, value = run_with_timeout(
                    scoped_solve,
                    timeout=record.spec.timeout_seconds,
                    cancel_event=event,
                )
                sp.annotate(outcome=outcome)
        finally:
            self._running_deadlines.pop(record.job_id, None)

        if outcome == "error" and isinstance(value, ProcessKilled):
            # Emulated SIGKILL (fault injection): die *without* touching
            # the record, exactly as a real process death would — the
            # journal keeps the job RUNNING with its last checkpoint, and
            # the next manager on the same journal resumes it.
            raise value

        # Journal the outcome before publishing it: the transition is made
        # on a copy, the copy is saved, and only then does the live record
        # (what status() and wait() read) move.  A job is therefore never
        # reported finished — or requeued — ahead of its journal line, so
        # a crash in between replays it instead of losing or repeating it.
        with self._lock:
            attempt_over = True
            if record.state is not JobState.RUNNING:
                return  # resolved concurrently; nothing to record
            done = self._snapshot(record)
            event_kind = self._apply_outcome(done, outcome, value)
        try:
            self._store.save(done)
        except Exception:
            # The journal refused the line (a full disk, say): the outcome
            # still stands, only its durability is lost — publish it rather
            # than leave the job RUNNING, and let the worker log the error.
            self._publish(record, done, outcome, event_kind)
            raise
        self._publish(record, done, outcome, event_kind)

    def _publish(
        self,
        record: JobRecord,
        done: JobRecord,
        outcome: str,
        event_kind: Optional[str],
    ) -> None:
        """Make ``done`` (an outcome applied to a copy) the live record."""
        obs = _obs_probes.active()
        with self._lock:
            if record.state is not JobState.RUNNING:
                return  # drained or abandoned while the outcome was saved
            vars(record).update(vars(done))
            if outcome == "ok":
                self._latencies.append(record.solve_seconds)
            if event_kind == "retry":
                self._schedule_retry(record)
            if obs is None:
                return
            if outcome == "ok":
                obs.jobs_run_seconds.observe(record.solve_seconds)
            elif event_kind == "drain":
                obs.jobs_drain_interrupted.inc()
            elif event_kind == "deadline":
                obs.resilience_deadline_exceeded.labels(where="job").inc()
            elif event_kind == "timeout":
                obs.jobs_timeouts.inc()
            elif event_kind == "retry":
                obs.jobs_retries.inc()
            if record.error_kind is not None and outcome != "ok":
                # error_kind doubles as the classify_failure verdict:
                # transient / transient_exhausted / permanent / timeout
                # / cancelled.
                obs.jobs_failures.labels(kind=record.error_kind).inc()
            if record.terminal:
                obs.jobs_completed.labels(
                    tenant=record.tenant, state=record.state.value
                ).inc()

    @staticmethod
    def _apply_outcome(record: JobRecord, outcome: str, value: Any) -> Optional[str]:
        """Move a RUNNING record to where ``outcome`` leaves it.

        Returns what else the outcome calls for — ``"retry"`` (schedule a
        backoff requeue), ``"drain"``, ``"deadline"`` or ``"timeout"``
        (count it) — or ``None``.
        """
        now = time.time()
        if outcome == "ok":
            record.transition(JobState.SUCCEEDED)
            record.result = value
            record.error = None
            record.error_kind = None
            record.checkpoint = None  # finished: the blob is dead weight
            record.finished_at = now
            record.solve_seconds = now - (record.started_at or now)
            return None
        if outcome == "cancelled":
            record.transition(JobState.CANCELLED)
            record.error_kind = "cancelled"
            record.finished_at = now
            return None
        if outcome == "error" and isinstance(value, DeadlineExceeded):
            # The solve stopped cooperatively and carried its latest
            # checkpoint out with the exception — persist it so the work
            # done is never lost, whatever happens next.
            if value.checkpoint is not None:
                record.checkpoint = encode_record_b64(value.checkpoint)
                record.checkpoint_progress = checkpoint_progress(value.checkpoint)
            if value.reason == "drain":
                # Graceful drain: back to QUEUED (the legal retry
                # transition) in the journal only — the next manager on
                # this journal resumes the solve bit-identically.
                record.transition(JobState.QUEUED)
                record.error = None
                record.error_kind = None
                return "drain"
            # A genuine expiry: the client is gone; retrying for them
            # wastes capacity (permanent), but the persisted checkpoint
            # allows a deliberate manual resume.
            record.transition(JobState.FAILED)
            record.error = f"DeadlineExceeded: {value}"
            record.error_kind = "deadline"
            record.finished_at = now
            return "deadline"
        if outcome == "timeout":
            record.transition(JobState.FAILED)
            record.error = f"solve exceeded timeout of {record.spec.timeout_seconds}s"
            record.error_kind = "timeout"
            record.finished_at = now
            return "timeout"
        # outcome == "error"
        kind = classify_failure(value)
        record.error = f"{type(value).__name__}: {value}"
        if kind == TRANSIENT and record.attempt < record.spec.max_attempts:
            record.error_kind = TRANSIENT
            record.transition(JobState.QUEUED)
            return "retry"
        record.error_kind = PERMANENT if kind == PERMANENT else "transient_exhausted"
        record.transition(JobState.FAILED)
        record.finished_at = now
        return None

    def _schedule_retry(self, record: JobRecord) -> None:
        """Re-enqueue after exponential backoff with ±25% jitter."""
        delay = min(
            self._retry_max_delay,
            self._retry_base_delay * math.pow(2.0, record.attempt - 1),
        )
        delay *= 1.0 + self._rng.uniform(-0.25, 0.25)
        timer = threading.Timer(delay, self._requeue, args=(record,))
        timer.daemon = True
        self._timers.append(timer)
        timer.start()

    def _requeue(self, record: JobRecord) -> None:
        with self._lock:
            if self._closed or self._draining or record.state is not JobState.QUEUED:
                # Cancelled, shut down, or draining while backing off: the
                # job is journalled QUEUED either way and replays later.
                return
            self._queue.put(
                record,
                tenant=record.tenant,
                priority=record.spec.priority,
                force=True,
            )


def _percentile(sorted_values: List[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]

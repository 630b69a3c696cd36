"""Worker pool: threads that pull jobs off the queue and run solves.

Two layers live here:

* :func:`execute_solve_payload` — the one true implementation of "run a
  ``/solve``-shaped request": deserialise, optionally sparsify, solve,
  report the true objective.  The synchronous ``POST /solve`` fast path
  and every background job share it, so the two paths can never drift.
* :class:`WorkerPool` + :func:`run_with_timeout` — the execution
  machinery.  Each worker thread loops ``queue.get() → handler(job)``.
  The handler (the manager's ``_execute``) runs the solve in a *nested*
  thread so it can enforce a per-job timeout and observe cancellation at
  poll-interval checkpoints; Python threads cannot be killed, so a timed
  out / cancelled solve is abandoned (daemon thread) and its result
  discarded — the job record is what carries the truth.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import faults as _faults
from repro.core.bounds import certify
from repro.core.serialize import (
    instance_from_dict,
    number_field,
    numbers_field,
    solution_to_dict,
)
from repro.core.solver import checkpointable_algorithms, solve
from repro.errors import ValidationError
from repro.obs import probes as _obs_probes
from repro.obs import trace as _trace
from repro.resilience.deadline import Deadline, deadline_scope
from repro.sparsify.pipeline import sparsify_instance

__all__ = ["execute_solve_payload", "run_with_timeout", "WorkerPool"]


def execute_solve_payload(
    payload: Dict[str, Any],
    *,
    instance: Optional[Any] = None,
    checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run a ``/solve``-style request body and return the response document.

    The payload vocabulary: ``instance`` (wire-format dict, required),
    ``algorithm``, ``tau``, ``sparsify_method``, ``certificate``, ``seed``,
    ``checkpoint_every``, ``budgets``, ``parallel_workers``.  The reported
    ``value`` is always the *true* objective on the original
    (unsparsified) instance.

    ``instance`` (keyword) bypasses the payload's ``instance`` document
    with an already-built :class:`~repro.core.instance.PARInstance` —
    the ``by_ref`` path resolves references through the tenant store and
    warm cache and hands the live instance in here, so by-reference and
    inline solves share every line below and can never drift.

    ``budgets`` turns the request into a *sweep*: the (possibly
    sparsified) instance is solved once per budget via
    :func:`repro.core.solver.solve_many` — fanned out over the
    shared-memory process pool when ``parallel_workers > 1`` — and the
    response is ``{"sweep": true, "solutions": [...]}`` with one solution
    document per budget, in budget order.  Sweeps are not checkpointable
    (each member solve is short; retries re-run the whole sweep), so the
    crash-safety hooks are ignored for them.

    ``checkpoint_sink`` / ``resume_from`` thread the crash-safety hooks
    through to :func:`repro.core.solver.solve`.  Resume is sound even
    under ``tau > 0``: sparsification happens before the solve and is
    deterministic in ``seed``, so the resumed run sees the identical
    sparsified instance the checkpoint was taken against.
    """
    # A payload deadline (the sync /solve path: header or body field) arms
    # a scope for this thread; job-path deadlines are armed by the manager
    # instead (measured from submission) and nest transparently.
    payload_deadline_ms = payload.get("deadline_ms")
    if payload_deadline_ms:
        with deadline_scope(Deadline(float(payload_deadline_ms) / 1000.0)):
            inner = dict(payload)
            inner.pop("deadline_ms", None)
            return execute_solve_payload(
                inner,
                instance=instance,
                checkpoint_sink=checkpoint_sink,
                resume_from=resume_from,
            )
    # Chaos site: a "drop" rule here stalls the solve deterministically —
    # overload and drain tests use it to manufacture slow requests.
    if _faults.should_drop("resilience.slow_solve"):
        time.sleep(0.05)
    if instance is None:
        instance_doc = payload.get("instance")
        if not isinstance(instance_doc, dict):
            raise ValidationError("request body needs 'instance' of type dict")
        instance = instance_from_dict(instance_doc)
    algorithm = payload.get("algorithm") or "phocus"
    _obs = _obs_probes.active()
    if _obs is not None:
        _obs.solve_requests.labels(algorithm=str(algorithm)).inc()
    tau = number_field(payload, "tau", 0.0)
    method = payload.get("sparsify_method") or "exact"
    certificate = bool(payload.get("certificate", False))
    seed = number_field(payload, "seed", integer=True, minimum=0)
    budgets = numbers_field(payload, "budgets")
    rng = np.random.default_rng(seed)

    solver_instance = instance
    sparsify_doc: Optional[Dict[str, Any]] = None
    if tau > 0.0:
        solver_instance, report = sparsify_instance(
            instance, tau, method=method, rng=rng
        )
        sparsify_doc = {
            "tau": report.tau,
            "method": report.method,
            "kept_fraction": report.kept_fraction,
            "checked_fraction": report.checked_fraction,
        }
    # checkpoint_every is meaningless without somewhere to put the
    # snapshots — the synchronous /solve path has no sink, so drop it.
    checkpoint_every = (
        payload.get("checkpoint_every") if checkpoint_sink is not None else None
    )
    fidelity = payload.get("fidelity")
    if fidelity is not None:
        if budgets:
            raise ValidationError(
                "use the fidelity policy's own 'budgets' key for "
                "multi-fidelity sweeps, not the top-level 'budgets'"
            )
        with _trace.span("solve.fidelity") as sp:
            sp.annotate(n=instance.n, tau=tau)
            return _execute_fidelity(
                instance, solver_instance, sparsify_doc, fidelity,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=checkpoint_sink,
                resume_from=resume_from,
            )
    if budgets:
        return _execute_sweep(
            instance,
            solver_instance,
            sparsify_doc,
            algorithm=algorithm,
            budgets=budgets,
            certificate=certificate,
            seed=seed,
            workers=payload.get("parallel_workers"),
        )

    # The hooks are best-effort: for algorithms that cannot checkpoint
    # (exact / randomised baselines) they are ignored rather than
    # rejected, so one manager can run a mixed workload.
    if algorithm not in checkpointable_algorithms():
        checkpoint_every = checkpoint_sink = resume_from = None
    sparsified = solver_instance is not instance
    with _trace.span("solve.payload") as sp:
        sp.annotate(algorithm=str(algorithm), n=instance.n, tau=tau)
        solution = solve(
            solver_instance,
            algorithm,
            certificate=certificate and not sparsified,
            rng=rng,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )
    if sparsified:
        report = certify(instance, solution.selection, bound=certificate)
        solution.value, solution.ratio_certificate = report.value, report.ratio
    doc = solution_to_dict(solution)
    doc["sparsify"] = sparsify_doc
    return doc


def _execute_fidelity(
    instance,
    solver_instance,
    sparsify_doc: Optional[Dict[str, Any]],
    policy: Dict[str, Any],
    **hooks: Any,
) -> Dict[str, Any]:
    """Route a solve to the exclusive multi-fidelity solver.

    Mirrors the single-solve semantics: under ``tau > 0`` the solve runs
    on the sparsified instance but the reported ``value`` is re-scored on
    the original one (frontier sweeps keep their comparative values —
    both arms of every point ran on the same sparsified instance).
    ``hooks`` are the checkpoint hooks, so a drained fidelity job
    resumes mid-solve like a plain one.
    """
    from repro.fidelity.policy import execute_fidelity_payload, resolve_catalog
    from repro.fidelity.solver import fidelity_score

    doc = execute_fidelity_payload(policy, instance=solver_instance, **hooks)
    if solver_instance is not instance and doc.get("algorithm") == "fidelity":
        catalog = resolve_catalog(instance, policy)
        chosen = {
            int(rec["photo"]): int(catalog.indptr[rec["photo"]]) + int(rec["variant"])
            for rec in doc["chosen"]
        }
        doc["value"] = fidelity_score(instance, catalog, chosen)
    doc["sparsify"] = sparsify_doc
    return doc


def _execute_sweep(
    instance,
    solver_instance,
    sparsify_doc: Optional[Dict[str, Any]],
    *,
    algorithm: str,
    budgets: list,
    certificate: bool,
    seed: Optional[int],
    workers: Optional[int],
) -> Dict[str, Any]:
    """Run a budget sweep through :func:`solve_many`; one doc per budget.

    True-value scoring and certificates follow the single-solve semantics
    exactly: each member's ``value`` is re-scored on the original
    (unsparsified) instance, and its certificate bound is computed there
    under the member's budget.
    """
    from repro.core.parallel import SolveTask
    from repro.core.solver import solve_many

    tasks = [
        SolveTask(algorithm=algorithm, budget=b, seed=seed, label=f"budget={b:g}")
        for b in budgets
    ]
    solutions = solve_many(solver_instance, tasks, workers=workers)
    docs = []
    for budget, solution in zip(budgets, solutions):
        if certificate or solver_instance is not instance:
            report = certify(
                instance.with_budget(budget), solution.selection, bound=certificate
            )
            solution.value, solution.ratio_certificate = report.value, report.ratio
        docs.append(solution_to_dict(solution))
    return {
        "sweep": True,
        "algorithm": algorithm,
        "budgets": budgets,
        "parallel_workers": workers,
        "solutions": docs,
        "sparsify": sparsify_doc,
    }


def run_with_timeout(
    fn: Callable[[], Any],
    *,
    timeout: Optional[float] = None,
    cancel_event: Optional[threading.Event] = None,
    poll_interval: float = 0.02,
) -> Tuple[str, Any]:
    """Run ``fn`` in a nested daemon thread with timeout + cancel checkpoints.

    Returns one of ``("ok", value)``, ``("error", exception)``,
    ``("timeout", None)``, ``("cancelled", None)``.  On timeout or cancel
    the nested thread is abandoned, not killed — callers must treat its
    eventual result as void.
    """
    outcome: Dict[str, Any] = {}
    done = threading.Event()

    def _target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - captured for the caller
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=_target, name="job-solve", daemon=True)
    thread.start()

    deadline = (threading.TIMEOUT_MAX if timeout is None else timeout) + _now()
    while True:
        if done.wait(timeout=poll_interval):
            if "error" in outcome:
                return "error", outcome["error"]
            return "ok", outcome.get("value")
        if cancel_event is not None and cancel_event.is_set():
            return "cancelled", None
        if timeout is not None and _now() >= deadline:
            return "timeout", None


def _now() -> float:
    import time

    return time.monotonic()


class WorkerPool:
    """A fixed pool of daemon threads draining a job queue.

    ``handler`` receives each dequeued item and must never raise (the
    manager's handler converts every failure into a job-record state).
    ``busy_count`` feeds the ``/stats`` worker-utilisation gauge.
    """

    def __init__(
        self,
        queue,
        handler: Callable[[Any], None],
        workers: int = 4,
        name_prefix: str = "phocus-job-worker",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self._queue = queue
        self._handler = handler
        self._workers = workers
        self._name_prefix = name_prefix
        self._threads: list = []
        self._stop = threading.Event()
        self._busy = 0
        self._busy_lock = threading.Lock()

    @property
    def size(self) -> int:
        return self._workers

    @property
    def busy_count(self) -> int:
        with self._busy_lock:
            return self._busy

    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for i in range(self._workers):
            t = threading.Thread(
                target=self._loop, name=f"{self._name_prefix}-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def _loop(self) -> None:
        while not self._stop.is_set():
            item = self._queue.get(timeout=0.05)
            if item is None:
                continue
            obs = _obs_probes.active()
            with self._busy_lock:
                self._busy += 1
                if obs is not None:
                    obs.jobs_workers_busy.set(self._busy)
            try:
                self._handler(item)
            except Exception:  # noqa: BLE001 - workers must survive anything
                pass
            finally:
                with self._busy_lock:
                    self._busy -= 1
                    if obs is not None:
                        obs.jobs_workers_busy.set(self._busy)

    def stop(self, wait: bool = True, timeout: float = 5.0) -> None:
        self._stop.set()
        if wait:
            for t in self._threads:
                t.join(timeout=timeout)
        self._threads = []

"""HTTP solver service — the paper's "Python and Flask" Solver deployment.

Section 5.1: "Solver is implemented using Python and Flask."  Flask is a
third-party dependency this offline reproduction avoids, so the service
is built on the standard library's threading HTTP server with the same
tiny JSON API a Flask app would expose:

================  =======  ================================================
endpoint          method   behaviour
================  =======  ================================================
``/health``       GET      liveness + library version
``/healthz``      GET      bare liveness (no locks, no subsystems)
``/readyz``       GET      readiness — 503 while the service drains or
                           the admission controller saturates, so load
                           balancers stop routing here; 200 otherwise
``/version``      GET      library version only
``/algorithms``   GET      the registered solver names
``/solve``        POST     synchronous fast path: body ``{"instance": …,
                           "algorithm"?, "tau"?, "sparsify_method"?,
                           "certificate"?}`` → solution + diagnostics
``/score``        POST     body ``{"instance": …, "selection": [...]}`` →
                           objective value and per-subset breakdown
``/jobs``         POST     submit an async solve job (same body as
                           ``/solve`` plus ``tenant``/``priority``/
                           ``timeout_seconds``/``max_attempts``/
                           ``checkpoint_every``) → 202 with the job id;
                           429 when the queue is full
``/jobs``         GET      list jobs (``?state=``/``?tenant=`` filters)
``/jobs/<id>``    GET      job status, including the result when done
                           and ``checkpoint_progress`` while running
``/jobs/<id>``    DELETE   cancel a queued or running job
``/stats``        GET      queue depth, per-state counts, worker
                           utilisation, solve-latency percentiles,
                           failure-classification tallies
``/metrics``      GET      Prometheus text exposition (format 0.0.4) of
                           the process metrics registry — solver, jobs,
                           checkpoint, tenants, and HTTP series; 404 when
                           the service runs with metrics disabled
================  =======  ================================================

With a tenant store configured (``tenants_root=...``), the multi-tenant
archive API is also served:

=================================  ==========  ===========================
``/tenants/<t>/instances/<i>``     PUT         upload/overwrite a stored
                                               instance (201 on create);
                                               413 over quota, 429 over
                                               rate
``/tenants/<t>/instances/<i>``     GET/DELETE  fetch / remove the stored
                                               envelope
``/tenants/<t>/instances``         GET         list stored instance
                                               metadata
``/tenants/<t>/stats``             GET         store + warm-cache + quota
                                               view for one tenant
``.../instances/<i>/live``         POST        build + store (and cold
                                               solve) a *live* archive
                                               from costs/embeddings
``.../instances/<i>/live``         GET         curation status: version,
                                               pending deltas,
                                               ``recurated_at``,
                                               ``regret_bound``, solution
``.../instances/<i>/photos``       POST        ingest a photo delta as
                                               one atomic version bump;
                                               warm re-solve inline
                                               (``resolve="warm"``) or
                                               defer to the sweep
``.../instances/<i>/recurate``     POST        force a warm/full
                                               re-solve; 409 if an
                                               ingest raced it
=================================  ==========  ===========================

and ``POST /solve``, ``/score``, and ``/jobs`` accept ``{"by_ref":
{"tenant", "instance_id", "version"?}}`` in place of ``"instance"`` —
the instance is resolved from the store through the shared-memory warm
cache, so repeated solves of the same stored instance skip both
deserialisation and packing (``/solve`` responses report
``warm_cache_hit``).

Instances travel in the :mod:`repro.core.serialize` wire format.  Errors
return ``4xx`` with ``{"error": message}`` (plus structured fields for
404/413/429); a wrong method on a known path yields ``405`` with the
allowed methods in the body's ``allow`` field; unexpected failures
``500``.

Overload resilience is opt-in via ``resilience=Resilience(...)``
(:mod:`repro.resilience`): request deadlines (``X-Phocus-Deadline-Ms``
header or ``deadline_ms`` body field) propagate into the solver hot
loops and expire as structured ``504`` responses; the admission
controller sheds with ``503`` + a ``Retry-After`` header before queues
saturate; ``degraded_ok: true`` bodies may receive labeled brownout
answers under pressure; and :meth:`PhocusService.drain` runs the
SIGTERM sequence (stop accepting → checkpoint running jobs → release
leases → flush).  A full disk during a durable write answers a
structured ``507``.  Without a bundle the service behaves exactly as
before.

Observability: constructing a service with ``metrics=True`` (the
default) arms :mod:`repro.obs.probes` process-wide, so solver and job
telemetry flows into the registry ``GET /metrics`` serves.  Every
request is also counted/timed per route
(:func:`repro.obs.middleware.observe_request`), and ``access_log=True``
replaces the historically silent ``log_message`` with one structured
JSON line per request on stderr (off by default — the service stays
quiet unless asked).

Use :class:`PhocusService` as a context manager for an ephemeral server::

    with PhocusService() as service:
        requests.post(f"http://{service.address}/jobs", json=payload)
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from contextlib import ExitStack, contextmanager

from repro.core.objective import score, score_breakdown
from repro.core.serialize import instance_from_dict, json_default
from repro.core.solver import available_algorithms
from repro.errors import (
    DeadlineExceeded,
    InstanceNotFound,
    QuotaExceeded,
    RateLimited,
    ReproError,
    ServiceOverloaded,
    StorageExhausted,
    ValidationError,
)
from repro.jobs import JobManager, JobState, QueueFull, execute_solve_payload
from repro.jobs.spec import JobSpec, new_job_id
from repro.live import LiveManager, RecurationScheduler
from repro.live.manager import DEFAULT_MAX_RESIDENT
from repro.obs import probes as obs_probes
from repro.obs.middleware import AccessLog, observe_request
from repro.obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prom import render_registry
from repro.resilience import Resilience, deadline_scope, solve_cache_key
from repro.tenants import TenantQuota, Tenants, parse_ref

__all__ = ["PhocusService", "handle_request"]

_DEADLINE_HEADER = "X-Phocus-Deadline-Ms"

# Sentinel keys in a dispatcher payload marking a non-JSON (raw text)
# response; the transport handler honours them, tests can assert on them.
RAW_BODY = "__raw__"
RAW_CONTENT_TYPE = "__content_type__"

_MAX_BODY = 64 * 1024 * 1024  # 64 MiB — generous for serialised instances

# Route table: exact path (or the /jobs/<id> prefix) → allowed methods.
# Wrong method on a known path is a 405 with these in the "allow" field.
_ALLOWED_METHODS: Dict[str, Tuple[str, ...]] = {
    "/health": ("GET",),
    "/healthz": ("GET",),
    "/readyz": ("GET",),
    "/version": ("GET",),
    "/algorithms": ("GET",),
    "/solve": ("POST",),
    "/score": ("POST",),
    "/fidelity/frontier": ("POST",),
    "/jobs": ("GET", "POST"),
    "/jobs/<id>": ("DELETE", "GET"),
    "/stats": ("GET",),
    "/metrics": ("GET",),
    "/tenants/<id>/instances": ("GET",),
    "/tenants/<id>/instances/<iid>": ("DELETE", "GET", "PUT"),
    "/tenants/<id>/instances/<iid>/live": ("GET", "POST"),
    "/tenants/<id>/instances/<iid>/photos": ("POST",),
    "/tenants/<id>/instances/<iid>/recurate": ("POST",),
    "/tenants/<id>/stats": ("GET",),
}

# Live-curation sub-resources under /tenants/<id>/instances/<iid>/.
_LIVE_TAILS = ("live", "photos", "recurate")


def _tenants_route_key(path: str) -> Optional[str]:
    """Map a ``/tenants/...`` path to its route-table key (None = no route)."""
    tail = path.split("/")[2:]  # ["<tid>", ...]
    if len(tail) == 2 and tail[1] == "stats":
        return "/tenants/<id>/stats"
    if len(tail) == 2 and tail[1] == "instances":
        return "/tenants/<id>/instances"
    if len(tail) == 3 and tail[1] == "instances":
        return "/tenants/<id>/instances/<iid>"
    if len(tail) == 4 and tail[1] == "instances" and tail[3] in _LIVE_TAILS:
        return f"/tenants/<id>/instances/<iid>/{tail[3]}"
    return None


@contextmanager
def _resolved_instance(payload: Dict[str, Any], tenants: Optional[Tenants]):
    """Yield ``(PARInstance-or-None, warm_hit-or-None)`` for a request body.

    ``None`` instance means the body carries an inline ``instance``
    document — the caller's existing path handles it.  A ``by_ref`` body
    is rate-checked and resolved through the tenant store + warm cache;
    the yielded instance stays valid (cache lease held) for the whole
    ``with`` block, i.e. across the solve.
    """
    by_ref = payload.get("by_ref")
    if by_ref is None:
        yield None, None
        return
    if "instance" in payload:
        raise ValidationError("give either 'instance' or 'by_ref', not both")
    if tenants is None:
        raise ValidationError("no tenant store configured on this service")
    budget = payload.get("budget")
    if budget is not None:
        budget = float(budget)
        if not budget > 0:
            raise ValidationError("'budget' override must be positive")
    tenant, _, _ = parse_ref(by_ref)
    tenants.check_rate(tenant)
    with tenants.lease_for_solve(by_ref, budget=budget) as (instance, hit):
        yield instance, hit


def _deadline_ms_from(
    headers: Optional[Any], payload: Optional[Dict[str, Any]] = None
) -> Optional[float]:
    """The request's deadline in ms: header beats body field, ``None`` if absent."""
    raw: Any = headers.get(_DEADLINE_HEADER) if headers is not None else None
    if raw is None and payload is not None:
        raw = payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"deadline must be a number of milliseconds, got {raw!r}"
        ) from None
    if not value > 0:
        raise ValidationError("deadline_ms must be positive")
    return value


def _request_tenant(payload: Dict[str, Any]) -> str:
    """The tenant a request bills against (``by_ref`` beats the body field)."""
    by_ref = payload.get("by_ref")
    if isinstance(by_ref, dict) and by_ref.get("tenant"):
        return str(by_ref["tenant"])
    return str(payload.get("tenant") or "default")


def _brownout_cache_key(
    payload: Dict[str, Any], tenants: Optional[Tenants]
) -> Optional[Tuple[Any, ...]]:
    """The brownout-cache identity of a ``by_ref`` solve (inline bodies: None)."""
    by_ref = payload.get("by_ref")
    if by_ref is None or tenants is None:
        return None
    try:
        tenant, instance_id, version = parse_ref(by_ref)
        if version is None:
            version = tenants.store.meta(tenant, instance_id).version
        budget = payload.get("budget")
        return solve_cache_key(
            tenant,
            instance_id,
            int(version),
            None if budget is None else float(budget),
            payload,
        )
    except Exception:  # noqa: BLE001 - cache identity is best-effort
        return None


def _solve_endpoint(
    payload: Dict[str, Any],
    tenants: Optional[Tenants],
    resilience: Optional[Resilience] = None,
) -> Dict[str, Any]:
    # The synchronous fast path and background jobs share one executor
    # (repro.jobs.worker.execute_solve_payload) so they can never drift.
    degraded_ok = bool(payload.pop("degraded_ok", False))
    brownout = resilience.brownout if resilience is not None else None
    pressure = resilience.pressure() if resilience is not None else 0.0
    tier = brownout.tier(pressure, degraded_ok) if brownout is not None else "full"
    cache_key = _brownout_cache_key(payload, tenants) if brownout is not None else None
    if tier == "cached":
        entry = brownout.cache.get(cache_key) if cache_key is not None else None
        if entry is not None:
            response, age = entry
            return brownout.label_cached(response, age, pressure)
        tier = "sparsified"  # nothing to replay — next-cheapest real answer
    solve_payload = (
        brownout.sparsified_payload(payload) if tier == "sparsified" else payload
    )
    with _resolved_instance(solve_payload, tenants) as (instance, hit):
        doc = execute_solve_payload(solve_payload, instance=instance)
    if hit is not None:
        doc["warm_cache_hit"] = hit
    if tier == "sparsified":
        return brownout.label_sparsified(doc, pressure)
    if cache_key is not None:
        brownout.cache.put(cache_key, doc)
    return doc


def _score_endpoint(
    payload: Dict[str, Any], tenants: Optional[Tenants]
) -> Dict[str, Any]:
    fidelity = payload.get("fidelity")
    if fidelity is None:
        selection = _require(payload, "selection", list)
    with _resolved_instance(payload, tenants) as (instance, _hit):
        if instance is None:
            instance = instance_from_dict(_require(payload, "instance", dict))
        if fidelity is not None:
            # Multi-fidelity scoring: the policy's 'chosen' records name
            # one variant per photo; see repro.fidelity.policy.
            from repro.fidelity.policy import score_fidelity_payload

            return score_fidelity_payload(fidelity, instance=instance)
        return {
            "value": score(instance, selection),
            "cost": instance.cost_of(selection),
            "feasible": instance.feasible(selection),
            "breakdown": score_breakdown(instance, selection),
        }


def _fidelity_frontier_endpoint(
    payload: Dict[str, Any], tenants: Optional[Tenants]
) -> Dict[str, Any]:
    """``POST /fidelity/frontier`` — a budget-vs-quality sweep.

    Body: an instance source (inline ``instance`` or ``by_ref``), a
    ``budgets`` list (top-level or inside the ``fidelity`` policy), and
    optionally the rest of the fidelity policy vocabulary.
    """
    policy = dict(payload.get("fidelity") or {})
    if payload.get("budgets") is not None:
        policy["budgets"] = payload["budgets"]
    if policy.get("budgets") is None:
        raise ValidationError("frontier sweep needs a 'budgets' list")
    from repro.fidelity.policy import execute_fidelity_payload

    with _resolved_instance(payload, tenants) as (instance, _hit):
        if instance is None:
            instance = instance_from_dict(_require(payload, "instance", dict))
        return execute_fidelity_payload(policy, instance=instance)


def _require(payload: Dict[str, Any], key: str, kind) -> Any:
    value = payload.get(key)
    if not isinstance(value, kind):
        raise ValidationError(f"request body needs {key!r} of type {kind.__name__}")
    return value


def _parse_body(body: Optional[bytes]) -> Tuple[Optional[Dict[str, Any]], Optional[Tuple[int, Dict[str, Any]]]]:
    if not body:
        return None, (400, {"error": "empty request body"})
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, (400, {"error": f"invalid JSON: {exc}"})
    if not isinstance(payload, dict):
        return None, (400, {"error": "request body must be a JSON object"})
    return payload, None


def _submit_job(
    payload: Dict[str, Any],
    jobs: JobManager,
    tenants: Optional[Tenants],
    resilience: Optional[Resilience] = None,
) -> Tuple[int, Dict[str, Any]]:
    by_ref_doc = payload.get("by_ref")
    if by_ref_doc is not None:
        if "instance" in payload:
            raise ValidationError("give either 'instance' or 'by_ref', not both")
        if tenants is None:
            raise ValidationError("no tenant store configured on this service")
        instance_doc = None
        ref_tenant, instance_id, version = parse_ref(by_ref_doc)
        tenants.check_rate(ref_tenant)
        # Validate existence now (404 beats a failed job later) and pin
        # the version so retries and journal replays are deterministic
        # even if the instance is overwritten while the job waits.
        meta = tenants.store.meta(ref_tenant, instance_id)
        by_ref_doc = {
            "tenant": ref_tenant,
            "instance_id": instance_id,
            "version": version if version is not None else meta.version,
        }
        default_tenant = ref_tenant
    else:
        instance_doc = _require(payload, "instance", dict)
        default_tenant = "default"
    timeout_seconds = payload.get("timeout_seconds")
    deadline_ms = payload.get("deadline_ms")
    try:
        spec = JobSpec(
            job_id=new_job_id(),
            instance=instance_doc,
            by_ref=by_ref_doc,
            tenant=str(payload.get("tenant") or default_tenant),
            algorithm=str(payload.get("algorithm") or "phocus"),
            tau=float(payload.get("tau") or 0.0),
            sparsify_method=str(payload.get("sparsify_method") or "exact"),
            certificate=bool(payload.get("certificate", False)),
            seed=payload.get("seed"),
            priority=int(payload.get("priority") or 0),
            timeout_seconds=(
                float(timeout_seconds) if timeout_seconds is not None else None
            ),
            deadline_ms=(float(deadline_ms) if deadline_ms is not None else None),
            max_attempts=int(payload.get("max_attempts") or 3),
            checkpoint_every=(
                int(payload["checkpoint_every"])
                if payload.get("checkpoint_every") is not None
                else None
            ),
            budgets=(
                tuple(float(b) for b in payload["budgets"])
                if payload.get("budgets") is not None
                else None
            ),
            parallel_workers=(
                int(payload["parallel_workers"])
                if payload.get("parallel_workers") is not None
                else None
            ),
            fidelity=payload.get("fidelity"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed job parameters: {exc}") from exc
    admission = resilience.admission if resilience is not None else None
    if admission is not None:
        # Shed *before* the hard 429 bound: predicted queue wait and the
        # shed_queue_fraction watermark both fire as 503 + Retry-After.
        admission.check_queue(
            spec.tenant, depth=jobs.queue_depth, limit=jobs.queue_limit
        )
    try:
        job_id = jobs.submit(spec)
    except QueueFull as exc:
        return 429, {
            "error": str(exc),
            "queue_depth": exc.depth,
            "queue_limit": exc.maxsize,
            "retry_after": (
                admission.snapshot()["retry_after_seconds"]
                if admission is not None
                else 1.0
            ),
        }
    return 202, {"job_id": job_id, "state": JobState.QUEUED.value}


def _tenants_routes(
    method: str,
    path: str,
    body: Optional[bytes],
    tenants: Optional[Tenants],
) -> Tuple[int, Dict[str, Any]]:
    if tenants is None:
        return 503, {"error": "no tenant store configured on this service"}
    tail = path.split("/")[2:]
    tenant = tail[0]
    if tail[1] == "stats":
        return 200, tenants.stats(tenant)
    if len(tail) == 2:  # GET /tenants/<id>/instances
        return 200, {
            "tenant": tenant,
            "instances": [m.to_dict() for m in tenants.list_instances(tenant)],
        }
    instance_id = tail[2]
    tenants.check_rate(tenant)
    if method == "PUT":
        payload, err = _parse_body(body)
        if err is not None:
            return err
        instance_doc = _require(payload, "instance", dict)
        meta = tenants.put_instance(tenant, instance_id, instance_doc)
        return (201 if meta.version == 1 else 200), {"stored": meta.to_dict()}
    if method == "GET":
        return 200, tenants.get_instance(tenant, instance_id)
    # DELETE
    meta = tenants.delete_instance(tenant, instance_id)
    return 200, {"deleted": meta.to_dict()}


def _parse_photos(payload: Dict[str, Any]):
    """Decode the ``costs``/``embeddings`` arrays of a live request body."""
    import numpy as np

    costs = _require(payload, "costs", list)
    embeddings = _require(payload, "embeddings", list)
    try:
        costs_arr = np.asarray(costs, dtype=np.float64)
        emb_arr = np.asarray(embeddings, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"costs/embeddings are not numeric arrays: {exc}")
    if costs_arr.ndim != 1:
        raise ValidationError("'costs' must be a flat list of numbers")
    if emb_arr.ndim != 2:
        raise ValidationError("'embeddings' must be a list of equal-length rows")
    return costs_arr, emb_arr


def _live_routes(
    method: str,
    path: str,
    body: Optional[bytes],
    tenants: Optional[Tenants],
    live,
    sweeper=None,
) -> Tuple[int, Dict[str, Any]]:
    """The online-curation sub-resources of a stored instance.

    ``POST .../live`` builds + stores (and by default cold-solves) a live
    archive; ``GET .../live`` reports curation status including the
    current solution, ``recurated_at`` and ``regret_bound``;
    ``POST .../photos`` ingests a delta as one atomic version bump;
    ``POST .../recurate`` forces a warm or full re-solve (409 when a
    concurrent ingest moved the version underneath it).
    """
    if tenants is None:
        return 503, {"error": "no tenant store configured on this service"}
    if live is None:
        return 503, {"error": "live curation is not enabled on this service"}
    tail = path.split("/")[2:]
    tenant, instance_id, action = tail[0], tail[2], tail[3]
    tenants.check_rate(tenant)
    if action == "live" and method == "GET":
        status = live.status(tenant, instance_id)
        doc = status.to_dict()
        doc["solution"] = status.solution
        return 200, doc
    if action == "recurate":
        payload: Dict[str, Any] = {}
        if body:
            parsed, err = _parse_body(body)
            if err is not None:
                return err
            payload = parsed
        doc = live.recurate(
            tenant, instance_id, kind=str(payload.get("kind", "warm"))
        )
        if doc is None:
            return 409, {
                "error": "instance version moved during the re-solve; retry"
            }
        return 200, doc
    payload, err = _parse_body(body)
    if err is not None:
        return err
    costs, embeddings = _parse_photos(payload)
    if action == "live":  # POST — create the live archive
        budget = payload.get("budget")
        tau = payload.get("tau")
        if not isinstance(budget, (int, float)) or not budget > 0:
            raise ValidationError("request body needs a positive 'budget'")
        if not isinstance(tau, (int, float)):
            raise ValidationError("request body needs a numeric 'tau'")
        doc = live.create(
            tenant,
            instance_id,
            costs,
            embeddings,
            float(budget),
            tau=float(tau),
            seed=int(payload.get("seed", 0)),
            n_bits=payload.get("n_bits", "auto"),
            target_recall=float(payload.get("target_recall", 0.95)),
            retained=[int(p) for p in payload.get("retained", [])],
            solve=bool(payload.get("solve", True)),
        )
        if sweeper is not None:
            sweeper.track(tenant, instance_id)
        return 201, doc
    # POST .../photos — delta ingestion
    doc = live.ingest(
        tenant,
        instance_id,
        costs,
        embeddings,
        resolve=str(payload.get("resolve", "warm")),
    )
    if sweeper is not None:
        sweeper.track(tenant, instance_id)
    return 200, doc


def _jobs_routes(
    method: str,
    path: str,
    query: Dict[str, Any],
    body: Optional[bytes],
    jobs: Optional[JobManager],
    tenants: Optional[Tenants],
    headers: Optional[Any] = None,
    resilience: Optional[Resilience] = None,
) -> Tuple[int, Dict[str, Any]]:
    if jobs is None:
        return 503, {"error": "job manager not running on this service"}
    if path == "/jobs" and method == "POST":
        payload, err = _parse_body(body)
        if err is not None:
            return err
        header_deadline = _deadline_ms_from(headers)
        if header_deadline is not None and payload.get("deadline_ms") is None:
            payload["deadline_ms"] = header_deadline
        return _submit_job(payload, jobs, tenants, resilience=resilience)
    if path == "/jobs" and method == "GET":
        state = query.get("state")
        tenant = query.get("tenant")
        if state is not None and state not in JobState.__members__:
            return 400, {
                "error": f"unknown state {state!r}; one of {sorted(JobState.__members__)}"
            }
        return 200, {"jobs": jobs.jobs(state=state, tenant=tenant)}
    job_id = path[len("/jobs/") :]
    if method == "GET":
        doc = jobs.status(job_id)
        if doc is None:
            return 404, {"error": f"no job {job_id!r}"}
        if doc["state"] == JobState.SUCCEEDED.value:
            doc["result"] = jobs.result(job_id)
        return 200, doc
    # DELETE /jobs/<id>
    try:
        cancelled = jobs.cancel(job_id)
    except KeyError:
        return 404, {"error": f"no job {job_id!r}"}
    doc = jobs.status(job_id)
    return 200, {
        "job_id": job_id,
        "cancelled": cancelled,
        "state": doc["state"] if doc else None,
    }


def handle_request(
    method: str,
    path: str,
    body: Optional[bytes],
    jobs: Optional[JobManager] = None,
    instruments: Optional["obs_probes.Instruments"] = None,
    tenants: Optional[Tenants] = None,
    *,
    headers: Optional[Any] = None,
    resilience: Optional[Resilience] = None,
    live=None,
    sweeper=None,
) -> Tuple[int, Dict[str, Any]]:
    """Pure request dispatcher (transport-independent, directly testable).

    ``jobs`` is the service's :class:`~repro.jobs.JobManager`; without
    one, the ``/jobs`` and ``/stats`` routes answer 503.  ``instruments``
    backs ``GET /metrics``; without them the route answers 404 (metrics
    disabled).  ``tenants`` backs the ``/tenants/...`` family and the
    ``by_ref`` solve path; without it those answer 503 / 422.
    ``headers`` is any ``.get``-able view of the request headers (the
    ``X-Phocus-Deadline-Ms`` deadline); ``resilience`` is the service's
    :class:`~repro.resilience.Resilience` bundle — without one, every
    resilience feature is inert and behaviour is unchanged.  ``live`` is
    the service's :class:`~repro.live.LiveManager` backing the
    ``.../live``, ``.../photos`` and ``.../recurate`` sub-resources
    (503 without one); ``sweeper`` is the optional
    :class:`~repro.live.RecurationScheduler`, told to track every
    instance the live routes touch.  Returns
    ``(http_status, json_payload)`` — for ``/metrics`` the payload
    carries the exposition text under the ``RAW_BODY`` key, which the
    transport serves verbatim with the ``RAW_CONTENT_TYPE`` content type
    instead of JSON-encoding it.
    """
    parts = urlsplit(path)
    path = parts.path.rstrip("/") or "/"
    query = {k: v[-1] for k, v in parse_qs(parts.query).items()}

    if path.startswith("/jobs/"):
        route_key: Optional[str] = "/jobs/<id>"
    elif path.startswith("/tenants/"):
        route_key = _tenants_route_key(path)
    else:
        route_key = path
    allowed = _ALLOWED_METHODS.get(route_key) if route_key else None
    if allowed is None:
        return 404, {"error": f"no route for {method} {path}"}
    if method not in allowed:
        return 405, {
            "error": f"method {method} not allowed for {path}",
            "allow": list(allowed),
        }

    try:
        if (
            resilience is not None
            and method in ("POST", "PUT")
            and resilience.drain.draining()
        ):
            # Stop accepting mutations the moment a drain begins; reads
            # (status polling, /metrics) keep working until the socket
            # closes.
            raise ServiceOverloaded(
                "service is draining; retry against another instance",
                reason="draining",
            )
        if path == "/metrics":
            if instruments is None:
                return 404, {"error": "metrics are disabled on this service"}
            return 200, {
                RAW_BODY: render_registry(instruments.registry),
                RAW_CONTENT_TYPE: _PROM_CONTENT_TYPE,
            }
        if path == "/health":
            from repro import __version__

            return 200, {"status": "ok", "version": __version__}
        if path == "/healthz":
            # Pure liveness: no locks, no subsystem calls — safe for tight
            # orchestrator probe loops even while the service is degraded.
            return 200, {"status": "ok"}
        if path == "/readyz":
            # Readiness (vs /healthz liveness): load balancers should stop
            # routing here while the service drains or saturates.
            if resilience is None or resilience.ready():
                return 200, {"status": "ready"}
            doc: Dict[str, Any] = {
                "status": "unready",
                "draining": resilience.drain.draining(),
            }
            if resilience.admission is not None:
                doc["overloaded"] = resilience.admission.overloaded()
            return 503, doc
        if path == "/version":
            from repro import __version__

            return 200, {"version": __version__}
        if path == "/algorithms":
            return 200, {"algorithms": available_algorithms()}
        if path in ("/solve", "/score", "/fidelity/frontier"):
            payload, err = _parse_body(body)
            if err is not None:
                return err
            deadline_ms = _deadline_ms_from(headers, payload)
            payload.pop("deadline_ms", None)
            if resilience is None:
                if deadline_ms is not None:
                    # execute_solve_payload arms the scope on its own thread
                    payload["deadline_ms"] = deadline_ms
                if path == "/solve":
                    return 200, _solve_endpoint(payload, tenants)
                if path == "/fidelity/frontier":
                    return 200, _fidelity_frontier_endpoint(payload, tenants)
                return 200, _score_endpoint(payload, tenants)
            request_deadline = resilience.request_deadline(deadline_ms)
            with ExitStack() as stack:
                stack.enter_context(deadline_scope(request_deadline))
                if resilience.admission is not None:
                    stack.enter_context(
                        resilience.admission.admit(
                            _request_tenant(payload), deadline=request_deadline
                        )
                    )
                if path == "/solve":
                    return 200, _solve_endpoint(payload, tenants, resilience)
                if path == "/fidelity/frontier":
                    return 200, _fidelity_frontier_endpoint(payload, tenants)
                return 200, _score_endpoint(payload, tenants)
        if path == "/stats":
            if jobs is None:
                return 503, {"error": "job manager not running on this service"}
            stats = jobs.stats()
            if resilience is not None:
                stats["resilience"] = resilience.snapshot()
            return 200, stats
        if path.startswith("/tenants/"):
            if route_key and route_key.startswith(
                "/tenants/<id>/instances/<iid>/"
            ):
                return _live_routes(
                    method, path, body, tenants, live, sweeper
                )
            return _tenants_routes(method, path, body, tenants)
        # /jobs and /jobs/<id>
        return _jobs_routes(
            method,
            path,
            query,
            body,
            jobs,
            tenants,
            headers=headers,
            resilience=resilience,
        )
    except RateLimited as exc:
        return 429, {
            "error": str(exc),
            "tenant": exc.tenant,
            "retry_after": exc.retry_after,
        }
    except QuotaExceeded as exc:
        return 413, {
            "error": str(exc),
            "tenant": exc.tenant,
            "kind": exc.kind,
            "used": exc.used,
            "limit": exc.limit,
        }
    except InstanceNotFound as exc:
        return 404, {"error": str(exc)}
    except ServiceOverloaded as exc:
        shed_doc: Dict[str, Any] = {
            "error": str(exc),
            "reason": exc.reason,
            "retry_after": exc.retry_after,
        }
        if exc.tenant is not None:
            shed_doc["tenant"] = exc.tenant
        return 503, shed_doc
    except DeadlineExceeded as exc:
        return 504, {
            "error": str(exc),
            "reason": exc.reason,
            "deadline_seconds": exc.deadline_seconds,
            "elapsed_seconds": exc.elapsed_seconds,
            "progress": exc.progress(),
        }
    except StorageExhausted as exc:
        return 507, {
            "error": str(exc),
            "kind": exc.kind,
            "path": exc.path,
            "errno": exc.errno_value,
        }
    except ReproError as exc:
        return 422, {"error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - service boundary
        return 500, {"error": f"internal error: {exc}"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "PHOcus/1.0"

    def _jobs(self) -> Optional[JobManager]:
        return getattr(self.server, "phocus_jobs", None)

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        if RAW_BODY in payload:
            data = str(payload[RAW_BODY]).encode("utf-8")
            content_type = str(
                payload.get(RAW_CONTENT_TYPE) or "text/plain; charset=utf-8"
            )
        else:
            # A live instance's stored document has ndarray leaves.
            data = json.dumps(payload, default=json_default).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if status == 405 and isinstance(payload.get("allow"), list):
            self.send_header("Allow", ", ".join(payload["allow"]))
        if status in (429, 503):
            retry_after = payload.get("retry_after")
            if isinstance(retry_after, (int, float)) and retry_after > 0:
                # HTTP Retry-After is integer seconds; round up so clients
                # never retry before the advertised backoff has passed.
                self.send_header("Retry-After", str(math.ceil(retry_after)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str, body: Optional[bytes]) -> None:
        start = time.perf_counter()
        status, payload = handle_request(
            method,
            self.path,
            body,
            self._jobs(),
            instruments=getattr(self.server, "phocus_obs", None),
            tenants=getattr(self.server, "phocus_tenants", None),
            headers=self.headers,
            resilience=getattr(self.server, "phocus_resilience", None),
            live=getattr(self.server, "phocus_live", None),
            sweeper=getattr(self.server, "phocus_sweeper", None),
        )
        self._reply(status, payload)
        observe_request(
            getattr(self.server, "phocus_obs", None),
            getattr(self.server, "phocus_access_log", None),
            method,
            self.path,
            status,
            time.perf_counter() - start,
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", None)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE", None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch_with_body("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch_with_body("PUT")

    def _dispatch_with_body(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            self._reply(413, {"error": "request body too large"})
            return
        body = self.rfile.read(length) if length else b""
        self._dispatch(method, body)

    def log_message(self, *args) -> None:
        # http.server's default per-request stderr line is replaced by the
        # structured access log in repro.obs.middleware (opt-in via the
        # service's access_log flag); keep the built-in channel silent.
        return


class _Server(ThreadingHTTPServer):
    # socketserver's default listen backlog (5) drops simultaneous
    # connects with RST under tenant fan-out; size it for a load burst.
    request_queue_size = 128


class PhocusService:
    """An embeddable PHOcus solver server with background job execution.

    ``port=0`` (default) binds an ephemeral port; read the bound address
    from :attr:`address`.  The service owns a :class:`JobManager`
    (``workers`` threads, ``queue_depth`` bound, optional JSONL
    ``journal_path`` for crash recovery) — pass ``job_manager`` to share
    an external one, or ``workers=0`` to serve only the synchronous API.
    Use as a context manager or call :meth:`start` / :meth:`stop`.

    ``metrics=True`` (default) arms :mod:`repro.obs.probes` process-wide
    and serves the registry at ``GET /metrics``; ``metrics=False`` leaves
    the probes untouched and the route answers 404.  ``access_log=True``
    emits one structured JSON line per request on stderr.

    ``resilience=Resilience(...)`` opts into overload resilience:
    deadline propagation, admission control (its ``observe_wait`` is
    wired as the job manager's wait observer), brownout degradation, and
    the :meth:`drain` SIGTERM sequence.  Omitted, the service behaves
    exactly as before.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        queue_depth: int = 256,
        journal_path: Optional[str] = None,
        job_manager: Optional[JobManager] = None,
        checkpoint_every: Optional[int] = None,
        metrics: bool = True,
        access_log: bool = False,
        tenants_root: Optional[str] = None,
        tenants: Optional[Tenants] = None,
        tenants_cache_bytes: float = 256 * 1024 * 1024,
        tenant_quota: Optional[TenantQuota] = None,
        resilience: Optional[Resilience] = None,
        live_max_resident: int = DEFAULT_MAX_RESIDENT,
        recuration: bool = False,
        recuration_interval: float = 0.25,
        recuration_debounce: float = 1.0,
        recuration_max_pending: int = 16,
        recuration_max_photos: int = 512,
        recuration_regret: float = 0.25,
    ) -> None:
        self._server = _Server((host, port), _Handler)
        self.resilience = resilience
        self._thread: Optional[threading.Thread] = None
        self._owns_tenants = tenants is None and tenants_root is not None
        if tenants is None and tenants_root is not None:
            tenants = Tenants(
                tenants_root,
                cache_bytes=tenants_cache_bytes,
                quota=tenant_quota,
            )
        self.tenants = tenants
        self._owns_jobs = job_manager is None
        self.jobs = job_manager or JobManager(
            workers=workers,
            queue_depth=queue_depth,
            journal_path=journal_path,
            default_checkpoint_every=checkpoint_every,
            by_ref_resolver=(
                self._lease_by_ref if tenants is not None else None
            ),
            wait_observer=(
                resilience.admission.observe_wait
                if resilience is not None and resilience.admission is not None
                else None
            ),
        )
        self._server.phocus_jobs = self.jobs
        self._server.phocus_tenants = self.tenants
        self._server.phocus_resilience = resilience
        # Live curation rides the tenant store: the manager is always
        # available when tenants are configured; the background
        # re-curation sweep is opt-in (``recuration=True``) and submits
        # full re-solves through this service's own job manager.
        self.live = (
            LiveManager(self.tenants, max_resident=live_max_resident)
            if self.tenants is not None
            else None
        )
        self.sweeper: Optional[RecurationScheduler] = None
        if recuration and self.live is not None:
            self.sweeper = RecurationScheduler(
                self.live,
                jobs=self.jobs,
                interval=recuration_interval,
                debounce_seconds=recuration_debounce,
                max_pending_deltas=recuration_max_pending,
                max_pending_photos=recuration_max_photos,
                regret_threshold=recuration_regret,
            )
            self.sweeper.start()
        self._server.phocus_live = self.live
        self._server.phocus_sweeper = self.sweeper
        # Arm (or reuse already-armed) process instruments; re-arming with
        # no arguments keeps an existing registry so multiple services in
        # one process share a single exposition.
        self.instruments = obs_probes.arm() if metrics else None
        self._server.phocus_obs = self.instruments
        self._server.phocus_access_log = AccessLog() if access_log else None

    @contextmanager
    def _lease_by_ref(self, by_ref: Dict[str, Any]):
        # Background jobs resolve references exactly like /solve does; the
        # lease spans the job's solve so eviction cannot unmap it mid-run.
        with self.tenants.lease_for_solve(by_ref) as (instance, _hit):
            yield instance

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "PhocusService":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="phocus-service", daemon=True
        )
        self._thread.start()
        return self

    def drain(self, grace_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Run the SIGTERM drain sequence; idempotent, returns a summary.

        Stop accepting (POST/PUT shed 503, ``/readyz`` goes unready) →
        interrupt running jobs so they checkpoint and return to QUEUED →
        release tenant warm-cache leases → flush and close the journal.
        The HTTP listener keeps answering reads until :meth:`stop`; a
        fresh service on the same journal resumes the requeued jobs
        bit-identically.
        """
        if self.resilience is not None:
            if not self.resilience.drain.begin():
                return {
                    "state": self.resilience.drain.state,
                    "interrupted": 0,
                    "forced_requeue": 0,
                }
            if grace_seconds is None:
                grace_seconds = self.resilience.drain.grace_seconds
        if grace_seconds is None:
            grace_seconds = 10.0
        if self.sweeper is not None:
            # Stop generating new curation work before the job manager
            # starts checkpointing what is already running.
            self.sweeper.stop()
        summary: Dict[str, Any] = {"interrupted": 0, "forced_requeue": 0}
        if self._owns_jobs:
            summary = self.jobs.drain(grace_seconds=grace_seconds)
        if self._owns_tenants and self.tenants is not None:
            self.tenants.close()
        if self.resilience is not None:
            self.resilience.drain.finish()
            summary["state"] = self.resilience.drain.state
        return summary

    def stop(self) -> None:
        if self.sweeper is not None:
            self.sweeper.stop()
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=5)
        self._server.server_close()
        self._thread = None
        if self._owns_jobs:
            self.jobs.shutdown()
        if self._owns_tenants and self.tenants is not None:
            self.tenants.close()

    def __enter__(self) -> "PhocusService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

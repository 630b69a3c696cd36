"""HTTP solver service — the paper's "Python and Flask" Solver deployment.

Section 5.1: "Solver is implemented using Python and Flask."  Flask is a
third-party dependency this offline reproduction avoids, so the service
is built on the standard library's threading HTTP server with the same
tiny JSON API a Flask app would expose.  The routes are declared once,
in :data:`ROUTES`:

======================  =======  ==========================================
endpoint                method   behaviour
======================  =======  ==========================================
``/health``             GET      liveness + library version
``/healthz``            GET      bare liveness (no locks, no subsystems)
``/readyz``             GET      readiness — 503 while the service drains
                                 or the admission controller saturates,
                                 so load balancers stop routing here; 200
                                 otherwise
``/version``            GET      library version only
``/algorithms``         GET      the registered solver names
``/solve``              POST     synchronous fast path: body ``{"instance":
                                 …, "algorithm"?, "tau"?,
                                 "sparsify_method"?, "certificate"?}`` →
                                 solution + diagnostics
``/score``              POST     body ``{"instance": …, "selection": [...]}``
                                 → objective value and per-subset
                                 breakdown; ``selection`` must be a flat
                                 list of distinct ids in ``0..n-1`` (422)
``/fidelity/frontier``  POST     budget-vs-quality sweep of the
                                 multi-fidelity solver: body ``{"instance":
                                 …, "budgets": [...], "fidelity"?}``
``/jobs``               POST     submit an async solve job (same body as
                                 ``/solve`` plus ``tenant``/``priority``/
                                 ``timeout_seconds``/``max_attempts``/
                                 ``checkpoint_every``) → 202 with the job
                                 id; 429 when the queue is full
``/jobs``               GET      list jobs (``?state=``/``?tenant=``
                                 filters)
``/jobs/<id>``          GET      job status, including the result when
                                 done and ``checkpoint_progress`` while
                                 running
``/jobs/<id>``          DELETE   cancel a queued or running job
``/stats``              GET      queue depth, per-state counts, worker
                                 utilisation, solve-latency percentiles,
                                 failure-classification tallies
``/metrics``            GET      Prometheus text exposition (format 0.0.4)
                                 of the process metrics registry — solver,
                                 jobs, checkpoint, tenants, and HTTP
                                 series; 404 when the service runs with
                                 metrics disabled
======================  =======  ==========================================

With a tenant store configured (``tenants_root=...``), the multi-tenant
archive API is also served:

=======================================  ==========  ======================
``/tenants/<id>/instances/<iid>``        PUT         upload/overwrite a
                                                     stored instance (201
                                                     on create); 413 over
                                                     quota, 429 over rate
``/tenants/<id>/instances/<iid>``        GET/DELETE  fetch / remove the
                                                     stored envelope
``/tenants/<id>/instances``              GET         list stored instance
                                                     metadata
``/tenants/<id>/stats``                  GET         store + warm-cache +
                                                     quota view for one
                                                     tenant
``.../instances/<iid>/live``             POST        build + store (and
                                                     cold solve) a *live*
                                                     archive from
                                                     costs/embeddings
``.../instances/<iid>/live``             GET         curation status:
                                                     version, pending
                                                     deltas,
                                                     ``recurated_at``,
                                                     ``regret_bound``,
                                                     solution
``.../instances/<iid>/photos``           POST        ingest a photo delta
                                                     as one atomic version
                                                     bump; warm re-solve
                                                     inline
                                                     (``resolve="warm"``)
                                                     or defer to the
                                                     sweep; 409 if a
                                                     ``PUT`` raced it
``.../instances/<iid>/recurate``         POST        force a warm/full
                                                     re-solve; 409 if a
                                                     write raced it
=======================================  ==========  ======================

and ``POST /solve``, ``/score``, ``/fidelity/frontier`` and ``/jobs``
accept ``{"by_ref": {"tenant", "instance_id", "version"?}}`` in place of
``"instance"`` — the instance is resolved from the store through the
shared-memory warm cache, so repeated solves of the same stored instance
skip both deserialisation and packing (``/solve`` responses report
``warm_cache_hit``).

Instances travel in the :mod:`repro.core.serialize` wire format.  An
unknown path answers ``404`` and a wrong method on a known one ``405``
with the allowed methods in the body's ``allow`` field (and the
``Allow`` header).  Errors answer with the status and body the
:class:`~repro.errors.ReproError` subclass carries (``{"error":
message}`` plus structured fields for 409/413/429/503/504/507);
unexpected failures answer ``500``.

Overload resilience is opt-in via ``resilience=Resilience(...)``
(:mod:`repro.resilience`): request deadlines (the ``X-Phocus-Deadline-Ms``
header, else the ``deadline_ms`` body field) propagate into the solver hot
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
request is also counted/timed under its route pattern
(:func:`route_label`, :func:`repro.obs.middleware.observe_request`), and
``access_log=True`` replaces the historically silent ``log_message``
with one structured JSON line per request on stderr (off by default —
the service stays quiet unless asked).

Use :class:`PhocusService` as a context manager for an ephemeral server::

    with PhocusService() as service:
        requests.post(f"http://{service.address}/jobs", json=payload)
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.core.instance import as_ids
from repro.core.objective import CoverageState
from repro.core.serialize import (
    instance_from_dict,
    json_default,
    loads,
    loads_request,
    number_field,
    numbers_field,
)
from repro.core.solver import available_algorithms
from repro.errors import (
    BadRequest,
    ReproError,
    RequestTooLarge,
    ServiceOverloaded,
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
from repro.tenants import TenantQuota, Tenants, parse_ref, validate_id

__all__ = [
    "ROUTES",
    "PhocusService",
    "ServiceContext",
    "handle_request",
    "route_label",
    "served_routes",
]

_DEADLINE_HEADER = "X-Phocus-Deadline-Ms"

# Sentinel keys in a dispatcher payload marking a non-JSON (raw text)
# response; the transport handler honours them, tests can assert on them.
RAW_BODY = "__raw__"
RAW_CONTENT_TYPE = "__content_type__"

_MAX_BODY = 64 * 1024 * 1024  # 64 MiB — generous for serialised instances


@dataclass(frozen=True)
class ServiceContext:
    """The collaborators one service's routes answer from; any may be absent.

    ``jobs`` backs ``/jobs`` and ``/stats``; ``instruments`` backs ``GET
    /metrics``; ``tenants`` backs the ``/tenants/...`` family and
    ``by_ref`` bodies; ``resilience`` is the overload bundle (without
    one, every resilience feature is inert); ``live`` backs the
    ``.../live``, ``.../photos`` and ``.../recurate`` sub-resources;
    ``sweeper`` is told to track every instance the live routes touch.
    """

    jobs: Optional[JobManager] = None
    instruments: Optional["obs_probes.Instruments"] = None
    tenants: Optional[Tenants] = None
    resilience: Optional[Resilience] = None
    live: Optional[LiveManager] = None
    sweeper: Optional[RecurationScheduler] = None


_NO_CONTEXT = ServiceContext()


@dataclass(frozen=True)
class Request:
    """One request as a route handler sees it.

    ``params`` holds the matched pattern's placeholders (``id``,
    ``iid``); ``query`` the last value of each query parameter.
    """

    params: Dict[str, str]
    query: Dict[str, str]
    body: Optional[bytes]
    headers: Optional[Any]

    def json(self, parse: Callable[[bytes], Any] = loads) -> Dict[str, Any]:
        """The body as a JSON object; :class:`~repro.errors.BadRequest` otherwise."""
        if not self.body:
            raise BadRequest("empty request body")
        try:
            payload = parse(self.body)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and integers longer than
            # int()'s digit limit; RecursionError, nesting deeper than json's.
            raise BadRequest(f"invalid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload


Answer = Tuple[int, Dict[str, Any]]
Handler = Callable[[ServiceContext, Request], Answer]


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
    budget = number_field(payload, "budget")
    if budget is not None and not budget > 0:
        raise ValidationError("'budget' override must be positive")
    tenant, _, _ = parse_ref(by_ref)
    tenants.check_rate(tenant)
    with tenants.lease_for_solve(by_ref, budget=budget) as (instance, hit):
        yield instance, hit


def _deadline_ms_from(
    headers: Optional[Any], payload: Dict[str, Any]
) -> Optional[float]:
    """The request's deadline in ms, ``None`` if it sets none.

    One rule for every route that takes a deadline: the
    ``X-Phocus-Deadline-Ms`` header beats the body's ``deadline_ms``, and
    the body field is checked (a positive finite number) even when the
    header is set.  A header that is not a positive finite number is
    refused too.
    """
    body = number_field(payload, "deadline_ms")
    if body is not None and not body > 0:
        raise ValidationError(f"'deadline_ms' must be positive, got {body!r}")
    raw: Any = headers.get(_DEADLINE_HEADER) if headers is not None else None
    if raw is None:
        return body
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(
            f"{_DEADLINE_HEADER} must be a positive number of milliseconds, "
            f"got {raw!r}"
        )
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


def _require(payload: Dict[str, Any], key: str, kind) -> Any:
    value = payload.get(key)
    if not isinstance(value, kind):
        raise ValidationError(f"request body needs {key!r} of type {kind.__name__}")
    return value


# ------------------------------------------------------------ inline solves


def _solve_endpoint(payload: Dict[str, Any], ctx: ServiceContext) -> Dict[str, Any]:
    # The synchronous fast path and background jobs share one executor
    # (repro.jobs.worker.execute_solve_payload) so they can never drift.
    tenants, resilience = ctx.tenants, ctx.resilience
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


def _selection_ids(selection: list, n: int) -> List[int]:
    """``/score``'s ``selection``: a flat list of distinct photo ids in
    ``0..n-1``, read by the instance decoder's id rule (``1.0`` is ``1``)."""
    ids = as_ids(selection, "'selection'")
    if ids.ndim != 1:
        raise ValidationError("'selection' must be a flat list of photo ids")
    out = ids.tolist()
    outside = [p for p in out if not 0 <= p < n]
    if outside:
        raise ValidationError(f"'selection' photo {outside[0]} outside 0..{n - 1}")
    if len(set(out)) != len(out):
        raise ValidationError("'selection' lists a photo more than once")
    return out


def _score_endpoint(payload: Dict[str, Any], ctx: ServiceContext) -> Dict[str, Any]:
    fidelity = payload.get("fidelity")
    if fidelity is None:
        selection = _require(payload, "selection", list)
    with _resolved_instance(payload, ctx.tenants) as (instance, _hit):
        if instance is None:
            instance = instance_from_dict(_require(payload, "instance", dict))
        if fidelity is not None:
            # Multi-fidelity scoring: the policy's 'chosen' records name
            # one variant per photo; see repro.fidelity.policy.
            from repro.fidelity.policy import score_fidelity_payload

            return score_fidelity_payload(fidelity, instance=instance)
        ids = _selection_ids(selection, instance.n)
        state = CoverageState(instance, ids)
        return {
            "value": state.score(),
            "cost": instance.cost_of(ids),
            "feasible": instance.feasible(ids),
            "breakdown": {
                q.subset_id: state.subset_value(qi)
                for qi, q in enumerate(instance.subsets)
            },
        }


def _fidelity_frontier_endpoint(
    payload: Dict[str, Any], ctx: ServiceContext
) -> Dict[str, Any]:
    """``POST /fidelity/frontier`` — a budget-vs-quality sweep.

    Body: an instance source (inline ``instance`` or ``by_ref``), a
    ``budgets`` list (top-level or inside the ``fidelity`` policy), and
    optionally the rest of the fidelity policy vocabulary.
    """
    fidelity = payload.get("fidelity")
    if fidelity is not None and not isinstance(fidelity, dict):
        raise ValidationError(f"'fidelity' must be an object, got {fidelity!r}")
    policy = dict(fidelity or {})
    if payload.get("budgets") is not None:
        policy["budgets"] = payload["budgets"]
    if policy.get("budgets") is None:
        raise ValidationError("frontier sweep needs a 'budgets' list")
    from repro.fidelity.policy import execute_fidelity_payload

    with _resolved_instance(payload, ctx.tenants) as (instance, _hit):
        if instance is None:
            instance = instance_from_dict(_require(payload, "instance", dict))
        return execute_fidelity_payload(policy, instance=instance)


def _inline(endpoint: Callable[[Dict[str, Any], ServiceContext], Any]) -> Handler:
    """The handler of an inline-solve route answering ``endpoint(payload, ctx)``.

    Inline instances keep their float arrays as ndarrays from the scan to
    the decode (:func:`loads_request`); every other key parses as json
    does.  The deadline follows :func:`_deadline_ms_from`.
    """

    def handler(ctx: ServiceContext, req: Request) -> Answer:
        payload = req.json(loads_request)
        deadline_ms = _deadline_ms_from(req.headers, payload)
        payload.pop("deadline_ms", None)
        resilience = ctx.resilience
        if resilience is None:
            if deadline_ms is not None:
                # execute_solve_payload arms the scope on its own thread
                payload["deadline_ms"] = deadline_ms
            return 200, endpoint(payload, ctx)
        request_deadline = resilience.request_deadline(deadline_ms)
        with ExitStack() as stack:
            stack.enter_context(deadline_scope(request_deadline))
            if resilience.admission is not None:
                stack.enter_context(
                    resilience.admission.admit(
                        _request_tenant(payload), deadline=request_deadline
                    )
                )
            return 200, endpoint(payload, ctx)

    return handler


# ------------------------------------------------------------ plain reads


def _health(ctx: ServiceContext, req: Request) -> Answer:
    return 200, {"status": "ok", "version": __version__}


def _healthz(ctx: ServiceContext, req: Request) -> Answer:
    # Pure liveness: no locks, no subsystem calls — safe for tight
    # orchestrator probe loops even while the service is degraded.
    return 200, {"status": "ok"}


def _readyz(ctx: ServiceContext, req: Request) -> Answer:
    # Readiness (vs /healthz liveness): load balancers should stop
    # routing here while the service drains or saturates.
    resilience = ctx.resilience
    if resilience is None or resilience.ready():
        return 200, {"status": "ready"}
    doc: Dict[str, Any] = {
        "status": "unready",
        "draining": resilience.drain.draining(),
    }
    if resilience.admission is not None:
        doc["overloaded"] = resilience.admission.overloaded()
    return 503, doc


def _version(ctx: ServiceContext, req: Request) -> Answer:
    return 200, {"version": __version__}


def _algorithms(ctx: ServiceContext, req: Request) -> Answer:
    return 200, {"algorithms": available_algorithms()}


def _metrics(ctx: ServiceContext, req: Request) -> Answer:
    return 200, {
        RAW_BODY: render_registry(ctx.instruments.registry),
        RAW_CONTENT_TYPE: _PROM_CONTENT_TYPE,
    }


# ------------------------------------------------------------ jobs


def _submit_job(ctx: ServiceContext, req: Request) -> Answer:
    payload = req.json()
    deadline_ms = _deadline_ms_from(req.headers, payload)
    jobs, tenants = ctx.jobs, ctx.tenants
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
    field = partial(number_field, payload)
    spec = JobSpec(
        job_id=new_job_id(),
        instance=instance_doc,
        by_ref=by_ref_doc,
        tenant=str(payload.get("tenant") or default_tenant),
        algorithm=str(payload.get("algorithm") or "phocus"),
        tau=field("tau", 0.0),
        sparsify_method=str(payload.get("sparsify_method") or "exact"),
        certificate=bool(payload.get("certificate", False)),
        seed=field("seed", integer=True, minimum=0),
        priority=field("priority", 0, integer=True),
        timeout_seconds=field("timeout_seconds"),
        deadline_ms=deadline_ms,
        max_attempts=field("max_attempts", 3, integer=True, minimum=1),
        checkpoint_every=field("checkpoint_every", integer=True, minimum=1),
        budgets=numbers_field(payload, "budgets"),
        parallel_workers=field("parallel_workers", integer=True, minimum=1),
        fidelity=payload.get("fidelity"),
    )
    admission = ctx.resilience.admission if ctx.resilience is not None else None
    if admission is not None:
        # Shed *before* the hard 429 bound: predicted queue wait and the
        # shed_queue_fraction watermark both fire as 503 + Retry-After.
        admission.check_queue(
            spec.tenant, depth=jobs.queue_depth, limit=jobs.queue_limit
        )
    try:
        job_id = jobs.submit(spec)
    except QueueFull as exc:
        if admission is not None:
            exc.retry_after = admission.snapshot()["retry_after_seconds"]
        raise
    return 202, {"job_id": job_id, "state": JobState.QUEUED.value}


def _list_jobs(ctx: ServiceContext, req: Request) -> Answer:
    state = req.query.get("state")
    if state is not None and state not in JobState.__members__:
        return 400, {
            "error": f"unknown state {state!r}; one of {sorted(JobState.__members__)}"
        }
    return 200, {"jobs": ctx.jobs.jobs(state=state, tenant=req.query.get("tenant"))}


def _job_status(ctx: ServiceContext, req: Request) -> Answer:
    job_id = req.params["id"]
    doc = ctx.jobs.status(job_id)
    if doc is None:
        return 404, {"error": f"no job {job_id!r}"}
    if doc["state"] == JobState.SUCCEEDED.value:
        doc["result"] = ctx.jobs.result(job_id)
    return 200, doc


def _cancel_job(ctx: ServiceContext, req: Request) -> Answer:
    job_id = req.params["id"]
    try:
        cancelled = ctx.jobs.cancel(job_id)
    except KeyError:
        return 404, {"error": f"no job {job_id!r}"}
    doc = ctx.jobs.status(job_id)
    return 200, {
        "job_id": job_id,
        "cancelled": cancelled,
        "state": doc["state"] if doc else None,
    }


def _stats(ctx: ServiceContext, req: Request) -> Answer:
    stats = ctx.jobs.stats()
    if ctx.resilience is not None:
        stats["resilience"] = ctx.resilience.snapshot()
    return 200, stats


# ------------------------------------------------------------ tenants


def _tenant_stats(ctx: ServiceContext, req: Request) -> Answer:
    return 200, ctx.tenants.stats(req.params["id"])


def _list_instances(ctx: ServiceContext, req: Request) -> Answer:
    tenant = req.params["id"]
    return 200, {
        "tenant": tenant,
        "instances": [m.to_dict() for m in ctx.tenants.list_instances(tenant)],
    }


def _instance_ref(ctx: ServiceContext, req: Request) -> Tuple[str, str]:
    """``(tenant, instance_id)`` of a per-instance route, rate-checked."""
    tenant = req.params["id"]
    ctx.tenants.check_rate(tenant)
    return tenant, req.params["iid"]


def _put_instance(ctx: ServiceContext, req: Request) -> Answer:
    tenant, instance_id = _instance_ref(ctx, req)
    instance_doc = _require(req.json(), "instance", dict)
    meta = ctx.tenants.put_instance(tenant, instance_id, instance_doc)
    return (201 if meta.version == 1 else 200), {"stored": meta.to_dict()}


def _get_instance(ctx: ServiceContext, req: Request) -> Answer:
    return 200, ctx.tenants.get_instance(*_instance_ref(ctx, req))


def _delete_instance(ctx: ServiceContext, req: Request) -> Answer:
    meta = ctx.tenants.delete_instance(*_instance_ref(ctx, req))
    return 200, {"deleted": meta.to_dict()}


# ------------------------------------------------------------ live curation
#
# POST .../live builds + stores (and by default cold-solves) a live
# archive; GET .../live reports curation status including the current
# solution, recurated_at and regret_bound; POST .../photos ingests a delta
# as one atomic version bump; POST .../recurate forces a warm or full
# re-solve (409 when a concurrent ingest moved the version underneath it).


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


def _track(ctx: ServiceContext, tenant: str, instance_id: str) -> None:
    if ctx.sweeper is not None:
        ctx.sweeper.track(tenant, instance_id)


def _create_live(ctx: ServiceContext, req: Request) -> Answer:
    tenant, instance_id = _instance_ref(ctx, req)
    payload = req.json()
    costs, embeddings = _parse_photos(payload)
    budget = number_field(payload, "budget")
    tau = number_field(payload, "tau")
    if budget is None or not budget > 0:
        raise ValidationError("request body needs a positive 'budget'")
    if tau is None:
        raise ValidationError("request body needs a numeric 'tau'")
    n_bits = payload.get("n_bits")
    if n_bits != "auto":
        n_bits = number_field(payload, "n_bits", "auto", integer=True, minimum=1)
    retained = payload.get("retained", [])
    if not isinstance(retained, list):
        raise ValidationError(
            f"'retained' must be a list of photo ids, got {retained!r}"
        )
    doc = ctx.live.create(
        tenant,
        instance_id,
        costs,
        embeddings,
        budget,
        tau=tau,
        seed=number_field(payload, "seed", 0, integer=True, minimum=0),
        n_bits=n_bits,
        target_recall=number_field(payload, "target_recall", 0.95),
        retained=as_ids(retained, "'retained'").tolist(),
        solve=bool(payload.get("solve", True)),
    )
    _track(ctx, tenant, instance_id)
    return 201, doc


def _live_status(ctx: ServiceContext, req: Request) -> Answer:
    status = ctx.live.status(*_instance_ref(ctx, req))
    doc = status.to_dict()
    doc["solution"] = status.solution
    return 200, doc


def _ingest_photos(ctx: ServiceContext, req: Request) -> Answer:
    tenant, instance_id = _instance_ref(ctx, req)
    payload = req.json()
    costs, embeddings = _parse_photos(payload)
    doc = ctx.live.ingest(
        tenant,
        instance_id,
        costs,
        embeddings,
        resolve=str(payload.get("resolve", "warm")),
    )
    _track(ctx, tenant, instance_id)
    return 200, doc


def _recurate(ctx: ServiceContext, req: Request) -> Answer:
    tenant, instance_id = _instance_ref(ctx, req)
    payload = req.json() if req.body else {}
    doc = ctx.live.recurate(tenant, instance_id, kind=str(payload.get("kind", "warm")))
    if doc is None:
        return 409, {"error": "instance version moved during the re-solve; retry"}
    return 200, doc


# ------------------------------------------------------------ the route table

_INSTANCE = "/tenants/<id>/instances/<iid>"

#: ``(method, pattern, handler, needs)`` for every request the service
#: answers.  A ``<name>`` segment matches any one path segment and reaches
#: the handler as ``req.params[name]``.  ``needs`` names the
#: :class:`ServiceContext` collaborator the route cannot answer without.
#: 404, 405 and its ``allow`` list, the metrics ``route`` label, the
#: absent-collaborator answers and the ``phocus serve`` banner all derive
#: from this table.
ROUTES: Tuple[Tuple[str, str, Handler, Optional[str]], ...] = (
    ("GET", "/health", _health, None),
    ("GET", "/healthz", _healthz, None),
    ("GET", "/readyz", _readyz, None),
    ("GET", "/version", _version, None),
    ("GET", "/algorithms", _algorithms, None),
    ("POST", "/solve", _inline(_solve_endpoint), None),
    ("POST", "/score", _inline(_score_endpoint), None),
    ("POST", "/fidelity/frontier", _inline(_fidelity_frontier_endpoint), None),
    ("POST", "/jobs", _submit_job, "jobs"),
    ("GET", "/jobs", _list_jobs, "jobs"),
    ("GET", "/jobs/<id>", _job_status, "jobs"),
    ("DELETE", "/jobs/<id>", _cancel_job, "jobs"),
    ("GET", "/stats", _stats, "jobs"),
    ("GET", "/metrics", _metrics, "instruments"),
    ("GET", "/tenants/<id>/stats", _tenant_stats, "tenants"),
    ("GET", "/tenants/<id>/instances", _list_instances, "tenants"),
    ("PUT", _INSTANCE, _put_instance, "tenants"),
    ("GET", _INSTANCE, _get_instance, "tenants"),
    ("DELETE", _INSTANCE, _delete_instance, "tenants"),
    ("POST", _INSTANCE + "/live", _create_live, "live"),
    ("GET", _INSTANCE + "/live", _live_status, "live"),
    ("POST", _INSTANCE + "/photos", _ingest_photos, "live"),
    ("POST", _INSTANCE + "/recurate", _recurate, "live"),
)

#: The tenant-store ids a ``/tenants/...`` route's segments carry: each
#: is checked with :func:`~repro.tenants.validate_id`'s rule before the
#: handler runs (so before the rate check, the live manager and the
#: store), and a bad one answers 422 naming its segment.
_PATH_IDS = (("id", "tenant id"), ("iid", "instance id"))

#: What a route answers when ``needs`` is absent from the context.
#: ``/metrics`` without instruments is "not found": metrics are off.
_ABSENT: Dict[str, Answer] = {
    "instruments": (404, {"error": "metrics are disabled on this service"}),
    "jobs": (503, {"error": "job manager not running on this service"}),
    "tenants": (503, {"error": "no tenant store configured on this service"}),
    "live": (503, {"error": "live curation is not enabled on this service"}),
}


def _compile(routes) -> List[Tuple[str, List[str], Dict[str, Any]]]:
    """``(pattern, segments, {method: (handler, needs)})`` in table order."""
    methods: Dict[str, Dict[str, Any]] = {}
    for method, pattern, handler, needs in routes:
        methods.setdefault(pattern, {})[method] = (handler, needs)
    return [(pattern, pattern.split("/"), each) for pattern, each in methods.items()]


_PATTERNS = _compile(ROUTES)


def _normalise(path: str) -> Tuple[str, str]:
    """``(path, query)`` of a request target, trailing slashes stripped."""
    try:
        parts = urlsplit(path)
    except ValueError:  # "//[" reads as a malformed IPv6 host: no route
        return path, ""
    return parts.path.rstrip("/") or "/", parts.query


def _match(path: str):
    """``(pattern, methods, params)`` of the route ``path`` matches, or ``None``."""
    segments = path.split("/")
    for pattern, shape, methods in _PATTERNS:
        if len(shape) == len(segments) and all(
            s == p or s[:1] == "<" for s, p in zip(shape, segments)
        ):
            params = {s[1:-1]: p for s, p in zip(shape, segments) if s[:1] == "<"}
            return pattern, methods, params
    return None


def route_label(path: str) -> str:
    """The metrics ``route`` label of a request target: its pattern, or ``<other>``.

    Labels are bounded by the table, so ids in paths never mint series.
    """
    match = _match(_normalise(path)[0])
    return match[0] if match is not None else "<other>"


def _absent(ctx: ServiceContext, needs: Optional[str]) -> Optional[Answer]:
    """The answer for a missing collaborator, or ``None`` when ``ctx`` has it.

    A live route without a tenant store answers the tenant store's 503.
    """
    if needs == "live" and ctx.tenants is None:
        needs = "tenants"
    if needs is None or getattr(ctx, needs) is not None:
        return None
    status, doc = _ABSENT[needs]
    return status, dict(doc)


def served_routes(context: ServiceContext) -> List[Tuple[str, str]]:
    """``(method, pattern)`` of every route ``context`` can answer, in table order."""
    return [(m, p) for m, p, _, needs in ROUTES if _absent(context, needs) is None]


def handle_request(
    method: str,
    path: str,
    body: Optional[bytes],
    context: Optional[ServiceContext] = None,
    *,
    headers: Optional[Any] = None,
) -> Answer:
    """Pure request dispatcher (transport-independent, directly testable).

    ``path`` is looked up in :data:`ROUTES`: no pattern answers 404, a
    method outside the pattern's set 405 with the table's methods in
    ``allow``.  While ``context.resilience`` drains, POST and PUT shed
    503 ``draining``; then a route whose collaborator ``context`` lacks
    answers 503 (``/metrics``: 404, metrics disabled).  A ``/tenants/``
    route's tenant and instance ids must then pass ``validate_id``'s rule
    (422 naming the segment).  Otherwise the route's handler answers, and
    a :class:`~repro.errors.ReproError` it raises becomes that error's
    ``http_status`` and ``to_doc()`` body; anything else is a 500.
    ``headers`` is any ``.get``-able view of the request headers (the
    ``X-Phocus-Deadline-Ms`` deadline).

    Returns ``(http_status, json_payload)`` — for ``/metrics`` the payload
    carries the exposition text under the ``RAW_BODY`` key, which the
    transport serves verbatim with the ``RAW_CONTENT_TYPE`` content type
    instead of JSON-encoding it.
    """
    path, query = _normalise(path)
    match = _match(path)
    if match is None:
        return 404, {"error": f"no route for {method} {path}"}
    pattern, methods, params = match
    if method not in methods:
        return 405, {
            "error": f"method {method} not allowed for {path}",
            "allow": sorted(methods),
        }
    handler, needs = methods[method]
    ctx = context if context is not None else _NO_CONTEXT
    try:
        resilience = ctx.resilience
        writes = method in ("POST", "PUT")
        if writes and resilience is not None and resilience.drain.draining():
            # Stop accepting mutations the moment a drain begins; reads
            # (status polling, /metrics) keep working until the socket
            # closes.
            raise ServiceOverloaded(
                "service is draining; retry against another instance",
                reason="draining",
            )
        absent = _absent(ctx, needs)
        if absent is not None:
            return absent
        if pattern.startswith("/tenants/"):
            for name, what in _PATH_IDS:
                if name in params:
                    validate_id(params[name], what)
        query_args = {k: v[-1] for k, v in parse_qs(query).items()}
        return handler(ctx, Request(params, query_args, body, headers))
    except ReproError as exc:
        return exc.http_status, exc.to_doc()
    except Exception as exc:  # noqa: BLE001 - service boundary
        return 500, {"error": f"internal error: {exc}"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "PHOcus/1.0"

    @staticmethod
    def _encode(
        status: int, payload: Dict[str, Any]
    ) -> Tuple[bytes, List[Tuple[str, str]]]:
        """The answer's body bytes and headers."""
        if RAW_BODY in payload:
            data = str(payload[RAW_BODY]).encode("utf-8")
            content_type = str(
                payload.get(RAW_CONTENT_TYPE) or "text/plain; charset=utf-8"
            )
        else:
            # A live instance's stored document has ndarray leaves.
            data = json.dumps(payload, default=json_default).encode("utf-8")
            content_type = "application/json"
        headers = [("Content-Type", content_type), ("Content-Length", str(len(data)))]
        if status == 405 and isinstance(payload.get("allow"), list):
            headers.append(("Allow", ", ".join(payload["allow"])))
        if status in (429, 503):
            retry_after = payload.get("retry_after")
            if isinstance(retry_after, (int, float)) and retry_after > 0:
                # HTTP Retry-After is integer seconds; round up so clients
                # never retry before the advertised backoff has passed.
                headers.append(("Retry-After", str(math.ceil(retry_after))))
        return data, headers

    def _read_body(self) -> bytes:
        """The request body; :class:`BadRequest` for a bad ``Content-Length``."""
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise BadRequest(f"invalid Content-Length header {raw!r}")
        length = int(raw)
        if length > _MAX_BODY:
            raise RequestTooLarge("request body too large")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        # Every answer, a refused body included, is observed and replied
        # here, so /metrics and the access log count each request once.
        # The request is counted before its answer is written: a client
        # that scrapes /metrics after reading an answer finds it there.
        start = time.perf_counter()
        context = self.server.context
        try:
            body = self._read_body() if method in ("POST", "PUT") else None
        except BadRequest as exc:
            status, payload = exc.http_status, exc.to_doc()
        else:
            status, payload = handle_request(
                method, self.path, body, context, headers=self.headers
            )
        data, headers = self._encode(status, payload)
        observe_request(
            context.instruments,
            self.server.access_log,
            method,
            self.path,
            route_label(self.path),
            status,
            time.perf_counter() - start,
        )
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT")

    def log_message(self, *args) -> None:
        # http.server's default per-request stderr line is replaced by the
        # structured access log in repro.obs.middleware (opt-in via the
        # service's access_log flag); keep the built-in channel silent.
        return


class _Server(ThreadingHTTPServer):
    # socketserver's default listen backlog (5) drops simultaneous
    # connects with RST under tenant fan-out; size it for a load burst.
    request_queue_size = 128
    # What every request handler reads; PhocusService sets both.
    context = _NO_CONTEXT
    access_log: Optional[AccessLog] = None


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
        # Arm (or reuse already-armed) process instruments; re-arming with
        # no arguments keeps an existing registry so multiple services in
        # one process share a single exposition.
        self.instruments = obs_probes.arm() if metrics else None
        self._server.context = ServiceContext(
            jobs=self.jobs,
            instruments=self.instruments,
            tenants=self.tenants,
            resilience=resilience,
            live=self.live,
            sweeper=self.sweeper,
        )
        self._server.access_log = AccessLog() if access_log else None

    @contextmanager
    def _lease_by_ref(self, by_ref: Dict[str, Any]):
        # Background jobs resolve references exactly like /solve does; the
        # lease spans the job's solve so eviction cannot unmap it mid-run.
        with self.tenants.lease_for_solve(by_ref) as (instance, _hit):
            yield instance

    @property
    def context(self) -> ServiceContext:
        """The collaborators this service's routes answer from."""
        return self._server.context

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

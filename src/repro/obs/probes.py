"""Instrumentation probes: near-zero cost disarmed, full telemetry armed.

This module is the one switch between "the library runs dark" (the
default — tier-1 performance is untouched) and "every layer reports
into one registry".  It follows the :mod:`repro.faults`
single-global-``None``-check pattern exactly: instrumented code does

    from repro.obs import probes

    obs = probes.active()
    if obs is not None:
        obs.solver_runs.labels(mode=mode, backend=state.served_by).inc()

so the disarmed cost at every site is a single module-global load plus a
``None`` test.  No metric names, label sets, or registry lookups are
paid until someone arms observability.

:class:`Instruments` is the metric *catalog*: every family the stack
emits is declared here once, with its name, type, help string, and
labels, so call sites stay one-liners and the DESIGN.md metric table has
a single source of truth.  Naming follows Prometheus conventions —
``phocus_<layer>_<noun>_<unit|total>`` with layers ``solver``,
``objective``, ``checkpoint``, ``jobs``, and ``http``.

:func:`arm` installs an :class:`Instruments` (building one over a fresh
or supplied :class:`~repro.obs.registry.MetricsRegistry`) *and* a span
tracer; :func:`disarm` removes both.  Arming is process-wide, like fault
plans: the point is to reach probes deep inside the solver from the
service layer without threading a registry through every signature.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs import trace as _trace
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "Instruments",
    "arm",
    "disarm",
    "armed",
    "active",
    "is_armed",
]

#: Log-scale byte buckets for checkpoint record sizes: 256 B ... ~8 MiB.
BYTE_BUCKETS = tuple(256.0 * (4.0 ** i) for i in range(8))


class Instruments:
    """The full metric catalog, pre-bound to one registry.

    Attributes are live metric families; hot paths grab the family once
    and call ``.labels(...).inc()`` / ``.observe(...)`` on it.  All
    families share the registry's cardinality cap; the per-tenant ones
    are the reason the cap exists.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry or MetricsRegistry()
        self.registry = reg

        # ----------------------------------------------------------- solver
        self.solver_runs = reg.counter(
            "phocus_solver_runs_total",
            "completed greedy passes, by the kernel that served them "
            "(native or the numpy kernel)",
            ("mode", "backend"),
        )
        self.solver_picks = reg.counter(
            "phocus_solver_picks_total",
            "photos selected by greedy passes (excludes the retained set)",
            ("mode",),
        )
        self.solver_evaluations = reg.counter(
            "phocus_solver_gain_evaluations_total",
            "marginal-gain evaluations (the paper's measure of solver work)",
            ("mode",),
        )
        self.solver_refreshes = reg.counter(
            "phocus_solver_lazy_refreshes_total",
            "CELF lazy re-evaluations (stale heap entries recomputed)",
            ("mode",),
        )
        self.solver_reeval_ratio = reg.gauge(
            "phocus_solver_lazy_reeval_ratio",
            "lazy re-evaluations / heap pops of the most recent pass "
            "(low = laziness is paying off)",
            ("mode",),
        )
        self.solver_heap_size = reg.gauge(
            "phocus_solver_heap_size",
            "candidate heap size at the start of the most recent pass",
            ("mode",),
        )
        self.solver_picks_per_second = reg.gauge(
            "phocus_solver_picks_per_second",
            "selection throughput of the most recent pass",
            ("mode",),
        )
        self.solver_seconds = reg.histogram(
            "phocus_solver_solve_seconds",
            "wall-clock of one greedy pass",
            ("mode",),
        )
        self.solve_requests = reg.counter(
            "phocus_solver_requests_total",
            "solve payloads executed (sync /solve and background jobs)",
            ("algorithm",),
        )

        # -------------------------------------------------------- objective
        self.objective_states = reg.counter(
            "phocus_objective_state_inits_total",
            "CoverageState constructions, by the kernel that serves them "
            "(native or the numpy kernel)",
            ("backend",),
        )

        # ------------------------------------------------------- checkpoint
        self.checkpoint_writes = reg.counter(
            "phocus_checkpoint_writes_total",
            "durable checkpoint records written",
        )
        self.checkpoint_bytes = reg.counter(
            "phocus_checkpoint_bytes_total",
            "bytes of checkpoint records written",
        )
        self.checkpoint_write_seconds = reg.histogram(
            "phocus_checkpoint_write_seconds",
            "latency of one durable checkpoint write (encode + atomic replace)",
        )

        # ------------------------------------------------------------- jobs
        self.jobs_submitted = reg.counter(
            "phocus_jobs_submitted_total",
            "jobs accepted into the queue",
            ("tenant",),
        )
        self.jobs_completed = reg.counter(
            "phocus_jobs_completed_total",
            "jobs reaching a terminal state",
            ("tenant", "state"),
        )
        self.jobs_rejected = reg.counter(
            "phocus_jobs_rejected_total",
            "submissions refused with queue-full backpressure (HTTP 429)",
        )
        self.jobs_retries = reg.counter(
            "phocus_jobs_retries_total",
            "transient failures re-queued for another attempt",
        )
        self.jobs_timeouts = reg.counter(
            "phocus_jobs_timeouts_total",
            "jobs failed by the per-job timeout",
        )
        self.jobs_failures = reg.counter(
            "phocus_jobs_failures_total",
            "job failure outcomes by classification "
            "(transient / transient_exhausted / permanent / timeout / cancelled)",
            ("kind",),
        )
        self.jobs_queue_depth = reg.gauge(
            "phocus_jobs_queue_depth",
            "jobs waiting in the fair queue",
        )
        self.jobs_workers_busy = reg.gauge(
            "phocus_jobs_workers_busy",
            "worker threads currently executing a job",
        )
        self.jobs_wait_seconds = reg.histogram(
            "phocus_jobs_wait_seconds",
            "queue wait: submission to first dequeue",
        )
        self.jobs_run_seconds = reg.histogram(
            "phocus_jobs_run_seconds",
            "execution time of successful job attempts",
        )

        # ---------------------------------------------------------- tenants
        self.tenants_store_bytes = reg.gauge(
            "phocus_tenants_store_bytes",
            "bytes of stored instance envelopes per tenant",
            ("tenant",),
            max_series=128,
        )
        self.tenants_store_instances = reg.gauge(
            "phocus_tenants_store_instances",
            "stored instances per tenant",
            ("tenant",),
            max_series=128,
        )
        self.tenants_cache_hits = reg.counter(
            "phocus_tenants_cache_hits_total",
            "warm-cache leases served from a resident packed instance",
            ("tenant",),
            max_series=128,
        )
        self.tenants_cache_misses = reg.counter(
            "phocus_tenants_cache_misses_total",
            "warm-cache leases that had to load + pack",
            ("tenant",),
            max_series=128,
        )
        self.tenants_cache_evictions = reg.counter(
            "phocus_tenants_cache_evictions_total",
            "packed instances evicted from the warm cache",
            ("tenant",),
            max_series=128,
        )
        self.tenants_cache_bytes = reg.gauge(
            "phocus_tenants_cache_bytes",
            "bytes of packed instances resident in the warm cache",
        )
        self.tenants_quota_rejections = reg.counter(
            "phocus_tenants_quota_rejections_total",
            "requests refused by quota (413: bytes/instances) or rate (429)",
            ("tenant", "kind"),
            max_series=256,
        )

        # ------------------------------------------------------- scalebuild
        self.scalebuild_candidates = reg.counter(
            "phocus_scalebuild_candidate_pairs_total",
            "unique banded-LSH candidate pairs produced by streamed builds",
        )
        self.scalebuild_verified = reg.counter(
            "phocus_scalebuild_verified_pairs_total",
            "candidate pairs whose exact cosine was computed",
        )
        self.scalebuild_kept = reg.counter(
            "phocus_scalebuild_kept_pairs_total",
            "verified pairs at or above τ kept in the CSR instance",
        )
        self.scalebuild_chunks = reg.counter(
            "phocus_scalebuild_chunks_total",
            "bounded-memory work chunks processed, by pipeline stage",
            ("stage",),
        )
        self.scalebuild_phase_seconds = reg.histogram(
            "phocus_scalebuild_phase_seconds",
            "wall-clock of one streamed-build phase",
            ("phase",),
        )

        # ------------------------------------------------------------- live
        self.live_ingests = reg.counter(
            "phocus_live_ingests_total",
            "photo-delta ingestions committed to the tenant store",
            ("tenant",),
            max_series=256,
        )
        self.live_photos = reg.counter(
            "phocus_live_photos_total",
            "photos appended to live archives via delta ingestion",
            ("tenant",),
            max_series=256,
        )
        self.live_resolves = reg.counter(
            "phocus_live_resolves_total",
            "re-curation solves, by kind (warm seeded vs cold two-phase)",
            ("kind",),
        )
        self.live_resolve_seconds = reg.histogram(
            "phocus_live_resolve_seconds",
            "wall-clock of one re-curation solve",
            ("kind",),
        )
        self.live_regret_bound = reg.gauge(
            "phocus_live_regret_bound",
            "certified relative regret bound of the latest stored solution",
            ("tenant",),
            max_series=256,
        )
        self.live_pending = reg.gauge(
            "phocus_live_pending_deltas",
            "deferred (un-curated) deltas awaiting the re-curation sweep",
            ("tenant",),
            max_series=256,
        )
        self.live_sweeps = reg.counter(
            "phocus_live_sweeps_total",
            "re-curation scheduler sweep passes",
        )
        self.live_recurations = reg.counter(
            "phocus_live_recurations_total",
            "sweep-triggered re-curations, by trigger (warm coalesce vs "
            "full regret/backlog escalation)",
            ("trigger",),
        )

        # --------------------------------------------------------- fidelity
        self.fidelity_solves = reg.counter(
            "phocus_fidelity_solves_total",
            "exclusive-choice multi-fidelity passes completed",
            ("mode",),
        )
        self.fidelity_solve_seconds = reg.histogram(
            "phocus_fidelity_solve_seconds",
            "wall-clock of one exclusive-choice pass",
            ("mode",),
        )
        self.fidelity_variants_selected = reg.counter(
            "phocus_fidelity_variants_selected_total",
            "variants chosen by exclusive passes, by catalog tier",
            ("tier",),
            max_series=64,
        )
        self.fidelity_upgrade_swaps = reg.counter(
            "phocus_fidelity_upgrade_swaps_total",
            "in-drain upgrades of a chosen variant to a higher-fidelity "
            "sibling",
        )
        self.fidelity_frontier_points = reg.counter(
            "phocus_fidelity_frontier_points_total",
            "budget points evaluated by frontier sweeps",
        )
        self.fidelity_mean_fidelity = reg.gauge(
            "phocus_fidelity_mean_fidelity",
            "mean retained fidelity of the most recent fidelity solve "
            "(dropped photos count as 0)",
        )

        # ------------------------------------------------------- resilience
        self.resilience_shed = reg.counter(
            "phocus_resilience_shed_total",
            "requests shed by the admission controller (HTTP 503)",
            ("reason", "tenant"),
            max_series=256,
        )
        self.resilience_brownout = reg.counter(
            "phocus_resilience_brownout_total",
            "degraded /solve responses served under brownout",
            ("mode",),
        )
        self.resilience_deadline_exceeded = reg.counter(
            "phocus_resilience_deadline_exceeded_total",
            "solves stopped by an expired or interrupted deadline",
            ("where",),
        )
        self.resilience_deadline_remaining = reg.histogram(
            "phocus_resilience_deadline_remaining_seconds",
            "deadline budget remaining at admission",
        )
        self.resilience_inflight = reg.gauge(
            "phocus_resilience_inflight",
            "admitted requests currently executing",
        )
        self.resilience_pressure = reg.gauge(
            "phocus_resilience_pressure",
            "admission pressure (1.0 = at capacity)",
        )
        self.resilience_wait_ewma = reg.gauge(
            "phocus_resilience_queue_wait_ewma_seconds",
            "EWMA of job queue wait fed to the admission controller",
        )
        self.resilience_draining = reg.gauge(
            "phocus_resilience_draining",
            "1 while the service is draining or drained, else 0",
        )
        self.jobs_drain_interrupted = reg.counter(
            "phocus_jobs_drain_interrupted_total",
            "running jobs checkpointed and requeued by a graceful drain",
        )

        # ------------------------------------------------------------- http
        self.http_requests = reg.counter(
            "phocus_http_requests_total",
            "HTTP requests served",
            ("method", "route", "status"),
            max_series=256,
        )
        self.http_request_seconds = reg.histogram(
            "phocus_http_request_seconds",
            "request handling latency",
            ("route",),
        )

    # ------------------------------------------------------------ summaries

    def failure_counts(self) -> Dict[str, object]:
        """Job failure tallies for ``GET /stats`` (reads the live registry)."""
        reg = self.registry
        by_kind = reg.sum_by_label("phocus_jobs_failures_total", "kind")
        return {
            "by_kind": {k: int(v) for k, v in sorted(by_kind.items())},
            "retries": int(reg.get_sample("phocus_jobs_retries_total") or 0),
            "timeouts": int(reg.get_sample("phocus_jobs_timeouts_total") or 0),
            "rejected": int(reg.get_sample("phocus_jobs_rejected_total") or 0),
        }


_instruments: Optional[Instruments] = None
_arm_lock = threading.Lock()


def arm(
    registry: Optional[MetricsRegistry] = None,
    *,
    tracer: Optional[_trace.Tracer] = None,
) -> Instruments:
    """Arm observability process-wide; returns the live :class:`Instruments`.

    Re-arming with no arguments while already armed keeps the existing
    instruments (so a service and a library caller can both "ensure
    armed" without resetting each other's counters); passing an explicit
    ``registry`` always rebuilds.
    """
    global _instruments
    with _arm_lock:
        if _instruments is not None and registry is None:
            if _trace.active_tracer() is None:
                _trace.install(tracer)
            return _instruments
        _instruments = Instruments(registry)
        _trace.install(tracer)
        return _instruments


def disarm() -> None:
    """Disarm: every probe site reverts to the single-None-check no-op."""
    global _instruments
    with _arm_lock:
        _instruments = None
        _trace.uninstall()


@contextmanager
def armed(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Instruments]:
    """Context manager: arm for the block, always disarm after (tests)."""
    instruments = arm(registry or MetricsRegistry())
    try:
        yield instruments
    finally:
        disarm()


def active() -> Optional[Instruments]:
    """The armed instruments, or ``None`` — THE hot-path check.

    Instrumented code must test the result against ``None`` before doing
    any metric work; that test is the entire disarmed cost.
    """
    return _instruments


def is_armed() -> bool:
    return _instruments is not None

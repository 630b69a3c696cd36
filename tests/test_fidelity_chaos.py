"""Chaos tests for the multi-fidelity pipeline (``fidelity.*`` sites).

The solver contract under crashes: catalog construction, the exclusive
drain (including its upgrade moves), and the frontier sweep are all
*pure* — they mutate nothing durable — so a process killed at any
``fidelity.*`` site leaves no partial state behind, and a post-crash
retry reproduces the clean run bit for bit (the solver is deterministic
at a fixed archive seed).  A fidelity job drained mid-solve resumes from
its checkpoint to the same answer.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import faults
from repro.core.greedy import lazy_greedy
from repro.core.serialize import instance_to_dict
from repro.faults.plan import FaultPlan, ProcessKilled
from repro.fidelity import (
    VariantCatalog,
    budget_frontier,
    fidelity_main,
)
from repro.jobs import JobManager, JobState, execute_solve_payload
from repro.jobs.spec import JobSpec
from repro.scale import build_streamed_instance, synthetic_archive

CHAOS_SEED = int(os.environ.get("PHOCUS_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def always_disarmed():
    yield
    faults.disarm()


def _archive(n=120, *, frac=0.15, seed=5, retained=()):
    costs, emb = synthetic_archive(n, dim=8, noise=0.7, seed=seed)
    total = float(costs.sum())
    instance, _ = build_streamed_instance(
        costs, emb, total * frac, tau=0.5, rng=seed, retained=list(retained)
    )
    return instance, VariantCatalog.default(instance.costs)


def test_kill_during_catalog_build_then_retry_is_identical():
    instance, clean = _archive()
    plan = FaultPlan(seed=CHAOS_SEED).on("fidelity.catalog", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            VariantCatalog.default(instance.costs)
        assert plan.fired("fidelity.catalog") == 1
        # Fault exhausted: the in-context retry builds the same catalog.
        retry = VariantCatalog.default(instance.costs)
    assert retry.to_dict() == clean.to_dict()


def test_kill_at_upgrade_consideration_then_retry_is_bit_identical():
    instance, catalog = _archive()
    clean = lazy_greedy(instance, catalog=catalog)
    # The clean run must actually exercise the upgrade path, otherwise
    # this test would pass vacuously with the site never reached.
    assert clean.upgrades

    plan = FaultPlan(seed=CHAOS_SEED).on("fidelity.swap", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            lazy_greedy(instance, catalog=catalog)
        assert plan.fired("fidelity.swap") == 1
    retry = lazy_greedy(instance, catalog=catalog)
    assert retry.chosen == clean.chosen
    assert retry.value == clean.value
    assert retry.cost == clean.cost
    assert retry.evaluations == clean.evaluations
    assert retry.upgrades == clean.upgrades


def test_transient_swap_fault_raises_cleanly_and_solver_stays_usable():
    instance, catalog = _archive()
    clean = fidelity_main(instance, catalog)
    plan = FaultPlan(seed=CHAOS_SEED).on("fidelity.swap", "raise")
    with faults.armed(plan):
        with pytest.raises(OSError):
            fidelity_main(instance, catalog)
        # Same process, fault exhausted: the next solve succeeds whole.
        retry = fidelity_main(instance, catalog)
    assert retry.chosen == clean.chosen
    assert retry.value == clean.value


def test_kill_mid_frontier_sweep_then_retry_is_identical():
    instance, catalog = _archive(frac=1.0)
    total = float(instance.costs.sum())
    budgets = [total * 0.1, total * 0.25]

    def _stable(doc):
        drop = ("fidelity_seconds", "discard_seconds")
        return [
            {k: v for k, v in point.items() if k not in drop}
            for point in doc["points"]
        ]

    clean = budget_frontier(instance, catalog, budgets)
    plan = FaultPlan(seed=CHAOS_SEED).on("fidelity.frontier", "kill")
    with faults.armed(plan):
        with pytest.raises(ProcessKilled):
            budget_frontier(instance, catalog, budgets)
        assert plan.fired("fidelity.frontier") == 1
    retry = budget_frontier(instance, catalog, budgets)
    assert _stable(retry) == _stable(clean)
    assert retry["checks"] == clean["checks"]


def test_drained_fidelity_job_resumes_bit_identically(tmp_path):
    """Drain a fidelity job mid-solve, resume it on a fresh manager: the
    answer is exactly the uninterrupted solve's, upgrades included."""
    instance, _ = _archive(60, seed=1 + CHAOS_SEED, retained=[0, 7])
    doc = instance_to_dict(instance)
    journal = str(tmp_path / "jobs.jsonl")
    started, release = threading.Event(), threading.Event()

    def gated_solve(spec, *, checkpoint_sink=None, resume_from=None):
        # Parks inside the solver loop after the first checkpoint, so the
        # drain interrupts a genuinely partial exclusive selection.
        def sink(cp):
            checkpoint_sink(cp)
            if not started.is_set():
                started.set()
                release.wait(15)

        return execute_solve_payload(
            spec.solve_payload(), checkpoint_sink=sink, resume_from=resume_from
        )

    jobs = JobManager(workers=1, journal_path=journal, solve_fn=gated_solve)
    job_id = jobs.submit(
        JobSpec(job_id="drain-fid", instance=doc, fidelity={}, checkpoint_every=1)
    )
    assert started.wait(10)
    threading.Timer(0.3, release.set).start()
    assert jobs.drain(grace_seconds=10.0) == {"interrupted": 1, "forced_requeue": 0}

    with JobManager(workers=0, journal_path=journal, autostart=False) as parked:
        status = parked.status(job_id)
        assert status["state"] == JobState.QUEUED.value
        assert status["checkpoint_progress"]["picks"] >= 1

    # The solver is deterministic, so a restart from zero would give the
    # same answer: record what the resumed attempt was handed.
    handed = []

    def recording_solve(spec, *, checkpoint_sink=None, resume_from=None):
        handed.append(resume_from)
        return execute_solve_payload(
            spec.solve_payload(), checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )

    with JobManager(
        workers=1, journal_path=journal, solve_fn=recording_solve
    ) as fresh:
        assert fresh.wait(job_id, timeout=30)["state"] == JobState.SUCCEEDED.value
        resumed = fresh.result(job_id)
    assert len(handed) == 1
    assert handed[0]["kind"] == "main_algorithm"
    assert handed[0]["progress"]["picks"] >= 1
    assert "variants" in handed[0]["inner"]  # a multi-fidelity checkpoint
    reference = execute_solve_payload({"instance": doc, "fidelity": {}})
    assert reference["upgrades"] > 0
    for key in ("chosen", "value", "cost", "evaluations", "upgrades"):
        assert resumed[key] == reference[key], key

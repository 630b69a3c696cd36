"""Tests for the background job orchestration subsystem (repro.jobs)."""

from __future__ import annotations

import contextlib
import copy
import sys
import threading
import time
from collections import defaultdict

import pytest

from repro import faults

from repro.core.serialize import instance_to_dict
from repro.core.solver import PERMANENT, TRANSIENT, classify_failure, solve
from repro.errors import (
    ConfigurationError,
    TransientSolveError,
    ValidationError,
)
from repro.jobs import (
    FairPriorityQueue,
    JobManager,
    JobRecord,
    JobSpec,
    JobState,
    JournalJobStore,
    QueueFull,
    execute_solve_payload,
)
from repro.faults.plan import FaultPlan, ProcessKilled
from repro.jobs.store import InMemoryJobStore

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


def _spec(job_id="j1", tenant="default", **kwargs) -> JobSpec:
    kwargs.setdefault("instance", {"format": 1})
    return JobSpec(job_id=job_id, tenant=tenant, **kwargs)


def _real_spec(seed=0, **kwargs) -> JobSpec:
    return _spec(instance=instance_to_dict(random_instance(seed=seed)), **kwargs)


# --------------------------------------------------------------------- spec


class TestSpec:
    def test_happy_transitions(self):
        record = JobRecord(spec=_spec())
        record.transition(JobState.RUNNING)
        record.transition(JobState.SUCCEEDED)
        assert record.terminal

    def test_retry_requeue_transition(self):
        record = JobRecord(spec=_spec())
        record.transition(JobState.RUNNING)
        record.transition(JobState.QUEUED)  # transient retry path
        assert record.state is JobState.QUEUED

    def test_illegal_transition_raises(self):
        record = JobRecord(spec=_spec())
        with pytest.raises(ConfigurationError):
            record.transition(JobState.SUCCEEDED)  # QUEUED → SUCCEEDED
        record.transition(JobState.RUNNING)
        record.transition(JobState.FAILED)
        with pytest.raises(ConfigurationError):
            record.transition(JobState.RUNNING)  # terminal states are final

    def test_record_round_trip(self):
        record = JobRecord(spec=_spec(tenant="alice", priority=3, max_attempts=5))
        record.transition(JobState.RUNNING)
        record.attempt = 2
        record.error = "boom"
        record.error_kind = "transient"
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.job_id == record.job_id
        assert clone.state is JobState.RUNNING
        assert clone.attempt == 2
        assert clone.spec.priority == 3
        assert clone.spec.max_attempts == 5

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            _spec(job_id="")
        with pytest.raises(ValidationError):
            _spec(max_attempts=0)
        with pytest.raises(ValidationError):
            _spec(timeout_seconds=-1.0)

    def test_public_dict_omits_instance(self):
        doc = JobRecord(spec=_real_spec()).public_dict()
        assert "instance" not in doc["spec"]
        assert doc["job_id"]

    def test_checkpoint_every_validated_and_serialised(self):
        with pytest.raises(ValidationError):
            _spec(checkpoint_every=0)
        spec = _spec(checkpoint_every=5)
        assert JobSpec.from_dict(spec.to_dict()).checkpoint_every == 5
        assert spec.solve_payload()["checkpoint_every"] == 5
        assert "checkpoint_every" not in _spec().solve_payload()

    def test_checkpoint_blob_round_trips_but_stays_private(self):
        record = JobRecord(spec=_spec())
        record.checkpoint = "QkxPQg=="
        record.checkpoint_progress = {"phase": "UC", "picks": 4}
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.checkpoint == "QkxPQg=="
        assert clone.checkpoint_progress == {"phase": "UC", "picks": 4}
        public = record.public_dict()
        assert "checkpoint" not in public  # the blob never leaves the journal
        assert public["checkpoint_progress"] == {"phase": "UC", "picks": 4}


# -------------------------------------------------------------------- queue


class TestQueue:
    def test_round_robin_across_tenants(self):
        q = FairPriorityQueue()
        for tenant in ("a", "a", "a", "b", "b", "c"):
            q.put(f"{tenant}-{len(q)}", tenant=tenant)
        order = [q.get(timeout=0.1) for _ in range(6)]
        tenants = [item.split("-")[0] for item in order]
        # First cycle serves every waiting tenant once.
        assert tenants[:3] == ["a", "b", "c"]
        assert tenants == ["a", "b", "c", "a", "b", "a"]

    def test_priority_within_tenant(self):
        q = FairPriorityQueue()
        q.put("low", tenant="a", priority=0)
        q.put("high", tenant="a", priority=9)
        assert q.get(timeout=0.1) == "high"
        assert q.get(timeout=0.1) == "low"

    def test_fifo_within_priority(self):
        q = FairPriorityQueue()
        q.put("first", tenant="a")
        q.put("second", tenant="a")
        assert [q.get(timeout=0.1), q.get(timeout=0.1)] == ["first", "second"]

    def test_bounded_depth_signals_backpressure(self):
        q = FairPriorityQueue(maxsize=2)
        q.put(1, tenant="a")
        q.put(2, tenant="b")
        with pytest.raises(QueueFull) as excinfo:
            q.put(3, tenant="c")
        assert excinfo.value.depth == 2
        assert excinfo.value.maxsize == 2
        q.put(3, tenant="c", force=True)  # internal re-queues bypass the bound
        assert len(q) == 3

    def test_get_timeout_returns_none(self):
        assert FairPriorityQueue().get(timeout=0.01) is None

    def test_remove(self):
        q = FairPriorityQueue()
        q.put("x", tenant="a")
        q.put("y", tenant="a")
        assert q.remove(lambda item: item == "x") == "x"
        assert q.remove(lambda item: item == "zzz") is None
        assert len(q) == 1
        assert q.get(timeout=0.1) == "y"


# -------------------------------------------------------------------- store


class TestJournalStore:
    def test_last_snapshot_wins_on_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path)
        record = JobRecord(spec=_spec())
        store.save(record)
        record.transition(JobState.RUNNING)
        store.save(record)
        store.close()

        reopened = JournalJobStore(path)
        assert reopened.replayed_count == 1
        assert reopened.load_all()["j1"].state is JobState.RUNNING
        reopened.close()

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path)
        store.save(JobRecord(spec=_spec(job_id="good")))
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"spec": {"job_id": "torn", "inst')  # crash mid-write

        reopened = JournalJobStore(path)
        assert set(reopened.load_all()) == {"good"}
        reopened.close()

    def test_compact_rewrites_one_line_per_job(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path)
        record = JobRecord(spec=_spec())
        for state in (JobState.RUNNING, JobState.SUCCEEDED):
            store.save(record)
            if not record.terminal:
                record.transition(state)
        store.save(record)
        store.compact()
        store.close()
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip()]
        assert len(lines) == 1
        assert store.compaction_count == 1

    def test_corrupt_mid_file_line_is_quarantined(self, tmp_path):
        """Corruption *anywhere* — not just the tail — is skipped, counted,
        and the rest of the journal still replays."""
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path)
        for job_id in ("first", "second", "third"):
            store.save(JobRecord(spec=_spec(job_id=job_id)))
        store.close()

        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        middle = bytearray(lines[1])
        middle[len(middle) // 2] ^= 0x01  # bit flip in the middle line
        lines[1] = bytes(middle)
        with open(path, "wb") as fh:
            fh.writelines(lines)

        reopened = JournalJobStore(path)
        assert set(reopened.load_all()) == {"first", "third"}
        assert reopened.quarantined_count == 1
        reopened.close()

    def test_legacy_plain_json_lines_still_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        import json as _json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json.dumps(JobRecord(spec=_spec(job_id="old")).to_dict()) + "\n")
        store = JournalJobStore(path)
        assert set(store.load_all()) == {"old"}
        assert store.quarantined_count == 0
        store.close()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JournalJobStore(str(tmp_path / "j.jsonl"), fsync_policy="sometimes")
        with pytest.raises(ConfigurationError):
            JournalJobStore(str(tmp_path / "j.jsonl"), fsync_every=0)
        with pytest.raises(ConfigurationError):
            JournalJobStore(str(tmp_path / "j.jsonl"), compact_bytes=0)

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_fsync_policies_all_persist(self, tmp_path, policy):
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path, fsync_policy=policy, fsync_every=2)
        for i in range(5):
            store.save(JobRecord(spec=_spec(job_id=f"j{i}")))
        store.close()
        reopened = JournalJobStore(path)
        assert reopened.replayed_count == 5
        reopened.close()

    def test_size_bounded_auto_compaction(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JournalJobStore(path, compact_bytes=2048)
        record = JobRecord(spec=_real_spec(job_id="churn"))
        for _ in range(40):  # many superseded snapshots of one job
            store.save(record)
        assert store.compaction_count >= 1
        import os as _os

        # after compaction the file holds just the live snapshot
        assert _os.path.getsize(path) < 40 * 200
        store.close()
        reopened = JournalJobStore(path)
        assert set(reopened.load_all()) == {"churn"}
        reopened.close()


# ----------------------------------------------------- failure classification


class TestClassifyFailure:
    def test_explicit_transient(self):
        assert classify_failure(TransientSolveError("blip")) == TRANSIENT

    def test_repro_errors_are_permanent(self):
        assert classify_failure(ValidationError("bad input")) == PERMANENT
        assert classify_failure(ConfigurationError("bad algo")) == PERMANENT

    def test_environmental_faults_are_transient(self):
        assert classify_failure(OSError("disk hiccup")) == TRANSIENT
        assert classify_failure(MemoryError()) == TRANSIENT
        assert classify_failure(TimeoutError()) == TRANSIENT

    def test_unknown_exceptions_are_permanent(self):
        assert classify_failure(RuntimeError("bug")) == PERMANENT


# ---------------------------------------------------------- manager fault paths


class TestManagerFaults:
    def test_transient_failure_retries_then_succeeds(self):
        spec = _real_spec(job_id="flaky", max_attempts=3)
        calls = defaultdict(int)

        def solve_fn(s):
            calls[s.job_id] += 1
            if calls[s.job_id] == 1:
                raise TransientSolveError("injected crash")
            return execute_solve_payload(s.solve_payload())

        with JobManager(workers=1, solve_fn=solve_fn, retry_base_delay=0.01) as m:
            m.submit(spec)
            status = m.wait("flaky", timeout=20)
        assert status["state"] == "SUCCEEDED"
        assert status["attempt"] == 2
        assert calls["flaky"] == 2

    def test_transient_failure_exhausts_retries(self):
        spec = _real_spec(job_id="doomed", max_attempts=3)
        calls = defaultdict(int)

        def solve_fn(s):
            calls[s.job_id] += 1
            raise TransientSolveError("always down")

        with JobManager(workers=1, solve_fn=solve_fn, retry_base_delay=0.01) as m:
            m.submit(spec)
            status = m.wait("doomed", timeout=20)
        assert status["state"] == "FAILED"
        assert status["error_kind"] == "transient_exhausted"
        assert status["attempt"] == 3
        assert calls["doomed"] == 3

    def test_permanent_failure_fails_without_retry(self):
        calls = defaultdict(int)

        def solve_fn(s):
            calls[s.job_id] += 1
            raise ValidationError("deterministic bad input")

        with JobManager(workers=1, solve_fn=solve_fn) as m:
            m.submit(_real_spec(job_id="perm", max_attempts=5))
            status = m.wait("perm", timeout=20)
        assert status["state"] == "FAILED"
        assert status["error_kind"] == "permanent"
        assert status["attempt"] == 1
        assert calls["perm"] == 1

    def test_timeout_fails_with_timeout_reason(self):
        def solve_fn(s):
            time.sleep(10)

        with JobManager(workers=1, solve_fn=solve_fn) as m:
            m.submit(_real_spec(job_id="slow", timeout_seconds=0.2))
            start = time.monotonic()
            status = m.wait("slow", timeout=20)
            waited = time.monotonic() - start
        assert status["state"] == "FAILED"
        assert status["error_kind"] == "timeout"
        assert "timeout" in status["error"]
        assert waited < 5  # failed at the deadline, not after the 10s sleep

    def test_cancel_queued_job_never_runs(self):
        calls = defaultdict(int)

        def solve_fn(s):
            calls[s.job_id] += 1
            return execute_solve_payload(s.solve_payload())

        manager = JobManager(workers=1, solve_fn=solve_fn, autostart=False)
        try:
            manager.submit(_real_spec(job_id="parked"))
            assert manager.cancel("parked") is True
            assert manager.status("parked")["state"] == "CANCELLED"
            manager.start()
            time.sleep(0.2)
            assert calls["parked"] == 0
            assert manager.status("parked")["state"] == "CANCELLED"
            assert manager.cancel("parked") is False  # already terminal
        finally:
            manager.shutdown()

    def test_cancel_running_job(self):
        started = threading.Event()

        def solve_fn(s):
            started.set()
            time.sleep(10)

        with JobManager(workers=1, solve_fn=solve_fn) as m:
            m.submit(_real_spec(job_id="live"))
            assert started.wait(timeout=5)
            assert m.status("live")["state"] == "RUNNING"
            assert m.cancel("live") is True
            status = m.wait("live", timeout=5)
        assert status["state"] == "CANCELLED"
        assert status["error_kind"] == "cancelled"

    def test_cancel_unknown_job_raises(self):
        with JobManager(workers=0, autostart=False) as m:
            with pytest.raises(KeyError):
                m.cancel("nope")

    def test_queue_full_submit_leaves_no_record(self):
        with JobManager(workers=0, queue_depth=1, autostart=False) as m:
            m.submit(_real_spec(job_id="fits"))
            with pytest.raises(QueueFull):
                m.submit(_real_spec(job_id="rejected"))
            assert m.status("rejected") is None
            assert m.stats()["queue"]["depth"] == 1


# ------------------------------------------------------------ acceptance test


class TestAcceptance:
    """The ISSUE acceptance scenario: a multi-tenant fleet with injected
    faults, fairness, and crash-restart journal replay."""

    N_JOBS = 21
    TENANTS = ("alice", "bob", "carol")

    def _specs(self):
        specs, instances = [], {}
        for i in range(self.N_JOBS):
            job_id = f"job-{i:02d}"
            instance = random_instance(seed=i, n_photos=8, n_subsets=3)
            instances[job_id] = instance
            specs.append(
                JobSpec(
                    job_id=job_id,
                    tenant=self.TENANTS[i % len(self.TENANTS)],
                    instance=instance_to_dict(instance),
                    timeout_seconds=0.3 if job_id == "job-07" else None,
                    max_attempts=3,
                )
            )
        return specs, instances

    def test_fleet_with_faults_fairness_and_replay(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        specs, instances = self._specs()
        flaky_id, timeout_id = "job-03", "job-07"
        executions = defaultdict(int)
        exec_lock = threading.Lock()

        def solve_fn(spec):
            with exec_lock:
                executions[spec.job_id] += 1
                attempt_no = executions[spec.job_id]
            if spec.job_id == flaky_id and attempt_no == 1:
                raise TransientSolveError("injected transient crash")
            if spec.job_id == timeout_id:
                time.sleep(10)  # guaranteed to blow the 0.3s per-job timeout
            return execute_solve_payload(spec.solve_payload())

        # Phase 1: a manager journals all submissions, then is "killed"
        # before executing anything (workers=0 — no execution threads).
        first = JobManager(workers=0, journal_path=journal, autostart=False)
        for spec in specs:
            first.submit(spec)
        assert all(doc["state"] == "QUEUED" for doc in first.jobs())
        first.shutdown(wait=False)

        # Phase 2: a re-created manager replays the journal and runs the
        # fleet on 4 workers, hitting the injected faults along the way.
        second = JobManager(
            workers=4,
            journal_path=journal,
            solve_fn=solve_fn,
            retry_base_delay=0.01,
        )
        try:
            finals = {s.job_id: second.wait(s.job_id, timeout=60) for s in specs}

            # Every non-timeout job SUCCEEDED with results identical to a
            # direct solve() call.
            for spec in specs:
                if spec.job_id == timeout_id:
                    assert finals[spec.job_id]["state"] == "FAILED"
                    assert finals[spec.job_id]["error_kind"] == "timeout"
                    continue
                assert finals[spec.job_id]["state"] == "SUCCEEDED", finals[spec.job_id]
                result = second.result(spec.job_id)
                direct = solve(instances[spec.job_id], "phocus")
                assert result["selection"] == direct.selection
                assert result["value"] == pytest.approx(direct.value)

            # The injected transient failure was retried exactly once.
            assert finals[flaky_id]["attempt"] == 2
            assert executions[flaky_id] == 2

            # Fairness: the first dispatch cycle serves every tenant's
            # first job before any tenant's second job runs.
            dispatch_order = sorted(
                (doc["dequeue_seq"], doc["tenant"]) for doc in second.jobs()
            )
            first_cycle = {tenant for _, tenant in dispatch_order[: len(self.TENANTS)]}
            assert first_cycle == set(self.TENANTS)
        finally:
            second.shutdown()

        # Phase 3: another restart replays nothing new — finished jobs are
        # history, not work, so no job ever runs twice.
        third = JobManager(workers=4, journal_path=journal, solve_fn=solve_fn)
        try:
            for spec in specs:
                state = third.status(spec.job_id)["state"]
                assert state == ("FAILED" if spec.job_id == timeout_id else "SUCCEEDED")
            assert third.stats()["queue"]["depth"] == 0
        finally:
            third.shutdown()
        for job_id, count in executions.items():
            expected = 2 if job_id == flaky_id else 1
            assert count == expected, f"{job_id} executed {count}x"

    def test_replay_resumes_unfinished_jobs_exactly_once(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        executions = defaultdict(int)
        exec_lock = threading.Lock()

        def solve_fn(spec):
            with exec_lock:
                executions[spec.job_id] += 1
            return execute_solve_payload(spec.solve_payload())

        # Finish some jobs, then stage more without running them.
        first = JobManager(workers=2, journal_path=journal, solve_fn=solve_fn)
        done_ids = [first.submit(_real_spec(seed=i, job_id=f"done-{i}")) for i in range(3)]
        for job_id in done_ids:
            assert first.wait(job_id, timeout=30)["state"] == "SUCCEEDED"
        first._pool.stop(wait=True)  # "crash": workers die, journal remains
        staged_ids = [
            first.submit(_real_spec(seed=10 + i, job_id=f"staged-{i}")) for i in range(3)
        ]
        first.shutdown(wait=False)

        second = JobManager(workers=2, journal_path=journal, solve_fn=solve_fn)
        try:
            for job_id in staged_ids:
                assert second.wait(job_id, timeout=30)["state"] == "SUCCEEDED"
            for job_id in done_ids:  # untouched history
                assert second.status(job_id)["state"] == "SUCCEEDED"
        finally:
            second.shutdown()
        assert all(executions[j] == 1 for j in done_ids + staged_ids), executions


# ------------------------------------------------- journal before publish


class _BlockingTerminalStore(InMemoryJobStore):
    """Holds every save of a terminal record until ``release`` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.saving = threading.Event()
        self.release = threading.Event()

    def save(self, record: JobRecord) -> None:
        if record.terminal:
            self.saving.set()
            assert self.release.wait(10)
        super().save(record)


@contextlib.contextmanager
def _quiet_process_kills():
    previous = threading.excepthook

    def _hook(args):
        if not issubclass(args.exc_type, ProcessKilled):
            previous(args)

    threading.excepthook = _hook
    try:
        yield
    finally:
        threading.excepthook = previous


class TestJournalBeforePublish:
    def test_status_is_not_terminal_while_the_outcome_is_being_saved(self):
        store = _BlockingTerminalStore()
        with JobManager(workers=1, store=store, solve_fn=lambda spec: {"ok": 1}) as m:
            job_id = m.submit(_spec())
            assert store.saving.wait(10)
            assert m.status(job_id)["state"] == "RUNNING"
            with pytest.raises(TimeoutError):
                m.wait(job_id, timeout=0.1)
            store.release.set()
            assert m.wait(job_id, timeout=10)["state"] == "SUCCEEDED"
            assert m.result(job_id) == {"ok": 1}

    def test_an_outcome_the_journal_refuses_is_still_published(self):
        class _FullDisk(InMemoryJobStore):
            def save(self, record: JobRecord) -> None:
                if record.terminal:
                    raise OSError("no space left for the outcome line")
                super().save(record)

        with JobManager(workers=1, store=_FullDisk(), solve_fn=lambda spec: {"ok": 1}) as m:
            job_id = m.submit(_spec())
            assert m.wait(job_id, timeout=10)["state"] == "SUCCEEDED"
            assert m.result(job_id) == {"ok": 1}

    def test_kill_at_the_completion_write_replays_instead_of_succeeding(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        executions = []

        def solve_fn(spec):
            executions.append(spec.job_id)
            return {"run": len(executions)}

        # Each journal write probes its site twice (check, then mangle):
        # hit 5 is the third write's check — after the submit and RUNNING
        # lines, the outcome line.
        plan = FaultPlan().on("journal.write", "kill", nth=5)
        with _quiet_process_kills(), faults.armed(plan):
            first = JobManager(workers=1, journal_path=journal, solve_fn=solve_fn)
            job_id = first.submit(_spec("k1"))
            deadline = time.monotonic() + 10
            while not plan.fired("journal.write") and time.monotonic() < deadline:
                assert first.status(job_id)["state"] != "SUCCEEDED"
                time.sleep(0.005)
            assert plan.fired("journal.write") == 1
            time.sleep(0.1)  # the killed worker thread has unwound
            assert first.status(job_id)["state"] == "RUNNING"
            first.shutdown(wait=False)
        second = JobManager(workers=1, journal_path=journal, solve_fn=solve_fn)
        try:
            assert second.wait(job_id, timeout=10)["state"] == "SUCCEEDED"
            assert second.result(job_id) == {"run": 2}
        finally:
            second.shutdown()
        assert executions == ["k1", "k1"]


# ------------------------------------------------------- journal revisions


class _LateQueuedStore(JournalJobStore):
    """Appends each job's first QUEUED snapshot 0.3 s late.

    The delay widens the real window between a submit's snapshot and its
    append: the worker journals RUNNING and SUCCEEDED in between.
    """

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._delayed: set = set()

    def save(self, record: JobRecord) -> None:
        if record.state is JobState.QUEUED and record.job_id not in self._delayed:
            self._delayed.add(record.job_id)
            record = copy.copy(record)
            time.sleep(0.3)
        super().save(record)


class _HeldOutcomeStore(JournalJobStore):
    """After appending a terminal line, holds the saver until ``resume``."""

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.outcome_written = threading.Event()
        self.resume = threading.Event()

    def save(self, record: JobRecord) -> None:
        super().save(record)
        if record.terminal:
            self.outcome_written.set()
            assert self.resume.wait(10)


def _replayed(journal: str) -> JobManager:
    """A manager that replays ``journal`` and runs nothing."""
    return JobManager(workers=0, journal_path=journal, autostart=False)


class TestJournalRevisions:
    def test_a_queued_line_appended_late_does_not_replay_a_finished_job(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        executions = []

        def solve_fn(spec):
            executions.append(spec.job_id)
            return {"ok": 1}

        first = JobManager(workers=1, store=_LateQueuedStore(journal), solve_fn=solve_fn)
        try:
            job_id = first.submit(_spec("late"))
            assert first.wait(job_id, timeout=10)["state"] == "SUCCEEDED"
        finally:
            first.shutdown()
        second = _replayed(journal)
        try:
            assert second.status(job_id)["state"] == "SUCCEEDED"
            assert second.queue_depth == 0
        finally:
            second.shutdown()
        assert executions == ["late"]

    def test_an_abandoned_solve_cannot_checkpoint_after_its_outcome(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        store = _HeldOutcomeStore(journal)
        sink_calls = []

        def solve_fn(spec, *, checkpoint_sink=None, resume_from=None):
            # Outlive the timeout, then checkpoint once the FAILED line is
            # journalled but before the manager publishes it.
            assert store.outcome_written.wait(10)
            sink_calls.append(1)
            checkpoint_sink({"progress": {"phase": "UC", "picks": 1}})
            store.resume.set()
            return {"ok": 1}

        with JobManager(workers=1, store=store, solve_fn=solve_fn) as first:
            job_id = first.submit(_spec("slow", timeout_seconds=0.2))
            final = first.wait(job_id, timeout=10)
        assert final["state"] == "FAILED" and final["error_kind"] == "timeout"
        assert sink_calls == [1]
        second = _replayed(journal)
        try:
            assert second.status(job_id)["state"] == "FAILED"
            assert second.queue_depth == 0
        finally:
            second.shutdown()

    def test_no_finished_job_replays_under_thread_contention(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        store = JournalJobStore(journal, fsync_policy="never")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobManager(workers=4, store=store, solve_fn=lambda spec: {"ok": 1}) as m:
                ids = [m.submit(_spec(f"s{i}")) for i in range(200)]
                for job_id in ids:
                    assert m.wait(job_id, timeout=30)["state"] == "SUCCEEDED"
        finally:
            sys.setswitchinterval(previous)
        second = _replayed(journal)
        try:
            assert second.queue_depth == 0
            assert {second.status(j)["state"] for j in ids} == {"SUCCEEDED"}
        finally:
            second.shutdown()

    def test_a_job_refused_with_queue_full_never_replays(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        with JobManager(
            workers=0, queue_depth=1, journal_path=journal, autostart=False
        ) as m:
            m.submit(_spec("fits"))
            with pytest.raises(QueueFull):
                m.submit(_spec("refused"))
        second = _replayed(journal)
        try:
            assert second.status("refused") is None
            assert [j["job_id"] for j in second.jobs()] == ["fits"]
        finally:
            second.shutdown()

    def test_replay_keeps_the_highest_revision_and_line_order_among_equals(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        store = JournalJobStore(journal)
        newer = JobRecord(spec=_spec("r"), revision=3)
        newer.transition(JobState.RUNNING)
        newer.transition(JobState.SUCCEEDED)
        older = JobRecord(spec=_spec("r"), revision=1)
        legacy_first = JobRecord(spec=_spec("legacy"))
        legacy_last = JobRecord(spec=_spec("legacy"))
        legacy_last.transition(JobState.RUNNING)
        for record in (newer, older, legacy_first, legacy_last):
            store.save(record)
        assert store.load_all()["r"].state is JobState.SUCCEEDED
        store.close()
        replayed = JournalJobStore(journal).load_all()
        assert replayed["r"].state is JobState.SUCCEEDED
        assert replayed["legacy"].state is JobState.RUNNING


# ------------------------------------------------------------------- stats


class TestStats:
    def test_stats_shape_and_latency_percentiles(self):
        with JobManager(workers=2) as m:
            ids = [
                m.submit_solve(instance_to_dict(random_instance(seed=i)), tenant="t")
                for i in range(4)
            ]
            for job_id in ids:
                m.wait(job_id, timeout=30)
            stats = m.stats()
        assert stats["jobs"]["SUCCEEDED"] == 4
        assert stats["queue"]["depth"] == 0
        assert stats["workers"]["total"] == 2
        lat = stats["solve_latency_seconds"]
        assert lat["count"] == 4
        assert 0 <= lat["p50"] <= lat["p90"] <= lat["p99"]


# ------------------------------------------------------------------- sweeps


class TestBudgetSweeps:
    def test_spec_round_trip_and_validation(self):
        spec = _real_spec(budgets=[1.5, 3.0], parallel_workers=2)
        assert spec.budgets == (1.5, 3.0)
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored.budgets == spec.budgets
        assert restored.parallel_workers == 2
        payload = spec.solve_payload()
        assert payload["budgets"] == [1.5, 3.0]
        assert payload["parallel_workers"] == 2
        with pytest.raises(ValidationError):
            _real_spec(budgets=[])
        with pytest.raises(ValidationError):
            _real_spec(budgets=[2.0, -1.0])
        with pytest.raises(ValidationError):
            _real_spec(parallel_workers=0)

    def test_sweep_matches_single_solves(self):
        instance = random_instance(seed=3)
        budgets = [instance.budget * f for f in (0.4, 0.7, 1.0)]
        doc = execute_solve_payload(
            _real_spec(seed=3, budgets=budgets).solve_payload()
        )
        assert doc["sweep"] is True
        assert doc["budgets"] == budgets
        assert len(doc["solutions"]) == len(budgets)
        for budget, member in zip(budgets, doc["solutions"]):
            single = execute_solve_payload(
                {"instance": instance_to_dict(instance.with_budget(budget))}
            )
            assert member["selection"] == single["selection"]
            assert member["value"] == single["value"]
        values = [m["value"] for m in doc["solutions"]]
        assert values == sorted(values)  # larger budget never hurts

    def test_parallel_sweep_identical_to_serial(self):
        budgets = [2.0, 3.0, 4.0]
        serial = execute_solve_payload(
            _real_spec(seed=5, budgets=budgets).solve_payload()
        )
        parallel = execute_solve_payload(
            _real_spec(seed=5, budgets=budgets, parallel_workers=2).solve_payload()
        )
        assert parallel["parallel_workers"] == 2
        for s, p in zip(serial["solutions"], parallel["solutions"]):
            assert p["selection"] == s["selection"]
            assert p["value"] == s["value"]

    def test_sweep_with_sparsify_and_certificate(self):
        instance = random_instance(seed=7)
        budgets = [instance.budget * 0.5, instance.budget]
        doc = execute_solve_payload(
            _real_spec(seed=7, budgets=budgets, tau=0.3, certificate=True)
            .solve_payload()
        )
        assert doc["sparsify"] is not None
        assert 0.0 < doc["sparsify"]["kept_fraction"] <= 1.0
        for member in doc["solutions"]:
            # True-value scoring: sweep members report the objective of their
            # selection on the original (unsparsified) instance, not the
            # sparsified solver instance.
            assert member["value"] == reference_score(
                instance, member["selection"]
            )
            cert = member["ratio_certificate"]
            assert cert is not None and 0.0 < cert <= 1.0

    def test_sweep_through_job_manager(self):
        budgets = [2.5, 4.0]
        spec = _real_spec(job_id="sweep1", budgets=budgets, parallel_workers=1)
        with JobManager(workers=1) as m:
            m.submit(spec)
            status = m.wait("sweep1", timeout=30)
        assert status["state"] == "SUCCEEDED"
        result = status["result"]
        assert result["sweep"] is True
        assert [s["budget"] for s in result["solutions"]] == budgets

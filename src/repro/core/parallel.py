"""Shared-memory parallel batch solving.

A Fig 5-style experiment runs many *independent* solves over the same
archive — a budget sweep, UC/CB pairs, an algorithm grid.  Naively fanning
those out with :class:`~concurrent.futures.ProcessPoolExecutor` would
pickle the full instance (dense similarity matrices included) once per
task, which for archive-scale instances costs more than the solve itself.

This module instead places every large array of a :class:`PARInstance` —
costs, per-subset similarity backends, and the flat incidence CSR the
kernels run on — into a single :mod:`multiprocessing.shared_memory` block.
Workers attach by *name* and rebuild the instance as zero-copy numpy views
over the mapped buffer; only a small spec dict (names, weights, offsets)
crosses the pickle boundary per task.

Lifecycle: the parent creates the block, runs the batch, then closes *and
unlinks* it in a ``finally`` — the segment is removed even when a task
fails.  Workers attach once per block name and never unlink; if a worker
crashes, its mapping dies with the process and the parent's ``finally``
still reclaims the segment.  (On Python < 3.13 worker attachment also
registers with the resource tracker; pool workers share the parent's
tracker process, whose registry is a set, so the duplicate registration is
harmless and the parent's unlink clears it.)

Determinism: results come back in task order regardless of completion
order, and ``workers=1`` runs the identical code path inline, so a batch
is reproducible at any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    IncidenceCSR,
    PARInstance,
    PredefinedSubset,
    SimilarityBackend,
    SparseSimilarity,
)
from repro.core.solver import Solution, available_algorithms, solve
from repro.errors import ConfigurationError
from repro.resilience import deadline as _deadline

__all__ = [
    "SolveTask",
    "SharedInstance",
    "attach_instance",
    "build_view_instance",
    "solve_batch",
    "default_workers",
]


@dataclass(frozen=True)
class SolveTask:
    """One unit of a batch: an algorithm run with optional overrides.

    ``budget`` overrides the shared instance's budget (the incidence CSR
    and similarities are budget-independent, so a sweep shares one
    instance); ``seed`` seeds the randomised baselines; ``label`` is an
    opaque tag echoed into ``Solution.extras["task_label"]`` so grid
    callers can route results without positional bookkeeping.
    """

    algorithm: str = "phocus"
    budget: Optional[float] = None
    certificate: bool = False
    seed: Optional[int] = None
    label: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "budget": self.budget,
            "certificate": self.certificate,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SolveTask":
        return cls(
            algorithm=str(doc.get("algorithm", "phocus")),
            budget=None if doc.get("budget") is None else float(doc["budget"]),
            certificate=bool(doc.get("certificate", False)),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            label=str(doc.get("label", "")),
        )


def default_workers() -> int:
    """Worker count matched to the visible CPUs (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Packing: instance -> one shared-memory block + picklable spec
# ---------------------------------------------------------------------------


class _Packer:
    """Accumulates arrays into one contiguous 8-byte-aligned layout."""

    def __init__(self) -> None:
        self._pending: List[Tuple[int, np.ndarray]] = []
        self.size = 0

    def add(self, arr: np.ndarray) -> Dict[str, object]:
        arr = np.ascontiguousarray(arr)
        ref = {
            "offset": self.size,
            "shape": tuple(int(s) for s in arr.shape),
            "dtype": arr.dtype.str,
        }
        self._pending.append((self.size, arr))
        self.size = (self.size + arr.nbytes + 7) & ~7
        return ref

    def write_into(self, shm: shared_memory.SharedMemory) -> None:
        for offset, arr in self._pending:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
            view[...] = arr
        self._pending.clear()


def _view(shm: shared_memory.SharedMemory, ref: Dict[str, object]) -> np.ndarray:
    return np.ndarray(
        ref["shape"], dtype=np.dtype(ref["dtype"]), buffer=shm.buf, offset=ref["offset"]
    )


def _pack_tail(packer: _Packer, tail) -> Optional[List[Dict[str, object]]]:
    """A similarity's or an incidence's tail (three arrays, or ``None``),
    packed as it is: each range stays its base range then its tail's."""
    return None if tail is None else [packer.add(a) for a in tail]


def _view_tail(shm: shared_memory.SharedMemory, refs) -> Optional[Tuple[np.ndarray, ...]]:
    return None if refs is None else tuple(_view(shm, ref) for ref in refs)


class SharedInstance:
    """A :class:`PARInstance` exported into one shared-memory segment.

    The constructor packs every array; :attr:`name` and :attr:`spec` are
    the (cheap, picklable) handle workers need to :meth:`attach`.  Use as a
    context manager — exit closes *and unlinks* the segment.  Workers that
    attached keep their mapping until process exit (POSIX keeps unlinked
    segments alive while mapped), so unlinking early is safe.

    ``name`` requests an explicit segment name — the tenant warm cache
    (:mod:`repro.tenants.cache`) names its segments with a recognisable,
    pid-stamped prefix so a crash-recovery sweep can find and reclaim
    segments leaked by dead processes.

    :meth:`materialize` rebuilds the instance *in this process* as
    zero-copy numpy views over the owned mapping — the same construction
    workers perform via :func:`attach_instance`, minus the extra
    attachment.  This is how a warm-cached instance is served to the
    threaded service without deserialising or re-packing anything.
    """

    def __init__(self, instance: PARInstance, *, name: Optional[str] = None) -> None:
        packer = _Packer()
        subset_specs: List[Dict[str, object]] = []
        for q in instance.subsets:
            sim: SimilarityBackend = q.similarity
            if sim.is_sparse:
                (indptr, cols, vals), tail = sim.parts()
                sim_spec: Dict[str, object] = {
                    "kind": "sparse",
                    "size": len(sim),
                    "indptr": packer.add(indptr),
                    "cols": packer.add(cols),
                    "vals": packer.add(vals),
                    "tail": _pack_tail(packer, tail),
                }
            else:
                sim_spec = {"kind": "dense", "matrix": packer.add(sim.matrix)}
            subset_specs.append(
                {
                    "subset_id": q.subset_id,
                    "weight": q.weight,
                    "members": packer.add(q.members),
                    "relevance": packer.add(q.relevance),
                    "similarity": sim_spec,
                }
            )
        inc = instance.incidence
        self.spec: Dict[str, object] = {
            "budget": instance.budget,
            "retained": sorted(instance.retained),
            "costs": packer.add(instance.costs),
            "subsets": subset_specs,
            "incidence": {
                "subset_offsets": packer.add(inc.subset_offsets),
                "photo_member_indptr": packer.add(inc.photo_member_indptr),
                "member_entry_indptr": packer.add(inc.member_entry_indptr),
                "entry_indptr": packer.add(inc.entry_indptr),
                "slots": packer.add(inc.slots),
                "sims": packer.add(inc.sims),
                "slot_wrel": packer.add(inc.slot_wrel),
                "tail": _pack_tail(packer, inc.tail),
            },
        }
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(packer.size, 1), name=name
        )
        packer.write_into(self._shm)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def materialize(self, *, budget: Optional[float] = None) -> PARInstance:
        """This process's zero-copy view instance (see class docstring)."""
        return build_view_instance(self._shm, self.spec, budget=budget)

    def close(self) -> None:
        """Remove the segment and unmap it (idempotent).

        The unlink happens *first* and unconditionally: POSIX keeps the
        memory alive while any mapping exists, so removing the name early
        is safe, and it guarantees no segment outlives its owner even
        when live numpy views (a :meth:`materialize` instance still held
        by a caller) make the unmap itself fail with ``BufferError``.
        The mapping is then released when the last view dies.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked (idempotent close)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views in this process
            pass

    def __enter__(self) -> "SharedInstance":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker side: attach by name, rebuild as views
# ---------------------------------------------------------------------------

# One mapping per segment name per worker process; released at process exit.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Python < 3.13 has no track flag and registers the attachment
            # with the resource tracker.  Pool workers share the parent's
            # tracker process (its pipe is inherited through fork/spawn
            # preparation), whose registry is a set — the duplicate
            # registration is a no-op and the parent's unlink clears it, so
            # no unregister gymnastics are needed.
            shm = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return shm


def attach_instance(
    name: str, spec: Dict[str, object], *, budget: Optional[float] = None
) -> PARInstance:
    """Rebuild the shared instance as zero-copy views (worker side)."""
    return build_view_instance(_attach(name), spec, budget=budget)


def build_view_instance(
    shm: shared_memory.SharedMemory,
    spec: Dict[str, object],
    *,
    budget: Optional[float] = None,
) -> PARInstance:
    """Rebuild a packed instance as zero-copy views over ``shm``.

    Goes through the constructors' trusted paths: the packer took its
    arrays from a validated instance, and re-validating would force
    copies.  Photo labels/metadata and embeddings are not shipped (no
    solver reads them); the budget override is still checked, as is
    retention-set feasibility, so a sweep budget below ``C(S0)`` fails
    exactly like a normal construction.
    """
    subsets: List[PredefinedSubset] = []
    for s in spec["subsets"]:
        sim_spec = s["similarity"]
        if sim_spec["kind"] == "sparse":
            backend: SimilarityBackend = SparseSimilarity.from_parts(
                int(sim_spec["size"]),
                _view(shm, sim_spec["indptr"]),
                _view(shm, sim_spec["cols"]),
                _view(shm, sim_spec["vals"]),
                _view_tail(shm, sim_spec.get("tail")),
            )
        else:
            backend = DenseSimilarity.adopt(_view(shm, sim_spec["matrix"]))
        subsets.append(
            PredefinedSubset(
                s["subset_id"],
                s["weight"],
                _view(shm, s["members"]),
                _view(shm, s["relevance"]),
                backend,
                validate=False,
            )
        )
    inc = spec["incidence"]
    # Variant catalogs do not ride the shm pack.
    return PARInstance(
        _view(shm, spec["costs"]),
        subsets,
        spec["budget"] if budget is None else budget,
        spec["retained"],
        incidence=IncidenceCSR(
            _view(shm, inc["subset_offsets"]),
            _view(shm, inc["photo_member_indptr"]),
            _view(shm, inc["member_entry_indptr"]),
            _view(shm, inc["entry_indptr"]),
            _view(shm, inc["slots"]),
            _view(shm, inc["sims"]),
            _view(shm, inc["slot_wrel"]),
            _view_tail(shm, inc.get("tail")),
        ),
        validate=False,
    )


def _run_task(instance: PARInstance, task: SolveTask) -> Solution:
    """Run one task (both the serial path and workers call exactly this)."""
    if task.budget is not None and task.budget != instance.budget:
        instance = instance.with_budget(task.budget)
    rng = None if task.seed is None else np.random.default_rng(task.seed)
    solution = solve(
        instance, task.algorithm, certificate=task.certificate, rng=rng
    )
    if task.label:
        solution.extras["task_label"] = task.label
    return solution


def _worker_run(name: str, spec: Dict[str, object], task: SolveTask) -> Solution:
    instance = attach_instance(name, spec, budget=task.budget)
    return _run_task(instance, task)


# ---------------------------------------------------------------------------
# The batch driver
# ---------------------------------------------------------------------------


def solve_batch(
    instance: PARInstance,
    tasks: Sequence[SolveTask],
    *,
    workers: Optional[int] = None,
) -> List[Solution]:
    """Solve independent tasks over one instance, results in task order.

    ``workers=None`` or ``1`` (or a single task) runs inline — no
    processes, no shared memory, identical code path per task.  With more
    workers the instance is packed once into shared memory and tasks fan
    out over a ``ProcessPoolExecutor`` (``fork`` context where available,
    so workers skip interpreter + import start-up).
    """
    tasks = [t if isinstance(t, SolveTask) else SolveTask(**t) for t in tasks]
    known = set(available_algorithms())
    for t in tasks:
        if t.algorithm not in known:
            raise ConfigurationError(
                f"unknown algorithm {t.algorithm!r}; available: {sorted(known)}"
            )
        if t.budget is not None and not (t.budget > 0):
            raise ConfigurationError(
                f"task budget must be positive, got {t.budget!r}"
            )
    if not tasks:
        return []
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")

    if workers is None or workers <= 1 or len(tasks) == 1:
        # Deadline check between tasks: the inline path inherits this
        # thread's scope directly, so each task also checks inside its
        # own greedy loop; this catches expiry between solves.
        results = []
        for t in tasks:
            _deadline.check()
            results.append(_run_task(instance, t))
        return results

    _deadline.check()
    shared = SharedInstance(instance)
    try:
        try:
            ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = get_context()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_worker_run, shared.name, shared.spec, t) for t in tasks
            ]
            dl = _deadline.current()
            return [_collect(f, dl) for f in futures]
    finally:
        shared.close()


def _collect(future, dl) -> Solution:
    """Await one worker result, honouring the caller's deadline.

    Thread-local deadlines do not cross the process boundary, so the
    parent polls: short result waits interleaved with expiry checks.  An
    expired deadline abandons the remaining futures (the pool's shutdown
    cancels what has not started) and raises with no checkpoint — batch
    tasks are independent whole solves, so there is no mid-batch state
    worth resuming.
    """
    if dl is None:
        return future.result()
    while True:
        if dl.expired():
            raise dl.to_exception()
        rem = dl.remaining()
        step = 0.05 if rem is None else min(0.05, max(rem, 0.001))
        try:
            return future.result(timeout=step)
        except _FuturesTimeout:
            continue

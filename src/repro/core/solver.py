"""Solver facade: one entry point over every PAR algorithm in the library.

:func:`solve` dispatches by name to the paper's algorithm (``"phocus"``),
its sub-procedures, the optimal-guarantee and exact references, and the
Section 5.2 baselines.  Whatever algorithm ran, the returned
:class:`Solution` always reports the *true* contextual objective value of
the selection, the byte cost, and (optionally) the online-bound performance
certificate — so experiment code compares apples to apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import baselines
from repro.core.bounds import certify
from repro.core.bruteforce import branch_and_bound
from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm
from repro.core.instance import PARInstance
from repro.core.sviridenko import sviridenko
from repro.errors import (
    ConfigurationError,
    ReproError,
    StorageExhausted,
    TransientSolveError,
)

__all__ = [
    "Solution",
    "solve",
    "solve_many",
    "available_algorithms",
    "checkpointable_algorithms",
    "classify_failure",
    "TRANSIENT",
    "PERMANENT",
]

TRANSIENT = "transient"
PERMANENT = "permanent"

# Environmental fault types that a retry can plausibly outrun.  Library
# errors (bad input, unknown algorithm, infeasible budget) are by
# definition deterministic and retrying them only wastes worker time.
_TRANSIENT_TYPES = (TransientSolveError, OSError, MemoryError, TimeoutError)


def classify_failure(exc: BaseException) -> str:
    """Classify a solve failure as :data:`TRANSIENT` or :data:`PERMANENT`.

    The job orchestration layer (:mod:`repro.jobs`) retries transient
    failures with exponential backoff and fails permanent ones on the
    first attempt.  :class:`~repro.errors.TransientSolveError` is the
    explicit escape hatch for callers that know their fault is retryable.
    """
    if isinstance(exc, TransientSolveError):
        return TRANSIENT
    if isinstance(exc, StorageExhausted):
        # Disk-full is environmental: space can be reclaimed (journal
        # compaction, tenant deletes, operator action), so retry.  Checked
        # before the ReproError rule that would call it permanent.
        return TRANSIENT
    if isinstance(exc, ReproError):
        return PERMANENT
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT


@dataclass
class Solution:
    """The outcome of a PAR solve.

    Attributes
    ----------
    algorithm:
        Name under which the solver was invoked.
    selection:
        Sorted retained photo ids (always a superset of ``S0``).
    value:
        True objective ``G(S)`` of the selection.
    cost:
        Byte cost ``C(S)``.
    budget:
        Budget the solve ran under.
    elapsed_seconds:
        Wall-clock solve time.
    ratio_certificate:
        ``G(S) / online_bound`` when a certificate was requested — a
        data-dependent lower bound on the approximation ratio.
    extras:
        Algorithm-specific diagnostics (evaluation counts, winning greedy
        mode, search nodes, ...).
    """

    algorithm: str
    selection: List[int]
    value: float
    cost: float
    budget: float
    elapsed_seconds: float
    ratio_certificate: Optional[float] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def budget_utilisation(self) -> float:
        """Fraction of the budget actually spent."""
        return self.cost / self.budget if self.budget > 0 else 0.0


def _greedy_extras(run) -> Dict[str, object]:
    extras: Dict[str, object] = {"evaluations": run.evaluations, "picks": len(run.picks)}
    if run.resumed_at is not None:
        extras["resumed_from_picks"] = run.resumed_at
    return extras


def _run_phocus(instance: PARInstance, rng, **checkpoint_kwargs) -> tuple:
    run = main_algorithm(instance, **checkpoint_kwargs)
    extras = _greedy_extras(run)
    extras["mode"] = run.mode
    return run.selection, extras


def _run_lazy_uc(instance: PARInstance, rng, **checkpoint_kwargs) -> tuple:
    run = lazy_greedy(instance, UC, **checkpoint_kwargs)
    return run.selection, _greedy_extras(run)


def _run_lazy_cb(instance: PARInstance, rng, **checkpoint_kwargs) -> tuple:
    run = lazy_greedy(instance, CB, **checkpoint_kwargs)
    return run.selection, _greedy_extras(run)


def _run_naive_greedy(instance: PARInstance, rng) -> tuple:
    run = main_algorithm(instance, lazy=False)
    return run.selection, {"mode": run.mode, "evaluations": run.evaluations}


def _run_sviridenko(instance: PARInstance, rng) -> tuple:
    res = sviridenko(instance)
    return res.selection, {
        "evaluations": res.evaluations,
        "seeds_tried": res.seeds_tried,
    }


def _run_bruteforce(instance: PARInstance, rng) -> tuple:
    res = branch_and_bound(instance)
    return res.selection, {"nodes": res.nodes, "exact": True}


def _run_rand_a(instance: PARInstance, rng) -> tuple:
    return baselines.rand_add(instance, rng), {}


def _run_rand_d(instance: PARInstance, rng) -> tuple:
    return baselines.rand_delete(instance, rng), {}


def _run_greedy_nr(instance: PARInstance, rng) -> tuple:
    return baselines.greedy_no_redundancy(instance), {}


def _run_greedy_ncs(instance: PARInstance, rng) -> tuple:
    return baselines.greedy_non_contextual(instance), {}


_REGISTRY: Dict[str, Callable] = {
    "phocus": _run_phocus,
    "lazy-uc": _run_lazy_uc,
    "lazy-cb": _run_lazy_cb,
    "naive-greedy": _run_naive_greedy,
    "sviridenko": _run_sviridenko,
    "bruteforce": _run_bruteforce,
    "rand-a": _run_rand_a,
    "rand-d": _run_rand_d,
    "greedy-nr": _run_greedy_nr,
    "greedy-ncs": _run_greedy_ncs,
}


# Algorithms whose solves can be checkpointed and resumed mid-run.
_CHECKPOINTABLE = frozenset({"phocus", "lazy-uc", "lazy-cb"})


def available_algorithms() -> List[str]:
    """Names accepted by :func:`solve`."""
    return sorted(_REGISTRY)


def checkpointable_algorithms() -> List[str]:
    """Algorithms accepting ``checkpoint_every`` / ``resume_from``."""
    return sorted(_CHECKPOINTABLE)


def solve(
    instance: PARInstance,
    algorithm: str = "phocus",
    *,
    certificate: bool = False,
    rng: Optional[np.random.Generator] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[Callable[[Dict[str, object]], None]] = None,
    resume_from: Optional[Dict[str, object]] = None,
) -> Solution:
    """Solve a PAR instance with the named algorithm.

    Parameters
    ----------
    instance:
        The validated PAR instance (already sparsified if desired — use
        :func:`repro.sparsify.pipeline.sparsify_instance` beforehand).
    algorithm:
        One of :func:`available_algorithms` (default ``"phocus"``,
        the paper's Algorithm 1).
    certificate:
        When true, additionally compute the online-bound approximation-ratio
        certificate (:func:`repro.core.bounds.certify`: one ``all_gains``
        pass on the state that already gives ``value``).
    rng:
        Randomness source for the randomised baselines.
    checkpoint_every / checkpoint_sink / resume_from:
        Crash-safety controls for the checkpointable algorithms (see
        :func:`checkpointable_algorithms` and
        :mod:`repro.core.checkpoint`): emit a resumable snapshot every
        ``checkpoint_every`` picks, and/or restart from a previously
        captured checkpoint document.
    """
    try:
        runner = _REGISTRY[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; available: {available_algorithms()}"
        ) from None
    wants_checkpoint = (
        checkpoint_every is not None
        or checkpoint_sink is not None
        or resume_from is not None
    )
    if wants_checkpoint and algorithm not in _CHECKPOINTABLE:
        raise ConfigurationError(
            f"algorithm {algorithm!r} does not support checkpointing; "
            f"checkpointable: {checkpointable_algorithms()}"
        )

    start = time.perf_counter()
    if wants_checkpoint:
        selection, extras = runner(
            instance,
            rng,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )
    else:
        selection, extras = runner(instance, rng)
    elapsed = time.perf_counter() - start

    selection = sorted(set(int(p) for p in selection) | instance.retained)
    report = certify(instance, selection, bound=certificate)
    return Solution(
        algorithm=algorithm,
        selection=selection,
        value=report.value,
        cost=instance.cost_of(selection),
        budget=instance.budget,
        elapsed_seconds=elapsed,
        ratio_certificate=report.ratio,
        extras=extras,
    )


def solve_many(instance: PARInstance, tasks, *, workers: Optional[int] = None) -> List[Solution]:
    """Solve a batch of independent tasks over one instance.

    ``tasks`` is a sequence of :class:`repro.core.parallel.SolveTask` (or
    dicts with the same fields).  With ``workers > 1`` the instance is
    exported once into shared memory and solves fan out over a process
    pool; results always come back in task order.  See
    :mod:`repro.core.parallel` for the mechanics.
    """
    from repro.core.parallel import solve_batch

    return solve_batch(instance, tasks, workers=workers)

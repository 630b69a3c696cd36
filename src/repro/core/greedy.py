"""The paper's main solver: lazy greedy (CELF) under a knapsack constraint.

Implements Algorithms 1 and 2 of the paper, which adapt the cost-effective
lazy-forward scheme of Leskovec et al. [30]:

* :func:`lazy_greedy` — Algorithm 2.  Runs one greedy pass in either the
  unit-cost (``UC``) or cost-benefit (``CB``) mode, using lazy marginal-gain
  re-evaluation backed by a priority queue.  Submodularity guarantees that a
  cached gain is an upper bound on the true gain, so a candidate whose
  refreshed gain stays at the top of the queue can be selected without
  recomputing anybody else.
* :func:`main_algorithm` — Algorithm 1.  Runs both modes and returns the
  better solution, which carries the ``(1 − 1/e)/2`` worst-case guarantee.
* :func:`naive_greedy` — the same greedy rule *without* lazy evaluation,
  kept for the lazy-speed-up ablation (the paper reports a ~700× factor
  from laziness in [30]).

Every function starts from the retention set ``S0`` and never exceeds the
budget ``B``.

Multi-fidelity archiving (keep / recompress / drop) runs through the same
two functions: handed a :class:`~repro.fidelity.catalog.VariantCatalog`,
the heap ranges over variant ids with at most one variant per photo (see
DESIGN.md §"Exclusive-choice CELF").  Plain PAR is the trivial catalog.

Crash safety: :func:`lazy_greedy` and :func:`main_algorithm` can emit
*checkpoints* — JSON-safe snapshots of their resumable state (selection
order, residual budget, the CELF heap of stale upper bounds, UC/CB phase
progress) — every ``checkpoint_every`` picks, and can be restarted from
such a snapshot via ``resume_from``.  A resumed run replays the recorded
insertion order through a fresh :class:`CoverageState` (bit-identical
float accumulation) and continues with the restored heap, so it provably
reaches the same selection as an uninterrupted run.  The wire encoding
(CRC32-protected records) lives in :mod:`repro.core.checkpoint`; this
module deals only in plain dicts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.instance import PARInstance
from repro.core.objective import CoverageState
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DeadlineExceeded,
    ValidationError,
)
from repro.faults import check as _fault_check
from repro.obs import probes as _obs_probes
from repro.resilience import deadline as _deadline

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.fidelity.catalog import VariantCatalog

__all__ = [
    "GreedyMode",
    "GreedyRun",
    "TraceEvent",
    "lazy_greedy",
    "naive_greedy",
    "main_algorithm",
]

CheckpointSink = Callable[[Dict[str, Any]], None]

_CKPT_FORMAT = 1


@dataclass(frozen=True)
class TraceEvent:
    """One observable step of the lazy greedy (the Figure 3 narrative).

    ``kind`` is ``"refresh"`` (a stale gain was recalculated and pushed
    back), ``"select"`` (the photo was added to the solution), or
    ``"drop"`` (the photo no longer fits the budget and left the queue).
    ``step`` counts solution additions so far, matching Figure 3's
    "Step k" panels (step 1 selects the first photo).
    """

    kind: str
    step: int
    photo_id: int
    gain: float

UC = "UC"
CB = "CB"
GreedyMode = str
_MODES = (UC, CB)


@dataclass
class GreedyRun:
    """Outcome of one greedy pass.

    Attributes
    ----------
    selection:
        Selected photo ids in pick order (retention set first).
    value:
        Objective value ``G(S)`` of the selection.
    cost:
        Total byte cost ``C(S)``.
    mode:
        ``"UC"``, ``"CB"``, or a label set by the caller.
    evaluations:
        Number of marginal-gain evaluations performed — the paper's measure
        of solver work (``O(B·n)`` for CELF vs ``Ω(B·n^4)`` for [45]).
    picks:
        ``(photo_id, realised_gain)`` per greedy pick (excludes ``S0``).
    trace:
        Step-by-step :class:`TraceEvent` log (populated when the run was
        invoked with ``trace=True``; empty otherwise).
    chosen:
        Multi-fidelity runs only: photo id → chosen variant id (global,
        into the catalog's flat arrays), retention set included.
    upgrades:
        Multi-fidelity runs only: applied upgrade swaps as ``(photo,
        from_variant, to_variant, realised_gain)``.
    """

    selection: List[int]
    value: float
    cost: float
    mode: str
    evaluations: int = 0
    picks: List[Tuple[int, float]] = field(default_factory=list)
    trace: List[TraceEvent] = field(default_factory=list)
    chosen: Dict[int, int] = field(default_factory=dict)
    upgrades: List[Tuple[int, int, int, float]] = field(default_factory=list)
    #: number of picks already present in the checkpoint this run resumed
    #: from (``None`` for an uninterrupted run) — resumed work is
    #: ``len(picks) - resumed_at`` picks.
    resumed_at: Optional[int] = None


def lazy_greedy(
    instance: PARInstance,
    mode: GreedyMode = CB,
    *,
    catalog: Optional[VariantCatalog] = None,
    upgrade: bool = True,
    state: Optional[CoverageState] = None,
    trace: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[CheckpointSink] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> GreedyRun:
    """Algorithm 2 (``LazyGreedy(type)``) with CELF lazy evaluation.

    The heap runs over *variant ids*.  Without a ``catalog`` every photo
    is its own single full-fidelity variant (``vid == p``), which is the
    paper's keep-or-drop problem.  With one, each photo offers a menu of
    mutually exclusive renditions and the same loop adds the three
    exclusive-choice rules of DESIGN.md §"Exclusive-choice CELF":
    optimistic sibling seeding, exclusivity at pop time, and upgrade
    moves at incremental cost.

    Parameters
    ----------
    instance:
        The PAR instance.
    mode:
        ``"UC"`` — each iteration picks the feasible photo with the largest
        marginal gain; ``"CB"`` — the largest gain-to-cost ratio.
    catalog:
        Optional :class:`~repro.fidelity.catalog.VariantCatalog`: keep,
        recompress or drop, at most one variant per photo.  Retained
        photos stay at their original rendition.
    upgrade:
        With a catalog, also weigh swapping a chosen variant for a
        higher-fidelity sibling; ``False`` skips every sibling of a
        chosen photo (insert-only exclusive choice).
    state:
        Optional pre-seeded coverage state.  When omitted, a fresh state
        initialised with ``S0`` is used.  When provided, its selection is
        treated as the starting solution (useful for warm restarts).
    trace:
        When true, record the Figure 3-style event log (every refresh,
        selection and budget-drop) in ``GreedyRun.trace``.
    checkpoint_every:
        Emit a checkpoint document to ``checkpoint_sink`` after every
        this-many selections (requires a sink; ``None`` disables).
    checkpoint_sink:
        Callable receiving each checkpoint document (a JSON-safe dict;
        see :mod:`repro.core.checkpoint` for durable encodings).
    resume_from:
        A checkpoint document previously emitted by this function (same
        ``mode``, instance and catalog).  The run restarts mid-solve and
        reaches exactly the selection an uninterrupted run would have.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown greedy mode {mode!r}; expected UC or CB")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be >= 1")
    if checkpoint_every is not None and checkpoint_sink is None:
        raise ConfigurationError("checkpoint_every needs a checkpoint_sink")
    if catalog is not None and catalog.n_photos != instance.n:
        raise ValidationError(
            f"variant catalog covers {catalog.n_photos} photos, "
            f"instance has {instance.n}"
        )

    # Observability: one armed-check per pass, everything else derived from
    # counters the run already keeps — the hot loop below carries no probes
    # beyond the standing fault check (see benchmarks/bench_obs_overhead).
    _obs = _obs_probes.active()
    _t0 = _perf_counter() if _obs is not None else 0.0

    # Variant arrays as Python lists, hoisted once per pass (list indexing
    # is far cheaper than numpy scalar indexing in the loop below).  The
    # trivial catalog needs no arrays beyond the photo costs.
    if catalog is None:
        cost_array = instance.costs
        indptr = fidelity = photo_of = None
    else:
        cost_array = catalog.cost
        indptr = catalog.indptr.tolist()
        fidelity = catalog.fidelity.tolist()
        photo_of = catalog.photo_of.tolist()
    vcost = cost_array.tolist()
    budget_cap = instance.budget * (1 + 1e-12)
    cost_benefit = mode == CB

    if resume_from is not None:
        if state is not None:
            raise ConfigurationError("resume_from and state are mutually exclusive")
        if trace:
            raise ConfigurationError("cannot resume a traced run (trace is partial)")
        state, run, heap, counter, spent, added = _restore_greedy(
            instance, mode, catalog, resume_from
        )
    else:
        if state is None:
            state = CoverageState(instance, instance.retained)
        run = GreedyRun(
            selection=list(state.selected),
            value=state.value,
            cost=0.0,
            mode=mode,
            evaluations=0,
        )
        # ``added`` replays a multi-fidelity state in checkpoints: the
        # variant id of every insertion, upgrades included.  The retained
        # cost is summed in selection order, so a trivial catalog matches
        # the plain pass bit for bit.
        if catalog is None:
            added = None
            held = run.selection
        else:
            run.chosen = {p: indptr[p] for p in state.order}
            added = list(run.chosen.values())
            held = [run.chosen[p] for p in run.selection]
        spent = float(cost_array[held].sum()) if held else 0.0
        run.cost = spent
        # Priority queue of (-key, tiebreak, variant_id, stamp).  ``stamp``
        # is the insertion count at which the cached gain was computed; an
        # entry is "current" (the paper's curr_p flag) iff its stamp equals
        # the present count.  Siblings are seeded with the optimistic bound
        # φ·gain₁(p) at stamp −1, so they are never accepted un-refreshed.
        counter = 0
        heap: List[Tuple[float, int, int, int]] = []
        stamp = len(state._order)
        # Costs strictly decrease within a photo, so the last variant is
        # the cheapest: a photo whose cheapest variant cannot fit, or one
        # already selected, is never evaluated.  One mask finds the rest.
        cheapest = cost_array if catalog is None else cost_array[catalog.indptr[1:] - 1]
        candidates = spent + cheapest <= budget_cap
        if state._selected:
            candidates[list(state._selected)] = False
        for p in np.flatnonzero(candidates).tolist():
            first = p if indptr is None else indptr[p]
            last = p if indptr is None else indptr[p + 1] - 1
            g1 = state.gain(p)
            run.evaluations += 1
            if spent + vcost[first] <= budget_cap:
                key = g1 / vcost[first] if cost_benefit else g1
                heapq.heappush(heap, (-key, counter, first, stamp))
                counter += 1
            for vid in range(first + 1, last + 1):  # siblings, if any
                if spent + vcost[vid] <= budget_cap:
                    gain = fidelity[vid] * g1
                    key = gain / vcost[vid] if cost_benefit else gain
                    heapq.heappush(heap, (-key, counter, vid, -1))
                    counter += 1

    if _obs is not None:
        # Work already credited to a previous (checkpointed) attempt, and
        # the seeding evaluations of a fresh pass.
        _evals_prior = run.evaluations if resume_from is not None else 0
        _picks_prior = len(run.picks)
        _seeded = 0 if resume_from is not None else run.evaluations
        _obs.solver_heap_size.labels(mode=mode).set(len(heap))

    # Hot-loop locals: the selection set is read directly (no frozenset
    # copies) and the insertion count tracked inline — state.add is the
    # only writer.
    selected = state._selected
    chosen = run.chosen
    size = len(state._order)
    # Deadline: fetched once per pass; per-iteration cost without one is a
    # single ``is not None`` test (the faults probe pattern).  With one
    # armed, the clock is read on the first iteration and every 16th after
    # (a drain interrupt on this deadline is seen immediately).
    _dl = _deadline.current()
    _dl_tick = 0
    while heap:
        _fault_check("solver.iteration")
        if _dl is not None:
            if (_dl_tick & 15) == 0 or _dl._interrupt is not None:
                if _dl.expired():
                    raise _dl.to_exception(
                        _greedy_checkpoint_doc(
                            run, state, heap, counter, spent, catalog, added
                        )
                    )
            _dl_tick += 1
        neg_key, _, vid, gain_stamp = heapq.heappop(heap)
        if photo_of is None:
            if vid in selected:
                continue
            p, cur, extra, phi = vid, None, vcost[vid], 1.0
        else:
            p = photo_of[vid]
            cur = chosen.get(p)
            if cur is None:
                extra = vcost[vid]
            else:
                # Exclusivity: a sibling of a chosen photo is either an
                # upgrade move (strictly higher fidelity, priced at its
                # incremental cost) or dominated and skipped.
                if not upgrade or vid >= cur:
                    continue
                _fault_check("fidelity.swap")
                extra = vcost[vid] - vcost[cur]
            phi = fidelity[vid]
        if spent + extra > budget_cap:
            # Cannot afford this move now; spent (less the chosen variant's
            # cost) only grows, so it never becomes affordable — drop it.
            if trace:
                run.trace.append(
                    TraceEvent("drop", len(run.picks) + 1, p, -neg_key)
                )
            continue
        if gain_stamp == size:
            realized = state.add(p, phi)
            size += 1
            if cur is None:
                run.selection.append(p)
                run.picks.append((p, realized))
            else:
                run.upgrades.append((p, cur, vid, realized))
            if added is not None:
                chosen[p] = vid
                added.append(vid)
            spent += extra
            run.value = state.value
            run.cost = spent
            if trace:
                run.trace.append(TraceEvent("select", len(run.picks), p, realized))
            if checkpoint_every and len(run.picks) % checkpoint_every == 0:
                checkpoint_sink(
                    _greedy_checkpoint_doc(
                        run, state, heap, counter, spent, catalog, added
                    )
                )
        else:
            gain = state.gain(p, phi)
            run.evaluations += 1
            key = gain / extra if cost_benefit else gain
            heapq.heappush(heap, (-key, counter, vid, size))
            counter += 1
            if trace:
                run.trace.append(
                    TraceEvent("refresh", len(run.picks) + 1, p, gain)
                )

    if _obs is not None:
        _record_run_metrics(
            _obs, run, state, mode, catalog,
            elapsed=_perf_counter() - _t0,
            evals_prior=_evals_prior,
            picks_prior=_picks_prior,
            seeded=_seeded,
        )
    return run


def _record_run_metrics(
    obs, run: GreedyRun, state: CoverageState, mode: str, catalog, *,
    elapsed: float, evals_prior: int, picks_prior: int, seeded: int,
) -> None:
    """Flush one finished pass into the armed instruments.

    Evaluations this pass split into initial heap seeding (one per photo,
    ``seeded``) and CELF lazy *refreshes* — stale heap entries
    recomputed and pushed back.  The re-evaluation ratio is refreshes
    over productive heap pops (refreshes + selections): 0.0 means every
    pop was selected on its cached bound (ideal laziness), values near
    1.0 mean the cached bounds rarely survive a pick.  Multi-fidelity
    passes also feed the ``phocus_fidelity_*`` families, timed over the
    whole pass like ``phocus_solver_seconds``.
    """
    picks_done = len(run.picks) - picks_prior
    evals_done = run.evaluations - evals_prior
    refreshes = max(0, evals_done - seeded)
    pops = refreshes + picks_done
    obs.solver_runs.labels(mode=mode, backend=state.served_by).inc()
    if evals_done:
        obs.solver_evaluations.labels(mode=mode).inc(evals_done)
    if picks_done:
        obs.solver_picks.labels(mode=mode).inc(picks_done)
    if refreshes:
        obs.solver_refreshes.labels(mode=mode).inc(refreshes)
    obs.solver_reeval_ratio.labels(mode=mode).set(refreshes / pops if pops else 0.0)
    obs.solver_picks_per_second.labels(mode=mode).set(
        picks_done / elapsed if elapsed > 0 else 0.0
    )
    obs.solver_seconds.labels(mode=mode).observe(elapsed)
    if catalog is not None:
        obs.fidelity_solves.labels(mode=mode).inc()
        obs.fidelity_solve_seconds.labels(mode=mode).observe(elapsed)
        for vid in run.chosen.values():
            obs.fidelity_variants_selected.labels(tier=catalog.tier[vid]).inc()
        if run.upgrades:
            obs.fidelity_upgrade_swaps.inc(len(run.upgrades))


def _greedy_checkpoint_doc(
    run: GreedyRun,
    state: CoverageState,
    heap: List[Tuple[float, int, int, int]],
    counter: int,
    spent: float,
    catalog,
    added: Optional[List[int]],
) -> Dict[str, Any]:
    """Snapshot everything :func:`lazy_greedy` needs to continue (JSON-safe).

    A multi-fidelity snapshot lists *variant* ids under ``added`` and
    carries ``variants`` (the catalog size) and ``upgrades``; a plain one
    lists photo ids and has neither key, so the two never cross-resume.
    """
    doc = {
        "format": _CKPT_FORMAT,
        "kind": "lazy_greedy",
        "mode": run.mode,
        "n": state.instance.n,
        "added": [int(p) for p in (state.order if added is None else added)],
        "selection": [int(p) for p in run.selection],
        "picks": [[int(p), float(g)] for p, g in run.picks],
        "evaluations": int(run.evaluations),
        "spent": float(spent),
        "value": float(state.value),
        "heap": [[float(k), int(c), int(p), int(s)] for k, c, p, s in heap],
        "counter": int(counter),
        "progress": {"mode": run.mode, "picks": len(run.picks)},
    }
    if catalog is not None:
        doc["variants"] = catalog.n_variants
        doc["upgrades"] = _upgrades_doc(run.upgrades)
    return doc


def _upgrades_doc(upgrades) -> List[list]:
    return [[int(p), int(a), int(b), float(g)] for p, a, b, g in upgrades]


def _upgrades_from_doc(doc) -> List[Tuple[int, int, int, float]]:
    return [(int(p), int(a), int(b), float(g)) for p, a, b, g in doc]


def _restore_greedy(
    instance: PARInstance, mode: GreedyMode, catalog, doc: Dict[str, Any]
):
    """Rebuild the loop state of :func:`lazy_greedy` from a checkpoint doc.

    The coverage state is reconstructed by replaying the recorded add
    order, which reproduces the incremental float accumulation exactly;
    a value mismatch therefore means the checkpoint belongs to a
    different instance (or was tampered with) and raises
    :class:`~repro.errors.CheckpointError`.
    """
    try:
        if doc.get("kind") != "lazy_greedy" or doc.get("format") != _CKPT_FORMAT:
            raise CheckpointError(
                f"not a lazy_greedy checkpoint: kind={doc.get('kind')!r} "
                f"format={doc.get('format')!r}"
            )
        if doc["mode"] != mode:
            raise CheckpointError(
                f"checkpoint is for mode {doc['mode']!r}, not {mode!r}"
            )
        if int(doc["n"]) != instance.n:
            raise CheckpointError(
                f"checkpoint is for an instance of {doc['n']} photos, "
                f"not {instance.n}"
            )
        variants = doc.get("variants")
        if (variants is None) != (catalog is None):
            kind = ("multi-fidelity", "plain")
            raise CheckpointError(
                f"checkpoint is for a {kind[variants is None]} solve, "
                f"not a {kind[catalog is None]} one"
            )
        added = [int(v) for v in doc["added"]]
        chosen: Dict[int, int] = {}
        if catalog is None:
            state = CoverageState(instance, added)
            added = None
        else:
            if int(variants) != catalog.n_variants:
                raise CheckpointError(
                    f"checkpoint is for a catalog of {variants} variants, "
                    f"not {catalog.n_variants}"
                )
            state = CoverageState(instance)
            for vid in added:
                p = int(catalog.photo_of[vid])
                state.add(p, float(catalog.fidelity[vid]))
                chosen[p] = vid
        if not math.isclose(state.value, float(doc["value"]), rel_tol=1e-9, abs_tol=1e-12):
            raise CheckpointError(
                f"replayed objective {state.value!r} does not match "
                f"checkpointed {doc['value']!r}; wrong instance?"
            )
        run = GreedyRun(
            selection=[int(p) for p in doc["selection"]],
            value=state.value,
            cost=float(doc["spent"]),
            mode=mode,
            evaluations=int(doc["evaluations"]),
            picks=[(int(p), float(g)) for p, g in doc["picks"]],
            chosen=chosen,
            upgrades=_upgrades_from_doc(doc.get("upgrades", ())),
            resumed_at=len(doc["picks"]),
        )
        heap = [(float(k), int(c), int(p), int(s)) for k, c, p, s in doc["heap"]]
        counter = int(doc["counter"])
        spent = float(doc["spent"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc!r}") from exc
    return state, run, heap, counter, spent, added


def naive_greedy(
    instance: PARInstance,
    mode: GreedyMode = CB,
) -> GreedyRun:
    """The greedy rule of Algorithm 2 without lazy evaluation.

    Re-evaluates every remaining candidate's marginal gain in every
    iteration.  Produces exactly the same selection as :func:`lazy_greedy`
    (up to ties) but performs far more gain evaluations; used by the
    laziness ablation bench.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown greedy mode {mode!r}; expected UC or CB")

    state = CoverageState(instance, instance.retained)
    costs = instance.costs
    spent = instance.cost_of(state.selected)
    budget = instance.budget
    run = GreedyRun(
        selection=list(state.selected),
        value=state.value,
        cost=spent,
        mode=mode,
        evaluations=0,
    )
    remaining = [p for p in range(instance.n) if p not in state.selected]

    while True:
        # Spent only ever grows, so a candidate that cannot fit the residual
        # budget now never fits later: drop it permanently instead of
        # re-checking (and re-considering) it every iteration.
        remaining = [p for p in remaining if spent + costs[p] <= budget * (1 + 1e-12)]
        best_p = -1
        best_key = -1.0
        best_gain = 0.0
        for p in remaining:
            gain = state.gain(p)
            run.evaluations += 1
            key = gain / costs[p] if mode == CB else gain
            if key > best_key:
                best_key = key
                best_p = p
                best_gain = gain
        if best_p < 0:
            break
        state.add(best_p)
        remaining.remove(best_p)
        run.selection.append(best_p)
        run.picks.append((best_p, best_gain))
        spent += float(costs[best_p])
        run.value = state.value
        run.cost = spent

    return run


def main_algorithm(
    instance: PARInstance,
    *,
    lazy: bool = True,
    catalog: Optional[VariantCatalog] = None,
    upgrade: bool = True,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[CheckpointSink] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> GreedyRun:
    """Algorithm 1: run UC and CB greedy passes and keep the better result.

    The returned run's ``mode`` names the winning sub-algorithm, and its
    ``evaluations`` counter is the sum over both passes.  Taking the best of
    the two passes yields the ``(1 − 1/e)/2`` worst-case guarantee of [30]
    (and the exact ``1 − 1/e`` of [37] when all costs are equal, since the
    UC pass then *is* the classical greedy).  ``catalog`` and ``upgrade``
    are handed to both :func:`lazy_greedy` passes: the exclusive ground
    set (one element per variant) keeps the objective monotone
    submodular, so the multi-fidelity solve carries the same bound.

    Checkpointing wraps both passes: each emitted document records which
    phase (UC or CB) is in flight, the finished UC summary once the CB
    pass starts, and the inner :func:`lazy_greedy` snapshot, so a resume
    lands mid-pass and still finishes both passes deterministically.
    """
    lazy_only = (catalog, checkpoint_every, checkpoint_sink, resume_from)
    if not lazy and any(arg is not None for arg in lazy_only):
        raise ConfigurationError(
            "checkpointing requires the lazy solver (as do variant catalogs)"
        )

    uc_inner = cb_inner = None
    uc_summary: Optional[Dict[str, Any]] = None
    resumed_total: Optional[int] = None
    if resume_from is not None:
        try:
            if (
                resume_from.get("kind") != "main_algorithm"
                or resume_from.get("format") != _CKPT_FORMAT
            ):
                raise CheckpointError(
                    f"not a main_algorithm checkpoint: "
                    f"kind={resume_from.get('kind')!r}"
                )
            phase = resume_from["phase"]
            if phase == UC:
                uc_inner = resume_from["inner"]
            elif phase == CB:
                uc_summary = resume_from["uc"]
                cb_inner = resume_from["inner"]
            else:
                raise CheckpointError(f"unknown checkpoint phase {phase!r}")
            resumed_total = len(resume_from["inner"]["picks"]) + (
                len(uc_summary["picks"]) if uc_summary is not None else 0
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint document: {exc!r}") from exc

    def run_pass(phase: str, uc_doc, inner) -> GreedyRun:
        def sink(inner_doc: Dict[str, Any]) -> None:
            checkpoint_sink(_phase_doc(phase, uc_doc, inner_doc))

        try:
            if not lazy:
                return naive_greedy(instance, phase)
            return lazy_greedy(
                instance,
                phase,
                catalog=catalog,
                upgrade=upgrade,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=sink if checkpoint_sink is not None else None,
                resume_from=inner,
            )
        except DeadlineExceeded as exc:
            raise _rewrap_deadline(exc, phase, uc_doc)

    if uc_summary is None:
        res_uc = run_pass(UC, None, uc_inner)
        uc_summary = _summarize_run(res_uc)
    else:
        res_uc = _run_from_summary(uc_summary)
    res_cb = run_pass(CB, uc_summary, cb_inner)
    winner = res_cb if res_cb.value >= res_uc.value else res_uc
    winner.evaluations = res_uc.evaluations + res_cb.evaluations
    winner.resumed_at = resumed_total
    return winner


def _phase_doc(
    phase: str, uc_doc: Optional[Dict[str, Any]], inner: Dict[str, Any]
) -> Dict[str, Any]:
    """Wrap an inner :func:`lazy_greedy` snapshot as a two-phase checkpoint."""
    done_before = len(uc_doc["picks"]) if uc_doc is not None else 0
    return {
        "format": _CKPT_FORMAT,
        "kind": "main_algorithm",
        "phase": phase,
        "uc": uc_doc,
        "inner": inner,
        "progress": {
            "phase": phase,
            "picks": done_before + inner["progress"]["picks"],
        },
    }


def _rewrap_deadline(
    exc: DeadlineExceeded, phase: str, uc_doc: Optional[Dict[str, Any]]
) -> DeadlineExceeded:
    """Lift an inner-pass deadline checkpoint to the two-phase wrapper.

    :func:`lazy_greedy` raises with its own ``lazy_greedy`` checkpoint
    document; re-keying it as a ``main_algorithm`` doc (phase + finished
    UC summary) means the standard resume path continues the interrupted
    two-phase solve and still finishes both passes deterministically.
    """
    inner = exc.checkpoint
    if isinstance(inner, dict) and inner.get("kind") == "lazy_greedy":
        exc.checkpoint = _phase_doc(phase, uc_doc, inner)
    return exc


def _summarize_run(run: GreedyRun) -> Dict[str, Any]:
    """JSON-safe summary of a finished pass, embedded in phase checkpoints."""
    doc = {
        "mode": run.mode,
        "selection": [int(p) for p in run.selection],
        "picks": [[int(p), float(g)] for p, g in run.picks],
        "value": float(run.value),
        "cost": float(run.cost),
        "evaluations": int(run.evaluations),
    }
    if run.chosen:
        doc["chosen"] = [[int(p), int(v)] for p, v in run.chosen.items()]
        doc["upgrades"] = _upgrades_doc(run.upgrades)
    return doc


def _run_from_summary(doc: Dict[str, Any]) -> GreedyRun:
    try:
        return GreedyRun(
            selection=[int(p) for p in doc["selection"]],
            value=float(doc["value"]),
            cost=float(doc["cost"]),
            mode=doc["mode"],
            evaluations=int(doc["evaluations"]),
            picks=[(int(p), float(g)) for p, g in doc["picks"]],
            chosen={int(p): int(v) for p, v in doc.get("chosen", ())},
            upgrades=_upgrades_from_doc(doc.get("upgrades", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed pass summary in checkpoint: {exc!r}") from exc

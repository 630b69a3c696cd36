"""Multi-fidelity solves: best-of-UC/CB over a variant catalog.

Multi-fidelity PAR is a submodular knapsack with *item multiplicity*:
every photo contributes a menu of mutually exclusive variants (see
:class:`repro.fidelity.catalog.VariantCatalog`) and keeping photo ``p``
at fidelity ``φ`` covers each slot its original would cover at ``φ ·``
the original similarity.  The objective over exclusive choices
``A = {(p, φ_p)}`` is

    G(A) = Σ_q W(q) · Σ_j R(q, j) · max_{(p, φ) ∈ A, p ∈ q} φ·SIM(q, p, j)

which is monotone submodular in the set of chosen variants, so the
paper's CELF driver solves it directly: :func:`repro.core.greedy.lazy_greedy`
runs over variant ids and adds optimistic sibling seeding, pop-time
exclusivity and upgrade moves when handed a catalog (DESIGN.md
§"Exclusive-choice CELF").  This module keeps the multi-fidelity entry
point, :func:`fidelity_main`, and :func:`fidelity_score`, the value of an
explicit assignment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.greedy import GreedyRun, main_algorithm
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState
from repro.errors import ValidationError
from repro.fidelity.catalog import VariantCatalog

__all__ = [
    "fidelity_main",
    "fidelity_score",
]


def fidelity_main(
    instance: PARInstance,
    catalog: VariantCatalog,
    *,
    upgrade: bool = True,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> GreedyRun:
    """Best of the UC and CB exclusive passes (Algorithm 1, lifted).

    :func:`repro.core.greedy.main_algorithm` over ``catalog``: the
    winning run's ``chosen`` maps photo id → variant id and ``upgrades``
    lists the applied swaps.  Checkpoint, resume and deadline progress
    are the plain solve's, unchanged.
    """
    return main_algorithm(
        instance,
        catalog=catalog,
        upgrade=upgrade,
        checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )


def fidelity_score(
    instance: PARInstance,
    catalog: VariantCatalog,
    chosen: Dict[int, int],
) -> float:
    """``G(A)`` of an exclusive assignment.

    ``chosen`` maps photo id → variant id.  Each photo is added to one
    :class:`~repro.core.objective.CoverageState` at its variant's fidelity,
    in photo order, and the value is :meth:`CoverageState.score
    <repro.core.objective.CoverageState.score>`; used by the ``/score``
    fidelity path and to re-score sparsified fidelity solves.
    """
    state = CoverageState(instance)
    for p in sorted(chosen):
        vid = chosen[p]
        if not catalog.indptr[p] <= vid < catalog.indptr[p + 1]:
            raise ValidationError(f"variant {vid} does not belong to photo {p}")
        state.add(p, float(catalog.fidelity[vid]))
    return state.score()

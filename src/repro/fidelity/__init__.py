"""Multi-fidelity PAR: recompression as a first-class third action.

ROADMAP item 3.  Instead of the binary *keep or drop*, every photo
offers a menu of (cost, fidelity) variants — the original, recompressed
tiers, delta-vs-similar renditions — and the exclusive-choice CELF
solver picks at most one variant per photo under the byte budget.

* :mod:`repro.fidelity.catalog` — :class:`VariantCatalog`, the flat
  CSR-shaped per-photo variant menus;
* :mod:`repro.fidelity.solver` — :func:`fidelity_main`, the paper's
  CELF driver run over a variant catalog, and :func:`fidelity_score`,
  the value of an explicit assignment;
* :mod:`repro.fidelity.frontier` — budget-vs-quality sweeps against
  discard-only PHOcus (:func:`budget_frontier`);
* :mod:`repro.fidelity.policy` — the service-facing ``fidelity`` policy
  for ``/solve``, ``/score``, and ``/jobs``.

See docs/multi_fidelity.md for the model and guarantees.
"""

from repro.fidelity.catalog import DEFAULT_TIERS, VariantCatalog
from repro.fidelity.frontier import budget_frontier
from repro.fidelity.policy import (
    execute_fidelity_payload,
    resolve_catalog,
    score_fidelity_payload,
)
from repro.fidelity.solver import fidelity_main, fidelity_score

__all__ = [
    "DEFAULT_TIERS",
    "VariantCatalog",
    "fidelity_main",
    "fidelity_score",
    "budget_frontier",
    "resolve_catalog",
    "execute_fidelity_payload",
    "score_fidelity_payload",
]

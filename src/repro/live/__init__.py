"""Online incremental curation: the archive that never stops changing.

``repro.live`` keeps a stored archive curated as photos arrive and
budgets change.  Three layers:

* :mod:`repro.live.archive` — :class:`LiveArchive`: a stored sparse
  instance plus just enough SimHash state to bucket *new* photos against
  it; ``ingest`` grows the CSR via
  :meth:`~repro.core.instance.SparseSimilarity.append_rows` and is
  bit-identical to a from-scratch fused build.
* :mod:`repro.live.resolve` — :func:`warm_resolve`: the checkpoint
  restart vector generalised to a changed instance, with a certified
  ``regret_bound`` from the online bound; when the budget shrank, the
  reverse greedy of :func:`~repro.live.resolve.shrink_to_budget` first
  evicts back inside it.
* :mod:`repro.live.manager` / :mod:`repro.live.scheduler` —
  :class:`LiveManager` keeps resident archives over the tenant store
  (one atomic versioned write per delta);
  :class:`RecurationScheduler` coalesces upload bursts and escalates to
  full re-solves, riding :mod:`repro.jobs` when available.

See ``docs/live_curation.md`` for the API, knobs, and regret semantics.
"""

from repro.live.archive import IngestReport, LiveArchive
from repro.live.manager import LiveManager, LiveStatus
from repro.live.resolve import (
    LiveSolveResult,
    cold_resolve,
    replay_solution,
    warm_resolve,
)
from repro.live.scheduler import RecurationScheduler

__all__ = [
    "IngestReport",
    "LiveArchive",
    "LiveManager",
    "LiveStatus",
    "LiveSolveResult",
    "RecurationScheduler",
    "cold_resolve",
    "replay_solution",
    "warm_resolve",
]

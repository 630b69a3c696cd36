"""Core PAR model and solvers (the paper's primary contribution).

Public surface:

* model — :class:`~repro.core.instance.PARInstance`,
  :class:`~repro.core.instance.Photo`,
  :class:`~repro.core.instance.PredefinedSubset`,
  :class:`~repro.core.instance.SubsetSpec`, similarity backends;
* objective — :func:`~repro.core.objective.score`,
  :class:`~repro.core.objective.CoverageState`;
* solvers — :func:`~repro.core.solver.solve` (facade),
  :func:`~repro.core.greedy.main_algorithm` (Algorithm 1),
  :func:`~repro.core.greedy.lazy_greedy` (Algorithm 2),
  :func:`~repro.core.sviridenko.sviridenko`,
  :func:`~repro.core.bruteforce.branch_and_bound`, the Section 5.2
  baselines in :mod:`repro.core.baselines`;
* certificates — :func:`~repro.core.bounds.certify`,
  :func:`~repro.core.bounds.online_bound`,
  :func:`~repro.core.bounds.sparsification_bound`.
"""

from repro.core.baselines import (
    greedy_no_redundancy,
    greedy_non_contextual,
    rand_add,
    rand_delete,
)
from repro.core.bounds import (
    certify,
    online_bound,
    performance_certificate,
    sparsification_bound,
)
from repro.core.bruteforce import branch_and_bound, exhaustive
from repro.core.budgeted_coverage import (
    CoverageProblem,
    CoverageSolution,
    greedy_budgeted_coverage,
)
from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm, naive_greedy
from repro.core.hardness import MaxCoverageInstance, mc_to_par
from repro.core.instance import (
    DenseSimilarity,
    IncidenceCSR,
    PARInstance,
    Photo,
    PredefinedSubset,
    SparseSimilarity,
    SubsetSpec,
    build_incidence,
    normalize_relevance,
)
from repro.core.checkpoint import (
    FileCheckpointSink,
    MemoryCheckpointSink,
    decode_record,
    encode_record,
    resume_from_checkpoint,
)
from repro.core.objective import CoverageState, max_score, score, score_breakdown
from repro.core.parallel import SharedInstance, SolveTask, default_workers
from repro.core.solver import (
    Solution,
    available_algorithms,
    checkpointable_algorithms,
    solve,
    solve_many,
)
from repro.core.sviridenko import sviridenko

__all__ = [
    "PARInstance",
    "Photo",
    "PredefinedSubset",
    "SubsetSpec",
    "DenseSimilarity",
    "SparseSimilarity",
    "IncidenceCSR",
    "build_incidence",
    "normalize_relevance",
    "CoverageState",
    "score",
    "score_breakdown",
    "max_score",
    "solve",
    "solve_many",
    "SolveTask",
    "SharedInstance",
    "default_workers",
    "Solution",
    "available_algorithms",
    "checkpointable_algorithms",
    "FileCheckpointSink",
    "MemoryCheckpointSink",
    "encode_record",
    "decode_record",
    "resume_from_checkpoint",
    "main_algorithm",
    "lazy_greedy",
    "naive_greedy",
    "UC",
    "CB",
    "sviridenko",
    "branch_and_bound",
    "exhaustive",
    "rand_add",
    "rand_delete",
    "greedy_no_redundancy",
    "greedy_non_contextual",
    "certify",
    "online_bound",
    "performance_certificate",
    "sparsification_bound",
    "CoverageProblem",
    "CoverageSolution",
    "greedy_budgeted_coverage",
    "MaxCoverageInstance",
    "mc_to_par",
]

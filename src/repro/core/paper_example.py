"""The paper's running example (Figure 1 / Example 4.7).

Seven photos, four pre-defined subsets ("Bikes", "Cats", "Bookshelf",
"Books"), the exact weights, sizes, relevance and similarity values printed
in Figure 1.  The step-by-step trace of Algorithm 2 in Figure 3 is
reproducible from this instance: the initial marginal gains are
``δ_{p1} = 7.83``, ``δ_{p6} = 4.61``, ``δ_{p5} = 0.82`` … and the UC pass
selects ``p1``, then ``p6``, then ``p2``.

Photo ids here are zero-based (``p1`` of the paper is photo id 0).  Sizes
are stored in bytes (1 Mb in the figure = 1,000,000 bytes).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    PredefinedSubset,
)

__all__ = ["figure1_instance", "MB"]

MB = 1_000_000.0


def _sim_matrix(size: int, pairs: Dict[tuple, float]) -> np.ndarray:
    matrix = np.eye(size)
    for (i, j), s in pairs.items():
        matrix[i, j] = matrix[j, i] = s
    return matrix


def figure1_instance(budget_mb: float = 4.0) -> PARInstance:
    """Build the Figure 1 instance with a configurable budget (default 4 Mb).

    The default budget admits roughly the first three Algorithm 2 picks
    shown in Figure 3 (p1: 1.2 Mb, p6: 1.1 Mb, p2: 0.7 Mb).
    """
    sizes_mb = [1.2, 0.7, 2.1, 0.9, 0.8, 1.1, 1.3]

    q1 = PredefinedSubset(
        subset_id="Bikes",
        weight=9.0,
        members=[0, 1, 2],
        relevance=[0.5, 0.3, 0.2],
        similarity=DenseSimilarity(
            _sim_matrix(3, {(0, 1): 0.7, (0, 2): 0.8, (1, 2): 0.5})
        ),
    )
    q2 = PredefinedSubset(
        subset_id="Cats",
        weight=1.0,
        members=[3, 4, 5],
        relevance=[0.3, 0.4, 0.3],
        similarity=DenseSimilarity(
            _sim_matrix(3, {(0, 1): 0.7, (0, 2): 0.4, (1, 2): 0.7})
        ),
    )
    q3 = PredefinedSubset(
        subset_id="Bookshelf",
        weight=3.0,
        members=[5],
        relevance=[1.0],
        similarity=DenseSimilarity(np.ones((1, 1))),
    )
    q4 = PredefinedSubset(
        subset_id="Books",
        weight=1.0,
        members=[5, 6],
        relevance=[0.7, 0.3],
        similarity=DenseSimilarity(_sim_matrix(2, {(0, 1): 0.7})),
    )

    return PARInstance(
        [mb * MB for mb in sizes_mb],
        [q1, q2, q3, q4],
        budget=budget_mb * MB,
        labels=[f"p{i + 1}" for i in range(len(sizes_mb))],
    )

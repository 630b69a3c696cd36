"""The dense similarity's CSR and stored matrix as they were first written.

:meth:`repro.core.instance.DenseSimilarity.csr` finds the entries with one
``np.flatnonzero`` over a mask of the matrix and one ``np.searchsorted``
for the row starts; :func:`dense_csr` is the 2-D ``np.nonzero`` plus
fancy indexing it replaced.  The constructor skips the tolerance check
and the averaging for a matrix equal to its transpose bit for bit;
:func:`stored_matrix` always averages.  ``tests/core/test_instance.py``
proves each pair agrees byte for byte.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def dense_csr(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, cols, vals)`` of the nonzero entries of ``matrix``."""
    rows, cols = np.nonzero(matrix)
    counts = np.bincount(rows, minlength=len(matrix))
    indptr = np.zeros(len(matrix) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols.astype(np.int64, copy=False), matrix[rows, cols]


def stored_matrix(matrix: np.ndarray) -> np.ndarray:
    """What ``DenseSimilarity(matrix)`` keeps for a valid ``matrix``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    stored = np.clip((matrix + matrix.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(stored, 1.0)
    return stored

"""Cross-backend regression tests: every algorithm × sparse similarity.

The sparse similarity backend is the production path (PHOcus always
sparsifies at scale), so each solver must behave identically on
sparse and dense representations of the same thresholded instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import online_bound
from repro.core.bruteforce import branch_and_bound
from repro.core.greedy import CB, UC, lazy_greedy, naive_greedy
from repro.core.objective import score
from repro.live import warm_resolve
from repro.sparsify.threshold import threshold_sparsify

from tests.conftest import random_instance
from tests.oracles.compression import expand_with_compression


def _dense_thresholded(inst, tau):
    """Dense instance with the same τ-thresholded values as the sparse one."""
    from repro.core.instance import DenseSimilarity

    new_subsets = []
    for q in inst.subsets:
        m = len(q)
        matrix = np.zeros((m, m))
        for i in range(m):
            matrix[i] = q.similarity.row(i)
        matrix[matrix < tau] = 0.0
        np.fill_diagonal(matrix, 1.0)
        new_subsets.append(q.with_similarity(DenseSimilarity(matrix, validate=False)))
    return inst.with_subsets(new_subsets)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", [UC, CB])
def test_lazy_equals_naive_on_sparse(seed, mode):
    inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
    sparse, _ = threshold_sparsify(inst, 0.4)
    assert lazy_greedy(sparse, mode).value == pytest.approx(
        naive_greedy(sparse, mode).value
    )


@pytest.mark.parametrize("seed", range(4))
def test_sparse_and_dense_thresholded_scores_agree(seed):
    inst = random_instance(seed=seed, n_photos=12, n_subsets=4)
    tau = 0.45
    sparse, _ = threshold_sparsify(inst, tau)
    dense = _dense_thresholded(inst, tau)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        size = int(rng.integers(0, inst.n + 1))
        sel = sorted(int(p) for p in rng.choice(inst.n, size=size, replace=False))
        assert score(sparse, sel) == pytest.approx(score(dense, sel))


@pytest.mark.parametrize("seed", range(3))
def test_exact_solver_agrees_across_backends(seed):
    inst = random_instance(seed=seed, n_photos=10, n_subsets=4)
    sparse, _ = threshold_sparsify(inst, 0.5)
    dense = _dense_thresholded(inst, 0.5)
    assert branch_and_bound(sparse).value == pytest.approx(
        branch_and_bound(dense).value
    )


def test_online_bound_dominates_optimum_on_sparse():
    for seed in range(4):
        inst = random_instance(seed=seed, n_photos=10, n_subsets=4)
        sparse, _ = threshold_sparsify(inst, 0.5)
        opt = branch_and_bound(sparse).value
        assert online_bound(sparse, []) >= opt - 1e-9


def test_compression_over_sparse_backend():
    inst = random_instance(seed=2, n_photos=10, n_subsets=3)
    sparse, _ = threshold_sparsify(inst, 0.3)
    expanded, _ = expand_with_compression(sparse, [(0.8, 0.4)])
    for sel in ([0], [0, 3, 5], list(range(10))):
        assert score(expanded, sel) == pytest.approx(score(sparse, sel))


def test_maintenance_over_sparse_backend():
    inst = random_instance(seed=3, n_photos=14, n_subsets=4)
    sparse, _ = threshold_sparsify(inst, 0.4)
    result = warm_resolve(sparse, list(range(0, 14, 2)))
    assert sparse.feasible(result.selection)
    assert result.value == pytest.approx(score(sparse, result.selection))


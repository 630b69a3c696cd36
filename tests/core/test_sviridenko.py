"""Tests for the optimal-guarantee Sviridenko algorithm [45]."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import branch_and_bound
from repro.core.sviridenko import sviridenko

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score

_ONE_MINUS_1_OVER_E = 1.0 - 1.0 / np.e


class TestSviridenko:
    def test_figure1_reaches_optimum(self, figure1):
        assert sviridenko(figure1).value == pytest.approx(13.46)

    @pytest.mark.parametrize("seed", range(6))
    def test_achieves_approximation_guarantee(self, seed):
        inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
        opt = branch_and_bound(inst).value
        got = sviridenko(inst).value
        assert got >= _ONE_MINUS_1_OVER_E * opt - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_usually_optimal_on_small_instances(self, seed):
        """Partial enumeration is exact far more often than its bound; on
        these tiny instances it should actually reach the optimum."""
        inst = random_instance(seed=seed, n_photos=9, n_subsets=3)
        assert sviridenko(inst).value == pytest.approx(branch_and_bound(inst).value)

    def test_respects_budget_and_retained(self):
        inst = random_instance(seed=7, n_photos=10, retained=2)
        result = sviridenko(inst)
        assert inst.feasible(result.selection)

    def test_guard_on_large_instances(self):
        inst = random_instance(seed=0, n_photos=70)
        with pytest.raises(ValueError):
            sviridenko(inst, max_photos=60)

    def test_value_matches_selection(self, small_instance):
        result = sviridenko(small_instance)
        assert result.value == pytest.approx(
            reference_score(small_instance, result.selection)
        )

    def test_counts_seeds(self, figure1):
        result = sviridenko(figure1)
        assert result.seeds_tried > 0
        assert result.evaluations >= 0

    def test_tight_budget_only_singletons(self, figure1):
        # Budget 0.8 Mb: only p2 (0.7) or p5 (0.8) fit; optimum is p2
        # (Bikes gain 6.75 > Cats gain 0.82).
        tight = figure1.with_budget(0.8e6)
        result = sviridenko(tight)
        assert result.selection == [1]

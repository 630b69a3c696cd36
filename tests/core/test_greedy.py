"""Tests for Algorithm 1 / Algorithm 2 (lazy greedy, CELF)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm, naive_greedy
from repro.core.objective import CoverageState
from repro.errors import ConfigurationError

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


class TestFigure3Trace:
    """The paper's step-by-step demonstration (Section 4.4, Figure 3)."""

    def test_initial_gains_match_figure(self, figure1):
        state = CoverageState(figure1)
        assert state.gain(0) == pytest.approx(7.83)   # δ_p1
        assert state.gain(1) == pytest.approx(6.75)   # δ_p2
        assert state.gain(2) == pytest.approx(6.75)   # δ_p3
        assert state.gain(3) == pytest.approx(0.70)   # δ_p4
        assert state.gain(4) == pytest.approx(0.82)   # δ_p5
        assert state.gain(5) == pytest.approx(4.61)   # δ_p6

    def test_uc_picks_follow_figure3(self, figure1):
        run = lazy_greedy(figure1, UC)
        # Steps 1-3 of Figure 3: p1, then p6, then p2.
        assert [p for p, _ in run.picks[:3]] == [0, 5, 1]

    def test_recalculated_gains_match_figure3(self, figure1):
        # After p1: δ_p3 = 9 * 0.2 * (1 - 0.8) = 0.36, δ_p2 = 9 * 0.3 * 0.3 = 0.81.
        state = CoverageState(figure1, [0])
        assert state.gain(2) == pytest.approx(0.36)
        assert state.gain(1) == pytest.approx(0.81)


class TestLazyGreedy:
    def test_respects_budget(self, figure1):
        run = lazy_greedy(figure1, UC)
        assert run.cost <= figure1.budget + 1e-9

    def test_value_matches_reported_selection(self, figure1):
        run = lazy_greedy(figure1, CB)
        assert run.value == pytest.approx(reference_score(figure1, run.selection))

    @pytest.mark.parametrize("mode", [UC, CB])
    def test_matches_naive_greedy(self, mode):
        for seed in range(6):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
            lazy = lazy_greedy(inst, mode)
            naive = naive_greedy(inst, mode)
            assert lazy.value == pytest.approx(naive.value), f"seed={seed}"
            assert sorted(lazy.selection) == sorted(naive.selection)

    def test_lazy_saves_evaluations(self):
        inst = random_instance(seed=3, n_photos=30, n_subsets=6, budget_fraction=0.5)
        lazy = lazy_greedy(inst, CB)
        naive = naive_greedy(inst, CB)
        assert lazy.evaluations < naive.evaluations

    def test_rejects_unknown_mode(self, figure1):
        with pytest.raises(ConfigurationError):
            lazy_greedy(figure1, "XX")
        with pytest.raises(ConfigurationError):
            naive_greedy(figure1, "XX")

    def test_includes_retained_set(self):
        inst = random_instance(seed=7, retained=2)
        run = lazy_greedy(inst, CB)
        assert inst.retained.issubset(set(run.selection))

    def test_budget_only_fits_retained(self):
        inst = random_instance(seed=7, retained=2)
        tight = inst.with_budget(inst.cost_of(inst.retained) + 1e-6)
        run = lazy_greedy(tight, CB)
        assert sorted(run.selection) == sorted(tight.retained)
        assert run.picks == []

    def test_large_budget_selects_everything(self, figure1):
        generous = figure1.with_budget(1e9)
        run = lazy_greedy(generous, UC)
        assert sorted(run.selection) == list(range(7))

    def test_warm_start_state(self, figure1):
        state = CoverageState(figure1, [0])
        run = lazy_greedy(figure1, UC, state=state)
        assert 0 in run.selection
        assert run.value == pytest.approx(reference_score(figure1, run.selection))

    def test_marginal_gains_nonincreasing_in_uc_mode(self):
        """Submodularity: UC greedy's realised gains must be nonincreasing."""
        for seed in range(4):
            inst = random_instance(seed=seed, n_photos=16, n_subsets=5, budget_fraction=0.9)
            run = lazy_greedy(inst, UC)
            gains = [g for _, g in run.picks]
            for earlier, later in zip(gains, gains[1:]):
                assert later <= earlier + 1e-9

    def test_no_affordable_photo_is_skipped_while_space_remains(self):
        """Greedy halts only when nothing else fits the remaining budget."""
        for seed in range(4):
            inst = random_instance(seed=seed, n_photos=12)
            run = lazy_greedy(inst, CB)
            remaining = inst.budget - run.cost
            unselected = set(range(inst.n)) - set(run.selection)
            # Anything that still fits must have had zero marginal gain.
            state = CoverageState(inst, run.selection)
            for p in unselected:
                if inst.costs[p] <= remaining:
                    assert state.gain(p) == pytest.approx(0.0, abs=1e-9)


class TestMainAlgorithm:
    def test_returns_best_of_both_modes(self):
        for seed in range(6):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
            uc = lazy_greedy(inst, UC)
            cb = lazy_greedy(inst, CB)
            best = main_algorithm(inst)
            assert best.value == pytest.approx(max(uc.value, cb.value))

    def test_evaluations_are_summed(self, figure1):
        uc = lazy_greedy(figure1, UC)
        cb = lazy_greedy(figure1, CB)
        best = main_algorithm(figure1)
        assert best.evaluations == uc.evaluations + cb.evaluations

    def test_non_lazy_variant_matches(self, figure1):
        assert main_algorithm(figure1, lazy=False).value == pytest.approx(
            main_algorithm(figure1, lazy=True).value
        )

    def test_uniform_costs_match_classical_greedy_quality(self):
        """With equal costs the UC pass is the classical (1-1/e) greedy, so
        main_algorithm must reach at least the classical greedy's value."""
        from repro.core.instance import PARInstance, Photo

        inst = random_instance(seed=11, n_photos=12, n_subsets=4)
        photos = [Photo(photo_id=p.photo_id, cost=1.0) for p in inst.photos]
        uniform = PARInstance.from_photos(photos, inst.subsets, budget=5.0, embeddings=inst.embeddings)
        best = main_algorithm(uniform)
        uc = lazy_greedy(uniform, UC)
        assert best.value >= uc.value - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_cost_one_minus_1_over_e_guarantee(self, seed):
        """Section 5.2: 'for the case where all costs are uniform, the
        well-known greedy algorithm of [37] is known to provide an optimal
        (1 − 1/e) worst-case approximation ... when costs are uniform
        Algorithm 1 is provably optimal.'  Verified against the exact
        optimum on random uniform-cost instances."""
        from repro.core.bruteforce import branch_and_bound
        from repro.core.instance import PARInstance, Photo

        inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
        photos = [Photo(photo_id=p.photo_id, cost=1.0) for p in inst.photos]
        uniform = PARInstance.from_photos(photos, inst.subsets, budget=4.0,
                              embeddings=inst.embeddings)
        opt = branch_and_bound(uniform).value
        got = main_algorithm(uniform).value
        assert got >= (1 - 1 / np.e) * opt - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_knapsack_guarantee_far_exceeded_in_practice(self, seed):
        """The a-priori (1−1/e)/2 bound of [30] holds with huge slack on
        heterogeneous-cost instances (Section 4.2's empirical point)."""
        from repro.core.bruteforce import branch_and_bound

        inst = random_instance(seed=seed + 20, n_photos=11, n_subsets=4)
        opt = branch_and_bound(inst).value
        got = main_algorithm(inst).value
        assert got >= (1 - 1 / np.e) / 2 * opt - 1e-9
        assert got >= 0.8 * opt  # practical slack, as the paper reports

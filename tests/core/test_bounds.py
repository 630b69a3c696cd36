"""Tests for the online bound and the Theorem 4.8 sparsification bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    online_bound,
    performance_certificate,
    sparsification_bound,
)
from repro.core.bruteforce import branch_and_bound
from repro.core.greedy import main_algorithm
from repro.core.objective import CoverageState, score
from repro.sparsify.threshold import threshold_sparsify

from tests.conftest import random_instance
from tests.oracles.bounds import knapsack_bound_loop
from tests.oracles.coverage import reference_score


class TestOnlineBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_upper_bounds_optimum(self, seed):
        """The Leskovec online bound must dominate the true optimum for any
        evaluated solution — the property everything else rests on."""
        inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
        opt = branch_and_bound(inst).value
        for sel in ([], main_algorithm(inst).selection, list(range(3))):
            assert online_bound(inst, sel) >= opt - 1e-9

    def test_tight_when_solution_is_optimal_and_saturated(self, figure1):
        opt = branch_and_bound(figure1)
        bound = online_bound(figure1, opt.selection)
        assert bound >= opt.value

    def test_bound_of_full_selection_is_value(self, figure1):
        full = list(range(7))
        assert online_bound(figure1, full) == pytest.approx(
            reference_score(figure1, full)
        )

    def test_certificate_returns_ratio_at_most_one(self, small_instance):
        run = main_algorithm(small_instance)
        value, ratio = performance_certificate(small_instance, run.selection)
        assert value == pytest.approx(run.value)
        assert 0.0 < ratio <= 1.0

    def test_certificate_exceeds_worst_case_in_practice(self):
        """Section 4.2's empirical point: the data-dependent ratio far
        exceeds the a-priori (1 - 1/e)/2 ≈ 0.316."""
        ratios = []
        for seed in range(5):
            inst = random_instance(seed=seed, n_photos=14, n_subsets=5)
            run = main_algorithm(inst)
            _, ratio = performance_certificate(inst, run.selection)
            ratios.append(ratio)
        assert min(ratios) > (1 - 1 / np.e) / 2

    def test_certificate_is_valid_lower_bound_on_true_ratio(self):
        for seed in range(6):
            inst = random_instance(seed=seed, n_photos=11, n_subsets=4)
            run = main_algorithm(inst)
            opt = branch_and_bound(inst).value
            _, ratio = performance_certificate(inst, run.selection)
            true_ratio = run.value / opt if opt > 0 else 1.0
            assert ratio <= true_ratio + 1e-9


class TestSparsificationBound:
    def test_alpha_and_factor_relationship(self, small_instance):
        bound = sparsification_bound(small_instance, 0.5)
        if bound.alpha > 0:
            assert bound.factor == pytest.approx(bound.alpha / (1 + bound.alpha))
        assert 0.0 <= bound.factor < 1.0

    def test_tau_zero_has_full_alpha_potential(self, small_instance):
        """At τ=0 every neighbour survives; with a reasonable budget the
        witness should cover a large weight fraction."""
        bound = sparsification_bound(small_instance, 0.0)
        assert bound.alpha > 0.3

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.8])
    def test_theorem_holds_empirically(self, tau):
        """F(O_τ) >= factor · OPT on exactly solvable instances."""
        for seed in range(4):
            inst = random_instance(seed=seed, n_photos=10, n_subsets=4)
            bound = sparsification_bound(inst, tau)
            opt_true = branch_and_bound(inst).value
            sparse, _ = threshold_sparsify(inst, tau)
            opt_sparse_sel = branch_and_bound(sparse).selection
            # Score the sparsified optimum ON THE SPARSIFIED objective (the
            # theorem's F(O_tau)); it must respect the bound factor.
            sparse_value = score(sparse, opt_sparse_sel)
            assert sparse_value >= bound.factor * opt_true - 1e-9

    def test_witness_is_affordable(self, small_instance):
        bound = sparsification_bound(small_instance, 0.5)
        assert small_instance.cost_of(bound.witness) <= small_instance.budget + 1e-9

    def test_rejects_bad_tau(self, small_instance):
        with pytest.raises(ValueError):
            sparsification_bound(small_instance, 1.5)

    def test_total_weight_matches_model(self, figure1):
        bound = sparsification_bound(figure1, 0.5)
        expected = sum(
            q.weight * float(q.relevance.sum()) for q in figure1.subsets
        )
        assert bound.total_weight == pytest.approx(expected)

    def test_alpha_nonincreasing_in_tau(self, small_instance):
        alphas = [
            sparsification_bound(small_instance, tau).alpha
            for tau in (0.0, 0.4, 0.8, 0.99)
        ]
        for earlier, later in zip(alphas, alphas[1:]):
            assert later <= earlier + 1e-9

    def test_custom_budget(self, small_instance):
        tight = sparsification_bound(small_instance, 0.5, budget=0.1)
        default = sparsification_bound(small_instance, 0.5)
        assert tight.alpha <= default.alpha + 1e-9


class _Gains:
    """What ``online_bound`` reads of an instance and of a state."""

    def __init__(self, value, gains, costs, budget):
        self.value, self._gains = value, gains
        self.costs, self.budget = costs, budget

    def all_gains(self):
        return self._gains.copy()


def _vectorised(value, gains, costs, budget):
    fake = _Gains(value, gains, costs, budget)
    return online_bound(fake, (), state=fake)


def _assert_same_bound(value, gains, costs, budget):
    want = knapsack_bound_loop(value, gains, costs, budget)
    got = _vectorised(value, gains, costs, budget)
    assert isinstance(got, float)
    assert got.hex() == want.hex()


class TestKnapsackPacking:
    """``online_bound``'s prefix sort and cumsum packing against the loop
    over every kept photo (``tests/oracles/bounds.py``), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.0, 1.5),
        kind=st.sampled_from(["random", "density ties", "few values"]),
    )
    def test_random_gains_and_costs(self, m, seed, fraction, kind):
        """"density ties" draws a few densities and power-of-two costs, so
        photos of one density hold different gains (summed with rounding)
        and their order inside the tie decides the bound's bits; "few
        values" also repeats whole (gain, cost) pairs."""
        rng = np.random.default_rng(seed)
        if kind == "density ties":
            costs = 2.0 ** rng.integers(-2, 4, m)
            gains = rng.choice([0.1, 0.3, 0.7], m) * costs  # exact: a power of two
            gains[rng.random(m) < 0.1] = 0.0
        elif kind == "few values":
            gains = rng.integers(-1, 4, m).astype(np.float64) / 3
            costs = rng.integers(1, 4, m).astype(np.float64)
        else:
            gains = rng.random(m) * rng.choice([0.0, 1.0], m, p=[0.1, 0.9])
            costs = rng.uniform(0.5, 20.0, m)
        budget = max(float(costs.sum()) * fraction, 1e-3)
        _assert_same_bound(float(rng.random()), gains, costs, budget)

    def test_budget_runs_out_exactly_at_an_item(self):
        gains = np.array([8.0, 6.0, 4.0, 3.0, 1.0])
        costs = np.array([2.0, 2.0, 2.0, 2.0, 2.0])
        for budget in (2.0, 4.0, 6.0, 10.0):
            _assert_same_bound(0.5, gains, costs, budget)

    def test_items_above_the_budget_are_dropped(self):
        gains = np.array([100.0, 5.0, 2.0, 1.0])
        costs = np.array([50.0, 1.0, 1.0, 1.0])
        _assert_same_bound(0.0, gains, costs, 2.5)
        assert _vectorised(0.0, gains, costs, 2.5) == 5.0 + 2.0 + 0.5

    def test_everything_fits(self):
        rng = np.random.default_rng(3)
        gains, costs = rng.random(300), rng.uniform(1, 2, 300)
        _assert_same_bound(1.25, gains, costs, float(costs.sum()) * 2)
        _assert_same_bound(1.25, gains, costs, float("inf"))

    def test_ties_straddle_the_partition_cut(self):
        """Hundreds of photos share one density with different gains and
        costs, so the partition's k-th density has ties on both sides and
        the gain order inside the tie sets the sum's rounding."""
        costs = np.tile([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], 100)
        gains = 0.1 * costs
        for budget in (1.0, 7.0, 7.3, 150.0, 299.5, 1000.0):
            _assert_same_bound(0.37, gains, costs, budget)
        # One large photo leads the tie; a prefix cut that kept only some
        # of the tied photos would lose it and pack the small ones.
        for at in (0, 5, 300, 599):
            costs = np.full(600, 0.25)
            costs[at] = 64.0
            gains = 0.1 * costs
            for budget in (70.0, 84.0, 100.1):
                _assert_same_bound(0.37, gains, costs, budget)

    def test_no_gain_left(self):
        _assert_same_bound(3.0, np.zeros(5), np.ones(5), 2.0)
        _assert_same_bound(3.0, np.zeros(0), np.zeros(0), 2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_online_bound_of_a_solve_equals_the_loop(self, seed):
        inst = random_instance(seed=seed, n_photos=60, n_subsets=5)
        for sel in ([], main_algorithm(inst).selection[:5]):
            state = CoverageState(inst, sel)
            want = knapsack_bound_loop(
                state.value, state.all_gains(), inst.costs, inst.budget
            )
            assert online_bound(inst, sel).hex() == want.hex()

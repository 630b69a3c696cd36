"""Unit tests for the objective G and the incremental CoverageState."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import CoverageState, max_score, score, score_breakdown
from repro.errors import ValidationError

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score


class TestScore:
    def test_empty_selection_scores_zero(self, figure1):
        assert score(figure1, []) == 0.0

    def test_full_selection_hits_ceiling(self, figure1):
        assert score(figure1, range(7)) == pytest.approx(max_score(figure1))

    def test_max_score_is_weight_sum(self, figure1):
        assert max_score(figure1) == pytest.approx(9 + 1 + 3 + 1)

    def test_single_photo_manual_value(self, figure1):
        # Selecting p1 (id 0): Bikes scores 9*(0.5 + 0.3*0.7 + 0.2*0.8).
        assert score(figure1, [0]) == pytest.approx(9 * (0.5 + 0.21 + 0.16))

    def test_photo_in_multiple_subsets(self, figure1):
        # p6 (id 5): Cats 1*(.3*.4+.4*.7+.3), Bookshelf 3*1, Books 1*(.7+.3*.7).
        assert score(figure1, [5]) == pytest.approx(0.7 + 3.0 + 0.91)

    def test_duplicate_ids_do_not_double_count(self, figure1):
        assert score(figure1, [0, 0]) == pytest.approx(score(figure1, [0]))

    @pytest.mark.parametrize("selection", [[7], [0, -2], [-1]])
    def test_ids_outside_the_instance_are_refused(self, figure1, selection):
        # A negative id would otherwise index the incidence CSR from its end.
        with pytest.raises(ValidationError, match="0..6"):
            score(figure1, selection)
        with pytest.raises(ValidationError, match="0..6"):
            score_breakdown(figure1, selection)

    def test_breakdown_sums_to_score(self, figure1):
        sel = [0, 5]
        breakdown = score_breakdown(figure1, sel)
        assert sum(breakdown.values()) == pytest.approx(score(figure1, sel))
        assert set(breakdown) == {"Bikes", "Cats", "Bookshelf", "Books"}

    def test_breakdown_uncovered_subset_is_zero(self, figure1):
        breakdown = score_breakdown(figure1, [0])
        assert breakdown["Cats"] == 0.0
        assert breakdown["Bookshelf"] == 0.0


class TestCoverageState:
    def test_initial_state_empty(self, figure1):
        state = CoverageState(figure1)
        assert state.value == 0.0
        assert state.selected == frozenset()

    def test_seeded_with_selection(self, figure1):
        state = CoverageState(figure1, [0, 5])
        assert state.value == pytest.approx(reference_score(figure1, [0, 5]))
        assert 0 in state and 5 in state

    def test_add_returns_realized_gain(self, figure1):
        state = CoverageState(figure1)
        gain = state.add(0)
        assert gain == pytest.approx(reference_score(figure1, [0]))
        assert state.value == pytest.approx(gain)

    def test_gain_matches_score_difference(self, figure1):
        state = CoverageState(figure1, [0])
        for p in range(1, 7):
            expected = reference_score(figure1, [0, p]) - reference_score(figure1, [0])
            assert state.gain(p) == pytest.approx(expected), f"photo {p}"

    def test_gain_does_not_mutate(self, figure1):
        state = CoverageState(figure1, [0])
        before = state.value
        state.gain(5)
        assert state.value == before
        assert state.selected == frozenset({0})

    def test_gain_of_selected_is_zero(self, figure1):
        state = CoverageState(figure1, [0])
        assert state.gain(0) == 0.0

    def test_readding_is_noop(self, figure1):
        state = CoverageState(figure1, [0])
        assert state.add(0) == 0.0
        assert state.value == pytest.approx(reference_score(figure1, [0]))

    def test_incremental_matches_batch_on_random_instances(self):
        for seed in range(5):
            inst = random_instance(seed=seed)
            rng = np.random.default_rng(seed)
            order = rng.permutation(inst.n)[: inst.n // 2]
            state = CoverageState(inst)
            for p in order:
                state.add(int(p))
            assert state.value == pytest.approx(reference_score(inst, order))

    def test_copy_is_independent(self, figure1):
        state = CoverageState(figure1, [0])
        clone = state.copy()
        clone.add(5)
        assert 5 not in state
        assert state.value == pytest.approx(reference_score(figure1, [0]))
        assert clone.value == pytest.approx(reference_score(figure1, [0, 5]))

    def test_subset_value(self, figure1):
        state = CoverageState(figure1, [5])
        # Subset 2 is Bookshelf = {p6} with weight 3.
        assert state.subset_value(2) == pytest.approx(3.0)
        assert state.subset_value(0) == 0.0

    def test_coverage_of_returns_copy(self, figure1):
        state = CoverageState(figure1, [0])
        cov = state.coverage_of(0)
        assert cov == pytest.approx([1.0, 0.7, 0.8])
        cov[0] = 0.0
        assert state.coverage_of(0)[0] == 1.0

    def test_all_gains_matches_scalar_gains(self, figure1):
        for sel in ([], [0], [0, 5], [1, 3, 6]):
            state = CoverageState(figure1, sel)
            batch = state.all_gains()
            for p in range(figure1.n):
                assert batch[p] == pytest.approx(state.gain(p)), f"photo {p}"

    def test_all_gains_on_sparse_backend(self, figure1):
        from repro.sparsify.threshold import threshold_sparsify

        sparse, _ = threshold_sparsify(figure1, 0.6)
        state = CoverageState(sparse, [0])
        batch = state.all_gains()
        for p in range(sparse.n):
            assert batch[p] == pytest.approx(state.gain(p))

    def test_all_gains_random_instances(self):
        for seed in range(4):
            inst = random_instance(seed=seed)
            state = CoverageState(inst, range(0, inst.n, 3))
            batch = state.all_gains()
            for p in range(inst.n):
                assert batch[p] == pytest.approx(state.gain(p))

    def test_sparse_backend_equivalent_when_nothing_dropped(self, figure1):
        from repro.sparsify.threshold import threshold_sparsify

        sparse, _ = threshold_sparsify(figure1, 0.0)
        for sel in ([0], [0, 5], [1, 3, 6]):
            dense_state = CoverageState(figure1, sel)
            sparse_state = CoverageState(sparse, sel)
            assert dense_state.value == pytest.approx(sparse_state.value)
            for p in range(7):
                assert dense_state.gain(p) == pytest.approx(sparse_state.gain(p))

"""Tests for the Section 5.2 baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (
    greedy_no_redundancy,
    greedy_non_contextual,
    non_contextual_instance,
    rand_add,
    rand_delete,
)
from repro.core.instance import DenseSimilarity, PARInstance, Photo, PredefinedSubset
from repro.core.objective import score
from repro.errors import ConfigurationError

from tests.conftest import random_instance


class TestRandA:
    def test_feasible(self, small_instance):
        sel = rand_add(small_instance, np.random.default_rng(0))
        assert small_instance.feasible(sel)

    def test_deterministic_with_seed(self, small_instance):
        a = rand_add(small_instance, np.random.default_rng(5))
        b = rand_add(small_instance, np.random.default_rng(5))
        assert a == b

    def test_varies_across_seeds(self, small_instance):
        results = {tuple(rand_add(small_instance, np.random.default_rng(s))) for s in range(10)}
        assert len(results) > 1

    def test_includes_retained(self):
        inst = random_instance(seed=7, retained=2)
        sel = rand_add(inst, np.random.default_rng(0))
        assert inst.retained.issubset(set(sel))

    def test_fills_budget_reasonably(self, small_instance):
        """Random fill should not stop while cheap photos still fit."""
        sel = rand_add(small_instance, np.random.default_rng(1))
        remaining = small_instance.budget - small_instance.cost_of(sel)
        cheapest_left = min(
            (small_instance.costs[p] for p in range(small_instance.n) if p not in sel),
            default=float("inf"),
        )
        assert cheapest_left > remaining


class TestRandD:
    def test_feasible(self, small_instance):
        sel = rand_delete(small_instance, np.random.default_rng(0))
        assert small_instance.feasible(sel)

    def test_never_deletes_retained(self):
        inst = random_instance(seed=7, retained=2)
        for s in range(5):
            sel = rand_delete(inst, np.random.default_rng(s))
            assert inst.retained.issubset(set(sel))

    def test_keeps_everything_under_generous_budget(self, figure1):
        generous = figure1.with_budget(1e9)
        assert rand_delete(generous, np.random.default_rng(0)) == list(range(7))

    def test_deterministic_with_seed(self, small_instance):
        a = rand_delete(small_instance, np.random.default_rng(3))
        b = rand_delete(small_instance, np.random.default_rng(3))
        assert a == b


class TestGreedyNR:
    def test_picks_by_additive_value(self):
        """G-NR must pick the individually most valuable photo even when a
        similar photo is already guaranteed to be chosen."""
        # Two photos nearly identical, one distinct but individually weaker.
        sim = DenseSimilarity(
            np.array([[1.0, 0.95, 0.0], [0.95, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        q = PredefinedSubset("q", 1.0, [0, 1, 2], [0.45, 0.45, 0.10], sim)
        photos = [Photo(photo_id=i, cost=1.0) for i in range(3)]
        inst = PARInstance.from_photos(photos, [q], budget=2.0)
        sel = greedy_no_redundancy(inst)
        # Additive values: p0 = p1 = 0.45 > p2 = 0.10 -> picks the twins.
        assert sel == [0, 1]
        # whereas the redundancy-aware optimum pairs a twin with p2:
        assert score(inst, [0, 2]) > score(inst, [0, 1])

    def test_feasible(self, small_instance):
        assert small_instance.feasible(greedy_no_redundancy(small_instance))

    def test_includes_retained(self):
        inst = random_instance(seed=7, retained=2)
        assert inst.retained.issubset(set(greedy_no_redundancy(inst)))

    def test_cost_aware_variant_prefers_density(self):
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 1], [0.6, 0.4], sim)
        photos = [Photo(photo_id=0, cost=10.0), Photo(photo_id=1, cost=1.0)]
        inst = PARInstance.from_photos(photos, [q], budget=10.0)
        # Value greedy takes p0 (0.6) and has no room for p1.
        assert greedy_no_redundancy(inst) == [0]
        # Density greedy takes p1 first (0.4/1) then cannot afford p0... but
        # 1 + 10 > 10 so only p1 remains.
        assert greedy_no_redundancy(inst, cost_aware=True) == [1]

    def test_deterministic(self, small_instance):
        assert greedy_no_redundancy(small_instance) == greedy_no_redundancy(small_instance)


class TestGreedyNCS:
    def test_requires_embeddings_or_matrix(self, figure1):
        # figure1 carries no embeddings.
        with pytest.raises(ConfigurationError):
            greedy_non_contextual(figure1)

    def test_accepts_global_matrix(self, figure1):
        identity = np.eye(figure1.n)
        sel = greedy_non_contextual(figure1, global_similarity=identity)
        assert figure1.feasible(sel)

    def test_rejects_wrong_matrix_shape(self, figure1):
        with pytest.raises(ConfigurationError):
            greedy_non_contextual(figure1, global_similarity=np.eye(3))

    def test_non_contextual_instance_only_replaces_sim(self, small_instance):
        surrogate = non_contextual_instance(small_instance)
        assert surrogate.n == small_instance.n
        assert surrogate.budget == small_instance.budget
        for q_old, q_new in zip(small_instance.subsets, surrogate.subsets):
            assert q_new.subset_id == q_old.subset_id
            assert q_new.weight == q_old.weight
            assert q_new.relevance == pytest.approx(q_old.relevance)
            assert list(q_new.members) == list(q_old.members)

    def test_global_sim_is_context_independent(self, small_instance):
        """After replacement, a member pair appearing in two subsets must
        have the same similarity in both."""
        surrogate = non_contextual_instance(small_instance)
        seen = {}
        for q in surrogate.subsets:
            for i, p1 in enumerate(q.members):
                for j, p2 in enumerate(q.members):
                    if i < j:
                        key = (int(p1), int(p2))
                        value = q.similarity.pair(i, j)
                        if key in seen:
                            assert value == pytest.approx(seen[key])
                        seen[key] = value

    def test_feasible_and_scored_on_true_objective(self, small_instance):
        sel = greedy_non_contextual(small_instance)
        assert small_instance.feasible(sel)
        assert score(small_instance, sel) > 0

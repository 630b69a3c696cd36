"""Property-based tests of the greedy solvers on generated instances.

Unlike test_objective_properties (which samples from a fixed instance
pool), these strategies generate full PAR instances from hypothesis
primitives, so shrinking produces minimal counterexamples if an invariant
ever breaks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm, naive_greedy
from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
)
from repro.core.objective import score

from tests.oracles.coverage import reference_score


@st.composite
def par_instances(draw):
    """A small random PAR instance built entirely from drawn primitives."""
    n = draw(st.integers(3, 10))
    costs = draw(
        st.lists(st.floats(0.1, 3.0, allow_nan=False), min_size=n, max_size=n)
    )
    photos = [Photo(photo_id=i, cost=costs[i]) for i in range(n)]

    n_subsets = draw(st.integers(1, 4))
    subsets = []
    for qi in range(n_subsets):
        size = draw(st.integers(1, n))
        members = sorted(
            draw(
                st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
            )
        )
        m = len(members)
        rel = draw(
            st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=m, max_size=m)
        )
        # Symmetric similarity matrix from drawn upper-triangle entries.
        sim = np.eye(m)
        for i in range(m):
            for j in range(i + 1, m):
                sim[i, j] = sim[j, i] = draw(st.floats(0.0, 1.0, allow_nan=False))
        subsets.append(
            PredefinedSubset(
                f"q{qi}",
                draw(st.floats(0.1, 5.0, allow_nan=False)),
                members,
                rel,
                DenseSimilarity(sim),
            )
        )
    budget = draw(st.floats(0.2, 1.0)) * float(sum(costs))
    return PARInstance.from_photos(photos, subsets, budget)


@settings(max_examples=50, deadline=None)
@given(inst=par_instances())
def test_greedy_respects_budget(inst):
    for mode in (UC, CB):
        run = lazy_greedy(inst, mode)
        assert run.cost <= inst.budget * (1 + 1e-9)
        assert run.value == pytest.approx(reference_score(inst, run.selection))


@settings(max_examples=40, deadline=None)
@given(inst=par_instances())
def test_lazy_equals_naive(inst):
    """Lazy evaluation is an optimisation, never a behaviour change."""
    for mode in (UC, CB):
        lazy = lazy_greedy(inst, mode)
        naive = naive_greedy(inst, mode)
        assert lazy.value == pytest.approx(naive.value)


@settings(max_examples=40, deadline=None)
@given(inst=par_instances())
def test_greedy_value_monotone_in_budget(inst):
    """A larger budget can only improve the main algorithm's value."""
    small = main_algorithm(inst.with_budget(inst.budget * 0.5))
    large = main_algorithm(inst)
    assert large.value >= small.value - 1e-9


@settings(max_examples=40, deadline=None)
@given(inst=par_instances())
def test_greedy_no_affordable_positive_gain_left(inst):
    """On exit, no remaining affordable photo has positive marginal gain."""
    from repro.core.objective import CoverageState

    run = lazy_greedy(inst, CB)
    state = CoverageState(inst, run.selection)
    remaining_budget = inst.budget - run.cost
    for p in range(inst.n):
        if p in set(run.selection):
            continue
        if inst.costs[p] <= remaining_budget:
            assert state.gain(p) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(inst=par_instances(), tau=st.floats(0.0, 0.9))
def test_sparsified_greedy_stays_feasible(inst, tau):
    from repro.sparsify.threshold import threshold_sparsify

    sparse, _ = threshold_sparsify(inst, tau)
    run = main_algorithm(sparse)
    assert inst.feasible(run.selection)
    # Scoring the sparse solution on the true objective never exceeds the
    # instance ceiling and never goes negative.
    true_value = score(inst, run.selection)
    assert 0.0 <= true_value <= sum(q.weight for q in inst.subsets) + 1e-9

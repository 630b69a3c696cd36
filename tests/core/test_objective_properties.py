"""Property-based tests of Lemma 4.5: G is nonnegative, monotone, submodular.

These hypothesis tests generate random PAR instances and random
selection pairs S ⊆ T, then check the three properties the approximation
guarantees depend on, plus structural invariants of the incremental
evaluator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import main_algorithm
from repro.core.objective import CoverageState, max_score, score, score_breakdown
from repro.core.paper_example import figure1_instance
from repro.datasets.ecommerce import generate_ecommerce_dataset
from repro.datasets.public import generate_public_dataset
from repro.fidelity import VariantCatalog, fidelity_main, fidelity_score
from repro.scale import build_streamed_instance, synthetic_archive
from repro.sparsify.pipeline import sparsify_instance

from tests.conftest import random_instance
from tests.oracles.coverage import (
    reference_fidelity_score,
    reference_score,
    reference_score_breakdown,
)

# Instance pool: built once (hypothesis draws indexes into it), keeping the
# per-example cost low while varying structure across examples.
_INSTANCES = [
    random_instance(seed=s, n_photos=n, n_subsets=q)
    for s, n, q in [(0, 8, 3), (1, 12, 4), (2, 10, 6), (3, 15, 2), (4, 9, 5)]
]

instances = st.sampled_from(_INSTANCES)


@st.composite
def instance_with_nested_selections(draw):
    """An instance plus S ⊆ T ⊆ P and a photo v."""
    inst = draw(instances)
    universe = list(range(inst.n))
    t_sel = draw(st.sets(st.sampled_from(universe), max_size=inst.n))
    s_sel = draw(st.sets(st.sampled_from(sorted(t_sel)), max_size=len(t_sel))) if t_sel else set()
    v = draw(st.sampled_from(universe))
    return inst, sorted(s_sel), sorted(t_sel), v


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_nonnegative(data):
    inst, s_sel, _, _ = data
    assert score(inst, s_sel) >= 0.0


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_monotone(data):
    """Definition 4.2: f(S ∪ {v}) >= f(S)."""
    inst, s_sel, _, v = data
    base = score(inst, s_sel)
    extended = score(inst, set(s_sel) | {v})
    assert extended >= base - 1e-9


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_monotone_under_superset(data):
    """G(T) >= G(S) whenever S ⊆ T."""
    inst, s_sel, t_sel, _ = data
    assert score(inst, t_sel) >= score(inst, s_sel) - 1e-9


@settings(max_examples=80, deadline=None)
@given(data=instance_with_nested_selections())
def test_submodular(data):
    """Definition 4.3: f(S∪{v}) − f(S) >= f(T∪{v}) − f(T) for S ⊆ T."""
    inst, s_sel, t_sel, v = data
    gain_s = score(inst, set(s_sel) | {v}) - score(inst, s_sel)
    gain_t = score(inst, set(t_sel) | {v}) - score(inst, t_sel)
    assert gain_s >= gain_t - 1e-9


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_bounded_by_max_score(data):
    inst, _, t_sel, _ = data
    assert score(inst, t_sel) <= max_score(inst) + 1e-9


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_incremental_state_matches_batch_score(data):
    inst, s_sel, t_sel, _ = data
    state = CoverageState(inst, s_sel)
    for p in t_sel:
        state.add(p)
    assert state.value == pytest.approx(
        reference_score(inst, set(s_sel) | set(t_sel))
    )


@settings(max_examples=60, deadline=None)
@given(data=instance_with_nested_selections())
def test_gain_equals_add(data):
    """The queried gain must equal the realised gain of the next add."""
    inst, s_sel, _, v = data
    state = CoverageState(inst, s_sel)
    predicted = state.gain(v)
    realized = state.add(v)
    assert predicted == pytest.approx(realized)


@settings(max_examples=40, deadline=None)
@given(data=instance_with_nested_selections(), tau=st.floats(0.0, 1.0))
def test_sparsified_score_never_exceeds_dense(data, tau):
    """Rounding similarities down can only lower (or keep) the score."""
    from repro.sparsify.threshold import threshold_sparsify

    inst, s_sel, _, _ = data
    sparse, _ = threshold_sparsify(inst, tau)
    assert score(sparse, s_sel) <= score(inst, s_sel) + 1e-9


@settings(max_examples=40, deadline=None)
@given(data=instance_with_nested_selections())
def test_selected_members_always_fully_covered(data):
    """Every selected photo's own (q, p) coverage is exactly 1."""
    inst, s_sel, _, _ = data
    state = CoverageState(inst, s_sel)
    sel = set(s_sel)
    for qi, q in enumerate(inst.subsets):
        cov = state.coverage_of(qi)
        for local, photo in enumerate(q.members):
            if int(photo) in sel:
                assert cov[local] == pytest.approx(1.0)


# ------------------------------------- the evaluators against the oracle
#
# score, score_breakdown and fidelity_score read one CoverageState; the
# per-subset loops in tests/oracles/coverage.py must give the same bits.


def _assert_scores_match_oracle(inst, selection):
    assert score(inst, selection) == reference_score(inst, selection)
    assert score_breakdown(inst, selection) == reference_score_breakdown(
        inst, selection
    )


def _assert_fidelity_score_matches_oracle(inst, catalog, chosen):
    assert fidelity_score(inst, catalog, chosen) == reference_fidelity_score(
        inst, catalog, chosen
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    retained=st.sampled_from([0, 3]),
    data=st.data(),
)
def test_evaluators_equal_the_oracle_on_random_instances(seed, retained, data):
    inst = random_instance(seed=seed, retained=retained)
    ids = st.integers(0, inst.n - 1)
    _assert_scores_match_oracle(inst, data.draw(st.lists(ids, max_size=2 * inst.n)))
    catalog = VariantCatalog.default(inst.costs)
    chosen = {
        p: data.draw(st.sampled_from(catalog.variants_of(p)))
        for p in sorted(data.draw(st.sets(ids)))
    }
    _assert_fidelity_score_matches_oracle(inst, catalog, chosen)


def _ecommerce():
    dataset = generate_ecommerce_dataset("Fashion", 140, n_queries=11, seed=1000)
    return dataset.instance(dataset.total_cost() * 0.35)


def _public(tau, method="exact"):
    dataset = generate_public_dataset(400, 30, seed=2)
    inst = dataset.instance(dataset.total_cost() * 0.3)
    if tau:
        inst, _ = sparsify_instance(
            inst, tau, method=method, rng=np.random.default_rng(0)
        )
    return inst


def _fused(dtype):
    costs, emb = synthetic_archive(5_000, dim=16, seed=0)
    inst, _ = build_streamed_instance(
        costs, emb, float(costs.sum()) * 0.1, tau=0.8, rng=0, dtype=dtype
    )
    return inst


#: One instance of each kind the generators, sparsifiers and builder make.
_KINDS = {
    "figure1": lambda: figure1_instance(4.0),
    "ecommerce": _ecommerce,
    "public-dense": lambda: _public(0.0),
    "public-exact": lambda: _public(0.5),
    "public-lsh": lambda: _public(0.5, "lsh"),
    "fused-float64": lambda: _fused(np.float64),
    "fused-float32": lambda: _fused(np.float32),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_evaluators_equal_the_oracle_on_every_instance_kind(kind):
    inst = _KINDS[kind]()
    rng = np.random.default_rng(0)
    for selection in (
        main_algorithm(inst).selection,
        rng.choice(inst.n, size=inst.n // 2, replace=False).tolist(),
        range(inst.n),
    ):
        _assert_scores_match_oracle(inst, selection)
    catalog = VariantCatalog.default(inst.costs)
    assignments = [
        {p: int(rng.choice(catalog.variants_of(p))) for p in range(inst.n)},
        {p: catalog.original_of(p) for p in range(0, inst.n, 3)},
    ]
    if inst.n <= 1_000:
        assignments.append(fidelity_main(inst, catalog).chosen)
    for chosen in assignments:
        _assert_fidelity_score_matches_oracle(inst, catalog, chosen)

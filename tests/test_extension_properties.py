"""Property-based tests for the flat compression expansion oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import max_score, score
from repro.core.solver import solve

from tests.conftest import random_instance
from tests.oracles.compression import expand_with_compression

_INSTANCES = [random_instance(seed=s, n_photos=12, n_subsets=4) for s in range(4)]
instances = st.sampled_from(_INSTANCES)
levels = st.tuples(
    st.floats(0.3, 0.95, allow_nan=False), st.floats(0.1, 0.9, allow_nan=False)
).filter(lambda fs: fs[1] < fs[0])  # useful levels: cheaper than faithful


@settings(max_examples=30, deadline=None)
@given(inst=instances, level=levels)
def test_compression_preserves_original_scores(inst, level):
    """Original-only selections score identically after expansion."""
    expanded, _ = expand_with_compression(inst, [level])
    rng = np.random.default_rng(0)
    sel = sorted(int(p) for p in rng.choice(inst.n, size=inst.n // 2, replace=False))
    assert score(expanded, sel) == pytest.approx(score(inst, sel))


@settings(max_examples=30, deadline=None)
@given(inst=instances, level=levels)
def test_compression_rarely_hurts_greedy(inst, level):
    """The *optimum* of the expanded instance dominates the original's
    (originals remain available), but greedy is not monotone under
    ground-set growth — extra variants can divert its path slightly.
    The property that must hold: no visible regression."""
    expanded, _ = expand_with_compression(inst, [level])
    assert solve(expanded, "phocus").value >= 0.95 * solve(inst, "phocus").value


@settings(max_examples=30, deadline=None)
@given(inst=instances, level=levels)
def test_compression_keeps_ceiling(inst, level):
    expanded, _ = expand_with_compression(inst, [level])
    assert max_score(expanded) == pytest.approx(max_score(inst))


"""Kernel-vs-reference equivalence — exact, not approximate.

:class:`CoverageState` — served by the compiled kernel of
:mod:`repro.core.native` or, where that cannot load, by its numpy
kernel — must be a perfect stand-in for the original per-subset loop
(``tests/oracles/coverage.py``): same add order ⇒ bit-identical ``value``,
coverage vectors, marginal gains, and — because heap keys flow into
checkpoint documents — byte-identical checkpoints.  Every case runs on
all three (``KINDS``).  These are the properties the checkpoint resume
proofs and the CI bench-smoke gate rely on, so everything here asserts
``==``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.checkpoint import MemoryCheckpointSink, encode_record
from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm
from repro.core.instance import PARInstance, PredefinedSubset, build_incidence
from repro.core.objective import CoverageState
from repro.sparsify.threshold import threshold_sparsify
from tests.conftest import random_instance
from tests.oracles.coverage import (
    ReferenceCoverageState,
    reference_main_algorithm,
    reference_score,
)

REFERENCE = "reference"
NUMPY = "numpy"
NATIVE = "native"
# Reference loop, numpy kernel, compiled kernel.  Where the compiled
# kernel cannot load (no cffi or gcc), NATIVE states run the numpy
# kernel and the cases still hold.
KINDS = (REFERENCE, NUMPY, NATIVE)


def _state(inst, kind: str, selection=()) -> CoverageState:
    """A coverage state served by ``kind``, holding ``selection``."""
    if kind == REFERENCE:
        return ReferenceCoverageState(inst, selection)
    state = CoverageState(inst)
    if kind == NUMPY:
        state._native = None
    for p in selection:
        state.add(int(p))
    return state


def _with_subsets(inst, similarity_of) -> PARInstance:
    """``inst`` with subset ``qi``'s similarity replaced by
    ``similarity_of(qi, q)``."""
    subsets = [
        PredefinedSubset(
            q.subset_id, q.weight, q.members, q.relevance,
            similarity_of(qi, q), normalize=False,
        )
        for qi, q in enumerate(inst.subsets)
    ]
    return PARInstance.from_photos(inst.photos, subsets, inst.budget, inst.retained)


def _variants(seed: int, **kwargs):
    dense = random_instance(seed, **kwargs)
    sparse, _ = threshold_sparsify(dense, 0.3)
    # Dense and sparse subsets side by side; photos sit in several.
    mixed = _with_subsets(
        dense,
        lambda qi, q: q.similarity if qi % 2 else q.similarity.sparsified(0.3),
    )
    return [("dense", dense), ("sparse", sparse), ("mixed", mixed)]


def _assert_same(values: dict) -> None:
    """Every kind produced exactly the reference's value."""
    for kind in KINDS:
        assert values[kind] == values[REFERENCE], (kind, values)


def _assert_same_coverage(states: dict) -> None:
    _assert_same({kind: s.value for kind, s in states.items()})
    for qi in range(len(states[REFERENCE].instance.subsets)):
        for kind in KINDS:
            assert np.array_equal(
                states[kind].coverage_of(qi), states[REFERENCE].coverage_of(qi)
            ), (kind, qi)
        _assert_same({kind: s.subset_value(qi) for kind, s in states.items()})


class TestIncidenceLayout:
    def test_entry_ranges_partition_the_nnz(self):
        inst = random_instance(0, n_photos=20, n_subsets=5)
        inc = inst.incidence
        assert inc.total_slots == sum(len(q) for q in inst.subsets)
        assert inc.entry_indptr[0] == 0
        assert inc.entry_indptr[-1] == inc.nnz
        assert inc.nnz == sum(q.similarity.nnz() for q in inst.subsets)

    def test_membership_order_matches_instance_membership(self):
        inst = random_instance(1, n_photos=18, n_subsets=6)
        inc = inst.incidence
        off = inc.subset_offsets
        for p in range(inst.n):
            ms, me = inc.photo_member_indptr[p], inc.photo_member_indptr[p + 1]
            assert me - ms == len(inst.membership[p])
            for k, (qi, local) in zip(range(ms, me), inst.membership[p]):
                s, e = inc.member_entry_indptr[k], inc.member_entry_indptr[k + 1]
                idx, sims = inst.subsets[qi].similarity.neighbors(local)
                assert np.array_equal(inc.slots[s:e] - off[qi], idx)
                assert np.array_equal(inc.sims[s:e], sims)

    def test_with_budget_shares_the_incidence(self):
        inst = random_instance(2)
        assert inst.with_budget(inst.budget * 0.5).incidence is inst.incidence

    def test_build_incidence_empty_subsets(self):
        inc = build_incidence([], 5)
        assert inc.total_slots == 0 and inc.nnz == 0
        assert inc.photo_member_indptr.shape == (6,)


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        n_photos=st.integers(6, 28),
        n_subsets=st.integers(2, 7),
        retained=st.integers(0, 2),
        order_seed=st.integers(0, 1000),
        phi=st.sampled_from([1.0, 0.7]),
    )
    def test_same_add_order_is_bit_identical(
        self, seed, n_photos, n_subsets, retained, order_seed, phi
    ):
        # Gains, realised adds (warm after a gain, cold after a stale
        # one), upgrades to full fidelity and copies taken mid-way, on
        # dense, sparse and mixed instances with a retention set.
        for _, inst in _variants(
            seed, n_photos=n_photos, n_subsets=n_subsets, retained=retained
        ):
            states = {kind: _state(inst, kind, inst.retained) for kind in KINDS}
            _assert_same_coverage(states)
            rng = np.random.default_rng(order_seed)
            order = [int(p) for p in rng.permutation(inst.n)[: inst.n // 2 + 1]]
            for step, p in enumerate(order):
                _assert_same({k: s.gain(p, phi) for k, s in states.items()})
                if step % 2:
                    # A gain for another photo makes the add below cold.
                    q = order[step - 1]
                    _assert_same({k: s.gain(q, 1.0) for k, s in states.items()})
                _assert_same({k: s.add(p, phi) for k, s in states.items()})
                if phi < 1.0 and step % 3 == 0:
                    _assert_same({k: s.gain(p, 1.0) for k, s in states.items()})
                    _assert_same({k: s.add(p, 1.0) for k, s in states.items()})
                if step == len(order) // 2:
                    states = {k: s.copy() for k, s in states.items()}
                _assert_same_coverage(states)

    def test_float32_sparse_multi_subset_below_full_fidelity(self):
        # numpy computes phi * sims in float32 here (NEP 50), which a
        # double-precision product does not reproduce; the kernels must
        # still agree with the reference bit for bit.
        sparse, _ = threshold_sparsify(random_instance(7, n_photos=24, n_subsets=6), 0.3)
        inst = _with_subsets(sparse, lambda qi, q: q.similarity.astype(np.float32))
        sims = inst.incidence.sims
        assert sims.dtype == np.float32
        assert not np.array_equal(0.7 * sims, 0.7 * sims.astype(np.float64))
        states = {kind: _state(inst, kind) for kind in KINDS}
        for p in range(0, inst.n, 2):
            _assert_same({k: s.gain(p, 0.7) for k, s in states.items()})
            _assert_same({k: s.add(p, 0.7) for k, s in states.items()})
        for p in range(0, inst.n, 4):
            _assert_same({k: s.gain(p, 1.0) for k, s in states.items()})
            _assert_same({k: s.add(p, 1.0) for k, s in states.items()})
        _assert_same_coverage(states)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 30))
    def test_value_matches_from_scratch_score(self, seed):
        for _, inst in _variants(seed, n_photos=16, n_subsets=5):
            selection = list(range(0, inst.n, 2))
            for kind in KINDS:
                state = _state(inst, kind, selection)
                assert state.value == pytest.approx(
                    reference_score(inst, selection), rel=1e-12
                )

    @settings(max_examples=10)
    @given(seed=st.integers(0, 30), order_seed=st.integers(0, 100))
    def test_all_gains_matches_per_photo_gain(self, seed, order_seed):
        for _, inst in _variants(seed, n_photos=14, n_subsets=4):
            rng = np.random.default_rng(order_seed)
            selection = [int(p) for p in rng.permutation(inst.n)[: inst.n // 3]]
            for kind in KINDS:
                state = _state(inst, kind, selection)
                gains = state.all_gains()
                expected = np.array([state.gain(p) for p in range(inst.n)])
                np.testing.assert_allclose(gains, expected, rtol=1e-12, atol=1e-12)

    def test_gain_cache_add_matches_cold_add(self):
        # add() right after gain() (the CELF select step) replays the
        # cached masks; an add with no preceding gain recomputes.  Both
        # must land in exactly the same state.
        inst = random_instance(4, n_photos=20, n_subsets=5)
        for kind in KINDS:
            warm = _state(inst, kind)
            cold = _state(inst, kind)
            for p in range(0, inst.n, 2):
                g = warm.gain(p)
                assert warm.add(p) == g
                cold.add(p)
            assert warm.value == cold.value
            for qi in range(len(inst.subsets)):
                assert np.array_equal(warm.coverage_of(qi), cold.coverage_of(qi))

    def test_stale_gain_cache_is_not_replayed(self):
        # gain(a); add(b); add(a) — the cached segments for a are stale
        # (computed before b joined) and must be discarded.
        inst = random_instance(5, n_photos=20, n_subsets=5)
        for kind in KINDS:
            state = _state(inst, kind)
            state.gain(0)
            state.add(1)
            state.add(0)
            oracle = ReferenceCoverageState(inst, [1, 0])
            assert state.value == oracle.value
            for qi in range(len(inst.subsets)):
                assert np.array_equal(state.coverage_of(qi), oracle.coverage_of(qi))

    def test_copy_is_independent_and_exact(self):
        inst = random_instance(6, n_photos=18, n_subsets=5)
        for kind in KINDS:
            state = _state(inst, kind, [0, 3])
            clone = state.copy()
            assert clone.value == state.value
            assert (clone._native is None) == (state._native is None)
            clone.gain(5)
            clone.add(5)
            assert 5 not in state
            assert state.value == _state(inst, kind, [0, 3]).value
            for qi in range(len(inst.subsets)):
                assert np.array_equal(
                    state.coverage_of(qi),
                    _state(inst, kind, [0, 3]).coverage_of(qi),
                )
            assert clone.value == _state(inst, kind, [0, 3, 5]).value


class TestSolverBitIdentity:
    @pytest.mark.parametrize("mode", [UC, CB])
    def test_lazy_greedy_identical_across_backends(self, mode):
        for seed in range(4):
            for _, inst in _variants(seed, n_photos=24, n_subsets=6):
                runs = {}
                for kind in KINDS:
                    state = _state(inst, kind, inst.retained)
                    runs[kind] = lazy_greedy(inst, mode, state=state)
                for kind in KINDS:
                    assert runs[kind].selection == runs[REFERENCE].selection
                    assert runs[kind].value == runs[REFERENCE].value
                    assert runs[kind].picks == runs[REFERENCE].picks
                    assert runs[kind].evaluations == runs[REFERENCE].evaluations

    def test_main_algorithm_identical_across_backends(self, monkeypatch):
        for seed in range(3):
            for _, inst in _variants(seed, n_photos=22, n_subsets=6):
                runs = {REFERENCE: reference_main_algorithm(inst)}
                for kind in (NUMPY, NATIVE):
                    with monkeypatch.context() as patch:
                        if kind == NUMPY:
                            patch.setattr(native, "bind", lambda inc, best: None)
                        runs[kind] = main_algorithm(inst)
                for kind in KINDS:
                    assert runs[kind].selection == runs[REFERENCE].selection
                    assert runs[kind].value == runs[REFERENCE].value
                    assert runs[kind].picks == runs[REFERENCE].picks

    @pytest.mark.parametrize("mode", [UC, CB])
    def test_checkpoint_bytes_identical_across_backends(self, mode):
        # Checkpoints embed heap keys (i.e. gain values) and realised
        # picks; backend equality must survive all the way into the CRC32
        # wire encoding or resume proofs would be backend-dependent.
        for seed in range(3):
            for _, inst in _variants(seed, n_photos=24, n_subsets=6):
                encoded = {}
                for kind in KINDS:
                    sink = MemoryCheckpointSink()
                    state = _state(inst, kind, inst.retained)
                    lazy_greedy(
                        inst,
                        mode,
                        state=state,
                        checkpoint_every=2,
                        checkpoint_sink=sink,
                    )
                    encoded[kind] = [encode_record(doc) for doc in sink.docs]
                assert encoded[REFERENCE], "expected at least one checkpoint"
                _assert_same(encoded)

"""Every photo's gain at once: the native pass and numpy agree byte for byte.

:meth:`repro.core.objective.CoverageState.all_gains` runs
``phocus_all_gains`` (``native_coverage.c``) whenever the coverage kernel
loads and its summation self-check passed, and numpy's
``np.maximum`` + ``np.add.reduceat`` pass otherwise.  The C pass forms the
same per-entry products and sums each photo's as ``np.add.reduceat``
does, over the base range and the tail range of each membership.  A
state replaying a selection goes to C in one call; it must reach the
state that adding the photos one by one reaches.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.instance import (
    IncidenceCSR,
    PARInstance,
    PredefinedSubset,
    SparseSimilarity,
)
from repro.core.objective import CoverageState

needs_kernel = pytest.mark.skipif(
    native.kernel() is None, reason="the native coverage kernel cannot load here"
)

#: Entries per photo that reach each branch of numpy's pairwise sum.
LENGTHS = (0, 1, 7, 8, 9, 128, 129, 257)


def _incidence(rng, lengths, tail_frac: float, n_slots: int = 300):
    """A one-membership-per-photo incidence with ``lengths[p]`` entries
    per photo, the last ``tail_frac`` of each in a tail (none at 0).

    Similarities and coverage values repeat on purpose, so deltas come out
    positive, zero and negative; some similarities are ``-0.0``, whose
    delta against a zero coverage is ``-0.0``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n, total = lengths.size, int(lengths.sum())
    sims = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, 0.3], total)
    sims = np.where(rng.random(total) < 0.5, rng.random(total), sims)
    slots = rng.integers(0, n_slots, total).astype(np.int64)
    slot_wrel = rng.random(n_slots)
    best = rng.choice([0.0, 0.25, 0.5], n_slots)
    best = np.where(rng.random(n_slots) < 0.5, rng.random(n_slots), best)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    base_len = lengths - (lengths * tail_frac).astype(np.int64)
    base_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(base_len, out=base_indptr[1:])
    within = np.arange(total) - np.repeat(indptr[:-1], lengths)
    in_base = within < np.repeat(base_len, lengths)
    tail = None
    if tail_frac:
        tail = (indptr - base_indptr, slots[~in_base], sims[~in_base])
    inc = IncidenceCSR(
        np.array([0, n_slots], dtype=np.int64),
        np.arange(n + 1, dtype=np.int64),
        base_indptr,
        base_indptr,
        slots[in_base] if tail_frac else slots,
        sims[in_base] if tail_frac else sims,
        slot_wrel,
        tail,
    )
    return inc, best, (indptr, slots, sims, slot_wrel)


def _native_gains(inc, best):
    handle = native.bind(inc, best.copy())
    assert handle is not None and handle.sums_like_reduceat
    return handle.all_gains()


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.sampled_from(LENGTHS + (2, 3, 16, 130, 300)), min_size=1, max_size=12),
    tail_frac=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
@example(seed=0, lengths=list(LENGTHS), tail_frac=0.0)
@example(seed=1, lengths=list(LENGTHS), tail_frac=0.5)
def test_native_all_gains_equals_the_numpy_pass(seed, lengths, tail_frac):
    inc, best, compact = _incidence(np.random.default_rng(seed), lengths, tail_frac)
    want = native.reduceat_gains(*inc.merged(), inc.slot_wrel, best)
    got = _native_gains(inc, best)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # The tail-free layout the merged arrays stand for gives the same bytes.
    indptr, slots, sims, slot_wrel = compact
    assert want.tobytes() == native.reduceat_gains(indptr, slots, sims, slot_wrel, best).tobytes()


@needs_kernel
@pytest.mark.parametrize("tail_frac", [0.0, 0.3])
def test_a_photo_with_more_than_ten_thousand_entries(tail_frac):
    inc, best, _ = _incidence(
        np.random.default_rng(2), [3, 10_007, 1, 12_345], tail_frac, n_slots=20_000
    )
    want = native.reduceat_gains(*inc.merged(), inc.slot_wrel, best)
    assert _native_gains(inc, best).tobytes() == want.tobytes()


@needs_kernel
def test_a_negative_zero_delta_comes_out_positive_zero():
    """``np.maximum(-0.0, 0.0)`` is ``+0.0`` here, and so is the C pass's;
    a photo whose one entry has that delta reports ``+0.0``."""
    inc = IncidenceCSR(
        np.array([0, 2], dtype=np.int64),
        np.arange(3, dtype=np.int64),
        np.array([0, 1, 3], dtype=np.int64),
        np.array([0, 1, 3], dtype=np.int64),
        np.array([0, 0, 1], dtype=np.int64),
        np.array([-0.0, -0.0, -0.0]),
        np.array([0.5, 0.5]),
    )
    best = np.zeros(2)
    want = native.reduceat_gains(*inc.merged(), inc.slot_wrel, best)
    got = _native_gains(inc, best)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()


def _grown_instance(seed: int, n: int = 120, k: int = 30, dtype=np.float64):
    """A single-subset instance whose similarity has a tail, and the same
    instance built in one go (no tail)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n + k, 1)
    keep = rng.random(iu.size) < 0.08
    ii, jj, vv = iu[keep], ju[keep], rng.random(int(keep.sum()))
    old = jj < n
    grown = SparseSimilarity.from_pairs(n, ii[old], jj[old], vv[old], dtype=dtype)
    grown = grown.append_rows(k, ii[~old], jj[~old], vv[~old])
    fresh = SparseSimilarity.from_pairs(n + k, ii, jj, vv, dtype=dtype)
    costs = rng.uniform(0.5, 2.0, n + k)

    def instance(sim):
        members = np.arange(n + k)
        relevance = np.full(n + k, 1 / (n + k))
        subset = PredefinedSubset("a", 1.0, members, relevance, sim, normalize=False)
        return PARInstance(costs, [subset], float(costs.sum()) * 0.3)

    return instance(grown), instance(fresh)


@needs_kernel
@pytest.mark.parametrize("picks", [0, 1, 25])
def test_selected_photos_with_and_without_a_tail(monkeypatch, picks):
    tailed, fresh = _grown_instance(picks)
    assert tailed.incidence.tail is not None and fresh.incidence.tail is None
    selection = np.random.default_rng(picks).permutation(tailed.n)[:picks].tolist()
    answers = []
    for inst in (tailed, fresh):
        state = CoverageState(inst, selection)
        assert state.served_by == "native" and state._native.sums_like_reduceat
        answers.append(state.all_gains())
        with monkeypatch.context() as patch:
            patch.setattr(native, "kernel", lambda: None)
            numpy_state = CoverageState(inst, selection)
            assert numpy_state.served_by == "kernel"
            answers.append(numpy_state.all_gains())
    assert len({a.tobytes() for a in answers}) == 1
    assert not answers[0][selection].any()


def test_a_float32_incidence_is_served_by_numpy():
    """The general incidence path keeps float32 similarities, which only
    numpy serves; its gains are the reduceat pass over those arrays."""
    tailed, _ = _grown_instance(5, dtype=np.float32)
    sim = tailed.subsets[0].similarity
    empty = SparseSimilarity.from_pairs(10, [], [], [], dtype=np.float32)
    other = PredefinedSubset("b", 2.0, np.arange(10), np.full(10, 0.1), empty, normalize=False)
    inst = PARInstance(tailed.costs, [tailed.subsets[0], other], tailed.budget)
    assert inst.incidence.sims.dtype == np.float32 and sim.dtype == np.float32
    state = CoverageState(inst, [3, 7, 40])
    assert state.served_by == "kernel"
    inc = inst.incidence
    want = native.reduceat_gains(*inc.merged(), inc.slot_wrel, state._best_flat)
    want[[3, 7, 40]] = 0.0
    assert state.all_gains().tobytes() == want.tobytes()


@needs_kernel
def test_the_native_pass_serves_whenever_the_kernel_loads(monkeypatch):
    def numpy_pass(*args, **kwargs):
        raise AssertionError("the numpy all_gains ran while the kernel loads")

    tailed, _ = _grown_instance(9)
    state = CoverageState(tailed, [0, 5])
    monkeypatch.setattr(native, "reduceat_gains", numpy_pass)
    assert state.all_gains().shape == (tailed.n,)


@needs_kernel
def test_a_failed_self_check_falls_back_with_one_warning(monkeypatch, caplog):
    """Against a reference that sums sequentially (what a plain C loop
    would), the self-check fails once, logs once, and numpy serves."""
    reduceat = native.reduceat_gains

    def sequential(entry_indptr, slots, sims, slot_wrel, best):
        products = np.maximum(sims - best[slots], 0.0) * slot_wrel[slots]
        return np.array(
            [sum(products[s:e].tolist(), 0.0) for s, e in zip(entry_indptr[:-1], entry_indptr[1:])]
        )

    loaded = native.kernel()
    monkeypatch.setattr(loaded, "_sums", None)
    monkeypatch.setattr(native, "reduceat_gains", sequential)
    tailed, _ = _grown_instance(4)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        first = CoverageState(tailed, [1, 2])
        second = CoverageState(tailed, [1, 2])
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1 and "reduceat" in warnings[0].getMessage()
    for state in (first, second):
        assert state.served_by == "native" and not state._native.sums_like_reduceat
    monkeypatch.setattr(native, "reduceat_gains", reduceat)
    inc = tailed.incidence
    want = reduceat(*inc.merged(), inc.slot_wrel, first._best_flat)
    want[[1, 2]] = 0.0
    assert first.all_gains().tobytes() == want.tobytes()


# ----------------------------------------------------------------- replay


@pytest.mark.parametrize(
    "selection",
    [
        [],
        [5],
        [9, 3, 9, 120, 3, 0],
        np.array([140, 2, 2, 77], dtype=np.int64),
        frozenset({4, 8, 15, 16, 23, 42}),
        [1.0, 2.0],
    ],
)
def test_replay_equals_adding_one_by_one(selection):
    """One native call (or numpy) reaches the state repeated ``add`` calls
    reach: the same value bits, coverage, order and selection."""
    tailed, _ = _grown_instance(11)
    replayed = CoverageState(tailed, selection)
    stepped = CoverageState(tailed)
    for p in selection:
        stepped.add(int(p))
    assert replayed.value.hex() == stepped.value.hex()
    assert replayed._best_flat.tobytes() == stepped._best_flat.tobytes()
    assert replayed.order == stepped.order
    assert replayed.selected == stepped.selected


@needs_kernel
def test_replay_is_one_native_call(monkeypatch):
    tailed, _ = _grown_instance(12)
    calls = []
    replay = native.NativeCoverage.replay
    monkeypatch.setattr(
        native.NativeCoverage,
        "replay",
        lambda self, ids: calls.append(ids.tolist()) or replay(self, ids),
    )
    state = CoverageState(tailed, [7, 3, 7, 11])
    assert calls == [[7, 3, 11]] and state.order == [7, 3, 11]


@needs_kernel
def test_replay_ids_out_of_range_take_the_add_loop():
    tailed, _ = _grown_instance(13)
    with pytest.raises(IndexError):
        CoverageState(tailed, [2, tailed.n])
    handle = native.bind(tailed.incidence, np.zeros(tailed.incidence.total_slots))
    with pytest.raises(ValueError, match="lie in"):
        handle.replay(np.array([0, tailed.n], dtype=np.int64))
    with pytest.raises(ValueError, match="int64"):
        handle.replay(np.array([0, 1], dtype=np.int32))

"""Tests for :mod:`repro.live` and the CSR growth API it is built on.

Three contracts anchor the subsystem:

* :meth:`SparseSimilarity.append_rows` is **bit-identical** to a
  from-scratch ``from_pairs`` rebuild over the union of old and new
  pairs (canonical lexsort order is input-independent);
* :meth:`LiveArchive.ingest` is **bit-identical** to a from-scratch
  fused streamed build over the concatenated archive at matched
  ``(seed, n_bits)`` — candidate generation over the delta loses
  nothing the full SimHash banding would have found;
* :func:`warm_resolve` reproduces the stored solution **bit for bit**
  on an empty delta, and on any delta certifies a ``regret_bound``
  with ``value >= (1 - regret_bound) * cold_value`` (the measured-regret
  guarantee, property-tested over random deltas).  When the budget
  shrinks under a solution, its reverse greedy
  :func:`~repro.live.resolve.shrink_to_budget` evicts back inside it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import main_algorithm
from repro.core.instance import PARInstance, Photo, PredefinedSubset, SparseSimilarity
from repro.core.objective import score
from repro.core.parallel import SharedInstance
from repro.core.serialize import instance_from_dict, instance_to_dict, json_default
from repro.core.solver import solve
from repro.errors import ValidationError
from repro.live import LiveArchive, cold_resolve, replay_solution, warm_resolve
from repro.live.resolve import _removal_loss, shrink_to_budget
from repro.scale import build_streamed_instance, synthetic_archive

from tests.conftest import random_instance


def _sim_equal(a: SparseSimilarity, b: SparseSimilarity) -> bool:
    ai, ac, av = a.csr()
    bi, bc, bv = b.csr()
    return (
        len(a) == len(b)
        and np.array_equal(ai, bi)
        and np.array_equal(ac, bc)
        and np.array_equal(av, bv)
        and av.dtype == bv.dtype
    )


def _random_pairs(rng, n: int, density: float = 0.15):
    """Unique undirected off-diagonal pairs with values in [0, 1]."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < density
    ii, jj = iu[mask], ju[mask]
    return ii, jj, rng.random(ii.size)


# --------------------------------------------------------------- append_rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("trial", range(10))
def test_append_rows_matches_from_pairs_rebuild(trial, dtype):
    rng = np.random.default_rng(1000 * trial + (0 if dtype is np.float64 else 1))
    n = int(rng.integers(1, 40))
    k = int(rng.integers(0, 20))
    total = n + k
    ii, jj, vv = _random_pairs(rng, total)
    old_mask = (ii < n) & (jj < n)
    base = SparseSimilarity.from_pairs(
        n, ii[old_mask], jj[old_mask], vv[old_mask], dtype=dtype
    )
    delta = ~old_mask
    grown = base.append_rows(k, ii[delta], jj[delta], vv[delta])
    rebuilt = SparseSimilarity.from_pairs(total, ii, jj, vv, dtype=dtype)
    assert _sim_equal(grown, rebuilt)


def test_append_rows_zero_delta_returns_self():
    rng = np.random.default_rng(7)
    ii, jj, vv = _random_pairs(rng, 12)
    sim = SparseSimilarity.from_pairs(12, ii, jj, vv)
    assert sim.append_rows(0) is sim


def test_append_rows_rejects_old_old_pairs():
    rng = np.random.default_rng(8)
    sim = SparseSimilarity.from_pairs(6, *_random_pairs(rng, 6, density=0.4))
    with pytest.raises(ValidationError, match="appended range"):
        sim.append_rows(2, np.array([0]), np.array([1]), np.array([0.5]))


def test_append_rows_rejects_out_of_range_and_diagonal():
    rng = np.random.default_rng(9)
    sim = SparseSimilarity.from_pairs(5, *_random_pairs(rng, 5, density=0.4))
    with pytest.raises(ValidationError):
        sim.append_rows(1, np.array([2]), np.array([9]), np.array([0.5]))
    with pytest.raises(ValidationError):
        sim.append_rows(1, np.array([5]), np.array([5]), np.array([0.5]))


def _instance_with_grown_sim(seed: int = 3):
    """A PAR instance whose similarity was grown through append_rows."""
    rng = np.random.default_rng(seed)
    n, k = 14, 6
    total = n + k
    ii, jj, vv = _random_pairs(rng, total, density=0.3)
    old = (ii < n) & (jj < n)
    sim = SparseSimilarity.from_pairs(n, ii[old], jj[old], vv[old]).append_rows(
        k, ii[~old], jj[~old], vv[~old]
    )
    costs = rng.uniform(0.5, 2.0, size=total)
    photos = [Photo(photo_id=i, cost=float(costs[i])) for i in range(total)]
    subset = PredefinedSubset(
        subset_id="archive",
        weight=1.0,
        members=list(range(total)),
        relevance=np.full(total, 1.0 / total),
        similarity=sim,
        normalize=False,
    )
    return PARInstance.from_photos(photos, [subset], float(costs.sum()) * 0.4, [])


def test_append_rows_survives_serialize_round_trip():
    instance = _instance_with_grown_sim()
    round_tripped = instance_from_dict(instance_to_dict(instance))
    assert _sim_equal(
        instance.subsets[0].similarity, round_tripped.subsets[0].similarity
    )
    run = main_algorithm(instance)
    assert main_algorithm(round_tripped).selection == run.selection


def test_append_rows_survives_shm_pack():
    instance = _instance_with_grown_sim(seed=11)
    run = main_algorithm(instance)
    with SharedInstance(instance) as shared:
        view = shared.materialize()
        assert _sim_equal(
            instance.subsets[0].similarity, view.subsets[0].similarity
        )
        replay = main_algorithm(view)
    assert replay.selection == run.selection
    assert replay.value == run.value


# ------------------------------------------------------------------- ingest


def test_ingest_bit_identical_to_fresh_fused_build():
    costs, embeddings = synthetic_archive(400, dim=8, seed=5)
    budget = float(costs.sum()) * 0.2
    archive, _ = LiveArchive.create(
        costs[:360], embeddings[:360], budget, tau=0.6, seed=5, n_bits=16
    )
    grown, report = archive.ingest(costs[360:], embeddings[360:])
    assert report.n_before == 360 and report.n_added == 40

    fresh, _ = build_streamed_instance(
        costs, embeddings, budget, tau=0.6, n_bits=16, rng=5
    )
    assert _sim_equal(
        grown.instance.subsets[0].similarity, fresh.subsets[0].similarity
    )
    assert np.array_equal(
        grown.instance.subsets[0].relevance, fresh.subsets[0].relevance
    )
    assert np.array_equal(grown.instance.costs, fresh.costs)
    # The original archive is untouched (the caller swaps only after the
    # durable commit).
    assert archive.n == 360


def test_consecutive_ingests_bit_identical_to_fresh_fused_build():
    """Two deltas in a row exercise the merged sorted-key cache.

    The first ingest on an archive searches the build-time key sort; the
    grown archive carries a *merged* cache forward, so the second ingest
    proves the linear interleave finds exactly the buckets a fresh
    argsort would.
    """
    costs, embeddings = synthetic_archive(420, dim=8, seed=12)
    budget = float(costs.sum()) * 0.2
    archive, _ = LiveArchive.create(
        costs[:360], embeddings[:360], budget, tau=0.6, seed=12, n_bits=16
    )
    once, _ = archive.ingest(costs[360:390], embeddings[360:390])
    twice, _ = once.ingest(costs[390:], embeddings[390:])

    # The carried cache is a real argsort of the carried keys.
    sorted_keys, key_order = twice._sorted_key_state()
    assert np.array_equal(
        sorted_keys, np.take_along_axis(twice.band_keys, key_order, axis=1)
    )
    assert np.array_equal(np.sort(twice.band_keys, axis=1), sorted_keys)

    fresh, _ = build_streamed_instance(
        costs, embeddings, budget, tau=0.6, n_bits=16, rng=12
    )
    assert _sim_equal(
        twice.instance.subsets[0].similarity, fresh.subsets[0].similarity
    )
    assert np.array_equal(
        twice.instance.subsets[0].relevance, fresh.subsets[0].relevance
    )
    assert np.array_equal(twice.instance.costs, fresh.costs)


def test_ingest_bit_identical_after_doc_round_trip():
    costs, embeddings = synthetic_archive(300, dim=8, seed=9)
    budget = float(costs.sum()) * 0.2
    archive, _ = LiveArchive.create(
        costs[:280], embeddings[:280], budget, tau=0.6, seed=9, n_bits=16
    )
    reloaded = LiveArchive.from_doc(archive.to_doc())
    grown_a, _ = archive.ingest(costs[280:], embeddings[280:])
    grown_b, _ = reloaded.ingest(costs[280:], embeddings[280:])
    assert _sim_equal(
        grown_a.instance.subsets[0].similarity,
        grown_b.instance.subsets[0].similarity,
    )
    assert np.array_equal(
        grown_a.instance.subsets[0].relevance,
        grown_b.instance.subsets[0].relevance,
    )


def test_live_doc_solvable_by_generic_serialize_path():
    """The live sidecar must not disturb plain instance consumers."""
    costs, embeddings = synthetic_archive(200, dim=8, seed=2)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.3, tau=0.6, seed=2
    )
    doc = archive.to_doc()
    assert "live" in doc
    plain = instance_from_dict(doc)
    assert plain.n == 200
    assert main_algorithm(plain).selection == main_algorithm(
        archive.instance
    ).selection


# -------------------------------------------------------------- warm resolve


def test_empty_delta_warm_resolve_is_bit_identical():
    costs, embeddings = synthetic_archive(300, dim=8, seed=4)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.2, tau=0.6, seed=4
    )
    stored = cold_resolve(archive.instance)
    warm = warm_resolve(archive.instance, stored.selection)
    assert warm.selection == stored.selection
    assert warm.value == stored.value
    assert warm.evicted == [] and warm.added == []


@pytest.mark.parametrize("k", [1, 8, 64])
def test_warm_resolve_regret_bound_property(k):
    """Measured-regret guarantee over random deltas of size k.

    ``online_bound`` upper-bounds the instance optimum, so the certified
    ``regret_bound`` must cover the gap to a cold full re-solve:
    ``warm.value >= (1 - warm.regret_bound) * cold.value``.
    """
    for seed in (0, 1, 2):
        costs, embeddings = synthetic_archive(400 + k, dim=8, seed=20 + seed)
        n = 400
        budget = float(costs[:n].sum()) * 0.2
        archive, _ = LiveArchive.create(
            costs[:n], embeddings[:n], budget, tau=0.6, seed=seed
        )
        stored = cold_resolve(archive.instance)
        grown, _ = archive.ingest(costs[n:], embeddings[n:])

        warm = warm_resolve(grown.instance, stored.selection)
        cold = cold_resolve(grown.instance)

        assert 0.0 <= warm.regret_bound < 1.0
        assert warm.value >= (1.0 - warm.regret_bound) * cold.value - 1e-12
        # The warm result is a real feasible solution of the grown instance.
        assert warm.cost <= grown.instance.budget * (1 + 1e-9)
        assert warm.value == pytest.approx(
            score(grown.instance, warm.selection), abs=1e-9
        )


def test_warm_resolve_prepends_missing_retained():
    costs, embeddings = synthetic_archive(200, dim=8, seed=6)
    archive, _ = LiveArchive.create(
        costs,
        embeddings,
        float(costs.sum()) * 0.3,
        tau=0.6,
        seed=6,
        retained=[0, 5],
    )
    warm = warm_resolve(archive.instance, [])
    assert set(warm.selection) >= {0, 5}
    assert warm.cost <= archive.instance.budget * (1 + 1e-9)


def test_warm_resolve_evicts_when_budget_shrinks():
    costs, embeddings = synthetic_archive(200, dim=8, seed=13)
    budget = float(costs.sum()) * 0.3
    archive, _ = LiveArchive.create(costs, embeddings, budget, tau=0.6, seed=13)
    stored = cold_resolve(archive.instance)
    shrunk = archive.instance.with_budget(budget * 0.5)
    warm = warm_resolve(shrunk, stored.selection)
    assert warm.cost <= shrunk.budget * (1 + 1e-9)
    assert warm.evicted  # something had to go


def test_warm_resolve_grows_into_a_doubled_budget():
    costs, embeddings = synthetic_archive(200, dim=8, seed=14)
    budget = float(costs.sum()) * 0.15
    archive, _ = LiveArchive.create(costs, embeddings, budget, tau=0.6, seed=14)
    stored = cold_resolve(archive.instance)
    roomy = archive.instance.with_budget(budget * 2.0)
    warm = warm_resolve(roomy, stored.selection)
    assert warm.added and warm.evicted == []
    assert warm.selection[: len(stored.selection)] == stored.selection
    assert warm.cost <= roomy.budget * (1 + 1e-9)
    assert warm.value >= stored.value


def test_warm_resolve_drops_stale_ids():
    costs, embeddings = synthetic_archive(200, dim=8, seed=15)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.25, tau=0.6, seed=15
    )
    n = archive.instance.n
    stored = cold_resolve(archive.instance)
    warm = warm_resolve(archive.instance, [n, *stored.selection, n + 7, 10**9])
    assert warm.selection == stored.selection
    assert warm.value == stored.value
    assert warm.evicted == [] and warm.added == []


# ------------------------------------------------- reverse-greedy shrink


def test_removal_loss_matches_score_difference(figure1):
    sel = [0, 1, 4, 5]
    for p in sel:
        expected = score(figure1, sel) - score(figure1, [x for x in sel if x != p])
        assert _removal_loss(figure1, sel, p) == pytest.approx(expected), f"p{p+1}"


def test_removal_loss_of_unselected_photo_is_zero(figure1):
    assert _removal_loss(figure1, [0, 1], 6) == 0.0


def test_removal_loss_of_redundant_photo_is_smaller(figure1):
    # With p1 kept, p3 is mostly covered (0.8): removing p3 from
    # {p1, p3} costs less than removing p1.
    sel = [0, 2]
    assert _removal_loss(figure1, sel, 2) < _removal_loss(figure1, sel, 0)


def test_shrink_fits_the_budget(figure1):
    shrunk = shrink_to_budget(figure1, list(range(7)))  # 8.1 Mb into 4 Mb
    assert figure1.cost_of(shrunk) <= figure1.budget


def test_shrink_quality_close_to_cold_solve():
    for seed in range(5):
        inst = random_instance(seed=seed, n_photos=16, n_subsets=5, budget_fraction=0.4)
        shrunk = shrink_to_budget(inst, list(range(inst.n)))
        assert score(inst, shrunk) >= 0.8 * solve(inst, "phocus").value


def test_shrink_never_evicts_retained():
    inst = random_instance(seed=7, retained=2, budget_fraction=0.3)
    shrunk = shrink_to_budget(inst, list(range(inst.n)))
    assert inst.retained.issubset(set(shrunk))


def test_shrink_is_a_noop_when_already_feasible(figure1):
    assert shrink_to_budget(figure1, [0, 1]) == [0, 1]


_SMALL = st.sampled_from(
    [random_instance(seed=s, n_photos=12, n_subsets=4) for s in range(4)]
)


@settings(max_examples=30, deadline=None)
@given(inst=_SMALL, frac=st.floats(0.2, 0.9))
def test_shrink_always_feasible_and_loss_bounded(inst, frac):
    target = inst.total_cost() * frac
    if inst.cost_of(inst.retained) > target:
        return
    tight = inst.with_budget(target)
    shrunk = shrink_to_budget(tight, list(range(inst.n)))
    assert inst.cost_of(shrunk) <= target * (1 + 1e-9)
    assert inst.retained.issubset(set(shrunk))


@settings(max_examples=30, deadline=None)
@given(inst=_SMALL)
def test_removal_loss_is_exact(inst):
    sel = list(range(0, inst.n, 2))
    for p in sel[:4]:
        expected = score(inst, sel) - score(inst, [x for x in sel if x != p])
        assert _removal_loss(inst, sel, p) == pytest.approx(expected)


def test_replay_solution_recomputes_value_and_certificate():
    costs, embeddings = synthetic_archive(200, dim=8, seed=8)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.25, tau=0.6, seed=8
    )
    run = main_algorithm(archive.instance)
    landed = replay_solution(
        archive.instance,
        list(run.selection) + [10**9, run.selection[0]],  # junk + duplicate
        mode="phocus",
    )
    assert landed.selection == list(run.selection)
    assert landed.value == pytest.approx(run.value, abs=1e-9)
    assert landed.upper_bound >= landed.value - 1e-12


def test_live_doc_array_form_and_its_json_load_identically():
    costs, embeddings = synthetic_archive(200, dim=8, seed=6)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.3, tau=0.6, seed=6
    )
    doc = archive.to_doc()
    assert isinstance(doc["live"]["band_keys"], np.ndarray)
    as_json = json.loads(json.dumps(doc, default=json_default))
    for loaded in (LiveArchive.from_doc(doc), LiveArchive.from_doc(as_json)):
        assert _sim_equal(
            loaded.instance.subsets[0].similarity,
            archive.instance.subsets[0].similarity,
        )
        assert np.array_equal(loaded.band_keys, archive.band_keys)
        assert np.array_equal(loaded.raw_relevance, archive.raw_relevance)
        assert np.array_equal(loaded.instance.embeddings, archive.instance.embeddings)


@pytest.mark.parametrize(
    "raw_relevance",
    [lambda r: r[:-1], lambda r: np.concatenate([r, [1.0]]), lambda r: r[None, :]],
)
def test_live_archive_rejects_raw_relevance_not_of_length_n(raw_relevance):
    costs, embeddings = synthetic_archive(60, dim=8, seed=6)
    archive, _ = LiveArchive.create(
        costs, embeddings, float(costs.sum()) * 0.3, tau=0.6, seed=6
    )
    doc = archive.to_doc()
    doc["live"]["raw_relevance"] = raw_relevance(doc["live"]["raw_relevance"])
    with pytest.raises(ValidationError):
        LiveArchive.from_doc(doc)


def test_live_archive_rejects_dense_instance_docs():
    doc = instance_to_dict(random_instance(1))
    with pytest.raises(ValidationError):
        LiveArchive.from_doc(doc)

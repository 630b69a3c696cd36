"""Tests for repro.scale: the fused streamed builder (tentpole).

The core contract under test is *bit-identity*: at a matched seed and an
explicit signature width, the fused build (embeddings → banded SimHash →
τ-verified cosines → CSR) must reproduce the unfused
:func:`repro.sparsify.simhash.lsh_similar_pairs` pipeline exactly — the
same candidate pairs, the same kept entries, the same CSR byte layout,
and therefore bit-identical greedy picks on both coverage backends.
Chunk sizes are a memory knob, never a results knob.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.greedy import main_algorithm
from repro.core.instance import PARInstance, Photo, PredefinedSubset, SparseSimilarity
from repro.core.parallel import SharedInstance
from repro.core.serialize import instance_from_json, instance_to_json
from repro.errors import ConfigurationError, ValidationError
from repro.obs import probes
from repro.scale import (
    ScaleBuildReport,
    build_streamed_instance,
    save_streamed_instance,
    synthetic_archive,
)
from repro.sparsify.simhash import SimHasher, recommended_bits, tune_bands
from tests.oracles.coverage import reference_main_algorithm
from tests.oracles.lsh import candidate_pairs, lsh_similar_pairs

N = 400
DIM = 8
TAU = 0.6
N_BITS = 64
SEED = 42


@pytest.fixture(scope="module")
def archive():
    return synthetic_archive(N, dim=DIM, seed=3)


@pytest.fixture(scope="module")
def fused(archive):
    costs, emb = archive
    return build_streamed_instance(
        costs, emb, float(costs.sum()) * 0.3, tau=TAU, n_bits=N_BITS, rng=SEED
    )


def _unfused_instance(costs, emb, budget, *, dtype=np.float64):
    """The unfused reference: lsh_similar_pairs → from_pairs → PARInstance."""
    n = emb.shape[0]
    result = lsh_similar_pairs(emb, TAU, n_bits=N_BITS, rng=np.random.default_rng(SEED))
    ii = np.array([p[0] for p in result.pairs], dtype=np.int64)
    jj = np.array([p[1] for p in result.pairs], dtype=np.int64)
    sparse = SparseSimilarity.from_pairs(n, ii, jj, result.similarities, dtype=dtype)
    subset = PredefinedSubset(
        "archive",
        1.0,
        np.arange(n, dtype=np.int64),
        np.full(n, 1.0 / n),
        sparse,
        normalize=False,
    )
    photos = [Photo(photo_id=i, cost=float(c)) for i, c in enumerate(costs)]
    return PARInstance.from_photos(photos, [subset], budget), result


# ------------------------------------------------------------- bit identity


class TestFusedEqualsUnfused:
    def test_candidate_sets_identical(self, archive, fused):
        _, emb = archive
        hasher = SimHasher(DIM, N_BITS, np.random.default_rng(SEED))
        bands, rows = tune_bands(TAU, N_BITS, 0.95)
        reference = candidate_pairs(hasher.signatures(emb), bands, rows)
        _, report = fused
        assert report.candidate_pairs == len(reference)
        assert (report.bands, report.rows) == (bands, rows)

    def test_csr_arrays_bit_identical(self, archive, fused):
        costs, emb = archive
        inst, report = fused
        ref_inst, ref = _unfused_instance(costs, emb, inst.budget)
        assert report.kept_pairs == len(ref.pairs)
        assert report.candidate_pairs == ref.candidates_checked
        fi, fc, fv = inst.subsets[0].similarity.csr()
        ri, rc, rv = ref_inst.subsets[0].similarity.csr()
        assert np.array_equal(fi, ri)
        assert np.array_equal(fc, rc)
        assert np.array_equal(fv, rv)  # bit-exact, not allclose

    @pytest.mark.parametrize("backend", ["kernel", "reference"])
    def test_solve_picks_bit_identical(self, archive, fused, backend):
        # The fused instance on the kernel against the unfused one on the
        # kernel, then on the per-subset reference evaluation.
        costs, emb = archive
        inst, _ = fused
        ref_inst, _ = _unfused_instance(costs, emb, inst.budget)
        solve_ref = main_algorithm if backend == "kernel" else reference_main_algorithm
        a = main_algorithm(inst)
        b = solve_ref(ref_inst)
        assert a.picks == b.picks
        assert a.selection == b.selection
        assert a.value == b.value

    def test_chunk_sizes_never_change_results(self, archive, fused):
        costs, emb = archive
        inst, report = fused
        small, small_report = build_streamed_instance(
            costs,
            emb,
            inst.budget,
            tau=TAU,
            n_bits=N_BITS,
            rng=SEED,
            chunk_pairs=777,
            signature_chunk=123,
        )
        assert small_report.candidate_pairs == report.candidate_pairs
        assert small_report.kept_pairs == report.kept_pairs
        for a, b in zip(inst.subsets[0].similarity.csr(), small.subsets[0].similarity.csr()):
            assert np.array_equal(a, b)

    def test_auto_bits_still_matches_unfused_at_same_width(self, archive):
        # "auto" only picks the width; at that same width the pipelines
        # must still agree bit for bit.
        costs, emb = archive
        budget = float(costs.sum()) * 0.3
        inst, report = build_streamed_instance(
            costs, emb, budget, tau=TAU, n_bits="auto", rng=SEED
        )
        assert report.n_bits == recommended_bits(N, TAU, 0.95)
        result = lsh_similar_pairs(
            emb, TAU, n_bits=report.n_bits, rng=np.random.default_rng(SEED)
        )
        assert report.kept_pairs == len(result.pairs)
        assert report.candidate_pairs == result.candidates_checked


# ------------------------------------------------------------------- dtype


class TestDtype:
    def test_float32_values_are_rounded_float64(self, archive, fused):
        costs, emb = archive
        inst, _ = fused
        inst32, report32 = build_streamed_instance(
            costs, emb, inst.budget, tau=TAU, n_bits=N_BITS, rng=SEED, dtype=np.float32
        )
        assert report32.dtype == "float32"
        sim32 = inst32.subsets[0].similarity
        assert sim32.dtype == np.float32
        _, _, v64 = inst.subsets[0].similarity.csr()
        _, _, v32 = sim32.csr()
        assert v32.dtype == np.float32
        np.testing.assert_allclose(v32, v64, rtol=6e-8)

    def test_float32_roundtrips_through_serialize(self, archive, fused):
        costs, emb = archive
        inst, _ = fused
        inst32, _ = build_streamed_instance(
            costs, emb, inst.budget, tau=TAU, n_bits=N_BITS, rng=SEED, dtype=np.float32
        )
        back = instance_from_json(instance_to_json(inst32))
        sim = back.subsets[0].similarity
        assert sim.dtype == np.float32
        for a, b in zip(sim.csr(), inst32.subsets[0].similarity.csr()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dtype_survives_shared_memory_pack(self, archive, fused, dtype):
        costs, emb = archive
        inst, _ = fused
        built, _ = build_streamed_instance(
            costs, emb, inst.budget, tau=TAU, n_bits=N_BITS, rng=SEED, dtype=dtype
        )
        with SharedInstance(built) as shared:
            view = shared.materialize()
            sim = view.subsets[0].similarity
            assert sim.dtype == np.dtype(dtype)
            for a, b in zip(sim.csr(), built.subsets[0].similarity.csr()):
                assert np.array_equal(a, b)
            assert main_algorithm(view).value == main_algorithm(built).value

    def test_unsupported_dtype_rejected(self, archive):
        costs, emb = archive
        with pytest.raises(ValidationError):
            build_streamed_instance(
                costs, emb, 1e9, tau=TAU, n_bits=N_BITS, rng=SEED, dtype=np.float16
            )


# ------------------------------------------------------------------ report


class TestReport:
    def test_counts_consistent(self, fused):
        inst, report = fused
        assert isinstance(report, ScaleBuildReport)
        assert report.n_photos == N and report.dim == DIM
        # Symmetric off-diagonal pairs plus the unit diagonal.
        assert report.nnz == 2 * report.kept_pairs + N
        assert inst.subsets[0].similarity.nnz() == report.nnz
        assert 0 < report.kept_pairs <= report.candidate_pairs
        assert report.verified_pairs == report.candidate_pairs
        assert 0.0 < report.candidate_fraction < 1.0
        assert set(report.phase_seconds) == {
            "signatures", "candidates", "verify", "assemble",
        }
        assert report.build_seconds > 0

    def test_to_dict_is_jsonable(self, fused):
        import json

        _, report = fused
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n_photos"] == N
        assert doc["nnz"] == report.nnz

    def test_obs_counters_fire_when_armed(self, archive):
        costs, emb = archive
        with probes.armed() as instruments:
            _, report = build_streamed_instance(
                costs, emb, float(costs.sum()) * 0.3, tau=TAU, n_bits=N_BITS, rng=SEED
            )
            by_name = {
                fam.name: fam for fam in instruments.registry.snapshot()
            }
            cand = by_name["phocus_scalebuild_candidate_pairs_total"]
            assert cand.series[0].value == report.candidate_pairs
            kept = by_name["phocus_scalebuild_kept_pairs_total"]
            assert kept.series[0].value == report.kept_pairs
            chunks = by_name["phocus_scalebuild_chunks_total"]
            stages = {dict(s.labels)["stage"] for s in chunks.series}
            assert {"signatures", "candidates", "verify"} <= stages


# ------------------------------------------------------- validation & sizing


class TestValidationAndSizing:
    def test_recommended_bits_tracks_archive_size(self):
        small = recommended_bits(1_000, TAU)
        large = recommended_bits(1_000_000, TAU)
        assert large > small
        for n in (1_000, 1_000_000):
            n_bits = recommended_bits(n, TAU)
            bands, rows = tune_bands(TAU, n_bits, 0.95)
            assert bands * rows == n_bits
            assert rows >= max(4, int(np.ceil(np.log2(n))))

    def test_bad_inputs_rejected(self, archive):
        costs, emb = archive
        with pytest.raises(ConfigurationError):
            build_streamed_instance(costs[:-1], emb, 1e9, tau=TAU)
        with pytest.raises(ConfigurationError):
            build_streamed_instance(costs, emb, 1e9, tau=0.0)
        with pytest.raises(ConfigurationError):
            build_streamed_instance(costs, emb, 1e9, tau=TAU, chunk_pairs=0)
        with pytest.raises(ConfigurationError):
            build_streamed_instance(costs, emb[0], 1e9, tau=TAU)

    def test_embeddings_detached_by_default(self, archive, fused):
        costs, emb = archive
        inst, _ = fused
        assert inst.embeddings is None
        kept, _ = build_streamed_instance(
            costs, emb, inst.budget, tau=TAU, n_bits=N_BITS, rng=SEED,
            keep_embeddings=True,
        )
        assert kept.embeddings is not None and kept.embeddings.shape == (N, DIM)

    def test_retained_and_relevance_flow_through(self, archive):
        costs, emb = archive
        rel = np.arange(1, N + 1, dtype=np.float64)
        inst, _ = build_streamed_instance(
            costs, emb, float(costs.sum()), tau=TAU, n_bits=N_BITS, rng=SEED,
            relevance=rel, retained=[0, 7],
        )
        assert inst.retained == frozenset({0, 7})
        np.testing.assert_allclose(inst.subsets[0].relevance.sum(), 1.0)
        assert inst.subsets[0].relevance[7] > inst.subsets[0].relevance[0]


# ---------------------------------------------------------- persistence etc.


class TestSaveAndDataset:
    def test_save_roundtrips(self, fused, tmp_path):
        inst, _ = fused
        path = tmp_path / "archive.json"
        nbytes = save_streamed_instance(inst, path)
        assert path.stat().st_size == nbytes
        back = instance_from_json(path.read_text())
        for a, b in zip(
            back.subsets[0].similarity.csr(), inst.subsets[0].similarity.csr()
        ):
            assert np.array_equal(a, b)
        assert main_algorithm(back).picks == main_algorithm(inst).picks

    def test_dataset_streamed_instance_is_cosine_only(self):
        from repro.datasets.registry import load

        dataset = load("P-1K", scale=0.2, seed=0)
        inst, report = dataset.streamed_instance(
            dataset.total_cost() * 0.2, tau=0.5, rng=1
        )
        assert inst.n == dataset.n_photos
        assert len(inst.subsets) == 1
        assert inst.subsets[0].similarity.is_sparse
        assert report.n_photos == dataset.n_photos
        # Photo records (labels, metadata) carry over unchanged.
        assert [p.label for p in inst.photos] == [p.label for p in dataset.photos]
        with pytest.raises(ValidationError):
            dataset.streamed_instance(1e9, tau=0.5, contextual_mode="reweight+normalise")

    def test_synthetic_archive_deterministic_and_chunk_invariant(self):
        c1, e1 = synthetic_archive(1000, dim=4, seed=9)
        c2, e2 = synthetic_archive(1000, dim=4, seed=9)
        assert np.array_equal(c1, c2) and np.array_equal(e1, e2)
        assert c1.shape == (1000,) and e1.shape == (1000, 4)
        assert (c1 > 0).all()

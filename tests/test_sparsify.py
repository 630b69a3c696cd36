"""Tests for τ-sparsification and the SimHash LSH (Section 4.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import score
from repro.errors import ConfigurationError
from repro.sparsify.pipeline import sparsify_instance
from repro.sparsify.simhash import (
    SimHasher,
    bit_agreement_probability,
    candidate_probability,
    tune_bands,
)
from repro.sparsify.threshold import sparsify_subset, threshold_sparsify

from tests.conftest import random_instance
from tests.oracles.lsh import candidate_pairs, lsh_similar_pairs, lsh_sparsify_reference


# ---------------------------------------------------------------------------
# Threshold sparsification
# ---------------------------------------------------------------------------


class TestThresholdSparsify:
    def test_drops_below_threshold(self, figure1):
        sparse, stats = threshold_sparsify(figure1, 0.75)
        bikes = sparse.subsets[0]
        assert bikes.sim(0, 2) == pytest.approx(0.8)  # kept (>= tau)
        assert bikes.sim(0, 1) == 0.0  # 0.7 < 0.75 dropped
        assert stats.nnz_after < stats.nnz_before

    def test_keeps_self_similarity(self, figure1):
        sparse, _ = threshold_sparsify(figure1, 0.99)
        for q in sparse.subsets:
            for photo in q.members:
                assert q.sim(int(photo), int(photo)) == 1.0

    def test_tau_zero_is_lossless(self, figure1):
        sparse, stats = threshold_sparsify(figure1, 0.0)
        for sel in ([0], [0, 5], [1, 3], list(range(7))):
            assert score(sparse, sel) == pytest.approx(score(figure1, sel))
        assert stats.kept_fraction == pytest.approx(1.0)

    def test_tau_one_keeps_only_unit_entries(self, figure1):
        sparse, _ = threshold_sparsify(figure1, 1.0)
        bikes = sparse.subsets[0]
        assert bikes.sim(0, 1) == 0.0
        assert bikes.sim(0, 0) == 1.0

    def test_resparsifying_sparse_instance(self, figure1):
        once, _ = threshold_sparsify(figure1, 0.5)
        twice, _ = threshold_sparsify(once, 0.75)
        bikes = twice.subsets[0]
        assert bikes.sim(0, 1) == 0.0
        assert bikes.sim(0, 2) == pytest.approx(0.8)

    def test_rejects_bad_tau(self, figure1):
        with pytest.raises(ValueError):
            sparsify_subset(figure1.subsets[0], 1.5)

    def test_monotone_loss_in_tau(self, small_instance):
        """Higher τ can only lower the sparsified score of a selection."""
        sel = list(range(0, small_instance.n, 2))
        values = []
        for tau in (0.0, 0.3, 0.6, 0.9):
            sparse, _ = threshold_sparsify(small_instance, tau)
            values.append(score(sparse, sel))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9


# ---------------------------------------------------------------------------
# SimHash maths
# ---------------------------------------------------------------------------


class TestSimHashMaths:
    def test_bit_agreement_extremes(self):
        assert bit_agreement_probability(1.0) == pytest.approx(1.0)
        assert bit_agreement_probability(-1.0) == pytest.approx(0.0)
        assert bit_agreement_probability(0.0) == pytest.approx(0.5)

    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_bit_agreement_monotone(self, s):
        assert bit_agreement_probability(s) <= bit_agreement_probability(min(1.0, s + 0.1)) + 1e-12

    def test_candidate_probability_increases_with_bands(self):
        p1 = candidate_probability(0.8, bands=1, rows=8)
        p4 = candidate_probability(0.8, bands=4, rows=8)
        assert p4 > p1

    def test_candidate_probability_decreases_with_rows(self):
        loose = candidate_probability(0.5, bands=4, rows=2)
        sharp = candidate_probability(0.5, bands=4, rows=16)
        assert sharp < loose

    def test_tune_bands_meets_recall_target(self):
        for tau in (0.5, 0.7, 0.9):
            bands, rows = tune_bands(tau, 64, 0.95)
            assert bands * rows <= 64
            assert candidate_probability(tau, bands, rows) >= 0.95

    def test_tune_bands_prefers_larger_rows(self):
        bands_hi, rows_hi = tune_bands(0.9, 64, 0.9)
        bands_lo, rows_lo = tune_bands(0.3, 64, 0.9)
        # High-similarity thresholds afford sharper (longer-row) bands.
        assert rows_hi >= rows_lo

    def test_tune_bands_validation(self):
        with pytest.raises(ConfigurationError):
            tune_bands(0.0, 64)
        with pytest.raises(ConfigurationError):
            tune_bands(0.5, 64, target_recall=1.0)
        with pytest.raises(ConfigurationError):
            tune_bands(0.5, 0)


class TestSimHasher:
    def test_signature_shape_and_dtype(self):
        hasher = SimHasher(dim=8, n_bits=32, rng=np.random.default_rng(0))
        sigs = hasher.signatures(np.random.default_rng(1).standard_normal((5, 8)))
        assert sigs.shape == (5, 32)
        assert sigs.dtype == bool

    def test_identical_vectors_share_signature(self):
        hasher = SimHasher(dim=4, n_bits=16, rng=np.random.default_rng(0))
        v = np.array([[1.0, 2.0, -1.0, 0.5]])
        sigs = hasher.signatures(np.vstack([v, v * 3.0]))  # same direction
        assert (sigs[0] == sigs[1]).all()

    def test_collision_rate_matches_theory(self):
        """Empirical per-bit agreement must track 1 - θ/π."""
        rng = np.random.default_rng(42)
        hasher = SimHasher(dim=16, n_bits=4096, rng=rng)
        a = rng.standard_normal(16)
        for target in (0.3, 0.7, 0.95):
            # Construct b at the target cosine with a.
            a_unit = a / np.linalg.norm(a)
            noise = rng.standard_normal(16)
            noise -= (noise @ a_unit) * a_unit
            noise /= np.linalg.norm(noise)
            b = target * a_unit + np.sqrt(1 - target**2) * noise
            sigs = hasher.signatures(np.vstack([a_unit, b]))
            agreement = float((sigs[0] == sigs[1]).mean())
            assert agreement == pytest.approx(bit_agreement_probability(target), abs=0.05)

    def test_dim_mismatch_rejected(self):
        hasher = SimHasher(dim=8, n_bits=16)
        with pytest.raises(ConfigurationError):
            hasher.signatures(np.zeros((3, 5)))


class TestCandidatePairs:
    def test_exact_duplicates_always_candidates(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((6, 8))
        vectors[3] = vectors[0]  # duplicate direction
        hasher = SimHasher(8, 32, rng=np.random.default_rng(1))
        sigs = hasher.signatures(vectors)
        pairs = candidate_pairs(sigs, bands=4, rows=8)
        assert (0, 3) in pairs

    def test_band_overflow_rejected(self):
        sigs = np.zeros((3, 8), dtype=bool)
        with pytest.raises(ConfigurationError):
            candidate_pairs(sigs, bands=3, rows=4)

    def test_pairs_are_ordered(self):
        sigs = np.zeros((4, 8), dtype=bool)  # everything collides
        pairs = candidate_pairs(sigs, bands=1, rows=8)
        assert all(i < j for i, j in pairs)
        assert len(pairs) == 6


class TestLshSimilarPairs:
    def _clustered_vectors(self, rng, n_clusters=4, per_cluster=8, dim=24, noise=0.15):
        centers = rng.standard_normal((n_clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rows = []
        for c in range(n_clusters):
            for _ in range(per_cluster):
                v = centers[c] + rng.normal(0, noise, dim)
                rows.append(v / np.linalg.norm(v))
        return np.asarray(rows)

    def test_perfect_precision(self):
        rng = np.random.default_rng(0)
        vectors = self._clustered_vectors(rng)
        result = lsh_similar_pairs(vectors, tau=0.8, rng=rng)
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        for i, j in result.pairs:
            assert float(unit[i] @ unit[j]) >= 0.8

    def test_high_recall_on_clustered_data(self):
        rng = np.random.default_rng(1)
        vectors = self._clustered_vectors(rng)
        tau = 0.8
        result = lsh_similar_pairs(
            vectors, tau=tau, n_bits=96, target_recall=0.98, rng=np.random.default_rng(2)
        )
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = unit @ unit.T
        truth = {
            (i, j)
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
            if sims[i, j] >= tau
        }
        found = set(result.pairs)
        assert truth, "test setup must contain similar pairs"
        recall = len(found & truth) / len(truth)
        assert recall >= 0.9

    def test_checks_fewer_pairs_than_brute_force(self):
        rng = np.random.default_rng(3)
        vectors = self._clustered_vectors(rng, n_clusters=8, per_cluster=10)
        result = lsh_similar_pairs(vectors, tau=0.85, rng=np.random.default_rng(4))
        assert result.candidate_fraction < 0.8

    def test_diagnostics(self):
        rng = np.random.default_rng(5)
        vectors = self._clustered_vectors(rng)
        result = lsh_similar_pairs(vectors, tau=0.9, rng=rng)
        assert result.n_vectors == len(vectors)
        assert result.bands * result.rows <= 64
        assert len(result.similarities) == len(result.pairs)


# ---------------------------------------------------------------------------
# Instance pipeline
# ---------------------------------------------------------------------------


class TestSparsifyInstance:
    def test_exact_mode_matches_threshold(self, small_instance):
        via_pipeline, report = sparsify_instance(small_instance, 0.5, method="exact")
        via_threshold, _ = threshold_sparsify(small_instance, 0.5)
        assert via_pipeline.similarity_nnz() == via_threshold.similarity_nnz()
        sel = list(range(0, small_instance.n, 2))
        assert score(via_pipeline, sel) == pytest.approx(score(via_threshold, sel))
        assert report.pairs_checked == report.pairs_possible

    def test_lsh_mode_requires_embeddings(self, figure1):
        with pytest.raises(ConfigurationError):
            sparsify_instance(figure1, 0.5, method="lsh")

    def test_lsh_never_invents_similarity(self, small_instance):
        sparse, _ = sparsify_instance(
            small_instance, 0.5, method="lsh", rng=np.random.default_rng(0)
        )
        for q_sparse, q_dense in zip(sparse.subsets, small_instance.subsets):
            for i in range(len(q_sparse)):
                idx, vals = q_sparse.similarity.neighbors(i)
                for j, v in zip(idx, vals):
                    assert v == pytest.approx(q_dense.similarity.pair(i, int(j)))

    def test_lsh_subset_of_exact(self, small_instance):
        exact, _ = sparsify_instance(small_instance, 0.5, method="exact")
        lsh, _ = sparsify_instance(
            small_instance, 0.5, method="lsh", rng=np.random.default_rng(0)
        )
        assert lsh.similarity_nnz() <= exact.similarity_nnz()

    def test_report_fields(self, small_instance):
        _, report = sparsify_instance(small_instance, 0.6, method="exact")
        assert report.tau == 0.6
        assert report.method == "exact"
        assert 0.0 <= report.kept_fraction <= 1.0
        assert 0.0 <= report.checked_fraction <= 1.0

    def test_invalid_inputs(self, small_instance):
        with pytest.raises(ConfigurationError):
            sparsify_instance(small_instance, -0.1)
        with pytest.raises(ConfigurationError):
            sparsify_instance(small_instance, 0.5, method="nope")

    def test_quality_loss_small_at_moderate_tau(self, small_instance):
        """Figure 5e's shape: moderate sparsification barely hurts greedy."""
        from repro.core.greedy import main_algorithm

        dense_run = main_algorithm(small_instance)
        sparse, _ = sparsify_instance(small_instance, 0.3, method="exact")
        sparse_run = main_algorithm(sparse)
        true_value = score(small_instance, sparse_run.selection)
        assert true_value >= 0.8 * dense_run.value


class TestLshMatchesOracle:
    """``method="lsh"`` runs ``repro.scale``'s pair emitter; the set-based
    emitter of ``tests/oracles/lsh.py`` must give the very same CSR."""

    @staticmethod
    def _assert_matches(instance, tau):
        got, report = sparsify_instance(
            instance, tau, method="lsh", rng=np.random.default_rng(11)
        )
        subsets, checked = lsh_sparsify_reference(
            instance, tau, rng=np.random.default_rng(11)
        )
        assert report.pairs_checked == checked
        assert len(got.subsets) == len(subsets)
        for ours, theirs in zip(got.subsets, subsets):
            for a, b in zip(ours.similarity.csr(), theirs.similarity.csr()):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)  # bit-exact, not allclose
        return checked

    def test_random_instances(self):
        checked = [self._assert_matches(random_instance(seed), 0.5) for seed in range(6)]
        assert min(checked) > 0

    @pytest.fixture(scope="class")
    def ecommerce(self):
        from repro.datasets.ecommerce import generate_ecommerce_dataset

        dataset = generate_ecommerce_dataset("Fashion", 1500, n_queries=60, seed=5)
        return dataset.instance(dataset.total_cost() * 0.3)

    @pytest.mark.parametrize("tau", [0.6, 0.8])
    def test_ecommerce_instance(self, ecommerce, tau):
        assert self._assert_matches(ecommerce, tau) > 10_000

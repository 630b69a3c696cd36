"""Tests for the instance/solution JSON wire format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.instance import SparseSimilarity
from repro.core.serialize import (
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    json_default,
    solution_to_dict,
)
from repro.core.solver import solve
from repro.errors import ValidationError
from repro.scale import build_streamed_instance, synthetic_archive
from repro.sparsify.threshold import threshold_sparsify

from tests.conftest import (
    MALFORMED_CSR,
    MALFORMED_IDS,
    NON_FINITE,
    VALID_CSR,
    csr_instance_doc,
    non_finite_doc,
    random_instance,
)


class TestInstanceRoundTrip:
    def test_dense_round_trip(self, figure1):
        clone = instance_from_json(instance_to_json(figure1))
        assert clone.n == figure1.n
        assert clone.budget == figure1.budget
        assert [q.subset_id for q in clone.subsets] == [
            q.subset_id for q in figure1.subsets
        ]
        for q_old, q_new in zip(figure1.subsets, clone.subsets):
            assert q_new.relevance == pytest.approx(q_old.relevance)
            assert np.allclose(q_new.similarity.matrix, q_old.similarity.matrix)

    def test_sparse_round_trip(self, figure1):
        sparse, _ = threshold_sparsify(figure1, 0.6)
        clone = instance_from_json(instance_to_json(sparse))
        assert clone.is_sparse()
        assert clone.similarity_nnz() == sparse.similarity_nnz()
        for q_old, q_new in zip(sparse.subsets, clone.subsets):
            for photo in q_old.members:
                for other in q_old.members:
                    assert q_new.sim(int(photo), int(other)) == pytest.approx(
                        q_old.sim(int(photo), int(other))
                    )

    def test_round_trip_preserves_solver_output(self, small_instance):
        clone = instance_from_json(instance_to_json(small_instance))
        a = solve(small_instance, "phocus")
        b = solve(clone, "phocus")
        assert a.selection == b.selection
        assert a.value == pytest.approx(b.value)

    def test_retained_and_embeddings_preserved(self):
        inst = random_instance(seed=7, retained=2)
        clone = instance_from_json(instance_to_json(inst))
        assert clone.retained == inst.retained
        assert np.allclose(clone.embeddings, inst.embeddings)

    def test_none_embeddings(self, figure1):
        clone = instance_from_json(instance_to_json(figure1))
        assert clone.embeddings is None

    def test_json_is_plain_text(self, figure1):
        text = instance_to_json(figure1)
        doc = json.loads(text)
        assert doc["format"] == 1
        assert len(doc["photos"]) == 7

    def test_rejects_bad_format_version(self, figure1):
        doc = instance_to_dict(figure1)
        doc["format"] = 99
        with pytest.raises(ValidationError):
            instance_from_dict(doc)

    def test_rejects_invalid_json(self):
        with pytest.raises(ValidationError):
            instance_from_json("{not json")
        with pytest.raises(ValidationError):
            instance_from_json("[1, 2]")

    def test_rejects_unknown_similarity_kind(self, figure1):
        doc = instance_to_dict(figure1)
        doc["subsets"][0]["similarity"]["kind"] = "holographic"
        with pytest.raises(ValidationError):
            instance_from_dict(doc)


def _streamed(dtype=np.float64):
    costs, emb = synthetic_archive(120, dim=8, seed=4)
    instance, _ = build_streamed_instance(
        costs, emb, float(costs.sum()) * 0.3, tau=0.6, rng=2, dtype=dtype,
        keep_embeddings=True,
    )
    return instance


def _assert_same_csr(a, b):
    pairs = zip(a.subsets[0].similarity.csr(), b.subsets[0].similarity.csr())
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestArrayForm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_array_form_round_trip_is_exact(self, dtype):
        inst = _streamed(dtype)
        doc = instance_to_dict(inst, arrays=True)
        sim = doc["subsets"][0]["similarity"]
        assert set(sim) >= {"size", "indptr", "indices", "values"}
        assert "rows" not in sim
        assert isinstance(doc["embeddings"], np.ndarray)
        clone = instance_from_dict(doc)
        _assert_same_csr(clone, inst)
        assert np.array_equal(clone.embeddings, inst.embeddings)
        a, b = solve(inst), solve(clone)
        assert (a.selection, a.value) == (b.selection, b.value)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_csr_form_as_json_round_trips_exactly(self, dtype):
        inst = _streamed(dtype)
        text = json.dumps(instance_to_dict(inst, arrays=True), default=json_default)
        clone = instance_from_json(text)
        _assert_same_csr(clone, inst)
        a, b = solve(inst), solve(clone)
        assert (a.selection, a.value) == (b.selection, b.value)

    def test_default_output_keeps_the_rows_form(self, figure1):
        sparse, _ = threshold_sparsify(figure1, 0.6)
        doc = instance_to_dict(sparse)
        assert all("rows" in q["similarity"] for q in doc["subsets"])
        assert "indptr" not in json.dumps(doc)
        json.dumps(doc)  # lists only: no default hook needed

    def test_dense_array_form_round_trips(self, figure1):
        clone = instance_from_dict(instance_to_dict(figure1, arrays=True))
        for old, new in zip(figure1.subsets, clone.subsets):
            assert np.array_equal(old.similarity.matrix, new.similarity.matrix)


def _csr(**fields):
    sim = {**VALID_CSR, **fields}
    return (
        sim["size"],
        np.array(sim["indptr"]),
        np.array(sim["indices"]),
        np.array(sim["values"], dtype=np.float64),
    )


#: The MALFORMED_CSR cases that are well-typed arrays: from_csr's own checks.
_ARRAY_CASES = [
    "diagonal-twice-hides-missing",
    "row-without-diagonal",
    "duplicate-off-diagonal",
    "duplicate-unsorted-row",
    "index-out-of-range",
    "negative-index",
    "value-above-one",
    "negative-value",
    "diagonal-not-one",
    "values-length-mismatch",
    "indptr-too-short",
    "indptr-not-from-zero",
    "indptr-decreasing",
    "indptr-short-of-entries",
    "size-mismatch",
    "size-negative",
]


class TestCsrValidation:
    def test_valid_csr_accepted(self):
        sim = SparseSimilarity.from_csr(*_csr())
        assert sim.pair(1, 2) == 0.4

    def test_unsorted_columns_without_duplicates_accepted(self):
        sim = SparseSimilarity.from_csr(
            *_csr(
                indices=[1, 0, 2, 0, 1, 2, 1],
                values=[0.5, 1.0, 0.4, 0.5, 1.0, 1.0, 0.4],
            )
        )
        assert sim.pair(0, 1) == 0.5 and sim.pair(2, 2) == 1.0

    def test_values_within_tolerance_are_clipped_like_rows(self):
        vals = [1.0, 0.5, -1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-12, 1.0]
        sim = SparseSimilarity.from_csr(*_csr(values=vals))
        rows = SparseSimilarity(
            3,
            [np.array([0, 1]), np.array([0, 1, 2]), np.array([1, 2])],
            [np.array(vals[0:2]), np.array(vals[2:5]), np.array(vals[5:7])],
        )
        for got, want in zip(sim.csr(), rows.csr()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", _ARRAY_CASES)
    def test_from_csr_rejects(self, case):
        with pytest.raises(ValidationError):
            SparseSimilarity.from_csr(*_csr(**MALFORMED_CSR[case]))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSR))
    def test_csr_form_document_rejects(self, case):
        with pytest.raises(ValidationError):
            instance_from_dict(csr_instance_doc(**MALFORMED_CSR[case]))

    @pytest.mark.parametrize("case", sorted(MALFORMED_IDS))
    def test_non_integral_ids_reject(self, case):
        with pytest.raises(ValidationError):
            instance_from_dict(csr_instance_doc(**MALFORMED_IDS[case]))

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_numbers_reject(self, case):
        with pytest.raises(ValidationError):
            instance_from_dict(non_finite_doc(case))

    def test_integral_float_ids_accepted(self):
        inst = instance_from_dict(
            csr_instance_doc(photo_ids=[0.0, 1.0, 2.0], members=[0.0, 1.0, 2.0])
        )
        assert inst.subsets[0].members.tolist() == [0, 1, 2]

    def test_csr_form_document_accepted(self):
        inst = instance_from_dict(csr_instance_doc())
        assert inst.subsets[0].similarity.is_sparse
        assert solve(inst).selection


class TestSolutionSerialisation:
    def test_fields(self, figure1):
        solution = solve(figure1, "phocus", certificate=True)
        doc = solution_to_dict(solution)
        assert doc["algorithm"] == "phocus"
        assert doc["selection"] == solution.selection
        assert doc["value"] == pytest.approx(solution.value)
        assert 0 < doc["ratio_certificate"] <= 1.0
        json.dumps(doc)  # must be JSON-clean

    def test_numpy_extras_are_converted(self, figure1):
        solution = solve(figure1, "phocus")
        solution.extras["array"] = np.array([1, 2])
        solution.extras["np_int"] = np.int64(5)
        doc = solution_to_dict(solution)
        assert doc["extras"]["array"] == [1, 2]
        assert doc["extras"]["np_int"] == 5
        json.dumps(doc)

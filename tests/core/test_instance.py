"""Unit tests for the PAR model (instance.py)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import instance as instance_module
from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
    SparseSimilarity,
    SubsetSpec,
    normalize_relevance,
)
from repro.errors import InfeasibleError, ValidationError

from tests.conftest import random_instance
from tests.oracles.similarity import dense_csr, stored_matrix


# ---------------------------------------------------------------------------
# normalize_relevance
# ---------------------------------------------------------------------------


class TestNormalizeRelevance:
    def test_sums_to_one(self):
        rel = normalize_relevance([1.0, 3.0])
        assert rel == pytest.approx([0.25, 0.75])

    def test_already_normalized_is_unchanged(self):
        rel = normalize_relevance([0.2, 0.8])
        assert rel == pytest.approx([0.2, 0.8])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normalize_relevance([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            normalize_relevance([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            normalize_relevance([])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            normalize_relevance(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Photo
# ---------------------------------------------------------------------------


class TestPhoto:
    def test_valid(self):
        photo = Photo(photo_id=3, cost=1024.0, label="x", metadata={"a": 1})
        assert photo.cost == 1024.0
        assert photo.metadata["a"] == 1

    def test_negative_id(self):
        with pytest.raises(ValidationError):
            Photo(photo_id=-1, cost=1.0)

    @pytest.mark.parametrize("cost", [0.0, -5.0])
    def test_nonpositive_cost(self, cost):
        with pytest.raises(ValidationError):
            Photo(photo_id=0, cost=cost)


# ---------------------------------------------------------------------------
# DenseSimilarity
# ---------------------------------------------------------------------------


class TestDenseSimilarity:
    def test_valid_matrix(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        sim = DenseSimilarity(m)
        assert len(sim) == 2
        assert sim.pair(0, 1) == pytest.approx(0.5)
        assert not sim.is_sparse

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            DenseSimilarity(np.ones((2, 3)))

    def test_rejects_out_of_range(self):
        m = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValidationError):
            DenseSimilarity(m)

    def test_rejects_bad_diagonal(self):
        m = np.array([[0.9, 0.5], [0.5, 1.0]])
        with pytest.raises(ValidationError):
            DenseSimilarity(m)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.2], [0.8, 1.0]])
        with pytest.raises(ValidationError):
            DenseSimilarity(m)

    def test_row_and_neighbors(self):
        m = np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.7], [0.4, 0.7, 1.0]])
        sim = DenseSimilarity(m)
        assert sim.row(0) == pytest.approx([1.0, 0.0, 0.4])
        idx, vals = sim.neighbors(0)
        assert list(idx) == [0, 2]
        assert vals == pytest.approx([1.0, 0.4])

    def test_nnz_counts_nonzeros(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert DenseSimilarity(m).nnz() == 2

    def test_sparsified_keeps_diagonal(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        sparse = DenseSimilarity(m).sparsified(0.5)
        assert isinstance(sparse, SparseSimilarity)
        assert sparse.pair(0, 0) == 1.0
        assert sparse.pair(0, 1) == 0.0

    def test_sparsified_keeps_entries_at_threshold(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        sparse = DenseSimilarity(m).sparsified(0.5)
        assert sparse.pair(0, 1) == pytest.approx(0.5)


def _same_bytes(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


#: Entries that test the CSR's and the constructor's edges: signed zeros,
#: the smallest subnormal, values just outside [0, 1] within tolerance.
_EDGE_VALUES = [0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, 1e-300, -1e-10, 1.0 + 1e-10]


@st.composite
def _similarity_matrices(draw):
    """Square matrices in [0, 1] (within tolerance) with a unit diagonal:
    rows of zeros and signed zeros, all-nonzero rows, diagonal-only rows,
    1x1.  ``symmetric`` mirrors the upper triangle bit for bit; otherwise
    one side of each pair may differ in its last bits or the sign of a
    zero."""
    m = draw(st.integers(1, 9))
    entries = st.sampled_from(_EDGE_VALUES) | st.floats(0.0, 1.0)
    matrix = np.array(
        draw(st.lists(entries, min_size=m * m, max_size=m * m)), dtype=np.float64
    ).reshape(m, m)
    for row in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        matrix[row] = draw(st.sampled_from([0.0, -0.0]))  # diagonal-only row
    for row in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        matrix[row] = np.maximum(matrix[row], 0.25)  # all-nonzero row
    upper = np.triu_indices(m, 1)
    matrix.T[upper] = matrix[upper]
    if not draw(st.booleans()):
        nudge = draw(st.lists(st.sampled_from([0, 1, -1, "sign"]), min_size=m * m, max_size=m * m))
        for k, (i, j) in enumerate(zip(*upper)):
            if nudge[k] == "sign":
                matrix[j, i] = -matrix[j, i] if matrix[j, i] == 0 else matrix[j, i]
            elif nudge[k]:
                matrix[j, i] = np.nextafter(matrix[j, i], nudge[k] * np.inf)
    np.fill_diagonal(matrix, 1.0)
    return matrix


class TestDenseEntries:
    @settings(max_examples=200, deadline=None)
    @given(matrix=_similarity_matrices())
    def test_csr_equals_the_nonzero_formulation(self, matrix):
        # adopt keeps the signed zeros the constructor would clip away.
        _same_bytes(DenseSimilarity.adopt(matrix).csr(), dense_csr(matrix))
        sim = DenseSimilarity(matrix)
        _same_bytes(sim.csr(), dense_csr(sim.matrix))

    @settings(max_examples=200, deadline=None)
    @given(matrix=_similarity_matrices())
    def test_stored_matrix_equals_the_averaged_one(self, matrix):
        stored = DenseSimilarity(matrix).matrix
        _same_bytes([stored], [stored_matrix(matrix)])
        assert not np.shares_memory(stored, matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.ones((1, 1)),
            np.zeros((1, 1)),
            np.eye(4),
            np.where(np.eye(3) == 1, 1.0, -0.0),
            np.full((3, 3), -0.0),
            np.ones((5, 5)),
            np.zeros((0, 0)),
        ],
        ids=["1x1", "1x1-zero", "diagonal", "negative-zeros", "all-negative-zero", "all-ones", "empty"],
    )
    def test_csr_on_fixed_matrices(self, matrix):
        _same_bytes(DenseSimilarity.adopt(matrix).csr(), dense_csr(matrix))


# ---------------------------------------------------------------------------
# SparseSimilarity
# ---------------------------------------------------------------------------


class TestSparseSimilarity:
    def _make(self):
        indices = [np.array([0, 1]), np.array([0, 1]), np.array([2])]
        values = [np.array([1.0, 0.6]), np.array([0.6, 1.0]), np.array([1.0])]
        return SparseSimilarity(3, indices, values)

    def test_basic(self):
        sim = self._make()
        assert len(sim) == 3
        assert sim.is_sparse
        assert sim.pair(0, 1) == pytest.approx(0.6)
        assert sim.pair(0, 2) == 0.0

    def test_self_entry_added_automatically(self):
        sim = SparseSimilarity(2, [np.array([]), np.array([])], [np.array([]), np.array([])])
        assert sim.pair(0, 0) == 1.0
        assert sim.pair(1, 1) == 1.0

    def test_self_entry_forced_to_one(self):
        sim = SparseSimilarity(1, [np.array([0])], [np.array([0.2])])
        assert sim.pair(0, 0) == 1.0

    def test_row_densifies(self):
        sim = self._make()
        assert sim.row(0) == pytest.approx([1.0, 0.6, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            SparseSimilarity(2, [np.array([0])], [np.array([1.0]), np.array([1.0])])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError):
            SparseSimilarity(2, [np.array([5]), np.array([])], [np.array([0.5]), np.array([])])

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValidationError):
            SparseSimilarity(2, [np.array([1]), np.array([])], [np.array([1.5]), np.array([])])

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValidationError):
            SparseSimilarity(
                2, [np.array([1, 1]), np.array([])], [np.array([0.5, 0.6]), np.array([])]
            )

    def test_nnz(self):
        assert self._make().nnz() == 5

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 40),
        pairs=st.integers(0, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entry_order_is_lexsorts_order(self, size, pairs, seed):
        rng = np.random.default_rng(seed)
        # Few distinct pairs, so equal (row, col) entries are common.
        rows = rng.integers(0, size, pairs) % max(1, size // 3)
        cols = rng.integers(0, size, pairs)
        order = instance_module._entry_order(rows, cols, size)
        assert order.tolist() == np.lexsort((cols, rows)).tolist()
        # Duplicate pairs pass under validate=False and land in input order.
        ii, jj = rows[rows != cols], cols[rows != cols]
        vv = rng.random(ii.size)
        sim = SparseSimilarity.from_pairs(size, ii, jj, vv, validate=False)
        all_r = np.concatenate([ii, jj, np.arange(size)])
        all_c = np.concatenate([jj, ii, np.arange(size)])
        all_v = np.concatenate([vv, vv, np.ones(size)])
        ref = np.lexsort((all_c, all_r))
        indptr, got_cols, got_vals = sim.csr()
        assert got_cols.tolist() == all_c[ref].tolist()
        assert got_vals.tobytes() == all_v[ref].tobytes()
        assert indptr.tolist() == [0, *np.cumsum(np.bincount(all_r, minlength=size))]

    def test_entry_keys_must_fit_in_int64(self):
        limit = instance_module._MAX_SORTED_SIZE
        assert limit * limit <= np.iinfo(np.int64).max < (limit + 1) ** 2
        empty = np.zeros(0, dtype=np.int64)
        assert instance_module._entry_order(empty, empty, limit).size == 0
        with pytest.raises(ValidationError, match="too many"):
            instance_module._entry_order(empty, empty, limit + 1)


# ---------------------------------------------------------------------------
# PredefinedSubset
# ---------------------------------------------------------------------------


def _subset(**kwargs):
    defaults = dict(
        subset_id="q",
        weight=2.0,
        members=[3, 5],
        relevance=[1.0, 3.0],
        similarity=DenseSimilarity(np.array([[1.0, 0.5], [0.5, 1.0]])),
    )
    defaults.update(kwargs)
    return PredefinedSubset(**defaults)


class TestPredefinedSubset:
    def test_relevance_normalized(self):
        q = _subset()
        assert q.relevance == pytest.approx([0.25, 0.75])

    def test_contains_and_local_index(self):
        q = _subset()
        assert 5 in q
        assert 4 not in q
        assert q.local_index(5) == 1
        with pytest.raises(ValidationError):
            q.local_index(4)

    def test_sim_by_photo_id(self):
        q = _subset()
        assert q.sim(3, 5) == pytest.approx(0.5)
        assert q.sim(3, 3) == 1.0
        assert q.sim(3, 99) == 0.0  # non-member => similarity 0 by definition

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            _subset(weight=0.0)

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValidationError):
            _subset(members=[3, 3])

    def test_rejects_empty_members(self):
        with pytest.raises(ValidationError):
            _subset(members=[], relevance=[], similarity=DenseSimilarity(np.zeros((0, 0))))

    def test_rejects_relevance_length_mismatch(self):
        with pytest.raises(ValidationError):
            _subset(relevance=[1.0])

    def test_rejects_similarity_size_mismatch(self):
        with pytest.raises(ValidationError):
            _subset(similarity=DenseSimilarity(np.eye(3)))

    def test_no_normalize_requires_sum_one(self):
        with pytest.raises(ValidationError):
            PredefinedSubset(
                "q", 1.0, [0, 1], [0.5, 0.9],
                DenseSimilarity(np.eye(2)), normalize=False,
            )

    def test_with_similarity_replaces_backend(self):
        q = _subset()
        q2 = q.with_similarity(DenseSimilarity(np.eye(2)))
        assert q2.sim(3, 5) == 0.0
        assert q.sim(3, 5) == pytest.approx(0.5)  # original untouched
        assert q2.weight == q.weight
        assert q2.relevance == pytest.approx(q.relevance)


# ---------------------------------------------------------------------------
# PARInstance
# ---------------------------------------------------------------------------


class TestPARInstance:
    def test_membership_index(self, figure1):
        # p6 (id 5) belongs to Cats, Bookshelf and Books.
        subsets = [figure1.subsets[qi].subset_id for qi, _ in figure1.membership[5]]
        assert subsets == ["Cats", "Bookshelf", "Books"]

    def test_photo_id_must_match_position(self):
        photos = [Photo(photo_id=1, cost=1.0)]
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [_subset(members=[0, 1], similarity=DenseSimilarity(np.eye(2)))], 1.0)

    def test_rejects_empty_photo_list(self):
        with pytest.raises(ValidationError):
            PARInstance.from_photos([], [], 1.0)

    def test_rejects_nonpositive_budget(self):
        photos = [Photo(photo_id=0, cost=1.0), Photo(photo_id=1, cost=1.0)]
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [q], 0.0)

    def test_rejects_subset_with_unknown_photo(self):
        photos = [Photo(photo_id=0, cost=1.0)]
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 7], [1, 1], sim)
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [q], 1.0)

    def test_rejects_duplicate_subset_ids(self):
        photos = [Photo(photo_id=0, cost=1.0), Photo(photo_id=1, cost=1.0)]
        sim = DenseSimilarity(np.eye(2))
        q1 = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        q2 = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [q1, q2], 5.0)

    def test_retained_exceeding_budget_is_infeasible(self):
        photos = [Photo(photo_id=0, cost=3.0), Photo(photo_id=1, cost=3.0)]
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        with pytest.raises(InfeasibleError):
            PARInstance.from_photos(photos, [q], budget=2.0, retained=[0])

    def test_retained_out_of_range(self):
        photos = [Photo(photo_id=0, cost=1.0), Photo(photo_id=1, cost=1.0)]
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [q], 5.0, retained=[9])

    def test_cost_and_feasibility(self, figure1):
        assert figure1.cost_of([0, 1]) == pytest.approx(1.9e6)
        assert figure1.cost_of([]) == 0.0
        assert figure1.feasible([0, 1])
        assert not figure1.feasible([0, 1, 2, 3, 4])  # 5.7 Mb > 4 Mb

    def test_feasible_requires_retained(self):
        inst = random_instance(seed=7, retained=2)
        assert not inst.feasible([])
        assert inst.feasible(inst.retained)

    def test_total_cost(self, figure1):
        assert figure1.total_cost() == pytest.approx(8.1e6)

    def test_with_budget(self, figure1):
        other = figure1.with_budget(1.0e6)
        assert other.budget == 1.0e6
        assert figure1.budget == 4.0e6
        assert other.n == figure1.n

    def test_embeddings_shape_validated(self):
        photos = [Photo(photo_id=0, cost=1.0), Photo(photo_id=1, cost=1.0)]
        sim = DenseSimilarity(np.eye(2))
        q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], sim)
        with pytest.raises(ValidationError):
            PARInstance.from_photos(photos, [q], 5.0, embeddings=np.zeros((3, 4)))

    def test_is_sparse_and_nnz(self, figure1):
        assert not figure1.is_sparse()
        assert figure1.similarity_nnz() > 0

    def test_columns_build_the_photo_and_membership_views(self, figure1):
        q = PredefinedSubset("q", 1.0, [0, 2], [1, 1], DenseSimilarity(np.eye(2)))
        inst = PARInstance(np.array([2.0, 3.0, 4.0]), [q], 5.0, labels=["a", "b", "c"])
        assert inst.photos == [
            Photo(0, 2.0, "a"), Photo(1, 3.0, "b"), Photo(2, 4.0, "c")
        ]
        assert inst.membership == [[(0, 0)], [], [(0, 1)]]
        rebuilt = PARInstance(figure1.costs, figure1.subsets, figure1.budget)
        assert rebuilt.membership == figure1.membership
        assert [p.cost for p in rebuilt.photos] == [p.cost for p in figure1.photos]

    @pytest.mark.parametrize("cost", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_bad_cost_column(self, cost):
        q = PredefinedSubset("q", 1.0, [0, 1], [1, 1], DenseSimilarity(np.eye(2)))
        with pytest.raises(ValidationError):
            PARInstance(np.array([1.0, cost]), [q], 5.0)

    def test_rejects_photo_records_in_the_cost_column(self):
        photos = [Photo(photo_id=0, cost=1.0)]
        q = PredefinedSubset("q", 1.0, [0], [1], DenseSimilarity(np.eye(1)))
        with pytest.raises(ValidationError, match="from_photos"):
            PARInstance(photos, [q], 5.0)

    def test_trusted_path_adopts_arrays_and_still_checks_feasibility(self, figure1):
        other = figure1.with_budget(2.0e6)
        assert other.costs is figure1.costs
        assert other.incidence is figure1.incidence
        with pytest.raises(InfeasibleError):
            random_instance(seed=7, retained=2).with_budget(1e-9)

    def test_build_derives_cosine_similarity(self):
        photos = [Photo(photo_id=i, cost=1.0) for i in range(3)]
        emb = np.array([[1.0, 0.0], [1.0, 0.05], [0.0, 1.0]])
        spec = SubsetSpec("q", 1.0, [0, 1, 2], [1, 1, 1])
        inst = PARInstance.build(photos, [spec], 3.0, embeddings=emb)
        q = inst.subsets[0]
        assert q.sim(0, 1) > 0.9
        assert q.sim(0, 2) < 0.2

    def test_build_without_embeddings_requires_matrix(self):
        photos = [Photo(photo_id=0, cost=1.0)]
        spec = SubsetSpec("q", 1.0, [0], [1.0])
        with pytest.raises(ValidationError):
            PARInstance.build(photos, [spec], 1.0)

    def test_build_with_explicit_matrix(self):
        photos = [Photo(photo_id=0, cost=1.0), Photo(photo_id=1, cost=1.0)]
        spec = SubsetSpec("q", 1.0, [0, 1], [1, 1], similarity=np.array([[1.0, 0.3], [0.3, 1.0]]))
        inst = PARInstance.build(photos, [spec], 2.0)
        assert inst.subsets[0].sim(0, 1) == pytest.approx(0.3)


class TestWithAdjustedWeights:
    def test_scales_named_subsets_only(self, figure1):
        adjusted = figure1.with_adjusted_weights({"Cats": 5.0})
        by_id = {q.subset_id: q for q in adjusted.subsets}
        assert by_id["Cats"].weight == pytest.approx(5.0)
        assert by_id["Bikes"].weight == pytest.approx(9.0)
        # Original untouched.
        assert figure1.subsets[1].weight == 1.0

    def test_changes_solver_priorities(self, figure1):
        """Boosting a subset's weight steers the solver towards it — the
        UI affordance the paper describes."""
        from repro.core.greedy import UC, lazy_greedy

        base_first = lazy_greedy(figure1, UC).picks[0][0]
        assert base_first == 0  # Bikes photo first normally
        boosted = figure1.with_adjusted_weights({"Bookshelf": 20.0})
        boosted_first = lazy_greedy(boosted, UC).picks[0][0]
        assert boosted_first == 5  # p6 (the Bookshelf photo) now leads

    def test_unknown_subset_strict(self, figure1):
        with pytest.raises(ValidationError):
            figure1.with_adjusted_weights({"Dogs": 2.0})

    def test_unknown_subset_lenient(self, figure1):
        adjusted = figure1.with_adjusted_weights({"Dogs": 2.0}, strict=False)
        assert [q.weight for q in adjusted.subsets] == [
            q.weight for q in figure1.subsets
        ]

    def test_rejects_nonpositive_factor(self, figure1):
        with pytest.raises(ValidationError):
            figure1.with_adjusted_weights({"Cats": 0.0})

    def test_scores_scale_linearly(self, figure1):
        from repro.core.objective import score_breakdown

        adjusted = figure1.with_adjusted_weights({"Books": 3.0})
        base = score_breakdown(figure1, [5])
        boosted = score_breakdown(adjusted, [5])
        assert boosted["Books"] == pytest.approx(3.0 * base["Books"])
        assert boosted["Cats"] == pytest.approx(base["Cats"])


class TestRestricted:
    def test_remaps_ids_and_drops_empty_subsets(self, figure1):
        sub = figure1.restricted([5, 6])  # p6 and p7
        assert sub.n == 2
        ids = {q.subset_id for q in sub.subsets}
        # Bikes had members p1-p3 only -> dropped.
        assert ids == {"Cats", "Bookshelf", "Books"}

    def test_relevance_renormalized(self, figure1):
        sub = figure1.restricted([5, 6])
        books = next(q for q in sub.subsets if q.subset_id == "Books")
        assert float(books.relevance.sum()) == pytest.approx(1.0)

    def test_similarity_sliced(self, figure1):
        sub = figure1.restricted([5, 6])
        books = next(q for q in sub.subsets if q.subset_id == "Books")
        assert books.sim(0, 1) == pytest.approx(0.7)

    def test_scores_match_manual_subinstance(self, figure1):
        from repro.core.objective import score

        sub = figure1.restricted([3, 4, 5])  # Cats members
        cats = next(q for q in sub.subsets if q.subset_id == "Cats")
        # Selecting remapped photo 0 (= old p4): covers p4 at 1, p5 at .7, p6 at .4
        val = score(sub, [0])
        expected = cats.weight * (0.3 * 1.0 + 0.4 * 0.7 + 0.3 * 0.4)
        # Bookshelf/Books subsets get 0 from this selection.
        assert val == pytest.approx(expected)

    def test_retained_filtered_and_remapped(self):
        inst = random_instance(seed=7, retained=2)
        keep = sorted(inst.retained)[:1] + [
            p for p in range(inst.n) if p not in inst.retained
        ][:5]
        sub = inst.restricted(keep, budget=inst.budget)
        assert sub.retained == {keep.index(sorted(inst.retained)[0])}

    def test_rejects_duplicates(self, figure1):
        with pytest.raises(ValidationError):
            figure1.restricted([1, 1])

    def test_budget_override(self, figure1):
        sub = figure1.restricted([0, 1, 2], budget=2.0e6)
        assert sub.budget == 2.0e6

    def test_sparse_backend_restriction(self, figure1):
        from repro.sparsify.threshold import threshold_sparsify
        from repro.core.objective import score

        sparse, _ = threshold_sparsify(figure1, 0.0)
        sub_dense = figure1.restricted([0, 1, 2])
        sub_sparse = sparse.restricted([0, 1, 2])
        for sel in ([0], [0, 1], [1, 2]):
            assert score(sub_dense, sel) == pytest.approx(score(sub_sparse, sel))

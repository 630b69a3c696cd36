"""Float matrices: one placeholder for an array of equal-length float rows.

The native scan gives an array whose elements are all flat float arrays
of one length a single ``NaN`` placeholder and one tag carrying its
shape.  ``loads`` must still return exactly what ``json.loads`` returns
(values, types, float bits, key order, and the same errors with the same
messages); ``loads_request`` gives a C-contiguous 2-D float64 array where
:func:`repro.core.serialize.instance_from_dict` reads a matrix
(``similarity.matrix``, ``embeddings``) and lists everywhere else.  A
ragged array keeps one tag per row.  Without the native library ``loads``
is ``json.loads`` and these tests check the same answers.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.paper_example import figure1_instance
from repro.core.serialize import instance_to_dict, loads_request

from tests.conftest import random_instance
from tests.test_serialize_loads import _agrees, _same, layouts

SCANS = native.library() is not None
needs_scan = pytest.mark.skipif(not SCANS, reason="the native scanner cannot load here")


def _shape(rows: int, columns: int) -> int:
    """The scan's tag for a float array: rows 0 for a flat one."""
    return rows << native.SHAPE_BITS | columns


def _lists(value):
    """``value`` with every ndarray leaf a (nested) list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_lists(item) for item in value]
    return value


# ------------------------------------------------------------- documents

finite = st.floats(allow_nan=False, allow_infinity=False)


def matrices(rows=st.integers(1, 5), columns=st.integers(1, 5), values=finite):
    """Lists of equal-length float rows, 1x1 and 1xc included."""
    return st.tuples(rows, columns).flatmap(
        lambda shape: st.lists(
            st.lists(values, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


ragged = st.lists(st.lists(finite, min_size=1, max_size=4), min_size=2, max_size=5)

#: What makes a row, or an element of one, no float.
intruders = st.sampled_from([0, 7, -3, float("nan"), float("inf"), [], None, True, "1.5"])


@st.composite
def spoiled(draw):
    """A matrix with one element or row replaced, or a row appended,
    that is no float or no float row."""
    matrix = draw(matrices(rows=st.integers(1, 4)))
    intruder = draw(intruders)
    r = draw(st.integers(0, len(matrix) - 1))
    how = draw(st.sampled_from(["element", "row", "append"]))
    if how == "element":
        matrix[r][draw(st.integers(0, len(matrix[r]) - 1))] = intruder
    elif how == "row":
        matrix[r] = intruder
    else:
        matrix.append(intruder)
    return matrix


float_leaves = (
    matrices()
    | ragged
    | spoiled()
    | st.lists(matrices(rows=st.just(2), columns=st.just(2)), min_size=1, max_size=3)
    | st.lists(matrices(), min_size=1, max_size=3)  # three deep
    | st.lists(finite, min_size=1, max_size=5)
)

documents = st.recursive(
    float_leaves | st.none() | st.booleans() | st.integers(-5, 5) | finite | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestScanTags:
    @needs_scan
    @pytest.mark.parametrize(
        "text, tags",
        [
            ("[[1.5, 2.5], [3.5, 4.5]]", [_shape(2, 2)]),
            ("[[0.5]]", [_shape(1, 1)]),
            ("[[1.5, 2.5, 3.5]]", [_shape(1, 3)]),
            ("[ [1.5 ] ,\n[2.5]\t]", [_shape(2, 1)]),
            ("[1.5, 2.5]", [_shape(0, 2)]),
            ("[[1.5], [2.5, 3.5]]", [1, 2]),  # ragged: a tag per row
            ("[[1.5], [2]]", [1]),
            ("[[1.5], NaN]", [1, 0]),
            ("[[1.5], []]", [1]),
            ("[[1.5], [2.5], 3.5]", [1, 1]),
            ("[[[1.5], [2.5]], [[3.5], [4.5]]]", [_shape(2, 1)] * 2),
            ('{"m": [[0.5, 1.5]], "v": [2.5], "x": -Infinity}', [_shape(1, 2), 1, -2]),
        ],
    )
    def test_tags(self, text, tags):
        assert native.scan_json(text.encode())[1] == tags

    @needs_scan
    def test_an_instance_body_has_one_tag_per_matrix(self):
        instance = random_instance(0, n_photos=12, n_subsets=3)
        body = json.dumps({"instance": instance_to_dict(instance)}).encode()
        _, tags, values = native.scan_json(body)
        dense = [q.similarity.matrix.shape for q in instance.subsets]
        # relevance then matrix per subset, then the embeddings.
        want = []
        for q, (m, _) in zip(instance.subsets, dense):
            want += [_shape(0, len(q)), _shape(m, m)]
        want.append(_shape(*instance.embeddings.shape))
        assert tags == want
        assert values.size == sum(m + m * m for m, _ in dense) + instance.embeddings.size


class TestLoads:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents, layout=layouts, as_str=st.booleans())
    def test_documents_with_matrices_parse_identically(self, doc, layout, as_str):
        text = json.dumps(doc, **layout)
        _agrees(text if as_str else text.encode("utf-8"))

    @pytest.mark.parametrize(
        "text",
        [
            "[[1.5, 2.5], [3.5, 4.5]]",
            "[[0.5]]",
            "[[-0.0, 0.0], [1e400, -1e-400]]",
            "[[1.5, 2.5], [3.5]]",
            "[[1.5], [2.5, 3.5]]",
            "[[1.5], [NaN]]",
            "[[1.5], NaN]",
            "[[1.5], []]",
            "[[], [1.5]]",
            "[[1.5], [2]]",
            "[[1.5], 2.5]",
            "[[1.5], [2.5], 3]",
            "[[[1.5]], [[2.5]]]",
            "[[1.5, 2.5], [3.5, 4.5]",
            "[[1.5, 2.5], [3.5, 4.5],]",
            "[[1.5,], [2.5]]",
            "[[1.5] [2.5]]",
            "[[1.5], [2.5]] [",
            "[[1.5]]NaN",
            "{[[1.5]]: 1}",
            '{"a" [[1.5]]}',
            "-[[1.5]]",
            "[[01.5]]",
            "[[1.5], [+2.5]]",
        ],
    )
    def test_fixed_documents(self, text):
        _agrees(text)
        _agrees(text.encode("utf-8"))

    def test_every_truncation_of_a_matrix_raises_like_json(self):
        text = json.dumps({"m": [[0.25, 1.5e-7, -3.0], [4.5, 5.0, 6.125]], "n": [[7.5]]})
        for cut in range(len(text)):
            _agrees(text[:cut])

    def test_mutated_matrix_bytes_raise_or_parse_like_json(self):
        rng = random.Random(3)
        body = json.dumps({"m": [[rng.random() for _ in range(4)] for _ in range(5)]})
        alphabet = '[]{}",:.eE+-0123456789 NaIfinty'
        for _ in range(400):
            raw = list(body)
            for _ in range(rng.randint(1, 3)):
                raw[rng.randrange(len(raw))] = rng.choice(alphabet)
            _agrees("".join(raw))

    def test_dense_short_rows_fill_the_first_buffers(self):
        # Ten bytes per two values overflow the buffers sized for
        # ordinary documents; the worst-case sizing must take over.
        _agrees("[" + ",".join(["[0e0,0e0]"] * 3000) + "]")
        _agrees("[" + ",".join(["[[0e0],[0e0]]"] * 2000) + "]")

    def test_instance_bodies(self):
        for instance in (figure1_instance(4.0), random_instance(1, n_photos=15)):
            _agrees(json.dumps({"instance": instance_to_dict(instance)}).encode())


# ---------------------------------------------------------- loads_request


def _request(metadata_matrix, budgets, instance=None) -> bytes:
    doc = instance_to_dict(instance if instance is not None else random_instance(2))
    doc["photos"][0]["metadata"] = {"box": metadata_matrix}
    return json.dumps({"instance": doc, "budgets": budgets}).encode()


class TestLoadsRequest:
    def test_matrix_slots_hold_2d_arrays(self):
        body = _request([[0.5, 0.25]], [[1.5, 2.5], [3.5, 4.5]])
        got, want = loads_request(body), json.loads(body)
        _same(_lists(got), want)
        leaves = [q["similarity"]["matrix"] for q in got["instance"]["subsets"]]
        leaves.append(got["instance"]["embeddings"])
        for leaf in leaves:
            if not SCANS:
                assert isinstance(leaf, list)
                continue
            assert isinstance(leaf, np.ndarray)
            assert leaf.dtype == np.float64 and leaf.ndim == 2 and leaf.flags.c_contiguous
        # Outside the slots a matrix is the list json.loads gives.
        _same(got["budgets"], want["budgets"])
        _same(got["instance"]["photos"][0], want["instance"]["photos"][0])

    @settings(max_examples=100, deadline=None)
    @given(box=float_leaves, budgets=float_leaves, seed=st.integers(0, 50))
    def test_matrices_outside_the_slots_come_back_as_lists(self, box, budgets, seed):
        body = _request(box, budgets, random_instance(seed, n_photos=6, n_subsets=2))
        got, want = loads_request(body), json.loads(body)
        _same(got["budgets"], want["budgets"])
        _same(got["instance"]["photos"], want["instance"]["photos"])
        _same(_lists(got), want)

    @settings(max_examples=100, deadline=None)
    @given(matrix=matrices(rows=st.integers(1, 6), columns=st.integers(1, 6)))
    def test_embeddings_of_any_shape(self, matrix):
        doc = instance_to_dict(figure1_instance(4.0))
        doc["embeddings"] = matrix
        body = json.dumps({"instance": doc}).encode()
        got, want = loads_request(body), json.loads(body)
        _same(_lists(got), want)
        if SCANS:
            leaf = got["instance"]["embeddings"]
            assert isinstance(leaf, np.ndarray) and leaf.shape == np.shape(matrix)
            assert leaf.tobytes() == np.array(want["instance"]["embeddings"]).tobytes()

    def test_a_ragged_matrix_keeps_its_rows(self):
        doc = instance_to_dict(figure1_instance(4.0))
        doc["subsets"][0]["similarity"]["matrix"] = [[1.0, 0.5], [0.5]]
        body = json.dumps({"instance": doc}).encode()
        got, want = loads_request(body), json.loads(body)
        _same(_lists(got), want)
        rows = got["instance"]["subsets"][0]["similarity"]["matrix"]
        assert isinstance(rows, list) and len(rows) == 2

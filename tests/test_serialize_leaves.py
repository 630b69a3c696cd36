"""Inline bodies decode the same from ndarray leaves as from list leaves.

``serialize.loads_request`` hands the inline solve routes a document whose
float arrays under ``instance`` are ndarray slices of the native scan;
``json.loads`` reads the same text as lists.  Both documents must decode
to the same instance, reject the same malformed documents, and agree
exactly on every key outside ``instance``.  Without the native library
both sides are lists, and these tests run the same assertions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.paper_example import figure1_instance
from repro.core.serialize import (
    instance_from_dict,
    instance_to_dict,
    json_default,
    loads_request,
)
from repro.datasets.ecommerce import generate_ecommerce_dataset
from repro.datasets.personal import generate_personal_dataset
from repro.datasets.public import generate_public_dataset
from repro.errors import ValidationError
from repro.scale import build_streamed_instance, synthetic_archive
from repro.sparsify.threshold import threshold_sparsify

from tests.conftest import (
    MALFORMED_CSR,
    MALFORMED_IDS,
    NON_FINITE,
    csr_instance_doc,
    non_finite_doc,
)
from tests.core.test_greedy_properties import par_instances
from tests.test_serialize_loads import _same


def _fraction(dataset, share: float = 0.3):
    return dataset.instance(dataset.total_cost() * share)


def _streamed():
    costs, emb = synthetic_archive(150, dim=8, seed=5)
    instance, _ = build_streamed_instance(
        costs, emb, float(costs.sum()) * 0.3, tau=0.6, rng=1, keep_embeddings=True
    )
    return instance


#: Instance makers, one per generator and wire form.
INSTANCES = {
    "ecommerce": lambda: _fraction(
        generate_ecommerce_dataset("Fashion", 24, n_queries=6, seed=3)
    ),
    "personal": lambda: _fraction(generate_personal_dataset(n_events=3, seed=1)),
    "public": lambda: _fraction(generate_public_dataset(60, 10, seed=2)),
    "paper": lambda: figure1_instance(4.0),
    "paper-rows": lambda: threshold_sparsify(figure1_instance(4.0), 0.6)[0],
    "streamed-csr": _streamed,
}

#: The instances a client sends in the CSR form (instance_to_dict's
#: array form rendered as JSON) rather than the default one.
CSR_FORM = {"streamed-csr"}


def _body(doc, **extra) -> bytes:
    return json.dumps({"instance": doc, **extra}, default=json_default).encode()


_INCIDENCE_FIELDS = (
    "subset_offsets",
    "photo_member_indptr",
    "member_entry_indptr",
    "entry_indptr",
    "slots",
    "sims",
    "slot_wrel",
)


def _arrays(instance):
    """Every array an instance keeps, by name."""
    out = {"costs": instance.costs}
    if instance.embeddings is not None:
        out["embeddings"] = instance.embeddings
    for qi, q in enumerate(instance.subsets):
        out[f"q{qi}.members"] = q.members
        out[f"q{qi}.relevance"] = q.relevance
        if q.similarity.is_sparse:
            for name, arr in zip(("indptr", "cols", "vals"), q.similarity.csr()):
                out[f"q{qi}.{name}"] = arr
        else:
            out[f"q{qi}.matrix"] = q.similarity.matrix
    for name in _INCIDENCE_FIELDS:
        out[f"incidence.{name}"] = getattr(instance.incidence, name)
    return out


def _assert_same(got, want) -> None:
    assert (got.n, got.budget, got.retained) == (want.n, want.budget, want.retained)
    assert [q.subset_id for q in got.subsets] == [q.subset_id for q in want.subsets]
    assert [q.weight for q in got.subsets] == [q.weight for q in want.subsets]
    got_arrays, want_arrays = _arrays(got), _arrays(want)
    assert list(got_arrays) == list(want_arrays)
    for name, arr in want_arrays.items():
        assert got_arrays[name].dtype == arr.dtype, name
        assert np.array_equal(got_arrays[name], arr), name
    assert instance_to_dict(got) == instance_to_dict(want)


def _scan_buffers(doc):
    """The buffers behind a parsed document's ndarray leaves."""
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            found.append(value.base if value.base is not None else value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(doc)
    return found


def _check_body(body: bytes) -> None:
    leaves = loads_request(body)["instance"]
    lists = json.loads(body)["instance"]
    got, want = instance_from_dict(leaves), instance_from_dict(lists)
    _assert_same(got, want)
    # The instance copies what it keeps: no array views the scan buffer.
    for buffer in _scan_buffers(leaves):
        for name, arr in _arrays(got).items():
            assert not np.shares_memory(arr, buffer), name


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_leaf_forms_decode_to_the_same_instance(name):
    instance = INSTANCES[name]()
    body = _body(instance_to_dict(instance, arrays=name in CSR_FORM))
    if native.library() is not None:
        relevance = loads_request(body)["instance"]["subsets"][0]["relevance"]
        assert isinstance(relevance, np.ndarray)
    _check_body(body)
    # The wire document is the parent's: it round-trips unchanged.
    assert instance_to_dict(instance_from_dict(json.loads(body)["instance"])) == (
        instance_to_dict(instance)
    )


@settings(max_examples=25, deadline=None)
@given(inst=par_instances())
def test_hypothesis_instances_decode_alike(inst):
    _check_body(_body(instance_to_dict(inst)))


@settings(max_examples=25, deadline=None)
@given(inst=par_instances(), dim=st.integers(1, 5), seed=st.integers(0, 99))
def test_matrix_leaves_decode_alike(inst, dim, seed):
    """Dense matrices (1x1 for one-member subsets) and embeddings of any
    width arrive as 2-D arrays and decode to the instance the lists give."""
    doc = instance_to_dict(inst)
    doc["embeddings"] = np.random.default_rng(seed).standard_normal((inst.n, dim)).tolist()
    body = _body(doc)
    if native.library() is not None:
        leaves = loads_request(body)["instance"]
        for leaf in [q["similarity"]["matrix"] for q in leaves["subsets"]] + [
            leaves["embeddings"]
        ]:
            assert isinstance(leaf, np.ndarray) and leaf.ndim == 2
    _check_body(body)


#: A float matrix where instance_from_dict reads something else:
#: ``(form, path, value)``, the forms as in conftest's NON_FINITE.
MISPLACED_MATRICES = {
    "members": ("dense", ("subsets", 0, "members"), [[0.0, 1.0]]),
    "relevance": ("dense", ("subsets", 0, "relevance"), [[0.5, 0.5]]),
    "matrix-1x2": ("dense", ("subsets", 1, "similarity", "matrix"), [[1.0, 0.5]]),
    "matrix-ragged": ("dense", ("subsets", 1, "similarity", "matrix"), [[1.0, 0.5], [0.5]]),
    "matrix-3-deep": ("dense", ("subsets", 0, "similarity", "matrix"), [[[1.0]]]),
    "retained": ("dense", ("retained",), [[0.0]]),
    "embeddings-rows": ("dense", ("embeddings",), [[0.5, 0.5]]),
    "embeddings-3-deep": ("csr", ("embeddings",), [[[0.5]], [[0.5]], [[0.5]]]),
    "csr-indptr": ("csr", ("subsets", 0, "similarity", "indptr"), [[0.0, 2.0, 5.0, 7.0]]),
    "csr-indices": ("csr", ("subsets", 0, "similarity", "indices"), [[0.0] * 7]),
    "csr-values": ("csr", ("subsets", 0, "similarity", "values"), [[0.5] * 7]),
    "rows-values": ("rows", ("subsets", 0, "similarity", "rows", 0, "values"), [[1.0]]),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_MATRICES))
def test_a_misplaced_matrix_rejects_in_both_forms(case):
    form, path, value = MISPLACED_MATRICES[case]
    if form == "csr":
        doc = csr_instance_doc()
    else:
        instance = figure1_instance(4.0)
        if form == "rows":
            instance = threshold_sparsify(instance, 0.6)[0]
        doc = instance_to_dict(instance)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    body = _body(doc)
    for parsed in (loads_request(body), json.loads(body)):
        with pytest.raises(ValidationError):
            instance_from_dict(parsed["instance"])


#: Every malformed document of the conftest tables.
MALFORMED = {
    **{f"csr-{c}": (lambda c=c: csr_instance_doc(**MALFORMED_CSR[c])) for c in MALFORMED_CSR},
    **{f"ids-{c}": (lambda c=c: csr_instance_doc(**MALFORMED_IDS[c])) for c in MALFORMED_IDS},
    **{f"non-finite-{c}": (lambda c=c: non_finite_doc(c)) for c in NON_FINITE},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_reject_in_both_forms(case):
    body = _body(MALFORMED[case]())
    for doc in (loads_request(body), json.loads(body)):
        with pytest.raises(ValidationError):
            instance_from_dict(doc["instance"])


def test_keys_outside_the_instance_read_as_json_loads_reads_them():
    doc = instance_to_dict(figure1_instance(4.0))
    doc["photos"][0]["metadata"] = {"box": [0.25, 0.75], "tags": [[1.5, 2.5]]}
    doc["variants_note"] = [0.5, 1.5]
    body = _body(
        doc,
        budgets=[1.5e6, 2.5e6],
        fidelity={"budgets": [1.0e6, 3.5e6], "mode": "exclusive"},
        selection=[0, 1],
        deadline_ms=250.0,
        extra={"nested": [[0.125, 0.375]]},
    )
    got, want = loads_request(body), json.loads(body)
    assert list(got) == list(want)
    for key in want:
        if key != "instance":
            _same(got[key], want[key], key)
    for key in ("photos", "variants_note", "retained", "budget"):
        _same(got["instance"][key], want["instance"][key], key)
    _check_body(body)


def test_plain_documents_parse_as_json_loads_does():
    body = b'{"budgets": [1.5, 2.5], "x": NaN, "y": [0.5]}'
    _same(loads_request(body), json.loads(body))

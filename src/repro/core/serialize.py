"""JSON (de)serialisation of PAR instances and solutions.

The PHOcus service (see :mod:`repro.system.service`) speaks JSON over
HTTP, mirroring the paper's Flask-based Solver deployment.  This module
defines the wire format:

* instances serialise with their full similarity backends (dense matrices
  as nested lists, sparse backends as neighbour lists), so a solve request
  is self-contained;
* solutions serialise flat, with the diagnostics a UI needs.

The same document has one *array form* (``instance_to_dict(...,
arrays=True)``): every numeric array stays an ``np.ndarray`` leaf and a
sparse similarity is its CSR (``size``/``indptr``/``indices``/``values``).
The tenant store writes those leaves as raw bytes instead of decimal
text, and :func:`json_default` renders them as lists when the document
goes out as JSON.  :func:`instance_from_dict` reads every form: lists or
arrays, neighbour rows or CSR.

Round-tripping is exact up to float representation: tests assert that a
round-tripped instance produces identical solver output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Union

import numpy as np

from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    Photo,
    PredefinedSubset,
    SparseSimilarity,
)
from repro.core.solver import Solution
from repro.errors import ValidationError

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "json_default",
    "solution_to_dict",
]

_FORMAT = 1


def _similarity_to_dict(
    sim: Union[DenseSimilarity, SparseSimilarity], arrays: bool
) -> Dict[str, Any]:
    if isinstance(sim, DenseSimilarity):
        matrix = sim.matrix if arrays else sim.matrix.tolist()
        return {"kind": "dense", "matrix": matrix}
    if arrays:
        indptr, indices, values = sim.csr()
        out: Dict[str, Any] = {
            "kind": "sparse",
            "size": len(sim),
            "indptr": indptr,
            "indices": indices,
            "values": values,
        }
    else:
        rows = []
        for i in range(len(sim)):
            idx, val = sim.neighbors(i)
            rows.append({"indices": idx.tolist(), "values": val.tolist()})
        out = {"kind": "sparse", "size": len(sim), "rows": rows}
    # float64 is the implied default so format-1 documents written before
    # dtype support parse unchanged; float32 backends record their dtype
    # and round-trip exactly (float32 -> decimal text -> float64 -> float32
    # is the identity on every representable float32).
    if sim.dtype != np.float64:
        out["dtype"] = sim.dtype.name
    return out


def _similarity_from_dict(doc: Dict[str, Any]):
    kind = doc.get("kind")
    if kind == "dense":
        return DenseSimilarity(np.asarray(doc["matrix"], dtype=np.float64))
    if kind == "sparse":
        dtype_name = doc.get("dtype", "float64")
        if dtype_name not in ("float64", "float32"):
            raise ValidationError(f"unsupported sparse dtype {dtype_name!r}")
        if "indptr" in doc:
            return SparseSimilarity.from_csr(
                int(doc["size"]),
                np.asarray(doc["indptr"], dtype=np.int64),
                np.asarray(doc["indices"], dtype=np.int64),
                np.asarray(doc["values"]),
                dtype=np.dtype(dtype_name),
                validate=True,
            )
        rows = doc["rows"]
        return SparseSimilarity(
            int(doc["size"]),
            [np.asarray(r["indices"], dtype=np.int64) for r in rows],
            [np.asarray(r["values"], dtype=np.float64) for r in rows],
            dtype=np.dtype(dtype_name),
        )
    raise ValidationError(f"unknown similarity kind {kind!r}")


def instance_to_dict(instance: PARInstance, *, arrays: bool = False) -> Dict[str, Any]:
    """Render an instance as a JSON-compatible dict.

    ``arrays=True`` gives the array form instead: ``np.ndarray`` leaves
    (zero-copy views of the instance's own arrays, so the document must
    not be mutated) and CSR sparse similarities.

    The optional ``variants`` key (a VariantCatalog document) is written
    only when the instance carries one, so pre-fidelity readers and
    blobs stay byte-compatible in both directions.
    """

    def leaf(arr: np.ndarray):
        return arr if arrays else arr.tolist()

    doc = {
        "format": _FORMAT,
        "budget": instance.budget,
        "retained": sorted(instance.retained),
        "photos": [
            {
                "photo_id": p.photo_id,
                "cost": p.cost,
                "label": p.label,
                "metadata": _jsonable(dict(p.metadata)),
            }
            for p in instance.photos
        ],
        "subsets": [
            {
                "subset_id": q.subset_id,
                "weight": q.weight,
                "members": leaf(q.members),
                "relevance": leaf(q.relevance),
                "similarity": _similarity_to_dict(q.similarity, arrays),
            }
            for q in instance.subsets
        ],
        "embeddings": (
            leaf(instance.embeddings) if instance.embeddings is not None else None
        ),
    }
    variants = getattr(instance, "variants", None)
    if variants is not None:
        doc["variants"] = variants.to_dict()
    return doc


def instance_from_dict(doc: Dict[str, Any]) -> PARInstance:
    """Rebuild an instance from :func:`instance_to_dict` output.

    Any structural defect in the document (missing keys, wrong types,
    malformed arrays) surfaces as :class:`ValidationError` so service
    callers get a 4xx, never a crash.
    """
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be an object")
    if doc.get("format") != _FORMAT:
        raise ValidationError(f"unsupported instance format {doc.get('format')!r}")
    try:
        return _instance_from_dict_unchecked(doc)
    except ValidationError:
        raise
    except (
        KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError
    ) as exc:
        raise ValidationError(f"malformed instance document: {exc!r}") from exc


def _instance_from_dict_unchecked(doc: Dict[str, Any]) -> PARInstance:
    photos = [
        Photo(
            photo_id=int(p["photo_id"]),
            cost=float(p["cost"]),
            label=p.get("label", ""),
            metadata=p.get("metadata", {}),
        )
        for p in doc["photos"]
    ]
    subsets = [
        PredefinedSubset(
            q["subset_id"],
            float(q["weight"]),
            q["members"],
            q["relevance"],
            _similarity_from_dict(q["similarity"]),
            normalize=False,
        )
        for q in doc["subsets"]
    ]
    embeddings = doc.get("embeddings")
    variants = doc.get("variants")
    if variants is not None:
        # Lazy import: core must not depend on repro.fidelity at load time.
        from repro.fidelity.catalog import VariantCatalog

        variants = VariantCatalog.from_dict(variants)
    return PARInstance(
        photos,
        subsets,
        float(doc["budget"]),
        retained=doc.get("retained", ()),
        embeddings=np.asarray(embeddings, dtype=np.float64)
        if embeddings is not None
        else None,
        variants=variants,
    )


def instance_to_json(instance: PARInstance) -> str:
    """Serialise an instance to a JSON string."""
    return json.dumps(instance_to_dict(instance))


def instance_from_json(text: str) -> PARInstance:
    """Parse an instance from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("instance JSON must be an object")
    return instance_from_dict(doc)


def solution_to_dict(solution: Solution) -> Dict[str, Any]:
    """Render a solver result for the wire."""
    return {
        "algorithm": solution.algorithm,
        "selection": list(solution.selection),
        "value": solution.value,
        "cost": solution.cost,
        "budget": solution.budget,
        "budget_utilisation": solution.budget_utilisation,
        "elapsed_seconds": solution.elapsed_seconds,
        "ratio_certificate": solution.ratio_certificate,
        "extras": _jsonable(solution.extras),
    }


def json_default(value):
    """``json.dumps(..., default=json_default)``: array-form leaves as lists.

    Called only for objects the encoder cannot render, so a document
    without arrays costs exactly a plain ``json.dumps``.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value

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

:func:`loads` parses request bodies.  It returns exactly what
``json.loads`` returns, and raises what it raises, but converts the flat
float arrays and float matrices that dominate instance documents natively
(see :func:`repro.core.native.scan_json`).  :func:`loads_request`, its
sibling for the inline solve routes, leaves those arrays as ``np.ndarray``
slices of the scan where :func:`instance_from_dict` reads numbers (a
similarity matrix or the embeddings as one C-contiguous 2-D slice), so an
inline instance reaches the solver without a detour through Python
floats.
:func:`number_field` and :func:`numbers_field` read a body's numeric
options, rejecting what ``json.loads`` parsed as anything else.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core import native
from repro.core.instance import (
    DenseSimilarity,
    PARInstance,
    PredefinedSubset,
    SparseSimilarity,
    as_ids,
)
from repro.core.solver import Solution
from repro.errors import ValidationError

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "json_default",
    "loads",
    "number_field",
    "numbers_field",
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


def _floats(leaf) -> np.ndarray:
    """A float64 copy of a list leaf or an ndarray leaf (never a view)."""
    return np.array(leaf, dtype=np.float64)


def _similarity_from_dict(doc: Dict[str, Any]):
    kind = doc.get("kind")
    if kind == "dense":
        return DenseSimilarity(doc["matrix"])  # it keeps a new array
    if kind == "sparse":
        dtype_name = doc.get("dtype", "float64")
        if dtype_name not in ("float64", "float32"):
            raise ValidationError(f"unsupported sparse dtype {dtype_name!r}")
        if "indptr" in doc:
            return SparseSimilarity.from_csr(
                int(doc["size"]),
                doc["indptr"],
                doc["indices"],
                _floats(doc["values"]),
                dtype=np.dtype(dtype_name),
                validate=True,
            )
        rows = doc["rows"]
        return SparseSimilarity(
            int(doc["size"]),
            [r["indices"] for r in rows],
            [r["values"] for r in rows],
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

    n = instance.n
    labels = instance.labels if instance.labels is not None else [""] * n
    metadata = instance.metadata if instance.metadata is not None else [{}] * n
    doc = {
        "format": _FORMAT,
        "budget": instance.budget,
        "retained": sorted(instance.retained),
        "photos": [
            {
                "photo_id": p,
                "cost": cost,
                "label": label,
                "metadata": _jsonable(dict(meta)),
            }
            for p, (cost, label, meta) in enumerate(
                zip(instance.costs.tolist(), labels, metadata)
            )
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
    # Every array the instance keeps is a copy (_floats here, as_ids and
    # clipping in the constructors), so no instance pins the buffer a
    # request body was scanned into.
    photos = doc["photos"]
    if not isinstance(photos, list):
        raise ValidationError("'photos' must be a list of photo objects")
    ids = as_ids([p["photo_id"] for p in photos], "photo ids")
    if ids.shape != (len(photos),):
        raise ValidationError("every photo_id must be one integer")
    wrong = np.flatnonzero(ids != np.arange(ids.size))
    if wrong.size:
        raise ValidationError(
            f"photo at position {int(wrong[0])} has photo_id "
            f"{int(ids[wrong[0]])}; photo_id must equal list position"
        )
    subsets = [
        PredefinedSubset(
            q["subset_id"],
            float(q["weight"]),
            q["members"],
            _floats(q["relevance"]),
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
    labels = [p.get("label", "") for p in photos]
    metadata = [p.get("metadata", {}) for p in photos]
    return PARInstance(
        np.array([p["cost"] for p in photos], dtype=np.float64),
        subsets,
        float(doc["budget"]),
        retained=doc.get("retained", ()),
        embeddings=_floats(embeddings) if embeddings is not None else None,
        # Bare photos (builder and live archives) keep no columns at all.
        labels=None if labels.count("") == len(labels) else labels,
        metadata=None if metadata.count({}) == len(metadata) else metadata,
        variants=variants,
    )


def instance_to_json(instance: PARInstance) -> str:
    """Serialise an instance to a JSON string."""
    return json.dumps(instance_to_dict(instance))


def instance_from_json(text: str) -> PARInstance:
    """Parse an instance from a JSON string."""
    try:
        doc = loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("instance JSON must be an object")
    return instance_from_dict(doc)


# json's own answers to parse_constant (the very objects json.loads uses).
_CONSTANT = json.JSONDecoder().parse_constant


class _Mismatch(Exception):
    """The skeleton's parse_constant calls disagree with the scan."""


def loads(data: Union[bytes, str]) -> Any:
    """``json.loads(data.decode("utf-8"))`` for bytes, ``json.loads(data)``
    for a string: the same values, types, float bits and key order, or
    the same exception with the same message.

    The native scan converts every flat array of float literals, and
    every array of such arrays of one length (a float matrix), and each
    becomes the token ``NaN`` in a *skeleton* of the text.  ``json.loads``
    parses the skeleton with a ``parse_constant`` hook that answers, in
    document order, each array's list of floats (a matrix's list of row
    lists) or the text's own ``NaN``/``Infinity``/``-Infinity``.  The
    original text is parsed instead when it has no float array (it is its
    own skeleton), when the library is unavailable or the text nests too
    deep, and when the skeleton does not parse with every hook call
    matching the scan, so errors read exactly as ``json.loads``'s.
    """
    return _loads(data, arrays=False)


def loads_request(data: bytes) -> Any:
    """Parse a ``/solve``, ``/score`` or ``/fidelity/frontier`` body.

    The same document as :func:`loads`, and the same errors, except that
    float arrays where :func:`instance_from_dict` reads numbers (see
    :data:`_ARRAY_SLOTS`) stay ``np.ndarray`` slices of the scan, a float
    matrix one C-contiguous 2-D slice.  Every other key, inside
    ``instance`` or beside it, holds exactly what ``json.loads`` returns.
    Without the native scan this is :func:`loads`.
    """
    return _loads(data, arrays=True)


def number_field(
    payload: Dict[str, Any],
    key: str,
    default: Any = None,
    *,
    integer: bool = False,
    minimum: Optional[float] = None,
) -> Any:
    """``payload[key]`` as a finite float, or an int when ``integer``;
    ``default`` when the key is absent or null.

    A boolean, string, list or object, a non-finite or out-of-range
    number, a fraction where an integer is asked for, and a value below
    ``minimum`` raise :class:`ValidationError` naming the field.
    """
    value = payload.get(key)
    if value is None:
        return default
    return _number(value, key, integer, minimum)


def numbers_field(payload: Dict[str, Any], key: str) -> Optional[List[float]]:
    """``payload[key]`` as a list of finite floats (``None`` when absent
    or null); anything but a list of numbers raises
    :class:`ValidationError` naming the field."""
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValidationError(f"{key!r} must be a list of numbers, got {value!r}")
    return [_number(v, key, False, None) for v in value]


def _number(value: Any, key: str, integer: bool, minimum: Optional[float]) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key!r} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{key!r} must be finite, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(f"{key!r} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(f"{key!r} is out of range") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{key!r} must be at least {minimum}, got {value!r}")
    return value


def _loads(data: Union[bytes, str], *, arrays: bool) -> Any:
    is_str = isinstance(data, str)
    errors = "surrogatepass" if is_str else "strict"
    scanned = native.scan_json(data.encode("utf-8", errors) if is_str else data)
    if scanned is not None:
        skeleton, tags, values = scanned
        try:
            doc = _parse_skeleton(str(skeleton, "utf-8", errors), tags, values, arrays)
        except (ValueError, RecursionError, _Mismatch):
            pass  # parse the original, for its exact error
        else:
            return _settle(doc, tags) if arrays else doc
    return json.loads(data if is_str else data.decode("utf-8"))


def _parse_skeleton(
    skeleton: str, tags: List[int], values: np.ndarray, arrays: bool
) -> Any:
    """``json.loads(skeleton)`` with each placeholder answered in order:
    a slice of ``values`` shaped by its tag, or its list when not
    ``arrays``; a constant token as json answers it."""
    calls = iter(tags)
    offset = 0
    shift = native.SHAPE_BITS
    columns_mask = (1 << shift) - 1

    def hook(token: str) -> Any:
        nonlocal offset
        tag = next(calls, None)
        if tag is not None and tag > 0 and token == "NaN":
            rows, columns = tag >> shift, tag & columns_mask
            start = offset
            offset += columns * (rows or 1)
            leaf = values[start:offset]
            if rows:
                leaf = leaf.reshape(rows, columns)
            return leaf if arrays else leaf.tolist()
        if tag is None or tag > 0 or token != native.CONSTANT_TOKENS[tag]:
            raise _Mismatch(token)
        return _CONSTANT(token)

    doc = json.loads(skeleton, parse_constant=hook)
    if next(calls, None) is not None:
        raise _Mismatch("unanswered")
    return doc


#: Where a request body's float arrays may stay ndarrays: the leaves
#: :func:`instance_from_dict` reads as numbers and copies.  ``True`` marks
#: such a leaf (an array; a float matrix is one 2-D array, and the rows of
#: a ragged one stay arrays in their list); a dict maps keys to slots; a
#: one-element list applies its slot to every element.
_ARRAY_SLOTS: Dict[str, Any] = {
    "instance": {
        "subsets": [
            {
                "members": True,
                "relevance": True,
                "similarity": {
                    "matrix": True,
                    "indptr": True,
                    "indices": True,
                    "values": True,
                    "rows": [{"indices": True, "values": True}],
                },
            }
        ],
        "retained": True,
        "embeddings": True,
        "variants": {"indptr": True, "cost": True, "fidelity": True},
    }
}


def _settle(doc: Any, tags: List[int]) -> Any:
    """``doc`` with every scanned array outside :data:`_ARRAY_SLOTS` a list.

    Counting the arrays in the slots is cheap; only when some of the
    scan's arrays are missing from them does the walk convert the rest
    (photo metadata holding float lists, a ``budgets`` sweep, ...).  The
    rows of a ragged matrix are not counted, so they take the walk too.
    """
    scanned = len(tags) - sum(tags.count(kind) for kind in native.CONSTANT_TOKENS)
    if _count_slotted(doc, _ARRAY_SLOTS) == scanned:
        return doc
    return _lists_outside(doc, _ARRAY_SLOTS)


def _count_slotted(value: Any, slot: Any) -> int:
    if slot is True:
        return int(isinstance(value, np.ndarray))
    if isinstance(slot, dict) and isinstance(value, dict):
        return sum(
            _count_slotted(value[key], sub) for key, sub in slot.items() if key in value
        )
    if isinstance(slot, list) and isinstance(value, list):
        return sum(_count_slotted(item, slot[0]) for item in value)
    return 0


def _lists_outside(value: Any, slot: Any) -> Any:
    if slot is True:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        slots = slot if isinstance(slot, dict) else {}
        return {key: _lists_outside(item, slots.get(key)) for key, item in value.items()}
    if isinstance(value, list):
        sub = slot[0] if isinstance(slot, list) else None
        return [_lists_outside(item, sub) for item in value]
    return value


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

"""Tensor document files: JSON serialization of a model plus named tensors.

Layout: {"dim": m, "index": s, "metric": [[...]]?, "J": [[...]]?,
"tensors": {"name": [m^4 floats, row-major over (i,j,k,l)]}, "meta": {...}}.
A document is written as compact JSON with sorted keys on one line, ending
in a newline; any other whitespace, such as the indented layout of older
documents, loads the same.  Floats are written with Python's shortest
round-trip repr (at most 17 significant digits), so write-then-read is
bit-exact.  Saving a tensor with a NaN or infinite component raises
NonFiniteTensor and writes nothing: JSON has no such numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDocument, NonFiniteTensor
from .model import ModelPoint, validate_complex_structure


@dataclass
class TensorDocument:
    model: ModelPoint
    tensors: dict = field(default_factory=dict)  # name -> (m,m,m,m) ndarray
    meta: dict = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise InvalidDocument(f"document has no tensor named {name!r}")
        return self.tensors[name]


def save_document(doc: TensorDocument, path) -> None:
    for name, T in doc.tensors.items():
        if not np.all(np.isfinite(T)):
            raise NonFiniteTensor(f"tensor {name!r} has NaN or infinite components")
    m = doc.model
    obj = {
        "dim": m.dim,
        "index": m.index,
        "metric": m.metric.tolist(),
        "tensors": {name: np.asarray(T).reshape(-1).tolist()
                    for name, T in sorted(doc.tensors.items())},
        "meta": doc.meta,
    }
    if m.has_cplx:
        obj["J"] = m.cplx.tolist()
    text = json.dumps(obj, sort_keys=True) + "\n"  # one-shot, no indent: the C encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _only_numbers(value) -> bool:
    """Whether JSON data is a number or nested lists of numbers: no strings,
    booleans or nulls, which a float conversion would accept or hide."""
    if type(value) is not list:
        return type(value) in (int, float)
    types = set(map(type, value))
    return all(map(_only_numbers, value)) if list in types else types <= {int, float}


def _numeric(value, what: str) -> np.ndarray:
    """A float array from JSON data; ragged or non-numeric data, or an integer
    too large for a float, is InvalidDocument."""
    if not _only_numbers(value):
        raise InvalidDocument(f"{what} has a string, boolean or null entry")
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDocument(f"{what} is not a rectangular numeric array: {exc}") from exc
    except OverflowError as exc:
        raise InvalidDocument(f"{what} has an integer too large for a float") from exc


def load_document(path) -> TensorDocument:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from exc
    dim, index = (obj.get(key) if isinstance(obj, dict) else None for key in ("dim", "index"))
    if type(dim) is not int or type(index) is not int:
        raise InvalidDocument("document needs integer 'dim' and 'index'")
    if not 0 <= index <= dim:
        raise InvalidDocument("declared index exceeds dimension")
    # tensors first: their sizes check 'dim' before the model spends dim^2 memory on it
    entries = obj.get("tensors", {})
    if not isinstance(entries, dict):
        raise InvalidDocument("'tensors' must map names to component lists")
    tensors = {}
    for name, flat in entries.items():
        arr = _numeric(flat, f"tensor {name!r}")
        if arr.size != dim ** 4:
            raise InvalidDocument(f"tensor {name!r} has {arr.size} components, expected {dim ** 4}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDocument(f"tensor {name!r} has NaN or infinite components")
        tensors[name] = arr.reshape((dim,) * 4)
    metric = _numeric(obj["metric"], "'metric'") if "metric" in obj else None
    cplx = _numeric(obj["J"], "'J'") if "J" in obj else None
    try:
        model = ModelPoint(dim, index, metric=metric, cplx=cplx)
    except Exception as exc:
        raise InvalidDocument(str(exc)) from exc
    if model.has_cplx and not validate_complex_structure(model).verdict:
        raise InvalidDocument("J fails the complex-structure axioms")
    return TensorDocument(model, tensors, obj.get("meta", {}))

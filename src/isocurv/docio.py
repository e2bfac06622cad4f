"""Tensor document files: JSON serialization of a model plus named tensors.

Layout: {"dim": m, "index": s, "metric": [[...]]?, "J": [[...]]?,
"tensors": {"name": {"dtype": "<f8", "shape": [m, m, m, m], "base64": "..."}},
"meta": {...}}.  A tensor's "base64" is the standard base64 (with padding)
of its m^4 little-endian IEEE doubles in row-major order over (i,j,k,l), so
write-then-read is bit-exact by construction and no component becomes a
Python float on the way.  The metric and J stay JSON lists, whose floats
are written with Python's shortest round-trip repr (at most 17 significant
digits), also bit-exact.  A document is written as compact JSON with sorted
keys on one line, ending in a newline.

Older documents store each tensor as a JSON list of m^4 numbers, row-major
over (i,j,k,l), and are often indented; they load the same.  Saving a tensor
whose shape is not (m, m, m, m) raises DimensionMismatch, a complex one
InvalidDocument, and one with a NaN or infinite component NonFiniteTensor;
either way nothing is written.  Loading rejects the same tensors, any
malformed payload, a document with no tensor and no (m, m) metric or J,
and any model that ModelPoint refuses, with InvalidDocument.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidDocument, NonFiniteTensor
from .model import ModelPoint

DTYPE = "<f8"


@dataclass
class TensorDocument:
    model: ModelPoint
    tensors: dict = field(default_factory=dict)  # name -> (m,m,m,m) ndarray
    meta: dict = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise InvalidDocument(f"document has no tensor named {name!r}")
        return self.tensors[name]


def _payload(T) -> dict:
    arr = np.asarray(T, dtype=DTYPE)
    return {"dtype": DTYPE, "shape": list(arr.shape),
            "base64": base64.b64encode(arr.tobytes()).decode("ascii")}


def save_document(doc: TensorDocument, path) -> None:
    m = doc.model
    for name, T in doc.tensors.items():
        if np.shape(T) != (m.dim,) * 4:
            raise DimensionMismatch(f"tensor {name!r} has shape {np.shape(T)}, "
                                    f"expected {(m.dim,) * 4}")
        if np.iscomplexobj(T):  # a cast to "<f8" would drop the imaginary part
            raise InvalidDocument(f"tensor {name!r} has complex components")
        if not np.all(np.isfinite(T)):
            raise NonFiniteTensor(f"tensor {name!r} has NaN or infinite components")
    obj = {
        "dim": m.dim,
        "index": m.index,
        "metric": m.metric.tolist(),
        "tensors": {name: _payload(T) for name, T in sorted(doc.tensors.items())},
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


def _decoded(entry: dict, what: str, dim: int) -> np.ndarray:
    """The float array of a base64 payload.  Its dtype, shape and string
    length are checked before anything is decoded, so a large declared `dim`
    costs nothing unless the file holds that many bytes."""
    shape = entry.get("shape")
    if entry.get("dtype") != DTYPE:
        raise InvalidDocument(f"{what} needs dtype {DTYPE!r}, not {entry.get('dtype')!r}")
    if shape != [dim] * 4 or not all(type(n) is int for n in shape):
        raise InvalidDocument(f"{what} has shape {shape!r}, expected {[dim] * 4}")
    text = entry.get("base64")
    if type(text) is not str:
        raise InvalidDocument(f"{what} needs a 'base64' string")
    nbytes = 8 * dim ** 4
    chars = 4 * -(-nbytes // 3)  # padded to whole 4-character groups
    if len(text) != chars:
        raise InvalidDocument(f"{what} has {len(text)} base64 characters, expected {chars}")
    try:
        raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    except ValueError as exc:
        raise InvalidDocument(f"{what} is not valid base64: {exc}") from exc
    if len(raw) != nbytes:
        raise InvalidDocument(f"{what} decodes to {len(raw)} bytes, expected {nbytes}")
    return np.frombuffer(raw, DTYPE).astype(float)


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
        raise InvalidDocument("'tensors' must map names to component lists or payloads")
    tensors = {}
    for name, entry in entries.items():
        what = f"tensor {name!r}"
        if isinstance(entry, dict):
            arr = _decoded(entry, what, dim)
        else:
            arr = _numeric(entry, what)
            if arr.size != dim ** 4:
                raise InvalidDocument(f"{what} has {arr.size} components, expected {dim ** 4}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDocument(f"{what} has NaN or infinite components")
        tensors[name] = arr.reshape((dim,) * 4)
    metric = _numeric(obj["metric"], "'metric'") if "metric" in obj else None
    cplx = _numeric(obj["J"], "'J'") if "J" in obj else None
    if not tensors and not any(a is not None and a.shape == (dim, dim) for a in (metric, cplx)):
        # nothing else accounts for 'dim': refuse it before the model spends dim^2 memory on it
        raise InvalidDocument(f"a document without tensors needs a {dim} x {dim} 'metric' or 'J'")
    try:
        model = ModelPoint(dim, index, metric=metric, cplx=cplx)
    except Exception as exc:
        raise InvalidDocument(str(exc)) from exc
    return TensorDocument(model, tensors, obj.get("meta", {}))

"""Tensor documents: compact single-line JSON written through the C encoder,
base64 tensor payloads, bit-exact round trips, the older list layout
(indented), wrong shapes, non-finite tensors and traced memory."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from isocurv import (ModelPoint, TensorDocument, build_space_form, hermitian_model,
                     load_document, save_document)
from isocurv.diagnostics import random_curvature_like
from isocurv.errors import DimensionMismatch, InvalidDocument, NonFiniteTensor

from conftest import document_object, tensor_payload, write_indented_document

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0,
               1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 9007199254740993.0, 1e16, 1e-7]


def edge_document():
    """A document whose tensor, metric and J carry the edge floats: the
    tensor holds them plus uniform(-1, 1) * 10**k for k in -300..300, the
    metric is (0.1 + 0.2) times that of hermitian_model(6, 2) with -0.0,
    subnormal and least-normal off-diagonal pairs, and J is the standard J
    with -0.0 and subnormal entries in place of its zeros."""
    base = hermitian_model(6, 2)
    rng = np.random.default_rng(11)
    decades = rng.uniform(-1.0, 1.0, 601) * 10.0 ** np.arange(-300, 301)
    flat = np.concatenate([EDGE_FLOATS, decades, rng.uniform(-1.0, 1.0, 6 ** 4)])[:6 ** 4]
    g = (0.1 + 0.2) * base.metric
    g[g == 0] = -0.0
    for (i, j), v in zip([(0, 1), (2, 5), (3, 4)], [5e-324, 2.2250738585072014e-308, -5e-324]):
        g[i, j] = g[j, i] = v
    J = np.array(base.cplx)
    J[J == 0] = -0.0
    J[0, 4] = J[5, 1] = 5e-324
    model = ModelPoint(6, 2, metric=g, cplx=J)
    return TensorDocument(model, {"E": flat.reshape((6,) * 4), "Z": -np.zeros((6,) * 4)},
                          meta={"note": "edge floats"})


class TestBitExactRoundTrip:
    @pytest.mark.parametrize("write", [save_document, write_indented_document],
                             ids=["compact", "indented"])
    def test_edge_floats(self, tmp_path, write):
        # tobytes, not array_equal: array_equal does not tell -0.0 from 0.0.
        doc = edge_document()
        path = tmp_path / "edge.json"
        write(doc, path)
        back = load_document(path)
        assert back.tensors.keys() == doc.tensors.keys()
        for name, T in doc.tensors.items():
            assert back.tensor(name).tobytes() == T.tobytes(), name
        assert back.model.metric.tobytes() == doc.model.metric.tobytes()
        assert back.model.cplx.tobytes() == doc.model.cplx.tobytes()
        assert back.meta == doc.meta

    def test_the_edge_document_holds_the_edge_floats(self):
        doc = edge_document()
        E, g, J = doc.tensor("E"), doc.model.metric, doc.model.cplx
        for v in EDGE_FLOATS:
            assert np.any(E.reshape(-1).view(np.uint64) == np.float64(v).view(np.uint64)), v
        assert np.signbit(doc.tensor("Z")).all()
        exponents = np.floor(np.log10(np.abs(E[E != 0])))
        assert exponents.min() <= -300 and exponents.max() >= 300
        assert 5e-324 in g and np.signbit(g[0, 2]) and np.signbit(J[0, 0]) and 5e-324 in J


class TestLayout:
    def test_one_compact_line(self, tmp_path):
        doc = edge_document()
        path = tmp_path / "doc.json"
        save_document(doc, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        expected = document_object(doc)
        expected["tensors"] = {name: tensor_payload(T.reshape(-1).tolist(), 6)
                               for name, T in doc.tensors.items()}
        assert json.loads(text) == expected

    @pytest.mark.parametrize("make", [edge_document, lambda: TensorDocument(
        hermitian_model(8, 4), {"R": random_curvature_like(hermitian_model(8, 4), 5)})],
        ids=["edge", "curvature-like"])
    def test_list_and_payload_layouts_load_the_same(self, tmp_path, make):
        doc = make()
        save_document(doc, tmp_path / "payload.json")
        write_indented_document(doc, tmp_path / "list.json")
        payload, listed = (load_document(tmp_path / f) for f in ("payload.json", "list.json"))
        assert "base64" in (tmp_path / "payload.json").read_text(encoding="utf-8")
        assert payload.tensors.keys() == listed.tensors.keys() == doc.tensors.keys()
        for name, T in payload.tensors.items():
            assert T.dtype == listed.tensor(name).dtype == np.float64
            assert T.flags.writeable and T.flags.c_contiguous
            assert T.tobytes() == listed.tensor(name).tobytes() == doc.tensor(name).tobytes()

    def test_one_pass_of_the_c_encoder(self, tmp_path, monkeypatch):
        # json.encoder looks c_make_encoder up when it encodes.  The
        # pure-Python encoder, which json.dump and any indent select,
        # never calls it and is several times slower.
        real = json.encoder.c_make_encoder
        assert real is not None
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(json.encoder, "c_make_encoder", counting)
        model = hermitian_model(8, 4)
        save_document(TensorDocument(model, {"R": random_curvature_like(model, 2)}),
                      tmp_path / "doc.json")
        assert len(calls) == 1


class TestWrongShape:
    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4, 5), (5,) * 4, (4,) * 5])
    def test_save_raises_and_writes_nothing(self, tmp_path, shape):
        path = tmp_path / "bad.json"
        doc = TensorDocument(ModelPoint(4, 2), {"A": np.ones((4,) * 4), "R": np.zeros(shape)})
        with pytest.raises(DimensionMismatch, match=re.escape(f"'R' has shape {shape}")):
            save_document(doc, path)
        assert not path.exists()


class TestComplexTensor:
    def test_save_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.json"
        T = np.zeros((4,) * 4, dtype=complex)
        with pytest.raises(InvalidDocument, match="'R' has complex components"):
            save_document(TensorDocument(ModelPoint(4, 2), {"R": T}), path)
        assert not path.exists()


class TestNonFiniteTensor:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_raises_and_writes_nothing(self, tmp_path, value):
        model = ModelPoint(4, 2)
        bad = np.zeros((4,) * 4)
        bad[1, 0, 0, 1] = value
        doc = TensorDocument(model, {"A": np.ones((4,) * 4), "B": bad})
        path = tmp_path / "bad.json"
        with pytest.raises(NonFiniteTensor, match="'B' has NaN or infinite"):
            save_document(doc, path)
        assert not path.exists()

    def test_existing_file_left_untouched(self, tmp_path):
        model = ModelPoint(4, 2)
        path = tmp_path / "doc.json"
        save_document(TensorDocument(model, {"R": np.ones((4,) * 4)}), path)
        before = path.read_bytes()
        with pytest.raises(NonFiniteTensor):
            save_document(TensorDocument(model, {"R": np.full((4,) * 4, np.nan)}), path)
        assert path.read_bytes() == before


class TestTracedMemory:
    # Components never become Python floats: the traced peak of a save or a
    # load of the m = 20 space form stays a few tensors' bytes.  A list
    # layout takes 7.3 and 5.1 times the tensor's bytes on this document.
    @pytest.fixture(scope="class")
    def space_form(self):
        model = hermitian_model(20, 4)
        return TensorDocument(model, {"R": build_space_form(model, 0.5, 2.0)})

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save(self, tmp_path, space_form):
        peak = self.traced_peak(save_document, space_form, tmp_path / "sf.json")
        assert peak <= 5 * space_form.tensor("R").nbytes

    def test_load(self, tmp_path, space_form):
        path = tmp_path / "sf.json"
        save_document(space_form, path)
        peak = self.traced_peak(load_document, path)
        assert peak <= 4 * space_form.tensor("R").nbytes

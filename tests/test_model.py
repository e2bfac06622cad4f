import numpy as np
import pytest

from isocurv import (
    ModelPoint,
    Tolerance,
    hermitian_model,
    inner,
    signature_metric,
    standard_complex_structure,
    validate_complex_structure,
)
from isocurv.errors import DimensionMismatch, InvalidDocument, InvalidModel, InvalidTolerance
from isocurv.planes import PlaneKind, isotropic_vectors, sample_planes

from conftest import load_model_document


def test_inner_timelike_direction():
    m = ModelPoint(2, 1)
    assert inner(m, [1, 0], [1, 0]) == -1.0


def test_inner_isotropic_vector():
    m = ModelPoint(2, 1)
    assert inner(m, [1, 1], [1, 1]) == 0.0


def test_inner_negative_block():
    m = ModelPoint(4, 2)
    assert inner(m, [3, 4, 0, 0], [3, 4, 0, 0]) == -25.0


def test_inner_dimension_mismatch():
    m = ModelPoint(4, 2)
    with pytest.raises(DimensionMismatch):
        inner(m, [1, 0, 0], [1, 0, 0, 0])


def test_inner_bilinear_and_symmetric():
    """Randomized bilinearity/symmetry over 1000 triples."""
    m = ModelPoint(5, 2)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x, y, z = rng.uniform(-1, 1, (3, 5))
        a, b = rng.uniform(-2, 2, 2)
        assert inner(m, x, y) == pytest.approx(inner(m, y, x), abs=1e-12)
        assert inner(m, a * x + b * z, y) == pytest.approx(
            a * inner(m, x, y) + b * inner(m, z, y), abs=1e-12)


def test_default_metric_layout():
    m = ModelPoint(4, 1)
    assert np.array_equal(np.diag(m.metric), [-1, 1, 1, 1])
    assert np.array_equal(m.metric, signature_metric(4, 1))


def test_metric_must_be_symmetric_nondegenerate():
    with pytest.raises(InvalidModel):
        ModelPoint(2, 0, metric=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidModel):
        ModelPoint(2, 0, metric=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidModel):
        ModelPoint(3, 4)


def test_standard_j_passes_axioms():
    m = hermitian_model(4, 2)
    rep = validate_complex_structure(m)
    assert rep.verdict
    assert rep.square_residual == 0.0
    assert rep.compat_residual == 0.0


def test_identity_j_fails_square_axiom(tmp_path):
    message = r"J fails its axioms: \|J\^2 \+ id\| = 2, \|J\^T g J - g\| = 0$"
    with pytest.raises(InvalidModel, match=message):
        ModelPoint(4, 2, cplx=np.eye(4))
    with pytest.raises(InvalidDocument, match=message):
        load_model_document(tmp_path / "identity-j.json", 4, 2, J=np.eye(4))


def test_sign_mixing_j_fails_compatibility(tmp_path):
    # pair a negative with a positive direction
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1] = 1.0, -1.0  # swaps e0 (negative) with e1
    J[3, 2], J[2, 3] = 1.0, -1.0
    message = r"J fails its axioms: \|J\^2 \+ id\| = 0, \|J\^T g J - g\| = 2$"
    with pytest.raises(InvalidModel, match=message):
        ModelPoint(4, 1, cplx=J)
    with pytest.raises(InvalidDocument, match=message):
        load_model_document(tmp_path / "sign-mixing-j.json", 4, 1, J=J)


def test_standard_j_requires_even_index():
    with pytest.raises(InvalidModel):
        standard_complex_structure(4, 1)


def test_tolerance_positive():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    assert Tolerance(1e-6).threshold(np.array([5.0])) == pytest.approx(5e-6)
    assert Tolerance(1e-6).threshold(np.array([0.1])) == pytest.approx(1e-6)


@pytest.mark.parametrize("rel", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerance_is_typed(rel):
    with pytest.raises(InvalidTolerance):
        Tolerance(rel)


def test_small_scaled_metric_is_nondegenerate():
    # |det| = 1e-21 here; nondegeneracy does not depend on the metric's scale
    g = 1e-3 * signature_metric(7, 2)
    assert np.array_equal(ModelPoint(7, 2, metric=g).metric, g)
    assert ModelPoint(4, 2, metric=1e6 * signature_metric(4, 2)).dim == 4


@pytest.mark.parametrize("g", [
    1e6 * np.array([[1.0, 1.0], [1.0, 1.0]]),   # singular at any scale
    np.diag([1e9, 1e9, 1e-10]),                 # |det| = 1e8, singular to working precision
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
], ids=["scaled-singular", "large-det-ill-conditioned", "infinite"])
def test_singular_metric_rejected(g):
    with pytest.raises(InvalidModel):
        ModelPoint(len(g), 0, metric=g)


def test_models_compare_and_hash_by_value():
    a, b = hermitian_model(8, 4), hermitian_model(8, 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert sample_planes(a, PlaneKind.WEAKLY_ISOTROPIC, 5, 0) is sample_planes(
        b, PlaneKind.WEAKLY_ISOTROPIC, 5, 0)
    assert isotropic_vectors(a, 5, 0) is isotropic_vectors(b, 5, 0)


def test_models_differing_in_j_or_metric_are_unequal():
    a = hermitian_model(4, 2)
    g = np.diag([-2.0, -2.0, 1.0, 1.0])
    assert a != ModelPoint(4, 2, cplx=-a.cplx)
    assert a != ModelPoint(4, 2)
    assert a != ModelPoint(4, 2, metric=g, cplx=a.cplx)
    assert ModelPoint(4, 2) != ModelPoint(4, 1) and ModelPoint(4, 2) != "ModelPoint(4, 2)"


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_j_rejected(value):
    J = standard_complex_structure(8, 4)
    J[0, 1] = value
    with pytest.raises(InvalidModel, match="J must be finite"):
        ModelPoint(8, 4, cplx=J)

import tracemalloc

import numpy as np
import pytest

from isocurv import (
    Frame,
    Holomorphy,
    ModelPoint,
    Plane,
    PlaneClass,
    PlaneKind,
    build_constant_curvature,
    build_space_form,
    classify_holomorphy,
    classify_plane,
    gram_schmidt_indefinite,
    hermitian_model,
    inner,
    pi1,
    sample_planes,
    sectional_curvature,
    standard_complex_structure,
)
from isocurv.errors import (
    DegeneratePlane,
    DegenerateSubspace,
    DependentInput,
    InvalidDocument,
    InvalidModel,
    InvalidSampleCount,
    NonFiniteTensor,
    UnsupportedSignature,
)
from isocurv.planes import (
    PLUS_MINUS_PAIR,
    SIGNATURES,
    Signature,
    adapted_basis,
    isotropic_vectors,
    random_frames,
    sample_rng,
)

from conftest import (
    load_model_document,
    non_diagonal_model,
    oracle_cayley_rows,
    pulled_back_hermitian,
)


def e(m, i):
    v = np.zeros(m)
    v[i] = 1.0
    return v


class TestGramSchmidt:
    def test_mixed_pair(self, m22):
        frame = gram_schmidt_indefinite(m22, [e(4, 0) + 2 * e(4, 2), e(4, 2)])
        assert frame.signs == (1, -1)
        g = np.array([[inner(m22, u, v) for v in frame.vectors] for u in frame.vectors])
        assert np.allclose(g, np.diag(frame.signs), atol=1e-12)

    def test_pivot_prefers_largest_norm(self, m22):
        # e1 + 2 e3 has self-product 3, so it is normalized first even
        # though e3 comes later in the input.
        frame = gram_schmidt_indefinite(m22, [e(4, 2), e(4, 0) + 2 * e(4, 2)])
        first = frame.vectors[0]
        assert np.allclose(first, (e(4, 0) + 2 * e(4, 2)) / np.sqrt(3.0))

    def test_degenerate_span(self, m22):
        with pytest.raises(DegenerateSubspace):
            gram_schmidt_indefinite(m22, [e(4, 0) + e(4, 2), e(4, 1) + e(4, 3)])

    def test_dependent_input(self, m22):
        with pytest.raises(DependentInput):
            gram_schmidt_indefinite(m22, [e(4, 0), 2 * e(4, 0)])


class TestClassifyPlane:
    def test_nondegenerate(self, m22):
        assert classify_plane(m22, Plane(e(4, 0), e(4, 2))) == PlaneClass.NONDEGENERATE

    def test_weakly_isotropic(self, m22):
        p = Plane(e(4, 0) + e(4, 2), e(4, 1))
        assert classify_plane(m22, p) == PlaneClass.WEAKLY_ISOTROPIC

    def test_strongly_isotropic(self, m22):
        p = Plane(e(4, 0) + e(4, 2), e(4, 1) + e(4, 3))
        assert classify_plane(m22, p) == PlaneClass.STRONGLY_ISOTROPIC

    def test_basis_invariance(self, m22):
        rng = np.random.default_rng(11)
        p = Plane(e(4, 0) + e(4, 2), e(4, 1) + e(4, 3))
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.normal(size=(2, 2))
            q = Plane(a[0, 0] * p.x + a[0, 1] * p.y, a[1, 0] * p.x + a[1, 1] * p.y)
            assert classify_plane(m22, q) == PlaneClass.STRONGLY_ISOTROPIC

    def test_dependent_pair(self, m22):
        with pytest.raises(DependentInput):
            classify_plane(m22, Plane(e(4, 0), 3 * e(4, 0)))
        h22 = hermitian_model(4, 2)
        R = build_constant_curvature(h22, 1.0)
        for plane in (Plane(e(4, 0), 2 * e(4, 0)), Plane(np.zeros(4), np.zeros(4))):
            with pytest.raises(DependentInput):
                classify_holomorphy(h22, plane)
            with pytest.raises(DependentInput):
                sectional_curvature(h22, R, plane)

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_small_basis_of_a_nondegenerate_plane(self, m22, s):
        # a plane is its span: the Gram tests see unit basis vectors
        p = Plane(s * e(4, 0), s * e(4, 1))
        assert classify_plane(m22, p) == PlaneClass.NONDEGENERATE
        R = build_constant_curvature(m22, 1.0)
        assert sectional_curvature(m22, R, p) == pytest.approx(1.0, rel=1e-12)
        h22 = hermitian_model(4, 2)
        assert classify_holomorphy(h22, Plane(s * e(4, 0), s * (e(4, 1) + e(4, 2)))) \
            == Holomorphy.GENERIC


class TestClassifyHolomorphy:
    def test_holomorphic(self, h44):
        assert classify_holomorphy(h44, Plane(e(8, 0), e(8, 1))) == Holomorphy.HOLOMORPHIC

    def test_antiholomorphic(self, h44):
        assert classify_holomorphy(h44, Plane(e(8, 0), e(8, 2))) == Holomorphy.ANTIHOLOMORPHIC

    def test_generic(self, h44):
        p = Plane(e(8, 0), e(8, 1) + e(8, 2))
        assert classify_holomorphy(h44, p) == Holomorphy.GENERIC

    def test_isotropic_holomorphic(self, h44):
        xi = e(8, 0) + e(8, 4)
        p = Plane(xi, h44.cplx @ xi)
        assert classify_holomorphy(h44, p) == Holomorphy.HOLOMORPHIC
        assert classify_plane(h44, p) == PlaneClass.STRONGLY_ISOTROPIC


class TestNonFinitePlanes:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("check", [
        classify_plane,
        classify_holomorphy,
        lambda model, p: sectional_curvature(model, pi1(model), p),
    ], ids=["classify_plane", "classify_holomorphy", "sectional_curvature"])
    def test_rejected(self, h44, check, value):
        x = e(8, 0)
        x[3] = value
        with pytest.raises(NonFiniteTensor):
            check(h44, Plane(x, e(8, 1)))
        with pytest.raises(NonFiniteTensor):
            check(h44, Plane(e(8, 1), x))


class TestSectionalCurvature:
    def test_constant_curvature(self, m22):
        R = 0.9 * pi1(m22)
        for p in (Plane(e(4, 0), e(4, 1)), Plane(e(4, 0), e(4, 2)),
                  Plane(e(4, 2), e(4, 3))):
            assert sectional_curvature(m22, R, p) == pytest.approx(0.9, rel=1e-12)

    def test_space_form_holomorphic_and_anti(self, h44):
        nu, mu = 0.3, 1.7
        R = build_space_form(h44, nu, mu)
        hol = Plane(e(8, 0), e(8, 1))
        anti = Plane(e(8, 0), e(8, 2))
        assert sectional_curvature(h44, R, hol) == pytest.approx(mu, rel=1e-12)
        assert sectional_curvature(h44, R, anti) == pytest.approx(nu, rel=1e-12)

    def test_degenerate_plane_raises(self, m22):
        R = pi1(m22)
        with pytest.raises(DegeneratePlane):
            sectional_curvature(m22, R, Plane(e(4, 0) + e(4, 2), e(4, 1)))

    def test_scaling_invariance(self, m23):
        R = -0.4 * pi1(m23)
        p = Plane(2.0 * e(5, 0), e(5, 0) + 3.0 * e(5, 1))
        assert sectional_curvature(m23, R, p) == pytest.approx(-0.4, rel=1e-12)


EXPECTED_MEMBERSHIP = {
    PlaneKind.WEAKLY_ISOTROPIC: (PlaneClass.WEAKLY_ISOTROPIC, None),
    PlaneKind.STRONGLY_ISOTROPIC: (PlaneClass.STRONGLY_ISOTROPIC, None),
    PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC:
        (PlaneClass.WEAKLY_ISOTROPIC, Holomorphy.ANTIHOLOMORPHIC),
    PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC:
        (PlaneClass.STRONGLY_ISOTROPIC, Holomorphy.ANTIHOLOMORPHIC),
    PlaneKind.ISOTROPIC_HOLOMORPHIC:
        (PlaneClass.STRONGLY_ISOTROPIC, Holomorphy.HOLOMORPHIC),
    PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC:
        (PlaneClass.NONDEGENERATE, Holomorphy.ANTIHOLOMORPHIC),
}


class TestSamplers:
    @pytest.mark.parametrize("kind", list(EXPECTED_MEMBERSHIP))
    def test_membership(self, h44, kind):
        cls, hol = EXPECTED_MEMBERSHIP[kind]
        for x, y in sample_planes(h44, kind, 200, seed=5):
            p = Plane(x, y)
            assert classify_plane(h44, p) == cls
            if hol is not None:
                assert classify_holomorphy(h44, p) == hol

    def test_quadruples_are_frames(self, h44):
        signs = SIGNATURES[PlaneKind.QUADRUPLE_PPMM].options[0]
        assert signs == (1, 1, -1, -1)
        for fr in sample_planes(h44, PlaneKind.QUADRUPLE_PPMM, 50, seed=1):
            assert fr.shape == (4, 8)
            g = np.array([[inner(h44, u, v) for v in fr] for u in fr])
            assert np.allclose(g, np.diag(signs), atol=1e-10)

    def test_antiholomorphic_quadruples(self, h44):
        J = h44.cplx
        kind = PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM
        assert SIGNATURES[kind].options[0] == (1, 1, -1, -1)
        for fr in sample_planes(h44, kind, 50, seed=1):
            for u in fr:
                for v in fr:
                    assert abs(inner(h44, u, J @ v)) <= 1e-10

    def test_weakly_isotropic_on_real_model(self, m22):
        for x, y in sample_planes(m22, PlaneKind.WEAKLY_ISOTROPIC, 200, seed=9):
            assert classify_plane(m22, Plane(x, y)) == PlaneClass.WEAKLY_ISOTROPIC

    def test_deterministic(self, m22):
        a = sample_planes(m22, PlaneKind.STRONGLY_ISOTROPIC, 20, seed=4)
        sample_planes.cache_clear()
        assert np.array_equal(sample_planes(m22, PlaneKind.STRONGLY_ISOTROPIC, 20, seed=4), a)

    def test_prefix_stability(self, m22):
        long = sample_planes(m22, PlaneKind.WEAKLY_ISOTROPIC, 30, seed=4)
        short = sample_planes(m22, PlaneKind.WEAKLY_ISOTROPIC, 10, seed=4)
        assert np.array_equal(short, long[:10])

    def test_unsupported_signature(self):
        lorentz = ModelPoint(4, 1)
        with pytest.raises(UnsupportedSignature):
            sample_planes(lorentz, PlaneKind.STRONGLY_ISOTROPIC, 1, seed=0)

    def test_antiholomorphic_needs_room(self, h24):
        # signature (2, 4): strongly isotropic antiholomorphic planes need
        # at least four directions of each sign.
        with pytest.raises(UnsupportedSignature):
            sample_planes(h24, PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC, 1, seed=0)

    def test_complex_structure_required(self, m22):
        with pytest.raises(Exception):
            sample_planes(m22, PlaneKind.ISOTROPIC_HOLOMORPHIC, 1, seed=0)


class TestSampleArrays:
    @pytest.mark.parametrize("kind", list(PlaneKind))
    def test_arrays_are_read_only(self, h44, kind):
        batch = sample_planes(h44, kind, 5, seed=2)
        for arr in (batch, batch[0], batch[:, 0]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    @pytest.mark.parametrize("kind", list(PlaneKind))
    def test_a_sample_is_its_basis_rows(self, h44, kind):
        # two rows (x, y) for a plane, four for a frame of a quadruple kind
        n = 4 if kind.name.endswith("QUADRUPLE_PPMM") else 2
        batch = sample_planes(h44, kind, 7, seed=3)
        assert type(batch) is np.ndarray and batch.dtype == float
        assert batch.shape == (7, n, 8)

    def test_planes_and_frames_compare_by_identity(self, h44):
        # == on array fields would raise; these compare by identity
        x, y = sample_planes(h44, PlaneKind.WEAKLY_ISOTROPIC, 1)[0]
        frame = sample_planes(h44, PlaneKind.QUADRUPLE_PPMM, 1)[0]
        for item in (Plane(x, y), Frame(frame, SIGNATURES[PlaneKind.QUADRUPLE_PPMM].options[0])):
            assert item == item and item != type(item)(*vars(item).values())

    def test_cache_hit_is_same_object(self, m22):
        a = sample_planes(m22, PlaneKind.STRONGLY_ISOTROPIC, 12, seed=21)
        assert sample_planes(m22, PlaneKind.STRONGLY_ISOTROPIC, 12, seed=21) is a
        assert sample_planes(m22, PlaneKind.STRONGLY_ISOTROPIC, 12, seed=22) is not a

    @pytest.mark.parametrize("kind", list(PlaneKind))
    def test_prefix_of_arrays_is_stable(self, h44, kind):
        long = sample_planes(h44, kind, 30, seed=8)
        short = sample_planes(h44, kind, 10, seed=8)
        assert np.array_equal(short, long[:10])

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, m22, count):
        with pytest.raises(InvalidSampleCount):
            sample_planes(m22, PlaneKind.WEAKLY_ISOTROPIC, count, seed=0)


ANTIHOLOMORPHIC_KINDS = (PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC,
                         PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC,
                         PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC,
                         PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM)
MODELS = pytest.mark.parametrize("model", [hermitian_model(8, 4), pulled_back_hermitian(8, 4)],
                                 ids=["h44", "pulled-back-h44"])


def option_rows(model, row):
    """What ``Signature.draw`` moves: the first fitting option's basis rows,
    or every fitting option's for a row that picks at random."""
    rows = np.stack([row.basis_rows(model, signs) for signs in row.fitting(model)])
    return rows if row.pick_at_random else rows[0]


def doubles_per_sample(model, rows):
    return model.dim ** 2 + (rows.ndim == 3)


class TestStream:
    """A draw is one generator seeded with the seed mod 2**63, a fixed count of
    doubles per sample, and the Cayley isometry of those doubles applied to
    fixed rows; checked against the one-sample oracle in conftest."""

    @pytest.mark.parametrize("kind", list(PlaneKind))
    @MODELS
    def test_sample_planes_match_the_oracle(self, model, kind):
        row = SIGNATURES[kind]
        rows = option_rows(model, row)
        batch = sample_planes(model, kind, 25, seed=2)
        for i in range(25):
            want = oracle_cayley_rows(model, rows, 2, i, antiholomorphic=row.needs_j)
            if kind is PlaneKind.ISOTROPIC_HOLOMORPHIC:
                want = np.stack([want[0], model.cplx @ want[0]])
            assert np.allclose(batch[i], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("row", list(SIGNATURES.values()) + [PLUS_MINUS_PAIR],
                             ids=[k.value for k in SIGNATURES] + ["plus-minus-pair"])
    @MODELS
    def test_rows_are_independent(self, model, row):
        # row i is the one-sample draw from a generator advanced to row i
        rows = option_rows(model, row)
        per = doubles_per_sample(model, rows)
        batch = row.draw(model, 4, 12, "a test draw")
        for i in (0, 5, 11):
            rng = np.random.default_rng(4)
            rng.bit_generator.advance(i * per)
            one = random_frames(model, rows, rng, 1, antiholomorphic=row.needs_j)
            assert np.array_equal(one[0], batch[i])

    @pytest.mark.parametrize("row", [SIGNATURES[PlaneKind.WEAKLY_ISOTROPIC],
                                     SIGNATURES[PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC]],
                             ids=["fixed-option", "pick-at-random"])
    @MODELS
    def test_a_draw_leaves_the_generator_after_its_doubles(self, model, row):
        rows = option_rows(model, row)
        rng = np.random.default_rng(7)
        random_frames(model, rows, rng, 30, antiholomorphic=row.needs_j)
        fresh = np.random.default_rng(7)
        fresh.bit_generator.advance(30 * doubles_per_sample(model, rows))
        assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("seed", [-2**63, -1, 0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    @pytest.mark.parametrize("kind", [PlaneKind.STRONGLY_ISOTROPIC,
                                      PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC],
                             ids=["fixed-option", "pick-at-random"])
    def test_every_seed_is_the_oracle_stream(self, h44, kind, seed):
        # 2**32 and up take two entropy words; negative seeds fold to seed % 2**63
        row = SIGNATURES[kind]
        rows = option_rows(h44, row)
        batch = sample_planes(h44, kind, 8, seed=seed)
        for i in (0, 1, 7):
            want = oracle_cayley_rows(h44, rows, seed, i, antiholomorphic=row.needs_j)
            assert np.allclose(batch[i], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("kind", [PlaneKind.STRONGLY_ISOTROPIC,
                                      PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC])
    def test_a_long_draw_extends_a_short_one_across_chunks(self, kind):
        # at m = 20 a chunk holds 163 (161 with a pick) samples of K
        model = hermitian_model(20, 8)
        long = sample_planes(model, kind, 700, seed=9)
        assert np.array_equal(sample_planes(model, kind, 170, seed=9), long[:170])
        row = SIGNATURES[kind]
        rows = option_rows(model, row)
        for i in (160, 162, 163, 500):
            want = oracle_cayley_rows(model, rows, 9, i, antiholomorphic=row.needs_j)
            assert np.allclose(long[i], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_draw_without_a_fitting_option_names_what(self):
        model = ModelPoint(4, 0)  # no J and no timelike direction: no row fits
        for row in list(SIGNATURES.values()) + [PLUS_MINUS_PAIR]:
            with pytest.raises(UnsupportedSignature, match="^a test draw impossible "):
                row.draw(model, 1, 3, "a test draw")


class TestAdaptedBasis:
    @pytest.mark.parametrize("model", [ModelPoint(5, 2), hermitian_model(8, 4),
                                       hermitian_model(12, 6)], ids=["m23", "h44", "h66"])
    def test_default_models_give_the_identity(self, model):
        basis = adapted_basis(model)
        assert np.array_equal(basis.vectors, np.eye(model.dim))
        assert basis.signs == tuple(np.diag(model.metric).astype(int))

    @pytest.mark.parametrize("model", [
        pulled_back_hermitian(8, 4), pulled_back_hermitian(6, 2, seed=3),
        non_diagonal_model(5, 2), ModelPoint(2, 1, metric=[[0.0, 1.0], [1.0, 0.0]]),
    ], ids=["pulled-back-h44", "pulled-back-h24", "non-diagonal-m23", "null-coordinates"])
    def test_rows_are_orthonormal_and_j_paired(self, model):
        basis = adapted_basis(model)
        P, signs = basis.vectors, np.array(basis.signs)
        assert np.allclose(P @ model.metric @ P.T, np.diag(signs), atol=1e-12)
        assert list(signs).count(-1) == model.index
        if model.has_cplx:
            assert np.allclose(P[1::2], P[::2] @ model.cplx.T, atol=1e-12)

    # a model that would break the adapted basis is refused when it is built
    # or loaded, before anything is drawn from it
    def test_a_j_failing_its_axioms_is_a_typed_error(self, tmp_path):
        J = 2 * standard_complex_structure(8, 4)
        message = r"J fails its axioms: \|J\^2 \+ id\| = 3, \|J\^T g J - g\| = 3$"
        with pytest.raises(InvalidModel, match=message):
            ModelPoint(8, 4, cplx=J)
        with pytest.raises(InvalidDocument, match=message):
            load_model_document(tmp_path / "double-j.json", 8, 4, J=J)

    def test_an_index_the_metric_does_not_have_is_a_typed_error(self, tmp_path):
        g = np.diag([-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvalidModel, match="the metric has index 2, not 1$"):
            ModelPoint(4, 1, metric=g)
        with pytest.raises(InvalidDocument, match="the metric has index 2, not 1$"):
            load_model_document(tmp_path / "index.json", 4, 1, metric=g)


def _unit_rows(batch):
    return batch / np.linalg.norm(batch, axis=-1, keepdims=True)


def assert_kind_predicate(model, kind, batch, rel=1e-12):
    """The defining predicate of `kind` on every sample, to `rel` of the
    Euclidean-unit rows: the rank of the restricted metric (for a quadruple,
    g-orthonormality with its signs), and J-invariance or orthogonality to
    the J-images."""
    g, J = model.metric, model.cplx
    X = _unit_rows(batch)
    G = X @ g @ X.swapaxes(1, 2)
    if kind in (PlaneKind.QUADRUPLE_PPMM, PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM):
        norms = np.linalg.norm(batch, axis=-1)
        want = np.diag(SIGNATURES[kind].options[0]) / (norms[:, :, None] * norms[:, None, :])
        assert np.abs(G - want).max() <= rel
    else:
        rank = {PlaneKind.WEAKLY_ISOTROPIC: 1, PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC: 1,
                PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC: 2}.get(kind, 0)
        sv = np.linalg.svd(G, compute_uv=False)
        assert (sv[:, :rank] > rel).all() and (sv[:, rank:] <= rel).all()
    if kind in ANTIHOLOMORPHIC_KINDS:
        assert np.abs(X @ g @ J @ X.swapaxes(1, 2)).max() <= rel
    elif kind is PlaneKind.ISOTROPIC_HOLOMORPHIC:
        basis = np.linalg.qr(X.swapaxes(1, 2))[0]  # (k, m, 2)
        JX = J @ X.swapaxes(1, 2)
        assert np.abs(JX - basis @ (basis.swapaxes(1, 2) @ JX)).max() <= rel


class TestLopsidedSignatures:
    """Every kind draws wherever its row fits, however lopsided the signature,
    and every sample holds its kind's predicate."""

    @pytest.mark.parametrize("m", [4, 8, 12, 16, 20])
    def test_every_fitting_kind_draws(self, m):
        for s in range(0, m + 1, 2):
            model = hermitian_model(m, s)
            for kind in PlaneKind:
                if not SIGNATURES[kind].fitting(model):
                    with pytest.raises(UnsupportedSignature):
                        sample_planes(model, kind, 200, seed=3)
                    continue
                assert_kind_predicate(model, kind, sample_planes(model, kind, 200, seed=3))
            if PLUS_MINUS_PAIR.fitting(model):
                XI = _unit_rows(isotropic_vectors(model, 200, seed=3))
                assert np.abs(np.einsum("ki,ij,kj->k", XI, model.metric, XI)).max() <= 1e-12


def curvature_like_basis(m):
    """An orthonormal basis (rows) of the curvature-like tensors on R^m: the
    symmetric products of bivectors, each with its Bianchi cyclic part
    removed, orthonormalized by one SVD."""
    a, b = np.triu_indices(m, 1)
    W = np.zeros((len(a), m, m))
    W[np.arange(len(a)), a, b], W[np.arange(len(a)), b, a] = 1.0, -1.0
    p, q = np.triu_indices(len(a))
    T = np.einsum("pij,pkl->pijkl", W[p], W[q])
    T = T + T.transpose(0, 3, 4, 1, 2)
    T = T - (T + T.transpose(0, 2, 3, 1, 4) + T.transpose(0, 3, 1, 2, 4)) / 3.0
    _, sv, Vt = np.linalg.svd(T.reshape(len(p), -1), full_matrices=False)
    return Vt[sv > 1e-9 * sv[0]]


@pytest.fixture(scope="module")
def basis8():
    basis = curvature_like_basis(8)
    assert basis.shape == (336, 8 ** 4)
    return basis


class TestSampledRank:
    """The sampled side R(x,y,y,x) over a kind's planes, as a linear map on the
    curvature-like tensors, reaches the rank of the exact side: its null
    space is the tensors the theorem's exact criterion accepts."""

    RANKS = {PlaneKind.WEAKLY_ISOTROPIC: 335, PlaneKind.STRONGLY_ISOTROPIC: 300,
             PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC: 307,
             PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC: 272,
             PlaneKind.ISOTROPIC_HOLOMORPHIC: 84}

    @pytest.mark.parametrize("kind", list(RANKS))
    @MODELS
    def test_the_sampled_side_spans(self, basis8, model, kind):
        planes = sample_planes(model, kind, 400)
        x, y = planes[:, 0], planes[:, 1]
        rows = np.einsum("ka,kb,kc,kd->kabcd", x, y, y, x).reshape(len(planes), -1) @ basis8.T

        def rank(M):
            sv = np.linalg.svd(M, compute_uv=False)
            return int(np.sum(sv > 1e-9 * sv[0]))

        assert rank(rows) == self.RANKS[kind]
        if kind is not PlaneKind.ISOTROPIC_HOLOMORPHIC:
            assert rank(rows[:200]) == 200


class TestSignatureTable:
    def test_without_j_only_for_kinds_that_need_it(self):
        riemannian = ModelPoint(4, 0)
        with pytest.raises(UnsupportedSignature, match=r"\(0,4\); needs \(s, m-s\) >= "):
            sample_planes(riemannian, PlaneKind.WEAKLY_ISOTROPIC, 1)
        with pytest.raises(UnsupportedSignature, match=" without J$"):
            sample_planes(ModelPoint(8, 4), PlaneKind.ISOTROPIC_HOLOMORPHIC, 1)

    @pytest.mark.parametrize("kind", list(PlaneKind))
    def test_rows_agree_with_the_sampler(self, kind):
        # on every small model, a kind samples exactly where its row fits
        models = [ModelPoint(m, s) for m in range(1, 7) for s in range(m + 1)]
        models += [hermitian_model(m, s) for m in (2, 4, 6, 8) for s in range(0, m + 1, 2)]
        for model in models:
            fits = bool(SIGNATURES[kind].fitting(model))
            try:
                sample_planes(model, kind, 2, seed=1)
            except UnsupportedSignature:
                assert not fits
            else:
                assert fits

    def test_nondegenerate_antiholomorphic_draws_its_signs(self, h44):
        # all three sign options fit (4, 4); the sampler draws among them
        signs = {tuple(np.sign([inner(h44, u, u) for u in frame]))
                 for frame in sample_planes(h44, PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC, 60,
                                            seed=3)}
        assert signs == {(1, 1), (1, -1), (-1, -1)}


class TestSeededSamplers:
    def test_sample_rng_is_the_per_trial_stream(self):
        a = sample_rng(5, 3).uniform(size=4)
        assert np.array_equal(a, np.random.default_rng([5, 3]).uniform(size=4))

    def test_isotropic_holomorphic_is_a_drawn_row_and_its_j_image(self, h44):
        # the plane (xi, J xi) of the drawn xi = Q(x + a), with the bits of J @ xi
        kind = PlaneKind.ISOTROPIC_HOLOMORPHIC
        batch = sample_planes(h44, kind, 5, seed=6)
        XI = SIGNATURES[kind].draw(h44, 6, 5, "a test draw")[:, 0]
        for (u, v), xi in zip(batch, XI):
            assert np.array_equal(u, xi) and np.array_equal(v, h44.cplx @ xi)

    def test_least_signature_comes_from_the_signs(self):
        assert SIGNATURES[PlaneKind.WEAKLY_ISOTROPIC].least == ((1, 2), (2, 1))
        assert SIGNATURES[PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC].least == ((2, 4), (4, 2))
        assert SIGNATURES[PlaneKind.ISOTROPIC_HOLOMORPHIC].least == ((2, 2),)
        assert SIGNATURES[PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC].least == (
            (0, 4), (2, 2), (4, 0))

    def test_random_frame_signs(self, h44):
        rows = Signature(True, ((1, -1, -1),)).basis_rows(h44, (1, -1, -1))
        frame = random_frames(h44, rows, np.random.default_rng(0), 1, antiholomorphic=True)[0]
        G = np.array([[inner(h44, u, v) for v in frame] for u in frame])
        assert np.allclose(G, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_isotropic_vectors(self, m22):
        XI = isotropic_vectors(m22, 20, seed=4)
        assert XI.shape == (20, 4)
        assert max(abs(inner(m22, x, x)) for x in XI) <= 1e-12
        assert isotropic_vectors(m22, 20, seed=4) is XI
        assert np.array_equal(isotropic_vectors(m22, 5, seed=4), XI[:5])

    def test_isotropic_vectors_are_read_only(self, m22):
        XI = isotropic_vectors(m22, 5, seed=1)
        assert not XI.flags.writeable
        with pytest.raises(ValueError):
            XI[0, 0] = 1.0

    def test_isotropic_vectors_need_both_signs(self):
        with pytest.raises(UnsupportedSignature, match="isotropic vectors"):
            isotropic_vectors(ModelPoint(3, 0), 1)
        with pytest.raises(InvalidSampleCount):
            isotropic_vectors(ModelPoint(3, 1), 0)


class TestBoundedIsometries:
    """K is scaled to spectral norm at most 0.95, so every Cayley isometry Q
    and its inverse have spectral norm at most (1 + 0.95) / (1 - 0.95) = 39,
    however the doubles fall: on the identity rows a sample is Q^T itself.
    On (1,1) the bound on |K|_2 is exact, so every Q there reaches 39."""

    @pytest.mark.parametrize("m", [2, 4, 8, 12, 16, 20])
    def test_every_isometry_is_bounded(self, m):
        for model, antiholomorphic in ((ModelPoint(m, m // 2), False),
                                       (hermitian_model(m, 2 * (m // 4)), True)):
            Q = random_frames(model, np.eye(m), np.random.default_rng(m), 500,
                              antiholomorphic=antiholomorphic)
            sv = np.linalg.svd(Q, compute_uv=False)
            assert sv.max() <= 39.0 * (1 + 1e-12) and sv.min() >= (1 - 1e-12) / 39.0
            eta = np.diag(adapted_basis(model).signs)
            assert np.allclose(Q @ eta @ Q.swapaxes(1, 2), eta, rtol=0, atol=1e-12 * 39 ** 2)


class TestLargeDraws:
    """A draw holds one chunk of samples' K at a time, whatever its count."""

    def test_a_large_draw_holds_one_chunk_of_generators(self, h44):
        # K and its temporaries for all 4096 samples at once would pass 8 MB;
        # a draw holds one chunk of them
        tracemalloc.start()
        try:
            batch = sample_planes.__wrapped__(h44, PlaneKind.STRONGLY_ISOTROPIC, 4096, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - batch.nbytes < 8e6

    def test_a_draw_does_not_grow_with_its_count(self):
        # at m = 20, K alone is 13 MB per 4096 samples
        model, peaks = hermitian_model(20, 10), []
        for count in (4096, 8192):
            tracemalloc.start()
            try:
                batch = sample_planes.__wrapped__(model, PlaneKind.STRONGLY_ISOTROPIC, count,
                                                  seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1] - batch.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

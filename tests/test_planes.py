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
    build_space_form,
    classify_holomorphy,
    classify_plane,
    gram_schmidt_indefinite,
    hermitian_model,
    inner,
    pi1,
    sample_planes,
    sectional_curvature,
)
from isocurv.errors import (
    DegeneratePlane,
    DegenerateSubspace,
    DependentInput,
    InvalidSampleCount,
    NonFiniteTensor,
    UnsupportedSignature,
)
from isocurv.planes import (
    PLUS_MINUS_PAIR,
    SIGNATURES,
    isotropic_vectors,
    random_frames,
    sample_rng,
    sample_rngs,
)

from conftest import oracle_random_frame, pulled_back_hermitian


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


# each kind's sample from its frame (x, y, a, b), written out per kind
ORACLE_ASSEMBLY = {
    PlaneKind.WEAKLY_ISOTROPIC: lambda J, f: [f[0] + f[2], f[1]],
    PlaneKind.STRONGLY_ISOTROPIC: lambda J, f: [f[0] + f[2], f[1] + f[3]],
    PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC: lambda J, f: [f[1] + f[2], f[0]],
    PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC: lambda J, f: [f[0] + f[2], f[1] + f[3]],
    PlaneKind.ISOTROPIC_HOLOMORPHIC: lambda J, f: [f[0] + f[1], J @ (f[0] + f[1])],
    PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC: lambda J, f: f,
    PlaneKind.QUADRUPLE_PPMM: lambda J, f: f,
    PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM: lambda J, f: f,
}


class TestLockstepFrames:
    """The batched sampler against the per-sample oracle in conftest."""

    @pytest.mark.parametrize("kind", list(PlaneKind))
    @pytest.mark.parametrize("model", [hermitian_model(8, 4), pulled_back_hermitian(8, 4)],
                             ids=["h44", "pulled-back-h44"])
    def test_sample_planes_match_the_oracle(self, model, kind):
        row = SIGNATURES[kind]
        options = row.fitting(model)
        expected = []
        for i in range(25):
            rng = sample_rng(2, i)
            signs = options[rng.integers(len(options))] if row.pick_at_random else options[0]
            frame = oracle_random_frame(model, signs, rng, antiholomorphic=row.needs_j)
            expected.append(ORACLE_ASSEMBLY[kind](model.cplx, frame))
        assert np.array_equal(sample_planes(model, kind, 25, seed=2), expected)

    @pytest.mark.parametrize("model", [hermitian_model(8, 4), pulled_back_hermitian(8, 4)],
                             ids=["h44", "pulled-back-h44"])
    def test_rows_are_independent(self, model):
        # mixed per-row signs: row i of the batch is the one-row call on rngs[i]
        signs = [(1, 1), (1, -1), (-1, -1), (-1, 1)] * 3
        rngs = [sample_rng(4, i) for i in range(12)]
        batch = random_frames(model, signs, rngs, antiholomorphic=True)
        for i, want in enumerate(signs):
            one = random_frames(model, want, [sample_rng(4, i)], antiholomorphic=True)
            assert np.array_equal(batch[i], one[0])
            rng = sample_rng(4, i)
            oracle = oracle_random_frame(model, want, rng, antiholomorphic=True)
            assert np.array_equal(batch[i], oracle)
            assert rngs[i].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("row", list(SIGNATURES.values()) + [PLUS_MINUS_PAIR],
                             ids=[k.value for k in SIGNATURES] + ["plus-minus-pair"])
    @pytest.mark.parametrize("model", [hermitian_model(8, 4), pulled_back_hermitian(8, 4)],
                             ids=["h44", "pulled-back-h44"])
    def test_draw_is_random_frames_with_the_oracle_pick(self, model, row):
        rngs = [sample_rng(2, i) for i in range(25)]
        options = row.fitting(model)
        signs = [options[rng.integers(len(options))] if row.pick_at_random else options[0]
                 for rng in rngs]
        expected = random_frames(model, signs, rngs, antiholomorphic=row.needs_j)
        got = row.draw(model, [sample_rng(2, i) for i in range(25)], "a test draw")
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("row", list(SIGNATURES.values()) + [PLUS_MINUS_PAIR],
                             ids=[k.value for k in SIGNATURES] + ["plus-minus-pair"])
    @pytest.mark.parametrize("model", [hermitian_model(8, 4), pulled_back_hermitian(8, 4)],
                             ids=["h44", "pulled-back-h44"])
    def test_draw_leaves_each_generator_where_the_oracle_does(self, model, row):
        # candidates come in blocks; each generator is rewound to the draws it used
        options = row.fitting(model)
        oracle_rngs = [sample_rng(2, i) for i in range(25)]
        for rng in oracle_rngs:
            signs = options[rng.integers(len(options))] if row.pick_at_random else options[0]
            oracle_random_frame(model, signs, rng, antiholomorphic=row.needs_j)
        rngs = [sample_rng(2, i) for i in range(25)]
        row.draw(model, rngs, "a test draw")
        states = [rng.bit_generator.state for rng in rngs]
        assert states == [rng.bit_generator.state for rng in oracle_rngs]
        # the pick leaves half of a 64-bit draw buffered; advance() would drop it
        assert any(state["has_uint32"] for state in states) == row.pick_at_random

    def test_a_rare_sign_is_drawn_not_unsupported(self):
        # at h(20,8) a timelike vector off (x, Jx) with x timelike passes 0.5-3%
        # of the time; sample 6 of this stream needs more than 1000 candidates
        model = hermitian_model(20, 8)
        batch = sample_planes(model, PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC, 150,
                              seed=123456789)
        rng = sample_rng(123456789, 6)
        options = SIGNATURES[PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC].fitting(model)
        signs = options[rng.integers(len(options))]
        assert signs == (-1, -1)
        oracle = oracle_random_frame(model, signs, rng, antiholomorphic=True)
        assert np.array_equal(batch[6], oracle)
        G = np.einsum("kim,mn,kjn->kij", batch, model.metric, batch)
        assert np.allclose(np.abs(G), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("row", list(SIGNATURES.values()) + [PLUS_MINUS_PAIR],
                             ids=[k.value for k in SIGNATURES] + ["plus-minus-pair"])
    def test_draw_without_a_fitting_option_consumes_nothing(self, row):
        model = ModelPoint(4, 0)  # no J and no timelike direction: no row fits
        rngs = [sample_rng(1, i) for i in range(3)]
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(UnsupportedSignature, match="^a test draw impossible "):
            row.draw(model, rngs, "a test draw")
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_unrealizable_signs_are_unsupported(self, m22):
        rng = sample_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(UnsupportedSignature, match=r"signature \(1, 1, 1\) in \(2,2\)"):
            random_frames(m22, (1, 1, 1), [rng])
        assert rng.bit_generator.state == state  # raised before any draw


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
    def test_sample_rng_is_the_per_sample_stream(self):
        a = sample_rng(5, 3).uniform(size=4)
        assert np.array_equal(a, np.random.default_rng([5, 3]).uniform(size=4))

    def test_isotropic_holomorphic_is_one_antiholomorphic_frame(self, h44):
        # the plane (x + a, J(x + a)) of the antiholomorphic (+,-) frame (x, a)
        # drawn from the sample's generator
        batch = sample_planes(h44, PlaneKind.ISOTROPIC_HOLOMORPHIC, 5, seed=6)
        for i, (u, v) in enumerate(batch):
            x, a = random_frames(h44, (1, -1), [sample_rng(6, i)], antiholomorphic=True)[0]
            assert np.array_equal(u, x + a) and np.array_equal(v, h44.cplx @ (x + a))

    def test_least_signature_comes_from_the_signs(self):
        assert SIGNATURES[PlaneKind.WEAKLY_ISOTROPIC].least == ((1, 2), (2, 1))
        assert SIGNATURES[PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC].least == ((2, 4), (4, 2))
        assert SIGNATURES[PlaneKind.ISOTROPIC_HOLOMORPHIC].least == ((2, 2),)
        assert SIGNATURES[PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC].least == (
            (0, 4), (2, 2), (4, 0))

    def test_random_frame_signs(self, h44):
        frame = random_frames(h44, (1, -1, -1), [sample_rng(0, 0)], antiholomorphic=True)[0]
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


class TestBatchDraws:
    """A draw's generators seeded in one pass, candidates tested in growing
    windows, and large draws made in chunks: the bits of one generator and
    one candidate at a time."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, -1, -2**63])
    @pytest.mark.parametrize("start, stop", [(0, 6), (5, 12)], ids=["from-0", "from-5"])
    def test_sample_rngs_is_the_stream(self, seed, start, stop):
        # 2**32 and up take two entropy words; negative seeds are folded by the mask
        rngs = sample_rngs(seed, start, stop)
        assert len(rngs) == stop - start
        for j, rng in enumerate(rngs):
            one = sample_rng(seed, start + j)
            assert rng.bit_generator.state == one.bit_generator.state
            assert np.array_equal(rng.uniform(-1.0, 1.0, 3), one.uniform(-1.0, 1.0, 3))
            assert rng.integers(3) == one.integers(3)
            assert rng.bit_generator.state == one.bit_generator.state
        with pytest.raises(ValueError, match="four uint64 words"):
            rngs[0].bit_generator.seed_seq.generate_state(8)

    @pytest.mark.parametrize("kind", [PlaneKind.STRONGLY_ISOTROPIC,
                                      PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC])
    def test_rows_across_a_chunk_boundary(self, h44, kind):
        # 2100 samples are drawn 1024 at a time; rows 1020..1030 straddle a boundary
        row = SIGNATURES[kind]
        batch = sample_planes(h44, kind, 2100, seed=9)
        options = row.fitting(h44)
        for i in range(1020, 1031):
            rng = sample_rng(9, i)
            signs = options[rng.integers(len(options))] if row.pick_at_random else options[0]
            frame = random_frames(h44, signs, [rng], antiholomorphic=row.needs_j)[0]
            assert np.array_equal(batch[i], ORACLE_ASSEMBLY[kind](h44.cplx, frame))

    def test_a_large_draw_holds_one_chunk_of_generators(self, h44):
        # one live generator and candidate block per sample would peak at about
        # 14.5 MB here (3.5 KB per row); a chunk of them stays near 6 MB
        tracemalloc.start()
        try:
            batch = sample_planes.__wrapped__(h44, PlaneKind.STRONGLY_ISOTROPIC, 4096, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - batch.nbytes < 8e6

    def test_a_draw_that_runs_out_of_tries(self):
        # (10,2) leaves almost no spacelike candidates: a +1 vector misses all
        # of its 10**4 tries, and the window stays capped at the block while it does
        with pytest.raises(UnsupportedSignature) as info:
            sample_planes(hermitian_model(12, 10), PlaneKind.WEAKLY_ISOTROPIC, 2, seed=3)
        assert str(info.value) == "could not realize a frame of signature (1, 1, -1) in (10,2)"

import numpy as np
import pytest

import isocurv.diagnostics as diag
from isocurv import (
    ModelPoint,
    Plane,
    PlaneKind,
    conjugate,
    hermitian_model,
    pi1,
    pi2,
    quad_eval,
    quad_eval_batch,
    ricci,
    ricci_star,
    sample_planes,
    scalar_curv,
    scalar_star,
    validate_curvature_like,
)
from isocurv.diagnostics import random_curvature_like
from isocurv.errors import MissingComplexStructure, NonFiniteTensor
from isocurv.planes import SIGNATURES
from isocurv.tensors import max_norm, residual_scale

from conftest import (
    non_diagonal_model,
    oracle_quad_eval,
    oracle_ricci,
    oracle_ricci_general,
    oracle_ricci_star,
    oracle_ricci_star_general,
    oracle_scalar,
    pullback_rel,
    pulled_back_hermitian,
)


class TestMaxNorm:
    """max |T| as max(max T, -min T): the same number as the abs pass, and a
    non-finite component still reaches residual_scale."""

    def test_matches_the_abs_pass(self):
        rng = np.random.default_rng(2)
        for shape in ((5,), (3, 4), (4, 4, 4, 4)):
            T = rng.normal(size=shape)
            assert max_norm(T) == float(np.max(np.abs(T)))
        assert max_norm(np.array([-3.0, 1.0])) == 3.0
        assert max_norm(np.zeros(0)) == 0.0

    def test_zero_is_positive_zero(self):
        got = max_norm(np.full((2, 2), -0.0))
        assert got == 0.0 and np.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("value, want", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")],
                             ids=["nan", "plus-inf", "minus-inf"])
    def test_non_finite_component(self, value, want):
        T = np.random.default_rng(3).normal(size=(4, 4, 4, 4))
        T[1, 2, 3, 0] = value
        got = max_norm(T)
        assert np.isnan(got) if want == "nan" else got == np.inf
        with pytest.raises(NonFiniteTensor):
            residual_scale(T)


class TestCurvatureLike:
    def test_pi1_passes(self, m22):
        assert validate_curvature_like(m22, pi1(m22)).verdict

    def test_zero_passes(self, m22):
        assert validate_curvature_like(m22, np.zeros((4,) * 4)).verdict

    def test_single_component_fails_skewness(self, m22):
        T = np.zeros((4,) * 4)
        T[0, 1, 2, 3] = 1.0
        rep = validate_curvature_like(m22, T)
        assert not rep.verdict
        assert rep.skew_first == 1.0

    def test_random_generator_has_exact_symmetries(self, m22, h44):
        for model in (m22, h44):
            for trial in range(5):
                rep = validate_curvature_like(model, random_curvature_like(model, 7, trial))
                assert max(rep.skew_first, rep.skew_last, rep.bianchi,
                           rep.pair_symmetry) <= 1e-12


class TestRicci:
    def test_constant_curvature(self, m22):
        c = 0.7
        T = c * pi1(m22)
        rho = ricci(m22, T)
        assert np.allclose(rho, 3 * c * m22.metric, atol=1e-12)
        assert np.allclose(rho, oracle_ricci(m22, T), atol=1e-12)

    def test_zero(self, m22):
        assert np.array_equal(ricci(m22, np.zeros((4,) * 4)), np.zeros((4, 4)))

    def test_kaehler_space_form(self, h44):
        mu, n = 1.3, 4
        T = (mu / 4) * (pi1(h44) + pi2(h44))
        rho = ricci(h44, T)
        assert np.allclose(rho, mu * (n + 1) / 2 * h44.metric, atol=1e-12)
        assert np.allclose(rho, oracle_ricci(h44, T), atol=1e-12)

    def test_symmetric_on_curvature_like(self, m23):
        T = random_curvature_like(m23, 5)
        rho = ricci(m23, T)
        assert np.allclose(rho, rho.T, atol=1e-12)


class TestScalar:
    def test_constant_curvature(self, m22):
        assert scalar_curv(m22, 0.5 * pi1(m22)) == pytest.approx(6.0, abs=1e-12)

    def test_zero(self, m22):
        assert scalar_curv(m22, np.zeros((4,) * 4)) == 0.0

    def test_space_form_trace(self, h44):
        from isocurv import build_space_form

        nu, mu, m = 0.4, 1.1, 8
        T = build_space_form(h44, nu, mu)
        expected = nu * m * (m - 1) + (mu - nu) * m
        assert scalar_curv(h44, T) == pytest.approx(expected, rel=1e-12)
        assert scalar_curv(h44, T) == pytest.approx(
            oracle_scalar(h44, oracle_ricci(h44, T)), rel=1e-12)

    def test_double_contraction_identity(self, m23):
        T = random_curvature_like(m23, 9)
        ginv = m23.metric_inv
        double = np.einsum("il,yz,iyzl->", ginv, ginv, T)
        # tau = sum_ij eps_i eps_j T(e_i, e_j, e_j, e_i)
        eps = np.diag(m23.metric)
        brute = sum(eps[i] * eps[j] * T[i, j, j, i]
                    for i in range(5) for j in range(5))
        assert scalar_curv(m23, T) == pytest.approx(brute, abs=1e-12)
        assert scalar_curv(m23, T) == pytest.approx(double, abs=1e-12)


class TestRicciStar:
    def test_pi1_gives_metric(self, h44):
        assert np.allclose(ricci_star(h44, pi1(h44)), h44.metric, atol=1e-12)

    def test_kaehler_space_form(self, h44):
        mu, n = -0.8, 4
        T = (mu / 4) * (pi1(h44) + pi2(h44))
        rs = ricci_star(h44, T)
        assert np.allclose(rs, mu * (n + 1) / 2 * h44.metric, atol=1e-12)
        assert np.allclose(rs, oracle_ricci_star(h44, T), atol=1e-12)

    def test_zero(self, h44):
        assert np.array_equal(ricci_star(h44, np.zeros((8,) * 4)), np.zeros((8, 8)))

    def test_requires_j(self, m22):
        with pytest.raises(MissingComplexStructure):
            ricci_star(m22, pi1(m22))


class TestScalarStar:
    def test_pi1(self, h44):
        assert scalar_star(h44, pi1(h44)) == pytest.approx(8.0, abs=1e-12)

    def test_zero(self, h44):
        assert scalar_star(h44, np.zeros((8,) * 4)) == 0.0

    def test_kaehler_space_form(self, h44):
        mu, n = 2.5, 4
        T = (mu / 4) * (pi1(h44) + pi2(h44))
        assert scalar_star(h44, T) == pytest.approx(mu * n * (n + 1), rel=1e-12)


class TestConjugate:
    def test_pi1_invariant(self, h44):
        assert np.allclose(conjugate(h44, pi1(h44)), pi1(h44), atol=1e-12)

    def test_pi2_invariant(self, h44):
        assert np.allclose(conjugate(h44, pi2(h44)), pi2(h44), atol=1e-12)

    def test_zero(self, h44):
        assert np.array_equal(conjugate(h44, np.zeros((8,) * 4)), np.zeros((8,) * 4))

    def test_involution(self, h44):
        T = random_curvature_like(h44, 2)
        assert np.allclose(conjugate(h44, conjugate(h44, T)), T, atol=1e-12)


class TestGeneralMetricContractions:
    """Ricci-type contractions on a non-diagonal metric, and those of the
    conjugate tensor as J-conjugates of the tensor's own."""

    @pytest.mark.parametrize("dims", [(6, 2), (8, 4)])
    def test_ricci_and_ricci_star_match_loop_oracles(self, dims):
        model = pulled_back_hermitian(*dims, seed=7)
        T = np.random.default_rng(1).uniform(-1.0, 1.0, (dims[0],) * 4)
        ginv = np.linalg.inv(model.metric)
        assert np.allclose(ricci(model, T), oracle_ricci_general(ginv, T), rtol=0, atol=1e-12)
        assert np.allclose(ricci_star(model, T), oracle_ricci_star_general(ginv, model.cplx, T),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims,seed", [((6, 2), 3), ((8, 4), 3), ((8, 4), 5)],
                             ids=["pulled-back-h24-seed3", "pulled-back-h44-seed3",
                                  "pulled-back-h44-seed5"])
    def test_riccis_of_the_conjugate_are_j_conjugates(self, dims, seed):
        # rho(conjugate(T)) = J^T rho(T) J and rho*(conjugate(T)) = J^T rho*(T) J
        # for any T, since J is g-orthogonal: how bochner gets them
        model = pulled_back_hermitian(*dims, seed=seed)
        J = model.cplx
        T = np.random.default_rng(2).uniform(-1.0, 1.0, (dims[0],) * 4)  # no symmetries
        full = conjugate(model, T)
        rel = pullback_rel(model.metric)
        for contraction in (ricci, ricci_star):
            want = contraction(model, full)
            got = J.T @ contraction(model, T) @ J
            assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


class TestQuadEvalBatch:
    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_matches_four_loop_oracle(self, m):
        model = non_diagonal_model(m, 2, seed=m)
        rng = np.random.default_rng(m)
        T = rng.uniform(-1.0, 1.0, (m,) * 4)  # no symmetries at all
        X, Y = sample_planes(model, PlaneKind.STRONGLY_ISOTROPIC, 6, seed=m).transpose(1, 0, 2)
        Z, U = rng.normal(size=(2, 6, m))
        got = quad_eval_batch(T, X, Y, Z, U)
        assert got.shape == (6,)
        for k in range(6):
            want = oracle_quad_eval(T, X[k], Y[k], Z[k], U[k])
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert quad_eval(T, X[k], Y[k], Z[k], U[k]) == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_curvature_symmetries(self, m):
        model = non_diagonal_model(m, 2, seed=m)
        R = random_curvature_like(model, 3)
        rng = np.random.default_rng(100 + m)
        X, Y, Z, U = rng.normal(size=(4, 20, m))
        base = quad_eval_batch(R, X, Y, Z, U)
        assert np.max(np.abs(base)) > 1e-3
        cut = 1e-12 * max(1.0, np.max(np.abs(base)))
        assert np.max(np.abs(quad_eval_batch(R, Y, X, Z, U) + base)) <= cut
        assert np.max(np.abs(quad_eval_batch(R, X, Y, U, Z) + base)) <= cut
        assert np.max(np.abs(quad_eval_batch(R, Z, U, X, Y) - base)) <= cut


def _broadcast_kernel(T, X, Y, Z, U):
    """The kernel before pair rows were split out: broadcast outer products."""
    k, m = X.shape
    xy = (X[:, :, None] * Y[:, None, :]).reshape(k, m * m)
    zu = (Z[:, :, None] * U[:, None, :]).reshape(k, m * m)
    return np.einsum("kp,kp->k", xy @ T.reshape(m * m, m * m), zu)


class TestMemoizedPairRows:
    """The per-request pair rows of ``diagnostics``, multiplied by R in the
    per-tensor holder's ``quad``, give the values of the broadcast kernel, bit
    for bit up to the sign of a zero, for every ordered pair of distinct
    basis rows of every kind's batch."""

    @pytest.mark.parametrize("model", [
        hermitian_model(8, 4), hermitian_model(12, 6), pulled_back_hermitian(8, 4, seed=5),
        ModelPoint(5, 2)], ids=["h44", "h66", "pulled-back-h44", "m23"])
    def test_match_the_broadcast_kernel(self, model):
        R = random_curvature_like(model, 11)
        planes = diag._RequestPlanes(model, 12, 3)
        sides = diag._Sides(model, R, 1.0, planes)
        kinds = [kind for kind, row in SIGNATURES.items() if row.fitting(model)]
        assert len(kinds) == (8 if model.has_cplx else 3)
        cases = 0
        for kind in kinds:
            batch = planes.batch(kind)
            rows = range(batch.shape[1])
            pairs = [(i, j) for i in rows for j in rows if i != j]
            for i, j in pairs:
                for a, b in pairs:
                    got = sides.quad(kind, i, j, a, b)
                    want = _broadcast_kernel(R, *batch.transpose(1, 0, 2)[[i, j, a, b]])
                    assert np.array_equal(got, want), (kind, i, j, a, b)
                    cases += 1
        assert cases == (312 if model.has_cplx else 152)

    def test_reversed_rows_are_the_transposed_copy(self, h44):
        planes = diag._RequestPlanes(h44, 12, 3)
        xa = planes.pair(PlaneKind.QUADRUPLE_PPMM, 0, 2)
        ax = planes.pair(PlaneKind.QUADRUPLE_PPMM, 2, 0)
        assert ax.flags.c_contiguous
        assert np.array_equal(ax, xa.reshape(12, 8, 8).transpose(0, 2, 1).reshape(12, 64))
        assert planes.pair(PlaneKind.QUADRUPLE_PPMM, 2, 0) is ax

    def test_gram_discriminants_built_once(self, h44):
        kind = PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC
        planes = diag._RequestPlanes(h44, 12, 3)
        disc = planes.disc(kind)
        assert planes.disc(kind) is disc
        want = [Plane(x, y).gram(h44) for x, y in planes.batch(kind)]
        assert np.allclose(disc, [g[0, 0] * g[1, 1] - g[0, 1] ** 2 for g in want],
                           rtol=0, atol=1e-12)

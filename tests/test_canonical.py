import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocurv import (
    ModelPoint,
    bochner,
    build_conformally_flat,
    build_constant_curvature,
    build_space_form,
    conformal,
    hermitian_model,
    hybrid_residual,
    phi,
    pi1,
    pi2,
    psi,
    ricci,
    ricci_star,
    scalar_curv,
    scalar_star,
    validate_curvature_like,
)
from isocurv.canonical import (
    antiholomorphic_form_residual,
    antiholomorphic_forms,
    bochner_forms,
    conformal_forms,
    linear_residual,
    theorem6_identities,
)
from isocurv.diagnostics import flatness_norms, random_curvature_like
from isocurv.errors import (
    DimensionMismatch,
    HybridConditionViolated,
    InvalidSampleCount,
    IsocurvError,
    MissingComplexStructure,
    NonFiniteTensor,
    UnsupportedSignature,
)
from isocurv.tensors import max_norm, trace_g

from conftest import (
    oracle_bochner,
    oracle_conformal,
    oracle_phi,
    oracle_pi1,
    oracle_pi2,
    oracle_psi,
    pullback_rel,
    pulled_back_hermitian,
    random_symmetric,
)


class TestPhiPsi:
    def test_phi_of_metric(self, m22):
        assert np.allclose(phi(m22, m22.metric), 2.0 * pi1(m22), atol=1e-12)

    def test_psi_of_metric(self, h44):
        assert np.allclose(psi(h44, h44.metric), 2.0 * pi2(h44), atol=1e-12)

    def test_phi_ricci_identity(self, m23):
        # rho(phi(S)) = (m - 2) S + tr_g(S) g
        S = random_symmetric(np.random.default_rng(3), 5)
        got = ricci(m23, phi(m23, S))
        want = 3.0 * S + trace_g(m23, S) * m23.metric
        assert np.allclose(got, want, atol=1e-12)

    def test_phi_output_is_curvature_like(self, m23):
        S = random_symmetric(np.random.default_rng(8), 5)
        assert validate_curvature_like(m23, phi(m23, S)).verdict

    def test_psi_output_is_curvature_like(self, h44):
        assert validate_curvature_like(h44, psi(h44, h44.metric)).verdict

    def test_phi_rejects_asymmetric(self, m22):
        S = np.zeros((4, 4))
        S[0, 1] = 1.0
        with pytest.raises(IsocurvError):
            phi(m22, S)

    def test_psi_hybrid_violation(self, h44):
        S = np.zeros((8, 8))
        S[0, 0] = 1.0
        assert hybrid_residual(h44, S) > 0.5
        with pytest.raises(HybridConditionViolated):
            psi(h44, S)
        # the escape hatch still computes
        psi(h44, S, enforce_hybrid=False)

    def test_metric_is_hybrid(self, h44):
        assert hybrid_residual(h44, h44.metric) <= 1e-15


class TestConformal:
    def test_constant_curvature_is_conformally_flat(self, m22):
        R = build_constant_curvature(m22, 1.4)
        assert max_norm(conformal(m22, R)) <= 1e-12

    def test_builder_round_trip(self, m23):
        S = random_symmetric(np.random.default_rng(1), 5)
        R = build_conformally_flat(m23, S)
        assert validate_curvature_like(m23, R).verdict
        assert np.allclose(ricci(m23, R), S, atol=1e-12)
        assert max_norm(conformal(m23, R)) <= 1e-12

    def test_conformal_is_trace_free(self, m23):
        R = random_curvature_like(m23, 6)
        C = conformal(m23, R)
        assert max_norm(ricci(m23, C)) <= 1e-12 * max(1.0, max_norm(R))
        assert validate_curvature_like(m23, C).verdict

    def test_dimension_guard(self):
        from isocurv import ModelPoint

        with pytest.raises(DimensionMismatch):
            conformal(ModelPoint(3, 1), np.zeros((3,) * 4))

    def test_builder_rejects_asymmetric(self, m22):
        S = np.zeros((4, 4))
        S[0, 2] = 1.0
        with pytest.raises(IsocurvError):
            build_conformally_flat(m22, S)


class TestBochner:
    def test_space_forms_are_bochner_flat(self, h44):
        for nu, mu in ((0.5, 2.0), (0.5, 1.0), (-1.0, 3.0)):
            R = build_space_form(h44, nu, mu)
            assert max_norm(bochner(h44, R)) <= 1e-12 * max(1.0, max_norm(R))

    def test_random_tensor_not_bochner_flat(self, h44):
        R = random_curvature_like(h44, 4)
        assert max_norm(bochner(h44, R)) > 1e-3

    def test_dimension_guard(self, m22):
        mh = hermitian_model(4, 2)
        with pytest.raises(DimensionMismatch):
            bochner(mh, pi1(mh))

    def test_output_is_curvature_like(self, h24):
        R = random_curvature_like(h24, 2)
        assert validate_curvature_like(h24, bochner(h24, R)).verdict


class TestBuilders:
    def test_space_form_contractions(self, h44):
        nu, mu, n = 0.7, 1.9, 4
        R = build_space_form(h44, nu, mu)
        m = 2 * n
        assert validate_curvature_like(h44, R).verdict
        assert scalar_curv(h44, R) == pytest.approx(nu * m * (m - 1) + (mu - nu) * m, rel=1e-12)
        rs = ricci_star(h44, R)
        want = (nu + (mu - nu) * (2 * n + 1) / 3.0) * h44.metric
        assert np.allclose(rs, want, atol=1e-12)

    def test_kaehler_convention(self, h24):
        mu = 2.0
        R = build_space_form(h24, mu / 4.0, mu)
        assert np.allclose(R, (mu / 4.0) * (pi1(h24) + pi2(h24)), atol=1e-12)

    @staticmethod
    def _form_with(value):
        S = np.eye(8)
        S[0, 1] = S[1, 0] = value
        return S

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name, build", [
        ("c", lambda M, v: build_constant_curvature(M, v)),
        ("nu", lambda M, v: build_space_form(M, v, 1.0)),
        ("mu", lambda M, v: build_space_form(M, 1.0, v)),
        ("S", lambda M, v: build_conformally_flat(M, TestBuilders._form_with(v))),
    ], ids=["c", "nu", "mu", "S"])
    def test_non_finite_parameter_raises_before_any_arithmetic(self, h44, name, build, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(NonFiniteTensor, match=f"^{name} has a NaN or infinite value$"):
                build(h44, value)


class TestAntiholomorphicForm:
    def test_space_forms_satisfy_identity(self, h44, h24):
        for model in (h44, h24):
            for nu, mu in ((0.3, 1.7), (-0.5, 2.0), (1.0, 1.0)):
                R = build_space_form(model, nu, mu)
                assert antiholomorphic_form_residual(model, R, nu) <= 1e-12

    def test_wrong_nu_detected(self, h44):
        R = build_space_form(h44, 0.3, 1.7)
        assert antiholomorphic_form_residual(h44, R, 0.4) > 1e-2


class TestTheorem6Identities:
    def test_bochner_flat_passes(self, h44):
        R = build_space_form(h44, 0.5, 2.0)
        rep = theorem6_identities(h44, R, samples=100, seed=1)
        assert rep.verdict
        assert rep.basis_sum_residual <= 1e-10
        assert rep.holomorphic_k_residual <= 1e-10
        assert rep.mixed_pair_residual <= 1e-10
        assert rep.samples_used == 100

    def test_random_tensor_fails(self, h44):
        rep = theorem6_identities(h44, random_curvature_like(h44, 7), samples=50)
        assert not rep.verdict

    def test_deterministic(self, h44):
        R = random_curvature_like(h44, 3)
        a = theorem6_identities(h44, R, samples=40, seed=9)
        b = theorem6_identities(h44, R, samples=40, seed=9)
        assert a == b

    def test_signature_guard(self):
        # definite metric: no (+,-) orthonormal pairs exist
        mh = hermitian_model(6, 0)
        with pytest.raises(UnsupportedSignature):
            theorem6_identities(mh, pi1(mh), samples=10)

    def test_verdict_is_a_python_bool(self, h44):
        assert theorem6_identities(h44, build_space_form(h44, 0.5, 2.0), samples=10).verdict is True
        assert theorem6_identities(h44, random_curvature_like(h44, 7), samples=10).verdict is False

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, h44, value):
        R = build_space_form(h44, 0.5, 2.0)
        R[1, 2, 2, 1] = value
        with pytest.raises(NonFiniteTensor):
            theorem6_identities(h44, R, samples=10)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_rejected(self, h44, samples):
        with pytest.raises(InvalidSampleCount):
            theorem6_identities(h44, pi1(h44), samples=samples)


def _close(got, want, rel=1e-12):
    return max_norm(got - want) <= rel * max(1.0, max_norm(want))


class TestLoopOracles:
    """Derived tensors against explicit component loops written from the
    formulas, on a non-diagonal metric with J pulled back by a random A."""

    @pytest.fixture(params=[(6, 2), (8, 4)], ids=["m6", "m8"])
    def model(self, request):
        return pulled_back_hermitian(*request.param, seed=5)

    def test_phi_psi(self, model):
        g, J = model.metric, model.cplx
        S = random_symmetric(np.random.default_rng(1), model.dim)
        assert _close(phi(model, S), oracle_phi(g, S))
        assert _close(psi(model, S, enforce_hybrid=False), oracle_psi(g, J, S))

    def test_pi1_pi2(self, model):
        assert _close(pi1(model), oracle_pi1(model.metric))
        assert _close(pi2(model), oracle_pi2(model.metric, model.cplx))

    def test_conformal(self, model):
        R = random_curvature_like(model, 2)
        assert _close(conformal(model, R), oracle_conformal(model.metric, R))

    def test_bochner(self, model):
        R = random_curvature_like(model, 3)
        assert _close(bochner(model, R), oracle_bochner(model.metric, model.cplx, R))


def _einsum_phi(g, A):
    """phi(A)(x,y,z,u) = g(y,z)A(x,u) - g(x,z)A(y,u) + g(x,u)A(y,z) - g(y,u)A(x,z),
    one einsum per term."""
    return (np.einsum("yz,xu->xyzu", g, A) - np.einsum("xz,yu->xyzu", g, A)
            + np.einsum("xu,yz->xyzu", g, A) - np.einsum("yu,xz->xyzu", g, A))


def _einsum_psi(g, J, B):
    """psi(B)(x,y,z,u) = g(y,Jz)B(x,Ju) - g(x,Jz)B(y,Ju) - 2 g(x,Jy)B(z,Ju)
    + g(x,Ju)B(y,Jz) - g(y,Ju)B(x,Jz) - 2 g(z,Ju)B(x,Jy), one einsum per
    term, with g(a,Jb) = (gJ)[a,b] and B(a,Jb) = (BJ)[a,b]."""
    w, s = g @ J, B @ J
    return (np.einsum("yz,xu->xyzu", w, s) - np.einsum("xz,yu->xyzu", w, s)
            - 2.0 * np.einsum("xy,zu->xyzu", w, s) + np.einsum("xu,yz->xyzu", w, s)
            - np.einsum("yu,xz->xyzu", w, s) - 2.0 * np.einsum("zu,xy->xyzu", w, s))


class TestLinearResidual:
    """The one kernel R - phi(A) - psi(B) against the term-by-term formulas,
    on tensors with no curvature symmetries and forms with no symmetry."""

    @pytest.fixture(params=[(6, 2), (8, 4), (10, 4), (12, 6)], ids=["m6", "m8", "m10", "m12"])
    def model(self, request):
        return pulled_back_hermitian(*request.param, seed=7)

    def test_against_einsum_terms(self, model):
        m, g, J = model.dim, model.metric, model.cplx
        rng = np.random.default_rng(m)
        R = rng.uniform(-1.0, 1.0, (m,) * 4)
        A, B = rng.uniform(-1.0, 1.0, (2, m, m))
        phi_A, psi_B = _einsum_phi(g, A), _einsum_psi(g, J, B)
        assert _close(linear_residual(model, R, A, B), R - phi_A - psi_B, rel=1e-13)
        assert _close(linear_residual(model, R, A), R - phi_A, rel=1e-13)
        assert _close(linear_residual(model, R, np.zeros((m, m)), B), R - psi_B, rel=1e-13)

    def test_derived_tensors_are_the_kernel_at_their_forms(self, model):
        R = random_curvature_like(model, 4)
        rho, rs = ricci(model, R), ricci_star(model, R)
        assert np.array_equal(conformal(model, R),
                              linear_residual(model, R, *conformal_forms(model, rho)))
        assert np.array_equal(bochner(model, R),
                              linear_residual(model, R, *bochner_forms(model, rho, rs)))
        assert antiholomorphic_form_residual(model, R, 0.3) == max_norm(
            linear_residual(model, R, *antiholomorphic_forms(model, rs, 0.3)))

    def test_needs_j_only_for_a_psi_form(self, m22):
        R = np.zeros((4,) * 4)
        assert max_norm(linear_residual(m22, R, m22.metric / 2.0) + pi1(m22)) == 0.0
        with pytest.raises(MissingComplexStructure):
            linear_residual(m22, R, m22.metric, m22.metric)


def _pullback(T, A):
    """(A*T)(x, y, ...) = T(Ax, Ay, ...) for a tensor of any order."""
    for _ in range(T.ndim):
        T = np.tensordot(T, A, axes=(0, 0))  # the new axis goes last
    return T


class TestNaturality:
    """For the model pulled back by A (metric A^T g A, J = A^-1 J A), the
    derived tensors of A*R are A* of the derived tensors of R."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(6, 2), (8, 4)]))
    @example(seed=1356, dims=(8, 4))
    @example(seed=47812, dims=(8, 4))
    def test_bochner_and_conformal_commute_with_pullback(self, seed, dims):
        base = hermitian_model(*dims)
        rng = np.random.default_rng(seed)
        A = np.eye(base.dim) + 0.4 * rng.uniform(-1.0, 1.0, (base.dim, base.dim))
        pulled = ModelPoint(base.dim, base.index, metric=A.T @ base.metric @ A,
                            cplx=np.linalg.solve(A, base.cplx @ A))
        R = random_curvature_like(base, seed % 1000)
        rel = pullback_rel(pulled.metric)
        for derived in (bochner, conformal, ricci, ricci_star):
            want = _pullback(derived(base, R), A)
            assert _close(derived(pulled, _pullback(R, A)), want, rel=rel)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(6, 2), (8, 4)]))
    @example(seed=566835038, dims=(8, 4))
    @example(seed=2516376304, dims=(8, 4))
    def test_space_form_fits_commute_with_pullback(self, seed, dims):
        # a perturbed space form: kappa (the nu_hat of the model without J),
        # nu_hat and mu_hat are the same numbers on both models
        base = hermitian_model(*dims)
        rng = np.random.default_rng(seed)
        A = np.eye(base.dim) + 0.4 * rng.uniform(-1.0, 1.0, (base.dim, base.dim))
        g = A.T @ base.metric @ A
        pulled = ModelPoint(base.dim, base.index, metric=g, cplx=np.linalg.solve(A, base.cplx @ A))
        R = build_space_form(base, 0.5, 2.0) + 1e-3 * random_curvature_like(base, seed % 1000)
        RA = _pullback(R, A)
        rel = pullback_rel(g)
        for want, got in ((flatness_norms(base, R), flatness_norms(pulled, RA)),
                          (flatness_norms(ModelPoint(*dims), R),
                           flatness_norms(ModelPoint(*dims, metric=g), RA))):
            assert got.nu_hat == pytest.approx(want.nu_hat, rel=rel)
            if want.mu_hat is not None:
                assert got.mu_hat == pytest.approx(want.mu_hat, rel=rel)

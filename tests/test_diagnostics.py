import numpy as np
import pytest

from isocurv import (
    Frame,
    ModelPoint,
    Plane,
    PlaneKind,
    TheoremId,
    UniquenessKind,
    build_conformally_flat,
    build_constant_curvature,
    build_space_form,
    einstein_check,
    equivalence_check,
    flatness_norms,
    fuzz,
    hermitian_model,
    pi1,
    pi2,
    quad_eval,
    random_curvature_like,
    uniqueness_check,
    validate_curvature_like,
    vanishing_report,
)
from isocurv.diagnostics import applicable_theorems
from isocurv.errors import InvalidSampleCount, NonFiniteTensor, UnsupportedSignature
from isocurv.tensors import max_norm

from conftest import random_symmetric


def non_einstein_symmetric(model, seed=0):
    rng = np.random.default_rng(seed)
    S = random_symmetric(rng, model.dim)
    # keep it clearly away from multiples of the metric
    S[0, 0] += 2.0
    return S


class TestVanishing:
    def test_constant_curvature_on_weak_iso(self, m22):
        rep = vanishing_report(m22, build_constant_curvature(m22, 0.8),
                               PlaneKind.WEAKLY_ISOTROPIC, 500, seed=2)
        assert rep.verdict
        assert rep.witness is None
        assert rep.samples_used == 500

    def test_conf_flat_on_strong_iso(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        rep = vanishing_report(m22, R, PlaneKind.STRONGLY_ISOTROPIC, 500, seed=2)
        assert rep.verdict

    def test_witness_replays(self, m22):
        R = random_curvature_like(m22, 5)
        rep = vanishing_report(m22, R, PlaneKind.WEAKLY_ISOTROPIC, 100, seed=3)
        assert not rep.verdict
        p = rep.witness
        replay = abs(quad_eval(R, p.x, p.y, p.y, p.x)) / max(1.0, max_norm(R))
        assert replay == pytest.approx(rep.max_residual, rel=1e-12)
        assert replay > 1e-9


class TestFlatnessNorms:
    def test_constant_curvature(self, m23):
        norms = flatness_norms(m23, build_constant_curvature(m23, -1.2))
        assert norms.const_curv_residual <= 1e-12
        assert norms.conf_norm <= 1e-12
        assert norms.nu_hat == pytest.approx(-1.2, rel=1e-12)
        assert norms.boch_norm is None
        assert norms.antihol_residual is None

    def test_space_form_fit(self, h44):
        nu, mu = 0.4, 1.9
        norms = flatness_norms(h44, build_space_form(h44, nu, mu))
        assert norms.nu_hat == pytest.approx(nu, rel=1e-12)
        assert norms.mu_hat == pytest.approx(mu, rel=1e-12)
        assert norms.boch_norm <= 1e-12
        assert norms.antihol_residual <= 1e-12
        assert norms.const_curv_residual > 1e-3  # mu != nu

    def test_random_tensor_far_from_flat(self, m22):
        norms = flatness_norms(m22, random_curvature_like(m22, 1))
        assert norms.conf_norm > 1e-3
        assert norms.const_curv_residual > 1e-3


class _CallCounter:
    def __init__(self, monkeypatch, module, names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


class TestDerivedTensorsBuiltOnce:
    def test_fuzz_shares_conformal_and_bochner_within_a_trial(self, h44, monkeypatch):
        import isocurv.diagnostics as diag

        counter = _CallCounter(monkeypatch, diag, ["conformal", "bochner"])
        summary = fuzz(h44, trials=3, seed=1, samples=5)
        assert not summary["inconsistencies"]
        assert counter.calls == {"conformal": 3, "bochner": 3}

    def test_flatness_norms_builds_each_tensor_once(self, h44, monkeypatch):
        import isocurv.diagnostics as diag

        R = random_curvature_like(h44, 5)
        want = flatness_norms(h44, R)
        counter = _CallCounter(monkeypatch, diag, ["pi1", "pi2", "conformal", "bochner",
                                                   "antiholomorphic_form_residual"])
        assert flatness_norms(h44, R) == want
        assert set(counter.calls.values()) == {1}

    def test_equivalence_check_alone_matches_fuzz_sharing(self, h44):
        R = random_curvature_like(h44, 0, 0)
        summary = fuzz(h44, trials=1, seed=0, samples=5)
        for tid in applicable_theorems(h44):
            rep = equivalence_check(h44, R, tid, 5, 0)
            assert summary["checks"][tid.value]["consistent"] == int(rep.verdict)


class TestEquivalence:
    def test_thm_a_both_pass(self, m22):
        rep = equivalence_check(m22, build_constant_curvature(m22, 2.0),
                                TheoremId.THM_A_WEAK_ISO_CONST_K, 300, seed=1)
        assert rep.verdict and rep.witness is None

    def test_thm_a_both_fail(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        rep = equivalence_check(m22, R, TheoremId.THM_A_WEAK_ISO_CONST_K, 300, seed=1)
        assert rep.verdict  # both sides fail together
        assert rep.max_residual > 1e-9

    def test_thm_1_both_pass(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        rep = equivalence_check(m22, R, TheoremId.THM_1_STRONG_ISO_CONF_FLAT, 300, seed=1)
        assert rep.verdict
        assert all("pass" in n for n in rep.side_notes)

    def test_thm_1_both_fail(self, m22):
        rep = equivalence_check(m22, random_curvature_like(m22, 8),
                                TheoremId.THM_1_STRONG_ISO_CONF_FLAT, 300, seed=1)
        assert rep.verdict
        assert all("fail" in n for n in rep.side_notes)

    def test_thm_2(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        rep = equivalence_check(m22, R, TheoremId.THM_2_QUADRUPLES, 300, seed=1)
        assert rep.verdict

    def test_thm_5_space_form(self, h24):
        R = build_space_form(h24, 0.6, 2.1)
        rep = equivalence_check(h24, R, TheoremId.THM_5_WEAK_ISO_ANTIHOL, 300, seed=1)
        assert rep.verdict
        assert all("pass" in n for n in rep.side_notes)

    def test_thm_6_and_7_space_form(self, h44):
        R = build_space_form(h44, -0.3, 1.1)
        for tid in (TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER,
                    TheoremId.THM_7_ISO_HOL_BOCHNER,
                    TheoremId.LEMMA_2_EQUIV):
            rep = equivalence_check(h44, R, tid, 200, seed=1)
            assert rep.verdict
            assert all("pass" in n for n in rep.side_notes)

    def test_signature_guards(self, m22, h24):
        lorentz = ModelPoint(4, 1)
        with pytest.raises(UnsupportedSignature):
            equivalence_check(lorentz, pi1(lorentz), TheoremId.THM_1_STRONG_ISO_CONF_FLAT)
        with pytest.raises(UnsupportedSignature):
            equivalence_check(h24, pi1(h24), TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER)

    def test_deterministic(self, m22):
        R = random_curvature_like(m22, 4)
        a = equivalence_check(m22, R, TheoremId.THM_A_WEAK_ISO_CONST_K, 100, seed=6)
        b = equivalence_check(m22, R, TheoremId.THM_A_WEAK_ISO_CONST_K, 100, seed=6)
        assert a.max_residual == b.max_residual
        assert a.side_notes == b.side_notes


class TestEinstein:
    def test_einstein_input(self, m22):
        R = build_constant_curvature(m22, 1.5)
        rep = einstein_check(m22, R, 300, seed=2)
        assert rep.verdict
        assert all("pass" in n for n in rep.side_notes)

    def test_non_einstein_input(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        rep = einstein_check(m22, R, 300, seed=2)
        assert rep.verdict
        assert all("fail" in n for n in rep.side_notes)

    def test_definite_metric_rejected(self):
        model = ModelPoint(4, 0)
        with pytest.raises(UnsupportedSignature):
            einstein_check(model, pi1(model))


class TestUniqueness:
    def test_thm_b_constant_curvature(self, m22):
        rep = uniqueness_check(m22, UniquenessKind.THM_B, 0.9 * pi1(m22), 200, seed=1)
        assert rep.verdict
        assert all("pass" in n for n in rep.side_notes)

    def test_thm_b_generic_fails_both(self, m22):
        rep = uniqueness_check(m22, UniquenessKind.THM_B, random_curvature_like(m22, 2),
                               200, seed=1)
        assert rep.verdict
        assert all("fail" in n for n in rep.side_notes)

    def test_thm_c_zero_tensor(self, h44):
        rep = uniqueness_check(h44, UniquenessKind.THM_C, np.zeros((8,) * 4), 200, seed=1)
        assert rep.verdict
        assert rep.max_residual == 0.0

    def test_thm_c_pi2_fails_both(self, h44):
        rep = uniqueness_check(h44, UniquenessKind.THM_C, pi2(h44), 200, seed=1)
        assert rep.verdict
        assert all("fail" in n for n in rep.side_notes)

    def test_lemma_1(self, h44):
        rep = uniqueness_check(h44, UniquenessKind.LEMMA_1, np.zeros((8,) * 4), 100, seed=1)
        assert rep.verdict
        rep = uniqueness_check(h44, UniquenessKind.LEMMA_1, pi1(h44), 100, seed=1)
        assert rep.verdict  # nonzero hypothesis values, nonzero norm


class TestRandomCurvatureLike:
    def test_symmetries(self, m23, h44):
        for model in (m23, h44):
            rep = validate_curvature_like(model, random_curvature_like(model, 0, 3))
            assert max(rep.skew_first, rep.skew_last,
                       rep.bianchi, rep.pair_symmetry) <= 1e-12

    def test_trials_differ(self, m22):
        a = random_curvature_like(m22, 1, 0)
        b = random_curvature_like(m22, 1, 1)
        assert max_norm(a - b) > 1e-3

    def test_deterministic(self, m22):
        assert np.array_equal(random_curvature_like(m22, 1, 5),
                              random_curvature_like(m22, 1, 5))


class TestFuzz:
    def test_applicability(self, m22, h44):
        assert TheoremId.THM_5_WEAK_ISO_ANTIHOL not in applicable_theorems(m22)
        got = set(applicable_theorems(h44))
        assert got == set(TheoremId)
        lorentz = ModelPoint(4, 1)
        assert applicable_theorems(lorentz) == [
            TheoremId.THM_A_WEAK_ISO_CONST_K,
            TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI,
        ]

    def test_no_inconsistencies(self, h44):
        summary = fuzz(h44, trials=10, seed=0, samples=60)
        assert summary["inconsistencies"] == []
        for c in summary["checks"].values():
            assert c["consistent"] == 10
            assert c["inconsistent"] == 0

    def test_summary_is_deterministic(self, m23):
        a = fuzz(m23, trials=5, seed=7, samples=50)
        b = fuzz(m23, trials=5, seed=7, samples=50)
        assert a == b

    def test_seed_changes_tensors(self, m22):
        assert max_norm(random_curvature_like(m22, 0, 0)
                        - random_curvature_like(m22, 1, 0)) > 1e-3


def _poisoned(model, value):
    R = build_constant_curvature(model, 1.0)
    R[0, 1, 1, 0] = value
    return R


ENTRY_POINTS = {
    "vanishing_report": lambda M, R: vanishing_report(M, R, PlaneKind.WEAKLY_ISOTROPIC, 10),
    "einstein_check": lambda M, R: einstein_check(M, R, 10),
    "flatness_norms": flatness_norms,
    "uniqueness_check": lambda M, R: uniqueness_check(M, UniquenessKind.THM_B, R, 10),
}


class TestNonFiniteTensors:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_equivalence_check_rejects(self, h44, tid, value):
        with pytest.raises(NonFiniteTensor):
            equivalence_check(h44, _poisoned(h44, value), tid, 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_entry_points_reject(self, h44, name, value):
        with pytest.raises(NonFiniteTensor):
            ENTRY_POINTS[name](h44, _poisoned(h44, value))


class TestSampleCounts:
    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_equivalence_check(self, h44, tid, count):
        with pytest.raises(InvalidSampleCount):
            equivalence_check(h44, pi1(h44), tid, count)

    @pytest.mark.parametrize("count", [0, -1])
    def test_other_checkers(self, h44, count):
        with pytest.raises(InvalidSampleCount):
            vanishing_report(h44, pi1(h44), PlaneKind.WEAKLY_ISOTROPIC, count)
        with pytest.raises(InvalidSampleCount):
            einstein_check(h44, pi1(h44), count)
        for kind in UniquenessKind:
            with pytest.raises(InvalidSampleCount):
                uniqueness_check(h44, kind, pi1(h44), count)
        with pytest.raises(InvalidSampleCount):
            fuzz(h44, 1, samples=count)

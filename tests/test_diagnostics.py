import json

import numpy as np
import pytest

from isocurv import (
    ModelPoint,
    PlaneKind,
    TensorDocument,
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
    sample_planes,
    save_document,
    uniqueness_check,
    validate_curvature_like,
    vanishing_report,
)
from isocurv.diagnostics import THEOREMS, applicable_theorems
from isocurv.errors import (
    DimensionMismatch,
    InvalidSampleCount,
    NonFiniteTensor,
    UnsupportedSignature,
)
from isocurv.tensors import max_norm, residual_scale, ricci

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
        x, y = rep.witness
        replay = abs(quad_eval(R, x, y, y, x)) / max(1.0, max_norm(R))
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

    @pytest.mark.parametrize("index", [0, 2])
    def test_hermitian_m2(self, index):
        # pi2 = 3 pi1 at m = 2: the only plane is holomorphic, nu is undefined
        model = hermitian_model(2, index)
        norms = flatness_norms(model, build_space_form(model, 0.25, 1.0))
        assert norms.mu_hat == pytest.approx(1.0, rel=1e-12)
        assert norms.nu_hat is None and norms.antihol_residual is None
        assert norms.const_curv_residual <= 1e-12

    @pytest.mark.parametrize("index", [0, 1])
    def test_m1_has_no_plane(self, index):
        model = ModelPoint(1, index)
        with pytest.raises(DimensionMismatch, match="no 2-plane"):
            flatness_norms(model, build_constant_curvature(model, 1.0))

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
        # per trial one residual kernel each for ThmA's constant curvature,
        # the conformal norm of Thm1 and Thm2 and the Bochner norm of Thm6
        # and Thm7
        import isocurv.diagnostics as diag

        counter = _CallCounter(monkeypatch, diag, ["conformal_forms", "bochner_forms",
                                                   "linear_residual"])
        summary = fuzz(h44, trials=3, seed=1, samples=5)
        assert not summary["inconsistencies"]
        assert counter.calls == {"conformal_forms": 3, "bochner_forms": 3, "linear_residual": 9}

    def test_flatness_norms_builds_each_tensor_once(self, h44, monkeypatch):
        import isocurv.diagnostics as diag

        R = random_curvature_like(h44, 5)
        want = flatness_norms(h44, R)
        counter = _CallCounter(monkeypatch, diag, ["conformal_forms", "bochner_forms",
                                                   "antiholomorphic_forms", "linear_residual"])
        assert flatness_norms(h44, R) == want
        # the constant-curvature, conformal, Bochner and antiholomorphic residuals
        assert counter.calls == {"conformal_forms": 1, "bochner_forms": 1,
                                 "antiholomorphic_forms": 1, "linear_residual": 4}

    def test_flatness_norms_builds_no_pi1_or_pi2(self, h44, monkeypatch):
        import isocurv.canonical as canonical

        counter = _CallCounter(monkeypatch, canonical, ["pi1", "pi2"])
        flatness_norms(h44, random_curvature_like(h44, 5))
        assert counter.calls == {"pi1": 0, "pi2": 0}

    def test_one_fuzz_trial_contracts_r_twice(self, h44, monkeypatch):
        # rho for tau, the Einstein sides and the conformal and Bochner
        # forms, rho* for the Bochner forms, whose conjugate's contractions
        # are J^T . J
        import isocurv.tensors as tensors

        counter = _CallCounter(monkeypatch, tensors, ["_contract"])
        fuzz(h44, trials=1, seed=1, samples=5)
        assert counter.calls == {"_contract": 2}

    def test_flatness_norms_contracts_r_twice(self, h44, monkeypatch):
        # rho for tau and the conformal and Bochner forms, rho* for the fit
        # and the Bochner and antiholomorphic forms
        import isocurv.tensors as tensors

        counter = _CallCounter(monkeypatch, tensors, ["_contract"])
        flatness_norms(h44, random_curvature_like(h44, 5))
        assert counter.calls == {"_contract": 2}

    def test_fuzz_takes_r_and_scale_from_the_shared_norms(self, h44, monkeypatch):
        import isocurv.diagnostics as diag

        counter = _CallCounter(monkeypatch, diag, ["residual_scale", "check_quad"])
        fuzz(h44, trials=3, seed=1, samples=5)
        assert counter.calls == {"residual_scale": 3, "check_quad": 0}

    def test_one_fuzz_trial_multiplies_r_eleven_times(self, h44, monkeypatch):
        # one product per vanishing side of ThmA, Thm1, Thm5, Thm6 and Thm7,
        # whose last two Lemma 2 reads, one for Thm5's spread and five for
        # Thm2; Thm2's (x, y) rows are multiplied twice, for R(x,y,a,b) and
        # R(x,y,y,x), as holding the product would cost more than it saves
        import isocurv.diagnostics as diag

        counter = _CallCounter(monkeypatch, diag, ["bivector_eval"])
        fuzz(h44, trials=1, seed=1, samples=5)
        assert counter.calls == {"bivector_eval": 11}

    def test_equivalence_check_alone_matches_fuzz_sharing(self):
        # the whole report through one holder shared by a trial's theorems,
        # at tolerances where some sides pass and some fail, against a fresh
        # call per theorem
        import isocurv.diagnostics as diag

        for model in (hermitian_model(8, 4), ModelPoint(5, 2), hermitian_model(6, 2)):
            R = random_curvature_like(model, 0, 0)
            summary = fuzz(model, trials=1, seed=0, samples=5)
            theorems = applicable_theorems(model)
            for tid in theorems:
                rep = equivalence_check(model, R, tid, 5, 0)
                assert summary["checks"][tid.value]["consistent"] == int(rep.verdict)
            witnesses = 0
            for tol in (1e-9, 0.5, 2.0):
                sides = diag._Sides(model, R, residual_scale(R), diag._RequestPlanes(model, 5, 0))
                for tid in theorems:
                    shared = equivalence_check(model, R, tid, 5, 0, tol, _sides=sides)
                    alone = equivalence_check(model, R, tid, 5, 0, tol)
                    case = (model.dim, tol, tid)
                    assert (shared.max_residual, shared.verdict, shared.side_notes) == (
                        alone.max_residual, alone.verdict, alone.side_notes), case
                    assert (shared.witness is None) == (alone.witness is None), case
                    if alone.witness is not None:
                        assert shared.witness.tobytes() == alone.witness.tobytes(), case
                        witnesses += 1
            assert witnesses, model.dim


class TestPairRowsBuiltOncePerRequest:
    # h44 samples six plane kinds, each with one pair row (u, v), and the
    # (+,+,-,-) quadruples (x, y, a, b) with four: (x, y), (a, b), (x, a) and
    # (y, b); every reversed pair is the transposed copy of one of these
    ROWS_ON_H44 = 10

    @pytest.mark.parametrize("trials", [1, 3])
    def test_fuzz_forms_each_pair_row_once(self, h44, monkeypatch, trials):
        import isocurv.diagnostics as diag

        counter = _CallCounter(monkeypatch, diag, ["pair_rows"])
        assert not fuzz(h44, trials=trials, seed=1, samples=5)["inconsistencies"]
        assert counter.calls == {"pair_rows": self.ROWS_ON_H44}

    def test_cached_batches_are_plain_read_only_arrays(self, h44):
        # the pair rows live for one request only: the lru-cached result is a
        # bare array, so a caller drawing a fresh seed per call keeps no rows
        kinds = {kind for tid in applicable_theorems(h44) for kind in THEOREMS[tid].kinds}
        batches = {kind: sample_planes(h44, kind, 5, 1) for kind in kinds}
        fuzz(h44, trials=2, seed=1, samples=5)
        for tid in applicable_theorems(h44):
            equivalence_check(h44, random_curvature_like(h44, 2), tid, 5, 1)
        for kind, batch in batches.items():
            assert sample_planes(h44, kind, 5, 1) is batch
            assert type(batch) is np.ndarray and not batch.flags.writeable


class TestWitnesses:
    """A failing report's witness is the (n, m) basis rows of its worst sample,
    as ``diagnose --json`` prints them.  At tol 2 every sampled side of this
    tensor fails and every exact side passes; Thm5's two sampled sides fail
    together, as do Lemma2's."""

    R, TOL = random_curvature_like(hermitian_model(8, 4), 0), 2.0
    QUADRUPLES = (PlaneKind.QUADRUPLE_PPMM, PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM)

    def scaled(self, value):
        return abs(value) / max(1.0, max_norm(self.R))

    @pytest.mark.parametrize("kind", list(PlaneKind))
    def test_vanishing_witness_is_the_sample_rows(self, h44, kind):
        rep = vanishing_report(h44, self.R, kind, 20, 0)
        rows = 4 if kind in self.QUADRUPLES else 2
        assert not rep.verdict and type(rep.witness) is np.ndarray
        assert rep.witness.shape == (rows, h44.dim)
        assert any(np.array_equal(rep.witness, s) for s in sample_planes(h44, kind, 20, 0))
        x, y = rep.witness[:2]
        assert self.scaled(quad_eval(self.R, x, y, y, x)) == pytest.approx(rep.max_residual,
                                                                          rel=1e-12)

    @pytest.mark.parametrize("tid", applicable_theorems(hermitian_model(8, 4)),
                             ids=lambda tid: tid.value)
    def test_equivalence_witness_is_the_cli_rows(self, h44, tid, tmp_path):
        from isocurv.cli import main

        rep = equivalence_check(h44, self.R, tid, 20, 0, self.TOL)
        doc_path, rep_path = tmp_path / "R.json", tmp_path / "rep.json"
        save_document(TensorDocument(h44, {"R": self.R}), doc_path)
        code = main(["diagnose", str(doc_path), "--tensor", "R", "--theorem", tid.value,
                     "--samples", "20", "--tol", "2", "--json", str(rep_path)])
        assert code == (0 if rep.verdict else 1)
        payload = json.loads(rep_path.read_text())
        if tid in (TheoremId.THM_5_WEAK_ISO_ANTIHOL, TheoremId.LEMMA_2_EQUIV):
            assert rep.verdict and rep.witness is None and payload["witness"] is None
            return
        assert not rep.verdict and type(rep.witness) is np.ndarray
        assert payload["witness"] == rep.witness.tolist()
        if tid is TheoremId.THM_2_QUADRUPLES:
            assert rep.witness.shape == (4, h44.dim)
            x, y, a, b = rep.witness
            k = [quad_eval(self.R, *pair, *pair[::-1]) for pair in ((x, y), (a, b), (x, a), (y, b))]
            replay = max(self.scaled(quad_eval(self.R, x, y, a, b)), self.scaled(sum(k)))
        elif tid is TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI:
            assert rep.witness.shape == (1, h44.dim)
            (xi,) = rep.witness
            rho = ricci(h44, self.R)
            replay = abs(xi @ rho @ xi) / max(1.0, max_norm(rho))
        else:
            assert rep.witness.shape == (2, h44.dim)
            want = vanishing_report(h44, self.R, THEOREMS[tid].kinds[0], 20, 0).witness
            assert np.array_equal(rep.witness, want)
            x, y = rep.witness
            replay = self.scaled(quad_eval(self.R, x, y, y, x))
        assert replay == pytest.approx(rep.max_residual, rel=1e-12)

    def test_uniqueness_witnesses_replay(self, h44):
        J = h44.cplx
        rep = uniqueness_check(h44, UniquenessKind.THM_B, self.R, 20, 0, self.TOL)
        assert not rep.verdict and rep.witness.shape == (3, h44.dim)
        x, y, z = rep.witness
        assert self.scaled(quad_eval(self.R, x, y, z, x)) == pytest.approx(rep.max_residual,
                                                                          rel=1e-12)
        for kind in (UniquenessKind.THM_C, UniquenessKind.LEMMA_1):
            rep = uniqueness_check(h44, kind, self.R, 20, 0, self.TOL)
            assert not rep.verdict and rep.witness.shape == (2, h44.dim)
            x, y = rep.witness
            # (x, Jx) on a holomorphic witness, R(u,v,v,u) and R(u,Ju,v,u) on an antiholomorphic one
            replay = max(self.scaled(quad_eval(self.R, x, y, y, x)),
                         self.scaled(quad_eval(self.R, x, J @ x, y, x)))
            assert replay == pytest.approx(rep.max_residual, rel=1e-12)

    def test_exact_only_failure_has_no_witness(self, m22):
        def R(seed):
            return random_curvature_like(m22, seed)

        # each draw seed gives one sample on which every sampled side passes
        for rep in (einstein_check(m22, R(1), 1, seed=4, tol=0.1),
                    uniqueness_check(m22, UniquenessKind.THM_B, R(0), 1, seed=5, tol=0.48065),
                    equivalence_check(m22, R(14), TheoremId.THM_2_QUADRUPLES, 1, seed=31,
                                      tol=0.44785)):
            assert not rep.verdict and rep.witness is None
            assert rep.side_notes[-1].endswith("fail")
            assert all(n.endswith("pass") for n in rep.side_notes[:-1])


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

    def test_inconsistency_record(self):
        # a tol between the two sides of ThmA on trial 0 makes it one-sided
        model, seed, samples, tol = ModelPoint(4, 2), 3, 20, 1.0
        R = random_curvature_like(model, seed, 0)
        vanishing = vanishing_report(model, R, PlaneKind.WEAKLY_ISOTROPIC, samples, seed).max_residual
        const = flatness_norms(model, R).const_curv_residual
        assert const < tol < vanishing
        summary = fuzz(model, 1, seed=seed, samples=samples, tol=tol)
        (rec,) = [r for r in summary["inconsistencies"] if r["theorem"] == "ThmA_weakIso_constK"]
        assert rec == {
            "trial": 0, "theorem": "ThmA_weakIso_constK", "seed": seed,
            "max_residual": vanishing,
            "notes": [f"weakly isotropic vanishing: residual {vanishing:.3e} -> fail",
                      f"constant-curvature residual: residual {const:.3e} -> pass"]}
        assert summary["checks"]["ThmA_weakIso_constK"] == {"consistent": 0, "inconsistent": 1}
        rep = equivalence_check(model, random_curvature_like(model, rec["seed"], rec["trial"]),
                                TheoremId(rec["theorem"]), samples, rec["seed"], tol)
        assert not rep.verdict
        assert (rep.max_residual, rep.side_notes) == (rec["max_residual"], rec["notes"])

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

    def test_theorem5_needs_two_samples(self, h44):
        # one nondegenerate antiholomorphic plane has a curvature spread of 0
        # whatever R is, which used to pass against a failing hypothesis
        R = random_curvature_like(h44, 3)
        with pytest.raises(InvalidSampleCount, match="^Thm5_weakIsoAntihol_constAntihol needs"):
            equivalence_check(h44, R, TheoremId.THM_5_WEAK_ISO_ANTIHOL, 1)
        with pytest.raises(InvalidSampleCount, match="^Thm5_weakIsoAntihol_constAntihol needs"):
            fuzz(h44, 3, samples=1)
        assert equivalence_check(h44, R, TheoremId.THM_5_WEAK_ISO_ANTIHOL, 2).verdict

    def test_one_sample_without_theorem5(self):
        model = ModelPoint(4, 2)
        assert TheoremId.THM_5_WEAK_ISO_ANTIHOL not in applicable_theorems(model)
        assert sum(fuzz(model, 2, samples=1)["checks"]["ThmA_weakIso_constK"].values()) == 2

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fuzz_trials(self, h44, trials):
        with pytest.raises(InvalidSampleCount, match="trial"):
            fuzz(h44, trials)


SMALL_MODELS = ([ModelPoint(m, s) for m in range(1, 7) for s in range(m + 1)]
                + [hermitian_model(m, s) for m in (2, 4, 6, 8) for s in range(0, m + 1, 2)])


def _model_id(model):
    return f"{'h' if model.has_cplx else 'm'}{model.dim}{model.index}"


class TestSignatureEdges:
    @pytest.mark.parametrize("model", SMALL_MODELS, ids=_model_id)
    def test_applicable_exactly_where_the_check_runs(self, model):
        R = random_curvature_like(model, 0)
        listed = applicable_theorems(model)
        for tid in TheoremId:
            try:
                equivalence_check(model, R, tid, 3, seed=1)
            except UnsupportedSignature:
                assert tid not in listed, tid
            else:
                assert tid in listed, tid

    @pytest.mark.parametrize("model", SMALL_MODELS, ids=_model_id)
    def test_uniqueness_runs_or_is_unsupported(self, model):
        R = random_curvature_like(model, 0)
        for kind in UniquenessKind:
            try:
                rep = uniqueness_check(model, kind, R, 3, seed=1)
            except UnsupportedSignature:
                continue
            assert rep.samples_used == 3

    @pytest.mark.parametrize("dim,index", [(4, 0), (3, 0), (2, 1)])
    def test_no_weakly_isotropic_planes_no_theorem_a(self, dim, index):
        assert TheoremId.THM_A_WEAK_ISO_CONST_K not in applicable_theorems(ModelPoint(dim, index))

    def test_fuzz_without_an_applicable_theorem(self):
        with pytest.raises(UnsupportedSignature, match="no theorem applies"):
            fuzz(ModelPoint(4, 0), 1, samples=5)

    def test_fuzz_on_one_one_runs_einstein_alone(self):
        summary = fuzz(ModelPoint(2, 1), 3, seed=2, samples=5)
        assert list(summary["checks"]) == [TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI.value]
        assert summary["checks"]["EinsteinFromIsotropicRicci"]["consistent"] == 3

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("kind", [UniquenessKind.THM_C, UniquenessKind.LEMMA_1])
    def test_uniqueness_rejects_tiny_hermitian_models_up_front(self, index, kind):
        model = hermitian_model(2, index)
        with pytest.raises(UnsupportedSignature, match=f"{kind.value} sampling impossible"):
            uniqueness_check(model, kind, pi1(model), 5)

    def test_messages_name_the_theorem_and_its_need(self, h24):
        with pytest.raises(UnsupportedSignature,
                           match=r"^Thm7_isoHol_Bochner_Kaehler: .*needs \(s, m-s\) >= \(4,4\)$"):
            equivalence_check(h24, pi1(h24), TheoremId.THM_7_ISO_HOL_BOCHNER, 3)
        with pytest.raises(UnsupportedSignature, match="strongly-isotropic-antiholomorphic"):
            equivalence_check(h24, pi1(h24), TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER, 3)


class TestTheoremTable:
    def test_table_order_and_coverage(self):
        assert list(THEOREMS) == [
            TheoremId.THM_A_WEAK_ISO_CONST_K, TheoremId.THM_1_STRONG_ISO_CONF_FLAT,
            TheoremId.THM_2_QUADRUPLES, TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI,
            TheoremId.THM_5_WEAK_ISO_ANTIHOL, TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER,
            TheoremId.THM_7_ISO_HOL_BOCHNER, TheoremId.LEMMA_2_EQUIV]

    def test_side_names(self, h44):
        R = pi1(h44)
        names = {tid: [n.split(":")[0] for n in equivalence_check(h44, R, tid, 5).side_notes]
                 for tid in THEOREMS}
        assert names == {
            TheoremId.THM_A_WEAK_ISO_CONST_K:
                ["weakly isotropic vanishing", "constant-curvature residual"],
            TheoremId.THM_1_STRONG_ISO_CONF_FLAT:
                ["strongly isotropic vanishing", "conformal norm"],
            TheoremId.THM_2_QUADRUPLES:
                ["quadruple component vanishing", "sectional curvature relation",
                 "conformal norm"],
            TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI:
                ["sampled max |rho(xi,xi)|", "Einstein residual"],
            TheoremId.THM_5_WEAK_ISO_ANTIHOL:
                ["weakly isotropic antiholomorphic vanishing",
                 "antiholomorphic curvature spread"],
            TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER:
                ["strongly isotropic antiholomorphic vanishing", "Bochner norm"],
            TheoremId.THM_7_ISO_HOL_BOCHNER: ["isotropic holomorphic vanishing", "Bochner norm"],
            TheoremId.LEMMA_2_EQUIV:
                ["isotropic holomorphic vanishing",
                 "strongly isotropic antiholomorphic vanishing"],
        }

    def test_einstein_through_the_table_is_einstein_check(self, m22):
        R = build_conformally_flat(m22, non_einstein_symmetric(m22))
        via_table = equivalence_check(m22, R, TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI, 20, 3)
        direct = einstein_check(m22, R, 20, 3)
        assert via_table.side_notes == direct.side_notes
        assert via_table.max_residual == direct.max_residual
        assert via_table.verdict == direct.verdict

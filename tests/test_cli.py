import json
import warnings

import numpy as np
import pytest

from isocurv import (
    ModelPoint,
    TensorDocument,
    build_conformally_flat,
    build_space_form,
    hermitian_model,
    load_document,
    pi1,
    quad_eval,
    save_document,
)
from isocurv.cli import main
from isocurv.diagnostics import random_curvature_like

from conftest import tensor_payload, write_indented_document


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_const_curv(self, tmp_path, capsys):
        out = tmp_path / "cc.json"
        assert run("gen", "const-curv", "--dim", "4", "--index", "2",
                   "--c", "1.5", "--out", str(out)) == 0
        assert "wrote" in capsys.readouterr().out
        doc = load_document(out)
        assert doc.model.dim == 4 and doc.model.index == 2
        assert doc.tensor("R")[0, 2, 2, 0] == pytest.approx(-1.5)

    def test_space_form_complex_convention(self, tmp_path):
        out = tmp_path / "sf.json"
        assert run("gen", "space-form", "--n", "4", "--s", "2",
                   "--mu", "2.0", "--nu", "0.5", "--out", str(out)) == 0
        doc = load_document(out)
        assert doc.model.dim == 8 and doc.model.index == 4
        assert doc.model.has_cplx

    def test_space_form_odd_dim_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        assert run("gen", "space-form", "--dim", "5", "--index", "2",
                   "--mu", "1.0", "--nu", "0.25", "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_params_usage_error(self, tmp_path):
        assert run("gen", "const-curv", "--dim", "4",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_unwritable_path_io_error(self):
        assert run("gen", "const-curv", "--dim", "4", "--index", "2",
                   "--c", "1.0", "--out", "/no/such/dir/x.json") == 1

    @pytest.mark.parametrize("argv", [
        ("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1", "--out", "o.json",
         "--json", "x.json"),
        ("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1", "--out", "o.json",
         "--tol", "1e-6"),
        ("classify", "cc.json", "--u", "1,0,0,0", "--v", "0,1,0,0", "--seed", "3"),
    ], ids=["gen-json", "gen-tol", "classify-seed"])
    def test_options_the_command_does_not_read_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(*(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
        assert exc.value.code == 2

    def test_conf_flat_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "conf-flat", "--dim", "4", "--index", "2", "--seed", "3",
            "--out", str(a))
        run("gen", "conf-flat", "--dim", "4", "--index", "2", "--seed", "3",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed, folded", [(-1, 2 ** 63 - 1), (-2 ** 63, 0)])
    def test_conf_flat_negative_seed_is_folded(self, tmp_path, seed, folded):
        # folded into [0, 2**63) as the samplers fold theirs
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "conf-flat", "--dim", "4", "--index", "2", "--seed", str(seed),
                   "--out", str(a)) == 0
        assert load_document(a).tensor("R").shape == (4,) * 4
        run("gen", "conf-flat", "--dim", "4", "--index", "2", "--seed", str(folded),
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("space-form", "--n", "2", "--s", "1", "--mu", "nan", "--nu", "1"),
        ("const-curv", "--dim", "4", "--index", "2", "--c", "inf"),
    ], ids=["space-form-nan", "const-curv-inf"])
    def test_non_finite_tensor_is_usage_error_and_writes_nothing(self, tmp_path, capsys, argv):
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("old contents\n")
        for out in (fresh, kept):
            with np.errstate(invalid="ignore"):
                assert run("gen", *argv, "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert "NaN or infinite" in captured.err and "Traceback" not in captured.err
            assert captured.out == ""
        assert not fresh.exists()
        assert kept.read_text() == "old contents\n"

    @pytest.mark.parametrize("argv", [
        ("const-curv", "--dim", "4", "--index", "2", "--c", "inf"),
        ("conf-flat", "--dim", "4", "--index", "2", "--lam", "inf"),
        ("conf-flat", "--dim", "4", "--index", "2", "--lam", "nan"),
        ("space-form", "--n", "2", "--s", "1", "--mu", "nan", "--nu", "1"),
    ], ids=["c-inf", "lam-inf", "lam-nan", "mu-nan"])
    def test_non_finite_parameter_is_rejected_before_any_arithmetic(self, tmp_path, capsys,
                                                                     argv):
        out = tmp_path / "x.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("gen", *argv, "--out", str(out)) == 2
        assert caught == []  # no numpy RuntimeWarning reaches stderr
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "NaN or infinite" in line
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("const-curv", "--dim", "4"), "gen const-curv needs --dim, --index and --c"),
        (("conf-flat", "--dim", "4"), "gen conf-flat needs --dim and --index"),
        (("space-form", "--mu", "1", "--nu", "1"),
         "gen space-form needs --n/--s or --dim/--index"),
        (("space-form", "--n", "2", "--s", "1"), "gen space-form needs --mu and --nu"),
    ], ids=["const-curv", "conf-flat", "space-form-shape", "space-form-curvatures"])
    def test_missing_parameter_messages(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        assert run("gen", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestClassify:
    def test_classify_with_curvature(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("classify", str(doc_path), "--u", "1,0,0,0", "--v", "0,0,1,0",
                   "--tensor", "R") == 0
        out = capsys.readouterr().out
        assert "nondegenerate" in out
        assert "2.0" in out

    def test_degenerate_plane(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("classify", str(doc_path), "--u", "1,0,1,0", "--v", "0,1,0,0",
                   "--tensor", "R") == 0
        out = capsys.readouterr().out
        assert "weakly isotropic" in out
        assert "undefined" in out

    def test_holomorphy_printed(self, tmp_path, capsys):
        doc_path = tmp_path / "sf.json"
        run("gen", "space-form", "--n", "4", "--s", "2", "--mu", "2.0",
            "--nu", "0.5", "--out", str(doc_path))
        capsys.readouterr()
        assert run("classify", str(doc_path), "--u", "1,0,0,0,0,0,0,0",
                   "--v", "0,1,0,0,0,0,0,0") == 0
        assert "holomorphic" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        doc_path = tmp_path / "cc.json"
        rep_path = tmp_path / "rep.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        run("classify", str(doc_path), "--u", "1,0,0,0", "--v", "0,0,1,0",
            "--tensor", "R", "--json", str(rep_path))
        payload = json.loads(rep_path.read_text())
        assert payload["plane"] == "nondegenerate"
        assert payload["sectional_curvature"] == pytest.approx(2.0)

    @pytest.mark.parametrize("u", ["nan,0,0,0", "0,inf,0,0", "0,0,0,-inf"])
    def test_non_finite_component_is_usage_error(self, tmp_path, capsys, u):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("classify", str(doc_path), "--u", u, "--v", "0,1,0,0",
                   "--tensor", "R") == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_bad_vector_length(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        assert run("classify", str(doc_path), "--u", "1,0", "--v", "0,0,1,0") == 2

    def test_non_numeric_component_is_usage_error(self, tmp_path, capsys):
        doc_path = tmp_path / "sf.json"
        run("gen", "space-form", "--n", "4", "--s", "2", "--mu", "2.0",
            "--nu", "0.5", "--out", str(doc_path))
        capsys.readouterr()
        assert run("classify", str(doc_path), "--u", "1,abc,0,0,0,0,0,0",
                   "--v", "0,1,0,0,0,0,0,0") == 2
        assert "not a number" in capsys.readouterr().err


class TestDiagnose:
    def test_consistent_exit_zero(self, tmp_path):
        doc_path = tmp_path / "cf.json"
        run("gen", "conf-flat", "--dim", "4", "--index", "2", "--seed", "1",
            "--out", str(doc_path))
        assert run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "Thm1_strongIso_confFlat", "--samples", "200") == 0

    def test_perturbed_document_detected(self, tmp_path):
        # break conformal flatness without touching the sampled planes'
        # common zero: a perturbed tensor must fail both sides or be flagged
        model = ModelPoint(4, 2)
        S = np.diag([1.0, 2.0, -1.0, 0.5])
        R = build_conformally_flat(model, S)
        R = R + 0.05 * random_curvature_like(model, 99)
        doc_path = tmp_path / "pert.json"
        save_document(TensorDocument(model, {"R": R}), doc_path)
        code = run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "Thm1_strongIso_confFlat", "--samples", "300")
        assert code == 0  # both sides fail together: still consistent

    def test_missing_tensor(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1.0",
            "--out", str(doc_path))
        assert run("diagnose", str(doc_path), "--tensor", "nope",
                   "--theorem", "ThmA_weakIso_constK") == 2

    def test_flatness_mode(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        rep_path = tmp_path / "flat.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "flatness", "--json", str(rep_path)) == 0
        payload = json.loads(rep_path.read_text())
        assert payload["const_curv_residual"] <= 1e-12
        assert payload["nu_hat"] == pytest.approx(1.0)

    def test_flatness_mode_at_m2(self, tmp_path):
        doc_path, rep_path = tmp_path / "h2.json", tmp_path / "flat.json"
        assert run("gen", "space-form", "--n", "1", "--s", "0", "--mu", "1", "--nu", "0.25",
                   "--out", str(doc_path)) == 0
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem", "flatness",
                   "--json", str(rep_path)) == 0
        payload = json.loads(rep_path.read_text())
        assert payload["mu_hat"] == pytest.approx(1.0, rel=1e-12)
        assert payload["nu_hat"] is None and payload["antihol_residual"] is None

    def test_flatness_mode_at_m1_is_usage_error(self, tmp_path, capsys):
        doc_path, rep_path = tmp_path / "m1.json", tmp_path / "flat.json"
        assert run("gen", "const-curv", "--dim", "1", "--index", "0", "--c", "1",
                   "--out", str(doc_path)) == 0
        capsys.readouterr()
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem", "flatness",
                   "--json", str(rep_path)) == 2
        captured = capsys.readouterr()
        assert "no 2-plane" in captured.err and "nan" not in captured.out
        assert not rep_path.exists()

    def test_unsupported_signature_is_usage_error(self, tmp_path):
        doc_path = tmp_path / "lz.json"
        run("gen", "const-curv", "--dim", "4", "--index", "1", "--c", "1.0",
            "--out", str(doc_path))
        assert run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "Thm1_strongIso_confFlat") == 2


    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("theorem", ["ThmA_weakIso_constK", "EinsteinFromIsotropicRicci"])
    def test_sample_count_below_one_is_usage_error(self, tmp_path, capsys, theorem, samples):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem", theorem,
                   f"--samples={samples}") == 2
        assert "at least one sample" in capsys.readouterr().err


class TestDiagnoseWitness:
    """The JSON report's "witness": the basis rows of the worst sample when
    the verdict is inconsistent, null otherwise.  pi1 + 1e-10 D on (2,2) is
    near flat, so its sampled sides fail where the exact sides pass."""

    @staticmethod
    def report(tmp_path, theorem):
        model = ModelPoint(4, 2)
        D = random_curvature_like(model, 3)
        R = pi1(model) + 1e-10 * D / np.max(np.abs(D))
        doc_path, rep_path = tmp_path / "near.json", tmp_path / "rep.json"
        save_document(TensorDocument(model, {"R": R}), doc_path)
        code = run("diagnose", str(doc_path), "--tensor", "R", "--theorem", theorem,
                   "--samples", "100", "--json", str(rep_path))
        return R, code, json.loads(rep_path.read_text())

    def test_plane_rows_reproduce_the_residual(self, tmp_path):
        R, code, payload = self.report(tmp_path, "ThmA_weakIso_constK")
        assert code == 1 and not payload["verdict"]
        x, y = np.array(payload["witness"])
        scale = max(1.0, float(np.max(np.abs(R))))
        assert abs(quad_eval(R, x, y, y, x)) / scale == pytest.approx(
            payload["max_residual"], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("theorem, rows", [("Thm2_quadruples", 4),
                                               ("EinsteinFromIsotropicRicci", 1)])
    def test_frame_and_vector_rows(self, tmp_path, theorem, rows):
        _, code, payload = self.report(tmp_path, theorem)
        assert code == 1 and np.shape(payload["witness"]) == (rows, 4)

    def test_consistent_verdict_has_null_witness(self, tmp_path):
        doc_path, rep_path = tmp_path / "cc.json", tmp_path / "rep.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "2.0",
            "--out", str(doc_path))
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem",
                   "ThmA_weakIso_constK", "--json", str(rep_path)) == 0
        assert json.loads(rep_path.read_text())["witness"] is None


class TestIdentities:
    def test_space_form_passes(self, tmp_path, capsys):
        doc_path = tmp_path / "sf.json"
        run("gen", "space-form", "--n", "4", "--s", "2", "--mu", "2.0",
            "--nu", "0.5", "--out", str(doc_path))
        capsys.readouterr()
        assert run("identities", str(doc_path), "--tensor", "R",
                   "--samples", "50") == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out


    @pytest.mark.parametrize("flat", [True, False])
    def test_json_report_round_trip(self, tmp_path, flat):
        model = hermitian_model(8, 4)
        R = build_space_form(model, 0.5, 2.0) if flat else random_curvature_like(model, 5)
        doc_path, rep_path = tmp_path / "doc.json", tmp_path / "rep.json"
        save_document(TensorDocument(model, {"R": R}), doc_path)
        code = run("identities", str(doc_path), "--tensor", "R", "--samples", "20",
                   "--json", str(rep_path))
        assert code == (0 if flat else 1)
        payload = json.loads(rep_path.read_text())
        assert payload["verdict"] is flat
        assert payload["samples_used"] == 20

    def test_sample_count_below_one_is_usage_error(self, tmp_path):
        doc_path = tmp_path / "sf.json"
        run("gen", "space-form", "--n", "4", "--s", "2", "--mu", "2.0",
            "--nu", "0.5", "--out", str(doc_path))
        assert run("identities", str(doc_path), "--tensor", "R", "--samples", "0") == 2


class TestFuzz:
    def test_exit_zero_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("fuzz", "--dim", "4", "--index", "2", "--trials", "5",
                   "--samples", "50", "--seed", "11", "--json", str(a)) == 0
        assert run("fuzz", "--dim", "4", "--index", "2", "--trials", "5",
                   "--samples", "50", "--seed", "11", "--json", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_summary(self, capsys):
        assert run("fuzz", "--dim", "4", "--index", "2", "--trials", "2",
                   "--samples", "30") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 2
        assert summary["inconsistencies"] == []


    def test_sample_count_below_one_is_usage_error(self):
        assert run("fuzz", "--dim", "4", "--index", "2", "--trials", "1",
                   "--samples", "0") == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trial_count_below_one_is_usage_error(self, capsys, trials):
        assert run("fuzz", "--dim", "8", "--index", "4", "--complex",
                   "--trials", trials) == 2
        captured = capsys.readouterr()
        assert "trial" in captured.err and captured.out == ""


class TestTheorem5SampleCount:
    # the curvature spread over one antiholomorphic plane is 0 for any R
    def test_diagnose_one_sample_is_usage_error(self, tmp_path, capsys):
        doc_path = tmp_path / "r.json"
        model = hermitian_model(8, 4)
        save_document(TensorDocument(model, {"R": random_curvature_like(model, 3)}), doc_path)
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem",
                   "Thm5_weakIsoAntihol_constAntihol", "--samples", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: Thm5_weakIsoAntihol_constAntihol needs at least two")

    def test_fuzz_one_sample_is_usage_error(self, capsys):
        assert run("fuzz", "--dim", "8", "--index", "4", "--complex", "--trials", "1",
                   "--samples", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: Thm5_weakIsoAntihol_constAntihol needs at least two")


class TestNonFiniteTensor:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argv", [
        ("diagnose", "--theorem", "ThmA_weakIso_constK"),
        ("diagnose", "--theorem", "Thm2_quadruples"),
        ("diagnose", "--theorem", "Thm6_strongIsoAntihol_Bochner"),
        ("diagnose", "--theorem", "flatness"),
        ("identities",),
    ])
    def test_usage_error(self, tmp_path, capsys, argv, value):
        model = hermitian_model(8, 4)
        R = build_space_form(model, 0.5, 2.0)
        R[0, 2, 2, 0] = value
        doc_path = tmp_path / "bad.json"
        write_indented_document(TensorDocument(model, {"R": R}), doc_path)
        assert run(argv[0], str(doc_path), "--tensor", "R", *argv[1:]) == 2
        assert "NaN or infinite" in capsys.readouterr().err


class TestBadTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_usage_error(self, tmp_path, capsys, tol):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "ThmA_weakIso_constK", "--tol", tol) == 2
        assert "tolerance" in capsys.readouterr().err


class TestNegativeExponentValues:
    """``--c -1e3`` reads as ``--c=-1e3``; argparse alone takes a separate
    negative number in exponent form for an option flag."""

    @pytest.mark.parametrize("argv", [
        ("const-curv", "--dim", "4", "--index", "2", "--c"),
        ("conf-flat", "--dim", "4", "--index", "2", "--lam"),
        ("conf-flat", "--dim", "4", "--index", "2", "--la"),
        ("space-form", "--n", "2", "--s", "1", "--nu", "1", "--mu"),
        ("space-form", "--n", "2", "--s", "1", "--mu", "1", "--nu"),
    ], ids=["c", "lam", "lam-abbreviated", "mu", "nu"])
    def test_gen(self, tmp_path, argv):
        split, joined = tmp_path / "split.json", tmp_path / "joined.json"
        assert run("gen", *argv, "-1e3", "--out", str(split)) == 0
        assert run("gen", *argv[:-1], f"{argv[-1]}=-1e3", "--out", str(joined)) == 0
        assert split.read_bytes() == joined.read_bytes()

    def test_tol(self, tmp_path, capsys):
        doc_path = tmp_path / "cc.json"
        run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1.0",
            "--out", str(doc_path))
        capsys.readouterr()
        assert run("diagnose", str(doc_path), "--tensor", "R",
                   "--theorem", "ThmA_weakIso_constK", "--tol", "-1e-3") == 2
        assert capsys.readouterr().err == (
            "error: tolerance must be a positive finite number, got -0.001\n")


class TestMalformedDocument:
    @pytest.mark.parametrize("fields", [
        {"metric": [[-1, 0, 0, 0], [0, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        {"J": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 1, 0]]},
        {"tensors": {"R": ["x"] + [0.0] * 255}},
        {"tensors": [0.0] * 256},
    ], ids=["ragged-metric", "ragged-J", "non-numeric-entry", "tensors-not-a-map"])
    def test_diagnose_usage_error(self, tmp_path, capsys, fields):
        obj = {"dim": 4, "index": 2, "tensors": {"R": [0.0] * 256}}
        obj.update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        assert "error" in capsys.readouterr().err


class TestNonNumericDocument:
    @pytest.mark.parametrize("fields", [
        {"tensors": {"R": ["0.5"] + [0.0] * 255}},
        {"tensors": {"R": [False] + [0.0] * 255}},
        {"tensors": {"R": [None] + [0.0] * 255}},
        {"metric": [[True, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        {"J": [[0, "-1", 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]},
        {"dim": "4"},
        {"dim": 4.0},
        {"index": 2.7},
        {"index": True},
    ], ids=["string-entry", "false-entry", "null-entry", "true-in-metric", "string-in-J",
            "string-dim", "float-dim", "fractional-index", "boolean-index"])
    def test_invalid_document(self, tmp_path, capsys, fields):
        from isocurv.errors import InvalidDocument

        obj = {"dim": 4, "index": 2, "tensors": {"R": [0.0] * 256}}
        obj.update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidDocument):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        assert "error" in capsys.readouterr().err

    def test_integer_entries_still_load(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"dim": 4, "index": 2,
                                    "metric": [[-1, 0, 0, 0], [0, -1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]],
                                    "tensors": {"R": [0] * 256}}))
        doc = load_document(path)
        assert doc.tensor("R").dtype == float and not doc.tensor("R").any()


class TestHugeIntegerDocument:
    # an integer past the largest double: float() raises OverflowError
    HUGE = 10 ** 400

    @pytest.mark.parametrize("fields", [
        {"tensors": {"R": [HUGE] + [0] * 255}},
        {"metric": [[-HUGE, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    ], ids=["tensor-entry", "metric-entry"])
    def test_invalid_document(self, tmp_path, capsys, fields):
        from isocurv.errors import InvalidDocument

        obj = {"dim": 4, "index": 2, "tensors": {"R": [0] * 256}}
        obj.update(fields)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidDocument, match="too large for a float"):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _payload(**fields):
    """The zero tensor's payload at dim 4, with `fields` replacing its own
    and a field set to None left out."""
    entry = {**tensor_payload([0.0] * 256, 4), **fields}
    return {key: value for key, value in entry.items() if value is not None}


ZEROS = tensor_payload([0.0] * 256, 4)["base64"]


class TestMalformedPayload:
    @pytest.mark.parametrize("entry", [
        _payload(base64="!" + ZEROS[1:]),
        _payload(base64="-" + ZEROS[1:]),
        _payload(base64=" " + ZEROS[1:]),
        _payload(base64="\u00e9" + ZEROS[1:]),
        _payload(base64="AA=A" + ZEROS[4:]),
        _payload(base64=ZEROS[:-1] + "A"),
        _payload(base64=ZEROS[:-4]),
        _payload(base64=ZEROS + "AAAA"),
        _payload(dtype=">f8"),
        _payload(dtype="<f4"),
        _payload(shape=[4, 4, 4, 2]),
        _payload(shape=[4, 4, 4]),
        _payload(shape=[4.0, 4, 4, 4]),
        _payload(shape="4444"),
        _payload(base64=list(ZEROS)),
        _payload(base64=0),
        _payload(dtype=None),
        _payload(shape=None),
        _payload(base64=None),
        tensor_payload([0.0] * 5 + [float("nan")] + [0.0] * 250, 4),
        tensor_payload([0.0] * 5 + [float("inf")] + [0.0] * 250, 4),
        tensor_payload([0.0] * 5 + [float("-inf")] + [0.0] * 250, 4),
    ], ids=["bang", "urlsafe-dash", "space", "non-ascii", "inner-padding", "no-padding",
            "short", "long", "big-endian", "float32", "wrong-shape", "three-axes",
            "float-in-shape", "string-shape", "list-base64", "number-base64", "no-dtype",
            "no-shape", "no-base64", "nan", "inf", "minus-inf"])
    def test_invalid_document(self, tmp_path, capsys, entry):
        from isocurv.errors import InvalidDocument

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 4, "index": 2, "tensors": {"R": entry}}))
        with pytest.raises(InvalidDocument):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_the_unchanged_payload_loads(self, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"dim": 4, "index": 2, "tensors": {"R": _payload()}}))
        T = load_document(path).tensor("R")
        assert T.shape == (4,) * 4 and not T.any() and not np.signbit(T).any()


class TestHugeDimension:
    # a declared dim far past the tensors' sizes: rejected before the model
    # spends dim^2 memory on it
    def test_rejected_before_the_model_is_built(self, tmp_path, capsys, monkeypatch):
        import isocurv.docio as docio
        from isocurv.errors import InvalidDocument

        built = []
        monkeypatch.setattr(docio, "ModelPoint", lambda *a, **k: built.append(a))
        path = tmp_path / "huge-dim.json"
        path.write_text(json.dumps({"dim": 1500, "index": 2, "tensors": {"R": [0.0]}}))
        with pytest.raises(InvalidDocument, match=f"has 1 components, expected {1500 ** 4}$"):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        assert capsys.readouterr().err.startswith("error: tensor 'R' has 1 components")
        assert built == []

    def test_payload_rejected_before_the_model_is_built(self, tmp_path, capsys, monkeypatch):
        import isocurv.docio as docio
        from isocurv.errors import InvalidDocument

        built = []
        monkeypatch.setattr(docio, "ModelPoint", lambda *a, **k: built.append(a))
        path = tmp_path / "huge-dim.json"
        path.write_text(json.dumps({"dim": 1500, "index": 2, "tensors": {
            "R": {"dtype": "<f8", "shape": [1500] * 4, "base64": "AAAAAAAAAAA="}}}))
        expected = 4 * -(-8 * 1500 ** 4 // 3)
        with pytest.raises(InvalidDocument, match=f"has 12 base64 characters, expected {expected}$"):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        assert capsys.readouterr().err.startswith("error: tensor 'R' has 12 base64 characters")
        assert built == []

    @pytest.mark.parametrize("fields", [{}, {"J": [[0.0]]}], ids=["no-metric-or-j", "small-j"])
    def test_no_tensor_and_no_full_size_metric_or_j(self, tmp_path, capsys, monkeypatch, fields):
        import isocurv.docio as docio
        from isocurv.errors import InvalidDocument

        built = []
        monkeypatch.setattr(docio, "ModelPoint", lambda *a, **k: built.append(a))
        path = tmp_path / "huge-dim.json"
        path.write_text(json.dumps({"dim": 1500, "index": 2, **fields}))
        message = "a document without tensors needs a 1500 x 1500 'metric' or 'J'"
        with pytest.raises(InvalidDocument, match=f"{message}$"):
            load_document(path)
        assert run("diagnose", str(path), "--tensor", "R", "--theorem", "flatness") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []

    def test_a_saved_document_without_tensors_loads(self, tmp_path):
        path = tmp_path / "model-only.json"
        save_document(TensorDocument(hermitian_model(4, 2)), path)
        doc = load_document(path)
        assert doc.model == hermitian_model(4, 2) and doc.tensors == {}


class TestTheoremChoices:
    def test_choices_come_from_the_theorem_table(self, capsys):
        from isocurv.diagnostics import THEOREMS

        with pytest.raises(SystemExit):
            run("diagnose", "--help")
        choices = ",".join([t.value for t in THEOREMS] + ["flatness"])
        assert "{" + choices + "}" in capsys.readouterr().out.replace("\n", "").replace(" ", "")

    def test_einstein_report(self, tmp_path):
        model = ModelPoint(4, 2)
        doc_path, rep_path = tmp_path / "doc.json", tmp_path / "rep.json"
        save_document(TensorDocument(model, {"R": random_curvature_like(model, 2)}), doc_path)
        assert run("diagnose", str(doc_path), "--tensor", "R", "--theorem",
                   "EinsteinFromIsotropicRicci", "--samples", "20", "--json", str(rep_path)) == 0
        notes = json.loads(rep_path.read_text())["notes"]
        assert [n.split(":")[0] for n in notes] == ["sampled max |rho(xi,xi)|",
                                                    "Einstein residual"]

    def test_fuzz_without_an_applicable_theorem_is_usage_error(self, capsys):
        assert run("fuzz", "--dim", "4", "--index", "0", "--trials", "1",
                   "--samples", "5") == 2
        assert "no theorem applies" in capsys.readouterr().err


class TestDocumentIO:
    def test_round_trip_bit_exact(self, tmp_path):
        model = hermitian_model(6, 2)
        T = random_curvature_like(model, 13)
        path = tmp_path / "doc.json"
        save_document(TensorDocument(model, {"T": T}, meta={"k": 1}), path)
        doc = load_document(path)
        assert np.array_equal(doc.tensor("T"), T)
        assert np.array_equal(doc.model.metric, model.metric)
        assert np.array_equal(doc.model.cplx, model.cplx)
        assert doc.meta == {"k": 1}

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        from isocurv.errors import InvalidDocument

        with pytest.raises(InvalidDocument):
            load_document(p)

    def test_wrong_component_count(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"dim": 4, "index": 2,
                                 "tensors": {"T": [0.0] * 10}}))
        from isocurv.errors import InvalidDocument

        with pytest.raises(InvalidDocument):
            load_document(p)

    def test_bad_j_rejected(self, tmp_path):
        p = tmp_path / "badj.json"
        p.write_text(json.dumps({"dim": 4, "index": 2,
                                 "J": np.eye(4).tolist(), "tensors": {}}))
        from isocurv.errors import InvalidDocument

        with pytest.raises(InvalidDocument):
            load_document(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        model = ModelPoint(4, 2)
        T = np.zeros((4,) * 4)
        T[0, 1, 1, 0] = value
        path = tmp_path / "bad.json"
        write_indented_document(TensorDocument(model, {"T": T}), path)
        from isocurv.errors import InvalidDocument

        with pytest.raises(InvalidDocument, match="NaN or infinite"):
            load_document(path)


class TestParserBuiltOnce:
    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        import argparse

        import isocurv.cli as cli

        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(parser, **kwargs):  # once per parser build, for the subcommands
            built.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        cli.build_parser.cache_clear()
        try:
            for name in ("a.json", "b.json"):
                assert run("gen", "const-curv", "--dim", "4", "--index", "2", "--c", "1",
                           "--out", str(tmp_path / name)) == 0
            assert built == ["isocurv"]
        finally:
            cli.build_parser.cache_clear()

    def test_usage_error_goes_to_the_current_stderr(self, monkeypatch):
        import io
        import sys

        for _ in range(2):  # the second call reuses the parser the first one built
            err = io.StringIO()
            monkeypatch.setattr(sys, "stderr", err)
            with pytest.raises(SystemExit) as exc:
                run("gen", "no-such-kind", "--out", "x.json")
            assert exc.value.code == 2
            assert "invalid choice: 'no-such-kind'" in err.getvalue()

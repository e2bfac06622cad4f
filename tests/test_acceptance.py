"""End-to-end property gate.

Each test covers one numbered acceptance property and prints a single
PASS/FAIL line directly to the terminal (bypassing capture) so the gate
can be eyeballed in any pytest run.
"""

import json
import sys

import numpy as np
import pytest

from isocurv import (
    ModelPoint,
    Plane,
    PlaneKind,
    TensorDocument,
    TheoremId,
    bochner,
    build_conformally_flat,
    build_constant_curvature,
    build_space_form,
    conformal,
    fuzz,
    hermitian_model,
    inner,
    load_document,
    phi,
    pi1,
    pi2,
    psi,
    random_curvature_like,
    ricci,
    ricci_star,
    sample_planes,
    save_document,
    sectional_curvature,
    theorem6_identities,
    vanishing_report,
    equivalence_check,
)
from isocurv.planes import PLUS_MINUS_PAIR, isotropic_vectors
from isocurv.tensors import max_norm, trace_g

from conftest import random_symmetric

TOL = 1e-9

_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_announcements(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def announce(num, name, worst, ok):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} (worst {worst:.3e})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def rel_err(got, want):
    return max_norm(np.asarray(got) - np.asarray(want)) / max(1.0, max_norm(want))


@pytest.fixture(scope="module")
def h44():
    return hermitian_model(8, 4)


@pytest.fixture(scope="module")
def fuzz_h44(h44):
    return fuzz(h44, trials=100, seed=0, samples=100)


def test_01_oracle_identities():
    worst = 0.0
    for m in range(4, 9):
        model = ModelPoint(m, 2)
        rng = np.random.default_rng(m)
        g, p1 = model.metric, pi1(model)
        worst = max(worst, rel_err(ricci(model, p1), (m - 1) * g))
        for _ in range(100):
            S = random_symmetric(rng, m)
            worst = max(worst, rel_err(ricci(model, phi(model, S)),
                                       (m - 2) * S + trace_g(model, S) * g))
        worst = max(worst, rel_err(phi(model, g), 2.0 * p1))
        if m % 2 == 0:
            hm = hermitian_model(m, 2)
            p2 = pi2(hm)
            worst = max(worst, rel_err(psi(hm, hm.metric), 2.0 * p2))
            worst = max(worst, rel_err(ricci_star(hm, pi1(hm)), hm.metric))
            worst = max(worst, rel_err(ricci(hm, p2), 3.0 * hm.metric))
    announce(1, "oracle identities (dims 4-8)", worst, worst <= 1e-10)


def test_02_conformal_correctness():
    worst = 0.0
    for dim, index in ((4, 2), (5, 2), (6, 3)):
        model = ModelPoint(dim, index)
        rng = np.random.default_rng(dim * 10 + index)
        for trial in range(100):
            S = random_symmetric(rng, dim)
            R = build_conformally_flat(model, S)
            worst = max(worst, max_norm(conformal(model, R)) / max(1.0, max_norm(R)))
            T = random_curvature_like(model, 2, trial)
            C = conformal(model, T)
            worst = max(worst, max_norm(ricci(model, C)) / max(1.0, max_norm(T)))
    announce(2, "conformal flatness and trace-freeness", worst, worst <= TOL)


def test_03_theorem1_equivalence():
    model = ModelPoint(4, 2)
    rng = np.random.default_rng(31)
    one_sided = 0
    worst = 0.0
    for _ in range(20):
        R = build_conformally_flat(model, random_symmetric(rng, 4))
        rep = equivalence_check(model, R, TheoremId.THM_1_STRONG_ISO_CONF_FLAT,
                                2000, seed=3)
        worst = max(worst, rep.max_residual)
        if not (rep.verdict and all("pass" in n for n in rep.side_notes)):
            one_sided += 1
    for trial in range(100):
        R = random_curvature_like(model, 5, trial)
        rep = equivalence_check(model, R, TheoremId.THM_1_STRONG_ISO_CONF_FLAT,
                                2000, seed=3)
        if not (rep.verdict and all("fail" in n for n in rep.side_notes)):
            one_sided += 1
    announce(3, "strongly isotropic / conformally flat equivalence",
             float(one_sided), one_sided == 0 and worst <= TOL)


def test_04_theorem_a_direction():
    model = ModelPoint(4, 2)
    rep = vanishing_report(model, build_constant_curvature(model, 2.5),
                           PlaneKind.WEAKLY_ISOTROPIC, 2000, seed=4)
    flat_residual = rep.max_residual
    # S not proportional to g: conformally flat but not constant curvature
    S = np.diag([3.0, 1.0, 1.0, 1.0]) @ model.metric
    S = (S + S.T) / 2.0
    R = build_conformally_flat(model, S)
    rep2 = vanishing_report(model, R, PlaneKind.WEAKLY_ISOTROPIC, 2000, seed=4)
    ok = flat_residual <= 1e-11 and not rep2.verdict and rep2.max_residual > 10 * TOL
    announce(4, "constant curvature vanishes on weakly isotropic planes",
             flat_residual, ok)


def test_05_theorem2_condition3():
    model = ModelPoint(4, 2)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(5):
        R = build_conformally_flat(model, random_symmetric(rng, 4))
        rep = equivalence_check(model, R, TheoremId.THM_2_QUADRUPLES, 1000, seed=5)
        assert rep.verdict and all("pass" in n for n in rep.side_notes)
        worst = max(worst, rep.max_residual)
    announce(5, "quadruple sectional-curvature relation", worst, worst <= TOL)


def test_06_space_form_curvatures(h44):
    nu, mu = 0.6, 2.2
    R = build_space_form(h44, nu, mu)
    J = h44.cplx
    worst = 0.0
    X = PLUS_MINUS_PAIR.draw(h44, 6, 101, "spacelike unit vectors")[:, 0]
    for x in X[:100]:
        k = sectional_curvature(h44, R, Plane(x, J @ x))
        worst = max(worst, abs(k - mu) / max(1.0, abs(mu)))
    for x, y in sample_planes(h44, PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC, 100, seed=6):
        k = sectional_curvature(h44, R, Plane(x, y))
        worst = max(worst, abs(k - nu) / max(1.0, abs(nu)))
    # Kaehler convention: antiholomorphic curvature is a quarter of the
    # holomorphic one
    mu2 = 1.8
    RK = build_space_form(h44, mu2 / 4.0, mu2)
    x = X[100]
    k_hol = sectional_curvature(h44, RK, Plane(x, J @ x))
    x, y = sample_planes(h44, PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC, 1, seed=7)[0]
    k_anti = sectional_curvature(h44, RK, Plane(x, y))
    worst = max(worst, abs(k_anti - k_hol / 4.0))
    announce(6, "space form sectional curvatures", worst, worst <= 1e-10)


def test_07_bochner_and_hermitian_theorems(h44, fuzz_h44):
    worst = 0.0
    for mu in (-2.0, 1.0, 5.0):
        R = build_space_form(h44, mu / 4.0, mu)
        worst = max(worst, max_norm(bochner(h44, R)) / max(1.0, max_norm(R)))
    for nu, mu in ((0.5, 2.0), (-1.0, 3.0)):
        rep = theorem6_identities(h44, build_space_form(h44, nu, mu),
                                  samples=100, seed=7)
        worst = max(worst, rep.basis_sum_residual, rep.holomorphic_k_residual)
    one_sided = sum(1 for item in fuzz_h44["inconsistencies"]
                    if item["theorem"] in ("Thm6_strongIsoAntihol_Bochner",
                                           "Thm7_isoHol_Bochner_Kaehler",
                                           "Lemma2_equiv"))
    announce(7, "Bochner flatness and Hermitian equivalences",
             worst, worst <= TOL and one_sided == 0)


def test_08_remark_identity():
    from isocurv import antiholomorphic_form_residual

    worst = 0.0
    for dim, index in ((6, 2), (8, 4)):
        model = hermitian_model(dim, index)
        n, J = dim // 2, model.cplx
        rng = np.random.default_rng(80 + dim)
        for nu in (-1.0, 0.0, 0.7):
            S0 = random_symmetric(rng, dim)
            S = (S0 + J.T @ S0 @ J) / 2.0
            R = nu * (pi1(model) - pi2(model) / (2 * n + 1)) + psi(model, S) / (2 * (n + 1))
            worst = max(worst, antiholomorphic_form_residual(model, R, nu)
                        / max(1.0, max_norm(R)))
    announce(8, "constant antiholomorphic curvature identity", worst, worst <= TOL)


def test_09_einstein_criterion(fuzz_h44):
    model = ModelPoint(4, 2)
    worst = 0.0
    for lam in (0.5, -2.0):
        R = build_conformally_flat(model, lam * model.metric)
        rho = ricci(model, R)
        XI = isotropic_vectors(model, 500, seed=9)
        vals = np.abs(np.einsum("ki,ij,kj->k", XI, rho, XI)) / max(1.0, max_norm(rho))
        worst = max(worst, float(np.max(vals)))
    # non-Einstein input: exhibit an isotropic witness
    S = np.diag([3.0, 1.0, 1.0, 1.0]) @ model.metric
    R = build_conformally_flat(model, (S + S.T) / 2.0)
    rho = ricci(model, R)
    XI = isotropic_vectors(model, 500, seed=9)
    vals = np.abs(np.einsum("ki,ij,kj->k", XI, rho, XI)) / max(1.0, max_norm(rho))
    k = int(np.argmax(vals))
    xi = XI[k]
    witness_ok = (vals[k] > 10 * TOL and abs(inner(model, xi, xi)) <= 1e-10)
    one_sided = sum(1 for item in fuzz_h44["inconsistencies"]
                    if item["theorem"] == "EinsteinFromIsotropicRicci")
    announce(9, "Einstein from isotropic Ricci values", worst,
             worst <= 1e-12 and witness_ok and one_sided == 0)


def test_10_determinism_round_trip(tmp_path):
    model = ModelPoint(5, 2)
    a = json.dumps(fuzz(model, trials=5, seed=42, samples=50), sort_keys=True)
    b = json.dumps(fuzz(model, trials=5, seed=42, samples=50), sort_keys=True)
    byte_identical = a.encode() == b.encode()

    hm = hermitian_model(6, 2)
    T = random_curvature_like(hm, 17)
    path = tmp_path / "doc.json"
    save_document(TensorDocument(hm, {"T": T}, meta={"note": "round trip"}), path)
    doc = load_document(path)
    exact = (np.array_equal(doc.tensor("T"), T)
             and np.array_equal(doc.model.metric, hm.metric)
             and np.array_equal(doc.model.cplx, hm.cplx))
    announce(10, "seeded determinism and bit-exact documents",
             0.0, byte_identical and exact)

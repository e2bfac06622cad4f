"""Sampled theorem checkers and the seeded fuzz harness.

Each equivalence checker evaluates both sides of a theorem independently:
the hypothesis side by sampling planes of the quantified kind, the
conclusion side by the exact closed-form criterion (conformal norm,
Bochner norm, projection residual).  The verdict is *consistency*: both
sides pass or both fail.  A one-sided outcome signals a bug and is
surfaced, never silently resolved.

All residuals are relative-scaled by max(1, |T|_max) of the tensor under
test, so verdicts compare directly against the relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .canonical import (
    antiholomorphic_form_residual,
    bochner,
    conformal,
    pi1,
    pi2,
)
from .errors import UnsupportedSignature
from .model import ModelPoint, Tolerance, as_tolerance
from .planes import (
    Frame,
    Plane,
    PlaneKind,
    _random_frame,
    _sample_rng,
    check_count,
    sample_planes,
    sectional_curvature,
)
from .tensors import (
    check_quad,
    max_norm,
    quad_eval_batch,
    residual_scale,
    ricci,
    scalar_curv,
)


class TheoremId(Enum):
    THM_A_WEAK_ISO_CONST_K = "ThmA_weakIso_constK"
    THM_1_STRONG_ISO_CONF_FLAT = "Thm1_strongIso_confFlat"
    THM_2_QUADRUPLES = "Thm2_quadruples"
    THM_5_WEAK_ISO_ANTIHOL = "Thm5_weakIsoAntihol_constAntihol"
    THM_6_STRONG_ISO_ANTIHOL_BOCHNER = "Thm6_strongIsoAntihol_Bochner"
    THM_7_ISO_HOL_BOCHNER = "Thm7_isoHol_Bochner_Kaehler"
    LEMMA_2_EQUIV = "Lemma2_equiv"
    EINSTEIN_FROM_ISOTROPIC_RICCI = "EinsteinFromIsotropicRicci"


class UniquenessKind(Enum):
    THM_B = "ThmB"
    THM_C = "ThmC"
    LEMMA_1 = "Lemma1"


@dataclass
class DiagReport:
    max_residual: float
    witness: object  # Plane/Frame/ndarray, present iff verdict is False
    samples_used: int
    verdict: bool
    side_notes: list = field(default_factory=list)


def vanishing_report(model: ModelPoint, R, kind: PlaneKind, count: int = 200,
                     seed: int = 0, tol=Tolerance()) -> DiagReport:
    """Max of |R(u,v,v,u)| over sampled planes of the given kind, scaled."""
    tol = as_tolerance(tol)
    R = check_quad(model, R)
    scale = residual_scale(R)
    planes = sample_planes(model, kind, count, seed)
    res = np.abs(quad_eval_batch(R, planes.U, planes.V, planes.V, planes.U)) / scale
    k = int(np.argmax(res))
    worst = float(res[k])
    verdict = worst <= tol.rel
    return DiagReport(worst, None if verdict else planes[k], count, verdict)


# ---------------------------------------------------------------------------
# closed-form flatness norms
# ---------------------------------------------------------------------------


@dataclass
class FlatnessNorms:
    conf_norm: float          # None when dim <= 3
    boch_norm: float          # None without J or dim < 6
    const_curv_residual: float
    antihol_residual: float   # None without J
    nu_hat: float
    mu_hat: float             # None without J


def _const_curv_fit(p1: np.ndarray, R, scale: float):
    """Least-squares coefficient kappa of R against p1 = pi1, and the scaled
    max-norm residual |R - kappa pi1| / scale."""
    kappa = float(np.vdot(p1, R) / np.vdot(p1, p1))
    return kappa, max_norm(R - kappa * p1) / scale


def _fit_pi(p1: np.ndarray, p2: np.ndarray, R):
    """Space-form fit R ~ a pi1 + b pi2 as (nu, mu) = (a, a + 3b)."""
    gram = np.array([[np.vdot(p1, p1), np.vdot(p1, p2)],
                     [np.vdot(p2, p1), np.vdot(p2, p2)]])
    rhs = np.array([np.vdot(p1, R), np.vdot(p2, R)])
    a, b = np.linalg.solve(gram, rhs)
    return float(a), float(a) + 3.0 * float(b)


class _ExactNorms:
    """Scaled max-norms of the derived tensors of one R, each computed on
    first use.  ``equivalence_check`` makes a fresh one per call; ``fuzz``
    shares one across the theorems of a trial, so Theorems 1 and 2 use one
    conformal tensor and Theorems 6 and 7 one Bochner tensor."""

    def __init__(self, model: ModelPoint, R: np.ndarray, scale: float):
        self.model, self.R, self.scale = model, R, scale

    @cached_property
    def conformal(self) -> float:
        return max_norm(conformal(self.model, self.R)) / self.scale

    @cached_property
    def bochner(self) -> float:
        return max_norm(bochner(self.model, self.R)) / self.scale


def flatness_norms(model: ModelPoint, R) -> FlatnessNorms:
    """Exact-criterion norms: conformal, Bochner, pi1-projection residual,
    and the constant-antiholomorphic-form residual at the fitted nu.

    pi1 and pi2 are built once, for the two fits; each derived tensor is
    built once."""
    R = check_quad(model, R)
    scale = residual_scale(R)
    exact = _ExactNorms(model, R, scale)
    p1 = pi1(model)
    kappa, const_res = _const_curv_fit(p1, R, scale)
    nu_hat, mu_hat = _fit_pi(p1, pi2(model), R) if model.has_cplx else (kappa, None)
    conf = exact.conformal if model.dim > 3 else None
    boch = None
    antihol = None
    if model.has_cplx:
        if model.dim >= 6 and model.dim % 2 == 0:
            boch = exact.bochner
        antihol = antiholomorphic_form_residual(model, R, nu_hat) / scale
    return FlatnessNorms(conf, boch, const_res, antihol, nu_hat, mu_hat)


# ---------------------------------------------------------------------------
# two-sided equivalence checks
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise UnsupportedSignature(msg)


def _consistency_report(sides, tol: Tolerance, witness=None) -> DiagReport:
    """sides: list of (name, scaled_residual). Verdict: all agree."""
    passes = [r <= tol.rel for _, r in sides]
    verdict = all(passes) or not any(passes)
    notes = [f"{name}: residual {r:.3e} -> {'pass' if ok else 'fail'}"
             for (name, r), ok in zip(sides, passes)]
    worst = max(r for _, r in sides)
    return DiagReport(worst, None if verdict else witness,
                      0, verdict, notes)


def equivalence_check(model: ModelPoint, R, theorem_id: TheoremId, count: int = 200,
                      seed: int = 0, tol=Tolerance(), *, _exact=None) -> DiagReport:
    """Evaluate both sides of a theorem; verdict true iff they agree.

    ``_exact`` is internal: ``fuzz`` passes the ``_ExactNorms`` of R so that
    the theorems of one trial share each derived tensor.
    """
    tol = as_tolerance(tol)
    R = check_quad(model, R)
    check_count(count)
    s, pos = model.index, model.dim - model.index
    scale = residual_scale(R)

    if theorem_id is TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI:
        return einstein_check(model, R, count, seed, tol)

    exact = _ExactNorms(model, R, scale) if _exact is None else _exact

    if theorem_id is TheoremId.THM_A_WEAK_ISO_CONST_K:
        hyp = vanishing_report(model, R, PlaneKind.WEAKLY_ISOTROPIC, count, seed, tol)
        _, const_res = _const_curv_fit(pi1(model), R, scale)
        rep = _consistency_report(
            [("weakly isotropic vanishing", hyp.max_residual),
             ("constant-curvature residual", const_res)],
            tol, witness=hyp.witness)
    elif theorem_id is TheoremId.THM_1_STRONG_ISO_CONF_FLAT:
        _require(s >= 2 and pos >= 2, "Theorem 1 needs s>=2 and m-s>=2")
        hyp = vanishing_report(model, R, PlaneKind.STRONGLY_ISOTROPIC, count, seed, tol)
        conf = exact.conformal
        rep = _consistency_report(
            [("strongly isotropic vanishing", hyp.max_residual),
             ("conformal norm", conf)], tol, witness=hyp.witness)
    elif theorem_id is TheoremId.THM_2_QUADRUPLES:
        _require(s >= 2 and pos >= 2, "Theorem 2 needs s>=2 and m-s>=2")
        quads = sample_planes(model, PlaneKind.QUADRUPLE_PPMM, count, seed)
        X, Y, A, B = quads.vectors.transpose(1, 0, 2)

        def kval(U, V, sign):
            return sign * quad_eval_batch(R, U, V, V, U)

        v2 = np.abs(quad_eval_batch(R, X, Y, A, B)) / scale
        v3 = np.abs(kval(X, Y, 1) + kval(A, B, 1) - kval(X, A, -1) - kval(Y, B, -1)) / scale
        r2 = float(np.max(v2))
        r3 = float(np.max(v3))
        worst = quads[int(np.argmax(np.maximum(v2, v3)))]
        conf = exact.conformal
        rep = _consistency_report(
            [("quadruple component vanishing", r2),
             ("sectional curvature relation", r3),
             ("conformal norm", conf)], tol, witness=worst)
    elif theorem_id is TheoremId.THM_5_WEAK_ISO_ANTIHOL:
        _require(model.dim >= 6, "Theorem 5 needs complex dimension >= 3")
        hyp = vanishing_report(model, R, PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC,
                               count, seed, tol)
        planes = sample_planes(model, PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC, count, seed)
        U, V = planes.U, planes.V
        g = model.metric
        disc = (np.einsum("ki,ij,kj->k", U, g, U) * np.einsum("ki,ij,kj->k", V, g, V)
                - np.einsum("ki,ij,kj->k", U, g, V) ** 2)
        ks = quad_eval_batch(R, U, V, V, U) / disc
        spread = float(np.max(ks) - np.min(ks)) / scale
        rep = _consistency_report(
            [("weakly isotropic antiholomorphic vanishing", hyp.max_residual),
             ("antiholomorphic curvature spread", spread)], tol, witness=hyp.witness)
    elif theorem_id is TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER:
        _require(s >= 4 and pos >= 4, "Theorem 6 needs complex s>=2 and n-s>=2")
        hyp = vanishing_report(model, R, PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC,
                               count, seed, tol)
        boch = exact.bochner
        rep = _consistency_report(
            [("strongly isotropic antiholomorphic vanishing", hyp.max_residual),
             ("Bochner norm", boch)], tol, witness=hyp.witness)
    elif theorem_id is TheoremId.THM_7_ISO_HOL_BOCHNER:
        _require(s >= 4 and pos >= 4, "Theorem 7 needs complex s>=2 and n-s>=2")
        hyp = vanishing_report(model, R, PlaneKind.ISOTROPIC_HOLOMORPHIC, count, seed, tol)
        boch = exact.bochner
        rep = _consistency_report(
            [("isotropic holomorphic vanishing", hyp.max_residual),
             ("Bochner norm", boch)], tol, witness=hyp.witness)
    elif theorem_id is TheoremId.LEMMA_2_EQUIV:
        _require(s >= 4 and pos >= 4, "Lemma 2 needs complex s>=2 and n-s>=2")
        one = vanishing_report(model, R, PlaneKind.ISOTROPIC_HOLOMORPHIC, count, seed, tol)
        two = vanishing_report(model, R, PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC,
                               count, seed, tol)
        rep = _consistency_report(
            [("isotropic holomorphic vanishing", one.max_residual),
             ("strongly isotropic antiholomorphic vanishing", two.max_residual)],
            tol, witness=one.witness or two.witness)
    else:
        raise ValueError(f"unknown theorem id {theorem_id}")
    rep.samples_used = count
    return rep


_ISOTROPIC_CACHE: dict = {}


def _isotropic_vectors(model: ModelPoint, count: int, seed: int) -> np.ndarray:
    """Seeded isotropic vectors x + a from (+,-) orthonormal pairs, memoized."""
    from .planes import _model_key

    key = (_model_key(model), count, seed)
    hit = _ISOTROPIC_CACHE.get(key)
    if hit is None:
        hit = np.stack([np.add(*_random_frame(model, (1, -1), _sample_rng(seed, i)))
                        for i in range(count)])
        if len(_ISOTROPIC_CACHE) >= 64:
            _ISOTROPIC_CACHE.clear()
        _ISOTROPIC_CACHE[key] = hit
    return hit


def einstein_check(model: ModelPoint, R, count: int = 200, seed: int = 0,
                   tol=Tolerance()) -> DiagReport:
    """Sampled |rho(xi,xi)| on isotropic xi versus the Einstein residual
    |rho - (tau/m) g|; verdict: the two are small together or large together."""
    tol = as_tolerance(tol)
    R = check_quad(model, R)
    residual_scale(R)  # rejects a non-finite R
    check_count(count)
    _require(model.index >= 1 and model.dim - model.index >= 1,
             "isotropic vectors need an indefinite metric")
    rho = ricci(model, R)
    tau = scalar_curv(model, R)
    scale = max(1.0, max_norm(rho))
    XI = _isotropic_vectors(model, count, seed)
    vals = np.abs(np.einsum("ki,ij,kj->k", XI, rho, XI)) / scale
    k = int(np.argmax(vals))
    worst, witness = float(vals[k]), XI[k]
    einstein_res = max_norm(rho - (tau / model.dim) * model.metric) / scale
    hyp_pass = worst <= tol.rel
    concl_pass = einstein_res <= tol.rel
    verdict = hyp_pass == concl_pass
    notes = [f"sampled max |rho(xi,xi)|: {worst:.3e} -> {'pass' if hyp_pass else 'fail'}",
             f"Einstein residual: {einstein_res:.3e} -> {'pass' if concl_pass else 'fail'}"]
    return DiagReport(max(worst, einstein_res),
                      None if verdict else witness, count, verdict, notes)


def uniqueness_check(model: ModelPoint, kind: UniquenessKind, T, count: int = 200,
                     seed: int = 0, tol=Tolerance()) -> DiagReport:
    """Sampled vanishing hypotheses of the uniqueness lemmas versus the exact
    conclusion (projection residual for the constant-curvature case, |T| else)."""
    tol = as_tolerance(tol)
    T = check_quad(model, T)
    scale = residual_scale(T)
    check_count(count)

    if kind is UniquenessKind.THM_B:
        _require(model.index >= 1 and model.dim - model.index >= 1,
                 "needs a (+,-) orthonormal pair")
        g = model.metric
        rows = []
        for i in range(count):
            rng = _sample_rng(seed, i)
            x, y = _random_frame(model, (1, -1), rng)
            z = rng.uniform(-1.0, 1.0, model.dim)
            z = z - (z @ g @ x) * (x / (x @ g @ x)) - (z @ g @ y) * (y / (y @ g @ y))
            rows.append((x, y, z))
        X, Y, Z = np.array(rows).transpose(1, 0, 2)
        res = np.abs(quad_eval_batch(T, X, Y, Z, X)) / scale
        k = int(np.argmax(res))
        worst, witness = float(res[k]), Frame(np.stack(rows[k]), (1, -1, 0))
        _, concl = _const_curv_fit(pi1(model), T, scale)
        concl_name = "constant-curvature residual"
    else:
        J = model.require_cplx()
        spacelike_only = kind is UniquenessKind.LEMMA_1
        pair_signs = (1, -1) if kind is UniquenessKind.LEMMA_1 else None
        rows = []
        for i in range(count):
            rng = _sample_rng(seed, i)
            if spacelike_only:
                (x,) = _random_frame(model, (1,), rng)
            else:
                x = rng.uniform(-1.0, 1.0, model.dim)
            if pair_signs is None:
                opts = [(1, 1)] if model.dim - model.index >= 4 else []
                if model.index >= 2 and model.dim - model.index >= 2:
                    opts.append((1, -1))
                if model.index >= 4:
                    opts.append((-1, -1))
                signs = opts[rng.integers(len(opts))]
            else:
                signs = pair_signs
            u, v = _random_frame(model, signs, rng, antiholomorphic=True)
            rows.append((x, u, v))
        X, U, V = np.array(rows).transpose(1, 0, 2)
        JX, JU = X @ J.T, U @ J.T
        # per sample: R(x,Jx,Jx,x) on the holomorphic plane, then R(u,v,v,u)
        # and R(u,Ju,v,u) on the antiholomorphic one; ties go to the earliest
        res = np.abs(np.stack([quad_eval_batch(T, X, JX, JX, X),
                               quad_eval_batch(T, U, V, V, U),
                               quad_eval_batch(T, U, JU, V, U)], axis=1)) / scale
        k, j = divmod(int(np.argmax(res)), 3)
        worst = float(res[k, j])
        witness = Plane(X[k], JX[k]) if j == 0 else Plane(U[k], V[k])
        concl = max_norm(T) / scale
        concl_name = "tensor norm"

    hyp_pass = worst <= tol.rel
    concl_pass = concl <= tol.rel
    verdict = hyp_pass == concl_pass
    notes = [f"sampled hypothesis residual: {worst:.3e} -> {'pass' if hyp_pass else 'fail'}",
             f"{concl_name}: {concl:.3e} -> {'pass' if concl_pass else 'fail'}"]
    return DiagReport(max(worst, concl), None if verdict else witness, count, verdict, notes)


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


def random_curvature_like(model: ModelPoint, seed: int = 0, trial: int = 0) -> np.ndarray:
    """Uniform noise symmetrized to exact curvature symmetries.

    Antisymmetrized in both index pairs, symmetrized under pair exchange,
    then first-Bianchi-projected by subtracting the cyclic average (which
    is totally antisymmetric, so the other symmetries survive).
    """
    rng = _sample_rng(seed, trial)
    N = rng.uniform(-1.0, 1.0, (model.dim,) * 4)
    T = (N - N.transpose(1, 0, 2, 3)) / 2.0
    T = (T - T.transpose(0, 1, 3, 2)) / 2.0
    T = (T + T.transpose(2, 3, 0, 1)) / 2.0
    cyc = (T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)) / 3.0
    return T - cyc


def applicable_theorems(model: ModelPoint) -> list:
    s, pos = model.index, model.dim - model.index
    out = [TheoremId.THM_A_WEAK_ISO_CONST_K]
    if s >= 2 and pos >= 2:
        out += [TheoremId.THM_1_STRONG_ISO_CONF_FLAT, TheoremId.THM_2_QUADRUPLES]
    if s >= 1 and pos >= 1:
        out.append(TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI)
    if model.has_cplx and model.dim >= 6 and model.dim % 2 == 0:
        if (s >= 2 and pos >= 4) or (s >= 4 and pos >= 2):
            out.append(TheoremId.THM_5_WEAK_ISO_ANTIHOL)
        if s >= 4 and pos >= 4:
            out += [TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER,
                    TheoremId.THM_7_ISO_HOL_BOCHNER, TheoremId.LEMMA_2_EQUIV]
    return out


def fuzz(model: ModelPoint, trials: int, seed: int = 0, samples: int = 100,
         tol=Tolerance()) -> dict:
    """Random curvature-like tensors through every applicable equivalence
    check; any one-sided outcome is recorded with its reproduction seed."""
    tol = as_tolerance(tol)
    check_count(samples)
    theorems = applicable_theorems(model)
    counts = {t.value: {"consistent": 0, "inconsistent": 0} for t in theorems}
    inconsistencies = []
    for trial in range(trials):
        R = random_curvature_like(model, seed, trial)
        exact = _ExactNorms(model, R, residual_scale(R))
        for tid in theorems:
            rep = equivalence_check(model, R, tid, samples, seed, tol, _exact=exact)
            if rep.verdict:
                counts[tid.value]["consistent"] += 1
            else:
                counts[tid.value]["inconsistent"] += 1
                inconsistencies.append({
                    "trial": trial,
                    "theorem": tid.value,
                    "seed": seed,
                    "max_residual": rep.max_residual,
                    "notes": rep.side_notes,
                })
    return {
        "dim": model.dim,
        "index": model.index,
        "complex": model.has_cplx,
        "trials": trials,
        "seed": seed,
        "samples_per_check": samples,
        "tolerance": tol.rel,
        "checks": counts,
        "inconsistencies": inconsistencies,
    }

"""Sampled theorem checkers and the seeded fuzz harness.

Each equivalence checker evaluates both sides of a theorem independently:
the hypothesis side by sampling planes of the quantified kind, the
conclusion side by the exact closed-form criterion (conformal norm,
Bochner norm, projection residual).  The verdict is *consistency*: both
sides pass or both fail.  A one-sided outcome signals a bug and is
surfaced, never silently resolved.  ``THEOREMS`` lists the checks: the
kinds each samples, the list of its sides and the signatures where it
holds.

All residuals are relative-scaled by max(1, |T|_max) of the tensor under
test, so verdicts compare directly against the relative tolerance.

Every side of one tensor is computed in one place, ``_Sides``, on first
use: the exact criteria and the sampled sides, so theorems that share a
side read it once.  The sampled sides evaluate R(x, y, z, u) through
``_RequestPlanes``: the pair rows x (x) y of a request's plane batches are
built once, and only the product with R runs per tensor, so ``fuzz``
forms each pair row once however many trials it runs.  Each sample is a
read-only array of basis rows, and a failing report's witness is the
(n, m) rows of its worst sample: the (x, y) of a plane, the rows of a
frame, or the one row xi of an isotropic vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .canonical import (
    antiholomorphic_forms,
    bochner_forms,
    conformal_forms,
    linear_residual,
)
from .errors import DimensionMismatch, InvalidSampleCount, UnsupportedSignature
from .model import ModelPoint, Tolerance, as_tolerance
from .planes import (
    PLUS_MINUS_PAIR,
    SIGNATURES,
    PlaneKind,
    Signature,
    check_count,
    isotropic_vectors,
    sample_planes,
    sample_rng,
)
from .tensors import (
    bivector_eval,
    check_quad,
    max_norm,
    pair_rows,
    quad_eval_batch,
    residual_scale,
    ricci,
    ricci_star,
    trace_g,
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
    # (n, m) basis rows of the sample where the worst failing sampled side
    # peaks; None when the verdict is consistent or no sampled side fails
    witness: np.ndarray
    samples_used: int
    verdict: bool
    side_notes: list = field(default_factory=list)


def _sampled(name: str, values: np.ndarray, scale: float, rows: np.ndarray) -> tuple:
    """One sampled side: (name, max |values| / scale, witness rows).
    `values` has shape (k,) or (k, j) and `rows` (k, n, m) or (k, j, n, m);
    the witness is the (n, m) rows at the maximum, ties to the earliest."""
    res = np.abs(values) / scale
    at = np.unravel_index(int(np.argmax(res)), res.shape)
    return name, float(res[at]), rows[at]


class _RequestPlanes:
    """The sampled planes of one request's (model, count, seed), with the
    pair rows of each batch built once for the whole request.

    ``batch`` fetches the read-only (count, n, m) array of a kind through
    ``sample_planes``.  ``pair`` memoizes the ``pair_rows`` of basis rows
    (i, j) of a kind's batch by (kind, i, j); (j, i) is the contiguous
    transposed copy of (i, j), the same bits since products commute exactly.
    Only ``bivector_eval`` then runs per tensor, in ``_Sides.quad``.  The
    pair rows live in this holder, not in the lru cache of ``sample_planes``:
    a caller that draws a fresh seed per call would keep the rows of up to
    32 batches alive, 0.2-0.8 MB each at 200 samples.
    """

    def __init__(self, model: ModelPoint, count: int, seed: int):
        self.model, self.count, self.seed = model, count, seed
        self._memo = {}

    def batch(self, kind: PlaneKind) -> np.ndarray:
        return sample_planes(self.model, kind, self.count, self.seed)

    def pair(self, kind: PlaneKind, i: int, j: int) -> np.ndarray:
        """(count, m^2) rows of x_i (x) x_j, x_n the basis rows n of the batch."""
        key = (kind, i, j)
        if key not in self._memo:
            flip = self._memo.get((kind, j, i))
            if flip is None:
                planes = self.batch(kind)
                self._memo[key] = pair_rows(planes[:, i], planes[:, j])
            else:
                k, m = self.count, self.model.dim
                self._memo[key] = flip.reshape(k, m, m).transpose(0, 2, 1).reshape(k, m * m)
        return self._memo[key]

    def disc(self, kind: PlaneKind) -> np.ndarray:
        """Gram determinants g(u,u) g(v,v) - g(u,v)^2 of the batch's planes."""
        key = (kind, "disc")
        if key not in self._memo:
            planes = self.batch(kind)
            U, V, g = planes[:, 0], planes[:, 1], self.model.metric
            uu, vv, uv = (np.einsum("ki,ij,kj->k", A, g, B) for A, B in ((U, U), (V, V), (U, V)))
            self._memo[key] = uu * vv - uv ** 2
        return self._memo[key]


class _Sides:
    """Every side of the theorems on one R, each computed on first use: the
    scaled exact-criterion numbers (derived-tensor norms and space-form
    fits) and the sampled sides, on the planes of a ``_RequestPlanes``.

    ``equivalence_check`` makes a fresh one per call; ``fuzz`` shares one
    across the theorems of a trial, and one ``_RequestPlanes`` across its
    trials.  So Theorems 1 and 2 use one conformal norm, Theorems 6 and 7
    one Bochner norm, and Lemma 2 reads the vanishing sides of Theorems 6
    and 7.  R is contracted once for ``rho`` and once for ``rho_star``:
    they serve tau, the fits and the Einstein sides, and the forms of each
    exact residual, which is one ``canonical.linear_residual``.
    """

    def __init__(self, model: ModelPoint, R: np.ndarray, scale: float,
                 planes: _RequestPlanes = None):
        self.model, self.R, self.scale, self.planes = model, R, scale, planes
        self._vanishing = {}

    @cached_property
    def rho(self) -> np.ndarray:
        return ricci(self.model, self.R)

    @cached_property
    def rho_star(self) -> np.ndarray:
        return ricci_star(self.model, self.R)

    @cached_property
    def tau(self) -> float:
        return trace_g(self.model, self.rho)

    @cached_property
    def kappa(self) -> float:
        """<pi1, R> / <pi1, pi1> = tau / (m(m-1)), the constant-curvature fit."""
        m = self.model.dim
        return self.tau / (m * (m - 1))

    @cached_property
    def fit(self) -> tuple:
        """(nu_hat, mu_hat) of R ~ nu pi1 + (mu - nu)/3 pi2 under the metric
        product <A, B> = A_ijkl B^ijkl, so basis-invariant.  For a
        curvature-like R, <pi1, R> = 2 tau, <pi2, R> = 6 tau*, <pi1, pi1> =
        2m(m-1), <pi1, pi2> = 6m and <pi2, pi2> = 6m(m+1), so the normal
        equations solve in closed form.  Without J the fit is (kappa, None);
        at m = 2 with J the only 2-plane is holomorphic (pi2 = 3 pi1), so
        it is (None, kappa)."""
        m = self.model.dim
        if not self.model.has_cplx:
            return self.kappa, None
        if m == 2:
            return None, self.kappa
        tau, tau_star = self.tau, trace_g(self.model, self.rho_star)
        den = m * (m * m - 4)
        nu = ((m + 1) * tau - 3.0 * tau_star) / den
        return nu, nu + 3.0 * ((m - 1) * tau_star - tau) / den

    def _residual(self, forms: tuple) -> float:
        """max |R - phi(s_phi) - psi(s_psi)| / scale for forms (s_phi, s_psi)."""
        return max_norm(linear_residual(self.model, self.R, *forms)) / self.scale

    @cached_property
    def const_curv(self) -> float:
        """|R - kappa pi1| = |R - phi(kappa g/2)|."""
        return self._residual(((self.kappa / 2.0) * self.model.metric, None))

    @cached_property
    def conformal(self) -> float:
        return self._residual(conformal_forms(self.model, self.rho))

    @cached_property
    def bochner(self) -> float:
        return self._residual(bochner_forms(self.model, self.rho, self.rho_star))

    @cached_property
    def antihol(self) -> float:
        """The constant-antiholomorphic-form residual at the fitted nu."""
        return self._residual(antiholomorphic_forms(self.model, self.rho_star, self.fit[0]))

    def quad(self, kind: PlaneKind, i: int, j: int, a: int, b: int) -> np.ndarray:
        """R(x_i, x_j, x_a, x_b) over the samples of the kind's batch."""
        return bivector_eval(self.R, self.planes.pair(kind, i, j), self.planes.pair(kind, a, b))

    def vanishing(self, kind: PlaneKind) -> tuple:
        """The sampled side |R(u,v,v,u)| over planes of the given kind."""
        if kind not in self._vanishing:
            self._vanishing[kind] = _sampled(kind.value.replace("-", " ") + " vanishing",
                                             self.quad(kind, 0, 1, 1, 0), self.scale,
                                             self.planes.batch(kind))
        return self._vanishing[kind]

    def quadruples(self) -> list:
        """Theorem 2: R(x,y,a,b) and the sectional-curvature relation
        K(x,y) + K(a,b) = K(x,a) + K(y,b) on (+,+,-,-) quadruples (x, y, a, b),
        rows 0 to 3 of each frame; the mixed planes have Gram determinant -1."""
        kind = PlaneKind.QUADRUPLE_PPMM
        quads = self.planes.batch(kind)
        relation = (self.quad(kind, 0, 1, 1, 0) + self.quad(kind, 2, 3, 3, 2)
                    + self.quad(kind, 0, 2, 2, 0) + self.quad(kind, 1, 3, 3, 1))
        return [_sampled("quadruple component vanishing", self.quad(kind, 0, 1, 2, 3),
                         self.scale, quads),
                _sampled("sectional curvature relation", relation, self.scale, quads)]

    def spread(self) -> tuple:
        """Theorem 5: the spread of sectional curvatures over nondegenerate
        antiholomorphic planes.  The spread over one plane is 0 whatever R
        is, so it needs two samples."""
        if self.planes.count < 2:
            raise InvalidSampleCount(f"{TheoremId.THM_5_WEAK_ISO_ANTIHOL.value} needs at least "
                                     f"two samples for a curvature spread, got {self.planes.count}")
        kind = PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC
        ks = self.quad(kind, 0, 1, 1, 0) / self.planes.disc(kind)
        return "antiholomorphic curvature spread", float(np.max(ks) - np.min(ks)) / self.scale, None

    def einstein(self) -> list:
        """Sampled |rho(xi,xi)| on isotropic xi against the Einstein residual
        |rho - (tau/m) g|, both scaled by max(1, |rho|_max) in place of R's."""
        model, rho = self.model, self.rho
        XI = isotropic_vectors(model, self.planes.count, self.planes.seed)
        scale = max(1.0, max_norm(rho))
        values = np.einsum("ki,ij,kj->k", XI, rho, XI)
        return [_sampled("sampled max |rho(xi,xi)|", values, scale, XI[:, None]),
                ("Einstein residual", max_norm(rho - (self.tau / model.dim) * model.metric) / scale,
                 None)]


def vanishing_report(model: ModelPoint, R, kind: PlaneKind, count: int = 200,
                     seed: int = 0, tol=Tolerance()) -> DiagReport:
    """Max of |R(u,v,v,u)| over sampled planes of the given kind, scaled."""
    tol = as_tolerance(tol)
    R = check_quad(model, R)
    sides = _Sides(model, R, residual_scale(R), _RequestPlanes(model, count, seed))
    _, worst, witness = sides.vanishing(kind)
    verdict = worst <= tol.rel
    return DiagReport(worst, None if verdict else witness, count, verdict)


# ---------------------------------------------------------------------------
# closed-form flatness norms
# ---------------------------------------------------------------------------


@dataclass
class FlatnessNorms:
    conf_norm: float          # None when dim <= 3
    boch_norm: float          # None without J or dim < 6
    const_curv_residual: float
    antihol_residual: float   # None without J, or at m = 2
    nu_hat: float             # None at m = 2 with J
    mu_hat: float             # None without J


def flatness_norms(model: ModelPoint, R) -> FlatnessNorms:
    """Exact-criterion norms: conformal, Bochner, pi1-projection residual,
    and the constant-antiholomorphic-form residual at the fitted nu.

    The fits are closed forms in tau and tau*, and each residual is one
    ``canonical.linear_residual`` at forms built from one rho and one rho*
    (R - kappa pi1 at s_phi = kappa g/2), so no pi1 is built.  A model with
    m = 1 has no 2-plane and raises DimensionMismatch."""
    R = check_quad(model, R)
    if model.dim < 2:
        raise DimensionMismatch("flatness norms need dimension >= 2: an m = 1 model has no 2-plane")
    exact = _Sides(model, R, residual_scale(R))
    nu_hat, mu_hat = exact.fit
    conf = exact.conformal if model.dim > 3 else None
    boch = exact.bochner if model.has_cplx and model.dim >= 6 else None
    antihol = exact.antihol if model.has_cplx and nu_hat is not None else None
    return FlatnessNorms(conf, boch, exact.const_curv, antihol, nu_hat, mu_hat)


# ---------------------------------------------------------------------------
# two-sided equivalence checks
# ---------------------------------------------------------------------------


def _consistency_report(sides, tol: Tolerance, count: int) -> DiagReport:
    """sides: list of (name, scaled residual, witness rows or None).
    Verdict: all agree.  An inconsistent verdict carries the witness of the
    worst failing side that has one, or None if no such side fails."""
    passes = [r <= tol.rel for _, r, _ in sides]
    verdict = all(passes) or not any(passes)
    notes = [f"{name}: residual {r:.3e} -> {'pass' if ok else 'fail'}"
             for (name, r, _), ok in zip(sides, passes)]
    failing = [(r, rows) for (_, r, rows), ok in zip(sides, passes)
               if rows is not None and not ok]
    witness = None if verdict or not failing else max(failing, key=lambda f: f[0])[1]
    return DiagReport(max(r for _, r, _ in sides), witness, count, verdict, notes)


@dataclass(frozen=True)
class TheoremSpec:
    """One equivalence.  It holds where every sampled kind exists and the
    ``needs`` row, if any, fits.  ``sides`` maps the ``_Sides`` of a tensor
    to the theorem's sides."""

    kinds: tuple
    sides: Callable  # _Sides -> list of (name, scaled residual, witness rows or None)
    needs: Signature = None

    @cached_property
    def signatures(self) -> list:
        """(what, Signature) rows that must all fit the model."""
        rows = [(f"kind {kind.value}", SIGNATURES[kind]) for kind in self.kinds]
        return rows + ([("the equivalence", self.needs)] if self.needs else [])


_K = PlaneKind

THEOREMS = {
    TheoremId.THM_A_WEAK_ISO_CONST_K: TheoremSpec((_K.WEAKLY_ISOTROPIC,), lambda s: [
        s.vanishing(_K.WEAKLY_ISOTROPIC), ("constant-curvature residual", s.const_curv, None)]),
    TheoremId.THM_1_STRONG_ISO_CONF_FLAT: TheoremSpec((_K.STRONGLY_ISOTROPIC,), lambda s: [
        s.vanishing(_K.STRONGLY_ISOTROPIC), ("conformal norm", s.conformal, None)]),
    TheoremId.THM_2_QUADRUPLES: TheoremSpec((_K.QUADRUPLE_PPMM,), lambda s: [
        *s.quadruples(), ("conformal norm", s.conformal, None)]),
    TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI: TheoremSpec((), _Sides.einstein, PLUS_MINUS_PAIR),
    TheoremId.THM_5_WEAK_ISO_ANTIHOL: TheoremSpec(
        (_K.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC, _K.NONDEGENERATE_ANTIHOLOMORPHIC),
        lambda s: [s.vanishing(_K.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC), s.spread()]),
    TheoremId.THM_6_STRONG_ISO_ANTIHOL_BOCHNER: TheoremSpec(
        (_K.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC,), lambda s: [
            s.vanishing(_K.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC), ("Bochner norm", s.bochner, None)]),
    # holds from (4,4) on, where an antiholomorphic (+,+,-,-) frame exists
    TheoremId.THM_7_ISO_HOL_BOCHNER: TheoremSpec((_K.ISOTROPIC_HOLOMORPHIC,), lambda s: [
        s.vanishing(_K.ISOTROPIC_HOLOMORPHIC), ("Bochner norm", s.bochner, None)],
        SIGNATURES[_K.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC]),
    TheoremId.LEMMA_2_EQUIV: TheoremSpec(
        (_K.ISOTROPIC_HOLOMORPHIC, _K.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC), lambda s: [
            s.vanishing(_K.ISOTROPIC_HOLOMORPHIC),
            s.vanishing(_K.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC)]),
}


def equivalence_check(model: ModelPoint, R, theorem_id: TheoremId, count: int = 200,
                      seed: int = 0, tol=Tolerance(), *, _sides=None) -> DiagReport:
    """Evaluate both sides of a theorem; verdict true iff they agree.

    ``_sides`` is internal: ``fuzz`` passes the ``_Sides`` of a trial's R,
    whose R, scale and request planes are then used as they are, so that
    the theorems of one trial share each side and each pair row is built
    once however many trials run.
    """
    tol = as_tolerance(tol)
    if _sides is None:
        R = check_quad(model, R)
        check_count(count)
        _sides = _Sides(model, R, residual_scale(R), _RequestPlanes(model, count, seed))
    spec = THEOREMS[theorem_id]
    for what, row in spec.signatures:
        row.require(model, f"{theorem_id.value}: {what}")
    return _consistency_report(spec.sides(_sides), tol, count)


def einstein_check(model: ModelPoint, R, count: int = 200, seed: int = 0,
                   tol=Tolerance()) -> DiagReport:
    """Sampled |rho(xi,xi)| on isotropic xi versus the Einstein residual
    |rho - (tau/m) g|; verdict: the two are small together or large together."""
    return equivalence_check(model, R, TheoremId.EINSTEIN_FROM_ISOTROPIC_RICCI, count, seed, tol)


# the frames sampled per kind: a (+,-) pair (x, y) and a unit z orthogonal to
# both for B; an antiholomorphic pair (u, v) for C and Lemma 1, whose first
# vector is also the x of the holomorphic plane (x, Jx)
_UNIQUENESS_SIGNATURES = {
    UniquenessKind.THM_B: Signature(False, ((1, -1, 1), (1, -1, -1))),
    UniquenessKind.THM_C: SIGNATURES[PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC],
    UniquenessKind.LEMMA_1: Signature(True, ((1, -1),)),
}


def uniqueness_check(model: ModelPoint, kind: UniquenessKind, T, count: int = 200,
                     seed: int = 0, tol=Tolerance()) -> DiagReport:
    """Sampled vanishing hypotheses of the uniqueness lemmas versus the exact
    conclusion (projection residual for the constant-curvature case, |T| else)."""
    tol = as_tolerance(tol)
    T = check_quad(model, T)
    scale = residual_scale(T)
    check_count(count)
    frames = _UNIQUENESS_SIGNATURES[kind].draw(model, seed, count, f"{kind.value} sampling")
    if kind is UniquenessKind.THM_B:
        X, Y, Z = frames.transpose(1, 0, 2)
        sides = [_sampled("sampled hypothesis residual", quad_eval_batch(T, X, Y, Z, X), scale,
                          frames),
                 ("constant-curvature residual", _Sides(model, T, scale).const_curv, None)]
    else:
        U, V = frames.transpose(1, 0, 2)
        JU = U @ model.cplx.T
        X, JX = U, JU
        # per sample: R(x,Jx,Jx,x) on the holomorphic plane (x, Jx), then
        # R(u,v,v,u) and R(u,Ju,v,u) on the antiholomorphic one (u, v)
        values = np.stack([quad_eval_batch(T, X, JX, JX, X), quad_eval_batch(T, U, V, V, U),
                           quad_eval_batch(T, U, JU, V, U)], axis=1)
        rows = np.stack([X, JX, U, V, U, V], axis=1).reshape(count, 3, 2, model.dim)
        sides = [_sampled("sampled hypothesis residual", values, scale, rows),
                 ("tensor norm", max_norm(T) / scale, None)]
    return _consistency_report(sides, tol, count)


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


def random_curvature_like(model: ModelPoint, seed: int = 0, trial: int = 0) -> np.ndarray:
    """Uniform noise symmetrized to exact curvature symmetries.

    Antisymmetrized in both index pairs, symmetrized under pair exchange,
    then first-Bianchi-projected by subtracting the cyclic average (which
    is totally antisymmetric, so the other symmetries survive).
    """
    rng = sample_rng(seed, trial)
    N = rng.uniform(-1.0, 1.0, (model.dim,) * 4)
    T = (N - N.transpose(1, 0, 2, 3)) / 2.0
    T = (T - T.transpose(0, 1, 3, 2)) / 2.0
    T = (T + T.transpose(2, 3, 0, 1)) / 2.0
    cyc = (T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)) / 3.0
    return T - cyc


def applicable_theorems(model: ModelPoint) -> list:
    """The theorems whose signature rows all fit `model`, in table order."""
    return [tid for tid, spec in THEOREMS.items()
            if all(row.fitting(model) for _, row in spec.signatures)]


def fuzz(model: ModelPoint, trials: int, seed: int = 0, samples: int = 100,
         tol=Tolerance()) -> dict:
    """Random curvature-like tensors through every applicable equivalence
    check; any one-sided outcome is recorded with its reproduction seed."""
    tol = as_tolerance(tol)
    check_count(samples)
    if trials < 1:
        raise InvalidSampleCount(f"need at least one trial, got {trials}")
    theorems = applicable_theorems(model)
    if not theorems:
        raise UnsupportedSignature(
            f"no theorem applies to signature ({model.index},{model.dim - model.index})")
    counts = {t.value: {"consistent": 0, "inconsistent": 0} for t in theorems}
    inconsistencies = []
    planes = _RequestPlanes(model, samples, seed)
    for trial in range(trials):
        R = random_curvature_like(model, seed, trial)
        sides = _Sides(model, R, residual_scale(R), planes)
        for tid in theorems:
            rep = equivalence_check(model, R, tid, samples, seed, tol, _sides=sides)
            counts[tid.value]["consistent" if rep.verdict else "inconsistent"] += 1
            if not rep.verdict:
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

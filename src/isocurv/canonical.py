"""Derived curvature tensors and model-space builders.

Conventions (m = real dimension, n = m/2 where J is involved):

* pi1(x,y,z,u) = g(y,z)g(x,u) - g(x,z)g(y,u)
* pi2(x,y,z,u) = g(y,Jz)g(x,Ju) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)
* phi(S) is the Kulkarni-Nomizu-type product of g with a symmetric S,
  psi(S) its J-twisted analogue (curvature-like iff S(x,Jy)+S(y,Jx)=0)
* the conformal tensor C and the Bochner tensor B(R) are affine
  combinations of R with phi/psi applied to Ricci-type contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    HybridConditionViolated,
    IsocurvError,
    UnsupportedSignature,
)
from .model import ModelPoint, Tolerance, as_tolerance
from .planes import _random_frame, _sample_rng, check_count
from .tensors import (
    check_quad,
    conjugate,
    is_symmetric,
    max_norm,
    quad_eval_batch,
    residual_scale,
    ricci,
    ricci_star,
    scalar_curv,
    scalar_star,
    trace_g,
)


def pi1(model: ModelPoint) -> np.ndarray:
    g = model.metric
    return np.einsum("yz,xu->xyzu", g, g) - np.einsum("xz,yu->xyzu", g, g)


def pi2(model: ModelPoint) -> np.ndarray:
    J = model.require_cplx()
    om = model.metric @ J  # om[x,y] = g(x, Jy)
    return (np.einsum("yz,xu->xyzu", om, om)
            - np.einsum("xz,yu->xyzu", om, om)
            - 2.0 * np.einsum("xy,zu->xyzu", om, om))


def _phi_raw(g: np.ndarray, S: np.ndarray) -> np.ndarray:
    return (np.einsum("yz,xu->xyzu", g, S) - np.einsum("xz,yu->xyzu", g, S)
            + np.einsum("xu,yz->xyzu", g, S) - np.einsum("yu,xz->xyzu", g, S))


def phi(model: ModelPoint, S, check: bool = True, tol=Tolerance()) -> np.ndarray:
    """phi(S)(x,y,z,u) = g(y,z)S(x,u) - g(x,z)S(y,u) + g(x,u)S(y,z) - g(y,u)S(x,z)."""
    S = np.asarray(S, dtype=float)
    if S.shape != (model.dim,) * 2:
        raise DimensionMismatch("S must be a square table of the model dimension")
    if check and not is_symmetric(S, tol):
        raise IsocurvError("phi requires a symmetric bilinear form")
    return _phi_raw(model.metric, S)


def hybrid_residual(model: ModelPoint, S) -> float:
    """Max violation of S(x,Jy) + S(y,Jx) = 0 over the basis."""
    sig = np.asarray(S, dtype=float) @ model.require_cplx()
    return max_norm(sig + sig.T)


def _psi_raw(om: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return (np.einsum("yz,xu->xyzu", om, sig) - np.einsum("xz,yu->xyzu", om, sig)
            - 2.0 * np.einsum("xy,zu->xyzu", om, sig)
            + np.einsum("xu,yz->xyzu", om, sig) - np.einsum("yu,xz->xyzu", om, sig)
            - 2.0 * np.einsum("zu,xy->xyzu", om, sig))


def psi(model: ModelPoint, S, enforce_hybrid: bool = True, tol=Tolerance()) -> np.ndarray:
    """J-twisted analogue of phi.

    Curvature-like only when S(x,Jy) + S(y,Jx) = 0; by default a violation
    raises HybridConditionViolated, with ``enforce_hybrid=False`` the
    formula is evaluated anyway.
    """
    J = model.require_cplx()
    S = np.asarray(S, dtype=float)
    if S.shape != (model.dim,) * 2:
        raise DimensionMismatch("S must be a square table of the model dimension")
    if enforce_hybrid and hybrid_residual(model, S) > as_tolerance(tol).threshold(S):
        raise HybridConditionViolated("S(x,Jy) + S(y,Jx) != 0")
    return _psi_raw(model.metric @ J, S @ J)


def conformal(model: ModelPoint, R) -> np.ndarray:
    """Weyl-type conformal tensor C = R - phi(rho)/(m-2) + tau pi1 /((m-1)(m-2))."""
    m = model.dim
    if m <= 3:
        raise DimensionMismatch("the conformal tensor needs dimension > 3")
    R = check_quad(model, R)
    rho = ricci(model, R)
    tau = scalar_curv(model, R)
    return R - _phi_raw(model.metric, rho) / (m - 2) + tau * pi1(model) / ((m - 1) * (m - 2))


@dataclass
class BochnerDetails:
    tensor: np.ndarray
    hybrid_residuals: dict = field(default_factory=dict)

    def hybrid_ok(self, tol=Tolerance()) -> bool:
        rel = as_tolerance(tol)
        return all(r <= rel.threshold() for r in self.hybrid_residuals.values())


def bochner(model: ModelPoint, R, details: bool = False):
    """Bochner curvature tensor of an almost-Hermitian model, m = 2n >= 6.

    Each phi/psi factor is applied to the Ricci-type contraction of the
    tensor named in its trailing parenthesis (R + conj or R - conj); the
    scalar terms use R itself.  psi-arguments violating the hybrid
    condition do not abort; their residuals are recorded when
    ``details=True``.
    """
    m = model.dim
    if m % 2 or m < 6:
        raise DimensionMismatch("the Bochner tensor needs even dimension >= 6")
    J = model.require_cplx()
    R = check_quad(model, R)
    n = m // 2
    g = model.metric
    om = g @ J

    Rbar = conjugate(model, R)
    plus, minus = R + Rbar, R - Rbar
    s1 = ricci(model, plus) + 3.0 * ricci_star(model, plus)
    s2 = ricci(model, plus) - ricci_star(model, plus)
    s3 = ricci_star(model, minus)
    s4 = ricci(model, minus)
    tau = scalar_curv(model, R)
    tau_star = scalar_star(model, R)
    p1, p2 = pi1(model), pi2(model)

    B = (R
         - (_phi_raw(g, s1) + _psi_raw(om, s1 @ J)) / (16.0 * (n + 2))
         - (3.0 * _phi_raw(g, s2) - _psi_raw(om, s2 @ J)) / (16.0 * (n - 2))
         - (_psi_raw(om, s3 @ J) / (4.0 * (n + 1)) - _phi_raw(g, s4) / (4.0 * (n - 1)))
         + (tau + 3.0 * tau_star) * (p1 + p2) / (16.0 * (n + 1) * (n + 2))
         + (tau - tau_star) * (3.0 * p1 - p2) / (16.0 * (n - 1) * (n - 2)))
    if not details:
        return B
    residuals = {name: hybrid_residual(model, S)
                 for name, S in (("rho+3rho*(R+conj)", s1),
                                 ("rho-rho*(R+conj)", s2),
                                 ("rho*(R-conj)", s3))}
    return BochnerDetails(B, residuals)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_constant_curvature(model: ModelPoint, c: float) -> np.ndarray:
    """Constant sectional curvature model: c * pi1."""
    return c * pi1(model)


def build_conformally_flat(model: ModelPoint, S) -> np.ndarray:
    """Inverts the conformal formula: the unique conformally flat tensor with
    Ricci contraction S.  R = phi(S)/(m-2) - tr(S) pi1 / ((m-1)(m-2))."""
    m = model.dim
    if m <= 3:
        raise DimensionMismatch("needs dimension > 3")
    S = np.asarray(S, dtype=float)
    if not is_symmetric(S):
        raise IsocurvError("S must be symmetric")
    return _phi_raw(model.metric, S) / (m - 2) - trace_g(model, S) * pi1(model) / ((m - 1) * (m - 2))


def build_space_form(model: ModelPoint, nu: float, mu: float) -> np.ndarray:
    """Constant holomorphic curvature mu, antiholomorphic curvature nu:
    R = nu pi1 + (mu - nu)/3 pi2.  nu = mu/4 gives the Kaehler space form."""
    return nu * pi1(model) + ((mu - nu) / 3.0) * pi2(model)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def antiholomorphic_form_residual(model: ModelPoint, R, nu: float, notes=None) -> float:
    """Max-norm residual of the constant-antiholomorphic-curvature form:

    R - psi(rho*)/(2(n+1)) + tau* pi2/((2n+1)(2n+2)) - nu (pi1 - pi2/(2n+1)).
    """
    J = model.require_cplx()
    R = check_quad(model, R)
    n = model.dim // 2
    rs = ricci_star(model, R)
    hy = hybrid_residual(model, rs)
    if notes is not None and hy > Tolerance().threshold(rs):
        notes.append(f"rho* violates the psi hybrid condition (residual {hy:.3e})")
    ts = scalar_star(model, R)
    p1, p2 = pi1(model), pi2(model)
    res = (R - _psi_raw(model.metric @ J, rs @ J) / (2.0 * (n + 1))
           + ts * p2 / ((2 * n + 1) * (2 * n + 2))
           - nu * (p1 - p2 / (2 * n + 1)))
    return max_norm(res)


@dataclass(frozen=True)
class Theorem6Report:
    basis_sum_residual: float      # identity (12), exact basis sum
    holomorphic_k_residual: float  # identity (13), spacelike unit vectors
    mixed_pair_residual: float     # identity (19), (+,-) orthonormal pairs
    samples_used: int
    verdict: bool
    optional_k_mixed_residual: float = None  # identity (15), behind a flag


def theorem6_identities(model: ModelPoint, R, samples: int = 100, seed: int = 0,
                        tol=Tolerance(), include_k_mixed: bool = False) -> Theorem6Report:
    """Residuals of the holomorphic-curvature identities satisfied by
    Bochner-flat tensors.  Residuals are relative-scaled by max(1, |R|_max)."""
    tol = as_tolerance(tol)
    J = model.require_cplx()
    R = check_quad(model, R)
    m = model.dim
    if m % 2 or m < 6:
        raise DimensionMismatch("needs even dimension >= 6")
    if model.index < 1 or m - model.index < 1:
        raise UnsupportedSignature("the mixed-pair identity needs a (+,-) orthonormal pair")
    scale = residual_scale(R)
    check_count(samples)
    n = m // 2
    rho = ricci(model, R)
    rs = ricci_star(model, R)
    tau = scalar_curv(model, R)
    ts = scalar_star(model, R)

    # per sample: a spacelike unit x, then a (+,-) orthonormal pair (y, b)
    xs, ys, bs = [], [], []
    for i in range(samples):
        rng = _sample_rng(seed, i)
        (x,) = _random_frame(model, (1,), rng)
        y, b = _random_frame(model, (1, -1), rng)
        xs.append(x)
        ys.append(y)
        bs.append(b)
    E, X, Y, B = np.eye(m), np.array(xs), np.array(ys), np.array(bs)
    JE, JX, JY, JB = (A @ J.T for A in (E, X, Y, B))

    # every 4-vector evaluation in one kernel call, split by block below:
    # K(e_i) over the basis, K(x), R(y,Jy,Jy,b) and, for (15), R(y,b,b,y)
    blocks = [(E, JE, JE, E), (X, JX, JX, X), (Y, JY, JY, B)]
    if include_k_mixed:
        blocks.append((Y, B, B, Y))
    vals = quad_eval_batch(R, *(np.concatenate(col) for col in zip(*blocks)))
    kbasis, kx, lhs19, ryb = np.split(vals, np.cumsum([m, samples, samples]))

    def form(P, S, Q):
        return np.einsum("ki,ij,kj->k", P, S, Q)

    res12 = abs(float(np.sum(kbasis)) - (tau + 3.0 * ts) / (2.0 * (n + 1))) / scale

    rhs13 = ((form(X, rho, X) + form(JX, rho, JX) + 6.0 * form(X, rs, X)) / (2.0 * (n + 2))
             - (tau + 3.0 * ts) / (4.0 * (n + 1) * (n + 2)))
    res13 = float(np.max(np.abs(kx - rhs13))) / scale

    rhs19 = (-3.0 / (4.0 * (n - 1) * (n + 2)) * form(Y, rho, B)
             + (2.0 * n + 1) / (4.0 * (n - 1) * (n + 2)) * form(JY, rho, JB)
             - 3.0 / (4.0 * (n + 1) * (n + 2)) * form(B, rs, Y)
             + 3.0 * (2.0 * n + 3) / (4.0 * (n + 1) * (n + 2)) * form(Y, rs, B))
    res19 = float(np.max(np.abs(lhs19 - rhs19))) / scale

    res15 = None
    if include_k_mixed:
        # identity (15) as printed; possibly carries a typesetting slip,
        # reported but never part of the verdict
        kxb = -ryb  # denominator g(y,y)g(b,b) = -1
        yy, bb = form(Y, rho, Y), form(B, rho, B)
        rhs15 = ((2.0 * n * n - 5) / (4.0 * (n - 1) * (n * n - 4)) * (yy - bb)
                 + 3.0 / (4.0 * (n - 1) * (n * n - 4)) * (form(JY, rho, JY) - form(JB, rho, JB))
                 - 3.0 / (2.0 * (n * n - 4)) * (yy - bb)
                 - (2.0 * n * n + 3 * n + 4) / (8.0 * (n * n - 1) * (n * n - 4)) * tau
                 + 9.0 * n / (8.0 * (n * n - 1) * (n * n - 4)) * ts)
        res15 = float(np.max(np.abs(kxb - rhs15))) / scale

    verdict = bool(max(res12, res13, res19) <= tol.rel)
    return Theorem6Report(res12, res13, res19, samples, verdict, res15)

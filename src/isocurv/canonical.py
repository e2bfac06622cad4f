"""Derived curvature tensors and model-space builders.

Conventions (m = real dimension, n = m/2 where J is involved):

* pi1(x,y,z,u) = g(y,z)g(x,u) - g(x,z)g(y,u)
* pi2(x,y,z,u) = g(y,Jz)g(x,Ju) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)
* phi(S) is the Kulkarni-Nomizu-type product of g with a symmetric S,
  psi(S) its J-twisted analogue (curvature-like iff S(x,Jy)+S(y,Jx)=0)
* the conformal tensor C and the Bochner tensor B(R) are affine
  combinations of R with phi/psi applied to Ricci-type contractions.

Closed linear form.  phi(S) and psi(S) are linear in S, pi1 = phi(g)/2 and
pi2 = psi(g)/2.  So every derived tensor here folds into

    R - phi(S_phi) - psi(S_psi)

for two (m, m) forms built from the Ricci-type contractions of R and from
g: one phi and one psi product per tensor, and no pi1/pi2 tensor is built.
Each product is one outer product and its pair transpose,
V(x,y,z,u) = g(x,y)S(z,u) + S(x,y)g(z,u), read back in two index orders:
phi(S) = V(y,z,x,u) - V(x,z,y,u); psi(S) does the same with om = gJ and SJ
and subtracts 2V.  The Bochner tensor needs only rho and rho* of the
conjugate tensor, and since every model's J is g-orthogonal those are
J^T rho J and J^T rho* J: two contractions of R, and no conjugate is
formed.  Callers that need several criteria of one tensor
(``diagnostics.flatness_norms``, the theorems of one ``fuzz`` trial)
compute each derived tensor once and share its norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HybridConditionViolated, IsocurvError, NonFiniteTensor
from .model import ModelPoint, Tolerance, as_tolerance
from .planes import PLUS_MINUS_PAIR, check_count
from .tensors import (
    check_quad,
    is_symmetric,
    max_norm,
    quad_eval_batch,
    residual_scale,
    ricci,
    ricci_star,
    trace_g,
)


def pi1(model: ModelPoint) -> np.ndarray:
    g = model.metric
    return _phi_raw(g, g) / 2.0


def pi2(model: ModelPoint) -> np.ndarray:
    J = model.require_cplx()
    om = model.metric @ J  # om[x,y] = g(x, Jy)
    return _psi_raw(om, om) / 2.0


def _pair_sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V(x,y,z,u) = a(x,y)b(z,u) + b(x,y)a(z,u)."""
    m = len(a)
    P = np.multiply.outer(a, b).reshape(m * m, m * m)
    return (P + P.T).reshape((m,) * 4)


def _phi_raw(g: np.ndarray, S: np.ndarray) -> np.ndarray:
    V = _pair_sym_outer(g, S)
    return V.transpose(2, 0, 1, 3) - V.transpose(0, 2, 1, 3)


def phi(model: ModelPoint, S, tol=Tolerance()) -> np.ndarray:
    """phi(S)(x,y,z,u) = g(y,z)S(x,u) - g(x,z)S(y,u) + g(x,u)S(y,z) - g(y,u)S(x,z)."""
    S = np.asarray(S, dtype=float)
    if S.shape != (model.dim,) * 2:
        raise DimensionMismatch("S must be a square table of the model dimension")
    if not is_symmetric(S, tol):
        raise IsocurvError("phi requires a symmetric bilinear form")
    return _phi_raw(model.metric, S)


def hybrid_residual(model: ModelPoint, S) -> float:
    """Max violation of S(x,Jy) + S(y,Jx) = 0 over the basis."""
    sig = np.asarray(S, dtype=float) @ model.require_cplx()
    return max_norm(sig + sig.T)


def _psi_raw(om: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """psi with om = gJ and sig = SJ; see the module docstring."""
    V = _pair_sym_outer(om, sig)
    out = V.transpose(2, 0, 1, 3) - V.transpose(0, 2, 1, 3)
    out -= 2.0 * V
    return out


def psi(model: ModelPoint, S, enforce_hybrid: bool = True, tol=Tolerance()) -> np.ndarray:
    """J-twisted analogue of phi:

    psi(S)(x,y,z,u) = g(y,Jz)S(x,Ju) - g(x,Jz)S(y,Ju) - 2 g(x,Jy)S(z,Ju)
                      + g(x,Ju)S(y,Jz) - g(y,Ju)S(x,Jz) - 2 g(z,Ju)S(x,Jy).

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
    """Weyl-type conformal tensor C = R - phi(rho)/(m-2) + tau pi1 /((m-1)(m-2)),

    evaluated as R - phi(rho/(m-2) - tau g/(2(m-1)(m-2))).
    """
    m = model.dim
    if m <= 3:
        raise DimensionMismatch("the conformal tensor needs dimension > 3")
    R = check_quad(model, R)
    g = model.metric
    rho = ricci(model, R)
    tau = trace_g(model, rho)
    return R - _phi_raw(g, rho / (m - 2) - tau * g / (2.0 * (m - 1) * (m - 2)))


def bochner(model: ModelPoint, R) -> np.ndarray:
    """Bochner curvature tensor of an almost-Hermitian model, m = 2n >= 6.

    B = R - (phi + psi)(s1)/(16(n+2)) - (3 phi - psi)(s2)/(16(n-2))
          - psi(s3)/(4(n+1)) + phi(s4)/(4(n-1))
          + c1 (pi1 + pi2) + c2 (3 pi1 - pi2),

    with s1 = rho + 3 rho*, s2 = rho - rho* of R + conj, s3 = rho*(R - conj),
    s4 = rho(R - conj), c1 = (tau + 3 tau*)/(16(n+1)(n+2)) and
    c2 = (tau - tau*)/(16(n-1)(n-2)) of R itself.  rho(conj) = J^T rho J
    and rho*(conj) = J^T rho* J, because J^T g J = g, so R is contracted
    twice.  Evaluated in closed linear form as R - phi(S_phi) - psi(S_psi).
    psi-arguments violating the hybrid condition do not abort.
    """
    m = model.dim
    if m % 2 or m < 6:
        raise DimensionMismatch("the Bochner tensor needs even dimension >= 6")
    J = model.require_cplx()
    R = check_quad(model, R)
    n = m // 2
    g = model.metric

    rho, rs = ricci(model, R), ricci_star(model, R)
    rho_bar, rs_bar = J.T @ rho @ J, J.T @ rs @ J
    tau, tau_star = trace_g(model, rho), trace_g(model, rs)
    rho_plus, rs_plus = rho + rho_bar, rs + rs_bar
    s1 = rho_plus + 3.0 * rs_plus
    s2 = rho_plus - rs_plus
    s3 = rs - rs_bar
    s4 = rho - rho_bar
    c1 = (tau + 3.0 * tau_star) / (16.0 * (n + 1) * (n + 2))
    c2 = (tau - tau_star) / (16.0 * (n - 1) * (n - 2))

    s_phi = (s1 / (16.0 * (n + 2)) + 3.0 * s2 / (16.0 * (n - 2)) - s4 / (4.0 * (n - 1))
             - 0.5 * (c1 + 3.0 * c2) * g)
    s_psi = (s1 / (16.0 * (n + 2)) - s2 / (16.0 * (n - 2)) + s3 / (4.0 * (n + 1))
             - 0.5 * (c1 - c2) * g)
    B = R - _phi_raw(g, s_phi)
    B -= _psi_raw(g @ J, s_psi @ J)
    return B


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _check_finite(**params) -> None:
    """NonFiniteTensor naming the first parameter with a NaN or infinite value."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise NonFiniteTensor(f"{name} has a NaN or infinite value")


def build_constant_curvature(model: ModelPoint, c: float) -> np.ndarray:
    """Constant sectional curvature model: c * pi1."""
    _check_finite(c=c)
    return c * pi1(model)


def build_conformally_flat(model: ModelPoint, S) -> np.ndarray:
    """Inverts the conformal formula: the unique conformally flat tensor with
    Ricci contraction S.  R = phi(S)/(m-2) - tr(S) pi1 / ((m-1)(m-2))."""
    m = model.dim
    if m <= 3:
        raise DimensionMismatch("needs dimension > 3")
    S = np.asarray(S, dtype=float)
    _check_finite(S=S)
    if not is_symmetric(S):
        raise IsocurvError("S must be symmetric")
    return _phi_raw(model.metric, S) / (m - 2) - trace_g(model, S) * pi1(model) / ((m - 1) * (m - 2))


def build_space_form(model: ModelPoint, nu: float, mu: float) -> np.ndarray:
    """Constant holomorphic curvature mu, antiholomorphic curvature nu:
    R = nu pi1 + (mu - nu)/3 pi2.  nu = mu/4 gives the Kaehler space form."""
    _check_finite(nu=nu, mu=mu)
    return nu * pi1(model) + ((mu - nu) / 3.0) * pi2(model)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def antiholomorphic_form_residual(model: ModelPoint, R, nu: float) -> float:
    """Max-norm residual of the constant-antiholomorphic-curvature form:

    R - psi(rho*)/(2(n+1)) + tau* pi2/((2n+1)(2n+2)) - nu (pi1 - pi2/(2n+1)),

    evaluated as R - psi(S_psi) - phi(nu g/2).
    """
    J = model.require_cplx()
    R = check_quad(model, R)
    n = model.dim // 2
    g = model.metric
    rs = ricci_star(model, R)
    ts = trace_g(model, rs)
    s_psi = (rs / (2.0 * (n + 1))
             - (ts / ((2 * n + 1) * (2 * n + 2)) + nu / (2 * n + 1)) * g / 2.0)
    res = R - _psi_raw(g @ J, s_psi @ J)
    res -= _phi_raw(g, (nu / 2.0) * g)
    return max_norm(res)


@dataclass(frozen=True)
class Theorem6Report:
    basis_sum_residual: float      # identity (12), exact basis sum
    holomorphic_k_residual: float  # identity (13), spacelike unit vectors
    mixed_pair_residual: float     # identity (19), (+,-) orthonormal pairs
    samples_used: int
    verdict: bool


def theorem6_identities(model: ModelPoint, R, samples: int = 100, seed: int = 0,
                        tol=Tolerance()) -> Theorem6Report:
    """Residuals of the holomorphic-curvature identities satisfied by
    Bochner-flat tensors.  Residuals are relative-scaled by max(1, |R|_max)."""
    tol = as_tolerance(tol)
    J = model.require_cplx()
    R = check_quad(model, R)
    m = model.dim
    if m % 2 or m < 6:
        raise DimensionMismatch("needs even dimension >= 6")
    scale = residual_scale(R)
    check_count(samples)
    # per sample a (+,-) orthonormal pair (y, b); its spacelike unit y is
    # also the x of identity (13)
    Y, B = PLUS_MINUS_PAIR.draw(model, seed, samples, "the mixed-pair identity").transpose(1, 0, 2)
    n = m // 2
    rho = ricci(model, R)
    rs = ricci_star(model, R)
    tau = trace_g(model, rho)
    ts = trace_g(model, rs)

    E = np.eye(m)
    JE, JY, JB = (A @ J.T for A in (E, Y, B))
    X, JX = Y, JY

    # every 4-vector evaluation in one kernel call, split by block below:
    # K(e_i) over the basis, K(x) and R(y,Jy,Jy,b)
    blocks = [(E, JE, JE, E), (X, JX, JX, X), (Y, JY, JY, B)]
    vals = quad_eval_batch(R, *(np.concatenate(col) for col in zip(*blocks)))
    kbasis, kx, lhs19 = np.split(vals, np.cumsum([m, samples]))

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

    verdict = bool(max(res12, res13, res19) <= tol.rel)
    return Theorem6Report(res12, res13, res19, samples, verdict)

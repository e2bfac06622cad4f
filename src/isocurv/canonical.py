"""Derived curvature tensors and model-space builders.

Conventions (m = real dimension, n = m/2 where J is involved):

* pi1(x,y,z,u) = g(y,z)g(x,u) - g(x,z)g(y,u)
* pi2(x,y,z,u) = g(y,Jz)g(x,Ju) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)
* phi(S) is the Kulkarni-Nomizu-type product of g with a symmetric S,
  psi(S) its J-twisted analogue (curvature-like iff S(x,Jy)+S(y,Jx)=0)
* the conformal tensor C and the Bochner tensor B(R) are affine
  combinations of R with phi/psi applied to Ricci-type contractions.

Closed linear form.  phi(S) and psi(S) are linear in S, pi1 = phi(g)/2 and
pi2 = psi(g)/2.  So every derived tensor here, and the constant-curvature
residual R - kappa pi1 = R - phi(kappa g/2), is

    linear_residual(model, R, s_phi, s_psi) = R - phi(s_phi) - psi(s_psi)

for two (m, m) forms.  ``conformal_forms``, ``bochner_forms`` and
``antiholomorphic_forms`` build them from Ricci-type contractions of R,
which a caller that needs several criteria of one tensor
(``diagnostics.flatness_norms``, the theorems of one ``fuzz`` trial)
contracts once and passes to each.  The Bochner forms need rho and rho*
of the conjugate tensor, and since every model's J is g-orthogonal those
are J^T rho J and J^T rho* J: no conjugate is formed.

phi(A) + psi(B) is built in one place, ``_phi_psi``.  With om = gJ and
sig = BJ, W = g (x) A + A (x) g + om (x) sig + sig (x) om is one rank-4
matrix product over the stacked flattened forms, and

    phi(A) + psi(B) = W(y,z,x,u) - W(x,z,y,u) - 2 V_B(x,y,z,u),

with V_B = om (x) sig + sig (x) om a rank-2 product: two products, one
strided pass and two in-place updates, and no pi1/pi2 tensor is built.
The builders (pi1, pi2, phi, psi, the model tensors) use the same kernel.
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


def _phi_psi(g: np.ndarray, s_phi, om=None, sig=None) -> np.ndarray:
    """phi(s_phi) + psi(S) with om = gJ and sig = SJ; a None s_phi or sig
    drops that term.  See the module docstring."""
    m = len(g)
    forms = ([g, s_phi] if s_phi is not None else []) + ([om, sig] if sig is not None else [])
    P = np.stack(forms).reshape(len(forms), m * m)
    Q = P.reshape(-1, 2, m * m)[:, ::-1].reshape(len(forms), m * m)  # each pair swapped
    # the result first: W, freed on return, then sits above it on the heap,
    # where the next large allocation can reuse it
    K = np.empty((m,) * 4)
    W = P.T @ Q  # W(x,y,z,u) = sum a(x,y) b(z,u) + b(x,y) a(z,u) over the pairs (a, b)
    W4 = W.reshape((m,) * 4)
    np.subtract(W4.transpose(2, 0, 1, 3), W4.transpose(0, 2, 1, 3), out=K)
    if sig is not None:
        K -= np.matmul((2.0 * P[-2:]).T, Q[-2:], out=W).reshape((m,) * 4)
    return K


def linear_residual(model: ModelPoint, R, s_phi, s_psi=None) -> np.ndarray:
    """R - phi(s_phi) - psi(s_psi) for two (m, m) forms, neither checked for
    symmetry or the hybrid condition; no psi term when s_psi is None."""
    R = check_quad(model, R)
    g = model.metric
    if s_psi is None:
        K = _phi_psi(g, s_phi)
    else:
        J = model.require_cplx()
        K = _phi_psi(g, s_phi, g @ J, s_psi @ J)
    return np.subtract(R, K, out=K)


def pi1(model: ModelPoint) -> np.ndarray:
    g = model.metric
    return _phi_psi(g, g / 2.0)


def pi2(model: ModelPoint) -> np.ndarray:
    J = model.require_cplx()
    om = model.metric @ J  # om[x,y] = g(x, Jy)
    return _phi_psi(model.metric, None, om, om / 2.0)


def phi(model: ModelPoint, S, tol=Tolerance()) -> np.ndarray:
    """phi(S)(x,y,z,u) = g(y,z)S(x,u) - g(x,z)S(y,u) + g(x,u)S(y,z) - g(y,u)S(x,z)."""
    S = np.asarray(S, dtype=float)
    if S.shape != (model.dim,) * 2:
        raise DimensionMismatch("S must be a square table of the model dimension")
    if not is_symmetric(S, tol):
        raise IsocurvError("phi requires a symmetric bilinear form")
    return _phi_psi(model.metric, S)


def hybrid_residual(model: ModelPoint, S) -> float:
    """Max violation of S(x,Jy) + S(y,Jx) = 0 over the basis."""
    sig = np.asarray(S, dtype=float) @ model.require_cplx()
    return max_norm(sig + sig.T)


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
    return _phi_psi(model.metric, None, model.metric @ J, S @ J)


def conformal_forms(model: ModelPoint, rho) -> tuple:
    """(s_phi, None) of the conformal tensor from the Ricci contraction rho:
    s_phi = rho/(m-2) - tau g/(2(m-1)(m-2))."""
    m = model.dim
    if m <= 3:
        raise DimensionMismatch("the conformal tensor needs dimension > 3")
    tau = trace_g(model, rho)
    return rho / (m - 2) - tau * model.metric / (2.0 * (m - 1) * (m - 2)), None


def conformal(model: ModelPoint, R) -> np.ndarray:
    """Weyl-type conformal tensor C = R - phi(rho)/(m-2) + tau pi1 /((m-1)(m-2)),

    evaluated as R - phi(rho/(m-2) - tau g/(2(m-1)(m-2))).
    """
    R = check_quad(model, R)
    return linear_residual(model, R, *conformal_forms(model, ricci(model, R)))


def _bochner_n(model: ModelPoint) -> int:
    if model.dim % 2 or model.dim < 6:
        raise DimensionMismatch("the Bochner tensor needs even dimension >= 6")
    model.require_cplx()
    return model.dim // 2


def bochner_forms(model: ModelPoint, rho, rho_star) -> tuple:
    """(s_phi, s_psi) of the Bochner tensor from rho and rho* of R (see
    ``bochner``); rho and rho* of the conjugate are J^T rho J and J^T rho* J."""
    n = _bochner_n(model)
    J, g = model.cplx, model.metric
    rho_bar, rs_bar = J.T @ rho @ J, J.T @ rho_star @ J
    tau, tau_star = trace_g(model, rho), trace_g(model, rho_star)
    rho_plus, rs_plus = rho + rho_bar, rho_star + rs_bar
    s1 = rho_plus + 3.0 * rs_plus
    s2 = rho_plus - rs_plus
    s3 = rho_star - rs_bar
    s4 = rho - rho_bar
    c1 = (tau + 3.0 * tau_star) / (16.0 * (n + 1) * (n + 2))
    c2 = (tau - tau_star) / (16.0 * (n - 1) * (n - 2))

    s_phi = (s1 / (16.0 * (n + 2)) + 3.0 * s2 / (16.0 * (n - 2)) - s4 / (4.0 * (n - 1))
             - 0.5 * (c1 + 3.0 * c2) * g)
    s_psi = (s1 / (16.0 * (n + 2)) - s2 / (16.0 * (n - 2)) + s3 / (4.0 * (n + 1))
             - 0.5 * (c1 - c2) * g)
    return s_phi, s_psi


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
    _bochner_n(model)
    R = check_quad(model, R)
    return linear_residual(model, R, *bochner_forms(model, ricci(model, R), ricci_star(model, R)))


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
    g = model.metric
    return _phi_psi(g, S / (m - 2) - trace_g(model, S) * g / (2.0 * (m - 1) * (m - 2)))


def build_space_form(model: ModelPoint, nu: float, mu: float) -> np.ndarray:
    """Constant holomorphic curvature mu, antiholomorphic curvature nu:
    R = nu pi1 + (mu - nu)/3 pi2.  nu = mu/4 gives the Kaehler space form."""
    _check_finite(nu=nu, mu=mu)
    g, om = model.metric, model.metric @ model.require_cplx()
    return _phi_psi(g, (nu / 2.0) * g, om, ((mu - nu) / 6.0) * om)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def antiholomorphic_forms(model: ModelPoint, rho_star, nu: float) -> tuple:
    """(s_phi, s_psi) of the constant-antiholomorphic-curvature form from the
    J-twisted Ricci contraction rho* (see ``antiholomorphic_form_residual``):
    s_phi = nu g/2 and s_psi = rho*/(2(n+1)) - (tau*/((2n+1)(2n+2)) + nu/(2n+1)) g/2."""
    model.require_cplx()
    n = model.dim // 2
    g = model.metric
    ts = trace_g(model, rho_star)
    s_psi = (rho_star / (2.0 * (n + 1))
             - (ts / ((2 * n + 1) * (2 * n + 2)) + nu / (2 * n + 1)) * g / 2.0)
    return (nu / 2.0) * g, s_psi


def antiholomorphic_form_residual(model: ModelPoint, R, nu: float) -> float:
    """Max-norm residual of the constant-antiholomorphic-curvature form:

    R - psi(rho*)/(2(n+1)) + tau* pi2/((2n+1)(2n+2)) - nu (pi1 - pi2/(2n+1)),

    evaluated as R - phi(nu g/2) - psi(S_psi).
    """
    R = check_quad(model, R)
    forms = antiholomorphic_forms(model, ricci_star(model, R), nu)
    return max_norm(linear_residual(model, R, *forms))


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

"""Contraction-level operations on dense rank-4 covariant tensors.

Tensors are plain ``(m, m, m, m)`` float arrays indexed (i, j, k, l),
fully covariant, against the model's default basis.  Bilinear forms are
``(m, m)`` arrays.

Every evaluation T(x, y, z, u) is a bivector product in two steps:
``pair_rows`` forms the rows of x (x) y and z (x) u, and ``bivector_eval``
contracts them with T viewed as an (m^2, m^2) matrix.  ``quad_eval_batch``
does both; the sampled checks in ``diagnostics`` keep the pair rows of a
request's planes and run only the second step per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteTensor
from .model import ModelPoint, Tolerance, as_tolerance


def check_quad(model: ModelPoint, T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.shape != (model.dim,) * 4:
        raise DimensionMismatch(f"expected a rank-4 tensor of dimension {model.dim}")
    return T


def max_norm(T) -> float:
    """max |T_i|, taken as the larger of max T and -min T, so no |T| array is
    formed.  A NaN component gives NaN and an infinite one inf; abs turns
    the -0.0 of an all-zero T into 0.0."""
    T = np.asarray(T)
    return abs(float(max(T.max(), -T.min()))) if T.size else 0.0


def residual_scale(T) -> float:
    """max(1, |T|_max), the scale that residuals of T are measured against.

    Raises NonFiniteTensor when T has a NaN or infinite component: every
    residual of such a tensor is NaN or inf, and a verdict built on them
    would be meaningless.
    """
    top = max_norm(T)
    if not np.isfinite(top):
        raise NonFiniteTensor("tensor has NaN or infinite components")
    return max(1.0, top)


def pair_rows(X, Y) -> np.ndarray:
    """The (k, m^2) rows of x_k (x) y_k for the rows of two (k, m) arrays.

    Each entry is the single product x_k[i] y_k[j] that the broadcast
    ``X[:, :, None] * Y[:, None, :]`` forms, except that a zero product is
    always +0.0; one einsum is faster than the broadcast on the strided
    basis rows ``planes[:, i]`` of a ``sample_planes`` array.  Products
    commute exactly, so the rows of (Y, X) are the (m, m) transposes of
    these, bit for bit.
    """
    X, Y = (np.asarray(A, dtype=float) for A in (X, Y))
    k, m = X.shape
    return np.einsum("ki,kj->kij", X, Y).reshape(k, m * m)


def bivector_eval(T, XY, ZU) -> np.ndarray:
    """Row k of XY times T viewed as an (m^2, m^2) matrix, dotted with row k
    of ZU: T(x_k, y_k, z_k, u_k) when XY and ZU are the ``pair_rows`` of
    (X, Y) and (Z, U)."""
    T = np.asarray(T, dtype=float)
    n = XY.shape[1]
    return np.einsum("kp,kp->k", XY @ T.reshape(n, n), ZU)


def quad_eval_batch(T, X, Y, Z, U) -> np.ndarray:
    """T(x_k, y_k, z_k, u_k) for the rows of four (k, m) arrays.

    Evaluated as a bivector product: the ``pair_rows`` of X (x) Y times T
    viewed as an (m^2, m^2) matrix, dotted row by row with those of Z (x) U.
    A caller that evaluates many tensors on the same rows builds the pair
    rows once and calls ``bivector_eval`` itself.
    """
    return bivector_eval(T, pair_rows(X, Y), pair_rows(Z, U))


def quad_eval(T, x, y, z, u) -> float:
    """T(x, y, z, u) for component vectors."""
    rows = (np.asarray(v, dtype=float)[None, :] for v in (x, y, z, u))
    return float(quad_eval_batch(T, *rows)[0])


def is_symmetric(S, tol=Tolerance()) -> bool:
    S = np.asarray(S, dtype=float)
    return max_norm(S - S.T) <= as_tolerance(tol).threshold(S)


@dataclass(frozen=True)
class CurvatureLikeReport:
    skew_first: float
    skew_last: float
    bianchi: float
    pair_symmetry: float
    verdict: bool


def validate_curvature_like(model: ModelPoint, T, tol=Tolerance()) -> CurvatureLikeReport:
    """Max violations of the curvature-tensor symmetries.

    Checks skewness in the first and last index pairs, the first Bianchi
    cyclic identity, and the derived pair-exchange symmetry
    T(x,y,z,u) = T(z,u,x,y).
    """
    T = check_quad(model, T)
    tol = as_tolerance(tol)
    a = max_norm(T + T.transpose(1, 0, 2, 3))
    b = max_norm(T + T.transpose(0, 1, 3, 2))
    c = max_norm(T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3))
    pair = max_norm(T - T.transpose(2, 3, 0, 1))
    cut = tol.threshold(T)
    return CurvatureLikeReport(a, b, c, pair, max(a, b, c, pair) <= cut)


def ricci(model: ModelPoint, T) -> np.ndarray:
    """Ricci contraction rho(y,z) = sum_i eps_i T(e_i, y, z, e_i)."""
    T = check_quad(model, T)
    return _contract(T, model.metric_inv)


def scalar_curv(model: ModelPoint, T) -> float:
    """Scalar curvature: metric trace of the Ricci contraction."""
    return trace_g(model, ricci(model, T))


def ricci_star(model: ModelPoint, T) -> np.ndarray:
    """J-twisted Ricci contraction rho*(y,z) = sum_i eps_i T(e_i, y, Jz, Je_i).

    Not symmetric in general.
    """
    T = check_quad(model, T)
    J = model.require_cplx()
    return _contract(T, model.metric_inv @ J.T) @ J


def scalar_star(model: ModelPoint, T) -> float:
    """Metric trace of the J-twisted Ricci contraction."""
    return trace_g(model, ricci_star(model, T))


def conjugate(model: ModelPoint, T) -> np.ndarray:
    """Pullback through J in all four slots: T(Jx, Jy, Jz, Ju).

    O(m^5), and formed by no derived tensor: it is the oracle for the
    identities rho(conj) = J^T rho J and rho*(conj) = J^T rho* J that
    ``canonical.bochner`` uses instead."""
    T = check_quad(model, T)
    J = model.require_cplx()
    return np.einsum("abcd,ax,by,cz,du->xyzu", T, J, J, J, J, optimize=True)


def _contract(T: np.ndarray, K: np.ndarray) -> np.ndarray:
    """c(T, K)(q, r) = sum_{p,s} K[p,s] T[p,q,r,s]."""
    return np.einsum("ps,pqrs->qr", K, T)


def trace_g(model: ModelPoint, S) -> float:
    """Metric trace of a bilinear form."""
    S = np.asarray(S, dtype=float)
    if S.shape != (model.dim,) * 2:
        raise DimensionMismatch(f"expected a bilinear form of dimension {model.dim}")
    return float(np.einsum("ij,ij->", model.metric_inv, S))

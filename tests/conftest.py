"""Shared fixtures and independent brute-force oracles.

The oracle functions here deliberately use explicit basis loops instead of
einsum so they stay independent of the library's contraction paths.
"""

import base64
import json
import struct

import numpy as np
import pytest

from isocurv import ModelPoint, hermitian_model
from isocurv.planes import adapted_basis


def oracle_ricci(model, T):
    """sum_i eps_i T(e_i, y, z, e_i) by explicit loops (diagonal metrics only)."""
    m = model.dim
    eps = np.diag(model.metric)
    out = np.zeros((m, m))
    for y in range(m):
        for z in range(m):
            out[y, z] = sum(eps[i] * T[i, y, z, i] for i in range(m))
    return out


def oracle_scalar(model, rho):
    eps = np.diag(model.metric)
    return sum(eps[j] * rho[j, j] for j in range(model.dim))


def oracle_ricci_star(model, T):
    """sum_i eps_i T(e_i, y, Jz, Je_i) by explicit loops."""
    m = model.dim
    eps = np.diag(model.metric)
    J = model.cplx
    out = np.zeros((m, m))
    for y in range(m):
        for z in range(m):
            acc = 0.0
            for i in range(m):
                jz = J[:, z]
                jei = J[:, i]
                acc += eps[i] * np.einsum("ab,a,b->", T[i, y], jz, jei)
            out[y, z] = acc
    return out


def oracle_quad_eval(T, x, y, z, u):
    """T(x, y, z, u) = sum over i, j, k, l of T[i,j,k,l] x_i y_j z_k u_l."""
    m = len(x)
    acc = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    acc += T[i, j, k, l] * x[i] * y[j] * z[k] * u[l]
    return acc


def oracle_pull_slots(T, A, slots=(0, 1, 2, 3)):
    """T with the vectors in the given slots replaced by A applied to them:
    out[..., x, ...] = sum_a T[..., a, ...] A[a, x], one slot at a time."""
    m = T.shape[0]
    out = np.array(T, dtype=float)
    for slot in slots:
        new = np.zeros_like(out)
        for idx in np.ndindex(*out.shape):
            acc = 0.0
            for a in range(m):
                acc += out[idx[:slot] + (a,) + idx[slot + 1:]] * A[a, idx[slot]]
            new[idx] = acc
        out = new
    return out


def oracle_ricci_general(ginv, T):
    """sum_{i,l} ginv[i,l] T(e_i, y, z, e_l) for any metric, by explicit loops."""
    m = T.shape[0]
    out = np.zeros((m, m))
    for y in range(m):
        for z in range(m):
            out[y, z] = sum(ginv[i, l] * T[i, y, z, l] for i in range(m) for l in range(m))
    return out


def oracle_ricci_star_general(ginv, J, T):
    """sum_{i,l} ginv[i,l] T(e_i, y, Je_z, Je_l): J pulled into slots 3 and 4."""
    return oracle_ricci_general(ginv, oracle_pull_slots(T, J, (2, 3)))


def _oracle_twisted(g, J, S):
    """The form (a, b) -> S(a, J b) by explicit loops."""
    m = len(g)
    return np.array([[sum(S[a, c] * J[c, b] for c in range(m)) for b in range(m)]
                     for a in range(m)])


def oracle_phi(g, S):
    """phi(S)(x,y,z,u) = g(y,z)S(x,u) - g(x,z)S(y,u) + g(x,u)S(y,z) - g(y,u)S(x,z)."""
    m = len(g)
    out = np.zeros((m,) * 4)
    for x, y, z, u in np.ndindex(*out.shape):
        out[x, y, z, u] = (g[y, z] * S[x, u] - g[x, z] * S[y, u]
                           + g[x, u] * S[y, z] - g[y, u] * S[x, z])
    return out


def oracle_psi(g, J, S):
    """psi(S)(x,y,z,u) = w(y,z)s(x,u) - w(x,z)s(y,u) - 2 w(x,y)s(z,u)
    + w(x,u)s(y,z) - w(y,u)s(x,z) - 2 w(z,u)s(x,y), w = g(., J.), s = S(., J.)."""
    w, s = _oracle_twisted(g, J, g), _oracle_twisted(g, J, S)
    m = len(g)
    out = np.zeros((m,) * 4)
    for x, y, z, u in np.ndindex(*out.shape):
        out[x, y, z, u] = (w[y, z] * s[x, u] - w[x, z] * s[y, u] - 2.0 * w[x, y] * s[z, u]
                           + w[x, u] * s[y, z] - w[y, u] * s[x, z] - 2.0 * w[z, u] * s[x, y])
    return out


def oracle_pi1(g):
    """pi1(x,y,z,u) = g(y,z)g(x,u) - g(x,z)g(y,u)."""
    m = len(g)
    out = np.zeros((m,) * 4)
    for x, y, z, u in np.ndindex(*out.shape):
        out[x, y, z, u] = g[y, z] * g[x, u] - g[x, z] * g[y, u]
    return out


def oracle_pi2(g, J):
    """pi2(x,y,z,u) = g(y,Jz)g(x,Ju) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)."""
    w = _oracle_twisted(g, J, g)
    m = len(g)
    out = np.zeros((m,) * 4)
    for x, y, z, u in np.ndindex(*out.shape):
        out[x, y, z, u] = w[y, z] * w[x, u] - w[x, z] * w[y, u] - 2.0 * w[x, y] * w[z, u]
    return out


def oracle_conformal(g, R):
    """C = R - phi(rho)/(m-2) + tau pi1/((m-1)(m-2))."""
    m = len(g)
    ginv = np.linalg.inv(g)
    rho = oracle_ricci_general(ginv, R)
    tau = sum(ginv[i, j] * rho[i, j] for i in range(m) for j in range(m))
    return R - oracle_phi(g, rho) / (m - 2) + tau * oracle_pi1(g) / ((m - 1) * (m - 2))


def oracle_bochner(g, J, R):
    """The Bochner tensor term by term, as in the canonical.bochner docstring:
    R - (phi + psi)(s1)/(16(n+2)) - (3 phi - psi)(s2)/(16(n-2))
      - psi(s3)/(4(n+1)) + phi(s4)/(4(n-1)) + c1 (pi1 + pi2) + c2 (3 pi1 - pi2)."""
    m = len(g)
    n = m // 2
    ginv = np.linalg.inv(g)
    conj = oracle_pull_slots(R, J)
    plus, minus = R + conj, R - conj

    def rho(T):
        return oracle_ricci_general(ginv, T)

    def rho_star(T):
        return oracle_ricci_star_general(ginv, J, T)

    def trace(S):
        return sum(ginv[i, j] * S[i, j] for i in range(m) for j in range(m))

    rho_plus, rho_star_plus = rho(plus), rho_star(plus)
    s1 = rho_plus + 3.0 * rho_star_plus
    s2 = rho_plus - rho_star_plus
    s3 = rho_star(minus)
    s4 = rho(minus)
    tau, tau_star = trace(rho(R)), trace(rho_star(R))
    p1, p2 = oracle_pi1(g), oracle_pi2(g, J)
    return (R
            - (oracle_phi(g, s1) + oracle_psi(g, J, s1)) / (16.0 * (n + 2))
            - (3.0 * oracle_phi(g, s2) - oracle_psi(g, J, s2)) / (16.0 * (n - 2))
            - oracle_psi(g, J, s3) / (4.0 * (n + 1)) + oracle_phi(g, s4) / (4.0 * (n - 1))
            + (tau + 3.0 * tau_star) * (p1 + p2) / (16.0 * (n + 1) * (n + 2))
            + (tau - tau_star) * (3.0 * p1 - p2) / (16.0 * (n - 1) * (n - 2)))


def oracle_cayley_rows(model, rows, seed, i, antiholomorphic=False):
    """Sample i of a draw with seed `seed` over the fixed `rows` (coordinates
    over ``adapted_basis``; (n, m), or (k, n, m) options to pick from), built
    alone: a generator advanced past the m^2 (+1 with options) doubles of each
    earlier sample, A = uniform(-1, 1, (m, m)), the pick floor(k u) of one
    more double, S = A - A^T (S - JSJ when antiholomorphic, J pairing
    coordinates (2k, 2k + 1)), K = 0.95 diag(signs) S / |(S^T S)^4|_inf^(1/8),
    and the Cayley transform inv(I - K) (I + K) written with explicit
    inverses, mapped through the adapted basis."""
    basis = adapted_basis(model)
    m = model.dim
    pick = np.ndim(rows) == 3
    rng = np.random.default_rng(seed % 2**63)
    rng.bit_generator.advance(i * (m * m + pick))
    A = rng.uniform(-1.0, 1.0, (m, m))
    S = A - A.T
    if antiholomorphic:
        J = np.kron(np.eye(m // 2), [[0.0, -1.0], [1.0, 0.0]])
        S = S - J @ S @ J
    bound = np.linalg.norm(np.linalg.matrix_power(S.T @ S, 4), np.inf) ** 0.125
    K = 0.95 * np.diag(basis.signs) @ S / bound
    Q = np.linalg.inv(np.eye(m) - K) @ (np.eye(m) + K)
    F = rows[int(rng.random() * len(rows))] if pick else rows
    return F @ Q.T @ basis.vectors


def pulled_back_hermitian(m, index, seed=0):
    """hermitian_model(m, index) pulled back by a random invertible A:
    metric A^T g A and J = A^-1 J0 A, so neither is diagonal or standard."""
    rng = np.random.default_rng(seed)
    A = np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, (m, m))
    base = hermitian_model(m, index)
    return ModelPoint(m, index, metric=A.T @ base.metric @ A,
                      cplx=np.linalg.solve(A, base.cplx @ A))


def non_diagonal_model(m, index, seed=0):
    """Signature (index, m - index) with a metric A^T diag(-1.., +1..) A."""
    rng = np.random.default_rng(seed)
    A = np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, (m, m))
    eps = np.r_[-np.ones(index), np.ones(m - index)]
    return ModelPoint(m, index, metric=A.T @ np.diag(eps) @ A)


def tensor_payload(flat, dim):
    """The payload object of a tensor with components `flat` (row-major) at
    dimension `dim`, packed double by double with ``struct``."""
    text = base64.b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")
    return {"dtype": "<f8", "shape": [dim] * 4, "base64": text}


def document_object(doc):
    """The JSON object of `doc` in the list layout of older documents, with
    each tensor a flat list of its components."""
    model = doc.model
    obj = {"dim": model.dim, "index": model.index, "metric": model.metric.tolist(),
           "tensors": {name: np.asarray(T).reshape(-1).tolist() for name, T in doc.tensors.items()},
           "meta": doc.meta}
    if model.has_cplx:
        obj["J"] = model.cplx.tolist()
    return obj


def load_model_document(path, dim, index, metric=None, J=None):
    """``load_document`` of a document with one zero tensor and the given
    metric and J, written as plain JSON, so that a model that ModelPoint
    refuses still reaches the loader."""
    from isocurv import load_document

    obj = {"dim": dim, "index": index, "tensors": {"R": [0.0] * dim ** 4}}
    for key, value in (("metric", metric), ("J", J)):
        if value is not None:
            obj[key] = np.asarray(value, dtype=float).tolist()
    path.write_text(json.dumps(obj))
    return load_document(path)


def pullback_rel(g):
    """The relative tolerance for a quantity computed on a model pulled
    back to metric g.  Rounding in the pulled-back metric and J grows with
    the square of g's condition number |g|_F |g^-1|_F (ModelPoint's measure,
    at least m).  Over 4800 draws of the naturality tests' A every derived
    tensor stayed within 5e-17 cond^2 (the worst at seed 1356), and over 5400
    draws the space-form fits within 1.6e-17 cond^2.  At the median cond, 18,
    this tolerance is 3e-13."""
    return 1e-15 * (np.linalg.norm(g) * np.linalg.norm(np.linalg.inv(g))) ** 2


def write_indented_document(doc, path):
    """Write `doc` in the indented layout of older tensor documents,
    ``json.dump(obj, fh, indent=2, sort_keys=True)``.  Unlike
    ``save_document`` it writes NaN and infinite components as bare ``NaN``
    / ``Infinity`` tokens, which is how such malformed files reach
    ``load_document``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document_object(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def random_symmetric(rng, m):
    S = rng.uniform(-1.0, 1.0, (m, m))
    return (S + S.T) / 2.0


@pytest.fixture
def m22():
    return ModelPoint(4, 2)


@pytest.fixture
def m23():
    return ModelPoint(5, 2)


@pytest.fixture
def h44():
    return hermitian_model(8, 4)


@pytest.fixture
def h24():
    return hermitian_model(6, 2)

"""Shared fixtures and independent brute-force oracles.

The oracle functions here deliberately use explicit basis loops instead of
einsum so they stay independent of the library's contraction paths.
"""

import numpy as np
import pytest

from isocurv import ModelPoint, hermitian_model


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


def non_diagonal_model(m, index, seed=0):
    """Signature (index, m - index) with a metric A^T diag(-1.., +1..) A."""
    rng = np.random.default_rng(seed)
    A = np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, (m, m))
    eps = np.r_[-np.ones(index), np.ones(m - index)]
    return ModelPoint(m, index, metric=A.T @ np.diag(eps) @ A)


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

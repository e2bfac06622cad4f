"""Tangent-space model: indefinite inner product and optional almost complex structure.

Everything in this package is pointwise linear algebra on a single model
point: a real dimension ``m``, an index ``s`` (number of negative
directions), a symmetric nondegenerate metric (default
``diag(-1 x s, +1 x (m-s))``), and optionally an operator ``J``.  All
component tables are stored against the model's default basis, negatives
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidModel, InvalidTolerance, MissingComplexStructure


def signature_metric(dim: int, index: int) -> np.ndarray:
    """Diagonal metric with `index` leading -1 entries and +1 elsewhere."""
    d = np.ones(dim)
    d[:index] = -1.0
    return np.diag(d)


def standard_complex_structure(dim: int, index: int) -> np.ndarray:
    """Block J pairing coordinates (2k, 2k+1) inside each sign block.

    J e_{2k} = e_{2k+1}, J e_{2k+1} = -e_{2k}.  Pairs never straddle the
    negative/positive boundary, which guarantees g-compatibility, so both
    `dim` and `index` must be even.
    """
    if dim % 2 or index % 2:
        raise InvalidModel("standard J needs even dimension and even index")
    J = np.zeros((dim, dim))
    for i in range(0, dim, 2):  # index is even, so no pair straddles it
        J[i + 1, i] = 1.0
        J[i, i + 1] = -1.0
    return J


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance with a scale floor of 1.

    A residual r measured against a tensor T passes when
    r <= rel * max(1, max|T_component|).
    """

    rel: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rel < np.inf:
            raise InvalidTolerance(f"tolerance must be a positive finite number, got {self.rel}")

    def threshold(self, *arrays) -> float:
        scale = 1.0
        for a in arrays:
            a = np.asarray(a)
            if a.size:
                scale = max(scale, float(np.max(np.abs(a))))
        return self.rel * scale


def as_tolerance(tol) -> Tolerance:
    return tol if isinstance(tol, Tolerance) else Tolerance(float(tol))


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A tangent-space model: dimension, index, metric, optional J.

    Two models are equal, and hash alike, when their dimension, index and
    the bytes of their metric and J are.  Every model is valid: the
    constructor checks the metric (finite, symmetric, nondegenerate, with
    ``index`` negative eigenvalues) and J (finite, of the right shape, and
    passing :func:`validate_complex_structure`), and raises InvalidModel
    otherwise, so no other code checks them again.
    """

    dim: int
    index: int
    metric: np.ndarray = None
    cplx: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModel("dimension must be positive")
        if not 0 <= self.index <= self.dim:
            raise InvalidModel("index must lie in [0, dim]")
        g = self.metric
        if g is None:
            g = signature_metric(self.dim, self.index)
        g = np.array(g, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise InvalidModel("metric shape does not match dimension")
        if not np.all(np.isfinite(g)):
            raise InvalidModel("metric must be finite")
        if not np.allclose(g, g.T, rtol=1e-12, atol=1e-12):
            raise InvalidModel("metric must be symmetric")
        # |g|_F |g^-1|_F = sqrt(sum lam^2 sum lam^-2), between sigma_max/sigma_min
        # and m times it, on lam / max|lam| so that no square overflows
        lam = np.linalg.eigvalsh(g)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = lam / np.max(np.abs(lam))
            if not np.sqrt(np.sum(r * r) * np.sum(r ** -2.0)) < 1e12:
                raise InvalidModel("metric must be nondegenerate")
        negative = int(np.count_nonzero(lam < 0))
        if negative != self.index:
            raise InvalidModel(f"the metric has index {negative}, not {self.index}")
        g.setflags(write=False)
        object.__setattr__(self, "metric", g)
        if self.cplx is not None:
            if self.dim % 2:
                raise InvalidModel("complex structure needs even dimension")
            J = np.array(self.cplx, dtype=float)
            if J.shape != (self.dim, self.dim):
                raise InvalidModel("J shape does not match dimension")
            if not np.all(np.isfinite(J)):
                raise InvalidModel("J must be finite")
            J.setflags(write=False)
            object.__setattr__(self, "cplx", J)
            report = validate_complex_structure(self)
            if not report.verdict:
                raise InvalidModel(f"J fails its axioms: |J^2 + id| = {report.square_residual:.3g},"
                                   f" |J^T g J - g| = {report.compat_residual:.3g}")

    @cached_property
    def _key(self) -> tuple:
        return (self.dim, self.index, self.metric.tobytes(),
                None if self.cplx is None else self.cplx.tobytes())

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, ModelPoint) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    @cached_property
    def metric_inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.metric)
        inv.setflags(write=False)
        return inv

    @property
    def has_cplx(self) -> bool:
        return self.cplx is not None

    def require_cplx(self) -> np.ndarray:
        if self.cplx is None:
            raise MissingComplexStructure("model has no almost complex structure")
        return self.cplx

    def check_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}, got shape {x.shape}")
        return x


def hermitian_model(dim: int, index: int) -> ModelPoint:
    """Model with the default diagonal metric and the standard J."""
    return ModelPoint(dim, index, cplx=standard_complex_structure(dim, index))


def inner(model: ModelPoint, x, y) -> float:
    """Indefinite inner product x^T g y."""
    x = model.check_vec(x)
    y = model.check_vec(y)
    return float(x @ model.metric @ y)


@dataclass(frozen=True)
class ComplexStructureReport:
    square_residual: float
    compat_residual: float
    verdict: bool


def validate_complex_structure(model: ModelPoint, tol=Tolerance()) -> ComplexStructureReport:
    """Check J^2 = -id and g(JX, JY) = g(X, Y) componentwise."""
    tol = as_tolerance(tol)
    J = model.require_cplx()
    g = model.metric
    sq = float(np.max(np.abs(J @ J + np.eye(model.dim))))
    compat = float(np.max(np.abs(J.T @ g @ J - g)))
    cut = tol.threshold(J, g)
    return ComplexStructureReport(sq, compat, sq <= cut and compat <= cut)

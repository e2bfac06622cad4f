"""Frames and 2-planes: indefinite Gram-Schmidt, classification, sampling.

Plane kinds are named by the rank of the restricted metric (nondegenerate /
weakly isotropic / strongly isotropic) and, when a complex structure is
present, by their relation to J (holomorphic: J-invariant; antiholomorphic:
orthogonal to its J-image).

Sampling is deterministic and needs no search.  Each kind has fixed basis
rows, built once per model from ``adapted_basis``, that satisfy its defining
predicate; sample ``i`` of a draw with seed ``k`` is those rows moved by a
random g-isometry (a Cayley transform, commuting with J when the kind needs
J), drawn from a fixed count of doubles of one generator
``numpy.random.default_rng(k mod 2**63)``.  So sample ``i`` depends only on
``(k, i)``, and a short draw is a prefix of a long one.  ``SIGNATURES`` says
where each kind exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegeneratePlane,
    DegenerateSubspace,
    DependentInput,
    InvalidSampleCount,
    NonFiniteTensor,
    UnsupportedSignature,
)
from .model import (
    ModelPoint,
    Tolerance,
    as_tolerance,
    inner,
    standard_complex_structure,
)
from .tensors import check_quad, quad_eval

_SEED_MASK = (1 << 63) - 1


class PlaneKind(Enum):
    WEAKLY_ISOTROPIC = "weakly-isotropic"
    STRONGLY_ISOTROPIC = "strongly-isotropic"
    WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC = "weakly-isotropic-antiholomorphic"
    STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC = "strongly-isotropic-antiholomorphic"
    ISOTROPIC_HOLOMORPHIC = "isotropic-holomorphic"
    NONDEGENERATE_ANTIHOLOMORPHIC = "nondegenerate-antiholomorphic"
    QUADRUPLE_PPMM = "quadruple-ppmm"
    ANTIHOLOMORPHIC_QUADRUPLE_PPMM = "antiholomorphic-quadruple-ppmm"


class PlaneClass(Enum):
    NONDEGENERATE = "nondegenerate"
    WEAKLY_ISOTROPIC = "weakly isotropic"
    STRONGLY_ISOTROPIC = "strongly isotropic"


class Holomorphy(Enum):
    HOLOMORPHIC = "holomorphic"
    ANTIHOLOMORPHIC = "antiholomorphic"
    GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class Plane:
    """A 2-plane given by an (unnormalized) basis pair of finite vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not all(map(math.isfinite, self.x.tolist() + self.y.tolist())):
            raise NonFiniteTensor("a plane basis vector has a NaN or infinite component")

    def gram(self, model: ModelPoint) -> np.ndarray:
        gxx = inner(model, self.x, self.x)
        gxy = inner(model, self.x, self.y)
        gyy = inner(model, self.y, self.y)
        return np.array([[gxx, gxy], [gxy, gyy]])


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered orthonormal vector list with +/-1 sign labels."""

    vectors: np.ndarray  # shape (k, m), rows are the frame vectors
    signs: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))

    def __len__(self):
        return len(self.signs)


def _check_independent(vectors: np.ndarray, count: int):
    if np.linalg.matrix_rank(vectors, tol=1e-12 * max(1.0, float(np.max(np.abs(vectors))))) < count:
        raise DependentInput("input vectors are linearly dependent")


def gram_schmidt_indefinite(model, vectors, tol=Tolerance()) -> Frame:
    """Orthonormalize `vectors` with respect to the indefinite metric.

    Pivots on the candidate with the largest |g(w,w)| (ties broken by
    lowest index).  Raises DegenerateSubspace when all remaining
    self-products fall below tolerance, DependentInput for dependent
    inputs.
    """
    tol = as_tolerance(tol)
    work = [model.check_vec(v).copy() for v in vectors]
    if not work:
        raise DependentInput("need at least one vector")
    _check_independent(np.stack(work), len(work))
    scale = max(1.0, max(abs(inner(model, v, v)) for v in work))
    cut = tol.rel * scale

    chosen, signs = [], []
    while work:
        norms = [inner(model, w, w) for w in work]
        k = int(np.argmax([abs(q) for q in norms]))
        if abs(norms[k]) <= cut:
            raise DegenerateSubspace("the metric restricted to the span has a radical")
        w = work.pop(k)
        q = norms[k]
        u = w / np.sqrt(abs(q))
        sgn = 1 if q > 0 else -1
        chosen.append(u)
        signs.append(sgn)
        work = [v - sgn * inner(model, v, u) * u for v in work]
    return Frame(np.stack(chosen), tuple(signs))


def _unit_pair(p: Plane) -> tuple:
    """The plane's basis vectors, each divided by its Euclidean norm, so that
    the tests below answer for the span and not for the size of its basis.
    A dependent pair raises DependentInput first."""
    _check_independent(np.stack([p.x, p.y]), 2)
    return p.x / np.linalg.norm(p.x), p.y / np.linalg.norm(p.y)


def classify_plane(model: ModelPoint, p: Plane, tol=Tolerance()) -> PlaneClass:
    """Rank of the restricted metric: 2, 1 or 0."""
    tol = as_tolerance(tol)
    gram = Plane(*_unit_pair(p)).gram(model)
    sv = np.linalg.svd(gram, compute_uv=False)
    cut = tol.rel * (1.0 + float(np.max(np.abs(gram))))
    rank = int(np.sum(sv > cut))
    return (PlaneClass.STRONGLY_ISOTROPIC, PlaneClass.WEAKLY_ISOTROPIC,
            PlaneClass.NONDEGENERATE)[rank]


def classify_holomorphy(model: ModelPoint, p: Plane, tol=Tolerance()) -> Holomorphy:
    """Holomorphic if J maps the plane to itself, antiholomorphic if J maps
    it into its g-orthogonal complement (and not onto itself)."""
    tol = as_tolerance(tol)
    x, y = _unit_pair(p)
    J = model.require_cplx()
    basis = np.stack([x, y], axis=1)  # m x 2
    # span membership is metric-independent, plain least squares suffices
    holo = True
    for w in (J @ x, J @ y):
        coeff, *_ = np.linalg.lstsq(basis, w, rcond=None)
        if np.max(np.abs(basis @ coeff - w)) > tol.rel * (1.0 + float(np.max(np.abs(w)))):
            holo = False
            break
    if holo:
        return Holomorphy.HOLOMORPHIC
    cut = tol.threshold(np.stack([x, y]))
    prods = [inner(model, u, J @ v) for u in (x, y) for v in (x, y)]
    if max(abs(q) for q in prods) <= cut:
        return Holomorphy.ANTIHOLOMORPHIC
    return Holomorphy.GENERIC


def sectional_curvature(model: ModelPoint, R, p: Plane, tol=Tolerance()) -> float:
    """K = R(x,y,y,x) / (g(x,x)g(y,y) - g(x,y)^2) on a nondegenerate plane,
    evaluated on the basis vectors divided by their Euclidean norms (K is
    the same for every basis of the plane)."""
    R = check_quad(model, R)
    tol = as_tolerance(tol)
    x, y = _unit_pair(p)
    gram = Plane(x, y).gram(model)
    disc = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
    if abs(disc) <= tol.rel * (1.0 + float(np.max(np.abs(gram))) ** 2):
        raise DegeneratePlane("plane is metrically degenerate")
    return quad_eval(R, x, y, y, x) / disc


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def adapted_basis(model: ModelPoint) -> Frame:
    """Rows B with B g B^T = diag(signs): the eigenvectors of g, each divided
    by the root of |its eigenvalue|, or with J the (e, Je) pairs of one pivot
    loop over them, so that rows 2k and 2k + 1 are (e, Je).  The default
    models give the identity.  The model is valid by construction, so there
    are ``model.index`` negative signs and J pairs e with Je.  Cached by
    model; the rows are read-only."""
    lam, V = np.linalg.eigh(model.metric)
    work, signs = V.T / np.sqrt(np.abs(lam))[:, None], np.where(lam < 0, -1, 1)
    if model.has_cplx:
        work, rows, signs = list(work), [], []
        while len(rows) < model.dim:  # e: the rest's largest |g(w,w)|, off earlier pairs
            norms = [inner(model, w, w) for w in work]
            k = int(np.argmax(np.abs(norms)))
            if abs(norms[k]) <= 1e-9:
                raise DegenerateSubspace("no (e, Je) pair left with a nonnull e")
            sgn = 1 if norms[k] > 0 else -1
            e = work.pop(k) / np.sqrt(abs(norms[k]))
            for u in (e, model.cplx @ e):
                rows.append(u)
                signs.append(sgn)
                work = [w - sgn * inner(model, w, u) * u for w in work]
        work = np.stack(rows)
    frame = Frame(work, signs)
    frame.vectors.setflags(write=False)
    return frame


@dataclass(frozen=True)
class Signature:
    """Where a sampled construction exists: whether it needs J, and its frame
    sign options in order of preference.  ``draw`` takes the first option
    that fits (see ``least``), or with ``pick_at_random`` picks one per
    sample.  For a plane kind, ``rows`` lists the frame rows summed into each
    basis vector of the sample (four: the sample is a frame)."""

    needs_j: bool
    options: tuple  # frame sign tuples
    rows: tuple = None  # per basis vector, the frame rows it sums
    pick_at_random: bool = False

    @cached_property
    def least(self) -> tuple:
        """The least (s, m-s) of each option: its counts of -1 and +1 signs,
        doubled for a frame that needs J (each vector brings its J-image)."""
        k = 2 if self.needs_j else 1
        return tuple((k * signs.count(-1), k * signs.count(1)) for signs in self.options)

    def fitting(self, model: ModelPoint) -> list:
        """The sign options realizable on `model`, in table order."""
        if self.needs_j and not model.has_cplx:
            return []
        s, pos = model.index, model.dim - model.index
        return [signs for signs, (a, b) in zip(self.options, self.least) if s >= a and pos >= b]

    def require(self, model: ModelPoint, what: str) -> list:
        """`fitting(model)`, or UnsupportedSignature naming `what` when empty."""
        options = self.fitting(model)
        if not options:
            need = (" without J" if self.needs_j and not model.has_cplx else
                    "; needs (s, m-s) >= " + " or ".join(f"({a},{b})" for a, b in self.least))
            raise UnsupportedSignature(
                f"{what} impossible for signature ({model.index},{model.dim - model.index}){need}")
        return options

    def basis_rows(self, model: ModelPoint, signs: tuple) -> np.ndarray:
        """The fixed (n, m) rows of option `signs`, as coordinates over
        ``adapted_basis``: frame vector j is the next unused basis row of its
        sign (the e of the next unused (e, Je) pair when the row needs J),
        summed by ``rows``.  A row that does not need J first turns the basis
        inside each sign block by one fixed rotation that does not commute
        with J, so its frame is not made of (e, Je) pairs."""
        eta, step = np.array(adapted_basis(model).signs), 2 if self.needs_j else 1
        basis = np.eye(model.dim)
        if not self.needs_j:
            # S[i, j] = (i + j + 1) sign(j - i) within a sign block: Q = cayley(S)
            # is orthogonal, and turns the two blocks by different angles
            k = np.arange(model.dim)
            S = np.where(eta[:, None] == eta, np.sign(k - k[:, None]) * (k + k[:, None] + 1), 0.0)
            basis = _cayley(eta[:, None], S[None], basis)[0].T
        frame = basis[[np.flatnonzero(eta == s)[step * signs[:j].count(s)]
                       for j, s in enumerate(signs)]]
        return frame if self.rows is None else np.stack([frame[list(r)].sum(axis=0)
                                                         for r in self.rows])

    def draw(self, model: ModelPoint, seed: int, count: int, what: str) -> np.ndarray:
        """``random_frames`` of `count` samples on the stream with seed `seed`,
        J-commuting when the row needs J, over the basis rows of the first
        fitting option, or with ``pick_at_random`` of every fitting option;
        UnsupportedSignature naming `what` when none fits."""
        options = self.require(model, what)
        rows = (np.stack([self.basis_rows(model, signs) for signs in options])
                if self.pick_at_random else self.basis_rows(model, options[0]))
        return random_frames(model, rows, np.random.default_rng(seed & _SEED_MASK), count,
                             antiholomorphic=self.needs_j)


# One row per plane kind.  x + a is isotropic for a (+,-) pair (x, a), so a
# weakly isotropic plane (x + a, y) sums rows 0 and 2 of an (x, y, a) frame.
SIGNATURES = {
    PlaneKind.WEAKLY_ISOTROPIC: Signature(False, ((1, 1, -1), (-1, -1, 1)), ((0, 2), (1,))),
    PlaneKind.STRONGLY_ISOTROPIC: Signature(False, ((1, 1, -1, -1),), ((0, 2), (1, 3))),
    PlaneKind.WEAKLY_ISOTROPIC_ANTIHOLOMORPHIC:
        Signature(True, ((1, 1, -1), (-1, -1, 1)), ((1, 2), (0,))),
    PlaneKind.STRONGLY_ISOTROPIC_ANTIHOLOMORPHIC:
        Signature(True, ((1, 1, -1, -1),), ((0, 2), (1, 3))),
    # (xi, J xi) for xi = x + a; sample_planes adds the J-image
    PlaneKind.ISOTROPIC_HOLOMORPHIC: Signature(True, ((1, -1),), ((0, 1),)),
    PlaneKind.NONDEGENERATE_ANTIHOLOMORPHIC:
        Signature(True, ((1, 1), (1, -1), (-1, -1)), ((0,), (1,)), pick_at_random=True),
    PlaneKind.QUADRUPLE_PPMM: Signature(False, ((1, 1, -1, -1),), ((0,), (1,), (2,), (3,))),
    PlaneKind.ANTIHOLOMORPHIC_QUADRUPLE_PPMM:
        Signature(True, ((1, 1, -1, -1),), ((0,), (1,), (2,), (3,))),
}
# a (+,-) orthonormal pair (x, a); x + a is isotropic
PLUS_MINUS_PAIR = Signature(False, ((1, -1),))


def sample_rng(seed: int, i: int) -> np.random.Generator:
    """``numpy.random.default_rng([seed mod 2**63, i])``: the generator of
    trial `i`'s tensor in ``diagnostics.random_curvature_like``."""
    return np.random.default_rng([seed & _SEED_MASK, i])


def _j_images(J: np.ndarray, U: np.ndarray) -> np.ndarray:
    """J u for each row u of U, with the bits of ``J @ u``."""
    return (J @ U[..., None])[..., 0]


_CHUNK = 1 << 16  # doubles of K a draw holds at once, whatever its count
_REACH = 0.95  # a bound on |K|_2: (1 + 0.95) / (1 - 0.95) = 39


def _cayley(eta: np.ndarray, S: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Q F, Q = (I - K)^-1 (I + K), for each antisymmetric S of the (k, m, m)
    stack and K = _REACH diag(eta) S / b, b = |(S^T S)^4|_inf^(1/8) >= |S|_2
    (0.92-0.96 of it at m = 4..20): a diag(eta)-isometry with |K|_2 <=
    _REACH, so |Q|_2, |Q^-1|_2 and cond(I - K) are at most 39."""
    M = -S @ S  # S^T S, so |S|_2^8 = |M^4|_2 <= |M^4|_inf
    M = M @ M
    b = np.abs(M @ M).sum(axis=2).max(axis=1) ** 0.125
    K = eta * S * np.divide(_REACH, b, out=np.zeros_like(b), where=b > 0)[:, None, None]
    return np.linalg.solve(np.eye(len(eta)) - K, F + K @ F)


def random_frames(model, rows, rng, count, antiholomorphic=False) -> np.ndarray:
    """(count, n, m) array: sample i is Q_i applied to the (n, m) `rows`, or,
    for (k, n, m) `rows`, to the rows of option floor(k u_i); `rows` are
    coordinates over ``adapted_basis`` B, and the samples are mapped back
    through B.  In those coordinates g is diag(signs) and J pairs coordinates
    (2k, 2k + 1).  Q_i is the Cayley transform ``_cayley`` of diag(signs) S,
    S = A - A^T for A = ``uniform(-1, 1, (m, m))``: a g-isometry.  With
    ``antiholomorphic`` S is replaced by S - JSJ, so Q_i commutes with J and
    keeps frames made of (e, Je) pairs' e antiholomorphic.

    Sample i reads m^2 doubles of `rng` for S, then u_i when `rows` has
    options: a fixed count, so it depends only on the generator's state
    plus i times that count (``PCG64.advance`` reaches it), a longer draw
    extends a shorter one, and `rng` is left after the last sample's
    doubles.  Samples are drawn in chunks of at most ``_CHUNK`` doubles of
    S, each one batched ``np.linalg.solve``."""
    basis = adapted_basis(model)
    m, pick = model.dim, rows.ndim == 3
    per = m * m + pick
    eta = np.array(basis.signs, dtype=float)[:, None]
    out = np.empty((count,) + rows.shape[-2:])
    step = max(1, _CHUNK // per)
    for start in range(0, count, step):
        u = rng.random((min(step, count - start), per))
        A = (2.0 * u[:, :m * m] - 1.0).reshape(-1, m, m)  # the bits of uniform(-1, 1)
        S = A - A.transpose(0, 2, 1)
        if antiholomorphic:
            J = standard_complex_structure(m, 0)
            S = S - J @ S @ J
        F = (rows[(u[:, -1] * len(rows)).astype(int)] if pick else rows).swapaxes(-1, -2)
        out[start:start + len(u)] = _cayley(eta, S, F).swapaxes(1, 2) @ basis.vectors
    return out


def check_count(count: int) -> None:
    """Reject a sample count below one."""
    if count < 1:
        raise InvalidSampleCount(f"need at least one sample, got {count}")


@lru_cache(maxsize=32)
def sample_planes(model: ModelPoint, kind: PlaneKind, count: int, seed: int = 0) -> np.ndarray:
    """Read-only (count, n, m) array of `count` seeded samples of the given
    kind: row i holds the basis rows (x, y) of a plane, or for a quadruple
    kind the n = 4 rows of a frame with sign labels
    ``SIGNATURES[kind].options[0]``.  Row i is the Cayley isometry Q_i of
    ``random_frames`` applied to the kind's fixed basis rows
    (``Signature.basis_rows``), Q_i drawn from the m^2 (+1 for the
    nondegenerate antiholomorphic kind's option) doubles of PCG64 seeded
    with `seed` mod 2**63 that follow those of rows 0 .. i - 1; so row i
    depends on (seed, i) alone, whatever `count` is.

    The 32 most recent arrays are cached by their arguments (models compare
    by value); a repeated call returns the same array.
    """
    check_count(count)
    vectors = SIGNATURES[kind].draw(model, seed, count, f"kind {kind.value}")
    if kind is PlaneKind.ISOTROPIC_HOLOMORPHIC:
        vectors = np.stack([vectors[:, 0], _j_images(model.cplx, vectors[:, 0])], axis=1)
    vectors.setflags(write=False)
    return vectors


@lru_cache(maxsize=32)
def isotropic_vectors(model: ModelPoint, count: int, seed: int = 0) -> np.ndarray:
    """Read-only (count, m) array of seeded isotropic vectors x + a, each from a
    (+,-) orthonormal pair; drawn and cached like ``sample_planes``."""
    check_count(count)
    vectors = PLUS_MINUS_PAIR.draw(model, seed, count, "isotropic vectors").sum(axis=1)
    vectors.setflags(write=False)
    return vectors

"""Frames and 2-planes: indefinite Gram-Schmidt, classification, sampling.

Plane kinds are named by the rank of the restricted metric (nondegenerate /
weakly isotropic / strongly isotropic) and, when a complex structure is
present, by their relation to J (holomorphic: J-invariant; antiholomorphic:
orthogonal to its J-image).

Sampling is deterministic: sample ``i`` of a call with seed ``k`` draws from
``sample_rng(k, i)``, that is ``numpy.random.default_rng([k, i])`` (PCG64
seeded through numpy's SeedSequence mixing), so disjoint consumers can split
work by sample index.  A draw builds its generators with ``sample_rngs``, in
one pass with the same states; their ``seed_seq`` is a holder of the seed
words, not a SeedSequence, and nothing here reads it.  ``SIGNATURES`` says
where each kind exists.
Every sampled object satisfies its kind's defining predicate by
construction, not by rejection near the light cone.
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
from .model import ModelPoint, Tolerance, as_tolerance, inner, inner_rows
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


def classify_plane(model: ModelPoint, p: Plane, tol=Tolerance()) -> PlaneClass:
    """Rank of the restricted metric: 2, 1 or 0."""
    tol = as_tolerance(tol)
    _check_independent(np.stack([p.x, p.y]), 2)
    gram = p.gram(model)
    sv = np.linalg.svd(gram, compute_uv=False)
    cut = tol.rel * (1.0 + float(np.max(np.abs(gram))))
    rank = int(np.sum(sv > cut))
    return (PlaneClass.STRONGLY_ISOTROPIC, PlaneClass.WEAKLY_ISOTROPIC,
            PlaneClass.NONDEGENERATE)[rank]


def classify_holomorphy(model: ModelPoint, p: Plane, tol=Tolerance()) -> Holomorphy:
    """Holomorphic if J maps the plane to itself, antiholomorphic if J maps
    it into its g-orthogonal complement (and not onto itself)."""
    tol = as_tolerance(tol)
    J = model.require_cplx()
    basis = np.stack([p.x, p.y], axis=1)  # m x 2
    jx, jy = J @ p.x, J @ p.y
    # span membership is metric-independent, plain least squares suffices
    holo = True
    for w in (jx, jy):
        coeff, *_ = np.linalg.lstsq(basis, w, rcond=None)
        if np.max(np.abs(basis @ coeff - w)) > tol.rel * (1.0 + float(np.max(np.abs(w)))):
            holo = False
            break
    if holo:
        return Holomorphy.HOLOMORPHIC
    cut = tol.threshold(np.stack([p.x, p.y]))
    prods = [inner(model, u, J @ v) for u in (p.x, p.y) for v in (p.x, p.y)]
    if max(abs(q) for q in prods) <= cut:
        return Holomorphy.ANTIHOLOMORPHIC
    return Holomorphy.GENERIC


def sectional_curvature(model: ModelPoint, R, p: Plane, tol=Tolerance()) -> float:
    """K = R(x,y,y,x) / (g(x,x)g(y,y) - g(x,y)^2) on a nondegenerate plane."""
    R = check_quad(model, R)
    tol = as_tolerance(tol)
    gram = p.gram(model)
    disc = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
    if abs(disc) <= tol.rel * (1.0 + float(np.max(np.abs(gram))) ** 2):
        raise DegeneratePlane("plane is metrically degenerate")
    return quad_eval(R, p.x, p.y, p.y, p.x) / disc


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Where a sampled construction exists: whether it needs J, and its frame
    sign options in order of preference.  ``draw`` takes the first option
    that fits (see ``least``), or with ``pick_at_random`` draws one from
    each sample's generator.  For a plane kind, ``rows`` lists the frame rows
    summed into each basis vector of the sample (four: the sample is a frame)."""

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

    def draw(self, model: ModelPoint, rngs: list, what: str) -> np.ndarray:
        """``random_frames`` over `rngs` (antiholomorphic when the row needs J)
        with the first fitting option, or with ``pick_at_random`` one drawn
        from each generator; UnsupportedSignature naming `what` when none fits."""
        options = self.require(model, what)
        signs = ([options[rng.integers(len(options))] for rng in rngs] if self.pick_at_random
                 else options[0])
        return random_frames(model, signs, rngs, antiholomorphic=self.needs_j)


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
    """The generator of sample `i` of the stream with seed `seed`: the
    definition that ``sample_rngs`` builds many of in one pass."""
    return np.random.default_rng([seed & _SEED_MASK, i])


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a SeedSequence hash constant, which starts
    at `init` and is multiplied by `mult` (mod 2**32) at each use."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence, fixed by its stream-compatibility policy (NEP 19).  Its
# entropy, padded with zero words to 4, loads a pool of 4 words through 4
# hashmix calls; then each pool word, hashed once per other word, is mixed
# into the other three (12 calls); 8 hashed pool words are the 4 uint64
# output words.  Call k of a hash XORs with constant k and multiplies by
# constant k + 1, so every constant is fixed before any data is seen.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_CALL = 3 + np.cumsum(~np.eye(4, dtype=bool)).reshape(4, 4)  # [src, dst], src != dst
_MIX_XOR, _MIX_MUL = _HASH_A[_MIX_CALL], _HASH_A[_MIX_CALL + 1]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ value >> 16


class _SeedWords:
    """The four uint64 words that ``SeedSequence(...).generate_state(4, np.uint64)``
    would give PCG64, computed by ``sample_rngs``.  It stands in for the
    SeedSequence as a generator's ``seed_seq`` (``sample_rngs`` registers it
    as numpy's ``ISeedSequence``); it cannot spawn, and nothing in isocurv
    reads it."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a sample generator's seed words are four uint64 words")
        return self.words


def sample_rngs(seed: int, start: int, stop: int) -> list:
    """``[sample_rng(seed, i) for i in range(start, stop)]``, with the same
    generator states, seeded in one pass: SeedSequence's uint32 hash runs on
    all rows at once, and each row's words go to PCG64 through numpy's
    ``ISeedSequence`` interface, so a generator's ``seed_seq`` is the words
    holder, not a SeedSequence.  Rows are below 2**32, one entropy word each."""
    # here, not at import: numpy loads np.random on first use, and only draws need it
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)  # returns at once when already registered
    seed &= _SEED_MASK
    entropy = np.zeros((4, stop - start), dtype=np.uint32)
    entropy[0], entropy[1] = seed & 0xFFFFFFFF, seed >> 32
    entropy[1 + (seed >> 32 > 0)] = np.arange(start, stop)  # a seed below 2**32 is one word
    pool = _hashmix(entropy, _HASH_A[0:4], _HASH_A[1:5])
    for src in range(4):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B[:8], _HASH_B[1:])
    rows = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in rows]


def _j_images(J: np.ndarray, U: np.ndarray) -> np.ndarray:
    """J u for each row u of U, with the bits of ``J @ u``."""
    return (J @ U[..., None])[..., 0]


_BLOCK = 32  # candidates a generator draws per call
_WINDOW = 2  # candidates a row first tests per round at a sign position
_TRIES = 10 ** 4  # candidates a frame vector may take


def _unrealized(model, signs) -> UnsupportedSignature:
    return UnsupportedSignature(
        f"could not realize a frame of signature {tuple(int(s) for s in signs)}"
        f" in ({model.index},{model.dim - model.index})")


def random_frames(model, signs, rngs, antiholomorphic=False) -> np.ndarray:
    """(k, n, m) g-orthonormal frames with the sign labels `signs` (one n-tuple,
    or one per frame), frame i drawn from ``rngs[i]`` alone.  The frames
    advance in lockstep, one sign position at a time: each frame takes the
    candidates ``rng.uniform(-1, 1, m)`` of its generator in order, projects
    each in two passes off its accepted vectors (and, if ``antiholomorphic``,
    off their J-images, so all pairs of a frame span antiholomorphic planes)
    and keeps the first whose |g(v,v)| > 0.2 has the wanted sign.  Signs
    whose counts of -1 and +1 (doubled when antiholomorphic) exceed (s, m-s)
    raise UnsupportedSignature before any draw.

    Candidates come ``_BLOCK`` at a time, one ``random`` call per generator
    whose doubles u give the bits of ``uniform(-1, 1, (_BLOCK, m))`` as
    2u - 1 (for PCG64 the doubles of as many single draws).  At each sign position a row tests its next
    ``_WINDOW`` unused candidates in one batch with the other rows, then
    twice as many each round it misses, up to ``_BLOCK``; it takes at most
    ``_TRIES`` candidates per position.  On return every generator is where
    one-at-a-time draws would leave it: back at its entry state, moved on by
    the doubles of the candidates it used.  Generators from ``sample_rngs``
    do as well as any: their ``seed_seq`` (a holder of seed words, not a
    SeedSequence) is never read."""
    k, m = len(rngs), model.dim
    want = np.broadcast_to(signs, (k, np.shape(signs)[-1]))
    frames = np.empty(want.shape + (m,))
    # need[:, i, j]: the -1 and +1 directions that frame i's first j + 1 vectors take
    need = (2 if antiholomorphic else 1) * np.cumsum([want < 0, want > 0], axis=2)
    short = (need[0] > model.index) | (need[1] > m - model.index)
    if short.any():  # the first frame that cannot fit, at the first position that fails
        raise _unrealized(model, want[short[:, short.any(axis=0).argmax()].argmax()])
    states = [rng.bit_generator.state for rng in rngs]
    block = np.empty((k, _BLOCK, m))
    pos = np.full(k, _BLOCK)  # each row's next unused candidate in its block
    used = np.zeros(k, dtype=np.int64)  # candidates taken from each generator
    slots = np.arange(_BLOCK)
    basis = []  # (vectors, signs) of the rows each candidate is projected off
    lost = np.zeros(k, dtype=bool)  # frames that ran out of tries
    for j in range(want.shape[1]):
        todo, before = np.arange(k), used.copy()  # candidates used by earlier positions
        width = _WINDOW  # every row still in todo has missed the same rounds
        while todo.size:
            empty = todo[pos[todo] == _BLOCK]
            for i in empty:
                rngs[i].random(out=block[i])
            pos[empty] = 0
            start = pos[todo]
            stop = np.minimum(_BLOCK, start + np.minimum(width, _TRIES - (used - before)[todo]))
            t, s = np.nonzero((slots >= start[:, None]) & (slots < stop[:, None]))
            rows, V = todo[t], 2.0 * block[todo[t], s] - 1.0  # the bits of uniform(-1, 1)
            off = [(U[rows], sgn[rows]) for U, sgn in basis]  # gathered once per round
            for _pass in range(2):
                for U, sgn in off:
                    V = V - (sgn * inner_rows(model, V, U))[:, None] * U
            q = inner_rows(model, V, V)
            ok = np.zeros((todo.size, _BLOCK), dtype=bool)
            ok[t, s] = (np.abs(q) > 0.2) & ((q > 0) == (want[rows, j] > 0))
            hit = ok.any(axis=1)
            end = np.where(hit, ok.argmax(axis=1) + 1, stop)
            used[todo] += end - start
            pos[todo] = end
            take = np.flatnonzero(hit[t] & (s + 1 == end[t]))  # each hit row's pick
            frames[rows[take], j] = V[take] / np.sqrt(np.abs(q[take]))[:, None]
            todo = todo[~hit]
            spent = (used - before)[todo] >= _TRIES
            lost[todo[spent]] = True
            todo = todo[~spent]
            width = min(2 * width, _BLOCK)
        if lost.any():
            break
        basis.append((frames[:, j], want[:, j]))
        if antiholomorphic:
            basis.append((_j_images(model.cplx, frames[:, j]), want[:, j]))
    for rng, state, n in zip(rngs, states, used.tolist()):
        rng.bit_generator.state = state
        rng.bit_generator.random_raw(n * m, output=False)
    if lost.any():
        raise _unrealized(model, want[lost.argmax()])
    return frames


def check_count(count: int) -> None:
    """Reject a sample count below one."""
    if count < 1:
        raise InvalidSampleCount(f"need at least one sample, got {count}")


_CHUNK = 1024  # samples seeded and drawn together: bounds a draw's generators and blocks


def _chunk_frames(row: Signature, model: ModelPoint, seed: int, count: int, what: str):
    """``row.draw`` over samples 0 .. count - 1 of the stream with seed `seed`,
    ``_CHUNK`` samples at a time; yields each chunk's frames.  Rows are
    independent, so the chunks stack to the bits of one draw."""
    for start in range(0, count, _CHUNK):
        yield row.draw(model, sample_rngs(seed, start, min(start + _CHUNK, count)), what)


@lru_cache(maxsize=32)
def sample_planes(model: ModelPoint, kind: PlaneKind, count: int, seed: int = 0) -> np.ndarray:
    """Read-only (count, n, m) array of `count` seeded samples of the given
    kind: row i holds the basis rows (x, y) of a plane, or for a quadruple
    kind the n = 4 rows of a frame with sign labels
    ``SIGNATURES[kind].options[0]``.  Row i is drawn from the generator
    ``sample_rng(seed, i)`` would give; ``sample_rngs`` builds them, and
    their ``seed_seq`` is a holder of seed words, not a SeedSequence.  The
    rows are seeded and drawn ``_CHUNK`` at a time, which bounds the live
    generators and candidate blocks whatever `count` is.

    The 32 most recent arrays are cached by their arguments (models compare
    by value); a repeated call returns the same array.
    """
    check_count(count)
    row = SIGNATURES[kind]
    vectors = np.concatenate([
        np.stack([frames[:, list(rows)].sum(axis=1) for rows in row.rows], axis=1)
        for frames in _chunk_frames(row, model, seed, count, f"kind {kind.value}")])
    if kind is PlaneKind.ISOTROPIC_HOLOMORPHIC:
        vectors = np.stack([vectors[:, 0], _j_images(model.cplx, vectors[:, 0])], axis=1)
    vectors.setflags(write=False)
    return vectors


@lru_cache(maxsize=32)
def isotropic_vectors(model: ModelPoint, count: int, seed: int = 0) -> np.ndarray:
    """Read-only (count, m) array of seeded isotropic vectors x + a, each from a
    (+,-) orthonormal pair; drawn and cached like ``sample_planes``."""
    check_count(count)
    vectors = np.concatenate([frames.sum(axis=1) for frames in _chunk_frames(
        PLUS_MINUS_PAIR, model, seed, count, "isotropic vectors")])  # x + a
    vectors.setflags(write=False)
    return vectors

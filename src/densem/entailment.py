"""Graded entailment between positive operators.

``A`` entails ``B`` with strength ``k`` in (0, 1] when ``B - kA`` is
positive semidefinite.  Such a ``k`` exists exactly when the support of
``A`` is contained in the support of ``B``, and the largest one is the
reciprocal of the top eigenvalue of ``pinv(B) @ A``.  Each operand is a
matrix, validated and factorised by one symmetric eigensolve, or its
:class:`~densem.psd.Spectrum`, which is not solved again.  ``B`` is factorised
first, into its support eigenpairs ``U, L`` (after the rank cut).  The
supports are contained when ``||A - U U^T A||`` is at most
``COMPARE_RTOL * ||A||``, a test that needs no factorisation of ``A`` (a
``B`` of full rank contains every ``A`` and skips it); so ``A``'s
eigensolve, which also runs its PSD rule, asks for eigenvectors ``V``
beside the eigenvalues ``M`` only when the supports are contained.
The top eigenvalue is then that of the ``r x r`` matrix ``X X^T`` with
``X = L^(-1/2) U^T V M^(1/2)``, which shares its nonzero spectrum with
``pinv(B) @ A``.  The same kernel takes a stacked factor of operands ``A``
against one ``B``: ``disc_grid`` evaluates its whole lattice of disc
states with one stacked eigensolve and one stacked ``r x r`` eigenvalue
solve, whatever the resolution.  Its states are symmetric and finite by
construction and are not validated again; each target inside the disc has
full rank and so contains every state.

The module also provides the additive error decomposition ``A + D = B + E``
for operators that are not comparable at any strength, the finite-set
instance of the same error calculus, normalization strategies, and the
two-dimensional Bloch-disc parameterization used to map entailment
strengths over all trace-1 states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyProposition,
    NotDensityOperator,
    NotPositiveSemidefinite,
    OutsideDiscError,
    ResolutionError,
    StrengthRangeError,
    ZeroOperatorError,
)
from .psd import (
    COMPARE_RTOL,
    DENSITY_TRACE_ATOL,
    Spectrum,
    _eigensolve,
    _leq,
    _pair,
    _psd_spectrum,
    _support,
    _sym,
    _symmetric,
)

# Cap on a disc lattice's points (resolution 1024), checked before any
# array is built.  A grid peaks at about 200 bytes per point inside the
# disc, so some 166 MB at the cap.
MAX_DISC_POINTS = 2**20
# x^2 + z^2 at most this is inside the closed unit disc; the slack keeps
# lattice points on the edge that round-off pushes just outside.
_DISC_EDGE = 1.0 + 1e-12


class Normalization(enum.Enum):
    """Scaling strategies for positive operators before comparison."""

    NONE = "none"
    TRACE_ONE = "trace"
    MAX_EIG_ONE = "maxeig"
    BAYESIAN = "bayes"

    @classmethod
    def coerce(cls, value) -> "Normalization":
        if isinstance(value, cls):
            return value
        return cls(value)


@dataclass(frozen=True)
class EntailmentResult:
    """Outcome of a maximal-strength query.

    ``k_max`` is the strength clipped into (0, 1]; ``raw_k`` is the
    unclipped reciprocal eigenvalue and ``witness_eigenvalue`` the top
    eigenvalue it came from.  All three are ``None`` when the supports are
    not contained.
    """

    supports_contained: bool
    k_max: Optional[float]
    raw_k: Optional[float]
    witness_eigenvalue: Optional[float]

    def __post_init__(self):
        if self.supports_contained != (self.k_max is not None):
            raise ValueError("k_max must be present exactly when supports are contained")
        if self.k_max is not None and self.raw_k is not None:
            if abs(self.k_max - min(1.0, self.raw_k)) > 1e-15:
                raise ValueError("k_max must equal min(1, raw_k)")


@dataclass(frozen=True)
class ErrorDecomposition:
    """Additive error terms with ``A + deficit = B + excess``.

    ``excess`` is the part of ``A`` that sticks out of ``B`` and
    ``deficit`` the part of ``B`` not covered by ``A``; both are PSD.
    """

    excess: np.ndarray
    deficit: np.ndarray


def _containment(a, b, vectors: bool):
    """Validate both operands and decide whether ``A``'s support lies in ``B``'s.

    ``A`` gets eigenvectors only when ``vectors`` is asked for and it is
    contained.  Returns ``A``'s factor, ``B``'s support ``(L, U)`` and the decision.
    """
    a, A, B = _pair(a, b, vectors=True)
    support = _support(B)
    contained = bool(_contained(A, support[1]))
    return _psd_spectrum(a, "A", vectors and contained), support, contained


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", m, m))


def _contained(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether each support of ``A``, a stack ``(..., n, n)``, lies in ``span(u)``.

    ``u`` holds ``B``'s support eigenvectors; ``A`` is contained when
    ``||A - U U^T A||`` is at most ``COMPARE_RTOL * ||A||``, with each ``A`` in
    units of the least power of two above its largest entry: an exact scaling
    that keeps the squares in the norms from overflow and underflow at any
    scale.  The zero operator stays contained.  A square ``u`` (``B`` of full
    rank) spans the space and contains every ``A``: the residual is then
    round-off, far below the bound, so it is not computed.
    """
    if u.shape[0] == u.shape[1]:
        return np.ones(A.shape[:-2], dtype=bool)
    _, exponent = np.frexp(np.abs(A).max(axis=(-2, -1), keepdims=True))
    A = np.ldexp(A, -exponent)
    residual = _frobenius(A - u @ (u.T @ A))
    return residual <= COMPARE_RTOL * _frobenius(A)


def _top_eigenvalue(a: Spectrum, support) -> np.ndarray:
    """The strength kernel: top eigenvalue of ``pinv(B) @ A``.

    Takes ``A``'s factor with eigenvectors, which may be a stack, and
    ``B``'s support eigenpairs ``(L, U)``.  Each top eigenvalue means
    something only where ``A`` is contained; it comes from one stacked
    ``r x r`` eigenvalue solve.
    """
    lam, u = support
    if not lam.size:  # B = 0 contains only A = 0
        return np.zeros(a.w.shape[:-1])
    x = (u.T @ a.v) * np.sqrt(np.clip(a.w, 0.0, None))[..., None, :] / np.sqrt(lam)[:, None]
    w, _ = _eigensolve(_sym(x @ x.swapaxes(-1, -2)), vectors=False)
    return np.maximum(w[..., -1], 0.0)  # w ascends


def supports_contained(a, b) -> bool:
    """True when the support of ``a`` lies inside the support of ``b``."""
    _, _, contained = _containment(a, b, vectors=False)
    return contained


def is_k_hyponym(a, b, k: float) -> bool:
    """True when ``b - k*a`` is positive semidefinite, for k in (0, 1]."""
    strength = float(k)
    if not 0.0 < strength <= 1.0:
        raise StrengthRangeError(f"strength {strength!r} is outside (0, 1]")
    return _leq(a, b, strength)


def k_max(a, b) -> EntailmentResult:
    """Maximal entailment strength of ``a`` into ``b``.

    Raises :class:`ZeroOperatorError` when ``a`` vanishes; returns a
    result without a strength when the supports are not contained.

    The checks and solves run in this order: ``a``'s shape, finiteness and
    symmetry; ``b``'s eigensolve and PSD rule; the shapes against each
    other; the containment residual; ``a``'s eigensolve and PSD rule, with
    eigenvectors only when contained; and, only when contained, the
    ``r x r`` strength solve, whose top eigenvalue is 0 exactly when ``a``
    is the zero operator (which is always contained).  So a pair of matrices
    that is not contained costs one ``eigh`` and one ``eigvalsh``, a
    contained pair two ``eigh`` and one ``eigvalsh``, and two factors with
    eigenvectors at most the ``r x r`` solve.
    """
    A, support, contained = _containment(a, b, vectors=True)
    if not contained:
        return EntailmentResult(False, None, None, None)
    top = float(_top_eigenvalue(A, support))
    if top <= 0.0:
        raise ZeroOperatorError("entailment strength is undefined for the zero operator")
    raw = 1.0 / top
    return EntailmentResult(True, min(1.0, raw), raw, top)


def general_error(a, b) -> ErrorDecomposition:
    """Split ``A - B`` spectrally into PSD excess and deficit terms."""
    a, A, B = _pair(a, b, vectors=False)
    _psd_spectrum(a, "A", vectors=False)
    w, v = _eigensolve(A - B.matrix)
    # Each part from its own sign's eigenpairs only: the others add zeros.
    positive, negative = w > 0.0, w < 0.0
    excess = _sym((v[:, positive] * w[positive]) @ v[:, positive].T)
    deficit = _sym((v[:, negative] * -w[negative]) @ v[:, negative].T)
    return ErrorDecomposition(excess=excess, deficit=deficit)


@dataclass(frozen=True)
class FiniteSetProposition:
    """A subset of a finite universe ``{0, ..., universe - 1}``."""

    universe: int
    members: frozenset[int]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe size must be nonnegative")
        members = frozenset(int(i) for i in self.members)
        if any(not 0 <= i < self.universe for i in members):
            raise ValueError("members must lie inside the universe")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, universe: int, members: Iterable[int]) -> "FiniteSetProposition":
        return cls(universe, frozenset(members))


def set_entailment(
    a: FiniteSetProposition, b: FiniteSetProposition
) -> tuple[bool, float]:
    """Crisp subset entailment plus the fractional error |A \\ B| / |A|."""
    if a.universe != b.universe:
        raise DimensionMismatch(
            f"universe sizes differ: {a.universe} vs {b.universe}"
        )
    if not a.members:
        raise EmptyProposition("error size is undefined for an empty antecedent")
    entails = a.members <= b.members
    error_size = len(a.members - b.members) / len(a.members)
    return entails, error_size


def normalize(matrix, strategy):
    """Rescale or transform a PSD matrix or factor; returns the kind it was given.

    ``bayes`` maps the sorted spectrum ``d_0 >= d_1 >= ...`` to ``d_0, d_0*d_1, ...``.
    """
    strategy = Normalization.coerce(strategy)
    s = _psd_spectrum(_symmetric(matrix), vectors=strategy is Normalization.BAYESIAN)
    s = _normalize(s, strategy)
    return s if isinstance(matrix, Spectrum) else s.matrix


def _normalize(s: Spectrum, strategy: Normalization) -> Spectrum:
    """Normalize a validated factor, which may be a stack, and its eigenpairs.

    ``bayes`` needs the eigenvectors, and lists its products from the top down.
    """
    if strategy is Normalization.NONE:
        return s
    if strategy is Normalization.BAYESIAN:
        products = np.cumprod(np.clip(s.w[..., ::-1], 0.0, None), axis=-1)
        v = s.v[..., ::-1]
        return Spectrum(_sym((v * products[..., None, :]) @ v.swapaxes(-1, -2)), products, v)
    if strategy is Normalization.TRACE_ONE:
        divisor = s.matrix.trace(axis1=-2, axis2=-1)
        if np.count_nonzero(divisor <= 0.0):
            raise ZeroOperatorError("cannot trace-normalize the zero operator")
    else:
        divisor = s.w.max(axis=-1)
        if np.count_nonzero(divisor <= 0.0):
            raise ZeroOperatorError("cannot eigenvalue-normalize the zero operator")
    return Spectrum(s.matrix / divisor[..., None, None], s.w / divisor[..., None], s.v)


def from_bloch(x: float, z: float) -> np.ndarray:
    """The 2x2 trace-1 PSD matrix with disc coordinates ``(x, z)``."""
    x = float(x)
    z = float(z)
    # Written so that NaN, which compares false, is refused too.
    if not x * x + z * z <= _DISC_EDGE:
        raise OutsideDiscError(f"({x}, {z}) lies outside the closed unit disc")
    return _bloch_states(x, z)


def _bloch_states(x, z) -> np.ndarray:
    """The states ``(I + x X + z Z) / 2``, exactly symmetric, stacked like ``x, z``."""
    x, z = np.asarray(x), np.asarray(z)
    states = np.empty(x.shape + (2, 2))
    states[..., 0, 0] = 0.5 * (1.0 + z)
    states[..., 1, 1] = 0.5 * (1.0 - z)
    # + 0.0 makes -0.0 into 0.0, as the sum with the identity's zero does.
    states[..., 0, 1] = states[..., 1, 0] = 0.5 * x + 0.0
    return states


def _qubit_density(matrix) -> Spectrum:
    """Validate a 2x2 trace-1 PSD matrix and factorise it with one eigensolve."""
    shape = np.shape(matrix)
    if shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got shape {shape}")
    try:
        s = _psd_spectrum(_symmetric(matrix))
    except NotPositiveSemidefinite as exc:
        raise NotDensityOperator(str(exc)) from exc
    trace = float(np.trace(s.matrix))
    if abs(trace - 1.0) > DENSITY_TRACE_ATOL:
        raise NotDensityOperator(f"trace {trace!r} is not 1")
    return s


def to_bloch(matrix) -> tuple[float, float]:
    """Disc coordinates of a 2x2 trace-1 PSD matrix; inverts from_bloch."""
    m = _qubit_density(matrix).matrix
    return float(2.0 * m[0, 1]), float(m[0, 0] - m[1, 1])


def disc_grid(target, resolution: int, strategy) -> list[tuple[float, float, float]]:
    """Entailment strength into ``target`` over a lattice of disc states.

    Rows are ``(x, z, k)`` for every lattice point of an evenly spaced
    ``resolution x resolution`` grid over [-1, 1]^2 that lies inside the
    closed unit disc, in row-major order with ``z`` descending and ``x``
    ascending.  ``k`` is 0 when the point's support is not contained in
    the target's support.

    A lattice over ``MAX_DISC_POINTS`` points raises ``ResolutionError``
    before any array is built.  The lattice is evaluated as one stack of
    2x2 states: one eigensolve for the target, one stacked eigensolve over
    all disc points and, when any support is contained, one stacked
    ``r x r`` eigenvalue solve.  The states, symmetric and finite by
    construction, get only the PSD rule.  A target inside the disc has full
    rank and contains every state; only one on the edge runs the residual.

    Under ``maxeig`` both operators have top eigenvalue 1, so ``k = 1``
    exactly for the states that share the target's top eigenvector and are
    at least as pure as the target: the segment from the target out to the
    disc edge.  A row reads 1 only where a lattice point lies on that
    segment; elsewhere, the nearest lattice point included, ``k < 1``.
    """
    if resolution < 2:
        raise ResolutionError(f"resolution must be at least 2, got {resolution}")
    if resolution * resolution > MAX_DISC_POINTS:
        raise ResolutionError(
            f"resolution {resolution} gives {resolution * resolution} lattice points, "
            f"over the cap of {MAX_DISC_POINTS}"
        )
    strategy = Normalization.coerce(strategy)
    b = _normalize(_qubit_density(target), strategy)
    axis = np.linspace(-1.0, 1.0, resolution)
    x = np.tile(axis, resolution)
    z = np.repeat(axis[::-1], resolution)
    inside = x * x + z * z <= _DISC_EDGE
    x, z = x[inside], z[inside]
    if not x.size:
        return []
    a = _normalize(_psd_spectrum(_bloch_states(x, z), name="disc state"), strategy)
    support = _support(b)
    contained = _contained(a.matrix, support[1])
    k = np.zeros(x.shape)
    if np.count_nonzero(contained):
        top = _top_eigenvalue(a, support)
        k[contained] = np.minimum(1.0, 1.0 / top[contained])
    del a
    return list(zip(x.tolist(), z.tolist(), k.tolist()))


def format_float(value: float) -> str:
    """Deterministic 9-significant-digit rendering used by all reports."""
    v = float(value)
    if v == 0.0:
        v = 0.0
    return format(v, ".9g")


def format_grid_csv(rows: Iterable[tuple[float, float, float]]) -> str:
    """Serialize disc rows as ``x,z,k`` lines under a header."""
    lines = ["x,z,k"]
    for x, z, k in rows:
        lines.append(f"{format_float(x)},{format_float(z)},{format_float(k)}")
    return "\n".join(lines) + "\n"

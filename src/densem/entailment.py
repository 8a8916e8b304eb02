"""Graded entailment between positive operators.

``A`` entails ``B`` with strength ``k`` in (0, 1] when ``B - kA`` is
positive semidefinite.  Such a ``k`` exists exactly when the support of
``A`` is contained in the support of ``B``, and the largest one is the
reciprocal of the top eigenvalue of ``pinv(B) @ A``.  Each operand is
validated and factorised by one symmetric eigensolve: ``B`` into its
support eigenpairs ``U, L`` (after the rank cut) and ``A`` into
``V, M``.  The supports are contained when ``||A - U U^T A||`` is at most
``compare_tol * ||A||``, and the top eigenvalue is then that of the
``r x r`` matrix ``X X^T`` with ``X = L^(-1/2) U^T V M^(1/2)``, which
shares its nonzero spectrum with ``pinv(B) @ A``.

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
    OutsideDiscError,
    ResolutionError,
    StrengthRangeError,
    ZeroOperatorError,
)
from .psd import (
    DEFAULT_TOL,
    Tolerances,
    _psd_eigh,
    _spectrum,
    _support,
    _sym,
    as_symmetric,
    eig,
    is_psd,
    sub,
)

ZERO_NORM_ATOL = 1e-12

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


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


def _operands(a, b, tol: Tolerances, vectors: bool = True):
    """Validate and factorise both operands: ``(A, w, v)`` for each."""
    a_eig = _psd_eigh(a, tol, name="A", vectors=vectors)
    b_eig = _psd_eigh(b, tol, name="B", vectors=vectors)
    if a_eig[0].shape != b_eig[0].shape:
        raise DimensionMismatch(f"shape {a_eig[0].shape} vs {b_eig[0].shape}")
    return a_eig, b_eig


def _top_eigenvalue(a_eig, b_eig, tol: Tolerances) -> Optional[float]:
    """The strength kernel: top eigenvalue of ``pinv(B) @ A``.

    Takes the factorisations ``(A, w, v)`` of both operands and returns
    ``None`` when the support of ``A`` is not inside that of ``B``.
    """
    A, w_a, v_a = a_eig
    _, w_b, v_b = b_eig
    lam, u = _support(w_b, v_b, tol)
    residual = float(np.linalg.norm(A - u @ (u.T @ A)))
    if residual > tol.compare_tol * float(np.linalg.norm(A)):
        return None
    x = (u.T @ v_a) * np.sqrt(np.clip(w_a, 0.0, None)) / np.sqrt(lam)[:, None]
    return float(_spectrum(_sym(x @ x.T), vectors=False)[0].max(initial=0.0))


def supports_contained(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the support of ``a`` lies inside the support of ``b``."""
    return _top_eigenvalue(*_operands(a, b, tol), tol) is not None


def is_k_hyponym(a, b, k: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``b - k*a`` is positive semidefinite, for k in (0, 1]."""
    strength = float(k)
    if not 0.0 < strength <= 1.0:
        raise StrengthRangeError(f"strength {strength!r} is outside (0, 1]")
    (A, _, _), (B, _, _) = _operands(a, b, tol, vectors=False)
    return is_psd(sub(B, strength * A), tol)


def k_max(a, b, tol: Tolerances = DEFAULT_TOL) -> EntailmentResult:
    """Maximal entailment strength of ``a`` into ``b``.

    Raises :class:`ZeroOperatorError` when ``a`` vanishes; returns a
    result without a strength when the supports are not contained.
    """
    a_eig, b_eig = _operands(a, b, tol)
    if float(np.linalg.norm(a_eig[0])) <= ZERO_NORM_ATOL:
        raise ZeroOperatorError("entailment strength is undefined for the zero operator")
    top = _top_eigenvalue(a_eig, b_eig, tol)
    if top is None:
        return EntailmentResult(False, None, None, None)
    if top <= 0.0:
        raise ZeroOperatorError("entailment strength is undefined for the zero operator")
    raw = 1.0 / top
    return EntailmentResult(True, min(1.0, raw), raw, top)


def general_error(a, b, tol: Tolerances = DEFAULT_TOL) -> ErrorDecomposition:
    """Split ``A - B`` spectrally into PSD excess and deficit terms."""
    (A, _, _), (B, _, _) = _operands(a, b, tol, vectors=False)
    dec = eig(sub(A, B))
    positive = np.clip(dec.eigenvalues, 0.0, None)
    negative = np.clip(-dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    excess = _sym((v * positive) @ v.T)
    deficit = _sym((v * negative) @ v.T)
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


def normalize(matrix, strategy, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rescale or transform a PSD matrix by the chosen strategy."""
    strategy = Normalization.coerce(strategy)
    vectors = strategy is Normalization.BAYESIAN
    return _normalize(_psd_eigh(matrix, tol, vectors=vectors), strategy)[0]


def bayes_transform(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Replace the sorted spectrum by its running products, same basis.

    With eigenvalues ``d_0 >= d_1 >= ...`` the output eigenvalues are
    ``d_0, d_0*d_1, d_0*d_1*d_2, ...`` on the unchanged eigenvectors.
    """
    return _normalize(_psd_eigh(matrix, tol), Normalization.BAYESIAN)[0]


def _normalize(m_eig, strategy: Normalization):
    """Normalize a validated ``(m, w, v)`` and carry its factorisation along.

    ``w`` comes in ascending order; after ``bayes`` it is no longer sorted.
    """
    m, w, v = m_eig
    if strategy is Normalization.NONE:
        return m_eig
    if strategy is Normalization.BAYESIAN:
        products = np.cumprod(np.clip(w[::-1], 0.0, None))
        v = v[:, ::-1]
        return _sym((v * products) @ v.T), products, v
    if strategy is Normalization.TRACE_ONE:
        total = float(np.trace(m))
        if total <= ZERO_NORM_ATOL:
            raise ZeroOperatorError("cannot trace-normalize the zero operator")
        return m / total, w / total, v
    top = float(w[-1])
    if top <= ZERO_NORM_ATOL:
        raise ZeroOperatorError("cannot eigenvalue-normalize the zero operator")
    return m / top, w / top, v


def from_bloch(x: float, z: float) -> np.ndarray:
    """The 2x2 trace-1 PSD matrix with disc coordinates ``(x, z)``."""
    x = float(x)
    z = float(z)
    if x * x + z * z > 1.0 + 1e-12:
        raise OutsideDiscError(f"({x}, {z}) lies outside the closed unit disc")
    return 0.5 * (np.eye(2) + x * _PAULI_X + z * _PAULI_Z)


def to_bloch(matrix) -> tuple[float, float]:
    """Disc coordinates of a 2x2 trace-1 PSD matrix; inverts from_bloch."""
    m = as_symmetric(matrix)
    if m.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got shape {m.shape}")
    if abs(float(np.trace(m)) - 1.0) > 1e-8:
        raise NotDensityOperator(f"trace {float(np.trace(m))!r} is not 1")
    if not is_psd(m):
        raise NotDensityOperator("matrix is not positive semidefinite")
    return float(2.0 * m[0, 1]), float(m[0, 0] - m[1, 1])


def disc_grid(
    target,
    resolution: int,
    strategy,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[float, float, float]]:
    """Entailment strength into ``target`` over a lattice of disc states.

    Rows are ``(x, z, k)`` for every lattice point of an evenly spaced
    ``resolution x resolution`` grid over [-1, 1]^2 that lies inside the
    closed unit disc, in row-major order with ``z`` descending and ``x``
    ascending.  ``k`` is 0 when the point's support is not contained in
    the target's support.

    Under ``maxeig`` both operators have top eigenvalue 1, so ``k = 1``
    exactly for the states that share the target's top eigenvector and are
    at least as pure as the target: the segment from the target out to the
    disc edge.  A row reads 1 only where a lattice point lies on that
    segment; elsewhere, the nearest lattice point included, ``k < 1``.
    """
    if resolution < 2:
        raise ResolutionError(f"resolution must be at least 2, got {resolution}")
    strategy = Normalization.coerce(strategy)
    m = as_symmetric(target)
    if m.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 target, got shape {m.shape}")
    if abs(float(np.trace(m)) - 1.0) > 1e-8 or not is_psd(m, tol):
        raise NotDensityOperator("target must be a trace-1 PSD matrix")
    b_eig = _normalize(_psd_eigh(m, tol), strategy)
    axis = np.linspace(-1.0, 1.0, resolution)
    rows: list[tuple[float, float, float]] = []
    for z in axis[::-1]:
        for x in axis:
            if x * x + z * z > 1.0 + 1e-12:
                continue
            a_eig = _normalize(_psd_eigh(from_bloch(x, z), tol), strategy)
            top = _top_eigenvalue(a_eig, b_eig, tol)
            k = 0.0 if top is None else min(1.0, 1.0 / top)
            rows.append((float(x), float(z), float(k)))
    return rows


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

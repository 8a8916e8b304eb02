"""Primitives for real symmetric positive-semidefinite matrices.

All operations take and return plain ``numpy.ndarray`` values.  Inputs are
validated (square, finite, symmetric within a relative tolerance of 1e-12)
and every matrix product is re-symmetrized by averaging with its transpose
to suppress round-off drift.  Rank and PSD decisions use the relative
tolerances collected in :class:`Tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatch,
    NonFiniteInput,
    NotDensityOperator,
    NotPositiveSemidefinite,
    NotSymmetric,
)

SYMMETRY_RTOL = 1e-12
DENSITY_TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for PSD checks, rank decisions and comparisons.

    psd_tol
        A matrix counts as PSD when its minimum eigenvalue is at least
        ``-psd_tol * max(1, lambda_max)``.
    rank_tol
        Eigenvalues at or below ``rank_tol * lambda_max`` are treated as
        zero when inverting or building support projectors.
    compare_tol
        Relative tolerance for residual-based comparisons such as support
        containment.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-10
    compare_tol: float = 1e-8

    def __post_init__(self):
        for name in ("psd_tol", "rank_tol", "compare_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def as_symmetric(matrix) -> np.ndarray:
    """Validate a square real symmetric matrix and return it as float64.

    The result is the exactly symmetric average ``(M + M.T) / 2``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def _sym(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.T)


def _spectrum(matrix: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of a symmetric array and, if asked, eigenvectors."""
    try:
        if vectors:
            return np.linalg.eigh(matrix)
        return np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver did not converge: {exc}") from exc


def _psd_eigh(matrix, tol: Tolerances, name: str = "matrix", vectors: bool = True):
    """Validate a symmetric PSD matrix with one eigensolve.

    Returns ``(m, w, v)``: the clean array, its ascending eigenvalues and
    their eigenvectors (``None`` unless ``vectors``).  This is the PSD
    rule: the minimum eigenvalue must be at least
    ``-psd_tol * max(1, lambda_max)``.
    """
    m = as_symmetric(matrix)
    w, v = _spectrum(m, vectors)
    if w[0] < -tol.psd_tol * max(1.0, float(w[-1])):
        raise NotPositiveSemidefinite(
            f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    return m, w, v


def _support(w: np.ndarray, v: np.ndarray, tol: Tolerances):
    """The rank cut: the eigenpairs above ``rank_tol * lambda_max``.

    The zero matrix keeps none.  ``w`` need not be sorted.
    """
    keep = w > tol.rank_tol * max(float(w.max()), 0.0)
    return w[keep], v[:, keep]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a symmetric matrix.

    ``eigenvalues`` are sorted in descending order and
    ``eigenvectors[:, i]`` is the orthonormal eigenvector paired with
    ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return _sym((v * self.eigenvalues) @ v.T)


def eig(matrix) -> EigenDecomposition:
    """Full eigendecomposition with eigenvalues in descending order."""
    w, v = _spectrum(as_symmetric(matrix))
    return EigenDecomposition(
        np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])
    )


def is_psd(matrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the minimum eigenvalue is >= -psd_tol * max(1, lambda_max)."""
    try:
        _psd_eigh(matrix, tol, vectors=False)
    except NotPositiveSemidefinite:
        return False
    return True


def require_psd(matrix, tol: Tolerances = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is symmetric PSD, returning the clean array."""
    return _psd_eigh(matrix, tol, name, vectors=False)[0]


def loewner_leq(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operator order: A <= B iff B - A is positive semidefinite."""
    return is_psd(sub(b, a), tol)


def pseudo_inverse(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix.

    Eigenvalues above ``rank_tol * lambda_max`` are inverted, the rest are
    zeroed.  The zero matrix maps to the zero matrix.
    """
    _, w, v = _psd_eigh(matrix, tol)
    w, v = _support(w, v, tol)
    return _sym((v / w) @ v.T)


def sqrt_psd(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unique PSD square root of a PSD matrix."""
    _, w, v = _psd_eigh(matrix, tol)
    return _sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def support_projector(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    _, w, v = _psd_eigh(matrix, tol)
    _, kept = _support(w, v, tol)
    return _sym(kept @ kept.T)


def satisfaction(rho, a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Degree to which density operator ``rho`` satisfies predicate ``a``.

    Returns ``trace(rho @ a)``, which is nonnegative for PSD inputs up to
    round-off; noise-level negatives are clamped to zero.
    """
    r = as_symmetric(rho)
    m = as_symmetric(a)
    if r.shape != m.shape:
        raise DimensionMismatch(f"shape {r.shape} vs {m.shape}")
    if abs(float(np.trace(r)) - 1.0) > DENSITY_TRACE_ATOL:
        raise NotDensityOperator(f"state trace {float(np.trace(r))!r} is not 1")
    require_psd(r, tol, name="state")
    require_psd(m, tol, name="predicate")
    value = float(np.trace(r @ m))
    return max(value, 0.0)


def trace(matrix) -> float:
    return float(np.trace(as_symmetric(matrix)))


def add(a, b) -> np.ndarray:
    x = as_symmetric(a)
    y = as_symmetric(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape {x.shape} vs {y.shape}")
    return _sym(x + y)


def sub(a, b) -> np.ndarray:
    x = as_symmetric(a)
    y = as_symmetric(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape {x.shape} vs {y.shape}")
    return _sym(x - y)


def scale(c, matrix) -> np.ndarray:
    factor = float(c)
    if not np.isfinite(factor):
        raise NonFiniteInput("scale factor must be finite")
    return factor * as_symmetric(matrix)


def frobenius_norm(matrix) -> float:
    return float(np.linalg.norm(as_symmetric(matrix)))

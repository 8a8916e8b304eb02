"""Primitives for real symmetric positive-semidefinite matrices.

Inputs are validated (square, finite, symmetric within a relative tolerance
of 1e-12) and every matrix product is re-symmetrized by averaging with its
transpose to suppress round-off drift.  A validated matrix and its
eigendecomposition travel together as one :class:`Spectrum`.  The PSD rule
and the rank cut read its eigenvalues against the relative thresholds
``PSD_RTOL`` and ``RANK_RTOL``, with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
# A matrix is PSD when its minimum eigenvalue is at least
# -PSD_RTOL * max(1, lambda_max).
PSD_RTOL = 1e-9
# Eigenvalues at or below RANK_RTOL * lambda_max are zero: the rank cut.
RANK_RTOL = 1e-10
# A's support lies in B's when the residual of A off B's support is at most
# COMPARE_RTOL * ||A|| (entailment._contained).
COMPARE_RTOL = 1e-8
DENSITY_TRACE_ATOL = 1e-8


# Compared by identity: a field-wise == would compare arrays and raise.
@dataclass(frozen=True, eq=False)
class Spectrum:
    """A validated symmetric matrix (or ``(..., n, n)`` stack) and its factor.

    ``w`` holds the ascending eigenvalues and ``v[..., :, i]`` the
    eigenvector of ``w[..., i]``, or ``v`` is ``None`` when only eigenvalues
    were computed.  After ``bayes`` normalization ``w`` is nonnegative but
    need not be sorted.  Build one with :func:`spectrum`.
    """

    matrix: np.ndarray
    w: np.ndarray
    v: Optional[np.ndarray]


def as_symmetric(matrix) -> np.ndarray:
    """Validate a square real symmetric matrix and return it as float64.

    The result is the exactly symmetric average ``(M + M.T) / 2``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return _symmetrized(m)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The finiteness and symmetry rules on a float ``(..., n, n)`` stack.

    Each matrix is held to its own scale.  Returns the symmetric averages.
    """
    if m.shape[-1] == 0:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    # Entries flattened per matrix: one reduction axis is cheaper than two.
    flat = m.shape[:-2] + (-1,)
    scale = np.abs(m).reshape(flat).max(axis=-1)
    asymmetry = np.abs(m - m.swapaxes(-1, -2)).reshape(flat).max(axis=-1)
    if np.count_nonzero(asymmetry > SYMMETRY_RTOL * scale):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return _sym(m)


def _sym(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.swapaxes(-1, -2))


def _symmetric(x):
    """A factor as it is; anything else validated by ``as_symmetric``."""
    return x if isinstance(x, Spectrum) else as_symmetric(x)


def _eigensolve(matrix: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of a symmetric array and, if asked, eigenvectors."""
    try:
        if vectors:
            return np.linalg.eigh(matrix)
        return np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver did not converge: {exc}") from exc


def _solved(x, vectors: bool) -> Spectrum:
    """Factorise a validated array, or a factor lacking the vectors asked for."""
    if isinstance(x, Spectrum):
        if x.v is not None or not vectors:
            return x
        x = x.matrix
    return Spectrum(x, *_eigensolve(x, vectors))


def spectrum(matrix) -> Spectrum:
    """The factor of any symmetric matrix, PSD or not, by one eigensolve."""
    return _solved(_symmetric(matrix), vectors=True)


def _psd_eigh(matrix, name: str = "matrix", vectors: bool = True) -> Spectrum:
    """Validate a symmetric PSD matrix, or a factor, with at most one eigensolve."""
    return _psd_spectrum(_symmetric(matrix), name, vectors)


def _psd_spectrum(m, name: str, vectors: bool = True) -> Spectrum:
    """The PSD rule on a symmetric ``(..., n, n)`` stack or on its factor.

    Each minimum eigenvalue must be at least ``-PSD_RTOL * max(1,
    lambda_max)`` of its own matrix.  Solves only what ``_solved`` must.
    """
    s = _solved(m, vectors)
    # Each matrix's lowest and top eigenvalue; for one matrix, numpy scalars.
    # A bayes factor is unsorted but nonnegative, so it passes either way.
    low, top = s.w.T[0], s.w.T[-1]
    # low < -PSD_RTOL * max(1, top) as two comparisons, which on scalars
    # cost less than one np.maximum.
    bad = (low < -PSD_RTOL) & (low < -PSD_RTOL * top)
    if np.count_nonzero(bad):
        raise NotPositiveSemidefinite(
            f"{name} is not positive semidefinite (min eigenvalue {low[bad].min():.3e})"
        )
    return s


def _support(s: Spectrum):
    """The rank cut: the eigenpairs ``(w, v)`` above ``RANK_RTOL * lambda_max``."""
    keep = s.w > RANK_RTOL * max(float(s.w.max()), 0.0)
    return s.w[keep], s.v[:, keep]


def is_psd(matrix) -> bool:
    """True when the minimum eigenvalue is >= -PSD_RTOL * max(1, lambda_max)."""
    try:
        _psd_eigh(matrix, vectors=False)
    except NotPositiveSemidefinite:
        return False
    return True


def loewner_leq(a, b) -> bool:
    """Operator order: A <= B iff B - A is positive semidefinite."""
    x = as_symmetric(a)
    y = as_symmetric(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape {x.shape} vs {y.shape}")
    return is_psd(y - x)


def pseudo_inverse(matrix) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix.

    Eigenvalues above ``RANK_RTOL * lambda_max`` are inverted, the rest are
    zeroed.  The zero matrix maps to the zero matrix.
    """
    w, v = _support(_psd_eigh(matrix))
    return _sym((v / w) @ v.T)


def sqrt_psd(matrix) -> np.ndarray:
    """Unique PSD square root of a PSD matrix."""
    s = _psd_eigh(matrix)
    return _sym((s.v * np.sqrt(np.clip(s.w, 0.0, None))) @ s.v.T)


def support_projector(matrix) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    _, kept = _support(_psd_eigh(matrix))
    return _sym(kept @ kept.T)


def satisfaction(rho, a) -> float:
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
    _psd_spectrum(r, "state", vectors=False)
    _psd_spectrum(m, "predicate", vectors=False)
    return max(float(np.trace(r @ m)), 0.0)

"""Primitives for real symmetric positive-semidefinite matrices.

Inputs are validated (square, finite, symmetric within a relative tolerance
of 1e-12) and stored as the exactly symmetric average with their transpose.
A validated matrix and its eigendecomposition travel together as one
:class:`Spectrum`.  The PSD rule and the rank cut read its eigenvalues against
the relative thresholds ``PSD_RTOL`` and ``RANK_RTOL``, with no eigensolve.
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
# A matrix is PSD when its minimum eigenvalue is at least -PSD_RTOL times
# the larger of its lambda_max and its operands' scale (_negative).
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


def _symmetrized(m: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """The finiteness and symmetry rules on a float ``(..., n, n)`` stack.

    Each matrix is held to the larger of its largest entry and ``scale``:
    0 for a given matrix, its operands' scale for one computed from PSD
    operands.  Returns the symmetric averages.
    """
    if m.shape[-1] == 0:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    # Entries flattened per matrix: one reduction axis is cheaper than two.
    flat = m.shape[:-2] + (-1,)
    largest = np.abs(m).reshape(flat).max(axis=-1)
    asymmetry = np.abs(m - m.swapaxes(-1, -2)).reshape(flat).max(axis=-1)
    bad = (asymmetry > SYMMETRY_RTOL * largest) & (asymmetry > SYMMETRY_RTOL * scale)
    if np.count_nonzero(bad):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return _sym(m)


def _sym(matrix: np.ndarray) -> np.ndarray:
    half = 0.5 * matrix  # halved before the sum, which then cannot overflow
    return half + half.swapaxes(-1, -2)


def _symmetric(x):
    """A factor as it is; anything else validated by ``as_symmetric``."""
    return x if isinstance(x, Spectrum) else as_symmetric(x)


def _eigensolve(matrix: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of a symmetric array and, if asked, eigenvectors."""
    try:
        w, v = np.linalg.eigh(matrix) if vectors else (np.linalg.eigvalsh(matrix), None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver did not converge: {exc}") from exc
    if not np.isfinite(w).all():  # finite entries whose spectrum overflows
        raise ConvergenceError("eigenvalues overflow the float range")
    return w, v


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


def _negative(w: np.ndarray, scale: float = 0.0):
    """Where a lowest eigenvalue is below ``-PSD_RTOL * max(lambda_max, scale)``.

    ``w`` is ascending, ``(..., n)``, or an unsorted but nonnegative bayes factor.
    """
    low, top = w.T[0], w.T[-1]
    # Two comparisons, which on scalars cost less than one np.maximum.
    return (low < -PSD_RTOL * top) & (low < -PSD_RTOL * scale)


def _psd_spectrum(m, name: str = "matrix", vectors: bool = True, scale: float = 0.0) -> Spectrum:
    """The PSD rule on a symmetric ``(..., n, n)`` stack or its factor, solved as needed."""
    s = _solved(m, vectors)
    bad = _negative(s.w, scale)
    if np.count_nonzero(bad):
        raise NotPositiveSemidefinite(
            f"{name} is not positive semidefinite (min eigenvalue {s.w.T[0][bad].min():.3e})"
        )
    return s


def _support(s: Spectrum):
    """The rank cut: the eigenpairs ``(w, v)`` above ``RANK_RTOL * lambda_max``."""
    keep = s.w > RANK_RTOL * max(float(s.w.max()), 0.0)
    return s.w[keep], s.v[:, keep]


def is_psd(matrix) -> bool:
    """True when the minimum eigenvalue is >= -PSD_RTOL * lambda_max."""
    return not _negative(_solved(_symmetric(matrix), vectors=False).w)


def _pair(a, b, vectors: bool, name: str = "B"):
    """Validate both operands, in the order every query runs the checks.

    ``a``'s shape, finiteness and symmetry; ``b``'s PSD rule (with eigenvectors
    if ``vectors``); the shapes.  Returns ``a`` (a factor, or the validated
    array) for the caller's PSD rule, its matrix, and ``b``'s factor.
    """
    a = _symmetric(a)
    B = _psd_spectrum(_symmetric(b), name, vectors)
    A = a.matrix if isinstance(a, Spectrum) else a
    if A.shape != B.matrix.shape:
        raise DimensionMismatch(f"shape {A.shape} vs {B.matrix.shape}")
    return a, A, B


def _leq(a, b, k: float) -> bool:
    """The Loewner order on PSD operands: whether ``B - kA`` is PSD.

    Read at the operands' scale ``max(lambda_max(B), k * lambda_max(A))``, for
    at the boundary the difference, symmetric as it is, is all round-off.
    """
    a, A, B = _pair(a, b, vectors=False)
    scale = max(B.w.max(), k * _psd_spectrum(a, "A", vectors=False).w.max())
    return not _negative(_eigensolve(B.matrix - k * A, vectors=False)[0], scale)


def loewner_leq(a, b) -> bool:
    """Operator order on PSD operands: A <= B iff B - A is positive semidefinite."""
    return _leq(a, b, 1.0)


def satisfaction(rho, a) -> float:
    """Degree to which density operator ``rho`` satisfies predicate ``a``.

    Returns ``trace(rho @ a)``, which is nonnegative for PSD inputs up to
    round-off; noise-level negatives are clamped to zero.
    """
    r, R, A = _pair(rho, a, vectors=False, name="predicate")
    if abs(float(np.trace(R)) - 1.0) > DENSITY_TRACE_ATOL:
        raise NotDensityOperator(f"state trace {float(np.trace(R))!r} is not 1")
    _psd_spectrum(r, "state", vectors=False)
    return max(float(np.trace(R @ A.matrix)), 0.0)

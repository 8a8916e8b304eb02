"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from densem.lexicon import Lexicon
from densem.pregroup import PregroupType, reduce as reduce_types
from densem.semantics import DensityTensor, evaluate, word_meaning

FIXTURES = Path(__file__).parent / "fixtures"


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank))
    m = g @ g.T
    return 0.5 * (m + m.T)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    m = random_psd(rng, dim, rank)
    return m / np.trace(m)


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    v = q[:, :rank]
    p = v @ v.T
    return 0.5 * (p + p.T)


def _support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix above 1e-10 of its top eigenvalue."""
    w, v = np.linalg.eigh(m)
    keep = w > 1e-10 * max(float(w[-1]), 0.0)
    return w[keep], v[:, keep]


def pseudo_inverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix; zero maps to zero."""
    w, v = _support(m)
    p = (v / w) @ v.T
    return 0.5 * (p + p.T)


def support_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    _, v = _support(m)
    p = v @ v.T
    return 0.5 * (p + p.T)


def nested_psd_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A PSD pair (A, B) with the range of A inside the range of B."""
    rank_b = int(rng.integers(1, dim + 1))
    rank_a = int(rng.integers(1, rank_b + 1))
    gb = rng.normal(size=(dim, rank_b))
    b = gb @ gb.T
    ga = gb @ rng.normal(size=(rank_b, rank_a))
    a = ga @ ga.T
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def bisect_max_strength(a: np.ndarray, b: np.ndarray, iterations: int = 80) -> float:
    """Largest k with min-eig(B - kA) >= 0, located by pure bisection.

    Independent of the closed-form path: only repeated symmetric
    eigenvalue sign checks are used.  The pencil is restricted to the
    support of B first, so the shared null space cannot contaminate the
    sign of the minimum eigenvalue with round-off noise.
    """
    w, v = np.linalg.eigh(b)
    basis = v[:, w > 1e-12 * max(float(w[-1]), 1e-300)]
    a_r = basis.T @ a @ basis
    b_r = basis.T @ b @ basis
    slack = 1e-14 * max(1.0, float(w[-1]))

    def psd_at(k: float) -> bool:
        return float(np.linalg.eigvalsh(b_r - k * a_r)[0]) >= -slack

    if not psd_at(0.0):
        raise AssertionError("B itself must be PSD for the bisection oracle")
    lo = 0.0
    hi = 1.0
    while psd_at(hi):
        hi *= 2.0
        if hi > 1e15:
            raise AssertionError("no finite upper bound for the strength")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compose_sentence(lexicon: Lexicon, sentence: str, target: PregroupType) -> DensityTensor:
    """Reference composition pipeline used by the acceptance checks."""
    entries = lexicon.lookup_sentence(sentence)
    types = [e.type for e in entries]
    pattern = reduce_types(types, target)
    assert pattern is not None, f"'{sentence}' must reduce to '{target}'"
    tensors = [(word_meaning(e, lexicon.spaces), e.type) for e in entries]
    return evaluate(tensors, pattern, lexicon.spaces)

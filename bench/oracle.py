"""Independent numpy reference for every output the benchmark checks.

Nothing here calls densem, and nothing calls numpy's symmetric
eigensolvers (``eigh``/``eigvalsh``), which the traced run counts.
Strengths come from the nonsymmetric eigenvalues of ``pinv(B) @ A`` after
an SVD rank test for support containment; sentence meanings from an einsum
written from the sentence template; disc states from closed forms.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9
CONTAIN_RTOL = 1e-6
BRA = 26  # bra label = ket label + BRA; einsum allows 52 labels


class CheckFailed(Exception):
    """An output of densem disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, rtol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    gap = float(np.abs(actual - expected).max(initial=0.0))
    expect(gap <= rtol * scale, f"{what}: off by {gap:.3e} (scale {scale:.3e})")


def mixture_matrix(mixture) -> np.ndarray:
    """sum_i w_i v_i v_i^T from JSON-style [{"weight", "vector"}] entries."""
    return sum(
        item["weight"] * np.outer(item["vector"], item["vector"]) for item in mixture
    )


def strength(a: np.ndarray, b: np.ndarray):
    """Unclipped k = 1 / lambda_max(pinv(B) A), or None when supp A is not in supp B."""
    u, s, _ = np.linalg.svd(b)
    basis = u[:, s > RANK_RTOL * s[0]]
    outside = a - basis @ (basis.T @ a)
    if np.linalg.norm(outside) > CONTAIN_RTOL * np.linalg.norm(a):
        return None
    top = np.linalg.eigvals(np.linalg.pinv(b, rcond=RANK_RTOL) @ a).real.max()
    return 1.0 / float(top)


def normalize(m: np.ndarray, strategy: str) -> np.ndarray:
    if strategy == "none":
        return m
    if strategy == "trace":
        return m / np.trace(m)
    if strategy == "maxeig":
        return m / np.linalg.norm(m, 2)
    raise ValueError(f"no reference for normalization {strategy!r}")


def positive_part(m: np.ndarray) -> np.ndarray:
    """(M + |M|) / 2 for symmetric M, with |M| = V S V^T from the SVD."""
    _, s, vt = np.linalg.svd(m)
    return 0.5 * (m + (vt.T * s) @ vt)


def compose_operands(kinds, matrices, n: int, s: int):
    """Einsum operands and output labels of a subject-verb-object template.

    ``kinds`` spells the template with ``A`` (adjective ``n n.l``), ``N``
    (noun ``n``) and one ``V`` (transitive verb ``n.r s n.l``).  Each
    adjective's ``n.l`` meets the next word of its noun phrase and each
    noun phrase's head meets the verb, ket with ket and bra with bra.
    """
    verb_at = kinds.index("V")
    fresh = iter(range(BRA))
    subject, sentence, obj = next(fresh), next(fresh), next(fresh)
    ket_labels = []
    for phrase, head in ((kinds[:verb_at], subject), (kinds[verb_at + 1 :], obj)):
        for kind in phrase:
            if kind == "A":
                inner = next(fresh)
                ket_labels.append([head, inner])
                head = inner
            else:
                ket_labels.append([head])
    ket_labels.insert(verb_at, [subject, sentence, obj])
    dims = {"A": (n, n), "N": (n,), "V": (n, s, n)}
    operands = []
    for kind, matrix, kets in zip(kinds, matrices, ket_labels):
        operands += [matrix.reshape(dims[kind] * 2), kets + [k + BRA for k in kets]]
    return operands, [sentence, sentence + BRA]


def compose(kinds, matrices, n: int, s: int) -> np.ndarray:
    """Sentence meaning of a subject-verb-object template, as an s x s matrix."""
    operands, out = compose_operands(kinds, matrices, n, s)
    return np.einsum(*operands, out, optimize=True)


def relative_clause(subj: np.ndarray, verb: np.ndarray, obj: np.ndarray, n: int, s: int) -> np.ndarray:
    """``subj who verb obj``: the subject merged entrywise into the verb's
    subject space after the object is contracted and the sentence space is
    summed out on ket and bra independently."""
    v = verb.reshape(n, s, n, n, s, n)
    return subj * np.einsum("asoAtO,oO->aA", v, obj)


def bloch_state(x, z, strategy: str) -> np.ndarray:
    """Normalized 2x2 states for arrays of disc points, from the spectrum
    (1 +- r) / 2 on the projectors (I +- n.sigma) / 2."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.hypot(x, z)
    unit = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    nx, nz = x * unit, z * unit
    plus = 0.5 * np.stack([np.stack([1 + nz, nx], -1), np.stack([nx, 1 - nz], -1)], -2)
    minus = np.eye(2) - plus
    hi = 0.5 * (1 + r)
    lo = np.clip(0.5 * (1 - r), 0.0, None)
    if strategy in ("none", "trace"):
        top, bottom = hi, lo
    elif strategy == "maxeig":
        top, bottom = np.ones_like(hi), lo / hi
    elif strategy == "bayes":
        top, bottom = hi, hi * lo
    else:
        raise ValueError(f"no reference for normalization {strategy!r}")
    return top[..., None, None] * plus + bottom[..., None, None] * minus


def disc_lattice(resolution: int):
    """Disc lattice in densem's row order: z descending, then x ascending."""
    axis = np.linspace(-1.0, 1.0, resolution)
    z, x = np.meshgrid(axis[::-1], axis, indexing="ij")
    inside = x * x + z * z <= 1.0 + 1e-12
    return x[inside], z[inside]


def disc_strengths(target_x: float, target_z: float, resolution: int, strategy: str):
    """(x, z, k) arrays for a disc grid whose target lies strictly inside
    the disc, so that every state's support is contained."""
    x, z = disc_lattice(resolution)
    target = bloch_state(target_x, target_z, strategy)
    states = bloch_state(x, z, strategy)
    ratio = np.linalg.pinv(target, rcond=RANK_RTOL) @ states
    raw = 1.0 / np.linalg.eigvals(ratio).real.max(axis=-1)
    return x, z, np.minimum(1.0, raw)


def check_disc_rows(rows, target_x, target_z, resolution, strategy) -> None:
    """Rows may be printed with 9 significant digits, hence the 1e-8 slack."""
    x, z, k = disc_strengths(target_x, target_z, resolution, strategy)
    got = np.asarray(rows, dtype=float).reshape(-1, 3)
    expect(len(got) == len(k), f"disc: {len(got)} rows, expected {len(k)}")
    close(got[:, 0], x, 1e-8, "disc x")
    close(got[:, 1], z, 1e-8, "disc z")
    checked = np.ones(len(k), dtype=bool)
    if strategy == "bayes":
        # The running-product transform picks a basis inside a degenerate
        # eigenspace, so the maximally mixed state has no unique image.
        checked = np.hypot(x, z) > 1e-9
    close(got[checked, 2], k[checked], 1e-8, f"disc k ({strategy})")

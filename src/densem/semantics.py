"""Sentence meanings as doubled tensor contractions.

A word or sentence meaning is a :class:`DensityTensor`: a real tensor over
a list of spaces with ``2m`` indices ordered as all ket indices followed by
all bra indices.  Flattening the ket block against the bra block yields a
positive semidefinite matrix.  Contracting a matched pair of positions
joins their ket indices together and their bra indices together (the
doubled counit), so positivity is preserved throughout.

Every adjoint of a base symbol lives in the same space as the base itself,
so reduction patterns only need dimensions, never dual bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Mapping, Optional, Sequence

import numpy as np

from . import psd
from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotSymmetric,
    PatternMismatch,
    TensorTooLarge,
    WeightError,
    ZeroOperatorError,
)
from .pregroup import PregroupType, ReductionPattern, flatten

MAX_TENSOR_ENTRIES = 2**20
WEIGHT_SUM_ATOL = 1e-8

SpaceAssignment = Mapping[str, int]


def space_dims(ptype: PregroupType, spaces: SpaceAssignment) -> tuple[int, ...]:
    """Dimensions of the spaces a pregroup type flattens into."""
    dims = []
    for simple in ptype.simples:
        if simple.base not in spaces:
            raise DimensionMismatch(f"no space declared for base '{simple.base}'")
        d = int(spaces[simple.base])
        if d < 1:
            raise DimensionMismatch(f"space '{simple.base}' must have dimension >= 1")
        dims.append(d)
    return tuple(dims)


@dataclass(frozen=True)
class DensityTensor:
    """A PSD tensor over ``spaces``, stored as (kets..., bras...).

    Construction validates shape, finiteness, the ket/bra exchange
    symmetry and positive semidefiniteness of the flattened matrix, then
    stores the exactly symmetrized entries.
    """

    spaces: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        spaces = tuple(int(d) for d in self.spaces)
        if any(d < 1 for d in spaces):
            raise DimensionMismatch("all space dimensions must be >= 1")
        dim = prod(spaces)
        if dim * dim > MAX_TENSOR_ENTRIES:
            raise TensorTooLarge(
                f"tensor with {dim * dim} entries exceeds the cap of {MAX_TENSOR_ENTRIES}"
            )
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != spaces + spaces:
            raise DimensionMismatch(
                f"entries shape {entries.shape} does not match spaces {spaces}"
            )
        if not np.all(np.isfinite(entries)):
            raise NonFiniteInput("tensor contains NaN or Inf entries")
        m = len(spaces)
        swapped = entries.transpose(tuple(range(m, 2 * m)) + tuple(range(m)))
        scale = max(1.0, float(np.abs(entries).max())) if entries.size else 1.0
        if float(np.abs(entries - swapped).max()) > psd.SYMMETRY_RTOL * scale:
            raise NotSymmetric(
                "tensor is not invariant under ket/bra exchange "
                f"(max gap {float(np.abs(entries - swapped).max()):.3e})"
            )
        entries = 0.5 * (entries + swapped)
        psd.require_psd(entries.reshape(dim, dim), name="flattened tensor")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return prod(self.spaces)

    @property
    def matrix(self) -> np.ndarray:
        """The tensor flattened to a ``dim x dim`` symmetric matrix."""
        return self.entries.reshape(self.dim, self.dim)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @classmethod
    def from_matrix(cls, matrix, spaces: Sequence[int]) -> "DensityTensor":
        dims = tuple(int(d) for d in spaces)
        m = np.asarray(matrix, dtype=float)
        dim = prod(dims)
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match spaces {dims}"
            )
        return cls(dims, m.reshape(dims + dims))


def double(vector, spaces: Sequence[int]) -> DensityTensor:
    """Lift a vector to the rank-1 tensor |v><v| over the given spaces."""
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    dims = tuple(int(d) for d in spaces)
    if v.size != prod(dims):
        raise DimensionMismatch(
            f"vector of length {v.size} does not match spaces {dims}"
        )
    return DensityTensor(dims, np.outer(v, v).reshape(dims + dims))


@dataclass(frozen=True)
class WordEntry:
    """A lexicon row: a word, its pregroup type and its meaning.

    The meaning is either a convex ``mixture`` of vectors (pairs of weight
    and vector over the flattened type space) or an explicit flattened
    ``matrix``.  Relative pronouns carry a ``frobenius`` marker instead of
    a meaning.
    """

    word: str
    type: PregroupType
    mixture: Optional[tuple[tuple[float, np.ndarray], ...]] = None
    matrix: Optional[np.ndarray] = None
    frobenius: Optional[str] = None


def word_meaning(entry: WordEntry, spaces: SpaceAssignment) -> DensityTensor:
    """Build the density tensor of a word from its lexicon entry."""
    dims = space_dims(entry.type, spaces)
    size = prod(dims)
    if entry.mixture is not None:
        weights = [float(w) for w, _ in entry.mixture]
        if any(w < 0 for w in weights):
            raise WeightError(f"word '{entry.word}' has a negative mixture weight")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_ATOL:
            raise WeightError(
                f"word '{entry.word}' mixture weights sum to {sum(weights)!r}, not 1"
            )
        acc = np.zeros((size, size))
        for weight, vector in entry.mixture:
            v = np.asarray(vector, dtype=float).reshape(-1)
            if v.size != size:
                raise DimensionMismatch(
                    f"word '{entry.word}': vector of length {v.size} does not "
                    f"match type '{entry.type}' over spaces {dims}"
                )
            acc += float(weight) * np.outer(v, v)
        return DensityTensor(dims, acc.reshape(dims + dims))
    if entry.matrix is not None:
        m = np.asarray(entry.matrix, dtype=float)
        if m.shape != (size, size):
            raise DimensionMismatch(
                f"word '{entry.word}': matrix shape {m.shape} does not match "
                f"type '{entry.type}' over spaces {dims}"
            )
        return DensityTensor.from_matrix(m, dims)
    raise WeightError(f"word '{entry.word}' has no meaning")


def evaluate(
    words: Sequence[tuple[DensityTensor, PregroupType]],
    pattern: ReductionPattern,
    spaces: SpaceAssignment,
) -> DensityTensor:
    """Contract word tensors along a reduction pattern.

    For every matched pair of positions the ket indices are summed against
    each other and the bra indices likewise; the result ranges over the
    survivor positions in pattern order.
    """
    flat = flatten([ptype for _, ptype in words])
    n = len(flat)
    dims = []
    offset = 0
    word_positions = []
    for tensor, ptype in words:
        type_dims = space_dims(ptype, spaces)
        if tensor.spaces != type_dims:
            raise DimensionMismatch(
                f"tensor over spaces {tensor.spaces} does not match type "
                f"'{ptype}' over spaces {type_dims}"
            )
        word_positions.append(range(offset, offset + len(type_dims)))
        dims.extend(type_dims)
        offset += len(type_dims)

    matched: set[int] = set()
    for i, j in pattern.matches:
        if not (0 <= i < j < n):
            raise PatternMismatch(f"match ({i},{j}) out of range for {n} positions")
        if i in matched or j in matched:
            raise PatternMismatch("a position is matched twice in the pattern")
        matched.update((i, j))
        if dims[i] != dims[j]:
            raise PatternMismatch(
                f"match ({i},{j}) joins spaces of dimension {dims[i]} and {dims[j]}"
            )
    if sorted(pattern.survivors) != [p for p in range(n) if p not in matched]:
        raise PatternMismatch("survivors do not complement the matched positions")

    ket = list(range(n))
    bra = list(range(n, 2 * n))
    for i, j in pattern.matches:
        ket[j] = ket[i]
        bra[j] = bra[i]

    operands: list = []
    for (tensor, _), positions in zip(words, word_positions):
        labels = [ket[p] for p in positions] + [bra[p] for p in positions]
        operands.extend((tensor.entries, labels))
    out_labels = [ket[p] for p in pattern.survivors] + [bra[p] for p in pattern.survivors]
    entries = np.einsum(*operands, out_labels)
    return DensityTensor(tuple(dims[p] for p in pattern.survivors), entries)


def snake_check(dim: int) -> bool:
    """Verify the snake identities for the cup/cap pair at a dimension.

    Builds the unit (1 -> sum_i |i>|i>) and counit (|i>|j> -> delta_ij)
    coefficient tensors and checks that both zig-zag composites act as the
    identity to 1e-12.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    unit = np.eye(dim)
    counit = np.eye(dim)
    basis = np.eye(dim)
    bent_right = np.einsum("ij,ck->cijk", unit, basis)
    left_composite = np.einsum("cijk,jk->ci", bent_right, counit)
    bent_left = np.einsum("ci,jk->cijk", basis, unit)
    right_composite = np.einsum("cijk,ij->ck", bent_left, counit)
    return bool(
        np.abs(left_composite - basis).max() <= 1e-12
        and np.abs(right_composite - basis).max() <= 1e-12
    )


def frobenius_mu(rho: DensityTensor, sigma: DensityTensor) -> DensityTensor:
    """Doubled merging: the entrywise product of two single-space tensors."""
    if len(rho.spaces) != 1 or len(sigma.spaces) != 1:
        raise DimensionMismatch("merging is defined on single-space tensors")
    if rho.spaces != sigma.spaces:
        raise DimensionMismatch(f"spaces {rho.spaces} vs {sigma.spaces}")
    return DensityTensor(rho.spaces, rho.entries * sigma.entries)


def frobenius_iota(
    rho: DensityTensor, space_index: int, mode: str = "sum"
) -> DensityTensor:
    """Doubled deletion of one space.

    ``mode="sum"`` sums all entries over the deleted ket/bra index pair
    (the literal doubling of the basis-deleting map); ``mode="trace"``
    takes the partial trace instead.
    """
    m = len(rho.spaces)
    if not 0 <= space_index < m:
        raise IndexError(f"space index {space_index} out of range for {m} spaces")
    ket_axis = space_index
    bra_axis = m + space_index
    if mode == "sum":
        entries = rho.entries.sum(axis=(ket_axis, bra_axis))
    elif mode == "trace":
        entries = np.trace(rho.entries, axis1=ket_axis, axis2=bra_axis)
    else:
        raise ValueError(f"unknown deletion mode {mode!r}")
    remaining = tuple(d for i, d in enumerate(rho.spaces) if i != space_index)
    return DensityTensor(remaining, entries)


def relative_clause(
    subj: DensityTensor,
    verb: DensityTensor,
    obj: DensityTensor,
    iota_mode: str = "sum",
) -> DensityTensor:
    """Meaning of ``subj who verb obj`` via the Frobenius recipe.

    The object is contracted against the verb's object space with the
    doubled counit, the sentence space is deleted, and the subject is
    merged into the verb's subject space by the entrywise product.
    """
    if len(verb.spaces) != 3:
        raise DimensionMismatch("verb must range over subject, sentence and object spaces")
    if len(subj.spaces) != 1 or subj.spaces[0] != verb.spaces[0]:
        raise DimensionMismatch(
            f"subject spaces {subj.spaces} do not match verb subject space {verb.spaces[0]}"
        )
    if len(obj.spaces) != 1 or obj.spaces[0] != verb.spaces[2]:
        raise DimensionMismatch(
            f"object spaces {obj.spaces} do not match verb object space {verb.spaces[2]}"
        )
    s_dim = verb.spaces[1]
    if iota_mode == "sum":
        deletion = np.ones((s_dim, s_dim))
    elif iota_mode == "trace":
        deletion = np.eye(s_dim)
    else:
        raise ValueError(f"unknown deletion mode {iota_mode!r}")
    entries = np.einsum(
        subj.entries,
        [0, 1],
        verb.entries,
        [0, 2, 3, 1, 4, 5],
        deletion,
        [2, 4],
        obj.entries,
        [3, 5],
        [0, 1],
    )
    return DensityTensor((verb.spaces[0],), entries)


def similarity(rho: DensityTensor, sigma: DensityTensor) -> float:
    """Normalized overlap trace(rho sigma) / sqrt(trace(rho^2) trace(sigma^2))."""
    if rho.spaces != sigma.spaces:
        raise DimensionMismatch(f"spaces {rho.spaces} vs {sigma.spaces}")
    a = rho.matrix
    b = sigma.matrix
    norm_a = float(np.trace(a @ a))
    norm_b = float(np.trace(b @ b))
    if norm_a <= 0.0 or norm_b <= 0.0:
        raise ZeroOperatorError("similarity is undefined for the zero operator")
    value = float(np.trace(a @ b)) / np.sqrt(norm_a * norm_b)
    return min(max(value, 0.0), 1.0)

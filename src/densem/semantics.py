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

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Mapping, Optional, Sequence

import numpy as np

from . import psd
from .errors import (
    DimensionMismatch,
    PatternMismatch,
    TensorTooLarge,
    WeightError,
)
from .pregroup import PregroupType, ReductionPattern

MAX_TENSOR_ENTRIES = 2**20
# Cap on a contraction plan's cost (see evaluate): about a second of
# contraction work, far above any sentence whose word tensors fit
# MAX_TENSOR_ENTRIES.
MAX_CONTRACTION_FLOPS = 2**30

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


def flat_dim(spaces: Sequence[int]) -> int:
    """The flattened dimension over ``spaces``, checked against the entry cap.

    Call it before allocating a ``dim x dim`` matrix, so an oversized
    tensor is refused without the allocation.
    """
    dim = prod(spaces)
    if dim * dim > MAX_TENSOR_ENTRIES:
        raise TensorTooLarge(
            f"tensor with {dim * dim} entries exceeds the cap of {MAX_TENSOR_ENTRIES}"
        )
    return dim


# Compared by identity: a field-wise == would compare arrays and raise.
@dataclass(frozen=True, eq=False)
class DensityTensor:
    """A PSD tensor over ``spaces``, stored as (kets..., bras...).

    Construction validates shape, finiteness, the ket/bra exchange
    symmetry and positive semidefiniteness of the flattened matrix by one
    eigensolve, then stores the exactly symmetrized entries and, as
    ``spectrum``, the flattened matrix's factor.
    """

    spaces: tuple[int, ...]
    entries: np.ndarray
    spectrum: psd.Spectrum = field(init=False, repr=False)
    # The scale of the PSD operands the entries were computed from, if any.
    _scale: InitVar[float] = field(default=0.0, kw_only=True)

    def __post_init__(self, _scale):
        spaces = tuple(int(d) for d in self.spaces)
        if any(d < 1 for d in spaces):
            raise DimensionMismatch("all space dimensions must be >= 1")
        dim = flat_dim(spaces)
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != spaces + spaces:
            raise DimensionMismatch(
                f"entries shape {entries.shape} does not match spaces {spaces}"
            )
        m = psd._symmetrized(entries.reshape(dim, dim), _scale)
        factor = psd._psd_spectrum(m, "flattened tensor", scale=_scale)
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "entries", factor.matrix.reshape(spaces + spaces))
        object.__setattr__(self, "spectrum", factor)

    @property
    def dim(self) -> int:
        return prod(self.spaces)

    @property
    def matrix(self) -> np.ndarray:
        """The tensor flattened to a ``dim x dim`` symmetric matrix."""
        return self.spectrum.matrix

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

    ``meaning`` is the word's validated density tensor over the spaces of
    its type.  Relative pronouns carry a ``frobenius`` marker and may have
    no meaning.
    """

    word: str
    type: PregroupType
    meaning: Optional[DensityTensor] = None
    frobenius: Optional[str] = None


def word_meaning(entry: WordEntry, spaces: SpaceAssignment) -> DensityTensor:
    """The density tensor of a word, checked against the given spaces."""
    dims = space_dims(entry.type, spaces)
    if entry.meaning is None:
        raise WeightError(f"word '{entry.word}' has no meaning")
    if entry.meaning.spaces != dims:
        raise DimensionMismatch(
            f"word '{entry.word}': tensor over spaces {entry.meaning.spaces} "
            f"does not match type '{entry.type}' over spaces {dims}"
        )
    return entry.meaning


def _top(tensors) -> float:
    """The product of the tensors' top eigenvalues: the scale of what they compose."""
    return prod(float(t.spectrum.w[-1]) for t in tensors)


def evaluate(
    words: Sequence[tuple[DensityTensor, PregroupType]],
    pattern: ReductionPattern,
    spaces: SpaceAssignment,
) -> DensityTensor:
    """Contract word tensors along a reduction pattern.

    For every matched pair of positions the ket indices are summed against
    each other and the bra indices likewise; the result ranges over the
    survivor positions in pattern order.

    The plan (see ``_plan``) depends only on the pattern and the dimensions
    of each word's positions, so it is made once per such structure and
    cached.  A call runs the plan's stored steps: ``np.trace`` over each
    pair of axes a word contracts within itself, then ``np.tensordot``
    steps that join two operands at a time, then one transpose to the
    output order.  A plan that costs more than ``MAX_CONTRACTION_FLOPS``
    raises ``TensorTooLarge`` before any contraction runs.
    """
    dims: list[int] = []
    counts = []
    for tensor, ptype in words:
        type_dims = space_dims(ptype, spaces)
        if tensor.spaces != type_dims:
            raise DimensionMismatch(
                f"tensor over spaces {tensor.spaces} does not match type "
                f"'{ptype}' over spaces {type_dims}"
            )
        dims.extend(type_dims)
        counts.append(len(type_dims))
    traces, steps, out_axes = _plan(pattern, tuple(dims), tuple(counts))
    operands = [tensor.entries for tensor, _ in words]
    for word, axis1, axis2 in traces:
        operands[word] = np.trace(operands[word], axis1=axis1, axis2=axis2)
    for positions, axes in steps:
        args = [operands.pop(k) for k in positions]
        operands.append(np.tensordot(*args, axes))
    entries = operands[0].transpose(out_axes)
    scale = _top(t for t, _ in words)
    return DensityTensor(tuple(dims[p] for p in pattern.survivors), entries, _scale=scale)


@lru_cache(maxsize=256)
def _plan(pattern: ReductionPattern, dims: tuple[int, ...], counts: tuple[int, ...]):
    """Check a contraction structure and plan it once, greedily.

    ``dims`` gives the dimension of every position and ``counts`` the
    number of positions of each word, in order.  Position ``p`` carries
    ket label ``p`` and bra label ``n + p``; a match relabels its right
    position with its left one, so a label names one survivor or two
    matched positions, and has dimension ``dims[label % n]``.

    Returns ``(traces, steps, out_axes)``.  A trace ``(word, axis1, axis2)``
    sums a label that repeats within one word's own labels; traces run
    first, in order.  A step ``(positions, axes)`` pops the operands at
    ``positions`` (the higher first) and appends their ``np.tensordot``
    over ``axes``, which sums every label the two share.  Each step joins
    the pair that shrinks the total size most, then the one that touches
    the smallest product of dimensions, then the one whose positions,
    higher first, sort first; it looks only at pairs that share a label,
    found through the labels' owners, unless no pair does.  ``out_axes``
    takes the last result to the survivors' kets and then their bras.  The
    plan's cost, the sum over all traces and steps of the product of the
    dimensions each touches, must not exceed ``MAX_CONTRACTION_FLOPS``.
    """
    n = len(dims)
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

    def size(labels) -> int:
        return prod(dims[label % n] for label in labels)

    # Each live operand's labels, in the order its array holds them.
    held: list[tuple[int, ...]] = []
    traces = []
    cost = 0
    start = 0
    for word, count in enumerate(counts):
        positions = range(start, start + count)
        labels = [ket[p] for p in positions] + [bra[p] for p in positions]
        start += count
        for label in dict.fromkeys(labels):
            if labels.count(label) == 2:
                cost += size(set(labels))
                axis1 = labels.index(label)
                axis2 = labels.index(label, axis1 + 1)
                traces.append((word, axis1, axis2))
                del labels[axis2], labels[axis1]
        held.append(tuple(labels))

    def rank(pair):
        left, right = (set(held[k]) for k in pair)
        shrink = size(left) + size(right) - size(left ^ right)
        return (-shrink, size(left | right), pair[::-1])

    steps = []
    while len(held) > 1:
        owners: dict[int, list[int]] = {}
        for k, labels in enumerate(held):
            for label in labels:
                owners.setdefault(label, []).append(k)
        pairs = {tuple(ks) for ks in owners.values() if len(ks) == 2}
        if not pairs:
            pairs = combinations(range(len(held)), 2)
        i, j = min(pairs, key=rank)
        cost += size(set(held[i]) | set(held[j]))
        left, right = held.pop(j), held.pop(i)
        summed = [label for label in left if label in right]
        axes = (
            tuple(left.index(label) for label in summed),
            tuple(right.index(label) for label in summed),
        )
        steps.append(((j, i), axes))
        held.append(tuple(label for label in left + right if label not in summed))
    if cost > MAX_CONTRACTION_FLOPS:
        raise TensorTooLarge(
            f"contraction plan costs {cost} flops, over the cap of {MAX_CONTRACTION_FLOPS}"
        )
    out_labels = [ket[p] for p in pattern.survivors] + [bra[p] for p in pattern.survivors]
    return tuple(traces), tuple(steps), tuple(held[0].index(label) for label in out_labels)


def frobenius_mu(rho: DensityTensor, sigma: DensityTensor) -> DensityTensor:
    """Doubled merging: the entrywise product of two single-space tensors."""
    if len(rho.spaces) != 1 or len(sigma.spaces) != 1:
        raise DimensionMismatch("merging is defined on single-space tensors")
    if rho.spaces != sigma.spaces:
        raise DimensionMismatch(f"spaces {rho.spaces} vs {sigma.spaces}")
    return DensityTensor(rho.spaces, rho.entries * sigma.entries, _scale=_top((rho, sigma)))


def frobenius_iota(rho: DensityTensor, space_index: int) -> DensityTensor:
    """Doubled deletion of one space.

    Sums all entries over the deleted ket/bra index pair: the literal
    doubling of the basis-deleting map.
    """
    m = len(rho.spaces)
    if not 0 <= space_index < m:
        raise IndexError(f"space index {space_index} out of range for {m} spaces")
    entries = rho.entries.sum(axis=(space_index, m + space_index))
    remaining = tuple(d for i, d in enumerate(rho.spaces) if i != space_index)
    return DensityTensor(remaining, entries, _scale=_top((rho,)))


def relative_clause(
    subj: DensityTensor, verb: DensityTensor, obj: DensityTensor
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
    # The sentence indices 2 and 4 are left out of the output: the deletion.
    entries = np.einsum(
        subj.entries, [0, 1], verb.entries, [0, 2, 3, 1, 4, 5], obj.entries, [3, 5], [0, 1]
    )
    return DensityTensor((verb.spaces[0],), entries, _scale=_top((subj, verb, obj)))

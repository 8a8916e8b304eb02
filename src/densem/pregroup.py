"""Pregroup types and type reduction.

Concrete syntax: a type is a space-separated list of simple types; each
simple type is a base symbol followed by zero or more ``.l`` / ``.r``
adjoint suffixes (``"n.r s n.l"`` is a transitive verb).  ``"1"`` denotes
the unit (empty) type.  A ``.r`` suffix increments the adjoint exponent,
``.l`` decrements it, so ``n.l.l`` has exponent -2.

A reduction contracts adjacent-in-derivation pairs with equal base and
exponents ``(z, z+1)`` in left-to-right order; the unmatched survivors must
spell out the target type.  :func:`reduce` returns the deterministic
leftmost-innermost reduction pattern, or ``None`` when no reduction exists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ReductionTooLarge, TypeSyntaxError

_BASE_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Cap on the candidate partners ``reduce`` may try in one search.  A
# 5,000-word chain tries about 10k and a grammatical 801-word sentence 80k.
MAX_REDUCE_CANDIDATES = 2**20


@dataclass(frozen=True)
class SimpleType:
    """A base symbol with an integer adjoint exponent (0 = plain)."""

    base: str
    z: int = 0

    def __str__(self) -> str:
        if self.z > 0:
            return self.base + ".r" * self.z
        if self.z < 0:
            return self.base + ".l" * (-self.z)
        return self.base


@dataclass(frozen=True)
class PregroupType:
    """An ordered sequence of simple types; the empty sequence is the unit."""

    simples: tuple[SimpleType, ...] = ()

    def __str__(self) -> str:
        if not self.simples:
            return "1"
        return " ".join(str(s) for s in self.simples)

    def __len__(self) -> int:
        return len(self.simples)

    def __iter__(self):
        return iter(self.simples)


def _parse_simple(token: str, offset: int) -> SimpleType:
    match = _BASE_RE.match(token)
    if match is None:
        raise TypeSyntaxError("expected a base symbol", position=offset)
    base = match.group()
    z = 0
    i = match.end()
    while i < len(token):
        chunk = token[i : i + 2]
        if chunk == ".l":
            z -= 1
        elif chunk == ".r":
            z += 1
        else:
            raise TypeSyntaxError("expected '.l' or '.r'", position=offset + i)
        i += 2
    return SimpleType(base, z)


def parse_type(text: str) -> PregroupType:
    """Parse the concrete type syntax, raising :class:`TypeSyntaxError`."""
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise TypeSyntaxError("empty type expression", position=0)
    if any(tok == "1" for tok, _ in tokens):
        if len(tokens) != 1:
            offset = next(off for tok, off in tokens if tok == "1")
            raise TypeSyntaxError("the unit '1' cannot be combined", position=offset)
        return PregroupType(())
    return PregroupType(tuple(_parse_simple(tok, off) for tok, off in tokens))


@dataclass(frozen=True)
class ReductionPattern:
    """A non-crossing matching of flattened type positions.

    ``matches`` holds index pairs ``(i, j)`` with ``i < j`` that are
    contracted away; ``survivors`` lists the unmatched positions in order,
    spelling out the target type.
    """

    matches: frozenset[tuple[int, int]]
    survivors: tuple[int, ...]


def flatten(sequence: Sequence[PregroupType]) -> tuple[SimpleType, ...]:
    """Concatenate the simple types of a sequence of pregroup types."""
    return tuple(s for t in sequence for s in t.simples)


def _contractible(left: SimpleType, right: SimpleType) -> bool:
    return left.base == right.base and right.z == left.z + 1


def reduce(
    sequence: Sequence[PregroupType], target: PregroupType
) -> Optional[ReductionPattern]:
    """Find a reduction of ``sequence`` to ``target``, or ``None``.

    The search is a memoized interval decomposition.  ``derive(i, j, t)``
    reduces the segment ``flat[i:j]`` to ``tgt[t:]``; an enclosed segment
    must reduce to nothing, so it passes ``t = len(tgt)``.  The first
    simple of a segment either contracts with a partner, when the enclosed
    and the remaining segments both reduce, or survives as the next target
    symbol.  Candidate partners are tried nearest-first and contraction is
    preferred over survival, which makes the returned pattern the
    leftmost-innermost one and the search deterministic.

    A contraction removes the exponents ``z`` and ``z + 1`` of one base, so
    a segment that reduces to nothing has, for each base, a zero alternating
    sum of ``(-1)^z``.  A partner whose enclosed segment fails that test
    cannot succeed and is skipped, which leaves the pattern unchanged; the
    test compares two prefix sums per base.

    ``derive`` yields each segment it needs, decided on an explicit stack (an
    empty one reduces only to nothing), so no recursion limit bounds the
    sentence.  A result is a tree ``(pair, inner, rest)``, or ``()``.

    Every candidate partner tried counts against ``MAX_REDUCE_CANDIDATES``;
    a search that passes it raises :class:`ReductionTooLarge`.
    """
    if not sequence:
        raise ValueError("sequence of types must be nonempty")
    flat = flatten(sequence)
    tgt = target.simples
    n = len(flat)
    end = len(tgt)
    if not n:
        return None if end else ReductionPattern(frozenset(), ())
    memo: dict[tuple[int, int, int], Optional[tuple]] = {}
    sums = dict.fromkeys((s.base for s in flat), 0)
    prefix = [tuple(sums.values())]  # prefix[k]: per-base sums of (-1)^z over flat[:k]
    for s in flat:
        sums[s.base] += -1 if s.z % 2 else 1
        prefix.append(tuple(sums.values()))

    tried = 0

    def derive(i: int, j: int, t: int):
        nonlocal tried
        for m in range(i + 1, j, 2):
            tried += 1
            if not _contractible(flat[i], flat[m]) or prefix[i + 1] != prefix[m]:
                continue
            inner = yield (i + 1, m, end)
            if inner is None:
                continue
            rest = yield (m + 1, j, t)
            if rest is None:
                continue
            return ((i, m), inner, rest)
        if t < end and flat[i] == tgt[t]:
            return (yield (i + 1, j, t + 1))
        return None

    stack = [((0, n, 0), derive(0, n, 0))]
    result = None
    while stack:
        if tried > MAX_REDUCE_CANDIDATES:
            raise ReductionTooLarge(
                f"type reduction of {n} simple types tried more than "
                f"{MAX_REDUCE_CANDIDATES} candidate partners"
            )
        key, frame = stack[-1]
        try:
            needed = frame.send(result)
        except StopIteration as done:
            result = memo[key] = done.value
            stack.pop()
            continue
        if needed[0] == needed[1]:
            result = () if needed[2] == end else None
        elif needed in memo:
            result = memo[needed]
        else:
            stack.append((needed, derive(*needed)))
            result = None

    if result is None:
        return None
    pairs, trees = [], [result]
    while trees:
        tree = trees.pop()
        if tree:
            pairs.append(tree[0])
            trees += tree[1:]
    matched = {index for pair in pairs for index in pair}
    survivors = tuple(i for i in range(n) if i not in matched)
    return ReductionPattern(frozenset(pairs), survivors)


def is_grammatical(sequence: Sequence[PregroupType], target: PregroupType) -> bool:
    """True when the type sequence reduces to the target type."""
    return reduce(sequence, target) is not None

"""Lexicon files: JSON documents mapping words to types and meanings.

A lexicon has two top-level keys: ``spaces``, assigning a dimension to
every atomic base symbol, and ``words``, an array of entries::

    {
      "spaces": {"n": 2, "s": 1},
      "words": [
        {"word": "john", "type": "n",
         "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1, 0]}]}},
        {"word": "kicks", "type": "n.r s n.l",
         "meaning": {"matrix": [[...], ...]}},
        {"word": "who", "type": "n.r n s.l n", "frobenius": "subject"}
      ]
    }

A meaning is either a ``pure_mixture`` (weights summing to one, vectors
over the flattened type space) or an explicit flattened ``matrix``.
Relative pronouns carry ``"frobenius": "subject"`` and may omit the
meaning.  Words are matched case-insensitively; multiword tokens use
underscores (``the_siblings``).  Each meaning is validated and built into
its density tensor once, when the lexicon is parsed.

:func:`compose_sentence` and :func:`word_product_bound` run the sentence
pipeline over a lexicon: look up, reduce, contract, and bound the sentence
strength by the product of the word strengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .entailment import k_max
from .errors import (
    DensemError,
    DuplicateWordError,
    LexiconIOError,
    SchemaError,
    StructureMismatch,
    TensorTooLarge,
    TypeSyntaxError,
    UngrammaticalSentence,
    UnknownWordError,
)
from .pregroup import PregroupType, parse_type, reduce
from .semantics import (
    DensityTensor,
    WordEntry,
    evaluate,
    flat_dim,
    relative_clause,
    space_dims,
    word_meaning,
)

_WORD_KEYS = {"word", "type", "meaning", "frobenius"}
_MEANING_KEYS = {"pure_mixture", "matrix"}
_FROBENIUS_MARKERS = {"subject"}


@dataclass(frozen=True)
class Lexicon:
    """Validated space assignment plus word entries keyed by lowercase word."""

    spaces: dict[str, int]
    words: dict[str, WordEntry]

    def lookup(self, token: str) -> WordEntry:
        entry = self.words.get(token.lower())
        if entry is None:
            raise UnknownWordError([token])
        return entry

    def lookup_sentence(self, sentence: str) -> list[WordEntry]:
        tokens = sentence.split()
        if not tokens:
            raise UnknownWordError(["<empty sentence>"])
        missing = [t for t in tokens if t.lower() not in self.words]
        if missing:
            raise UnknownWordError(missing)
        return [self.words[t.lower()] for t in tokens]


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "number too large for a float") from None


def _parse_spaces(data, path: str) -> dict[str, int]:
    _require(isinstance(data, dict), path, "expected an object mapping base symbols to dimensions")
    _require(bool(data), path, "at least one space must be declared")
    spaces: dict[str, int] = {}
    for base, dim in data.items():
        entry_path = f"{path}.{base}"
        _require(isinstance(base, str) and base.isidentifier(), entry_path, "base symbol must be an identifier")
        _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1, entry_path, "dimension must be an integer >= 1")
        spaces[base] = dim
    return spaces


def _parse_mixture(data, path: str, size: int) -> np.ndarray:
    """The mixture's flattened matrix, the sum of ``weight * v v^T``."""
    _require(isinstance(data, list) and data, path, "expected a nonempty array of weighted vectors")
    matrix = np.zeros((size, size))
    total = 0.0
    for i, item in enumerate(data):
        item_path = f"{path}[{i}]"
        _require(isinstance(item, dict), item_path, "expected an object with 'weight' and 'vector'")
        _require(set(item) == {"weight", "vector"}, item_path, "keys must be exactly 'weight' and 'vector'")
        weight = _number(item["weight"], f"{item_path}.weight")
        _require(weight >= 0, f"{item_path}.weight", "weight must be nonnegative")
        vector = item["vector"]
        _require(isinstance(vector, list), f"{item_path}.vector", "expected an array of numbers")
        values = [_number(v, f"{item_path}.vector[{j}]") for j, v in enumerate(vector)]
        _require(
            len(values) == size,
            f"{item_path}.vector",
            f"expected length {size} for this word's type, got {len(values)}",
        )
        v = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused when the tensor is built
            matrix += weight * np.outer(v, v)
        total += weight
    _require(abs(total - 1.0) <= 1e-8, path, f"weights sum to {total!r}, expected 1")
    return matrix


def _parse_matrix(data, path: str, size: int) -> np.ndarray:
    _require(isinstance(data, list) and len(data) == size, path, f"expected {size} rows")
    rows = []
    for i, row in enumerate(data):
        row_path = f"{path}[{i}]"
        _require(isinstance(row, list) and len(row) == size, row_path, f"expected {size} entries")
        rows.append([_number(v, f"{row_path}[{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _parse_word(data, path: str, spaces: dict[str, int]) -> WordEntry:
    _require(isinstance(data, dict), path, "expected an object")
    _require(set(data) <= _WORD_KEYS, path, f"unknown keys {sorted(set(data) - _WORD_KEYS)}")
    _require("word" in data, path, "missing 'word'")
    _require("type" in data, path, "missing 'type'")
    word = data["word"]
    _require(isinstance(word, str) and word and not any(c.isspace() for c in word), f"{path}.word", "word must be a nonempty token without whitespace")
    try:
        ptype = parse_type(data["type"]) if isinstance(data["type"], str) else None
    except TypeSyntaxError as exc:
        raise SchemaError(f"{path}.type", str(exc)) from exc
    _require(ptype is not None, f"{path}.type", "type must be a string")
    for simple in ptype.simples:
        _require(
            simple.base in spaces,
            f"{path}.type",
            f"base '{simple.base}' has no declared space dimension",
        )
    dims = space_dims(ptype, spaces)

    frobenius = data.get("frobenius")
    if frobenius is not None:
        _require(
            frobenius in _FROBENIUS_MARKERS,
            f"{path}.frobenius",
            f"unsupported marker {frobenius!r}; expected one of {sorted(_FROBENIUS_MARKERS)}",
        )

    tensor = None
    if "meaning" in data:
        meaning = data["meaning"]
        meaning_path = f"{path}.meaning"
        _require(isinstance(meaning, dict), meaning_path, "expected an object")
        keys = set(meaning)
        _require(
            len(keys) == 1 and keys <= _MEANING_KEYS,
            meaning_path,
            "expected exactly one of 'pure_mixture' or 'matrix'",
        )
        try:
            size = flat_dim(dims)
        except TensorTooLarge as exc:
            raise SchemaError(meaning_path, str(exc)) from exc
        if "pure_mixture" in meaning:
            matrix = _parse_mixture(meaning["pure_mixture"], f"{meaning_path}.pure_mixture", size)
        else:
            matrix = _parse_matrix(meaning["matrix"], f"{meaning_path}.matrix", size)
        try:
            tensor = DensityTensor.from_matrix(matrix, dims)
        except DensemError as exc:
            raise SchemaError(meaning_path, str(exc)) from exc
    else:
        _require(
            frobenius is not None,
            path,
            "missing 'meaning' (only frobenius-marked pronouns may omit it)",
        )

    return WordEntry(word=word.lower(), type=ptype, meaning=tensor, frobenius=frobenius)


def parse_lexicon(data) -> Lexicon:
    """Validate a decoded lexicon document, reporting paths on failure."""
    _require(isinstance(data, dict), "$", "expected a JSON object")
    _require(set(data) == {"spaces", "words"}, "$", "top-level keys must be exactly 'spaces' and 'words'")
    spaces = _parse_spaces(data["spaces"], "spaces")
    _require(isinstance(data["words"], list), "words", "expected an array of word entries")
    words: dict[str, WordEntry] = {}
    for i, raw in enumerate(data["words"]):
        entry = _parse_word(raw, f"words[{i}]", spaces)
        if entry.word in words:
            raise DuplicateWordError(f"words[{i}].word", f"word '{entry.word}' is declared twice")
        words[entry.word] = entry
    return Lexicon(spaces=spaces, words=words)


def load_lexicon(path) -> Lexicon:
    """Read and validate a lexicon JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconIOError(f"cannot read lexicon file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return parse_lexicon(data)


def _is_subject_relative(entries: Sequence[WordEntry]) -> bool:
    """True for ``subject who verb object`` typed ``n | n.r n s.l n | n.r s n.l | n``.

    ``n`` is the subject's base, ``s`` the verb's middle base, and the
    pronoun must carry the ``subject`` marker.
    """
    if len(entries) != 4 or entries[1].frobenius != "subject":
        return False
    try:
        n = entries[0].type.simples[0].base
        s = entries[2].type.simples[1].base
    except IndexError:
        return False
    return [str(e.type) for e in entries] == [n, f"{n}.r {n} {s}.l {n}", f"{n}.r {s} {n}.l", n]


def compose_sentence(
    lexicon: Lexicon,
    sentence: str,
    target: PregroupType,
    frobenius_pronouns: bool = False,
) -> tuple[DensityTensor, list[WordEntry]]:
    """Compose ``sentence`` into a density tensor of type ``target``.

    Returns the tensor and the sentence's lexicon entries.  Raises
    :class:`UngrammaticalSentence` when the word types do not reduce to
    ``target``.  With ``frobenius_pronouns``, a sentence holding a marked
    pronoun must be a subject relative clause (``subject who verb
    object``), evaluated by the Frobenius recipe; any other raises
    :class:`StructureMismatch`.
    """
    entries = lexicon.lookup_sentence(sentence)
    pattern = reduce([entry.type for entry in entries], target)
    if pattern is None:
        raise UngrammaticalSentence(f"'{sentence}' does not reduce to type '{target}'")
    if frobenius_pronouns and any(e.frobenius for e in entries):
        if not _is_subject_relative(entries):
            raise StructureMismatch(
                "frobenius evaluation supports 'subject pronoun verb object' phrases"
            )
        subj, _, verb, obj = entries
        tensor = relative_clause(
            word_meaning(subj, lexicon.spaces),
            word_meaning(verb, lexicon.spaces),
            word_meaning(obj, lexicon.spaces),
        )
        return tensor, entries
    tensors = [(word_meaning(entry, lexicon.spaces), entry.type) for entry in entries]
    return evaluate(tensors, pattern, lexicon.spaces), entries


def word_product_bound(
    lexicon: Lexicon,
    entries_a: Sequence[WordEntry],
    entries_b: Sequence[WordEntry],
) -> float:
    """The product of the word-by-word strengths of two sentences.

    The paper's lower bound on the strength of sentence A into sentence B
    when both share one grammatical structure, from the words' stored
    factors at one ``r x r`` solve a pair.  Raises :class:`StructureMismatch`
    when the sentences differ in length or word types, or when a word of A
    has no strength into its counterpart in B.
    """
    if len(entries_a) != len(entries_b) or any(
        a.type != b.type for a, b in zip(entries_a, entries_b)
    ):
        raise StructureMismatch("sentences differ in length or word types")
    bound = 1.0
    for a, b in zip(entries_a, entries_b):
        result = k_max(
            word_meaning(a, lexicon.spaces).spectrum,
            word_meaning(b, lexicon.spaces).spectrum,
        )
        if not result.supports_contained:
            raise StructureMismatch(
                f"'{a.word}' has no entailment strength into '{b.word}'"
            )
        bound *= result.k_max
    return bound

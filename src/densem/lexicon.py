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
underscores (``the_siblings``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from .errors import (
    DensemError,
    DuplicateWordError,
    LexiconIOError,
    SchemaError,
    TypeSyntaxError,
    UnknownWordError,
)
from .pregroup import parse_type
from .semantics import WordEntry, space_dims, word_meaning

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
    return float(value)


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


def _parse_mixture(data, path: str, size: int) -> tuple[tuple[float, np.ndarray], ...]:
    _require(isinstance(data, list) and data, path, "expected a nonempty array of weighted vectors")
    mixture = []
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
        mixture.append((weight, np.array(values)))
    total = sum(w for w, _ in mixture)
    _require(abs(total - 1.0) <= 1e-8, path, f"weights sum to {total!r}, expected 1")
    return tuple(mixture)


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
    size = prod(space_dims(ptype, spaces)) if ptype.simples else 1

    frobenius = data.get("frobenius")
    if frobenius is not None:
        _require(
            frobenius in _FROBENIUS_MARKERS,
            f"{path}.frobenius",
            f"unsupported marker {frobenius!r}; expected one of {sorted(_FROBENIUS_MARKERS)}",
        )

    mixture = None
    matrix = None
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
        if "pure_mixture" in meaning:
            mixture = _parse_mixture(meaning["pure_mixture"], f"{meaning_path}.pure_mixture", size)
        else:
            matrix = _parse_matrix(meaning["matrix"], f"{meaning_path}.matrix", size)
    else:
        _require(
            frobenius is not None,
            path,
            "missing 'meaning' (only frobenius-marked pronouns may omit it)",
        )

    entry = WordEntry(
        word=word.lower(),
        type=ptype,
        mixture=mixture,
        matrix=matrix,
        frobenius=frobenius,
    )
    if mixture is not None or matrix is not None:
        try:
            word_meaning(entry, spaces)
        except DensemError as exc:
            raise SchemaError(f"{path}.meaning", str(exc)) from exc
    return entry


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


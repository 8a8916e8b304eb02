"""Tests for lexicon loading and schema validation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from densem.errors import (
    DuplicateWordError,
    LexiconIOError,
    SchemaError,
    UnknownWordError,
)
from densem.lexicon import load_lexicon, parse_lexicon
from helpers import FIXTURES


def minimal_doc():
    return {
        "spaces": {"n": 2, "s": 1},
        "words": [
            {
                "word": "john",
                "type": "n",
                "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1, 0]}]},
            },
            {
                "word": "kicks",
                "type": "n.r s n.l",
                "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [0, 1, 0, 0]}]},
            },
            {
                "word": "cats",
                "type": "n",
                "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [0, 1]}]},
            },
        ],
    }


class TestLoad:
    def test_fixture_loads(self):
        lexicon = load_lexicon(FIXTURES / "kicks.json")
        assert set(lexicon.words) == {"john", "cats", "kicks", "sleeps", "who"}
        assert lexicon.spaces == {"n": 2, "s": 1}

    def test_three_word_document(self):
        lexicon = parse_lexicon(minimal_doc())
        assert len(lexicon.words) == 3

    def test_missing_file(self):
        with pytest.raises(LexiconIOError):
            load_lexicon(FIXTURES / "does-not-exist.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError) as excinfo:
            load_lexicon(path)
        assert excinfo.value.path == "$"

    def test_truth_theoretic_lexicon_loads(self):
        lexicon = load_lexicon(FIXTURES / "truth.json")
        assert {"annie", "betty", "chris", "students", "enjoy", "holidays"} <= set(
            lexicon.words
        )


class TestSchema:
    def test_undeclared_base(self):
        doc = minimal_doc()
        doc["words"][0]["type"] = "q"
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "words[0].type"

    def test_duplicate_word(self):
        doc = minimal_doc()
        doc["words"].append(dict(doc["words"][0]))
        with pytest.raises(DuplicateWordError):
            parse_lexicon(doc)

    def test_duplicate_is_case_insensitive(self):
        doc = minimal_doc()
        clone = dict(doc["words"][0])
        clone["word"] = "JOHN"
        doc["words"].append(clone)
        with pytest.raises(DuplicateWordError):
            parse_lexicon(doc)

    def test_weights_must_sum_to_one(self):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = {
            "pure_mixture": [{"weight": 0.9, "vector": [1, 0]}]
        }
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert "pure_mixture" in excinfo.value.path

    def test_vector_length_checked(self):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = {
            "pure_mixture": [{"weight": 1.0, "vector": [1, 0, 0]}]
        }
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "words[0].meaning.pure_mixture[0].vector"

    @pytest.mark.parametrize(
        "meaning, path",
        [
            ({"pure_mixture": [{"weight": 1.0, "vector": [1, 10**400]}]}, "pure_mixture[0].vector[1]"),
            ({"pure_mixture": [{"weight": 10**400, "vector": [1, 0]}]}, "pure_mixture[0].weight"),
            ({"matrix": [[1.0, 0.0], [0.0, 10**400]]}, "matrix[1][1]"),
        ],
        ids=["vector", "weight", "matrix"],
    )
    def test_number_too_large_for_a_float(self, meaning, path):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = meaning
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == f"words[0].meaning.{path}"

    def test_overflowing_mixture_fails_without_a_warning(self):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = {
            "pure_mixture": [{"weight": 1.0, "vector": [1e200, 1e200]}]
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as excinfo:
                parse_lexicon(doc)
        assert excinfo.value.path == "words[0].meaning"
        assert "NaN or Inf" in str(excinfo.value)

    def test_matrix_must_be_psd(self):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = {"matrix": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "words[0].meaning"

    def test_valid_matrix_meaning(self):
        doc = minimal_doc()
        doc["words"][0]["meaning"] = {"matrix": [[0.5, 0.0], [0.0, 0.5]]}
        lexicon = parse_lexicon(doc)
        np.testing.assert_array_equal(
            lexicon.words["john"].meaning.matrix, [[0.5, 0.0], [0.0, 0.5]]
        )

    def test_oversized_meaning_refused_before_allocation(self):
        doc = {
            "spaces": {"n": 2048},
            "words": [
                {
                    "word": "big",
                    "type": "n",
                    "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1] + [0] * 2047}]},
                }
            ],
        }
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as excinfo:
                parse_lexicon(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.path == "words[0].meaning"
        assert "exceeds the cap" in str(excinfo.value)
        assert peak < 8 * 2**20

    def test_pronoun_without_meaning_is_not_capped(self):
        doc = {
            "spaces": {"n": 2048, "s": 1},
            "words": [{"word": "who", "type": "n.r n s.l n", "frobenius": "subject"}],
        }
        assert parse_lexicon(doc).words["who"].meaning is None

    def test_meaning_required_without_marker(self):
        doc = minimal_doc()
        del doc["words"][0]["meaning"]
        with pytest.raises(SchemaError):
            parse_lexicon(doc)

    def test_frobenius_marker_allows_missing_meaning(self):
        doc = minimal_doc()
        doc["words"].append({"word": "who", "type": "n.r n s.l n", "frobenius": "subject"})
        lexicon = parse_lexicon(doc)
        assert lexicon.words["who"].frobenius == "subject"

    def test_unknown_frobenius_marker(self):
        doc = minimal_doc()
        doc["words"].append({"word": "whom", "type": "n", "frobenius": "object"})
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "words[3].frobenius"

    def test_type_syntax_error_is_schema_error(self):
        doc = minimal_doc()
        doc["words"][1]["type"] = "n.q s"
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "words[1].type"

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            parse_lexicon(doc)

    def test_dimension_must_be_positive_integer(self):
        doc = minimal_doc()
        doc["spaces"]["n"] = 0
        with pytest.raises(SchemaError) as excinfo:
            parse_lexicon(doc)
        assert excinfo.value.path == "spaces.n"

    def test_json_is_fixture_safe(self):
        for name in ("kicks", "scoff_eat", "truth", "gretel", "siblings", "relative"):
            load_lexicon(FIXTURES / f"{name}.json")


class TestLookup:
    def test_case_insensitive(self):
        lexicon = load_lexicon(FIXTURES / "kicks.json")
        assert lexicon.lookup("John").word == "john"

    def test_unknown_word_lists_offenders(self):
        lexicon = load_lexicon(FIXTURES / "kicks.json")
        with pytest.raises(UnknownWordError) as excinfo:
            lexicon.lookup_sentence("John kicks doors and walls")
        assert excinfo.value.words == ("doors", "and", "walls")

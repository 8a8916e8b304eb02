"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import densem
import densem.cli
import densem.errors
from densem.cli import main
from densem.errors import StructureMismatch
from helpers import FIXTURES

KICKS = str(FIXTURES / "kicks.json")
SCOFF = str(FIXTURES / "scoff_eat.json")
TRUTH = str(FIXTURES / "truth.json")
SIBLINGS = str(FIXTURES / "siblings.json")
RELATIVE = str(FIXTURES / "relative.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_transitive_sentence(self, capsys):
        code, out, _ = run(capsys, "parse", "--lexicon", KICKS, "John kicks cats")
        assert code == 0
        assert "types: n | n.r s n.l | n" in out
        assert "matches: (0,1) (3,4)" in out
        assert "survivors: 2" in out
        assert "grammatical: yes" in out

    def test_ungrammatical_exits_two(self, capsys):
        code, out, _ = run(capsys, "parse", "--lexicon", KICKS, "John John")
        assert code == 2
        assert "grammatical: no" in out

    def test_relative_clause_to_noun(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--lexicon", KICKS, "--target", "n", "John who kicks cats"
        )
        assert code == 0
        assert "matches: (0,1) (3,6) (4,5) (7,8)" in out
        assert "survivors: 2" in out

    def test_unknown_word_exits_one(self, capsys):
        code, _, err = run(capsys, "parse", "--lexicon", KICKS, "John pets dogs")
        assert code == 1
        assert "pets" in err and "dogs" in err

    def test_missing_lexicon_exits_one(self, capsys):
        code, _, err = run(capsys, "parse", "--lexicon", "/nonexistent.json", "John")
        assert code == 1
        assert "error" in err


class TestCompose:
    def test_scalar_sentence(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--lexicon", TRUTH, "students enjoy holidays"
        )
        assert code == 0
        assert "matrix 1x1:" in out
        assert "0.666666667" in out
        assert "trace: 0.666666667" in out

    def test_pure_sentence_is_rank_one(self, capsys):
        code, out, _ = run(capsys, "compose", "--lexicon", KICKS, "John kicks cats")
        assert code == 0
        assert "matrix 1x1:" in out
        assert "max_eigenvalue: 1" in out

    def test_unit_target_scalar(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--lexicon", KICKS, "--target", "1", "John sleeps"
        )
        assert code == 0
        assert "type: 1" in out
        assert "matrix 1x1:" in out

    def test_normalize_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "--lexicon",
            TRUTH,
            "--normalize",
            "trace",
            "students enjoy holidays",
        )
        assert code == 0
        assert "trace: 1" in out

    def test_zero_sentence_normalization_fails_numerically(self, capsys):
        code, _, err = run(
            capsys,
            "compose",
            "--lexicon",
            SIBLINGS,
            "--normalize",
            "maxeig",
            "Gretel likes cake",
        )
        assert code == 3
        assert "error" in err

    def test_frobenius_relative_clause(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "--lexicon",
            RELATIVE,
            "--target",
            "n",
            "--frobenius-pronouns",
            "women who own animals",
        )
        assert code == 0
        assert "matrix 3x3:" in out
        assert "0.25" in out and "0.5" in out

    def test_pronoun_without_flag_needs_meaning(self, capsys):
        code, _, err = run(
            capsys,
            "compose",
            "--lexicon",
            RELATIVE,
            "--target",
            "n",
            "women who own animals",
        )
        assert code == 3
        assert "who" in err

    @pytest.mark.parametrize("defect", ["verb typed n s n.l", "unmarked pronoun"])
    def test_frobenius_shape_rejections(self, capsys, tmp_path, defect):
        doc = json.loads(Path(RELATIVE).read_text())
        words = {entry["word"]: entry for entry in doc["words"]}
        target = "n"
        if defect == "verb typed n s n.l":
            words["own"]["type"] = "n s n.l"
            target = "n s.l n n s"
        else:
            del words["who"]["frobenius"]
            words["who"]["meaning"] = {
                "pure_mixture": [{"weight": 1.0, "vector": [1] + [0] * 26}]
            }
            words["women"]["frobenius"] = "subject"
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(doc))
        sentence = "women who own animals"
        with pytest.raises(StructureMismatch):
            densem.compose_sentence(
                densem.load_lexicon(path),
                sentence,
                densem.parse_type(target),
                frobenius_pronouns=True,
            )
        code, _, err = run(
            capsys,
            "compose",
            "--lexicon",
            str(path),
            "--target",
            target,
            "--frobenius-pronouns",
            sentence,
        )
        assert code == 1
        assert "frobenius evaluation supports" in err

    def test_thirteen_adjectives_compose(self, capsys, tmp_path):
        # 27 simple types: one more position than einsum has letter pairs.
        path = tmp_path / "lexicon.json"
        path.write_text(
            json.dumps(
                {
                    "spaces": {"n": 2},
                    "words": [
                        {"word": "big", "type": "n n.l",
                         "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1, 0, 0, 1]}]}},
                        {"word": "dog", "type": "n",
                         "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1, 1]}]}},
                    ],
                }
            )
        )
        sentence = " ".join(["big"] * 13 + ["dog"])
        code, out, err = run(capsys, "compose", "--lexicon", str(path), "--target", "n", sentence)
        assert (code, err) == (0, "")
        assert "matrix 2x2:" in out

    def test_ungrammatical_exits_two(self, capsys):
        code, _, err = run(capsys, "compose", "--lexicon", KICKS, "cats John kicks")
        assert code == 2
        assert "does not reduce" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "compose", "--lexicon", SCOFF, "John eats sweets")
        _, second, _ = run(capsys, "compose", "--lexicon", SCOFF, "John eats sweets")
        assert first == second


class TestEntail:
    def test_reports_strength_and_bound(self, capsys):
        code, out, _ = run(
            capsys, "entail", "--lexicon", SCOFF, "John scoffs cake", "John eats sweets"
        )
        assert code == 0
        assert "supports_contained: yes" in out
        assert "k_max: 0.25" in out
        assert "raw_k: 0.25" in out
        assert "word_product_bound: 0.25" in out

    def test_reverse_direction_has_no_strength(self, capsys):
        code, out, _ = run(
            capsys, "entail", "--lexicon", SCOFF, "John eats sweets", "John scoffs cake"
        )
        assert code == 0
        assert "supports_contained: no" in out
        assert "k_max: none" in out

    def test_identical_sentences(self, capsys):
        code, out, _ = run(
            capsys, "entail", "--lexicon", SCOFF, "John scoffs cake", "John scoffs cake"
        )
        assert code == 0
        assert "k_max: 1" in out

    def test_structure_mismatch_still_reports_strength(self, capsys):
        code, out, _ = run(
            capsys, "entail", "--lexicon", SCOFF, "John scoffs cake", "John naps"
        )
        assert code == 0
        assert "k_max:" in out
        assert "word_product_bound: unavailable" in out

    def test_object_hyponymy_strength(self, capsys):
        code, out, _ = run(
            capsys,
            "entail",
            "--lexicon",
            str(FIXTURES / "gretel.json"),
            "Gretel likes gingerbread",
            "Gretel likes sweets",
        )
        assert code == 0
        assert "k_max: 0.1" in out

    def test_truth_theoretic_strengths(self, capsys):
        code, out, _ = run(
            capsys,
            "entail",
            "--lexicon",
            TRUTH,
            "Annie enjoys holidays",
            "students enjoy holidays",
        )
        assert code == 0
        assert "k_max: 0.666666667" in out
        assert "word_product_bound: 0.333333333" in out


# Written by the per-point disc evaluation that the stacked one replaced;
# the CSV bytes must not change.
DISC_GOLDEN_TARGETS = {
    "reference": ("0.4408389", "0.6067627"),
    "north": ("0.0", "1.0"),
    "west": ("-0.3", "0.2"),
}
DISC_GOLDENS = [
    (label, strategy, resolution)
    for label in DISC_GOLDEN_TARGETS
    for strategy, resolutions in (
        ("none", (20, 21)),
        ("trace", (20, 21)),
        ("maxeig", (20, 21)),
        ("bayes", (20,)),  # 21 would include the degenerate disc centre
    )
    for resolution in resolutions
]


class TestDisc:
    @pytest.mark.parametrize("label,strategy,resolution", DISC_GOLDENS)
    def test_matches_committed_goldens(self, capsys, tmp_path, label, strategy, resolution):
        x, z = DISC_GOLDEN_TARGETS[label]
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "disc",
            "--target-x",
            x,
            "--target-z",
            z,
            "--resolution",
            str(resolution),
            "--normalize",
            strategy,
            "--out",
            str(out_path),
        )
        assert code == 0
        golden = FIXTURES / "disc" / f"{label}_{strategy}_{resolution}.csv"
        assert out_path.read_bytes() == golden.read_bytes()

    def test_writes_grid(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys,
            "disc",
            "--target-x",
            "0.0",
            "--target-z",
            "0.5",
            "--resolution",
            "5",
            "--normalize",
            "maxeig",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,z,k"
        assert out.strip() == f"rows: {len(lines) - 1}"

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(
                capsys,
                "disc",
                "--target-x",
                "0.2",
                "--target-z",
                "-0.3",
                "--resolution",
                "9",
                "--normalize",
                "maxeig",
                "--out",
                str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_target_outside_disc(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "disc",
            "--target-x",
            "2.0",
            "--target-z",
            "0.0",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "disc" in err

    def test_bad_resolution(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "disc",
            "--target-x",
            "0.0",
            "--target-z",
            "0.0",
            "--resolution",
            "1",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "resolution" in err

    def test_resolution_over_the_cap(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys,
            "disc",
            "--target-x",
            "0.0",
            "--target-z",
            "0.0",
            "--resolution",
            "100000",
            "--out",
            str(out),
        )
        assert code == 1
        assert err.startswith("error: resolution 100000")
        assert err.count("\n") == 1
        assert not out.exists()


def _error_types(base=densem.errors.DensemError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_types(sub)


# The exit code main returns for each error type.
EXIT_CODES = {
    "DensemError": 3,
    "DimensionMismatch": 3,
    "NonFiniteInput": 3,
    "NotSymmetric": 3,
    "ConvergenceError": 3,
    "NotPositiveSemidefinite": 3,
    "NotDensityOperator": 3,
    "ZeroOperatorError": 3,
    "WeightError": 3,
    "StrengthRangeError": 3,
    "PatternMismatch": 3,
    "TensorTooLarge": 3,
    "EmptyProposition": 3,
    "OutsideDiscError": 1,
    "ResolutionError": 1,
    "TypeSyntaxError": 1,
    "SchemaError": 1,
    "DuplicateWordError": 1,
    "LexiconIOError": 1,
    "UnknownWordError": 1,
    "UngrammaticalSentence": 2,
    "StructureMismatch": 1,
}


class TestExitCodes:
    def test_every_error_type_is_pinned(self):
        found = {cls.__name__ for cls in _error_types()} | {"DensemError"}
        assert found == set(EXIT_CODES)

    @pytest.mark.parametrize(
        "error", [densem.errors.DensemError, *_error_types()], ids=lambda cls: cls.__name__
    )
    def test_main_returns_the_error_code(self, capsys, monkeypatch, error):
        exc = error.__new__(error)
        Exception.__init__(exc, "boom")

        def fail(path):
            raise exc

        monkeypatch.setattr(densem.cli, "load_lexicon", fail)
        code, out, err = run(capsys, "parse", "--lexicon", KICKS, "John kicks cats")
        assert code == EXIT_CODES[error.__name__] == error.exit_code
        assert (out, err) == ("", "error: boom\n")


class TestUsage:
    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "parse", "John kicks cats")
        assert code == 1
        assert "lexicon" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_module_invocation(self):
        # the child imports densem from the same source tree as this process
        src = str(Path(densem.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "densem",
                "parse",
                "--lexicon",
                KICKS,
                "John kicks cats",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert "grammatical: yes" in result.stdout

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "parse" in out and "disc" in out

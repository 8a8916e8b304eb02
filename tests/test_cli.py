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
ROOT = Path(__file__).resolve().parents[1]
# The benchmark's CLI goldens: argv (paths relative to the repo root) and stdout.
CLI_GOLDENS = json.loads((ROOT / "bench" / "cli_goldens.json").read_text())


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

    def test_five_thousand_word_chain(self, capsys, tmp_path):
        lexicon = {
            "spaces": {"n": 1},
            "words": [
                {"word": "a", "type": "n n.l", "meaning": {"matrix": [[1.0]]}},
                {"word": "b", "type": "n", "meaning": {"matrix": [[1.0]]}},
            ],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(lexicon))
        sentence = "a " * 4999 + "b"
        code, out, err = run(capsys, "parse", "--lexicon", str(path), "--target", "n", sentence)
        assert (code, err) == (0, "")
        assert out.endswith("survivors: 0\ngrammatical: yes\n")

    def test_runaway_reduction_is_refused(self, capsys, tmp_path):
        lexicon = {
            "spaces": {"n": 1},
            "words": [{"word": "a", "type": "n.l n", "meaning": {"matrix": [[1.0]]}}],
        }
        path = tmp_path / "balanced.json"
        path.write_text(json.dumps(lexicon))
        code, out, err = run(capsys, "parse", "--lexicon", str(path), "--target", "n", "a " * 400)
        assert code == 3
        assert out == "types: " + " | ".join(["n.l n"] * 400) + "\n"
        assert err.startswith("error: type reduction of 800 simple types")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("x, z", [("nan", "0.0"), ("0.0", "nan")])
    def test_nan_target_is_outside_the_disc(self, capsys, tmp_path, x, z):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "disc", "--target-x", x, "--target-z", z, "--out", str(out)
        )
        assert code == 1
        assert err.startswith("error: (") and "outside the closed unit disc" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("missing_directory", [True, False])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, missing_directory):
        out = tmp_path / "missing" / "x.csv" if missing_directory else tmp_path
        code, stdout, err = run(
            capsys, "disc", "--target-x", "0.0", "--target-z", "0.0", "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_fails_before_the_grid(self, capsys, monkeypatch, tmp_path):
        def fail(*args):
            raise AssertionError("the grid was built before the output was opened")

        monkeypatch.setattr(densem.cli, "disc_grid", fail)
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run(
            capsys, "disc", "--target-x", "0.0", "--target-z", "0.0",
            "--resolution", "800", "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_grid_removes_the_temp_file(self, capsys, monkeypatch, tmp_path):
        def fail(*args):
            raise densem.errors.ResolutionError("boom")

        monkeypatch.setattr(densem.cli, "disc_grid", fail)
        code, _, err = run(
            capsys, "disc", "--target-x", "0.0", "--target-z", "0.0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert (code, err) == (1, "error: boom\n")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_benchmark_cli_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    golden = CLI_GOLDENS[name]
    code, out, _ = run(capsys, *golden["argv"])
    assert code == 0
    assert out == golden["stdout"]


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
    "ReductionTooLarge": 3,
    "EmptyProposition": 3,
    "OutsideDiscError": 1,
    "ResolutionError": 1,
    "TypeSyntaxError": 1,
    "SchemaError": 1,
    "DuplicateWordError": 1,
    "LexiconIOError": 1,
    "UsageError": 1,
    "OutputIOError": 1,
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


def _child_env():
    """The environment for a child process that imports densem from this source tree."""
    src = str(Path(densem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestUsage:
    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "parse", "John kicks cats")
        assert code == 1
        assert "lexicon" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["parse", "John kicks cats"], ["--lexicon"]),
            (["compose", "--lexicon", KICKS, "--normalize", "foo", "John"], ["--normalize", "foo"]),
            (["disc", "--target-x", "abc", "--target-z", "0", "--out", "x.csv"], ["--target-x", "abc"]),
            (
                ["disc", "--target-x", "0", "--target-z", "0", "--resolution", "1.5", "--out", "x.csv"],
                ["--resolution", "1.5"],
            ),
            (["parse", "--lexicon", KICKS, "--targ", "n", "John"], ["--targ"]),
            (["frobnicate"], ["frobnicate"]),
            ([], ["command"]),
        ],
        ids=["missing-lexicon", "normalize-foo", "target-x-abc", "resolution-1.5",
             "abbreviation", "unknown-command", "no-command"],
    )
    def test_usage_error_is_one_line_naming_the_offender(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in names:
            assert name in err.lower()

    def test_negative_values_in_exponent_form(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "disc", "--target-x", "-1e-05", "--target-z", "-0.3",
            "--resolution", "3", "--out", str(out),
        )
        assert (code, stdout, err) == (0, "rows: 5\n", "")

    def test_version(self, capsys):
        assert run(capsys, "--version") == (0, "densem, version 0.1.0\n", "")

    def test_command_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "parse", "--help")
        assert (code, err) == (0, "")
        assert "--lexicon" in out and "--target" in out

    def test_module_invocation(self):
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
            env=_child_env(),
        )
        assert result.returncode == 0
        assert "grammatical: yes" in result.stdout

    def test_overflowing_lexicon_prints_only_the_error(self, tmp_path):
        lexicon = {
            "spaces": {"n": 2},
            "words": [{"word": "a", "type": "n",
                       "meaning": {"pure_mixture": [{"weight": 1.0, "vector": [1e200, 1e200]}]}}],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(lexicon))
        result = subprocess.run(
            [sys.executable, "-m", "densem", "parse", "--lexicon", str(path), "--target", "n", "a"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: words[0].meaning: matrix contains NaN or Inf entries\n"

    def test_cli_import_leaves_click_out(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, densem.cli; print('click' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (result.returncode, result.stdout) == (0, "False\n")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "parse" in out and "disc" in out

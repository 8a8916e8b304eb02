"""Command-line front end.

``densem parse|compose|entail|disc`` with deterministic, byte-stable
output (floats use 9 significant digits).  Exit codes: 0 success, 1 usage
or schema error, 2 ungrammatical sentence, 3 numerical failure.  Every
error prints one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .entailment import (
    Normalization,
    disc_grid,
    format_float,
    format_grid_csv,
    from_bloch,
    k_max,
    normalize,
)
from .errors import DensemError, OutputIOError, StructureMismatch, UsageError, ZeroOperatorError
from .lexicon import compose_sentence, load_lexicon, word_product_bound
from .pregroup import parse_type, reduce


def _echo_matrix(matrix: np.ndarray) -> None:
    print(f"matrix {matrix.shape[0]}x{matrix.shape[1]}:")
    for row in matrix:
        print(" ".join(format_float(v) for v in row))


def cmd_parse(lexicon_path: str, target_text: str, sentence: str) -> int:
    """Report the type reduction of SENTENCE, if one exists."""
    lexicon = load_lexicon(lexicon_path)
    target = parse_type(target_text)
    entries = lexicon.lookup_sentence(sentence)
    types = [entry.type for entry in entries]
    print("types: " + " | ".join(str(t) for t in types))
    pattern = reduce(types, target)
    if pattern is None:
        print("grammatical: no")
        return 2
    matches = " ".join(f"({i},{j})" for i, j in sorted(pattern.matches))
    print(f"matches: {matches}".rstrip())
    print("survivors: " + " ".join(str(i) for i in pattern.survivors))
    print("grammatical: yes")
    return 0


def cmd_compose(
    lexicon_path: str,
    target_text: str,
    strategy: str,
    frobenius_pronouns: bool,
    sentence: str,
) -> int:
    """Compose SENTENCE into its density matrix and print it."""
    lexicon = load_lexicon(lexicon_path)
    target = parse_type(target_text)
    tensor, _ = compose_sentence(lexicon, sentence, target, frobenius_pronouns)
    factor = normalize(tensor.spectrum, strategy)
    print(f"type: {target}")
    _echo_matrix(factor.matrix)
    print("trace: " + format_float(float(np.trace(factor.matrix))))
    print("max_eigenvalue: " + format_float(float(factor.w.max())))
    return 0


def cmd_entail(
    lexicon_path: str,
    target_text: str,
    strategy: str,
    sentence_a: str,
    sentence_b: str,
) -> int:
    """Report how strongly SENTENCE_A entails SENTENCE_B."""
    lexicon = load_lexicon(lexicon_path)
    target = parse_type(target_text)
    tensor_a, entries_a = compose_sentence(lexicon, sentence_a, target)
    tensor_b, entries_b = compose_sentence(lexicon, sentence_b, target)
    result = k_max(
        normalize(tensor_a.spectrum, strategy), normalize(tensor_b.spectrum, strategy)
    )
    print("supports_contained: " + ("yes" if result.supports_contained else "no"))
    print(
        "k_max: " + (format_float(result.k_max) if result.k_max is not None else "none")
    )
    print(
        "raw_k: " + (format_float(result.raw_k) if result.raw_k is not None else "none")
    )
    try:
        bound = word_product_bound(lexicon, entries_a, entries_b)
    except StructureMismatch as exc:
        print(f"word_product_bound: unavailable ({exc})")
    except ZeroOperatorError:
        print("word_product_bound: unavailable (zero word meaning)")
    else:
        print("word_product_bound: " + format_float(bound))
    return 0


def cmd_disc(
    target_x: float, target_z: float, resolution: int, strategy: str, out_path: str
) -> int:
    """Write the entailment-strength grid for a 2x2 target state."""
    target = from_bloch(target_x, target_z)
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        # Opened before the grid is built, so a bad --out fails before the work.
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                rows = disc_grid(target, resolution, strategy)
                handle.write(format_grid_csv(rows))
            os.replace(tmp_path, out_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OutputIOError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    print(f"rows: {len(rows)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises :class:`UsageError` and takes no
    abbreviated option names."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse's own test for a negative number, widened to any token
        # that starts with '-' and a digit, as in Python 3.13, so that
        # ``--target-x -1e-05`` reads the value.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise UsageError(message)


def _parser() -> _Parser:
    parser = _Parser(prog="densem", description="Graded entailment for density-matrix sentence meanings.")
    parser.add_argument("--version", action="version", version=f"densem, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, handler, target_help=None):
        sub = commands.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        sub.set_defaults(handler=handler)
        if target_help:
            sub.add_argument("--lexicon", dest="lexicon_path", required=True, metavar="PATH", help="Lexicon JSON file.")
            sub.add_argument("--target", dest="target_text", default="s", metavar="TEXT", help=f"{target_help}  [default: s]")
        return sub

    def normalize_option(sub, help):
        choices = [n.value for n in Normalization]
        sub.add_argument("--normalize", dest="strategy", choices=choices, default="none", help=f"{help}  [default: none]")

    parse = command("parse", cmd_parse, "Target type.")
    parse.add_argument("sentence", metavar="SENTENCE")

    compose = command("compose", cmd_compose, "Target type.")
    normalize_option(compose, "Scaling applied to the composed matrix.")
    compose.add_argument("--frobenius-pronouns", action="store_true", help="Evaluate marked relative pronouns with the Frobenius recipe.")
    compose.add_argument("sentence", metavar="SENTENCE")

    entail = command("entail", cmd_entail, "Target type for both sentences.")
    normalize_option(entail, "Scaling applied to both composed matrices.")
    entail.add_argument("sentence_a", metavar="SENTENCE_A")
    entail.add_argument("sentence_b", metavar="SENTENCE_B")

    disc = command("disc", cmd_disc)
    disc.add_argument("--target-x", required=True, type=float, metavar="FLOAT", help="x coordinate of the target state.")
    disc.add_argument("--target-z", required=True, type=float, metavar="FLOAT", help="z coordinate of the target state.")
    disc.add_argument("--resolution", default=101, type=int, metavar="INTEGER", help="Lattice points per axis.  [default: 101]")
    normalize_option(disc, "Scaling applied before each strength computation.")
    disc.add_argument("--out", dest="out_path", required=True, metavar="PATH", help="Output CSV path.")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with exit-code mapping; returns the exit code."""
    try:
        args = vars(_parser().parse_args(argv))
        return args.pop("handler")(**args)
    except SystemExit as exc:  # --help and --version, after printing
        return exc.code
    except KeyboardInterrupt:
        return 1
    except DensemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

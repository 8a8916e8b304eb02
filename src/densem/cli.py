"""Command-line front end.

``densem parse|compose|entail|disc`` with deterministic, byte-stable
output (floats use 9 significant digits).  Exit codes: 0 success, 1 usage
or schema error, 2 ungrammatical sentence, 3 numerical failure.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Sequence

import click
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
from .errors import DensemError, OutputIOError, StructureMismatch, ZeroOperatorError
from .lexicon import compose_sentence, load_lexicon, word_product_bound
from .pregroup import parse_type, reduce

_NORMALIZE_CHOICE = click.Choice([n.value for n in Normalization])


def _echo_matrix(matrix: np.ndarray) -> None:
    click.echo(f"matrix {matrix.shape[0]}x{matrix.shape[1]}:")
    for row in matrix:
        click.echo(" ".join(format_float(v) for v in row))


@click.group()
@click.version_option(version=__version__, prog_name="densem")
def cli() -> None:
    """Graded entailment for density-matrix sentence meanings."""


@cli.command("parse")
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path(), help="Lexicon JSON file.")
@click.option("--target", "target_text", default="s", show_default=True, help="Target type.")
@click.argument("sentence")
def cmd_parse(lexicon_path: str, target_text: str, sentence: str) -> int:
    """Report the type reduction of SENTENCE, if one exists."""
    lexicon = load_lexicon(lexicon_path)
    target = parse_type(target_text)
    entries = lexicon.lookup_sentence(sentence)
    types = [entry.type for entry in entries]
    click.echo("types: " + " | ".join(str(t) for t in types))
    pattern = reduce(types, target)
    if pattern is None:
        click.echo("grammatical: no")
        return 2
    matches = " ".join(f"({i},{j})" for i, j in sorted(pattern.matches))
    click.echo(f"matches: {matches}".rstrip())
    click.echo("survivors: " + " ".join(str(i) for i in pattern.survivors))
    click.echo("grammatical: yes")
    return 0


@cli.command("compose")
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path(), help="Lexicon JSON file.")
@click.option("--target", "target_text", default="s", show_default=True, help="Target type.")
@click.option("--normalize", "strategy", type=_NORMALIZE_CHOICE, default="none", show_default=True, help="Scaling applied to the composed matrix.")
@click.option("--frobenius-pronouns", is_flag=True, help="Evaluate marked relative pronouns with the Frobenius recipe.")
@click.argument("sentence")
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
    click.echo(f"type: {target}")
    _echo_matrix(factor.matrix)
    click.echo("trace: " + format_float(float(np.trace(factor.matrix))))
    click.echo("max_eigenvalue: " + format_float(float(factor.w.max())))
    return 0


@cli.command("entail")
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path(), help="Lexicon JSON file.")
@click.option("--target", "target_text", default="s", show_default=True, help="Target type for both sentences.")
@click.option("--normalize", "strategy", type=_NORMALIZE_CHOICE, default="none", show_default=True, help="Scaling applied to both composed matrices.")
@click.argument("sentence_a")
@click.argument("sentence_b")
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
    click.echo("supports_contained: " + ("yes" if result.supports_contained else "no"))
    click.echo(
        "k_max: " + (format_float(result.k_max) if result.k_max is not None else "none")
    )
    click.echo(
        "raw_k: " + (format_float(result.raw_k) if result.raw_k is not None else "none")
    )
    try:
        bound = word_product_bound(lexicon, entries_a, entries_b)
    except StructureMismatch as exc:
        click.echo(f"word_product_bound: unavailable ({exc})")
    except ZeroOperatorError:
        click.echo("word_product_bound: unavailable (zero word meaning)")
    else:
        click.echo("word_product_bound: " + format_float(bound))
    return 0


@cli.command("disc")
@click.option("--target-x", required=True, type=float, help="x coordinate of the target state.")
@click.option("--target-z", required=True, type=float, help="z coordinate of the target state.")
@click.option("--resolution", default=101, show_default=True, type=int, help="Lattice points per axis.")
@click.option("--normalize", "strategy", type=_NORMALIZE_CHOICE, default="none", show_default=True, help="Scaling applied before each strength computation.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV path.")
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
    click.echo(f"rows: {len(rows)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with exit-code mapping; returns the exit code."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except DensemError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

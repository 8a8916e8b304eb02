"""Exception hierarchy shared across the package.

Each error type carries the exit code the command line returns for it:
1 for a usage or schema error, 2 for an ungrammatical sentence, and 3
(the default) for a numerical failure.
"""


class DensemError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class DimensionMismatch(DensemError):
    """Operands have incompatible shapes or dimensions."""


class NonFiniteInput(DensemError):
    """Input contains NaN or infinite entries."""


class NotSymmetric(DensemError):
    """Matrix is not symmetric within tolerance."""


class ConvergenceError(DensemError):
    """The eigenvalue solver failed to converge."""


class NotPositiveSemidefinite(DensemError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotDensityOperator(DensemError):
    """Matrix is not a valid density operator (trace-1 PSD)."""


class ZeroOperatorError(DensemError):
    """Operation is undefined for the zero operator."""


class WeightError(DensemError):
    """A word has no meaning (raised by ``word_meaning``)."""


class StrengthRangeError(DensemError):
    """Entailment strength k lies outside (0, 1]."""


class PatternMismatch(DensemError):
    """A reduction pattern is inconsistent with the given word types."""


class TensorTooLarge(DensemError):
    """Dense tensor would exceed the supported size cap."""


class EmptyProposition(DensemError):
    """Error size is undefined for an empty antecedent."""


class OutsideDiscError(DensemError):
    """Coordinates lie outside the closed unit disc."""

    exit_code = 1


class ResolutionError(DensemError):
    """Grid resolution is too small."""

    exit_code = 1


class TypeSyntaxError(DensemError):
    """A type expression does not match the concrete syntax.

    ``position`` is the character offset of the offending input.
    """

    exit_code = 1

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(DensemError):
    """A lexicon document violates the expected schema.

    ``path`` locates the offending field, e.g. ``words[2].meaning``.
    """

    exit_code = 1

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DuplicateWordError(SchemaError):
    """The same word is declared twice in a lexicon."""


class LexiconIOError(DensemError):
    """A lexicon file could not be read."""

    exit_code = 1


class OutputIOError(DensemError):
    """An output file could not be written."""

    exit_code = 1


class UnknownWordError(DensemError):
    """A sentence contains words absent from the lexicon.

    ``words`` lists the offending tokens.
    """

    exit_code = 1

    def __init__(self, words):
        self.words = tuple(words)
        super().__init__("unknown word(s): " + ", ".join(self.words))


class UngrammaticalSentence(DensemError):
    """A sentence does not reduce to the requested target type."""

    exit_code = 2


class StructureMismatch(DensemError):
    """Two sentences do not share the same grammatical structure."""

    exit_code = 1

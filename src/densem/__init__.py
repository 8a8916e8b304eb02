"""Graded entailment for density-matrix compositional semantics.

Word and sentence meanings are positive semidefinite operators; grammar is
a pregroup whose type reductions drive tensor contractions; entailment
between meanings is graded by the largest k in (0, 1] for which B - kA
stays positive.
"""

from . import errors
from .entailment import (
    EntailmentResult,
    ErrorDecomposition,
    FiniteSetProposition,
    Normalization,
    bayes_transform,
    disc_grid,
    format_grid_csv,
    from_bloch,
    general_error,
    is_k_hyponym,
    k_max,
    normalize,
    set_entailment,
    supports_contained,
    to_bloch,
)
from .lexicon import (
    Lexicon,
    compose_sentence,
    load_lexicon,
    parse_lexicon,
    word_product_bound,
)
from .pregroup import (
    PregroupType,
    ReductionPattern,
    SimpleType,
    is_grammatical,
    parse_type,
    reduce,
)
from .psd import (
    Spectrum,
    is_psd,
    loewner_leq,
    pseudo_inverse,
    satisfaction,
    spectrum,
    sqrt_psd,
    support_projector,
)
from .semantics import (
    DensityTensor,
    WordEntry,
    double,
    evaluate,
    frobenius_iota,
    frobenius_mu,
    relative_clause,
    similarity,
    snake_check,
    space_dims,
    word_meaning,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Spectrum",
    "is_psd",
    "loewner_leq",
    "pseudo_inverse",
    "satisfaction",
    "spectrum",
    "sqrt_psd",
    "support_projector",
    "PregroupType",
    "ReductionPattern",
    "SimpleType",
    "is_grammatical",
    "parse_type",
    "reduce",
    "DensityTensor",
    "WordEntry",
    "double",
    "evaluate",
    "frobenius_iota",
    "frobenius_mu",
    "relative_clause",
    "similarity",
    "snake_check",
    "space_dims",
    "word_meaning",
    "EntailmentResult",
    "ErrorDecomposition",
    "FiniteSetProposition",
    "Normalization",
    "bayes_transform",
    "disc_grid",
    "format_grid_csv",
    "from_bloch",
    "general_error",
    "is_k_hyponym",
    "k_max",
    "normalize",
    "set_entailment",
    "supports_contained",
    "to_bloch",
    "Lexicon",
    "compose_sentence",
    "load_lexicon",
    "parse_lexicon",
    "word_product_bound",
    "__version__",
]

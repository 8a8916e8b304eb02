"""The alternating-sum prune in ``reduce``: long searches end fast, patterns do not change."""

import time

import numpy as np
import pytest

from densem.pregroup import PregroupType, SimpleType, parse_type, reduce
from helpers import grammatical_sentence, reduce_unpruned

N, NL, S = (parse_type(text) for text in ("n", "n.l", "s"))


@pytest.mark.parametrize(
    "sequence, survivors",
    [
        ([NL] * 400 + [N] * 400, None),
        ([NL] * 400 + [N] * 400 + [S], (800,)),
        ([parse_type("n.l n.l.l")] * 200 + [N] * 200, None),
    ],
    ids=["nl400-n400", "nl400-n400-s", "nl-nll200-n200"],
)
def test_long_searches_end_within_a_second(sequence, survivors):
    start = time.perf_counter()
    pattern = reduce(sequence, S)
    assert time.perf_counter() - start < 1.0
    if survivors is None:
        assert pattern is None
    else:
        assert pattern.survivors == survivors
        assert pattern.matches == {(399 - k, 400 + k) for k in range(400)}


@pytest.mark.parametrize("seed", range(4))
def test_patterns_equal_the_unpruned_search_on_grammatical_sentences(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        sequence, target = grammatical_sentence(rng, bases="nsp"[: 1 + seed % 3])
        expected = reduce_unpruned(sequence, target)
        assert expected is not None
        assert reduce(sequence, target) == expected


def test_patterns_equal_the_unpruned_search_on_random_sequences():
    rng = np.random.default_rng(22)
    reduced = 0
    for _ in range(1000):
        length = rng.integers(2, 13)
        flat = [SimpleType("ns"[rng.integers(2)], int(rng.integers(-2, 3))) for _ in range(length)]
        sequence = [PregroupType(tuple(flat))]
        target = PregroupType((flat[rng.integers(len(flat))],))
        expected = reduce_unpruned(sequence, target)
        reduced += expected is not None
        assert reduce(sequence, target) == expected
    assert reduced  # some sequences reduce, so both outcomes are compared

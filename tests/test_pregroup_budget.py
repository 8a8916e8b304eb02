"""The work cap on ``reduce``: long sentences still reduce, runaway searches stop early."""

import time

import pytest

import densem.pregroup
from densem.errors import ReductionTooLarge
from densem.pregroup import MAX_REDUCE_CANDIDATES, parse_type, reduce

N, S = parse_type("n"), parse_type("s")
CHAIN = [parse_type("n n.l")] * 4999 + [N]  # 5,000 words, about 10k candidates
GRAMMATICAL_801 = [parse_type("n.l")] * 400 + [N] * 400 + [S]  # 80,200 candidates
ADJECTIVES_200 = [parse_type("n n.l")] * 200 + [N]  # 400 candidates


@pytest.mark.parametrize(
    "sequence, target",
    [(CHAIN, N), (GRAMMATICAL_801, S), (ADJECTIVES_200, N)],
    ids=["chain-5000", "grammatical-801", "adjectives-200"],
)
def test_long_sentences_reduce_under_the_cap(sequence, target):
    assert reduce(sequence, target) is not None


def test_balanced_runaway_is_refused_quickly():
    # every enclosed segment balances, so the prune skips nothing
    start = time.perf_counter()
    with pytest.raises(ReductionTooLarge, match=f"more than {MAX_REDUCE_CANDIDATES} candidate"):
        reduce([parse_type("n.l n")] * 400, N)
    assert time.perf_counter() - start < 1.0


def test_the_cap_counts_candidates_tried(monkeypatch):
    # the 801-word sentence tries 80,200 candidate partners
    monkeypatch.setattr(densem.pregroup, "MAX_REDUCE_CANDIDATES", 80_200)
    assert reduce(GRAMMATICAL_801, S) is not None
    monkeypatch.setattr(densem.pregroup, "MAX_REDUCE_CANDIDATES", 80_000)
    with pytest.raises(ReductionTooLarge):
        reduce(GRAMMATICAL_801, S)

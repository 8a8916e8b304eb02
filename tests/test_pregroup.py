"""Tests for type parsing and reduction search."""

import pytest
from hypothesis import given, settings, strategies as st

from densem.errors import TypeSyntaxError
from densem.pregroup import (
    PregroupType,
    ReductionPattern,
    SimpleType,
    flatten,
    is_grammatical,
    parse_type,
    reduce,
)

N = SimpleType("n")
S = SimpleType("s")


def t(*simples):
    return PregroupType(tuple(simples))


def assert_valid_pattern(pattern, sequence, target):
    """Declarative re-check of every pattern invariant."""
    flat = flatten(sequence)
    n = len(flat)
    pairs = sorted(pattern.matches)
    seen = set()
    for i, j in pairs:
        assert 0 <= i < j < n
        assert i not in seen and j not in seen
        seen.update((i, j))
        assert flat[i].base == flat[j].base
        assert flat[j].z == flat[i].z + 1
    for i, j in pairs:
        for k, l in pairs:
            assert not (i < k < j < l), "crossing pair"
        partner = dict(pairs) | {j_: i_ for i_, j_ in pairs}
        for p in range(i + 1, j):
            assert p in seen, "survivor inside a contracted pair"
            assert i < partner[p] < j, "pair escapes its enclosing pair"
    assert list(pattern.survivors) == [p for p in range(n) if p not in seen]
    assert [flat[p] for p in pattern.survivors] == list(target.simples)


def oracle_patterns(sequence, target):
    """All valid patterns by brute-force enumeration of pair subsets."""
    flat = flatten(sequence)
    n = len(flat)
    results = []

    def go(i, used, pairs, survivors):
        if i == n:
            candidate = ReductionPattern(frozenset(pairs), tuple(survivors))
            try:
                assert_valid_pattern(candidate, sequence, target)
            except AssertionError:
                return
            results.append(candidate)
            return
        if i in used:
            go(i + 1, used, pairs, survivors)
            return
        go(i + 1, used, pairs, survivors + [i])
        for j in range(i + 1, n):
            if j in used:
                continue
            if flat[i].base == flat[j].base and flat[j].z == flat[i].z + 1:
                go(i + 1, used | {j}, pairs + [(i, j)], survivors)

    go(0, frozenset(), [], [])
    return results


def choice_key(pattern, n):
    """Position by position: the partner a position opens a pair with, ``n``
    when it survives, and -1 when it closes a pair.  ``reduce`` returns the
    valid pattern with the least key, the leftmost-innermost one."""
    partner = dict(pattern.matches)
    closing = {j for _, j in pattern.matches}
    return [partner.get(p, -1 if p in closing else n) for p in range(n)]


class TestParse:
    def test_transitive_verb(self):
        assert parse_type("n.r s n.l") == t(SimpleType("n", 1), S, SimpleType("n", -1))

    def test_unit(self):
        assert parse_type("1") == t()

    def test_subject_pronoun(self):
        assert parse_type("n.r n s.l n") == t(
            SimpleType("n", 1), N, SimpleType("s", -1), N
        )

    def test_iterated_adjoint(self):
        assert parse_type("n.l.l") == t(SimpleType("n", -2))

    def test_empty_is_error(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("   ")

    def test_bad_suffix_reports_position(self):
        with pytest.raises(TypeSyntaxError) as excinfo:
            parse_type("n.x")
        assert excinfo.value.position == 1

    def test_unit_cannot_combine(self):
        with pytest.raises(TypeSyntaxError) as excinfo:
            parse_type("n 1")
        assert excinfo.value.position == 2

    def test_leading_dot_is_error(self):
        with pytest.raises(TypeSyntaxError) as excinfo:
            parse_type("s .l")
        assert excinfo.value.position == 2


simple_types = st.builds(
    SimpleType, base=st.sampled_from(["n", "s"]), z=st.integers(-2, 2)
)
pregroup_types = st.builds(
    PregroupType, st.tuples() | st.lists(simple_types, min_size=1, max_size=4).map(tuple)
)


class TestParseRoundtrip:
    @given(pregroup_types)
    def test_format_then_parse(self, ptype):
        assert parse_type(str(ptype)) == ptype


class TestReduce:
    def test_transitive_sentence(self):
        verb = parse_type("n.r s n.l")
        pattern = reduce([t(N), verb, t(N)], t(S))
        assert pattern == ReductionPattern(frozenset({(0, 1), (3, 4)}), (2,))

    def test_identity_reduction(self):
        assert reduce([t(S)], t(S)) == ReductionPattern(frozenset(), (0,))

    def test_subject_relative_clause(self):
        sequence = [t(N), parse_type("n.r n s.l n"), parse_type("n.r s n.l"), t(N)]
        pattern = reduce(sequence, t(N))
        assert pattern is not None
        assert_valid_pattern(pattern, sequence, t(N))
        assert pattern.survivors == (2,)
        assert pattern.matches == frozenset({(0, 1), (3, 6), (4, 5), (7, 8)})

    def test_no_reduction(self):
        assert reduce([t(N), t(N)], t(S)) is None

    def test_reduce_to_unit(self):
        pattern = reduce([t(N), t(SimpleType("n", 1))], t())
        assert pattern == ReductionPattern(frozenset({(0, 1)}), ())

    def test_five_thousand_word_chain(self):
        # Deeper than Python's recursion limit: one nested segment per word.
        sequence = [t(N, SimpleType("n", -1))] * 4999 + [t(N)]
        pattern = reduce(sequence, t(N))
        assert pattern.survivors == (0,)
        assert pattern.matches == {(2 * k + 1, 2 * k + 2) for k in range(4999)}

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            reduce([], t(S))

    def test_deterministic(self):
        sequence = [t(N, SimpleType("n", -1)), t(N), parse_type("n.r s n.l"), t(N)]
        first = reduce(sequence, t(S))
        second = reduce(sequence, t(S))
        assert first == second


@st.composite
def type_sequences(draw):
    n_words = draw(st.integers(1, 4))
    words = []
    total = 0
    for _ in range(n_words):
        size = draw(st.integers(0, min(3, 8 - total)))
        total += size
        words.append(PregroupType(tuple(draw(simple_types) for _ in range(size))))
    target = draw(
        st.sampled_from([t(), t(S), t(N), t(N, S), t(S, SimpleType("n", -1))])
    )
    return words, target


class TestReduceAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(type_sequences())
    def test_existence_and_validity(self, case):
        sequence, target = case
        if not sequence:
            return
        pattern = reduce(sequence, target)
        all_patterns = oracle_patterns(sequence, target)
        assert (pattern is not None) == bool(all_patterns)
        if pattern is not None:
            assert_valid_pattern(pattern, sequence, target)
            n = len(flatten(sequence))
            assert pattern == min(all_patterns, key=lambda p: choice_key(p, n))

    def test_longer_sequences_seeded(self):
        import random

        rng = random.Random(99)
        bases = ["n", "s"]
        for _ in range(40):
            total = rng.randint(1, 12)
            flat = [
                SimpleType(rng.choice(bases), rng.randint(-2, 2)) for _ in range(total)
            ]
            sequence = []
            while flat:
                size = rng.randint(1, min(3, len(flat)))
                sequence.append(PregroupType(tuple(flat[:size])))
                flat = flat[size:]
            target = rng.choice([t(), t(S), t(N)])
            pattern = reduce(sequence, target)
            all_patterns = oracle_patterns(sequence, target)
            assert (pattern is not None) == bool(all_patterns)
            if pattern is not None:
                assert_valid_pattern(pattern, sequence, target)

    def test_is_grammatical_matches_reduce(self):
        verb = parse_type("n.r s n.l")
        assert is_grammatical([t(N), verb, t(N)], t(S))
        assert not is_grammatical([t(N), t(N)], t(S))

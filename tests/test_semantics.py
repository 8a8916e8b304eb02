"""Tests for doubled tensors, contraction and Frobenius operations."""

import string
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import densem.psd as psd
import densem.semantics as semantics
from densem.cli import main
from densem.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveSemidefinite,
    NotSymmetric,
    PatternMismatch,
    TensorTooLarge,
    WeightError,
)
from densem.lexicon import load_lexicon, parse_lexicon
from densem.pregroup import ReductionPattern, parse_type, reduce
from densem.semantics import (
    DensityTensor,
    WordEntry,
    double,
    evaluate,
    frobenius_iota,
    frobenius_mu,
    relative_clause,
    word_meaning,
)
from helpers import FIXTURES, compose_sentence, random_psd

KICKS = str(FIXTURES / "kicks.json")


def pure(vector, spaces):
    return double(np.asarray(vector, dtype=float), spaces)


class TestDensityTensor:
    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            DensityTensor((2,), np.zeros((2, 3)))

    def test_rejects_negative_operator(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityTensor.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (2,))

    def test_rejects_oversize(self):
        with pytest.raises(TensorTooLarge):
            DensityTensor((2048,), np.zeros((2048, 2048)))

    def test_scalar_tensor(self):
        t = DensityTensor((), np.array(2.0))
        assert t.matrix.shape == (1, 1)
        assert t.trace == pytest.approx(2.0)

    def test_rejects_ket_bra_asymmetry(self):
        entries = np.eye(4).reshape(2, 2, 2, 2)
        entries[0, 1, 1, 1] = 0.5
        with pytest.raises(NotSymmetric):
            DensityTensor((2, 2), entries)

    def test_rejects_non_finite(self):
        entries = np.eye(4).reshape(2, 2, 2, 2)
        entries[1, 1, 1, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            DensityTensor((2, 2), entries)

    def test_compares_by_identity(self):
        first = double([1.0, 2.0], (2,))
        second = double([1.0, 2.0], (2,))
        assert np.array_equal(first.entries, second.entries)
        assert first != second
        assert first == first
        assert len({first, second, first}) == 2

    def test_stores_ket_bra_average(self):
        entries = np.eye(4).reshape(2, 2, 2, 2)
        entries[0, 1, 1, 0] = 1e-13
        t = DensityTensor((2, 2), entries)
        np.testing.assert_array_equal(t.entries, t.entries.transpose(2, 3, 0, 1))
        assert t.entries[0, 1, 1, 0] == 0.5e-13


class TestDouble:
    def test_basis_vector(self):
        np.testing.assert_allclose(pure([1.0, 0.0], (2,)).matrix, np.diag([1.0, 0.0]))

    def test_uniform_vector(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(pure(v, (2,)).matrix, np.full((2, 2), 0.5))

    def test_mixture_of_doubles_is_density(self):
        cat = pure([1.0, 0.0], (2,))
        tarantula = pure([0.0, 1.0], (2,))
        pet = 0.9 * cat.matrix + 0.1 * tarantula.matrix
        assert psd.is_psd(pet)
        assert np.trace(pet) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            double(np.ones(3), (2,))


def mixture_word(word, mixture, n):
    """Parse a one-noun lexicon whose word is the given (weight, vector) mixture."""
    doc = {
        "spaces": {"n": n},
        "words": [
            {
                "word": word,
                "type": "n",
                "meaning": {
                    "pure_mixture": [
                        {"weight": w, "vector": list(v)} for w, v in mixture
                    ]
                },
            }
        ],
    }
    return parse_lexicon(doc).words[word]


class TestWordMeaning:
    def test_even_pet_mixture(self):
        entry = mixture_word("pet", [(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])], 2)
        np.testing.assert_allclose(
            word_meaning(entry, {"n": 2}).matrix, np.diag([0.5, 0.5])
        )

    def test_single_weight_equals_double(self):
        v = np.array([0.3, 0.4, 0.5])
        entry = mixture_word("w", [(1.0, v)], 3)
        np.testing.assert_allclose(
            word_meaning(entry, {"n": 3}).entries, double(v, (3,)).entries
        )

    def test_sweets_is_average_of_pure_nouns(self):
        cake = np.array([0.0, 1.0, 0.0])
        chocolate = np.array([0.0, 0.0, 1.0])
        entry = mixture_word("sweets", [(0.5, cake), (0.5, chocolate)], 3)
        expected = 0.5 * (np.outer(cake, cake) + np.outer(chocolate, chocolate))
        np.testing.assert_allclose(word_meaning(entry, {"n": 3}).matrix, expected)

    def test_returns_stored_tensor_without_eigensolve(self, eigensolves):
        entry = mixture_word("pet", [(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])], 2)
        eigensolves.clear()
        assert word_meaning(entry, {"n": 2}) is entry.meaning
        assert eigensolves == []

    def test_other_spaces_mismatch(self):
        entry = mixture_word("pet", [(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])], 2)
        with pytest.raises(DimensionMismatch):
            word_meaning(entry, {"n": 3})

    def test_missing_meaning(self):
        entry = WordEntry("who", parse_type("n.r n s.l n"), frobenius="subject")
        with pytest.raises(WeightError):
            word_meaning(entry, {"n": 2, "s": 1})


def transitive_pattern():
    return ReductionPattern(frozenset({(0, 1), (3, 4)}), (2,))


class TestEvaluate:
    def test_pure_transitive_matches_vector_contraction(self):
        rng = np.random.default_rng(17)
        spaces = {"n": 3, "s": 2}
        noun = parse_type("n")
        verb_type = parse_type("n.r s n.l")
        for _ in range(50):
            subj = rng.normal(size=3)
            verb = rng.normal(size=(3, 2, 3))
            obj = rng.normal(size=3)
            words = [
                (pure(subj, (3,)), noun),
                (pure(verb.reshape(-1), (3, 2, 3)), verb_type),
                (pure(obj, (3,)), noun),
            ]
            result = evaluate(words, transitive_pattern(), spaces)
            contracted = np.einsum("i,isj,j->s", subj, verb, obj)
            expected = double(contracted, (2,))
            assert np.linalg.norm(result.matrix - expected.matrix) <= 1e-9

    def test_single_word_identity(self):
        tensor = DensityTensor.from_matrix(np.diag([0.25, 0.75]), (2,))
        pattern = ReductionPattern(frozenset(), (0,))
        result = evaluate([(tensor, parse_type("s"))], pattern, {"s": 2})
        np.testing.assert_allclose(result.matrix, tensor.matrix)

    def test_truth_theoretic_values(self):
        lexicon = load_lexicon(FIXTURES / "truth.json")
        s1 = compose_sentence(lexicon, "Annie enjoys holidays", parse_type("s"))
        s2 = compose_sentence(lexicon, "students enjoy holidays", parse_type("s"))
        assert s1.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert s2.matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_pattern_dimension_clash(self):
        tensor_n = DensityTensor.from_matrix(np.eye(2), (2,))
        tensor_m = DensityTensor.from_matrix(np.eye(3), (3,))
        pattern = ReductionPattern(frozenset({(0, 1)}), ())
        with pytest.raises(PatternMismatch):
            evaluate(
                [(tensor_n, parse_type("n")), (tensor_m, parse_type("m"))],
                pattern,
                {"n": 2, "m": 3},
            )

    def test_tensor_type_shape_clash(self):
        tensor = DensityTensor.from_matrix(np.eye(2), (2,))
        pattern = ReductionPattern(frozenset(), (0,))
        with pytest.raises(DimensionMismatch):
            evaluate([(tensor, parse_type("n"))], pattern, {"n": 3})

    def test_output_positive_for_mixed_inputs(self):
        rng = np.random.default_rng(23)
        spaces = {"n": 2, "s": 2}
        words = [
            (DensityTensor.from_matrix(random_psd(rng, 2), (2,)), parse_type("n")),
            (
                DensityTensor.from_matrix(random_psd(rng, 8), (2, 2, 2)),
                parse_type("n.r s n.l"),
            ),
            (DensityTensor.from_matrix(random_psd(rng, 2), (2,)), parse_type("n")),
        ]
        result = evaluate(words, transitive_pattern(), spaces)
        w = np.linalg.eigvalsh(result.matrix)
        assert w[0] >= -1e-9 * max(1.0, w[-1])


# "X" is a word whose type contracts internally: its n meets its own n.r.
WORD_TYPES = {"N": "n", "A": "n n.l", "V": "n.r s n.l", "X": "n n.r s"}


def random_sentence(rng, kinds, n, s, target=None):
    """Random PSD word tensors for a template such as "ANVN", with its pattern.

    The target type defaults to ``s`` for a template with a verb, else ``n``.
    """
    spaces = {"n": n, "s": s}
    types = [parse_type(WORD_TYPES[k]) for k in kinds]
    words = []
    for ptype in types:
        dims = semantics.space_dims(ptype, spaces)
        matrix = random_psd(rng, int(np.prod(dims)), rank=int(rng.integers(1, 3)))
        words.append((DensityTensor.from_matrix(matrix, dims), ptype))
    if target is None:
        target = "n" if "V" not in kinds else "s"
    pattern = reduce(types, parse_type(target))
    assert pattern is not None
    return words, pattern, spaces


def naive_contraction(words, pattern):
    """The unplanned einsum, labelled by letters: lower case kets, upper case bras.

    It runs in long double, so that its own rounding stays well below the
    1e-12 bounds it is held to where the sentence's terms cancel.
    """
    sizes = [len(ptype.simples) for _, ptype in words]
    letter = list(range(sum(sizes)))
    for i, j in pattern.matches:
        letter[j] = letter[i]
    ket = string.ascii_lowercase
    bra = string.ascii_uppercase
    terms = []
    start = 0
    for size in sizes:
        own = letter[start : start + size]
        terms.append("".join(ket[p] for p in own) + "".join(bra[p] for p in own))
        start += size
    out = "".join(ket[letter[p]] for p in pattern.survivors)
    out += "".join(bra[letter[p]] for p in pattern.survivors)
    subscripts = ",".join(terms) + "->" + out
    operands = [t.entries.astype(np.longdouble) for t, _ in words]
    return np.einsum(subscripts, *operands, optimize=False)


class TestPlannedContraction:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["N", "AN", "AAN", "NVN", "ANVN", "NVAN", "ANVAN", "AANVAN"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    # Cancelling terms: a float64 oracle of its own is off by more than 1e-12.
    @example("ANVAN", 3, 1, 1114)
    @example("AANVAN", 2, 1, 12770)
    def test_matches_unplanned_einsum(self, kinds, n, s, seed):
        words, pattern, spaces = random_sentence(np.random.default_rng(seed), kinds, n, s)
        result = evaluate(words, pattern, spaces).entries
        expected = naive_contraction(words, pattern)
        assert result.shape == expected.shape
        assert np.abs(result - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_plans_once_per_structure(self):
        semantics._plan.cache_clear()
        rng = np.random.default_rng(5)
        for _ in range(2):
            evaluate(*random_sentence(rng, "ANVN", 2, 3))
        assert semantics._plan.cache_info().misses == 1
        evaluate(*random_sentence(rng, "ANVN", 3, 3))
        assert semantics._plan.cache_info().misses == 2

    @pytest.mark.parametrize("kinds, target", [("X", "s"), ("NX", "n s"), ("XX", "s s")])
    @pytest.mark.parametrize("n, s", [(1, 2), (2, 3), (3, 1), (3, 2)])
    def test_word_contracting_internally(self, kinds, target, n, s):
        words, pattern, spaces = random_sentence(
            np.random.default_rng(n * 10 + s), kinds, n, s, target
        )
        # The pattern matches an X's n with its own n.r.
        word_of = [w for w, (_, ptype) in enumerate(words) for _ in ptype.simples]
        assert any(word_of[i] == word_of[j] for i, j in pattern.matches)
        result = evaluate(words, pattern, spaces).entries
        expected = naive_contraction(words, pattern)
        assert result.shape == expected.shape
        assert np.abs(result - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_cached_structure_runs_without_the_planner(self):
        semantics._plan.cache_clear()
        sentence = random_sentence(np.random.default_rng(7), "AANVAN", 2, 3)
        evaluate(*sentence)
        info = semantics._plan.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        evaluate(*sentence)
        info = semantics._plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_plans_and_runs_without_einsum(self, monkeypatch):
        structures = [
            (kinds, None) for kinds in ["N", "AN", "AAN", "NVN", "ANVN", "NVAN", "ANVAN", "AANVAN"]
        ] + [("X", "s"), ("NX", "n s"), ("XX", "s s")]
        rng = np.random.default_rng(13)
        sentences = [random_sentence(rng, kinds, 2, 3, target) for kinds, target in structures]
        expected = [naive_contraction(words, pattern) for words, pattern, _ in sentences]

        def refuse(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(np, "einsum_path", refuse)
        semantics._plan.cache_clear()
        for sentence, want in zip(sentences, expected):
            result = evaluate(*sentence).entries
            assert np.abs(result - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("length", [30, 200])
    def test_adjective_chain_matches_superoperators(self, length):
        # 2 * length + 1 simple types: far past the 52 letters einsum can name.
        rng = np.random.default_rng(length)
        adjectives = [
            DensityTensor.from_matrix(random_psd(rng, 4), (2, 2)) for _ in range(length)
        ]
        noun = DensityTensor.from_matrix(random_psd(rng, 2), (2,))
        types = [parse_type("n n.l")] * length + [parse_type("n")]
        words = list(zip(adjectives + [noun], types))
        semantics._plan.cache_clear()
        start = time.perf_counter()
        pattern = reduce(types, parse_type("n"))
        result = evaluate(words, pattern, {"n": 2}).entries
        elapsed = time.perf_counter() - start
        expected = noun.entries
        for adjective in reversed(adjectives):
            expected = np.einsum("abcd,bd->ac", adjective.entries, expected)
        assert np.abs(result - expected).max() <= 1e-12 * np.abs(expected).max()
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_six_word_sentence_is_fast(self):
        words, pattern, spaces = random_sentence(np.random.default_rng(11), "AANVAN", 6, 6)
        start = time.perf_counter()
        result = evaluate(words, pattern, spaces)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
        assert result.spaces == (6,)

    def test_work_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(semantics, "MAX_CONTRACTION_FLOPS", 10)
        semantics._plan.cache_clear()
        with pytest.raises(TensorTooLarge, match="contraction plan"):
            evaluate(*random_sentence(np.random.default_rng(2), "NVN", 2, 2))
        assert main(["compose", "--lexicon", KICKS, "John kicks cats"]) == 3


class TestFrobenius:
    def test_mu_entrywise(self):
        a = DensityTensor.from_matrix(np.diag([1.0, 0.0]), (2,))
        b = DensityTensor.from_matrix(np.diag([0.5, 0.5]), (2,))
        np.testing.assert_allclose(frobenius_mu(a, b).matrix, np.diag([0.5, 0.0]))

    def test_mu_with_identity_extracts_diagonal(self):
        rng = np.random.default_rng(2)
        m = random_psd(rng, 3)
        a = DensityTensor.from_matrix(np.eye(3), (3,))
        b = DensityTensor.from_matrix(m, (3,))
        np.testing.assert_allclose(frobenius_mu(a, b).matrix, np.diag(np.diag(m)))

    def test_mu_commutative(self):
        rng = np.random.default_rng(3)
        a = DensityTensor.from_matrix(random_psd(rng, 4), (4,))
        b = DensityTensor.from_matrix(random_psd(rng, 4), (4,))
        np.testing.assert_allclose(
            frobenius_mu(a, b).entries, frobenius_mu(b, a).entries
        )

    def test_iota_sums_entries(self):
        t = DensityTensor.from_matrix(np.diag([0.5, 0.5]), (2,))
        assert frobenius_iota(t, 0).matrix[0, 0] == pytest.approx(1.0)

    def test_iota_on_doubled_uniform(self):
        t = DensityTensor.from_matrix(np.full((2, 2), 0.25), (2,))
        assert frobenius_iota(t, 0).matrix[0, 0] == pytest.approx(1.0)

    def test_iota_bad_index(self):
        t = DensityTensor.from_matrix(np.eye(2), (2,))
        with pytest.raises(IndexError):
            frobenius_iota(t, 1)


class TestRelativeClause:
    def test_matches_direct_contraction(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            nd, sd = 3, 2
            subj = random_psd(rng, nd)
            verb = random_psd(rng, nd * sd * nd)
            obj = random_psd(rng, nd)
            result = relative_clause(
                DensityTensor.from_matrix(subj, (nd,)),
                DensityTensor.from_matrix(verb, (nd, sd, nd)),
                DensityTensor.from_matrix(obj, (nd,)),
            )
            v = verb.reshape(nd, sd, nd, nd, sd, nd)
            expected = np.zeros((nd, nd))
            for i in range(nd):
                for k in range(nd):
                    acc = 0.0
                    for s in range(sd):
                        for u in range(sd):
                            for j in range(nd):
                                for l in range(nd):
                                    acc += v[i, s, j, k, u, l] * obj[j, l]
                    expected[i, k] = subj[i, k] * acc
            np.testing.assert_allclose(result.matrix, expected, atol=1e-10)

    def test_uniform_verb_pure_nouns_rank_one(self):
        nd, sd = 3, 2
        uniform = np.ones(nd * sd * nd) / np.sqrt(nd * sd * nd)
        result = relative_clause(
            pure([1.0, 0.0, 0.0], (nd,)),
            double(uniform, (nd, sd, nd)),
            pure([0.0, 1.0, 0.0], (nd,)),
        )
        assert np.linalg.matrix_rank(result.matrix, tol=1e-10) <= 1

    def test_dimension_one_everything(self):
        one = DensityTensor.from_matrix(np.array([[1.0]]), (1,))
        verb = DensityTensor.from_matrix(np.array([[1.0]]), (1, 1, 1))
        result = relative_clause(one, verb, one)
        assert result.matrix.shape == (1, 1)

    def test_elderly_ladies_containment(self):
        lexicon = load_lexicon(FIXTURES / "relative.json")
        spaces = lexicon.spaces

        def clause(subj, verb, obj):
            return relative_clause(
                word_meaning(lexicon.words[subj], spaces),
                word_meaning(lexicon.words[verb], spaces),
                word_meaning(lexicon.words[obj], spaces),
            )

        s1 = clause("elderly_ladies", "own", "cats")
        s2 = clause("women", "own", "animals")
        difference = s2.matrix - s1.matrix / 6.0
        w = np.linalg.eigvalsh(difference)
        assert w[0] >= -1e-9


def _top(*tensors):
    return float(np.prod([t.spectrum.w[-1] for t in tensors]))


def _zero_sum_legs(rng, size, rank):
    """``rank`` random vectors of length ``size`` whose components sum to zero."""
    legs = rng.normal(size=(size, rank))
    return legs - legs.mean(axis=0)


class TestScaleOfComposedMeanings:
    """A composed meaning is checked at its operands' scale, not its own.

    Each sentence here composes to zero: what is left is round-off at the
    scale of the words, which no rule reading only the result can tell from
    a real negative eigenvalue or asymmetry.
    """

    @pytest.mark.parametrize("exponent", range(-5, 6))
    def test_subject_orthogonal_to_the_verb(self, exponent):
        rng = np.random.default_rng(7100 + exponent)
        n, s = 3, 2
        c = 10.0**exponent
        types = [parse_type(t) for t in ("n", "n.r s n.l", "n")]
        pattern = reduce(types, parse_type("s"))
        for _ in range(20):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            # Every subject leg of the verb lies in the complement of u.
            off_u = np.kron(np.eye(n) - np.outer(u, u), np.eye(s * n))
            g = off_u @ rng.normal(size=(n * s * n, 2))
            words = [
                DensityTensor.from_matrix(c * np.outer(u, u), (n,)),
                DensityTensor.from_matrix(c * (g @ g.T), (n, s, n)),
                DensityTensor.from_matrix(c * random_psd(rng, n), (n,)),
            ]
            result = evaluate(list(zip(words, types)), pattern, {"n": n, "s": s})
            assert np.abs(result.matrix).max() <= 1e-12 * _top(*words)

    def test_iota_over_a_leg_that_sums_to_zero(self):
        rng = np.random.default_rng(7200)
        for _ in range(200):
            kept, deleted = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            g = np.einsum(
                "ir,jr->ijr", rng.normal(size=(kept, 3)), _zero_sum_legs(rng, deleted, 3)
            ).reshape(kept * deleted, 3)
            rho = DensityTensor.from_matrix(g @ g.T, (kept, deleted))
            result = frobenius_iota(rho, 1)
            assert result.spaces == (kept,)
            assert np.abs(result.matrix).max() <= 1e-12 * _top(rho)

    @pytest.mark.parametrize("c", [1e-4, 1.0, 1e4])
    def test_relative_clause_whose_sentence_legs_sum_to_zero(self, c):
        rng = np.random.default_rng(7300)
        n, s = 3, 3
        for _ in range(200):
            g = np.einsum(
                "ir,sr,jr->isjr",
                rng.normal(size=(n, 2)),
                _zero_sum_legs(rng, s, 2),
                rng.normal(size=(n, 2)),
            ).reshape(n * s * n, 2)
            subj, verb, obj = (
                DensityTensor.from_matrix(c * random_psd(rng, n), (n,)),
                DensityTensor.from_matrix(c * (g @ g.T), (n, s, n)),
                DensityTensor.from_matrix(c * random_psd(rng, n), (n,)),
            )
            result = relative_clause(subj, verb, obj)
            assert np.abs(result.matrix).max() <= 1e-12 * _top(subj, verb, obj)

"""Tests for the graded entailment calculus."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densem import cli, entailment
from densem.lexicon import load_lexicon, word_product_bound
from densem.entailment import (
    MAX_DISC_POINTS,
    EntailmentResult,
    FiniteSetProposition,
    Normalization,
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
from densem.errors import (
    ConvergenceError,
    DimensionMismatch,
    EmptyProposition,
    NotDensityOperator,
    NotPositiveSemidefinite,
    NotSymmetric,
    OutsideDiscError,
    ResolutionError,
    StrengthRangeError,
    ZeroOperatorError,
)
from densem.psd import Spectrum, loewner_leq, spectrum
from helpers import FIXTURES, bisect_max_strength, nested_psd_pair, random_psd

BLOCK_A = np.diag([1.0, 1.0, 0.0])
BLOCK_B = np.diag([1.0, 0.0, 1.0])


class TestSupportsContained:
    def test_disjoint_blocks(self):
        assert not supports_contained(BLOCK_A, BLOCK_B)

    def test_projector_inside_identity(self):
        assert supports_contained(np.diag([1.0, 0.0]), np.eye(2))

    def test_agrees_with_small_strength_probe(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                a, b = nested_psd_pair(rng, dim)
            else:
                a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
                b = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            if np.linalg.norm(a) < 1e-9:
                continue
            w = np.linalg.eigvalsh(b - 1e-8 * a)
            probe_says_yes = w[0] >= -1e-11
            assert supports_contained(a, b) == probe_says_yes

    def test_requires_psd(self):
        with pytest.raises(NotPositiveSemidefinite):
            supports_contained(np.diag([1.0, -1.0]), np.eye(2))


class TestIsKHyponym:
    def test_projector_into_identity(self):
        assert is_k_hyponym(np.diag([1.0, 0.0]), np.eye(2), 1.0)

    def test_half_strength_both_ways(self):
        a = np.diag([1.0, 0.5])
        b = np.diag([0.5, 1.0])
        assert is_k_hyponym(a, b, 0.5)
        assert is_k_hyponym(b, a, 0.5)

    def test_reflexive_at_full_strength(self):
        rng = np.random.default_rng(52)
        a = random_psd(rng, 4)
        assert is_k_hyponym(a, a, 1.0)

    def test_rejects_bad_strength(self):
        with pytest.raises(StrengthRangeError):
            is_k_hyponym(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(StrengthRangeError):
            is_k_hyponym(np.eye(2), np.eye(2), 1.5)


class TestKMax:
    def test_pure_dog_into_even_pet(self):
        dog = np.diag([1.0, 0.0])
        pet = np.diag([0.5, 0.5])
        result = k_max(dog, pet)
        assert result.supports_contained
        assert result.k_max == pytest.approx(0.5, abs=1e-12)

    def test_shared_mixture_formula_instance(self):
        rng = np.random.default_rng(53)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        psi, phi = q[:, 0], q[:, 1]
        r, s = 0.3, 0.6
        rho = r * np.outer(psi, psi) + (1 - r) * np.outer(phi, phi)
        sigma = s * np.outer(psi, psi) + (1 - s) * np.outer(phi, phi)
        result = k_max(sigma, rho)
        assert result.k_max == pytest.approx(r / s, abs=1e-10)

    def test_disjoint_blocks_have_no_strength(self):
        result = k_max(BLOCK_A, BLOCK_B)
        assert result == EntailmentResult(False, None, None, None)

    def test_small_disjoint_blocks_have_no_strength(self):
        result = k_max(1e-9 * BLOCK_A, BLOCK_B)
        assert result == EntailmentResult(False, None, None, None)

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            k_max(np.zeros((2, 2)), np.eye(2))

    def test_certificate_brackets_the_maximum(self):
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 30:
            a, b = nested_psd_pair(rng, int(rng.integers(2, 7)))
            if np.linalg.norm(a) < 1e-6:
                continue
            result = k_max(a, b)
            assert result.supports_contained
            assert is_k_hyponym(a, b, result.k_max)
            if result.raw_k < 1.0:
                beyond = result.k_max * (1 + 10 * 1e-8)
                assert not is_k_hyponym(a, b, beyond)
            checked += 1

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 40:
            a, b = nested_psd_pair(rng, int(rng.integers(2, 9)))
            if np.linalg.norm(a) < 1e-6:
                continue
            result = k_max(a, b)
            oracle = bisect_max_strength(a, b)
            assert abs(result.raw_k - oracle) <= 1e-8 * oracle
            checked += 1


def _log_uniform(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(-200.0, 200.0))


class TestScaleAndRotation:
    """``k_max(cA, B) = k_max(A, B) / c``, and decisions ignore units and basis."""

    def test_nested_pairs_scale_and_rotate(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 300:
            dim = int(rng.integers(2, 9))
            a, b = nested_psd_pair(rng, dim)
            if np.linalg.norm(a) < 1e-2:
                continue
            raw = k_max(a, b).raw_k
            c = _log_uniform(rng)
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            qa, qb = q @ a @ q.T, q @ b @ q.T
            covariant = [
                k_max(c * a, b).raw_k * c,
                k_max(a, c * b).raw_k / c,
                k_max(0.5 * (qa + qa.T), 0.5 * (qb + qb.T)).raw_k,
            ]
            for value in covariant:
                assert abs(value - raw) <= 1e-6 * raw
            checked += 1

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-30, 30),
        proportional=st.booleans(),
    )
    def test_order_decision_ignores_units(self, seed, exponent, proportional):
        # Nested pairs at a random strength, and proportional pairs B = tA at
        # k_max, where B - kA is all round-off: one answer at every scale.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        if proportional:
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = float(rng.uniform(0.05, 1.0)) * a
            k = k_max(a, b).k_max
        else:
            a, b = nested_psd_pair(rng, dim)
            k = float(rng.uniform(0.01, 1.0))
        c = 10.0**exponent
        assert is_k_hyponym(c * a, c * b, k) == is_k_hyponym(a, b, k)
        assert loewner_leq(c * b, c * b)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_scale(self):
        big = 1e308 * np.eye(2)
        assert k_max(big, big).k_max == 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum_is_refused(self):
        # Finite entries, but a top eigenvalue of 2e308: no strength or
        # order read from an infinite eigenvalue.
        a = 1e308 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ConvergenceError, match="overflow"):
            k_max(a, 0.5 * a)
        with pytest.raises(ConvergenceError, match="overflow"):
            loewner_leq(a, 0.5 * a)

    def test_non_nested_pairs_never_contained(self):
        rng = np.random.default_rng(62)
        for _ in range(600):
            dim = int(rng.integers(2, 9))
            a = random_psd(rng, dim, rank=int(rng.integers(2, dim + 1)))
            b = random_psd(rng, dim, rank=1)
            c = _log_uniform(rng)
            assert not supports_contained(c * a, b)
            assert not supports_contained(a, c * b)
            assert not k_max(c * a, b).supports_contained
            assert not k_max(a, c * b).supports_contained


def _names(eigensolves):
    return [solver.__name__ for solver in eigensolves]


class TestEigensolveCounts:
    """One eigensolve per operand, plus one r x r solve for a strength.

    ``B`` is factorised first; ``A`` gets eigenvectors only when contained.
    """

    def test_k_max_contained(self, eigensolves):
        k_max(np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.0]))
        assert _names(eigensolves) == ["eigh", "eigh", "eigvalsh"]

    def test_k_max_not_contained(self, eigensolves):
        k_max(BLOCK_A, BLOCK_B)
        assert _names(eigensolves) == ["eigh", "eigvalsh"]

    @pytest.mark.parametrize(
        "a, b",
        [(np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.0])), (BLOCK_A, BLOCK_B)],
        ids=["contained", "not contained"],
    )
    def test_supports_contained_skips_the_strength(self, a, b, eigensolves):
        supports_contained(a, b)
        assert _names(eigensolves) == ["eigh", "eigvalsh"]

    def test_general_error(self, eigensolves):
        general_error(BLOCK_A, BLOCK_B)
        assert _names(eigensolves) == ["eigvalsh", "eigvalsh", "eigh"]

    def test_disc_grid_target_factorised_once(self, eigensolves):
        # At resolution 2 every lattice point is a corner outside the disc,
        # so only the target is factorised.
        assert disc_grid(from_bloch(0.1, 0.2), 2, "maxeig") == []
        assert len(eigensolves) == 1

    @pytest.mark.parametrize("strategy", list(Normalization))
    def test_disc_grid_solves_per_grid(self, strategy, eigensolves):
        # The target, then one stacked eigh and one stacked r x r eigvalsh
        # over all 7,845 disc points.
        rows = disc_grid(from_bloch(0.4408389, 0.6067627), 101, strategy)
        assert len(rows) == 7845
        assert _names(eigensolves) == ["eigh", "eigh", "eigvalsh"]

    @pytest.mark.parametrize("strategy", list(Normalization))
    def test_primitives_factorise_once(self, strategy, eigensolves):
        normalize(random_psd(np.random.default_rng(63), 4), strategy)
        assert len(eigensolves) == 1

    @pytest.mark.parametrize(
        "a, b, names",
        [
            (np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.0]), ["eigvalsh"]),
            (BLOCK_A, BLOCK_B, []),
        ],
        ids=["contained", "not contained"],
    )
    def test_k_max_on_stored_factors(self, a, b, names, eigensolves):
        a, b = spectrum(a), spectrum(b)
        eigensolves.clear()
        k_max(a, b)
        assert _names(eigensolves) == names

    def test_word_product_bound_on_loaded_words(self, monkeypatch, eigensolves):
        lexicon = load_lexicon(FIXTURES / "scoff_eat.json")
        entries_a = lexicon.lookup_sentence("John scoffs cake")
        entries_b = lexicon.lookup_sentence("John eats sweets")
        ranks = [int(np.linalg.matrix_rank(e.meaning.matrix)) for e in entries_b]
        shapes = []
        counted = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or counted(m)
        )
        eigensolves.clear()
        assert word_product_bound(lexicon, entries_a, entries_b) == pytest.approx(0.25)
        # One solve per contained word pair, of the size of B's word's rank.
        assert _names(eigensolves) == ["eigvalsh"] * 3
        assert shapes == [(r, r) for r in ranks]

    @pytest.mark.parametrize("strategy", list(Normalization))
    def test_compose_solves_nothing_after_the_sentence(
        self, strategy, monkeypatch, capsys, eigensolves
    ):
        solves_when_built = []
        compose_sentence = cli.compose_sentence

        def compose(*args):
            composed = compose_sentence(*args)
            solves_when_built.append(len(eigensolves))
            return composed

        monkeypatch.setattr(cli, "compose_sentence", compose)
        argv = ["compose", "--lexicon", str(FIXTURES / "scoff_eat.json"),
                "--normalize", strategy.value, "John scoffs cake"]
        assert cli.main(argv) == 0
        assert solves_when_built == [len(eigensolves)]


class TestChecksOnTheLazyPath:
    """Without ``A``'s eigenvectors, every check on ``A`` still runs."""

    @pytest.mark.parametrize("query", [k_max, supports_contained])
    def test_non_psd_a_named_when_not_contained(self, query):
        with pytest.raises(NotPositiveSemidefinite, match="^A is not"):
            query(np.diag([1.0, -1.0, 0.0]), BLOCK_B)

    def test_uncontained_a_at_any_scale_is_not_a_zero_operator(self):
        for c in (1e-300, 1e-170, 1e-30, 1e-13, 1.0, 1e30, 1e160, 1e300):
            assert not supports_contained(c * BLOCK_A, BLOCK_B)
            assert not k_max(c * BLOCK_A, BLOCK_B).supports_contained
        with pytest.raises(ZeroOperatorError):
            k_max(np.zeros((3, 3)), BLOCK_B)

    @pytest.mark.parametrize("query", [k_max, supports_contained])
    def test_asymmetric_a_refused_before_b(self, query, eigensolves):
        with pytest.raises(NotSymmetric):
            query(np.array([[1.0, 1.0], [0.0, 1.0]]), -np.eye(2))
        assert eigensolves == []

    @pytest.mark.parametrize("query", [k_max, supports_contained])
    def test_shape_mismatch(self, query):
        with pytest.raises(DimensionMismatch):
            query(np.eye(2), np.eye(3))


def _random_pair(rng):
    """A seeded PSD pair, contained or not, at d 1-16 and scale 1e-4 to 1e4."""
    dim = int(rng.integers(1, 17))
    if rng.random() < 0.5:
        a, b = nested_psd_pair(rng, dim)
    else:
        a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        b = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
    scale = 10.0 ** rng.uniform(-4.0, 4.0)
    return scale * a, scale * b


class TestFactorsGiveTheMatrixResults:
    """A factor and its matrix give one answer."""

    @pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values"])
    def test_random_pairs(self, vectors):
        rng = np.random.default_rng(1601)
        contained = 0
        for _ in range(200):
            a, b = _random_pair(rng)
            fa, fb = spectrum(a), spectrum(b)
            if not vectors:  # as built by hand: solved again when vectors are needed
                fa, fb = Spectrum(fa.matrix, fa.w, None), Spectrum(fb.matrix, fb.w, None)
            k = float(rng.uniform(0.01, 1.0))
            expected = k_max(a, b)
            contained += expected.supports_contained
            for x, y in [(fa, fb), (fa, b), (a, fb)]:
                assert k_max(x, y) == expected
                assert supports_contained(x, y) == expected.supports_contained
                assert is_k_hyponym(x, y, k) == is_k_hyponym(a, b, k)
                error, reference = general_error(x, y), general_error(a, b)
                np.testing.assert_array_equal(error.excess, reference.excess)
                np.testing.assert_array_equal(error.deficit, reference.deficit)
        assert 60 < contained < 160

    @pytest.mark.parametrize("query", [k_max, supports_contained, general_error])
    def test_indefinite_factor_named(self, query):
        indefinite = np.diag([1.0, -1.0, 0.0])
        for operand in (spectrum(indefinite), indefinite):
            with pytest.raises(NotPositiveSemidefinite, match="^A is not"):
                query(operand, BLOCK_B)
            with pytest.raises(NotPositiveSemidefinite, match="^B is not"):
                query(BLOCK_A, operand)

    def test_bayes_factor_with_unsorted_products(self):
        rng = np.random.default_rng(1602)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        # Running products 3, 6, 3, 0.3 from the top: not sorted.
        b = (q * [0.1, 0.5, 2.0, 3.0]) @ q.T
        a = (q[:, 1:] * [0.4, 1.5, 2.5]) @ q[:, 1:].T
        fa, fb = normalize(spectrum(a), "bayes"), normalize(spectrum(b), "bayes")
        assert isinstance(fa, Spectrum) and np.any(np.diff(fb.w) < 0)
        np.testing.assert_array_equal(fb.matrix, normalize(b, "bayes"))
        result, reference = k_max(fa, fb), k_max(fa.matrix, fb.matrix)
        assert result.supports_contained and reference.supports_contained
        assert result.raw_k == pytest.approx(reference.raw_k, rel=1e-12)
        assert normalize(fb, "maxeig").w.max() == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("strategy", list(Normalization))
    def test_normalize_returns_the_kind_it_was_given(self, strategy):
        m = random_psd(np.random.default_rng(1603), 5)
        factor = normalize(spectrum(m), strategy)
        assert isinstance(factor, Spectrum)
        assert isinstance(normalize(m, strategy), np.ndarray)
        np.testing.assert_allclose(factor.matrix, normalize(m, strategy), rtol=1e-12, atol=1e-14)


class TestGeneralError:
    def test_disjoint_blocks_split(self):
        decomposition = general_error(BLOCK_A, BLOCK_B)
        np.testing.assert_allclose(decomposition.excess, np.diag([0.0, 1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(decomposition.deficit, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_equal_operators(self):
        rng = np.random.default_rng(56)
        a = random_psd(rng, 4)
        decomposition = general_error(a, a)
        assert np.linalg.norm(decomposition.excess) <= 1e-10
        assert np.linalg.norm(decomposition.deficit) <= 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            a = random_psd(rng, 5)
            b = random_psd(rng, 5)
            decomposition = general_error(a, b)
            w_e = np.linalg.eigvalsh(decomposition.excess)
            w_d = np.linalg.eigvalsh(decomposition.deficit)
            assert w_e[0] >= -1e-9 * max(1.0, w_e[-1])
            assert w_d[0] >= -1e-9 * max(1.0, w_d[-1])
            scale = max(1.0, np.linalg.norm(a) + np.linalg.norm(b))
            assert (
                np.linalg.norm((a + decomposition.deficit) - (b + decomposition.excess))
                <= 1e-8 * scale
            )


class TestSetEntailment:
    def test_subset(self):
        a = FiniteSetProposition.of(6, {1, 2})
        b = FiniteSetProposition.of(6, {0, 1, 2, 3})
        assert set_entailment(a, b) == (True, 0.0)

    def test_disjoint(self):
        a = FiniteSetProposition.of(10, {0, 1, 2, 3})
        b = FiniteSetProposition.of(10, {5, 6})
        assert set_entailment(a, b) == (False, 1.0)

    def test_partial_overlap(self):
        a = FiniteSetProposition.of(20, set(range(10)))
        b = FiniteSetProposition.of(20, set(range(7)) | {15, 16})
        assert set_entailment(a, b) == (False, pytest.approx(0.3))

    def test_empty_antecedent(self):
        a = FiniteSetProposition.of(4, set())
        b = FiniteSetProposition.of(4, {0})
        with pytest.raises(EmptyProposition):
            set_entailment(a, b)

    def test_universe_mismatch(self):
        with pytest.raises(DimensionMismatch):
            set_entailment(FiniteSetProposition.of(3, {0}), FiniteSetProposition.of(4, {0}))

    def test_members_inside_universe(self):
        with pytest.raises(ValueError):
            FiniteSetProposition.of(2, {5})


class TestNormalize:
    def test_max_eig_one(self):
        np.testing.assert_allclose(
            normalize(np.diag([2.0, 2.0]), Normalization.MAX_EIG_ONE), np.eye(2)
        )

    def test_trace_one(self):
        np.testing.assert_allclose(
            normalize(np.diag([2.0, 2.0]), Normalization.TRACE_ONE), np.diag([0.5, 0.5])
        )

    def test_projector_fixed_by_max_eig(self):
        p = np.diag([1.0, 1.0, 0.0])
        np.testing.assert_allclose(normalize(p, "maxeig"), p)

    def test_none_returns_input(self):
        rng = np.random.default_rng(58)
        a = random_psd(rng, 3)
        np.testing.assert_allclose(normalize(a, "none"), a)

    def test_zero_operator(self):
        with pytest.raises(ZeroOperatorError):
            normalize(np.zeros((2, 2)), "trace")


class TestBayesTransform:
    """``normalize(m, "bayes")``: the sorted spectrum's running products."""

    def test_running_products_on_diagonal(self):
        result = normalize(np.diag([0.5, 0.3, 0.2]), "bayes")
        np.testing.assert_allclose(result, np.diag([0.5, 0.15, 0.03]), atol=1e-12)

    def test_identity_preserved(self):
        np.testing.assert_allclose(normalize(np.eye(2), "bayes"), np.eye(2), atol=1e-12)

    def test_rank_one_unchanged(self):
        v = np.array([0.6, 0.8, 0.0, 0.0])
        m = 0.8 * np.outer(v, v)
        np.testing.assert_allclose(normalize(m, "bayes"), m, atol=1e-12)

    def test_rotated_diagonal(self):
        rng = np.random.default_rng(60)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        d = np.diag([0.5, 0.3, 0.2])
        m = q @ d @ q.T
        expected = q @ np.diag([0.5, 0.15, 0.03]) @ q.T
        np.testing.assert_allclose(normalize(m, "bayes"), expected, atol=1e-10)


class TestBloch:
    def test_north_pole(self):
        np.testing.assert_allclose(from_bloch(0.0, 1.0), np.diag([1.0, 0.0]))

    def test_center(self):
        np.testing.assert_allclose(from_bloch(0.0, 0.0), 0.5 * np.eye(2))

    def test_reference_target(self):
        x = 0.75 * np.sin(np.pi / 5)
        z = 0.75 * np.cos(np.pi / 5)
        m = from_bloch(x, z)
        assert np.trace(m) == pytest.approx(1.0)
        got_x, got_z = to_bloch(m)
        assert got_x == pytest.approx(x, abs=1e-12)
        assert got_z == pytest.approx(z, abs=1e-12)

    def test_outside_disc(self):
        with pytest.raises(OutsideDiscError):
            from_bloch(0.9, 0.9)

    def test_to_bloch_requires_density(self):
        with pytest.raises(NotDensityOperator):
            to_bloch(np.diag([2.0, 0.0]))
        with pytest.raises(NotDensityOperator):
            to_bloch(np.diag([1.5, -0.5]))


disc_targets = st.builds(
    lambda r, angle: (r * math.cos(angle), r * math.sin(angle)),
    st.just(1.0) | st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)


class TestDiscGrid:
    @settings(max_examples=40, deadline=None)
    @given(disc_targets, st.integers(2, 31), st.sampled_from(list(Normalization)))
    def test_rows_match_single_pair_strength(self, target, resolution, strategy):
        b = normalize(from_bloch(*target), strategy)
        for x, z, k in disc_grid(from_bloch(*target), resolution, strategy):
            if strategy is Normalization.BAYESIAN and x == 0.0 and z == 0.0:
                # The maximally mixed state has a degenerate eigenspace, so
                # its bayes transform depends on the basis the solver picks.
                continue
            result = k_max(normalize(from_bloch(x, z), strategy), b)
            if result.supports_contained:
                assert k == pytest.approx(result.k_max, rel=1e-9, abs=0.0)
            else:
                assert k == 0.0

    def test_exact_hit_reports_full_strength(self):
        target = from_bloch(0.5, 0.5)
        rows = disc_grid(target, 5, "maxeig")
        hits = [row for row in rows if row[0] == 0.5 and row[1] == 0.5]
        assert len(hits) == 1
        assert hits[0][2] == pytest.approx(1.0, abs=1e-9)

    def test_resolution_two_has_no_disc_points(self):
        rows = disc_grid(from_bloch(0.0, 0.0), 2, "maxeig")
        assert len(rows) <= 4
        assert rows == []

    def test_interior_points_have_positive_strength(self):
        rows = disc_grid(from_bloch(0.1, -0.2), 11, "maxeig")
        interior = [k for x, z, k in rows if x * x + z * z < 1.0 - 1e-9]
        assert all(k > 0 for k in interior)

    def test_pure_target_zeroes_interior_sources(self):
        rows = disc_grid(from_bloch(0.0, 1.0), 11, "maxeig")
        for x, z, k in rows:
            if x * x + z * z < 1.0 - 1e-9:
                assert k == 0.0

    def test_row_order(self):
        rows = disc_grid(from_bloch(0.0, 0.0), 7, "maxeig")
        zs = [z for _, z, _ in rows]
        assert zs == sorted(zs, reverse=True)
        by_z: dict[float, list[float]] = {}
        for x, z, _ in rows:
            by_z.setdefault(z, []).append(x)
        for xs in by_z.values():
            assert xs == sorted(xs)

    def test_mirror_symmetry_for_diagonal_target(self):
        rows = disc_grid(from_bloch(0.0, 0.4), 11, "maxeig")
        strengths = {(round(x, 9), round(z, 9)): k for x, z, k in rows}
        for (x, z), k in strengths.items():
            assert abs(strengths[(round(-x, 9), z)] - k) <= 1e-10

    def test_small_resolution_rejected(self):
        with pytest.raises(ResolutionError):
            disc_grid(from_bloch(0.0, 0.0), 1, "maxeig")

    def test_resolution_over_the_cap_refused_before_any_array(self):
        assert MAX_DISC_POINTS < 1025 * 1025
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match="over the cap"):
                disc_grid(from_bloch(0.0, 0.0), 1025, "maxeig")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cap_counts_lattice_points(self, monkeypatch):
        monkeypatch.setattr(entailment, "MAX_DISC_POINTS", 11 * 11)
        # 81 of the 121 lattice points lie in the disc.
        assert len(disc_grid(from_bloch(0.0, 0.0), 11, "maxeig")) == 81
        with pytest.raises(ResolutionError):
            disc_grid(from_bloch(0.0, 0.0), 12, "maxeig")

    def test_target_must_be_density(self):
        with pytest.raises(NotDensityOperator):
            disc_grid(np.diag([2.0, 0.0]), 5, "maxeig")

    def test_csv_format(self):
        rows = [(0.0, 1.0, 0.5), (-0.25, 0.125, 1.0 / 3.0)]
        text = format_grid_csv(rows)
        assert text.splitlines()[0] == "x,z,k"
        assert text.splitlines()[1] == "0,1,0.5"
        assert text.splitlines()[2] == "-0.25,0.125,0.333333333"

"""Tests for the graded entailment calculus."""

import numpy as np
import pytest

from densem.entailment import (
    EntailmentResult,
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
from densem.errors import (
    DimensionMismatch,
    EmptyProposition,
    NotDensityOperator,
    NotPositiveSemidefinite,
    OutsideDiscError,
    ResolutionError,
    StrengthRangeError,
    ZeroOperatorError,
)
from densem.psd import pseudo_inverse, sqrt_psd, support_projector
from helpers import bisect_max_strength, nested_psd_pair, random_psd

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
    return float(10.0 ** rng.uniform(-9.0, 9.0))


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

    def test_non_nested_pairs_never_contained(self):
        rng = np.random.default_rng(62)
        for _ in range(600):
            dim = int(rng.integers(2, 9))
            a = random_psd(rng, dim, rank=int(rng.integers(2, dim + 1)))
            b = random_psd(rng, dim, rank=1)
            c = _log_uniform(rng)
            assert not supports_contained(c * a, b)
            assert not supports_contained(a, c * b)


@pytest.fixture
def eigensolves(monkeypatch):
    """Count the calls to numpy's symmetric eigensolvers."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(_solver)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestEigensolveCounts:
    """One eigensolve per operand, plus one r x r solve for a strength."""

    def test_k_max_contained(self, eigensolves):
        k_max(np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.0]))
        assert len(eigensolves) == 3

    def test_k_max_not_contained(self, eigensolves):
        k_max(BLOCK_A, BLOCK_B)
        assert len(eigensolves) == 2

    @pytest.mark.parametrize(
        "primitive", [pseudo_inverse, sqrt_psd, support_projector, bayes_transform]
    )
    def test_primitives_factorise_once(self, primitive, eigensolves):
        primitive(random_psd(np.random.default_rng(63), 4))
        assert len(eigensolves) == 1


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

    def test_bayes_strategy_matches_transform(self):
        rng = np.random.default_rng(59)
        a = random_psd(rng, 3)
        np.testing.assert_allclose(normalize(a, "bayes"), bayes_transform(a))


class TestBayesTransform:
    def test_running_products_on_diagonal(self):
        result = bayes_transform(np.diag([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(result, np.diag([0.5, 0.15, 0.03]), atol=1e-12)

    def test_identity_preserved(self):
        np.testing.assert_allclose(bayes_transform(np.eye(2)), np.eye(2), atol=1e-12)

    def test_rank_one_unchanged(self):
        v = np.array([0.6, 0.8, 0.0, 0.0])
        m = 0.8 * np.outer(v, v)
        np.testing.assert_allclose(bayes_transform(m), m, atol=1e-12)

    def test_rotated_diagonal(self):
        rng = np.random.default_rng(60)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        d = np.diag([0.5, 0.3, 0.2])
        m = q @ d @ q.T
        expected = q @ np.diag([0.5, 0.15, 0.03]) @ q.T
        np.testing.assert_allclose(bayes_transform(m), expected, atol=1e-10)


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


class TestDiscGrid:
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

    def test_target_must_be_density(self):
        with pytest.raises(NotDensityOperator):
            disc_grid(np.diag([2.0, 0.0]), 5, "maxeig")

    def test_csv_format(self):
        rows = [(0.0, 1.0, 0.5), (-0.25, 0.125, 1.0 / 3.0)]
        text = format_grid_csv(rows)
        assert text.splitlines()[0] == "x,z,k"
        assert text.splitlines()[1] == "0,1,0.5"
        assert text.splitlines()[2] == "-0.25,0.125,0.333333333"

"""Tests for the symmetric PSD matrix primitives."""

import numpy as np
import pytest

import densem.psd as psd
from densem.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotDensityOperator,
    NotPositiveSemidefinite,
    NotSymmetric,
)
from helpers import (
    bisect_max_strength,
    nested_psd_pair,
    pseudo_inverse,
    random_density,
    random_psd,
    support_projector,
)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            psd.spectrum(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            psd.spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            psd.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("exponent", range(-30, 31, 5))
    def test_rejects_asymmetric_at_every_scale(self, exponent):
        # Each matrix is held to its own scale, so no size escapes the rule.
        with pytest.raises(NotSymmetric):
            psd.spectrum(10.0**exponent * np.array([[0.0, 1.0], [0.0, 0.0]]))


def reconstruct(s: psd.Spectrum) -> np.ndarray:
    r = (s.v * s.w) @ s.v.T
    return 0.5 * (r + r.T)


class TestEig:
    def test_diagonal(self):
        dec = psd.spectrum(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(dec.w, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(dec.v), np.eye(2)[:, ::-1], atol=1e-14)

    def test_exchange_matrix(self):
        dec = psd.spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.w, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_seed_7(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(6, 6))
        m = 0.5 * (g + g.T)
        dec = psd.spectrum(m)
        residual = np.linalg.norm(reconstruct(dec) - m)
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_reconstruction_and_orthonormality_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            dim = int(rng.integers(1, 17))
            g = rng.normal(size=(dim, dim))
            m = 0.5 * (g + g.T)
            dec = psd.spectrum(m)
            assert np.all(np.diff(dec.w) >= -1e-12)
            gram = dec.v.T @ dec.v
            assert np.abs(gram - np.eye(dim)).max() <= 1e-9
            residual = np.linalg.norm(reconstruct(dec) - m)
            assert residual <= 1e-9 * max(1.0, np.linalg.norm(m))


class TestIsPsd:
    def test_diag_psd(self):
        assert psd.is_psd(np.diag([1.0, 0.0]))

    def test_small_negative_rejected(self):
        assert not psd.is_psd(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("exponent", range(-30, 31, 5))
    def test_negative_eigenvalue_refused_at_every_scale(self, exponent):
        # A given matrix is held to its own top eigenvalue, with no unit floor.
        assert not psd.is_psd(10.0**exponent * np.diag([1.0, -1e-2]))

    def test_boundary_from_bisection_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            a, b = nested_psd_pair(rng, int(rng.integers(2, 7)))
            if np.linalg.norm(a) < 1e-6:
                continue
            k_star = bisect_max_strength(a, b)
            # Decided by the order at the operands' scale: the bare
            # difference is all round-off here, so no rule reading only it
            # can decide.  k_star may exceed 1, past is_k_hyponym's range.
            assert psd.loewner_leq(k_star * a, b)
            assert not psd.loewner_leq(k_star * (1 + 1e-4) * a, b)
            checked += 1


class TestLoewner:
    def test_projector_below_identity(self):
        assert psd.loewner_leq(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))

    def test_identity_not_below_projector(self):
        assert not psd.loewner_leq(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))

    def test_reflexive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_psd(rng, 4)
            assert psd.loewner_leq(a, a)

    def test_transitive_on_chains(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_psd(rng, 5)
            b = a + random_psd(rng, 5)
            c = b + random_psd(rng, 5)
            assert psd.loewner_leq(a, b) and psd.loewner_leq(b, c)
            assert psd.loewner_leq(a, c)

    def test_requires_psd_operands(self):
        indefinite = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveSemidefinite, match="^A is not"):
            psd.loewner_leq(indefinite, 2.0 * np.eye(2))
        with pytest.raises(NotPositiveSemidefinite, match="^B is not"):
            psd.loewner_leq(np.zeros((2, 2)), indefinite)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd.loewner_leq(np.eye(2), np.eye(3))

    def test_dim_mismatch_reversed(self):
        with pytest.raises(DimensionMismatch):
            psd.loewner_leq(np.eye(3), np.eye(2))

    def test_comparable_densities_are_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            for x, y in ((rho, sigma), (rho, rho.copy())):
                if psd.loewner_leq(x, y):
                    assert np.linalg.norm(x - y) <= 1e-7


# The plain numpy oracles of tests/helpers.py, checked on their own.
class TestPseudoInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_penrose_identities_rank2_seed_3(self):
        rng = np.random.default_rng(3)
        m = random_psd(rng, 4, rank=2)
        plus = pseudo_inverse(m)
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(m @ plus @ m - m) <= 1e-8 * scale
        assert np.linalg.norm(plus @ m @ plus - plus) <= 1e-8 * max(1.0, np.linalg.norm(plus))


class TestSupportProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projector(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(support_projector(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rank_one_matches_outer_product(self):
        v = np.array([0.6, 0.8])
        expected = np.outer(v, v) / (v @ v)
        p = support_projector(np.outer(v, v))
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_idempotent_with_counted_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            rank = int(rng.integers(1, dim + 1))
            m = random_psd(rng, dim, rank=rank)
            p = support_projector(m)
            assert np.linalg.norm(p @ p - p) <= 1e-8
            assert round(np.trace(p)) == rank


class TestSatisfaction:
    def test_pure_state_on_own_projector(self):
        assert psd.satisfaction(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_identity_predicate(self):
        assert psd.satisfaction(np.diag([0.5, 0.5]), np.eye(2)) == pytest.approx(1.0)

    def test_half_overlap(self):
        assert psd.satisfaction(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == pytest.approx(0.5)

    def test_requires_unit_trace(self):
        with pytest.raises(NotDensityOperator):
            psd.satisfaction(np.diag([1.0, 1.0]), np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd.satisfaction(np.diag([1.0, 0.0]), np.eye(3))

    def test_monotone_under_loewner(self):
        rng = np.random.default_rng(12)
        a = random_psd(rng, 4)
        b = a + random_psd(rng, 4)
        for _ in range(100):
            rho = random_density(rng, 4)
            assert psd.satisfaction(rho, a) <= psd.satisfaction(rho, b) + 1e-8


class TestProjectionOrderEmbedding:
    """Projector comparison agrees with range containment."""

    def test_embedding_both_directions(self):
        from helpers import random_projector

        rng = np.random.default_rng(21)
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            rank_q = int(rng.integers(1, dim + 1))
            q = random_projector(rng, dim, rank_q)
            if rng.random() < 0.5:
                vq = psd.spectrum(q).v[:, ::-1][:, :rank_q]
                rank_p = int(rng.integers(1, rank_q + 1))
                p = vq[:, :rank_p] @ vq[:, :rank_p].T
            else:
                p = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
            residual = np.linalg.norm((np.eye(dim) - support_projector(q)) @ p)
            assert psd.loewner_leq(p, q) == (residual <= 1e-8)

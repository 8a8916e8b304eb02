"""Acceptance suite: one check per shipped guarantee, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from contextlib import contextmanager
from math import prod

import numpy as np
import pytest

import densem.psd as psd
from densem.entailment import (
    Normalization,
    disc_grid,
    from_bloch,
    general_error,
    is_k_hyponym,
    k_max,
    normalize,
    to_bloch,
)
from densem.cli import main as cli_main
from densem.lexicon import load_lexicon
from densem.pregroup import parse_type, reduce
from densem.semantics import (
    DensityTensor,
    double,
    evaluate,
    space_dims,
    word_meaning,
)
from helpers import (
    FIXTURES,
    bisect_max_strength,
    compose_sentence,
    nested_psd_pair,
    pseudo_inverse,
    random_density,
    random_projector,
    random_psd,
    support_projector,
)

S_TYPE = parse_type("s")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def sentence_pair_strength(lexicon, sentence_a, sentence_b):
    a = compose_sentence(lexicon, sentence_a, S_TYPE)
    b = compose_sentence(lexicon, sentence_b, S_TYPE)
    return a, b, k_max(a.matrix, b.matrix)


def word_strength_product(lexicon, sentence_a, sentence_b):
    entries_a = lexicon.lookup_sentence(sentence_a)
    entries_b = lexicon.lookup_sentence(sentence_b)
    bound = 1.0
    for ea, eb in zip(entries_a, entries_b):
        result = k_max(
            word_meaning(ea, lexicon.spaces).matrix,
            word_meaning(eb, lexicon.spaces).matrix,
        )
        bound *= result.k_max
    return bound


def test_even_pet_mixture_strength_and_speed():
    with criterion("pure dog into even dog/cat mixture: strength 1/2 in under 1 ms"):
        dog = double(np.array([1.0, 0.0]), (2,)).matrix
        cat = double(np.array([0.0, 1.0]), (2,)).matrix
        pet = 0.5 * dog + 0.5 * cat
        k_max(dog, pet)  # warm-up
        best = min(
            _timed(lambda: k_max(dog, pet))
            for _ in range(5)
        )
        result = k_max(dog, pet)
        assert abs(result.k_max - 0.5) <= 1e-9
        assert best < 1e-3, f"best of 5 runs took {best:.6f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_shared_two_state_mixture_formula():
    with criterion("strength between mixtures of two shared pure states follows r/s rule"):
        rng = np.random.default_rng(101)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            psi, phi = q[:, 0], q[:, 1]
            r = float(rng.uniform(0.05, 0.95))
            s = float(rng.uniform(0.05, 0.95))
            rho = r * np.outer(psi, psi) + (1 - r) * np.outer(phi, phi)
            sigma = s * np.outer(psi, psi) + (1 - s) * np.outer(phi, phi)
            expected = r / s if r < s else (1 - r) / (1 - s)
            result = k_max(sigma, rho)
            assert result.supports_contained
            assert abs(result.k_max - expected) <= 1e-8


def test_disjoint_support_counterexample_and_general_error():
    with criterion("disjoint-support pair has no strength but exact error split"):
        a = np.diag([1.0, 1.0, 0.0])
        b = np.diag([1.0, 0.0, 1.0])
        result = k_max(a, b)
        assert not result.supports_contained
        assert result.k_max is None
        decomposition = general_error(a, b)
        np.testing.assert_allclose(
            decomposition.excess, np.diag([0.0, 1.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            decomposition.deficit, np.diag([0.0, 0.0, 1.0]), atol=1e-12
        )


def test_transitive_sentence_word_bound(capsys):
    with criterion("scoff/eat sentences: word bound 1/4 reported and certified"):
        code = cli_main(
            [
                "entail",
                "--lexicon",
                str(FIXTURES / "scoff_eat.json"),
                "John scoffs cake",
                "John eats sweets",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "word_product_bound: 0.25" in out
        lexicon = load_lexicon(FIXTURES / "scoff_eat.json")
        s1, s2, result = sentence_pair_strength(
            lexicon, "John scoffs cake", "John eats sweets"
        )
        assert is_k_hyponym(s1.matrix, s2.matrix, 0.25)
        assert result.k_max >= 0.25 - 1e-12


def test_truth_theoretic_sentence_strengths():
    with criterion("truth-theoretic sentences evaluate to 1 and 2/3 with strength 2/3"):
        lexicon = load_lexicon(FIXTURES / "truth.json")
        s1, s2, result = sentence_pair_strength(
            lexicon, "Annie enjoys holidays", "students enjoy holidays"
        )
        assert abs(s1.matrix[0, 0] - 1.0) <= 1e-9
        assert abs(s2.matrix[0, 0] - 2.0 / 3.0) <= 1e-9
        assert abs(result.k_max - 2.0 / 3.0) <= 1e-8
        bound = word_strength_product(
            lexicon, "Annie enjoys holidays", "students enjoy holidays"
        )
        assert abs(bound - 1.0 / 3.0) <= 1e-8
        assert result.k_max > bound


def test_object_hyponymy_sentence_strength():
    with criterion("gingerbread/sweets sentences: strength exactly 1/10 and maximal"):
        lexicon = load_lexicon(FIXTURES / "gretel.json")
        s1, s2, result = sentence_pair_strength(
            lexicon, "Gretel likes gingerbread", "Gretel likes sweets"
        )
        assert abs(result.k_max - 0.1) <= 1e-8
        assert is_k_hyponym(s1.matrix, s2.matrix, result.k_max)
        assert not is_k_hyponym(s1.matrix, s2.matrix, 0.1 * (1 + 1e-4))


def test_subject_and_object_hyponymy_sentence_strength():
    with criterion("siblings/sweets sentences: strength exactly 1/4 and maximal"):
        lexicon = load_lexicon(FIXTURES / "siblings.json")
        s1, s2, result = sentence_pair_strength(
            lexicon, "Gretel likes gingerbread", "the_siblings like sweets"
        )
        assert abs(result.k_max - 0.25) <= 1e-8
        assert is_k_hyponym(s1.matrix, s2.matrix, result.k_max)
        assert not is_k_hyponym(s1.matrix, s2.matrix, 0.25 * (1 + 1e-4))


def test_relative_clause_containment():
    with criterion("relative clauses: women/animals dominates elderly/cats at 1/6"):
        from densem.semantics import relative_clause

        lexicon = load_lexicon(FIXTURES / "relative.json")

        def clause(subj, verb, obj):
            return relative_clause(
                word_meaning(lexicon.words[subj], lexicon.spaces),
                word_meaning(lexicon.words[verb], lexicon.spaces),
                word_meaning(lexicon.words[obj], lexicon.spaces),
            )

        s1 = clause("elderly_ladies", "own", "cats")
        s2 = clause("women", "own", "animals")
        w = np.linalg.eigvalsh(s2.matrix - s1.matrix / 6.0)
        assert w[0] >= -1e-9


def test_closed_form_matches_bisection_oracle():
    with criterion("closed-form strength matches bisection on 500 nested pairs in <10 s"):
        rng = np.random.default_rng(500)
        start = time.perf_counter()
        checked = 0
        while checked < 500:
            dim = int(rng.integers(2, 9))
            a, b = nested_psd_pair(rng, dim)
            if np.linalg.norm(a) < 1e-6:
                continue
            result = k_max(a, b)
            assert result.supports_contained
            oracle = bisect_max_strength(a, b)
            assert abs(result.raw_k - oracle) <= 1e-8 * oracle
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


class TestPropertySuites:
    def test_reflexivity(self):
        with criterion("strength of any operator into itself is 1 (1000 cases)"):
            rng = np.random.default_rng(1)
            for _ in range(1000):
                dim = int(rng.integers(2, 7))
                rank = int(rng.integers(1, dim + 1))
                a = random_psd(rng, dim, rank=rank)
                if np.linalg.norm(a) < 1e-6:
                    continue
                result = k_max(a, a)
                assert abs(result.k_max - 1.0) <= 1e-9

    def test_transitivity_product_bound(self):
        with criterion("strength is supermultiplicative along chains (1000 cases)"):
            rng = np.random.default_rng(2)
            checked = 0
            while checked < 1000:
                dim = int(rng.integers(2, 7))
                rank_c = int(rng.integers(1, dim + 1))
                rank_b = int(rng.integers(1, rank_c + 1))
                rank_a = int(rng.integers(1, rank_b + 1))
                gc = rng.normal(size=(dim, rank_c))
                c = gc @ gc.T
                gb = gc @ rng.normal(size=(rank_c, rank_b))
                b = gb @ gb.T
                ga = gb @ rng.normal(size=(rank_b, rank_a))
                a = ga @ ga.T
                if min(np.linalg.norm(m) for m in (a, b, c)) < 1e-6:
                    continue
                k_ab = k_max(a, b)
                k_bc = k_max(b, c)
                k_ac = k_max(a, c)
                assert k_ab.supports_contained and k_bc.supports_contained
                assert k_ac.supports_contained
                assert k_ac.k_max >= k_ab.k_max * k_bc.k_max - 1e-8
                checked += 1

    def test_continuity_bound(self):
        with criterion("perturbation decay obeys the eigenvalue continuity bound"):
            rng = np.random.default_rng(3)
            checked = 0
            while checked < 334:
                dim = int(rng.integers(2, 7))
                a, b = nested_psd_pair(rng, dim)
                if np.linalg.norm(a) < 1e-6:
                    continue
                projector = support_projector(b)
                raw_rho = projector @ random_psd(rng, dim) @ projector
                trace = np.trace(raw_rho)
                if trace < 1e-6:
                    continue
                rho = raw_rho / trace
                b_pinv_top = float(np.linalg.eigvalsh(pseudo_inverse(b))[-1])
                base = k_max(a, b)
                for delta in (1e-1, 1e-2, 1e-3):
                    perturbed = k_max(a + delta * rho, b)
                    assert perturbed.supports_contained
                    bound = delta * b_pinv_top * base.raw_k * perturbed.raw_k
                    assert base.raw_k - perturbed.raw_k <= bound + 1e-8
                checked += 1

    def test_trace_one_collapse(self):
        with criterion("distinct trace-1 states are never ordered (1000 cases)"):
            rng = np.random.default_rng(4)
            for _ in range(1000):
                dim = int(rng.integers(2, 7))
                rho = random_density(rng, dim)
                sigma = random_density(rng, dim)
                assert not psd.loewner_leq(rho, sigma)
                assert not psd.loewner_leq(sigma, rho)

    def test_satisfaction_monotone(self):
        with criterion("ordered predicates are satisfied monotonically (1000 cases)"):
            rng = np.random.default_rng(5)
            for _ in range(10):
                dim = int(rng.integers(2, 6))
                a = random_psd(rng, dim)
                b = a + random_psd(rng, dim)
                assert psd.loewner_leq(a, b)
                for _ in range(100):
                    rho = random_density(rng, dim)
                    assert psd.satisfaction(rho, a) <= psd.satisfaction(rho, b) + 1e-8

    def test_projection_order_embedding(self):
        with criterion("projector comparison equals range containment (1000 cases)"):
            rng = np.random.default_rng(6)
            for _ in range(1000):
                dim = int(rng.integers(2, 7))
                rank_q = int(rng.integers(1, dim + 1))
                q = random_projector(rng, dim, rank_q)
                if rng.random() < 0.5:
                    vq = psd.spectrum(q).v[:, ::-1][:, :rank_q]
                    rank_p = int(rng.integers(1, rank_q + 1))
                    p = vq[:, :rank_p] @ vq[:, :rank_p].T
                else:
                    p = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
                residual = np.linalg.norm(
                    (np.eye(dim) - support_projector(q)) @ p
                )
                assert psd.loewner_leq(p, q) == (residual <= 1e-8)

    def test_snake_equations(self):
        with criterion("snake identities hold for dimensions 1 through 8"):
            for dim in range(1, 9):
                # The unit (1 -> sum_i |i>|i>) and counit (|i>|j> -> delta_ij)
                # coefficient tensors; both zig-zag composites are the identity.
                unit = np.eye(dim)
                counit = np.eye(dim)
                basis = np.eye(dim)
                bent_right = np.einsum("ij,ck->cijk", unit, basis)
                left_composite = np.einsum("cijk,jk->ci", bent_right, counit)
                bent_left = np.einsum("ci,jk->cijk", basis, unit)
                right_composite = np.einsum("cijk,ij->ck", bent_left, counit)
                assert np.abs(left_composite - basis).max() <= 1e-12
                assert np.abs(right_composite - basis).max() <= 1e-12

    def test_general_sentence_lower_bound(self):
        with criterion("word strengths multiply into a sentence lower bound (2-4 slots)"):
            rng = np.random.default_rng(7)
            spaces = {"n": 2, "s": 2}
            structures = {
                2: ["n", "n.r s"],
                3: ["n", "n.r s n.l", "n"],
                4: ["n n.l", "n", "n.r s n.l", "n"],
            }
            checked = 0
            while checked < 1000:
                slots = int(rng.integers(2, 5))
                types = [parse_type(t) for t in structures[slots]]
                pattern = reduce(types, S_TYPE)
                assert pattern is not None
                words_a = []
                words_b = []
                product = 1.0
                for ptype in types:
                    dims = space_dims(ptype, spaces)
                    size = prod(dims)
                    a = random_psd(rng, size)
                    strength = float(rng.uniform(0.2, 1.0))
                    b = strength * a + random_psd(rng, size)
                    product *= strength
                    words_a.append((DensityTensor.from_matrix(a, dims), ptype))
                    words_b.append((DensityTensor.from_matrix(b, dims), ptype))
                sentence_a = evaluate(words_a, pattern, spaces)
                sentence_b = evaluate(words_b, pattern, spaces)
                result = k_max(sentence_a.matrix, sentence_b.matrix)
                assert result.supports_contained
                assert result.k_max >= product - 1e-8
                checked += 1

    def test_transitive_sentences_with_shared_verb(self):
        with criterion("noun strengths multiply across a shared transitive verb"):
            rng = np.random.default_rng(8)
            spaces = {"n": 2, "s": 2}
            noun = parse_type("n")
            verb_type = parse_type("n.r s n.l")
            pattern = reduce([noun, verb_type, noun], S_TYPE)
            checked = 0
            while checked < 200:
                subj_a, subj_b = nested_psd_pair(rng, 2)
                obj_a, obj_b = nested_psd_pair(rng, 2)
                if min(np.linalg.norm(m) for m in (subj_a, obj_a)) < 1e-6:
                    continue
                verb = DensityTensor.from_matrix(random_psd(rng, 8), (2, 2, 2))
                k = k_max(subj_a, subj_b)
                l = k_max(obj_a, obj_b)
                sentence_a = evaluate(
                    [
                        (DensityTensor.from_matrix(subj_a, (2,)), noun),
                        (verb, verb_type),
                        (DensityTensor.from_matrix(obj_a, (2,)), noun),
                    ],
                    pattern,
                    spaces,
                )
                sentence_b = evaluate(
                    [
                        (DensityTensor.from_matrix(subj_b, (2,)), noun),
                        (verb, verb_type),
                        (DensityTensor.from_matrix(obj_b, (2,)), noun),
                    ],
                    pattern,
                    spaces,
                )
                if np.linalg.norm(sentence_a.matrix) < 1e-9:
                    continue
                result = k_max(sentence_a.matrix, sentence_b.matrix)
                assert result.supports_contained
                assert result.k_max >= k.k_max * l.k_max - 1e-8
                checked += 1

    def test_strict_entailment_corollary(self):
        with criterion("componentwise domination gives sentence domination"):
            rng = np.random.default_rng(9)
            spaces = {"n": 2, "s": 2}
            noun = parse_type("n")
            verb_type = parse_type("n.r s n.l")
            pattern = reduce([noun, verb_type, noun], S_TYPE)
            for _ in range(200):
                words_a = []
                words_b = []
                for ptype in (noun, verb_type, noun):
                    dims = space_dims(ptype, spaces)
                    size = prod(dims)
                    a = random_psd(rng, size)
                    b = a + random_psd(rng, size)
                    words_a.append((DensityTensor.from_matrix(a, dims), ptype))
                    words_b.append((DensityTensor.from_matrix(b, dims), ptype))
                sentence_a = evaluate(words_a, pattern, spaces)
                sentence_b = evaluate(words_b, pattern, spaces)
                assert psd.loewner_leq(sentence_a.matrix, sentence_b.matrix)

    def test_contraction_preserves_positivity(self):
        with criterion("contracted sentence tensors stay positive (100 cases)"):
            rng = np.random.default_rng(10)
            noun = parse_type("n")
            verb_type = parse_type("n.r s n.l")
            for _ in range(100):
                nd = int(rng.integers(2, 5))
                sd = int(rng.integers(2, 5))
                spaces = {"n": nd, "s": sd}
                pattern = reduce([noun, verb_type, noun], S_TYPE)
                words = [
                    (DensityTensor.from_matrix(random_psd(rng, nd), (nd,)), noun),
                    (
                        DensityTensor.from_matrix(
                            random_psd(rng, nd * sd * nd), (nd, sd, nd)
                        ),
                        verb_type,
                    ),
                    (DensityTensor.from_matrix(random_psd(rng, nd), (nd,)), noun),
                ]
                result = evaluate(words, pattern, spaces)
                w = np.linalg.eigvalsh(result.matrix)
                assert w[0] >= -1e-9 * max(1.0, w[-1])

    def test_frobenius_axioms(self):
        with criterion("copy/merge algebra is commutative and special up to dim 6"):
            for dim in range(1, 7):
                copy = np.zeros((dim, dim, dim))
                merge = np.zeros((dim, dim, dim))
                for i in range(dim):
                    copy[i, i, i] = 1.0
                    merge[i, i, i] = 1.0
                np.testing.assert_allclose(copy, copy.transpose(1, 0, 2))
                np.testing.assert_allclose(merge, merge.transpose(0, 2, 1))
                composed = np.einsum("ijk,jkl->il", merge, copy)
                np.testing.assert_allclose(composed, np.eye(dim), atol=1e-14)
                unit_merge = np.einsum("ijk,j->ik", merge, np.ones(dim))
                np.testing.assert_allclose(unit_merge, np.eye(dim), atol=1e-14)

    def test_bayes_running_products(self):
        with criterion("spectral running-product transform (1000 cases)"):
            rng = np.random.default_rng(11)
            for _ in range(1000):
                dim = int(rng.integers(2, 9))
                rho = random_density(rng, dim)
                expected = np.cumprod(np.sort(np.linalg.eigvalsh(rho))[::-1].clip(0.0))
                transformed = normalize(rho, "bayes")
                got = np.sort(np.linalg.eigvalsh(transformed))[::-1]
                np.testing.assert_allclose(got, expected, atol=1e-10)
                assert np.all(np.diff(got) <= 1e-10)

    def test_bloch_roundtrip(self):
        with criterion("disc coordinates roundtrip to 1e-12 (1000 cases)"):
            rng = np.random.default_rng(12)
            count = 0
            while count < 1000:
                x, z = rng.uniform(-1.0, 1.0, size=2)
                if x * x + z * z > 1.0:
                    continue
                gx, gz = to_bloch(from_bloch(x, z))
                assert abs(gx - x) <= 1e-12 and abs(gz - z) <= 1e-12
                count += 1


def _maxeig_bloch(x, z):
    """Disc state at (x, z) scaled to top eigenvalue 1, built without densem."""
    m = 0.5 * np.array([[1.0 + z, x], [x, 1.0 - z]])
    return m / np.linalg.eigvalsh(m)[-1]


def test_disc_grid_runtime_and_peak():
    # Under maxeig, k = 1 exactly on the states that share the target's top
    # eigenvector and are at least as pure: the segment r * direction with
    # 0.75 <= r <= 1.  tan(pi/5) is irrational, so no lattice point lies on
    # it; the peak can only come within one lattice spacing of it.
    resolution = 101
    with criterion(
        "reference disc grid finishes in <5 s, matches the bisection oracle at the "
        "nearest lattice point, and peaks on the full-strength segment"
    ):
        direction = np.array([np.sin(np.pi / 5), np.cos(np.pi / 5)])
        target_x, target_z = 0.75 * direction
        target = from_bloch(target_x, target_z)
        start = time.perf_counter()
        rows = disc_grid(target, resolution, Normalization.MAX_EIG_ONE)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        nearest = min(
            rows, key=lambda row: (row[0] - target_x) ** 2 + (row[1] - target_z) ** 2
        )
        oracle = bisect_max_strength(
            _maxeig_bloch(*nearest[:2]), _maxeig_bloch(target_x, target_z)
        )
        assert abs(nearest[2] - oracle) <= 1e-9, (
            f"strength at nearest lattice point {nearest[:2]} is {nearest[2]!r}, "
            f"bisection oracle gives {oracle!r}"
        )
        peak = max(rows, key=lambda row: row[2])
        point = np.array(peak[:2])
        radius = min(max(float(point @ direction), 0.75), 1.0)
        off_segment = float(np.linalg.norm(point - radius * direction))
        spacing = 2.0 / (resolution - 1)
        assert off_segment <= spacing, (
            f"peak {peak!r} lies {off_segment:.4g} from the full-strength segment, "
            f"more than one lattice spacing {spacing:.4g}"
        )

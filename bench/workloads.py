"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload generates all of its inputs from the seed in ``__init__``
(``inputs`` is plain JSON, so determinism can be checked by comparing
dumps), builds densem objects in ``setup`` through the public API only,
and then serves an endless sequence of *cycles*.  A cycle holds a fixed
mix of operations, and runs stop only at cycle boundaries, so every run
measures the same mix whatever its length.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
from functools import cached_property
from math import prod
from pathlib import Path
from time import perf_counter

import numpy as np

import densem as dm
import oracle
from oracle import close, expect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
FIXTURES = ROOT / "tests" / "fixtures"
STRATEGIES = ("none", "trace", "maxeig", "bayes")


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _words(rng, prefix, ptype, dim, leaves, groups):
    """Pure leaf words plus one hypernym mixing the leaves of each group.

    Returns lexicon entries and each word's set of leaves; with at most
    ``dim`` random leaves the vectors are independent, so the support of
    one word lies inside another's exactly when its leaves are a subset.
    """
    vectors = [_unit(rng, dim).tolist() for _ in range(leaves)]
    members = [(i,) for i in range(leaves)] + [tuple(g) for g in groups]
    entries, leaf_sets = [], {}
    for j, group in enumerate(members):
        word = f"{prefix}{j}"
        weights = rng.dirichlet(np.full(len(group), 2.0)).tolist() if len(group) > 1 else [1.0]
        mixture = [{"weight": w, "vector": vectors[i]} for w, i in zip(weights, group)]
        entries.append({"word": word, "type": ptype, "meaning": {"pure_mixture": mixture}})
        leaf_sets[word] = group
    return entries, leaf_sets


def _disc_target(rng) -> dict[str, float]:
    """A seeded state strictly inside the disc, so every state has a strength into it."""
    radius, angle = rng.uniform(0.2, 0.9), rng.uniform(0.0, 2 * np.pi)
    return {"x": float(radius * np.cos(angle)), "z": float(radius * np.sin(angle))}


def _hypernyms(leaf_sets):
    """word -> the words whose leaves include its own (itself among them)."""
    return {
        w: [h for h, hs in leaf_sets.items() if set(ws) <= set(hs)]
        for w, ws in leaf_sets.items()
    }


class Workload:
    """Interface shared by the workloads; ``run`` is the timed operation."""

    name = ""
    child_peak_kb = 0  # set by workloads whose operations are processes

    def cycles(self):
        return itertools.cycle(self.cycle_list)

    def layer_extras(self) -> dict[str, float]:
        return {}

    @cached_property
    def reference(self) -> dict[str, np.ndarray]:
        """Oracle matrices of the words of the generated lexicon."""
        return {
            e["word"]: oracle.mixture_matrix(e["meaning"]["pure_mixture"])
            for e in self.inputs["lexicon"]["words"]
            if "meaning" in e
        }


class EntailSentences(Workload):
    """What ``densem entail`` computes, for same-structure sentence pairs."""

    name = "entail-sentences"
    N = S = 4
    # Templates per cycle: N noun, A adjective, V verb, w the pronoun who.
    # The six-word template is ROADMAP's slow unplanned einsum and sets the
    # tail; four one-adjective pairs put the median inside one cost group
    # rather than on the edge between two.
    CYCLE = ("NVN", "NwVN", "ANVN", "NVAN", "ANVN", "NVAN", "ANVAN", "AANVAN")
    CYCLES = 8
    KINDS = {"N": ("n", "n"), "A": ("a", "n n.l"), "V": ("v", "n.r s n.l")}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n, s = self.N, self.S
        entries, hypernyms = [], {}
        for (prefix, ptype), dim, leaves, groups in (
            (self.KINDS["N"], n, 4, [(0, 1), (2, 3), (0, 1, 2, 3)]),
            (self.KINDS["A"], n * n, 3, [(0, 1), (0, 1, 2)]),
            (self.KINDS["V"], n * s * n, 3, [(0, 1), (0, 1, 2)]),
        ):
            more, sets = _words(rng, prefix, ptype, dim, leaves, groups)
            entries += more
            hypernyms |= _hypernyms(sets)
        entries.append({"word": "who", "type": "n.r n s.l n", "frobenius": "subject"})
        by_kind = {k: [w for w in hypernyms if w.startswith(p)] for k, (p, _) in self.KINDS.items()}
        cycles = []
        for _ in range(self.CYCLES):
            cycle = []
            for kinds in self.CYCLE:
                a = ["who" if k == "w" else str(rng.choice(by_kind[k])) for k in kinds]
                b = [w if w == "who" else str(rng.choice(hypernyms[w])) for w in a]
                cycle.append({
                    "kinds": kinds,
                    "a": " ".join(a),
                    "b": " ".join(b),
                    "strategy": str(rng.choice(STRATEGIES[:3])),
                })
            cycles.append(cycle)
        self.inputs = {
            "params": {"n": n, "s": s, "templates": list(self.CYCLE), "pairs": len(self.CYCLE) * self.CYCLES},
            "lexicon": {"spaces": {"n": n, "s": s}, "words": entries},
            "cycles": cycles,
        }
        self.cycle_list = cycles
        self._flops: dict[str, float] = {}

    def setup(self, t) -> None:
        self.lexicon = t.call("lexicon.load", dm.parse_lexicon, self.inputs["lexicon"])
        self.targets = {"s": dm.parse_type("s"), "n": dm.parse_type("n")}

    def _compose(self, t, sentence, kinds, strategy):
        spaces = self.lexicon.spaces
        entries = self.lexicon.lookup_sentence(sentence)
        target = self.targets["n" if "w" in kinds else "s"]
        pattern = t.call("pregroup.reduce", dm.reduce, [e.type for e in entries], target)
        expect(pattern is not None, f"'{sentence}' does not reduce to {target}")
        meanings = [
            t.call("semantics.word_meaning", dm.word_meaning, e, spaces)
            for e in entries
            if e.frobenius is None
        ]
        if "w" in kinds:
            tensor = t.call("semantics.relative_clause", dm.relative_clause, *meanings)
        else:
            words = [(m, e.type) for m, e in zip(meanings, entries)]
            tensor = t.call("semantics.evaluate", dm.evaluate, words, pattern, spaces)
            if t.enabled:
                t.count("semantics.evaluate.naive_flops", self.naive_flops(kinds))
        matrix = t.call("entailment.normalize", dm.normalize, tensor.matrix, strategy)
        return tensor.matrix, matrix, [m.matrix for m in meanings]

    def run(self, t, pair):
        kinds, strategy = pair["kinds"], pair["strategy"]
        raw_a, a, words_a = self._compose(t, pair["a"], kinds, strategy)
        raw_b, b, words_b = self._compose(t, pair["b"], kinds, strategy)
        results = [t.call("entailment.k_max", dm.k_max, a, b)]
        results += [
            t.call("entailment.k_max", dm.k_max, wa, wb) for wa, wb in zip(words_a, words_b)
        ]
        for result in results:
            t.count("entailment.k_max.contained", result.supports_contained)
        bound = prod(r.k_max for r in results[1:]) if all(r.supports_contained for r in results[1:]) else None
        return (raw_a, a), (raw_b, b), results, bound

    def naive_flops(self, kinds) -> float:
        """FLOPs numpy counts for the unplanned einsum, computed from shapes."""
        if kinds not in self._flops:
            shapes = {"N": self.N, "A": self.N**2, "V": self.N**2 * self.S}
            zeros = [np.zeros((shapes[k], shapes[k])) for k in kinds]
            operands, out = oracle.compose_operands(kinds, zeros, self.N, self.S)
            report = np.einsum_path(*operands, out, optimize=False)[1]
            line = next(x for x in report.splitlines() if "Naive FLOP count" in x)
            self._flops[kinds] = float(line.split(":")[1])
        return self._flops[kinds]

    def check(self, pair, output) -> None:
        kinds, strategy = pair["kinds"], pair["strategy"]
        expected = []
        for (raw, normalized), sentence in zip(output[:2], (pair["a"], pair["b"])):
            words = [self.reference[w] for w in sentence.split() if w != "who"]
            if "w" in kinds:
                meaning = oracle.relative_clause(*words, self.N, self.S)
            else:
                meaning = oracle.compose(kinds, words, self.N, self.S)
            close(raw, meaning, 1e-9, f"meaning of '{sentence}'")
            expected.append(oracle.normalize(meaning, strategy))
            close(normalized, expected[-1], 1e-9, f"{strategy} normalization of '{sentence}'")
        pairs = [tuple(expected)] + [
            (self.reference[a], self.reference[b])
            for a, b in zip(pair["a"].split(), pair["b"].split())
            if a != "who"
        ]
        strengths = []
        for (a, b), result in zip(pairs, output[2]):
            k = oracle.strength(a, b)
            expect(k is not None, "planted pair has no strength in the reference")
            expect(result.supports_contained, "densem reports supports not contained")
            close(result.raw_k, k, 1e-6, "k_max")
            strengths.append(min(1.0, k))
        expect(output[3] is not None, "word product bound unavailable")
        close(output[3], prod(strengths[1:]), 1e-6, "word product bound")


class HyponymyGraph(Workload):
    """All ordered pairs of same-type words, with planted hyponymy."""

    name = "hyponymy-graph"
    # base -> (dimension, families, leaves per family, leaves per sub-hypernym)
    SHAPES = {"n": (16, 3, 4, 2), "m": (64, 4, 12, 4)}
    # Per cycle: one d=16 pair, then three d=64 pairs.  The median and the
    # tail fall among the LAPACK-bound d=64 pairs, whose time varies less
    # with the load on a shared host than the interpreter-bound d=16 pairs.
    LARGE_PER_SMALL = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        entries, self.leaf_sets, pairs = [], {}, {}
        for base, (dim, families, per_family, per_group) in self.SHAPES.items():
            leaves = families * per_family
            family_sets = [range(f * per_family, (f + 1) * per_family) for f in range(families)]
            groups = [tuple(fam[i : i + per_group]) for fam in family_sets for i in range(0, per_family, per_group)]
            groups += [tuple(fam) for fam in family_sets] + [tuple(range(leaves))]
            more, sets = _words(rng, base, base, dim, leaves, groups)
            entries += more
            self.leaf_sets |= sets
            ordered = [[a, b] for a in sets for b in sets if a != b]
            pairs[base] = [ordered[i] for i in rng.permutation(len(ordered))]
        small, large = pairs["n"], pairs["m"]
        k = self.LARGE_PER_SMALL
        self.cycle_list = [
            [small[j % len(small)]] + [large[(k * j + i) % len(large)] for i in range(k)]
            for j in range(-(-len(large) // k))
        ]
        self.inputs = {
            "params": {base: dict(zip(("dim", "families", "leaves_per_family", "leaves_per_group"), shape))
                       for base, shape in self.SHAPES.items()}
            | {"pairs": {base: len(p) for base, p in pairs.items()}, "cycle": f"1 d=16 pair then {k} d=64 pairs"},
            "lexicon": {"spaces": {b: shape[0] for b, shape in self.SHAPES.items()}, "words": entries},
            "cycles": self.cycle_list,
        }

    def setup(self, t) -> None:
        lexicon = t.call("lexicon.load", dm.parse_lexicon, self.inputs["lexicon"])
        self.meanings = {
            word: t.call("semantics.word_meaning", dm.word_meaning, entry, lexicon.spaces).matrix
            for word, entry in lexicon.words.items()
        }

    def run(self, t, pair):
        a, b = self.meanings[pair[0]], self.meanings[pair[1]]
        result = t.call("entailment.k_max", dm.k_max, a, b)
        t.count("entailment.k_max.contained", result.supports_contained)
        if result.supports_contained:
            return result, None
        return result, t.call("entailment.general_error", dm.general_error, a, b)

    def check(self, pair, output) -> None:
        result, error = output
        planted = set(self.leaf_sets[pair[0]]) <= set(self.leaf_sets[pair[1]])
        expect(result.supports_contained == planted, f"{pair}: containment {result.supports_contained}, planted {planted}")
        a, b = self.reference[pair[0]], self.reference[pair[1]]
        if planted:
            close(result.raw_k, oracle.strength(a, b), 1e-6, f"{pair} k_max")
        else:
            close(error.excess, oracle.positive_part(a - b), 1e-8, f"{pair} excess")
            close(error.deficit, oracle.positive_part(b - a), 1e-8, f"{pair} deficit")


class DiscGrid(Workload):
    """``disc_grid`` at the CLI's default resolution, for seeded targets."""

    name = "disc-grid"
    RESOLUTION = 101
    CYCLES = 8
    # none and trace cost 4 eigensolves a point, maxeig 5, bayes 6.  A
    # second target under maxeig and bayes leaves two grids on either side
    # of the maxeig pair, so the median is the middle of one cost group.
    SECOND = ("maxeig", "bayes")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cycle_list = []
        for _ in range(self.CYCLES):
            first, second = _disc_target(rng), _disc_target(rng)
            order = [STRATEGIES[i] for i in rng.permutation(len(STRATEGIES))]
            self.cycle_list.append(
                [first | {"strategy": s} for s in order] + [second | {"strategy": s} for s in self.SECOND]
            )
        self.inputs = {
            "params": {"resolution": self.RESOLUTION, "cycles": self.CYCLES, "radius": [0.2, 0.9],
                       "cycle": f"a target under all four normalizations, another under {list(self.SECOND)}"},
            "cycles": self.cycle_list,
        }

    def setup(self, t) -> None:
        pass

    def run(self, t, op):
        target = dm.from_bloch(op["x"], op["z"])
        rows = t.call("entailment.disc_grid", dm.disc_grid, target, self.RESOLUTION, op["strategy"])
        t.count("entailment.disc_grid.points", len(rows))
        return rows

    def check(self, op, rows) -> None:
        oracle.check_disc_rows(rows, op["x"], op["z"], self.RESOLUTION, op["strategy"])


def parse_importtime(log: str) -> dict[str, float]:
    """Import milliseconds from a ``-X importtime`` log.

    ``total`` sums the top-level imports; ``densem`` is what densem's own
    modules cost once numpy and click, which it imports, are taken out.
    """
    cumulative: dict[str, float] = {}
    total = densem = 0.0
    for line in log.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        ms = int(fields[1]) / 1000.0
        module = fields[2][1:]
        cumulative.setdefault(module.strip(), ms)
        if not module.startswith(" "):
            total += ms
            if module.startswith("densem"):
                densem += ms
    numpy_ms = cumulative.get("numpy", 0.0)
    click_ms = cumulative.get("click", 0.0)
    return {"total": total, "numpy": numpy_ms, "click": click_ms, "densem": densem - numpy_ms - click_ms}


class CliProcess(Workload):
    """Fresh ``densem`` processes, one at a time, over the committed fixtures."""

    name = "cli-process"
    DISC_RESOLUTION = 21
    CYCLES = 16
    INTERPRETER_RUNS = 5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.goldens = json.loads((HERE / "cli_goldens.json").read_text(encoding="utf-8"))
        by_command: dict[str, list[str]] = {}
        for key, golden in self.goldens.items():
            by_command.setdefault(golden["argv"][0], []).append(key)
        self.cycle_list = []
        for _ in range(self.CYCLES):
            cycle = [{"golden": str(rng.choice(keys))} for keys in by_command.values()]
            cycle.append({"disc": _disc_target(rng) | {"strategy": str(rng.choice(STRATEGIES))}})
            self.cycle_list.append([cycle[i] for i in rng.permutation(len(cycle))])
        self.inputs = {
            "params": {"goldens": sorted(self.goldens), "disc_resolution": self.DISC_RESOLUTION,
                       "cycle": "one parse, compose, entail and disc process, seeded order"},
            "cycles": self.cycle_list,
        }
        self.samples: list[dict[str, float]] = []

    def setup(self, t) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.disc_csv = OUT_DIR / f"disc-{os.getpid()}.csv"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for path in sorted(FIXTURES.glob("*.json")):
            t.call("lexicon.load", dm.load_lexicon, path)
        if t.enabled:
            self.interpreter_ms = statistics.median(
                self._spawn([sys.executable, "-c", "pass"])[4] * 1e3 for _ in range(self.INTERPRETER_RUNS)
            )

    def argv(self, op) -> list[str]:
        if "golden" in op:
            return self.goldens[op["golden"]]["argv"]
        disc = op["disc"]
        return ["disc", "--target-x", repr(disc["x"]), "--target-z", repr(disc["z"]),
                "--resolution", str(self.DISC_RESOLUTION), "--normalize", disc["strategy"],
                "--out", str(self.disc_csv)]

    def _spawn(self, argv):
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            # stdout stays far below a pipe buffer, so draining stderr (the
            # import-time log) first cannot block the child
            err = proc.stderr.read()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss, perf_counter() - start

    def run(self, t, op):
        flags = ["-X", "importtime"] if t.enabled else []
        code, out, err, peak_kb, wall = self._spawn([sys.executable, *flags, "-m", "densem", *self.argv(op)])
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        if t.enabled:
            imports = parse_importtime(err)
            imports["run"] = wall * 1e3 - imports["total"]
            self.samples.append(imports)
        return code, out

    def check(self, op, output) -> None:
        code, out = output
        expect(code == 0, f"exit code {code}")
        if "golden" in op:
            expect(out == self.goldens[op["golden"]]["stdout"], f"{op['golden']}: stdout differs from golden")
            return
        disc = op["disc"]
        lines = self.disc_csv.read_text(encoding="utf-8").splitlines()
        self.disc_csv.unlink()
        expect(lines[0] == "x,z,k", "disc csv header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        oracle.check_disc_rows(rows, disc["x"], disc["z"], self.DISC_RESOLUTION, disc["strategy"])
        expect(out == f"rows: {len(rows)}\n", f"disc stdout {out!r}")

    def layer_extras(self) -> dict[str, float]:
        if not self.samples:
            return {}
        med = {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}
        return {
            "cli.interpreter_ms": self.interpreter_ms,
            "cli.import.numpy_ms": med["numpy"],
            "cli.import.click_ms": med["click"],
            "cli.import.densem_ms": med["densem"],
            "cli.run_ms": med["run"],
        }


WORKLOADS = {w.name: w for w in (EntailSentences, HyponymyGraph, DiscGrid, CliProcess)}

"""Self-checks of the benchmark harness, kept out of the test suite.

    python3 bench/selfcheck.py

Checks that each workload's inputs are a function of the seed, that span
self time is span time minus the direct child spans, that operation times
are scaled by the speed samples around them, that the oracle and
densem agree on hand cases with known answers, and that the committed CLI
goldens carry the values README.md documents.  Exits 1 on the first
failure.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import densem as dm  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import HOLDOUT_SEED  # noqa: E402


def check_determinism():
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2, HOLDOUT_SEED):
            first = json.dumps(workload(seed).inputs)
            assert first == json.dumps(workload(seed).inputs), f"{name}: seed {seed} not deterministic"
        assert json.dumps(workload(1).inputs) != json.dumps(workload(2).inputs), f"{name}: seed ignored"


def check_span_arithmetic():
    tracer = tracing.Tracer(clock=iter(range(100)).__next__)

    def inner():
        return tracer.call("psd.eigh", lambda: None)

    def outer():
        inner()
        inner()

    tracer.op = 0
    tracer.call("op", tracer.call, "entailment.k_max", outer)
    # clock ticks: op opens 0, k_max 1, eigh 2-3, eigh 4-5, k_max closes 6, op 7
    stats = tracing.SpanStats(tracer.spans, lambda span: True)
    assert stats.busy("op") == 7 and stats.self_time("op") == 2
    assert stats.busy("entailment.k_max") == 5 and stats.self_time("entailment.k_max") == 3
    assert stats.eigensolves("entailment.k_max") == 2 and stats.eigensolves("op") == 0
    assert stats.calls("psd.eigh") == 2 and stats.self_time("psd.eigh") == 2


def check_speed_scaling():
    # the clock advances 2 per reading, and only the second kernel run is timed
    probe = speed.SpeedProbe(clock=iter(range(0, 100, 2)).__next__, kernel=lambda: None)
    assert probe.sample() == 2 and probe.samples == [(0, 2)]
    probe.samples = [(0.0, 2 * speed.REFERENCE_S), (1.0, 4 * speed.REFERENCE_S), (9.0, speed.REFERENCE_S)]
    # the window of [0.1, 0.2] holds the first sample, that of [0.2, 0.9] the
    # first two; that of [5, 6] holds none, so its neighbours on both sides count
    scaled = probe.scaled([(0.1, 0.2), (0.2, 0.9), (5.0, 6.0)])
    expected = [0.1 / 2, 0.7 / 3, 1.0 / 2.5]
    assert all(abs(a - b) < 1e-12 for a, b in zip(scaled, expected)), scaled


def check_oracle_hand_cases():
    dog, cat = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    pet = 0.5 * dog + 0.5 * cat
    assert abs(oracle.strength(dog, pet) - 0.5) < 1e-12
    assert abs(dm.k_max(dog, pet).raw_k - 0.5) < 1e-12
    a, b = np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 1.0])
    assert oracle.strength(a, b) is None and not dm.k_max(a, b).supports_contained
    error = dm.general_error(a, b)
    oracle.close(error.excess, oracle.positive_part(a - b), 1e-12, "excess")
    oracle.close(error.deficit, oracle.positive_part(b - a), 1e-12, "deficit")

    def meanings(fixture):
        doc = json.loads((ROOT / "tests" / "fixtures" / fixture).read_text(encoding="utf-8"))
        return {e["word"]: oracle.mixture_matrix(e["meaning"]["pure_mixture"]) for e in doc["words"] if "meaning" in e}

    scoff = meanings("scoff_eat.json")
    john_scoffs_cake = oracle.compose("NVN", [scoff["john"], scoff["scoffs"], scoff["cake"]], 3, 2)
    john_eats_sweets = oracle.compose("NVN", [scoff["john"], scoff["eats"], scoff["sweets"]], 3, 2)
    assert abs(oracle.strength(john_scoffs_cake, john_eats_sweets) - 0.25) < 1e-12  # README
    rel = meanings("relative.json")
    women_who_own_animals = oracle.relative_clause(rel["women"], rel["own"], rel["animals"], 3, 1)
    assert np.allclose(np.diag(women_who_own_animals), [0.25, 0.5, 0.0])  # README, test_cli

    for strategy in workloads.STRATEGIES:
        rows = dm.disc_grid(dm.from_bloch(0.3, -0.4), 11, strategy)
        oracle.check_disc_rows(rows, 0.3, -0.4, 11, strategy)

    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       500 |        500 | site\n"
        "import time:      1000 |       1000 |     numpy\n"
        "import time:       300 |       1500 | densem\n"
        "import time:       200 |        200 |   click\n"
        "import time:       100 |        400 | densem.cli\n"
    )
    parsed = workloads.parse_importtime(log)
    expected = {"total": 2.4, "numpy": 1.0, "click": 0.2, "densem": 0.7}
    assert all(abs(parsed[k] - v) < 1e-9 for k, v in expected.items()), parsed


def check_goldens():
    goldens = json.loads((Path(__file__).parent / "cli_goldens.json").read_text(encoding="utf-8"))
    assert goldens["parse-kicks"]["stdout"] == (
        "types: n | n.r s n.l | n\nmatches: (0,1) (3,4)\nsurvivors: 2\ngrammatical: yes\n"
    )
    assert goldens["entail-scoff-eat"]["stdout"] == (
        "supports_contained: yes\nk_max: 0.25\nraw_k: 0.25\nword_product_bound: 0.25\n"
    )


def main() -> int:
    for check in (check_determinism, check_span_arithmetic, check_speed_scaling, check_oracle_hand_cases,
                  check_goldens):
        try:
            check()
        except (AssertionError, oracle.CheckFailed) as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

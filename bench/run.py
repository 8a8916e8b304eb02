"""densem benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload entail-sentences --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; densem is imported from its ``src``.
Inputs come from ``--seed`` only and reach densem through its public API
or its ``python -m densem`` command line.  Every output is checked against
the numpy reference in ``oracle.py``.  Operations run in whole cycles
until ``--seconds`` of operation time (and enough samples for the tail)
have passed.  One line per metric is printed, then the result as a JSON
object on the last line: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See METRICS.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads, identically for every commit measured, and
# inherited by every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (numpy must load after the pin above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOLDOUT_SEED = 16010490  # later gains must also hold on this seed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
TAIL_CAP = 0.95  # and stays at or below p95, where it still tracks the program
# rather than the rare stalls of a shared host
SETUP_REPEATS = 9  # set-ups whose median is setup_s: this run and 8 children
SETUP_SAMPLES = 5  # speed samples right after a set-up, which scale its time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s, exit")
    return parser.parse_args(argv)


def measure(workload, tracers, seconds, min_ops, probe=None):
    """Closed loop over whole cycles until ``seconds`` of operation time
    and ``min_ops`` operations under the first tracer.  With two tracers
    each cycle runs once under each, so machine drift hits both alike.
    With a speed probe, the probe samples between operations.  Returns the
    ``(start, end)`` wall clock of each operation under each tracer, and
    the failures."""
    spans = [[] for _ in tracers]
    failures = []
    busy = 0.0
    for cycle in workload.cycles():
        done = len(spans[0])
        for tracer, times in zip(tracers, spans):
            with tracer.counting():
                for op in cycle:
                    if probe is not None:
                        probe.maybe_sample()
                    tracer.op = len(times)
                    start = time.perf_counter()
                    try:
                        output = tracer.call("op", workload.run, tracer, op)
                    except Exception:  # an operation that raises is a failed operation
                        output = None
                        failures.append(traceback.format_exc())
                    times.append((start, time.perf_counter()))
                    if output is not None:
                        try:
                            workload.check(op, output)
                        except Exception:
                            failures.append(traceback.format_exc())
            tracer.op = None
        busy += sum(end - start for start, end in spans[0][done:])
        if busy >= seconds and len(spans[0]) >= min_ops:
            if probe is not None:
                probe.maybe_sample()  # samples after the last operation
            return spans, failures


def setup_children(args) -> list[float]:
    """Set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def fingerprint(nproc: int, cpu: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def scaled_setup(setup_s: float) -> float:
    """Set-up time scaled to the reference speed of the kernel just after it."""
    probe = speed.SpeedProbe()
    seconds = [probe.sample() for _ in range(SETUP_SAMPLES)]
    return setup_s * speed.REFERENCE_S / statistics.fmean(seconds)


def end_to_end(latencies, setup_times, peak_rss_kb):
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_CAP * n) - 1)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[tail_index] * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "latency_tail_ms": f"p{100.0 * (tail_index + 1) / n:.1f} of {n} ops, {n - 1 - tail_index} beyond",
    }
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run and its children, so that the speed samples are
    # taken on the CPU that runs the operations.
    nproc, cpu = len(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "densem" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a densem checkout ({src / 'densem'} or {spec_path} missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    with tracer.counting():
        workload.setup(tracer)
    setup_wall_s = time.perf_counter() - START
    if args.trace:
        setup_s = setup_wall_s
    else:
        setup_s = scaled_setup(setup_wall_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # keep the collector from rescanning the generated inputs during ops
    gc.collect()
    gc.freeze()
    min_ops = TAIL_BEYOND + 1
    if args.trace:
        spans, failures = measure(workload, [tracing.NullTracer(), tracer], args.seconds / 2, min_ops)
        untraced, traced = ([end - start for start, end in s] for s in spans)
        values = tracing.layer_metrics(tracer) | workload.layer_extras()
        values["trace.overhead_ratio"] = sum(traced) / sum(untraced)
        notes, lines = {}, []
        attempted = len(untraced) + len(traced)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        wanted = spec["per_layer"]
    else:
        probe = speed.SpeedProbe()
        (spans,), failures = measure(workload, [tracer], args.seconds, min_ops, probe)
        peak_kb = workload.child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, notes = end_to_end(probe.scaled(spans), [setup_s] + setup_children(args), peak_kb)
        wall, _ = end_to_end([end - start for start, end in spans], [setup_wall_s], peak_kb)
        lines = [
            f"speed: {len(probe.samples)} kernel samples, median "
            f"{statistics.median(s for _, s in probe.samples) * 1e3:.4g} ms, reference {speed.REFERENCE_S * 1e3:.4g} ms",
            f"unscaled wall time: setup_s (this run): {setup_wall_s:.6g}  " + "  ".join(
                f"{k}: {wall[k]:.6g}" for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")
            ),
        ]
        attempted = len(spans)
        wanted = spec["end_to_end"]

    for failure in failures[:3]:
        print(failure, file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  holdout_seed: {HOLDOUT_SEED}  "
          f"trace: {args.trace}  client: 1, closed loop")
    print("inputs: " + json.dumps(workload.inputs["params"]))
    print("env: " + json.dumps(fingerprint(nproc, cpu)))
    print(f"failed_ratio: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for line in lines:
        print(line)
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = notes.get(metric["name"])
        print(f"{metric['name']}: {value:.6g} {metric['unit']}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

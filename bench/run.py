"""Run one mhdstab benchmark workload and print its metrics.

    python3 bench/run.py --workload shock_study --seed 0 --seconds 35 --trace 0

Run from the repository root; mhdstab is imported from ./src.  The workload's
inputs are made from --seed, one repetition of it is repeated for about
--seconds seconds, the outputs pass a correctness gate, and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: the median wall time
of a repetition, the median of its operations completed per second, the
median of five set-up probes, and peak memory.  With --trace 1 untraced
and traced repetitions alternate and the metrics are the per-layer ones
from the spans, per repetition, and the run's failed_frac.  The lines
before the last give every metric with its unit, failed_frac, the sample
counts and the environment.  A result file, and for --trace 1 the spans
of the last traced repetition, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# Pin BLAS to one thread in this process's own environment, before numpy
# loads; the set-up probes it starts inherit the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)
from tracing import REP, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
RECORD = json.loads((BENCH / "record.json").read_text(encoding="utf-8"))
SETUP_PROBES = 5  # set-up probes per untraced run

END_TO_END = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_FIELDS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us",
                "failed": "count"}
_PER_LAYER_SPANS = {
    "lopatinski.lopatinski_det": ("calls", "self_s", "us_p50", "us_p99"),
    "lopatinski.operator_matrix": ("calls", "self_s", "us_p50"),
    "lopatinski.shock_boundary_operator": ("self_s",),
    "lopatinski.kernel_basis": ("calls", "self_s", "us_p50"),
    "lopatinski.stable_subspace": ("calls", "self_s", "us_p50", "us_p99"),
    "lopatinski.scan": ("self_s",),
    "lopatinski.rankine_hugoniot": ("calls", "self_s"),
    "charstruct.classify": ("calls", "self_s", "us_p50", "us_p99"),
    "charstruct.nonglancing_test": ("calls", "self_s", "us_p50", "us_p99", "failed"),
    "charstruct.eigenvalues": ("calls", "self_s"),
    "charstruct.wave_speeds": ("calls", "self_s", "us_p50"),
    "symbol.assemble_full_symbol": ("calls", "self_s"),
    "symbol.boundary_matrix": ("calls", "self_s"),
    "thermo.eval_eos": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
# Counts per repetition from the tracer (first two) or from the workload.
_PER_LAYER_COUNTS = {
    "lopatinski.stable_subspace.continuation_calls": "count",
    "lopatinski.rankine_hugoniot.jacobian_evals": "count",
    "lopatinski.evals": "count",
    "lopatinski.polish.evals": "count",
    "lopatinski.points_failed": "count",
    "cli.output_bytes": "bytes",
}
PER_LAYER = {
    **{f"{span}.{f}": _SPAN_FIELDS[f]
       for span, fields in _PER_LAYER_SPANS.items() for f in fields},
    **_PER_LAYER_COUNTS,
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("shock_study", "boundary_scan", "classify_sweep"))
    p.add_argument("--seed", type=int, default=RECORD["default_seed"])
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few points per workload, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter until the workload's
    inputs exist: interpreter start, imports and input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return ready - start


class Tally:
    """What the repetitions of one kind (traced or not) leave behind.

    Memory stays constant however many repetitions run: output
    fingerprints instead of outputs, so peak_rss_mb does not grow with
    the CPU's speed.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.rates: list[float] = []  # operations completed per second
        self.attempted = self.failed = 0
        self.counts: Counter = Counter()
        self.errors: list[str] = []
        self.fingerprints: set = set()
        self.output = None

    def add(self, wl, seconds, outcome, error) -> None:
        self.seconds.append(seconds)
        self.rates.append((outcome.attempted - outcome.failed) / seconds)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.counts.update(outcome.counts)
        if error is not None:
            self.errors.append(error)
            return
        self.fingerprints.add(wl.fingerprint(outcome.output))
        self.output = outcome.output


def run_rep(wl, inputs, tally: Tally, tracer=None) -> None:
    from workloads import Outcome

    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = wl.run(inputs)
        error = None
    except Exception:  # a repetition that raises fails all its operations
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        planned = wl.planned(inputs)
        outcome = Outcome(planned, planned)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            tracer.rep += 1
    tally.add(wl, end - start, outcome, error)


def measure(wl, inputs, seconds: float, tracer=None, probe=None):
    """Repeat the workload (alternating untraced and traced repetitions when
    tracing) while another round still fits in `seconds` of repetition time;
    at least one round.  Set-up probes, if any, run between rounds, so that
    they sample the CPU's speed across the whole run."""
    plain, traced, probes = Tally(), Tally(), []
    while True:
        run_rep(wl, inputs, plain)
        if tracer is not None:
            run_rep(wl, inputs, traced, tracer)
        if probe is not None and len(probes) < SETUP_PROBES:
            probes.append(probe())
        busy = sum(plain.seconds) + sum(traced.seconds)
        if busy + busy / len(plain.seconds) > seconds:
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return plain, traced, probes


def gate(wl, inputs, tallies, refs) -> list[str]:
    """Every repetition ran, all outputs agree, and the last one passes the
    workload's correctness check."""
    problems = [f"a repetition raised: {e.strip().splitlines()[-1]}"
                for t in tallies for e in t.errors]
    if len(set().union(*(t.fingerprints for t in tallies))) > 1:
        problems.append("repetitions disagree")
    output = next((t.output for t in tallies if t.output is not None), None)
    if output is not None:
        problems += wl.check(inputs, output, refs)
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_layer_metrics(tracer, plain: Tally, traced: Tally, failed_frac: float) -> dict:
    n = len(traced.seconds)
    spans = tracer.per_rep(n)
    values = {}
    for name in PER_LAYER:
        span, _, fld = name.rpartition(".")
        if name in ("lopatinski.stable_subspace.continuation_calls",
                    "lopatinski.rankine_hugoniot.jacobian_evals"):
            values[name] = tracer.counts[name] / n
        elif name in _PER_LAYER_COUNTS:
            values[name] = traced.counts[name] / n
        elif name == "cli.write_s":
            values[name] = spans.get("cli.write", {}).get("total_s", 0.0)
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(traced.seconds)
                            - statistics.median(plain.seconds))
        elif name == "failed_frac":
            values[name] = failed_frac
        else:
            values[name] = spans.get(span, {}).get(fld, 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mhdstab" / "__init__.py").is_file():
        print(f"error: no mhdstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    tiny = args.size == "tiny"
    wl = workloads.make(args.workload, WORK_DIR)
    inputs = wl.generate(args.seed, tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    wl.run(wl.generate(args.seed, tiny=True))  # warm-up: lazy imports, caches
    tracer = Tracer() if args.trace == 1 else None
    probe = (lambda: probe_setup(args)) if tracer is None else None
    plain, traced, setup_times = measure(wl, inputs, args.seconds, tracer, probe)

    refs = None
    if args.workload == "shock_study" and not tiny:
        ref = RECORD["references"]["shock_study"]
        refs = {"0.0": ref["B0_min_abs_D"]}
        if args.seed == RECORD["default_seed"]:
            refs.update(ref["default_seed_rows"])
    problems = gate(wl, inputs, (plain, traced), refs)
    correct = not problems
    attempted = plain.attempted + traced.attempted
    # A failed gate fails every operation of the run.
    failed = plain.failed + traced.failed if correct else attempted

    times = plain.seconds
    q1, median, q3 = quartiles(times)
    if tracer is None:
        metrics = {
            "wall_s": median,
            "evals_per_s": statistics.median(plain.rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics = per_layer_metrics(tracer, plain, traced, failed / attempted)

    env = environment()
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(times)} untraced repetitions, seconds min {min(times):.6g} q1 {q1:.6g} "
          f"median {median:.6g} q3 {q3:.6g}; {len(traced.seconds)} traced")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "failed_frac" not in metrics:
        print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print("env " + json.dumps(env, sort_keys=True))

    WORK_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    result = {"args": vars(args), "env": env, "correct": correct, "problems": problems,
              "attempted": attempted, "failed": failed, "rep_seconds": times,
              "setup_seconds": setup_times,
              "metrics": metrics}
    (WORK_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        last = tracer.rep - 1
        (WORK_DIR / f"spans-{stem}.json").write_text(json.dumps(
            [s for s in tracer.spans if s[REP] == last]) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

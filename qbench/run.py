"""Benchmark of the qdnls pipeline; run from the root of a checkout.

    python3 qbench/run.py --workload band-configs --seed 0 --seconds 36 --trace 0

Repeats passes over the workload's operations until `--seconds` have
elapsed, checks every output, and prints a summary followed, on the last
line, by one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Times are built from each operation's fastest latency in the
run, which a slow spell of a shared host shorter than the run does not
move.  `--trace 0` reports the end-to-end metrics; `--trace 1` spends the
first half of the time untraced and the second half traced, and reports
the per-layer metrics.  See qbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TRACE_DIR = workloads.ROOT / ".bench_trace"

# fresh interpreter -> qdnls imported and the workload's inputs generated
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.make_ops(sys.argv[2], int(sys.argv[3]))")


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    cli_rows: int = 0
    cli_bytes: int = 0


def best_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's fastest latency over the passes; the first pass is whole,
    a later one may stop early."""
    return [min(p.latencies[i] for p in passes if i < len(p.latencies))
            for i in range(len(passes[0].latencies))]


def run_pass(ops, references, tracer=None, deadline: float = math.inf,
             after_op=None) -> Pass:
    """One closed-loop pass: each operation starts when the previous returned,
    and none starts after the deadline.  `after_op()`, if given, runs after
    each operation, outside its timing."""
    result = Pass()
    state: dict = {}
    for i, op in enumerate(ops):
        start = time.perf_counter()
        if start >= deadline:
            break
        try:
            output = op.execute(state, tracer)
        except Exception:  # a failed operation is counted, and the loop goes on
            result.latencies.append(time.perf_counter() - start)
            result.failed += 1
            print(f"FAIL {op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
            continue
        result.latencies.append(time.perf_counter() - start)
        problems = checks.check(op, output, references[i] if references else None)
        if problems:
            result.failed += 1
            print(f"FAIL {op.name}: " + "; ".join(problems[:4]), file=sys.stderr)
        if isinstance(output, str):
            result.cli_rows += len(checks.parse_csv(output)[1])
            result.cli_bytes += len(output.encode())
        if after_op is not None:
            after_op()
    return result


def measure_setup(workload: str, seed: int) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(workloads.BENCH_DIR),
                    workload, str(seed)], cwd=workloads.ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class SetupClock:
    """Times SETUP_REPEATS fresh interpreters setting up the workload, one at a
    time between operations and spread over the run, so that a slow spell of
    a shared host does not catch them all."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed)
        self.every = seconds / SETUP_REPEATS
        self.due = time.perf_counter()
        self.times: list[float] = []

    def poll(self) -> None:
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.times.append(measure_setup(*self.args))
            self.due += self.every

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(measure_setup(*self.args))
        return self.times


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
    }


def run_until(ops, references, deadline: float, traced: bool, after_op=None):
    """Passes until the deadline, the first one whole.  Untraced, the last pass
    stops at the deadline; traced passes are whole, since the per-layer metrics
    are per pass.  Returns (passes, tracers)."""
    passes, tracers = [], []
    while not passes or time.perf_counter() < deadline:
        if traced:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                passes.append(run_pass(ops, references, tracer))
            tracers.append(tracer)
        else:
            passes.append(run_pass(ops, references, deadline=deadline if passes else math.inf,
                                   after_op=after_op))
    return passes, tracers


def write_spans(path: Path, tracers) -> None:
    path.parent.mkdir(exist_ok=True)
    doc = [[[s.name, s.start, s.end, s.parent] for s in t.spans] for t in tracers]
    path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                "passes": doc}) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workloads.import_qdnls()
    record = machine()
    print("machine: " + json.dumps(record, sort_keys=True))
    ops = workloads.make_ops(args.workload, args.seed)
    references = checks.load_reference(args.workload) if args.seed == 0 else None

    start = time.perf_counter()
    clock = None if args.trace else SetupClock(args.workload, args.seed, args.seconds)
    plain, _ = run_until(ops, references,
                         start + (args.seconds / 2 if args.trace else args.seconds), False,
                         after_op=clock and clock.poll)
    setup = clock.finish() if clock else []
    traced, tracers = ([], [])
    if args.trace:
        traced, tracers = run_until(ops, references, start + args.seconds, True)
    runs = plain + traced
    attempted = sum(len(p.latencies) for p in runs)
    failed = sum(p.failed for p in runs)
    best = best_latencies(plain)
    wall = math.fsum(best)

    print(f"workload: {args.workload}  seed: {args.seed}  ops/pass: {len(ops)}  "
          f"passes: {len(plain)} untraced, {len(traced)} traced  "
          f"fail_frac: {failed / attempted:.4g} ({failed}/{attempted})")
    if args.trace:
        per_pass = [tracing.layer_metrics(t, p.cli_rows, p.cli_bytes)
                    for t, p in zip(tracers, traced)]
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_frac"] = (
            math.fsum(best_latencies(traced)) / wall - 1.0)
        units = {key: ("s" if key.endswith("_s") else "ratio" if key.endswith(("_ratio", "_frac"))
                       else "count") for key in metrics}
        layers = tracing.self_time_by_layer([s for t in tracers for s in t.spans])
        print("self time per traced pass: " + ", ".join(
            f"{layer} {t / len(tracers):.4f} s" for layer, t in
            sorted(layers.items(), key=lambda item: -item[1])))
        name = f"{args.workload}-seed{args.seed}.json"
        write_spans(TRACE_DIR / name, tracers)
        print(f"spans: {TRACE_DIR / name}")
    else:
        # the median over operations of each one's best latency: robust when a
        # workload mixes a few operations of very different sizes
        metrics = {
            "wall_s": wall,
            "op_p50_s": statistics.median(best),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        samples = [sum(i < len(p.latencies) for p in plain) for i in range(len(ops))]
        print(f"wall_s and op_p50_s from each of {len(ops)} operations' best of "
              f"{min(samples)}-{max(samples)} runs; "
              f"setup_s median of {len(setup)} fresh interpreters")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

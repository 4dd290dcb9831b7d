"""Benchmark for pseudolink: one workload, one seed, one process.

    python3 perfbench/run.py --workload kernel_chain --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports pseudolink from ./src.  One
client replays the workload's seeded rounds in a closed loop until the time
spent inside operations reaches --seconds, finishing the round it is in.
Each operation's answer is checked after its timer stops.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
latency_p50_ms, latency_tail_ms, peak_rss_mb).  With --trace 1 every round
runs twice, untraced then traced, until each half has taken about half of
--seconds; the metrics are the per-layer figures of the traced half, with
the tracing overhead against the untraced half.
Run outputs (the census input file, span dumps) go to ./.perfbench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 9
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import pseudolink, pseudolink.cli\n"
    "from pseudolink import polyhedra\n"
    "polyhedra.registered_keys()\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> float:
    """Median import-and-registry time over fresh interpreters, in seconds.

    The first interpreter is discarded: in a fresh checkout it also writes
    the bytecode cache, which later `pk` invocations do not pay for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest percentile with ten samples beyond it."""
    return max(0, n - 11)


class Runner:
    """Closed-loop client: times each op, counts failures, checks answers."""

    def __init__(self, make_round, tracer=None):
        self.make_round = make_round
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies: list[float] = []
        self.busy = 0.0
        self.traced_busy = 0.0
        self.traced_ops = 0
        self.failures: dict[str, str] = {}
        self.errors: list[str] = []

    @staticmethod
    def _call(op):
        """(seconds, result, exception) of one timed call."""
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            return time.perf_counter() - start, None, exc
        return time.perf_counter() - start, result, None

    def _check(self, op, result) -> None:
        try:
            op.check(result)
        except CheckFailed as exc:
            self.correct = False
            if len(self.errors) < 10:
                self.errors.append(f"{op.kind}: {exc}")

    def attempt(self, op) -> None:
        elapsed, result, error = self._call(op)
        self.attempted += 1
        self.busy += elapsed
        if error is not None:
            self.failed += 1
            self.failures.setdefault(op.kind, f"{type(error).__name__}: {error}")
            return
        self.latencies.append(elapsed)
        self._check(op, result)

    def _traced(self, ops) -> None:
        """Run the round again under the tracer; check after uninstalling it,
        so the checks' own library calls leave no spans."""
        done = []
        self.tracer.install()
        try:
            for op in ops:
                self.tracer.op += 1
                self.traced_ops += 1
                elapsed, result, error = self._call(op)
                self.traced_busy += elapsed
                if error is None:
                    done.append((op, result))
        finally:
            self.tracer.uninstall()
        for op, result in done:
            if hasattr(result, "stdout"):  # a pk call: count what it printed
                self.tracer.count("cli.out_bytes", len(result.stdout.encode()))
            self._check(op, result)

    def run(self, seconds: float) -> None:
        """Whole rounds until --seconds of op time; with a tracer, half untraced and half traced."""
        if self.tracer is not None:
            seconds /= 2
        while self.busy < seconds:
            ops = self.make_round()
            for op in ops:
                self.attempt(op)
            if self.tracer is not None:
                self._traced(ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudolink" / "__init__.py").is_file():
        print(f"error: no pseudolink sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup() if args.trace == 0 else None

    rng = random.Random(args.seed)
    make_round = workloads.WORKLOADS[args.workload](rng, OUT)
    warm = Runner(make_round)  # fills lazy state (templates, regexes) before timing
    for op in make_round():
        warm.attempt(op)

    tracer = Tracer() if args.trace else None
    runner = Runner(make_round, tracer)
    runner.run(args.seconds)
    correct = runner.correct and warm.correct
    for message in warm.errors + runner.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for kind, message in sorted(runner.failures.items()):
        print(f"failed op {kind}: {message}", file=sys.stderr)

    completed = runner.attempted - runner.failed
    lat = sorted(runner.latencies)
    print(f"{args.workload} seed {args.seed}: {runner.attempted} ops attempted, {runner.failed} failed, "
          f"{len(lat)} latency samples", file=sys.stderr)
    if len(lat) < 40:
        print(f"warning: only {len(lat)} samples; the tail is not a tail", file=sys.stderr)
    if not lat:
        print("error: no operation completed", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (completed / runner.busy, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "latency_tail_ms": (lat[tail_index(len(lat))] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        overhead = 100.0 * (runner.traced_busy / runner.busy - 1.0)
        values = tracer.layer_metrics(runner.traced_ops, overhead)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
        absent = tracer.absent_metrics()
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}", file=sys.stderr)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "traced_ops": runner.traced_ops,
            "overhead_pct": overhead,
            "absent_functions": tracer.absent,
            "absent_metrics": absent,
            "span_fields": ["op", "id", "parent", "name", "start", "end"],
            "spans": tracer.spans,
        }))
        print(f"tracing overhead {overhead:.1f}% over {runner.traced_ops} ops; spans in {dump}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload, in a process of its own.

run.py starts this module with the BLAS thread counts pinned to 1. It sets
the workload up once and runs one warm-up operation, neither of them timed,
then runs operations in a closed loop, one after another, for about the
requested number of seconds: it starts another operation while that would
end nearer to the requested time than stopping now. Its last line of
standard output is one JSON object.

An untraced run (--trace 0) reports the end-to-end metrics. Before each
operation it sets the workload up again from scratch, at least once, until
set-up has taken SETUP_SHARE of the measured time so far, so that set-up is
timed several times and across the whole run. `setup_s` is the median of
those set-ups. Each throughput is taken over the whole run: the annotations
of all operations' stage over the summed time of that stage.

A traced run (--trace 1) traces one set-up, then alternates untraced and traced
operations, and reports the per-layer metrics: per function, calls and
seconds for one set-up plus one operation, and the tracing overhead as the
gap between the traced and the untraced operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from . import tracer
from .tracer import PRIMITIVES, SPAN_NAMES, Tracer
from .workloads import WORKLOADS

# share of an untraced run's measured time spent on repeated set-ups
SETUP_SHARE = 0.25
# a tail percentile must have at least this many samples beyond it
TAIL_BEYOND = 10
# a traced operation must spend at least this share of its wall time in spans
MIN_SPAN_COVERAGE = 0.95
NODE_LAYERS = ["encoder.embed_tokens", "encoder.encode", "encoder.classify",
               "encoder.classification_loss", "embedding.combine"]


class BenchmarkError(RuntimeError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class SetupRepeats:
    """Set-ups from scratch, timed, with their states dropped. Each call
    sets up at least once, then until set-up has taken SETUP_SHARE of the
    time since this object was made."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times: list[float] = []
        self.start = time.perf_counter()

    def __call__(self) -> None:
        while (not self.times
               or sum(self.times) < SETUP_SHARE * (time.perf_counter() - self.start)):
            setup_dir = os.path.join(self.workdir, f"setup{len(self.times) + 1}")
            gc.collect()
            tracer.assert_restored()
            t0 = time.perf_counter()
            state = self.workload.setup(self.seed, setup_dir)
            elapsed = time.perf_counter() - t0
            del state
            shutil.rmtree(setup_dir, ignore_errors=True)
            self.times.append(elapsed)


class OpLoop:
    """Closed-loop operations with their correctness gate."""

    def __init__(self, workload, state, workdir: str):
        self.workload, self.state, self.workdir = workload, state, workdir
        self.attempted = 0
        self.failed = 0
        self.ok: list[tuple] = []    # (OpResult, GateResult, Tracer or None)

    def one(self, op_tracer: Tracer | None = None) -> None:
        index = self.attempted
        self.attempted += 1
        opdir = os.path.join(self.workdir, f"op{index}")
        gc.collect()
        try:
            if op_tracer is None:
                tracer.assert_restored()
            else:
                op_tracer.install()
            try:
                result = self.workload.operation(self.state, opdir)
            finally:
                if op_tracer is not None:
                    op_tracer.uninstall()
            gate = self.workload.gate(self.state, result, index)
        except Exception:
            self.failed += 1
            log(f"operation {index} raised:\n{traceback.format_exc()}")
            return
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        result.outputs = {}
        if gate.problems:
            self.failed += 1
            log(f"operation {index} failed its gate: " + "; ".join(gate.problems))
        else:
            self.ok.append((result, gate, op_tracer))

    def run_for(self, seconds: float, alternate_tracing: bool = False, before=None) -> None:
        """At least one operation; then another while it would end nearer
        to `seconds` than stopping now. With `alternate_tracing`, every
        second operation is traced and at least two run, so traced and
        untraced operations share the machine's slow and fast spells.
        `before`, if given, is called before each operation, inside the
        measured time."""
        start, done = time.perf_counter(), 0
        while True:
            if before is not None:
                before()
            self.one(Tracer() if alternate_tracing and done % 2 else None)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 > seconds and done >= 1 + alternate_tracing:
                return


def tail_percentile(values):
    """The highest whole percentile above the median that has at least
    TAIL_BEYOND samples strictly after its nearest-rank position.

    Returns (percentile, value, samples_beyond), or None when the samples
    are too few for any percentile above the 50th to qualify.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    if pct <= 50:
        return None
    rank = math.ceil(pct * n / 100)   # 1-based nearest rank
    return pct, ordered[rank - 1], n - rank


def end_to_end(setup_times, loop: OpLoop) -> dict[str, float]:
    if not loop.ok:
        raise BenchmarkError(f"all {loop.attempted} operations failed")
    results = [r for r, _, _ in loop.ok]
    return {
        "setup_s": statistics.median(setup_times),
        "train_or_split_ann_per_s":
            sum(r.stage1_ann for r in results) / sum(r.stage1_s for r in results),
        "eval_or_analyze_ann_per_s":
            sum(r.stage2_ann for r in results) / sum(r.stage2_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
    }


def _merge(tracers):
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for t in tracers:
        for name, row in t.aggregate().items():
            into = spans.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
        for name, value in t.counts.items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def _per_op(total, n: int):
    """Exact per-operation value for a count that repeats every operation."""
    return total // n if isinstance(total, int) and total % n == 0 else total / n


def check_calls(workload, state, spans, counts, n: int) -> None:
    """Fail loudly when a traced layer's call count is not what this
    workload's operation must produce."""
    wrong = []
    for name, want in workload.expected_calls(state).items():
        total = spans[name]["calls"] if name in spans else counts.get(name, 0)
        got = _per_op(total, n)
        if (want is None and got <= 0) or (want is not None and got != want):
            wrong.append(f"{name}: {got} per operation, expected {'> 0' if want is None else want}")
    combine_nodes = spans.get("embedding.combine", {}).get("self_work", 0)
    if (combine_nodes > 0) != workload.combine_builds_nodes:
        wrong.append(f"embedding.combine built {combine_nodes} graph nodes in {n} operation(s)")
    if wrong:
        raise BenchmarkError("traced call counts are wrong:\n  " + "\n  ".join(wrong))


def step_latencies(tracers) -> list[float]:
    """Seconds between consecutive optimizer steps inside each train span;
    the first step, which also pays for tokenizing and model set-up, is
    left out."""
    out = []
    for t in tracers:
        ends: dict[int, list[float]] = {}
        trains = {s[0] for s in t.spans if s[2] == "trainer.train"}
        for span_id, parent, name, _, end, *_ in t.spans:
            if name == "trainer.Adam.step" and parent in trains:
                ends.setdefault(parent, []).append(end)
        for series in ends.values():
            series.sort()
            out.extend(b - a for a, b in zip(series, series[1:]))
    return out


def per_layer(workload, state, setup_tracer: Tracer, loop: OpLoop) -> dict[str, float]:
    traced = [(r, g, t) for r, g, t in loop.ok if t is not None]
    untraced = [r for r, _, t in loop.ok if t is None]
    if not traced or not untraced:
        raise BenchmarkError("no traced or no untraced operation passed its checks")
    n = len(traced)
    op_tracers = [t for _, _, t in traced]
    spans, counts = _merge(op_tracers)
    setup_spans, _ = _merge([setup_tracer])
    check_calls(workload, state, spans, counts, n)

    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "self_work": 0}
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        once, ops = setup_spans.get(name, zero), spans.get(name, zero)
        for key in ("calls", "s", "self_s"):
            metrics[f"{name}.{key}"] = once[key] + _per_op(ops[key], n)
    for name in PRIMITIVES:
        metrics[f"tensor.{name}.calls"] = _per_op(counts.get(f"tensor.{name}", 0), n)
    for name in NODE_LAYERS:
        metrics[f"{name}.nodes"] = _per_op(spans.get(name, zero)["self_work"], n)

    results = [r for r, _, _ in traced]
    gates = [g for _, g, _ in traced]
    trained = sum(r.stage1_ann for r in results) if "trainer.train" in spans else 0
    metrics["tensor.nodes_per_ann"] = (spans["trainer.train"]["work"] / trained) if trained else 0.0
    metrics["analysis.kmeans.iterations"] = statistics.median(
        g.observations.get("kmeans_iterations", 0) for g in gates)
    metrics["trainer.evaluate.test_em"] = statistics.median(
        g.observations.get("test_em", 0.0) for g in gates)

    steps = step_latencies(op_tracers)
    tail = tail_percentile(steps)
    metrics["trainer.step.samples"] = len(steps)
    metrics["trainer.step.p50_ms"] = statistics.median(steps) * 1e3 if steps else 0.0
    metrics["trainer.step.tail_pct"] = tail[0] if tail else 0
    metrics["trainer.step.tail_ms"] = tail[1] * 1e3 if tail else 0.0

    traced_wall = sum(r.wall_s for r in results) / n
    untraced_wall = sum(r.wall_s for r in untraced) / len(untraced)
    self_sum = sum(s[5] for t in op_tracers for s in t.spans) / n
    coverage = self_sum / traced_wall
    if not MIN_SPAN_COVERAGE <= coverage <= 1.0 + 1e-9:
        raise BenchmarkError(f"spans cover {coverage:.4f} of the traced operation's wall time")
    metrics["trace.op_s"] = traced_wall
    metrics["trace.untraced_op_s"] = untraced_wall
    metrics["trace.self_sum_s"] = self_sum
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.measure")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            state = workload.setup(args.seed, os.path.join(args.workdir, "setup0"))
        finally:
            setup_tracer.uninstall()
        workload.warmup(state, os.path.join(args.workdir, "warmup"))
        loop = OpLoop(workload, state, args.workdir)
        loop.run_for(args.seconds, alternate_tracing=True)
        metrics = per_layer(workload, state, setup_tracer, loop)
        op_tracers = [t for _, _, t in loop.ok if t is not None]
        ops = {"untraced": len(loop.ok) - len(op_tracers), "traced": len(op_tracers)}
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            phases = [("setup", setup_tracer)] + [(f"op{i}", t) for i, t in enumerate(op_tracers)]
            for phase, t in phases:
                fh.write(json.dumps({"phase": phase, "spans": len(t.spans)}) + "\n")
                t.write(fh)
    else:
        tracer.assert_restored()
        state = workload.setup(args.seed, os.path.join(args.workdir, "setup0"))
        workload.warmup(state, os.path.join(args.workdir, "warmup"))
        loop = OpLoop(workload, state, args.workdir)
        setups = SetupRepeats(workload, args.seed, args.workdir)
        loop.run_for(args.seconds, before=setups)
        metrics = end_to_end(setups.times, loop)
        ops = {"untraced": len(loop.ok), "setups": len(setups.times),
               "setup_s": setups.times,
               "stage1_s": [r.stage1_s for r, _, _ in loop.ok],
               "stage2_s": [r.stage2_s for r, _, _ in loop.ok]}
    print(json.dumps({"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
                      "ops": ops, "provenance": provenance()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""annembed benchmark entry point.

    python3 perfbench/run.py --workload mech_short --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The program is imported from
`src/`; nothing needs installing. Each run starts a fresh Python process
(perfbench/measure.py) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1, waits for it, and prints every metric by name with
its unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch files go to `.bench_run/` in
the checkout; the spans of a traced run are written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
PROGRAM = os.path.join(ROOT, "src", "annembed", "__init__.py")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(PROGRAM):
        print(f"error: the program's sources are missing ({os.path.relpath(PROGRAM, ROOT)})",
              file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=RUN_DIR)
    spans_out = os.path.join(RUN_DIR, f"spans-{args.workload}-s{args.seed}.jsonl")
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.measure", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, "--spans-out", spans_out]
    load_start = os.getloadavg()
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: measuring {args.workload} failed (exit code {child.returncode})",
              file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in report["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted, failed = report["attempted"], report["failed"]

    provenance = dict(report["provenance"], git_sha=git_sha(), nproc=os.cpu_count(),
                      platform=platform.platform(), loadavg_start=load_start,
                      loadavg_end=load_end, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, ops=report["ops"])
    with open(os.path.join(RUN_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "attempted": attempted, "failed": failed,
                   "metrics": metrics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {attempted - failed} of {attempted} operations "
          f"passed their checks")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

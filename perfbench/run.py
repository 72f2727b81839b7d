"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload plants-greedy --seed 1 --seconds 40 --trace 0

Generates the workload's splits from ``--seed`` (``gen.py``), then runs the
workload in a fresh process (``worker.py``), which measures for about
``--seconds`` seconds and checks every output. Prints the environment, each
metric by name with its unit, a ``record`` line that ``compare.py`` reads,
and as the last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``. Exits 1 when
an output check failed and 2 when the workload could not run at all.
"""

from __future__ import annotations

import os

from workloads import THREAD_VARS, WORKLOADS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170  # the whole run, generation included, ends within this


def environment() -> dict:
    """What a result depends on besides the code: machine, libraries, pins."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            versions[lib] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        **versions,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics this run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_worker(args, data_dir: str, deadline: float) -> dict | None:
    """Run worker.py on the generated splits; its JSON result, None if it failed."""
    result_path = os.path.join(data_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--data", data_dir, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", result_path]
    # a process group of its own, so that stopping it also stops its pool
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool, if left
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        print(f"error: workload {args.workload} did not finish in time", file=sys.stderr)
        return None
    if code != 0:
        print(f"error: workload {args.workload} exited with code {code}", file=sys.stderr)
        return None
    with open(result_path, encoding="ascii") as f:
        return json.load(f)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also append the record line to this JSONL file")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must not be negative")
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "forced_pruning", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    data_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        gen.write_splits(WORKLOADS[args.workload]["shape"], args.seed, data_dir)
        print(f"generated {WORKLOADS[args.workload]['shape']} splits for seed {args.seed} "
              f"in {time.perf_counter() - t0:.2f} s")
        res = run_worker(args, data_dir, deadline)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if res is None:
        return 2

    missing = sorted(set(units) - set(res["metrics"]))
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(f"{args.workload} seed {args.seed}: {len(res['times'])} timed repetitions "
          f"({', '.join(f'{t:.3f}' for t in res['times'])} s), {res['reps_traced']} traced")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  failed_frac {res['failed']}/{res['attempted']}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    correct = res["failed"] == 0
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, **line}
    print("record " + json.dumps(record, sort_keys=True))
    if args.record:
        with open(args.record, "a", encoding="ascii") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

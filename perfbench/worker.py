"""Run one workload on generated split files: set-up, timed repetitions, checks.

Started by ``run.py`` in a fresh process, so that peak memory is the
workload's own. Imports the package from ``src/`` of the same checkout.
With ``--trace 1`` it also runs traced repetitions and reports the per-layer
metrics instead of the end-to-end ones. Writes one JSON object to
``--result``.
"""

from __future__ import annotations

import os

from workloads import JOBS, THREAD_VARS, WORKLOADS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time

import spans
from checks import check_model, read_sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPLITS = ("train", "valid", "test")

# set-up is repeated at least MIN_SETUPS times, and more while it stays cheap
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 2.0


def load_package():
    """Import forced_pruning from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "forced_pruning", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"package source not found: {init}")
    sys.path.insert(0, SRC)
    import forced_pruning

    if os.path.realpath(forced_pruning.__file__) != os.path.realpath(init):
        raise SystemExit(f"imported {forced_pruning.__file__}, expected {init}")


def setup(paths: dict[str, str]):
    """Load every split and compress each: the work done before learning."""
    from forced_pruning import dataset

    splits = {s: dataset.load_dataset(p) for s, p in paths.items()}
    for ds in splits.values():
        ds.compressed()
    return splits


def timed_setups(paths: dict[str, str]):
    """Median seconds of several set-ups, the last set-up's splits, and the
    share of distinct rows in its train split."""
    times, splits = [], None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        splits = None  # drop the previous set first, so peak memory holds one
        t0 = time.perf_counter()
        splits = setup(paths)
        times.append(time.perf_counter() - t0)
    train = splits["train"]
    return statistics.median(times), splits, train.compressed()[0].shape[0] / train.n_instances


def repeat(call, seconds: float, min_reps: int):
    """Run call(rep) until the next repetition would end after ``seconds``."""
    times, outs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(call(len(times)))
        times.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(times) >= min_reps and spent + statistics.median(times) > seconds:
            return times, outs


class Direct:
    """forced_pruning on the train split, then PLL on the valid and test splits."""

    min_reps = 1

    def __init__(self, spec, paths, seed, work_dir):
        from forced_pruning.structure import PruningConfig

        self.paths = paths
        self.config = PruningConfig(seed=seed, **spec["config"])
        self.reference = None

    def setup_s(self) -> float:
        seconds, self.splits, self.unique_ratio = timed_setups(self.paths)
        return seconds

    def call(self, splits):
        from forced_pruning import model, structure

        result = structure.forced_pruning(splits["train"], self.config)
        scores = {s: -model.pll(result.model, splits[s]) for s in ("valid", "test")}
        best = next(r for r in result.iterations if r.iteration == result.best_iteration)
        return result.model, best.train_neg_pll, scores

    def run(self, rep):
        return self.call(self.splits)

    def traced_run(self, rep):
        splits = setup(self.paths)
        t0 = time.perf_counter()
        out = self.call(splits)
        return out, time.perf_counter() - t0, None

    def check(self, out) -> tuple[int, int, list[str]]:
        model, train_neg_pll, scores = out
        failures = check_model(model, train_neg_pll, self.splits["train"].X,
                               self.config.extra_edges, self.config.apt_clusters)
        key = (model.edges, model.node_weights.tobytes(), model.edge_weights.tobytes(),
               train_neg_pll, scores)
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            failures.append("repetition gave a different model or score than the first")
        return 1, int(bool(failures)), failures

    def e2e(self, outs) -> dict[str, float]:
        _, train_neg_pll, scores = outs[0]
        return {"train_neg_pll": train_neg_pll, "test_neg_pll": scores["test"]}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Sweep:
    """A CLI grid sweep over the split files with a process pool."""

    min_reps = 2  # two runs with one seed must write the same report.csv

    def __init__(self, spec, paths, seed, work_dir):
        self.spec, self.paths, self.seed, self.work_dir = spec, paths, seed, work_dir
        self.jobs = min(JOBS, len(os.sched_getaffinity(0)))
        self.reference = None

    def setup_s(self) -> float:
        seconds, _, self.unique_ratio = timed_setups(self.paths)
        return seconds

    def run(self, rep):
        from forced_pruning import cli

        out_dir = os.path.join(self.work_dir, f"sweep-{rep}")
        argv = ["--train", self.paths["train"], "--valid", self.paths["valid"],
                "--test", self.paths["test"], "--sweep", self.spec["sweep"],
                "--jobs", str(self.jobs), "--max-iter", str(self.spec["max_iter"]),
                "--seed", str(self.seed), "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        files = []
        for name in ("report.csv", "timings.csv"):
            path = os.path.join(out_dir, name)
            with open(path, encoding="ascii") as f:
                files.append(f.read())
        shutil.rmtree(out_dir)
        return (code, *files)

    def traced_run(self, rep):
        t0 = time.perf_counter()
        out = self.run(rep)
        seconds = time.perf_counter() - t0
        timings = self.read(out)[2]
        cli = {"cells": len(timings), "cells_failed": sum(s != "ok" for _, s in timings),
               "cell_s_sum": sum(t for t, _ in timings), "jobs": self.jobs}
        return out, seconds, cli

    def read(self, out):
        return read_sweep(out[1], out[2], self.spec["cells"], SPLITS)

    def check(self, out) -> tuple[int, int, list[str]]:
        cells = self.spec["cells"]
        code, report, _ = out
        failed = self.read(out)[0]
        failures = [f"cell {'/'.join(map(str, k))}: {why}" for k, why in failed.items()]
        n_failed = cells if ("all",) in failed else len(failed)
        if code != 0:
            failures.append(f"CLI exit code {code}")
            n_failed = cells
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            failures.append("report.csv differs from the first repetition's")
            n_failed = cells
        return cells, n_failed, failures

    def e2e(self, outs) -> dict[str, float]:
        values = self.read(outs[0])[1]
        return {"train_neg_pll": statistics.fmean(values["train"]),
                "test_neg_pll": statistics.fmean(values["test"])}

    def peak_rss_mb(self) -> float:
        # the pool's workers run side by side: count the largest once per job
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + self.jobs * child) / 1024


def checked(workload, outs) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over the repetitions' outputs."""
    attempted = failed = 0
    messages = []
    for out in outs:
        n, f, m = workload.check(out)
        attempted, failed, messages = attempted + n, failed + f, messages + m
    return attempted, failed, messages


def traced_metrics(workload, seconds: float, run_s: float, data_dir: str):
    """Per-layer metrics (medians over traced repetitions) and their outputs."""
    tracer = spans.Tracer(data_dir)
    per_rep = []

    def traced(rep):
        tracer.run_id = rep
        out, rep_s, cli = workload.traced_run(rep)
        per_rep.append((spans.layer_metrics(tracer.collect(), rep_s, cli), rep_s))
        return out

    tracer.install()
    try:
        _, outs = repeat(traced, seconds, 1)
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(m[k] for m, _ in per_rep) for k in per_rep[0][0]}
    metrics["dataset.unique_ratio"] = workload.unique_ratio
    metrics["trace.overhead_frac"] = statistics.median(s for _, s in per_rep) / run_s - 1.0
    return metrics, outs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--data", required=True, help="directory with the split files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, help="where to write the JSON result")
    args = p.parse_args()

    load_package()
    spec = WORKLOADS[args.workload]
    paths = {s: os.path.join(args.data, f"{spec['shape']}.{s}.data") for s in SPLITS}
    kind = Sweep if "sweep" in spec else Direct
    workload = kind(spec, paths, args.seed, args.data)

    setup_s = workload.setup_s()
    # a traced run splits its time between untraced and traced repetitions
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, outs = repeat(workload.run, seconds, workload.min_reps)
    run_s = statistics.median(times)
    if args.trace:
        metrics, traced_outs = traced_metrics(workload, seconds, run_s, args.data)
        outs += traced_outs
    else:
        metrics = {"setup_s": setup_s, "run_s": run_s, **workload.e2e(outs),
                   "peak_rss_mb": workload.peak_rss_mb()}
    attempted, failed, failures = checked(workload, outs)
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, "times": times, "reps_traced": len(outs) - len(times)}
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()

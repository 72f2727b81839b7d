"""Span tracing of the package's layers, from outside the package.

A traced repetition replaces public functions at the module attributes where
their callers look them up (``structure.greedy_add``, ``param_learn.pll``,
...) with wrappers that record one span per call: name, start, end, parent,
process id and run id. Private helpers are never wrapped. Spans are kept in
memory; a forked pool worker appends its spans to a file in ``spill_dir``
whenever its outermost span closes, and the parent reads those files back.

``layer_metrics`` turns the spans of one repetition into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import logging
import os
import statistics
import time

# (module, attribute, span name). A module or attribute missing from the
# package is skipped, so the tracer keeps working when a later version moves
# or drops a function; the metrics that depend on it then read 0.
WRAP_SITES = (
    ("forced_pruning.dataset", "load_dataset", "dataset.load_dataset"),
    ("forced_pruning.dataset", "DataSet.compressed", "dataset.compressed"),
    ("forced_pruning.cli", "load_dataset", "dataset.load_dataset"),
    ("forced_pruning.cli", "forced_pruning", "structure.forced_pruning"),
    ("forced_pruning.cli", "pll", "model.pll"),
    ("forced_pruning.model", "pll", "model.pll"),
    ("forced_pruning.structure", "forced_pruning", "structure.forced_pruning"),
    ("forced_pruning.structure", "chow_liu_tree", "chowliu.chow_liu_tree"),
    ("forced_pruning.structure", "learn_params_with_apt", "param_learn.learn_params_with_apt"),
    ("forced_pruning.structure", "pll", "model.pll"),
    ("forced_pruning.structure", "greedy_delete", "structure.greedy_delete"),
    ("forced_pruning.structure", "rejection_sample_delete", "structure.rejection_sample_delete"),
    ("forced_pruning.structure", "greedy_add", "structure.greedy_add"),
    ("forced_pruning.param_learn", "mple_fit", "param_learn.mple_fit"),
    ("forced_pruning.param_learn", "quantize_params", "param_learn.quantize_params"),
    ("forced_pruning.param_learn", "tied_fit", "param_learn.tied_fit"),
    ("forced_pruning.param_learn", "pll", "model.pll"),
    ("forced_pruning.param_learn", "pll_gradient", "model.pll_gradient"),
    ("forced_pruning.param_learn", "minimize", "param_learn.minimize"),
)

UNCONVERGED_LOGGER = "forced_pruning.param_learn"
DELETES = ("structure.greedy_delete", "structure.rejection_sample_delete")


def _pruning_attrs(args, kwargs, result) -> dict:
    """Per-iteration facts of a PruningResult, read from its IterationRecords."""
    its = result.iterations
    return {
        "iter_seconds": [r.seconds for r in its],
        "proposals": sum(r.proposals for r in its),
        "fallbacks": sum(bool(r.fell_back) for r in its),
        "accepted": sum(r.proposals > 0 and not r.fell_back for r in its),
    }


def _add_attrs(args, kwargs, result) -> dict:
    candidates = kwargs.get("candidates", args[2] if len(args) > 2 else ())
    return {"candidates": len(candidates) if hasattr(candidates, "__len__") else 0}


def _minimize_attrs(args, kwargs, result) -> dict:
    return {"nfev": int(getattr(result, "nfev", 0))}


ATTRS = {
    "structure.forced_pruning": _pruning_attrs,
    "structure.greedy_add": _add_attrs,
    "param_learn.minimize": _minimize_attrs,
}


class Tracer:
    """In-memory span recorder for one process and its forked children."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.pid = self.owner
        self.run_id = 0
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []
        self._handler = None

    def _enter_process(self) -> None:
        # a forked worker inherits the parent's spans and open stack; drop them
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self._stack = [], []

    def _open(self, name: str) -> dict:
        self._enter_process()
        self._next += 1
        span = {"id": f"{self.pid}:{self._next}", "parent": self._stack[-1] if self._stack else None,
                "name": name, "pid": self.pid, "run": self.run_id, "attrs": {}}
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if not self._stack and self.pid != self.owner:
            self._spill()

    def event(self, name: str) -> None:
        """A zero-length span, for things that happen rather than take time."""
        self._close(self._open(name))

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="ascii") as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []

    def wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    span["attrs"] = attrs_of(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        """Wrap every call site in WRAP_SITES and count unconverged fits."""
        for module_name, attr, name in WRAP_SITES:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # a method is taken from the class itself, so it rebinds per instance
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                continue
            setattr(owner, leaf, self.wrap(original, name))
            self._restore.append((owner, leaf, original))
        tracer = self

        class Unconverged(logging.Handler):
            def emit(self, record):
                tracer.event("param_learn.unconverged")

        self._handler = Unconverged(level=logging.WARNING)
        logging.getLogger(UNCONVERGED_LOGGER).addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore = []
        logging.getLogger(UNCONVERGED_LOGGER).removeHandler(self._handler)

    def collect(self) -> list[dict]:
        """All spans so far, this process's and the spilled children's; resets."""
        spans, self.spans = self.spans, []
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))):
            with open(path, encoding="ascii") as f:
                spans.extend(json.loads(line) for line in f)
            os.remove(path)
        return spans


def layer_metrics(spans: list[dict], run_s: float, cli: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A span's time includes its children's, except that the first
    ``DataSet.compressed`` call, which the package makes lazily from inside
    whichever function first needs the unique rows, counts only towards
    ``dataset.compress_s``. ``run_s`` is the repetition's wall time; ``cli``
    holds the sweep's timings.csv totals (``cells``, ``cells_failed``,
    ``cell_s_sum``, ``jobs``) or is None for a workload that does not go
    through the CLI.
    """
    by_id = {s["id"]: s for s in spans}
    compress_inside: dict[str, float] = {}
    for s in spans:
        if s["name"] == "dataset.compressed":
            a = s
            while a["parent"] in by_id:
                a = by_id[a["parent"]]
                compress_inside[a["id"]] = compress_inside.get(a["id"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"] - compress_inside.get(s["id"], 0.0)

    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    def has_ancestor(s, name):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    def evals_under(fit):
        return sum(s["attrs"].get("nfev", 0) for s in named("param_learn.minimize")
                   if by_id.get(s["parent"], {}).get("name") == fit)

    runs = named("structure.forced_pruning")
    iter_seconds = [t for s in runs for t in s["attrs"].get("iter_seconds", [])]
    proposals = sum(s["attrs"].get("proposals", 0) for s in runs)
    accepted = sum(s["attrs"].get("accepted", 0) for s in runs)
    loop_self = final_exchange = 0.0
    for run in runs:
        kids = children.get(run["id"], [])
        loop_self += dur(run) - sum(dur(k) for k in kids if k["name"] != "dataset.compressed")
        fits = [k["start"] for k in kids if k["name"] == "param_learn.learn_params_with_apt"]
        last_fit = max(fits, default=run["start"])
        final_exchange += sum(dur(k) for k in kids
                              if k["name"] in DELETES + ("structure.greedy_add",) and k["start"] > last_fit)

    m = {
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.compress_s": total("dataset.compressed"),
        "chowliu.tree_s": total("chowliu.chow_liu_tree"),
        "model.pll_calls": len(named("model.pll")),
        "model.pll_s": total("model.pll"),
        "model.grad_calls": len(named("model.pll_gradient")),
        "model.grad_s": total("model.pll_gradient"),
        "model.eval_s": sum(dur(s) for s in named("model.pll")
                            if not has_ancestor(s, "structure.forced_pruning")),
        "param_learn.mple_s": total("param_learn.mple_fit"),
        "param_learn.mple_evals": evals_under("param_learn.mple_fit"),
        "param_learn.quantize_s": total("param_learn.quantize_params"),
        "param_learn.tied_s": total("param_learn.tied_fit"),
        "param_learn.tied_evals": evals_under("param_learn.tied_fit"),
        "param_learn.unconverged": len(named("param_learn.unconverged")),
        "structure.add_s": total("structure.greedy_add"),
        "structure.add_candidates": sum(s["attrs"].get("candidates", 0)
                                        for s in named("structure.greedy_add")),
        "structure.delete_s": sum(dur(s) for s in named(*DELETES)
                                  if by_id.get(s["parent"], {}).get("name") not in DELETES),
        "structure.rejection_proposals": proposals,
        "structure.rejection_accept_ratio": accepted / proposals if proposals else 0.0,
        "structure.rejection_fallbacks": sum(s["attrs"].get("fallbacks", 0) for s in runs),
        "structure.iter_s_p50": statistics.median(iter_seconds) if iter_seconds else 0.0,
        "structure.loop_self_s": loop_self,
        "structure.final_exchange_s": final_exchange,
    }
    cli = cli or {"cells": 0, "cells_failed": 0, "cell_s_sum": 0.0, "jobs": 0}
    busy = cli["jobs"] * run_s
    m.update({
        "cli.cells": cli["cells"],
        "cli.cells_failed": cli["cells_failed"],
        "cli.cell_s_sum": cli["cell_s_sum"],
        "cli.pool_busy_frac": cli["cell_s_sum"] / busy if busy else 0.0,
        "cli.overhead_s": busy - cli["cell_s_sum"],
    })
    return m

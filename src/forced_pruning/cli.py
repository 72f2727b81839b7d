"""Command-line experiment runner and model file round-trip.

One invocation runs either a single learning job or an (m, k) sweep over
extra-edge counts and exchange sizes. Every run writes a deterministic CSV
report; wall-clock timings go to a separate file so the report is
byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .chowliu import chow_liu_tree
from .dataset import DataSet, DatasetFormatError, load_dataset
from .model import Edge, PairwiseModel, pll
from .param_learn import FitError, FitOptions, TyingPartition
from .structure import HEURISTICS, PruningConfig, PruningResult, forced_pruning

logger = logging.getLogger(__name__)

MODEL_FORMAT_HEADER = "pairwise-model v1"
APT_SELECT_CHOICES = (4, 8, 16, 32)


class ModelFormatError(ValueError):
    """A model file is malformed or has the wrong version."""


def save_model(path: str, model: PairwiseModel, partition: TyingPartition | None = None) -> None:
    """Write a model (and optional tying partition) as readable text.

    Floats are written with ``repr`` so loading reproduces them bit-exactly.
    """
    lines = [MODEL_FORMAT_HEADER, f"n_vars {model.n_vars}"]
    lines.append("nodes " + " ".join(repr(float(w)) for w in model.node_weights))
    lines.append(f"edges {len(model.edges)}")
    for (lo, hi), w in zip(model.edges, model.edge_weights):
        lines.append(f"{lo} {hi} {float(w)!r}")
    if partition is not None:
        if partition.n_params != model.n_params:
            raise ValueError(
                f"partition covers {partition.n_params} parameters, model has {model.n_params}"
            )
        lines.append(f"tying {partition.n_clusters}")
        lines.append("assignment " + " ".join(str(a) for a in partition.assignment))
        lines.append("means " + " ".join(repr(float(m)) for m in partition.means))
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


class _LineReader:
    """Sequential line access that reports positions in load errors."""

    def __init__(self, path: str, lines: list[str]):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: unexpected end of file, expected {what}")
        self.pos += 1
        return self.lines[self.pos - 1]

    def fail(self, message: str):
        raise ModelFormatError(f"{self.path}, line {self.pos}: {message}")

    def fields(self, what: str, tag: str, n: int | None = None) -> list[str]:
        parts = self.next(what).split()
        if not parts or parts[0] != tag:
            self.fail(f"expected {what!r} line starting with {tag!r}")
        if n is not None and len(parts) - 1 != n:
            self.fail(f"expected {n} values after {tag!r}, got {len(parts) - 1}")
        return parts[1:]


def load_model(path: str) -> tuple[PairwiseModel, TyingPartition | None]:
    """Read a model file written by :func:`save_model`."""
    try:
        with open(path, encoding="ascii") as f:
            raw = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not a text model file ({exc})") from None
    r = _LineReader(path, raw)
    header = r.next("header")
    if header != MODEL_FORMAT_HEADER:
        r.fail(f"unsupported format header {header!r}, expected {MODEL_FORMAT_HEADER!r}")
    partition = None
    try:
        # each line is checked as it is read, so an error names its line
        n_vars = int(r.fields("variable count", "n_vars", 1)[0])
        if n_vars < 1:
            r.fail(f"variable count must be >= 1, got {n_vars}")
        node_weights = np.array([float(v) for v in r.fields("node weights", "nodes", n_vars)])
        if not np.isfinite(node_weights).all():
            r.fail("node weights must be finite")
        n_edges = int(r.fields("edge count", "edges", 1)[0])
        if n_edges < 0:
            r.fail(f"edge count must be >= 0, got {n_edges}")
        edges: dict[Edge, float] = {}
        for _ in range(n_edges):
            parts = r.next("edge line").split()
            if len(parts) != 3:
                r.fail(f"expected 'lo hi weight', got {len(parts)} fields")
            e, w = Edge(int(parts[0]), int(parts[1])), float(parts[2])
            if not 0 <= e.lo < e.hi < n_vars:
                r.fail(f"edge {e} is not canonical for {n_vars} variables")
            if e in edges:
                r.fail(f"duplicate edge {e}")
            if not np.isfinite(w):
                r.fail(f"edge weight {w} is not finite")
            edges[e] = w
        model = PairwiseModel(n_vars, node_weights, tuple(edges), list(edges.values()))
        if r.pos < len(r.lines) and r.lines[r.pos].strip():
            n_clusters = int(r.fields("tying header", "tying", 1)[0])
            assignment = np.array([int(v) for v in r.fields("cluster assignment", "assignment")])
            if assignment.size != model.n_params:
                r.fail(f"assignment covers {assignment.size} parameters, model has {model.n_params}")
            if assignment.min() < 0 or assignment.max() >= n_clusters:
                r.fail("cluster ids must lie in [0, n_clusters)")
            means = np.array([float(v) for v in r.fields("cluster means", "means")])
            partition = TyingPartition(assignment, means, n_clusters)
    except ModelFormatError:
        raise
    except ValueError as exc:
        r.fail(str(exc))
    while r.pos < len(r.lines):
        if r.next("end of file").strip():
            r.fail(f"unexpected line {r.lines[r.pos - 1]!r} after the model")
    return model, partition


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (heuristic, m, k) grid cell."""

    heuristic: str
    m: int
    k: int
    seed: int
    neg_pll: dict[str, float]
    seconds: float
    error: str | None = None

    @classmethod
    def of(cls, config: PruningConfig, neg_pll: dict[str, float], seconds: float,
           error: str | None = None) -> CellResult:
        return cls(config.heuristic, config.extra_edges, config.exchange_size, config.seed,
                   neg_pll, seconds, error)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExperimentReport:
    """All grid cells of one run plus the shared configuration."""

    dataset: str
    config: dict
    splits: tuple[str, ...] = ("train",)
    cells: list[CellResult] = field(default_factory=list)

    def _csv(self, columns: list[str], rows) -> str:
        """CSV text with the columns dataset, heuristic, m, k and ``columns``:
        for each cell c in (heuristic, m, k) order, one line per tail in ``rows(c)``."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["dataset", "heuristic", "m", "k", *columns])
        for c in sorted(self.cells, key=lambda c: (c.heuristic, c.m, c.k)):
            w.writerows([self.dataset, c.heuristic, c.m, c.k, *tail] for tail in rows(c))
        return buf.getvalue()

    def csv_text(self) -> str:
        """Deterministic report CSV: one row per cell and split."""
        return self._csv(["split", "neg_pll"], lambda c: (
            (s, "nan" if c.failed else f"{c.neg_pll[s]:.12g}") for s in self.splits))

    def timings_csv_text(self) -> str:
        return self._csv(["seed", "seconds", "status"],
                         lambda c: [(c.seed, f"{c.seconds:.3f}", c.error or "ok")])

    def table_text(self, split: str) -> str:
        """Aligned table: rows per heuristic, columns grouped by m, split by k."""
        ms = sorted({c.m for c in self.cells})
        ks = sorted({c.k for c in self.cells})
        hs = sorted({c.heuristic for c in self.cells})
        by_key = {(c.heuristic, c.m, c.k): c for c in self.cells}
        width = 8
        label_w = max(12, len(self.dataset) + 2, *(len(h) + 2 for h in hs))

        def fmt_cell(c: CellResult | None) -> str:
            if c is None:
                return "-".rjust(width)
            if c.failed or split not in c.neg_pll:
                return "FAIL".rjust(width)
            return f"{c.neg_pll[split]:.4f}".rjust(width)

        group_w = width * len(ks) + (len(ks) - 1)
        out = [f"negative PLL on the {split} split, dataset {self.dataset}"]
        out.append(" " * label_w + " | " + " | ".join(f"m={m}".center(group_w) for m in ms))
        out.append(" " * label_w + " | " + " | ".join(
            " ".join(f"k={k}".rjust(width) for k in ks) for _ in ms))
        out.append("-" * label_w + "-+-" + "-+-".join("-" * group_w for _ in ms))
        for h in hs:
            row = h.ljust(label_w) + " | "
            row += " | ".join(
                " ".join(fmt_cell(by_key.get((h, m, k))) for k in ks) for m in ms)
            out.append(row)
        return "\n".join(out) + "\n"


def _dataset_name(train_path: str) -> str:
    return os.path.basename(train_path).split(".")[0]


def _load_splits(args) -> dict[str, DataSet]:
    """The splits given, in train, valid, test order."""
    splits = {"train": load_dataset(args.train)}
    if args.valid:
        splits["valid"] = load_dataset(args.valid)
    if args.test:
        splits["test"] = load_dataset(args.test)
    n_vars = {name: ds.n_vars for name, ds in splits.items()}
    if len(set(n_vars.values())) != 1:
        raise DatasetFormatError(f"splits disagree on variable count: {n_vars}")
    return splits


def _cell_config(args, m: int, k: int, heuristic: str, seed: int) -> PruningConfig:
    return PruningConfig(
        extra_edges=m,
        exchange_size=k,
        heuristic=heuristic,
        max_iter=args.max_iter,
        seed=seed,
        apt_clusters=args.apt_clusters,
        fit=FitOptions(l2_strength=args.l2),
        rejection_cap=args.rejection_cap,
    )


def _write_iteration_log(path: str, result: PruningResult) -> None:
    with open(path, "w", encoding="ascii") as f:
        for rec in result.iterations:
            f.write(json.dumps({
                "iteration": rec.iteration,
                "train_neg_pll": rec.train_neg_pll,
                "deleted": [list(e) for e in rec.deleted],
                "added": [list(e) for e in rec.added],
                "proposals": rec.proposals,
                "fell_back": rec.fell_back,
                "n_active": len(rec.active_edges),
                "n_pool": len(rec.pool_edges),
                "seconds": round(rec.seconds, 3),
            }) + "\n")


def _config_echo(args, name: str) -> dict:
    """The parsed settings and the dataset name, less ``--name`` (echoed as the
    dataset name), ``--apt-select`` (a run echoes the count it selects as
    ``apt_clusters``), and ``--out-dir`` and ``--jobs``, which change no result."""
    skip = ("name", "apt_select", "out_dir", "jobs")
    return {**{k: v for k, v in vars(args).items() if k not in skip}, "dataset": name}


def _run_cell(splits: dict[str, DataSet], config: PruningConfig) -> tuple[PruningResult, CellResult]:
    """Learn one cell on the train split and score its model on every split.
    The cell's seconds time the learning only."""
    t0 = time.perf_counter()
    result = forced_pruning(splits["train"], config)
    seconds = time.perf_counter() - t0
    neg_pll = {name: -pll(result.model, ds) for name, ds in splits.items()}
    return result, CellResult.of(config, neg_pll, seconds)


def _select_apt_clusters(splits: dict[str, DataSet], config: PruningConfig
                         ) -> tuple[PruningConfig, PruningResult, CellResult]:
    """The first cluster count with the best validation negative PLL: its
    config, result and cell, whose seconds sum the learning of every count."""
    runs = []
    for c in APT_SELECT_CHOICES:
        candidate = replace(config, apt_clusters=c)
        result, cell = _run_cell(splits, candidate)
        logger.info("cluster count %d: validation neg PLL %.6f", c, cell.neg_pll["valid"])
        runs.append((candidate, result, cell))
    config, result, cell = min(runs, key=lambda run: run[2].neg_pll["valid"])  # the first minimum
    logger.info("selected cluster count %d", config.apt_clusters)
    return config, result, replace(cell, seconds=sum(run[2].seconds for run in runs))


def run_single(args) -> int:
    splits = _load_splits(args)
    name = args.name or _dataset_name(args.train)
    config = _cell_config(args, args.extra_edges, args.exchange, args.heuristic, args.seed)
    if args.apt_select:
        config, result, cell = _select_apt_clusters(splits, config)
    else:
        result, cell = _run_cell(splits, config)
    echo = {**_config_echo(args, name), "apt_clusters": config.apt_clusters}
    report = ExperimentReport(dataset=name, config=echo, splits=tuple(splits), cells=[cell])

    _write_report(args.out_dir, report)
    save_model(os.path.join(args.out_dir, "model.txt"), result.model, result.partition)
    _write_iteration_log(os.path.join(args.out_dir, "iterations.jsonl"), result)

    for split, value in cell.neg_pll.items():
        print(f"{name} {cell.heuristic} m={cell.m} k={cell.k} {split} neg PLL {value:.4f}")
    print(f"model written to {os.path.join(args.out_dir, 'model.txt')} "
          f"(best iteration {result.best_iteration}, {cell.seconds:.1f}s)")
    return 0


def _write_report(out_dir: str, report: ExperimentReport) -> str:
    """Write the report files of a run; return its table, on the last split present."""
    os.makedirs(out_dir, exist_ok=True)
    table = report.table_text(report.splits[-1])
    for name, text in (
            ("report.csv", report.csv_text()),
            ("timings.csv", report.timings_csv_text()),
            ("config.json", json.dumps(report.config, indent=2, sort_keys=True) + "\n"),
            ("report.txt", table)):
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as f:
            f.write(text)
    return table


def parse_sweep(spec: str) -> tuple[list[int], list[int], list[str] | None]:
    """Parse a grid spec like ``m=0,15,30;k=0,5,10`` (optionally ``;h=...``)."""
    grid: dict[str, list] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, eq, values = part.partition("=")
        key = key.strip()
        if not eq or key not in ("m", "k", "h"):
            raise ValueError(f"bad sweep component {part!r}, expected m=..., k=... or h=...")
        if key in grid:
            raise ValueError(f"sweep component {key}= given more than once")
        items = [v.strip() for v in values.split(",") if v.strip()]
        if not items:
            raise ValueError(f"empty value list in sweep component {part!r}")
        if key == "h":
            for h in items:
                if h not in HEURISTICS:
                    raise ValueError(f"unknown heuristic {h!r} in sweep")
        else:
            try:
                items = [int(v) for v in items]
            except ValueError:
                raise ValueError(f"non-integer value in sweep component {part!r}") from None
            if any(v < 0 for v in items):
                raise ValueError(f"negative value in sweep component {part!r}")
        grid[key] = list(dict.fromkeys(items))
    if "m" not in grid or "k" not in grid:
        raise ValueError("sweep spec must define both m=... and k=...")
    return grid["m"], grid["k"], grid.get("h")


def cell_seed(base_seed: int, heuristic: str, m: int, k: int) -> int:
    """Seed of one sweep cell: a function of the base seed and the cell alone,
    so a cell gives the same result in any grid that contains it."""
    entropy = [base_seed, HEURISTICS.index(heuristic), m, k]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


# The splits a pool worker runs its cells on, set once by _init_pool_worker.
_pool_splits: dict[str, DataSet] = {}


def _init_pool_worker(splits: dict[str, DataSet]) -> None:
    global _pool_splits
    _pool_splits = splits


def _run_pool_cell(config: PruningConfig) -> CellResult:
    return _run_cell(_pool_splits, config)[1]


def run_sweep(args) -> int:
    ms, ks, hs = parse_sweep(args.sweep)
    name = args.name or _dataset_name(args.train)
    splits = _load_splits(args)  # also fails fast before launching worker processes
    for ds in splits.values():
        ds.compressed()  # once, before pool workers inherit the splits
    chow_liu_tree(splits["train"])  # likewise

    configs = [_cell_config(args, m, k, h, cell_seed(args.seed, h, m, k))
               for h, m, k in sorted(itertools.product(hs or [args.heuristic], ms, ks))]
    report = ExperimentReport(dataset=name, config=_config_echo(args, name), splits=tuple(splits))
    jobs = min(args.jobs, len(configs))
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_pool_worker, initargs=(splits,)) if jobs >= 2 else None
    with pool or contextlib.nullcontext():
        # every cell is submitted before the first is awaited
        runs = ([pool.submit(_run_pool_cell, c).result for c in configs] if pool else
                [lambda c=c: _run_cell(splits, c)[1] for c in configs])
        for config, run in zip(configs, runs):
            try:
                cell = run()
            except Exception as exc:
                cell = CellResult.of(config, {}, 0.0, error=str(exc))
                logger.error("cell %s m=%d k=%d failed: %s", cell.heuristic, cell.m, cell.k, exc)
            else:
                logger.info("cell %s m=%d k=%d done in %.1fs", cell.heuristic, cell.m, cell.k,
                            cell.seconds)
            report.cells.append(cell)

    print(_write_report(args.out_dir, report), end="")

    failed = [c for c in report.cells if c.failed]
    if failed:
        print(f"{len(failed)} of {len(report.cells)} cells failed; see timings.csv",
              file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="forced-pruning",
        description="Learn a binary pairwise Markov network under a hard edge "
                    "budget by iterative edge exchange.",
    )
    p.add_argument("--train", required=True, help="training split (one row of 0/1 tokens per line)")
    p.add_argument("--valid", help="validation split")
    p.add_argument("--test", help="test split")
    p.add_argument("--name", help="dataset name for reports (default: from --train filename)")
    p.add_argument("--extra-edges", type=int, default=PruningConfig.extra_edges, metavar="M",
                   help="edges beyond the spanning tree (budget = n_vars - 1 + M)")
    p.add_argument("--exchange", type=int, default=PruningConfig.exchange_size, metavar="K",
                   help="edges deleted and added per iteration")
    p.add_argument("--heuristic", choices=HEURISTICS, default=PruningConfig.heuristic,
                   help="edge deletion heuristic")
    p.add_argument("--apt-clusters", type=int, default=PruningConfig.apt_clusters,
                   help="parameter-tying cluster count")
    p.add_argument("--apt-select", action="store_true",
                   help="pick the tying cluster count from {4,8,16,32} by "
                        "validation negative PLL (needs --valid; single runs only)")
    p.add_argument("--l2", type=float, default=FitOptions.l2_strength, help="L2 penalty strength")
    p.add_argument("--max-iter", type=int, default=PruningConfig.max_iter, help="exchange iterations")
    p.add_argument("--seed", type=int, default=PruningConfig.seed, help="base random seed")
    p.add_argument("--rejection-cap", type=int, default=PruningConfig.rejection_cap,
                   help="max rejection-sampling proposals per iteration")
    p.add_argument("--out-dir", default="fp-run", help="output directory")
    p.add_argument("--sweep", metavar="GRID",
                   help="run a grid instead of a single job, e.g. "
                        "'m=0,15,30,45,60;k=0,5,10' (add ;h=greedy,rejection "
                        "to sweep heuristics)")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep processes")
    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.jobs < 1:
        print("error: jobs must be >= 1", file=sys.stderr)
        return 1
    if args.apt_select and not args.valid:
        print("error: --apt-select needs --valid", file=sys.stderr)
        return 1
    if args.apt_select and args.sweep:
        print("error: --apt-select applies to single runs only", file=sys.stderr)
        return 1
    try:
        if args.sweep:
            return run_sweep(args)
        return run_single(args)
    except (DatasetFormatError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

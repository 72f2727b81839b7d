"""Output checks, computed with the benchmark's own code.

The reference PLL here works on the raw rows of a split, not on the
package's compressed unique rows, and shares no code with the package.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

PLL_RTOL = 1e-9


def rowwise_neg_pll(node_weights, edges, edge_weights, X: np.ndarray) -> float:
    """Mean negative PLL of the raw rows X (n, v) under a pairwise model, in nats."""
    X = np.asarray(X, dtype=np.float64)
    W = np.zeros((X.shape[1], X.shape[1]))
    for (lo, hi), w in zip(edges, edge_weights):
        W[lo, hi] = W[hi, lo] = w
    A = X @ W + np.asarray(node_weights)
    per_row = np.logaddexp(0.0, -(2.0 * X - 1.0) * A).sum(axis=1)
    return float(per_row.mean())


def check_model(model, reported_train_neg_pll: float, X_train: np.ndarray,
                extra_edges: int, clusters: int) -> list[str]:
    """Failures of a learned model against its budget, tying and reported score."""
    failures = []
    budget = model.n_vars - 1 + extra_edges
    if len(model.edges) != budget:
        failures.append(f"model has {len(model.edges)} edges, budget is {budget}")
    distinct = np.unique(np.concatenate([model.node_weights, model.edge_weights])).size
    if distinct > clusters:
        failures.append(f"model has {distinct} distinct weights, at most {clusters} allowed")
    ref = rowwise_neg_pll(model.node_weights, model.edges, model.edge_weights, X_train)
    if not abs(reported_train_neg_pll - ref) <= PLL_RTOL * abs(ref):
        failures.append(f"reported train neg PLL {reported_train_neg_pll!r} != row-wise {ref!r}")
    return failures


def read_sweep(report_csv: str, timings_csv: str, cells: int, splits: tuple[str, ...]):
    """Parse a sweep's report.csv and timings.csv.

    Returns (failed, values, timings). ``failed`` maps each failed cell to the
    reason; a cell fails when its status is not ``ok`` or one of its values is
    not finite, and every cell counts as failed when the files do not hold
    ``cells`` cells on every split. ``values[split]`` lists the cells'
    negative PLLs and ``timings`` the cells' (seconds, status) from timings.csv.
    """
    failed: dict[tuple, str] = {}
    timings = list(csv.DictReader(io.StringIO(timings_csv)))
    for r in timings:
        if r["status"] != "ok":
            failed[(r["heuristic"], r["m"], r["k"])] = f"status {r['status']!r}"
    values: dict[str, list[float]] = {s: [] for s in splits}
    for r in csv.DictReader(io.StringIO(report_csv)):
        v = float(r["neg_pll"])
        if not math.isfinite(v):
            failed.setdefault((r["heuristic"], r["m"], r["k"]), f"{r['split']} neg PLL {v}")
        values.setdefault(r["split"], []).append(v)
    if len(timings) != cells or any(len(values[s]) != cells for s in splits):
        failed = {("all",): f"expected {cells} cells on splits {splits}"} | failed
    return failed, values, [(float(r["seconds"]), r["status"]) for r in timings]

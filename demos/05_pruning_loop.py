"""Run the full budgeted edge-exchange loop on a planted structure.

Samples from a known chain-plus-shortcut graph, lets the loop rearrange
edges under a hard budget, and prints the per-iteration trace: what was
deleted, what was added, and how the training score moved. Then runs the
same configuration with the rejection-sampling deletion heuristic and prints
how many proposals each exchange took and whether it fell back to greedy.
"""

from dataclasses import replace

import numpy as np

from forced_pruning import (
    DataSet,
    Edge,
    PruningConfig,
    chow_liu_tree,
    forced_pruning,
    pll,
)

rng = np.random.default_rng(11)

# Ground truth on six variables: a chain 0-1-2-3-4-5 plus shortcut (0, 5).
N, V = 5000, 6
X = np.zeros((N, V))
X[:, 0] = rng.random(N) < 0.5
for j in range(1, V):
    keep = rng.random(N) < 0.85
    X[:, j] = np.where(keep, X[:, j - 1], 1 - X[:, j - 1])
tie = rng.random(N) < 0.3
X[tie, 5] = X[tie, 0]
data = DataSet(X)

config = PruningConfig(extra_edges=1, exchange_size=2, max_iter=8, seed=0)
result = forced_pruning(data, config)

print(f"initial tree: {[tuple(e) for e in chow_liu_tree(data)]}")
print(f"edge budget:  {V - 1 + config.extra_edges}\n")

print("iter  train neg PLL  deleted              added")
for rec in result.iterations:
    dels = ",".join(f"({a},{b})" for a, b in rec.deleted) or "-"
    adds = ",".join(f"({a},{b})" for a, b in rec.added) or "-"
    print(f"{rec.iteration:4d}  {rec.train_neg_pll:13.5f}  {dels:19s}  {adds}")

print(f"\nbest iteration: {result.best_iteration}")
print(f"final edges:    {[tuple(e) for e in result.model.edges]}")
truth = {(j - 1, j) for j in range(1, V)} | {(0, 5)}
found = {tuple(e) for e in result.model.edges}
print(f"planted edges recovered: {len(found & truth)}/{len(truth)}")
print(f"test-style score of returned model: {-pll(result.model, data):.5f}")

sampled = forced_pruning(data, replace(config, heuristic="rejection"))
print("\nrejection sampling (the same configuration):")
print("iter  train neg PLL  proposals  fell back")
for rec in sampled.iterations:
    print(f"{rec.iteration:4d}  {rec.train_neg_pll:13.5f}  {rec.proposals:9d}  {rec.fell_back}")
fallbacks = sum(rec.fell_back for rec in sampled.iterations)
print(f"best iteration: {sampled.best_iteration}, fallbacks: {fallbacks}")

"""Load a binary dataset and inspect its sufficient statistics.

Writes a tiny comma-separated data file, loads it, and prints the
deduplicated view, the single-variable counts taken from it, and the
pairwise mutual information that the Chow-Liu initializer ranks edges by.
"""

import os
import tempfile

import numpy as np

from forced_pruning import DataSet, load_dataset, mutual_information_matrix

rng = np.random.default_rng(0)

# Four variables, sixty rows, with variable 1 copying variable 0 most
# of the time so the (0, 1) pair stands out in the counts.
X = (rng.random((60, 4)) < 0.4).astype(np.float64)
copy = rng.random(60) < 0.85
X[copy, 1] = X[copy, 0]

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "toy.train.data")
    with open(path, "w", encoding="ascii") as fh:
        for row in X.astype(int):
            fh.write(",".join(map(str, row)) + "\n")
    data = load_dataset(path)

print(f"loaded {data.n_instances} instances of {data.n_vars} variables "
      f"(name={data.name!r})")

rows, weights = data.compressed()
print(f"deduplicated to {rows.shape[0]} distinct rows; "
      f"largest weight {int(weights.max())}")

# Weighted sums over the distinct rows equal sums over all instances.
ones = weights @ rows
both = (rows * weights[:, None]).T @ rows
print("\nmarginal counts (times each variable is 1):")
for i in range(data.n_vars):
    print(f"  x{i}: {int(ones[i])}")

print("\njoint counts n11 (times both variables are 1) and mutual information:")
mi = mutual_information_matrix(data)
for i in range(data.n_vars):
    for j in range(i + 1, data.n_vars):
        print(f"  x{i},x{j}: n11={int(both[i, j]):3d}  MI={mi[i, j]:.4f} nats")

# The same array can be wrapped directly without touching disk.
direct = DataSet(X, name="in-memory")
assert direct.n_instances == data.n_instances
print("\nin-memory wrapping matches the file round trip")

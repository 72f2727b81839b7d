"""Build a pairwise model by hand and evaluate its pseudo-log-likelihood.

Constructs a three-variable model with one edge, checks a conditional
probability against the closed form, and shows how the mean per-instance
pseudo-log-likelihood reacts when the edge weight matches or fights the
data.
"""

import numpy as np

from forced_pruning import (
    DataSet,
    Edge,
    PairwiseModel,
    logits,
    pll,
    pll_without_edges,
)

# x0 and x1 agree in three of four rows; x2 is on its own.
data = DataSet(np.array([
    [1, 1, 0],
    [1, 1, 1],
    [0, 0, 0],
    [1, 0, 1],
], dtype=np.float64))

model = PairwiseModel(
    n_vars=3,
    node_weights=np.array([0.2, -0.1, 0.0]),
    edges=(Edge(0, 1),),
    edge_weights=np.array([1.5]),
)

# With x0 = 1 the conditional logit of x1 is -0.1 + 1.5. logits() gives the
# log-odds of every variable given the rest, for each row of its input.
z = logits(model, np.array([[1.0, 0.0, 0.0]]))[0, 1]
p = 1.0 / (1.0 + np.exp(-z))
expected = 1.0 / (1.0 + np.exp(-(-0.1 + 1.5)))
print(f"P(x1=1 | x0=1, x2=0) = {p:.6f} (closed form {expected:.6f})")

print(f"\nmean PLL with the coupling edge: {pll(model, data):+.6f}")

# Zeroing the edge costs PLL because the data really is correlated.
delta = pll(model, data) - pll_without_edges(model, data, [Edge(0, 1)])
print(f"PLL lost if the edge were removed: {delta:.6f}")

flipped = model.with_weights(model.weight_vector() * [1, 1, 1, -1])
print(f"mean PLL with the edge sign flipped: {pll(flipped, data):+.6f}")

print("\nan empty model on fair coins scores exactly -ln 2 per variable:")
fair = DataSet(np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.float64))
print(f"  {pll(PairwiseModel.zeros(2), fair):.12f} vs {-2 * np.log(2):.12f}")

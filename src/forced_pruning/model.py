"""Log-linear binary pairwise Markov network and its pseudo-log-likelihood.

The model carries one weight per node (indicator x_i = 1) and one weight per
active edge (indicator x_i * x_j = 1), all in nats. The joint normalizer is
never computed; every operation here works through the per-variable
conditionals, which the normalizer cancels out of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .dataset import DataSet


class Edge(NamedTuple):
    """Unordered variable pair in canonical (lo < hi) form."""

    lo: int
    hi: int


def canonical_edge(i: int, j: int) -> Edge:
    """Edge between i and j with endpoints in canonical order."""
    if i == j:
        raise ValueError(f"edge endpoints must differ, got ({i}, {j})")
    return Edge(i, j) if i < j else Edge(j, i)


def complete_edges(n_vars: int) -> list[Edge]:
    """All C(n_vars, 2) edges of the complete graph, lexicographic."""
    return [Edge(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]


@dataclass(frozen=True, eq=False)
class PairwiseModel:
    """Binary pairwise Markov network in log-linear form.

    Attributes:
        n_vars: number of variables.
        node_weights: (n_vars,) float64, weight of indicator x_i = 1.
        edges: active edges, distinct and canonical.
        edge_weights: (len(edges),) float64, aligned with ``edges``.
    """

    n_vars: int
    node_weights: np.ndarray
    edges: tuple[Edge, ...]
    edge_weights: np.ndarray

    def __post_init__(self):
        nw = np.array(self.node_weights, dtype=np.float64)
        ew = np.array(self.edge_weights, dtype=np.float64)
        edges = tuple(Edge(int(e[0]), int(e[1])) for e in self.edges)
        if self.n_vars < 1:
            raise ValueError("n_vars must be positive")
        if nw.shape != (self.n_vars,):
            raise ValueError(
                f"node_weights must have shape ({self.n_vars},), got {nw.shape}"
            )
        if ew.shape != (len(edges),):
            raise ValueError(
                f"edge_weights must have shape ({len(edges)},), got {ew.shape}"
            )
        if not (np.isfinite(nw).all() and np.isfinite(ew).all()):
            raise ValueError("all weights must be finite")
        seen = set()
        for e in edges:
            if not (0 <= e.lo < e.hi < self.n_vars):
                raise ValueError(f"edge {e} is not canonical for {self.n_vars} variables")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        nw.setflags(write=False)
        ew.setflags(write=False)
        object.__setattr__(self, "node_weights", nw)
        object.__setattr__(self, "edge_weights", ew)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def zeros(cls, n_vars: int, edges: Iterable[Edge] = ()) -> "PairwiseModel":
        """Model with the given structure and all weights zero."""
        edges = tuple(edges)
        return cls(n_vars, np.zeros(n_vars), edges, np.zeros(len(edges)))

    @property
    def n_params(self) -> int:
        return self.n_vars + len(self.edges)

    def weight_vector(self) -> np.ndarray:
        """Node weights followed by edge weights, as one flat copy."""
        return np.concatenate([self.node_weights, self.edge_weights])

    def with_weights(self, vec: np.ndarray) -> "PairwiseModel":
        """Same structure, weights replaced by the flat vector ``vec``."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} weights, got {vec.shape}")
        return PairwiseModel(self.n_vars, vec[: self.n_vars], self.edges, vec[self.n_vars :])

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric (n_vars, n_vars) edge-weight matrix, zero diagonal."""
        W = np.zeros((self.n_vars, self.n_vars))
        lo, hi = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        W[lo, hi] = W[hi, lo] = self.edge_weights
        return W


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) entrywise, from exp(-|x|) so that it
    never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _log_sigmoid(y: np.ndarray) -> np.ndarray:
    """log sigma(y) entrywise, without overflow."""
    return -np.logaddexp(0.0, -y)


def _check_dims(model: PairwiseModel, ds: DataSet) -> None:
    if ds.n_vars != model.n_vars:
        raise ValueError(
            f"dataset has {ds.n_vars} variables, model has {model.n_vars}"
        )


def logits(model: PairwiseModel, X: np.ndarray) -> np.ndarray:
    """Per-variable conditional logits for each row of X.

    Entry (n, i) is the log-odds of X_i = 1 given the rest of row n.
    """
    return X @ model.weight_matrix() + model.node_weights


def pll(model: PairwiseModel, ds: DataSet) -> float:
    """Mean per-instance pseudo-log-likelihood in nats (<= 0).

    Row-based reference evaluator; the learning loop uses the equivalent
    group sums of :mod:`forced_pruning.blanket`.
    """
    _check_dims(model, ds)
    rows, weights = ds.compressed()
    # log P(x_i | rest) = log sigma(t * z) with t = 2x - 1
    col_sums = weights @ _log_sigmoid((2.0 * rows - 1.0) * logits(model, rows))
    return float(col_sums.sum() / ds.n_instances)


def pll_gradient(model: PairwiseModel, ds: DataSet) -> np.ndarray:
    """Exact gradient of :func:`pll` over (node_weights ++ edge_weights)."""
    _check_dims(model, ds)
    rows, weights = ds.compressed()
    N = ds.n_instances
    A = logits(model, rows)
    resid = weights[:, None] * (rows - _sigmoid(A))
    g_node = resid.sum(axis=0) / N
    G = rows.T @ resid
    lo, hi = np.array(model.edges, dtype=np.intp).reshape(-1, 2).T
    g_edge = (G[lo, hi] + G[hi, lo]) / N
    return np.concatenate([g_node, g_edge])


def pll_without_edges(model: PairwiseModel, ds: DataSet, drop: Iterable[Edge]) -> float:
    """PLL of the model with the weights of ``drop`` set to zero."""
    drop = {Edge(*e) for e in drop}
    inactive = drop.difference(model.edges)
    if inactive:
        raise ValueError(f"edge {tuple(min(inactive))} is not active")
    kept = np.where([e not in drop for e in model.edges], model.edge_weights, 0.0)
    return pll(model.with_weights(np.concatenate([model.node_weights, kept])), ds)

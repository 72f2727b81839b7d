"""Chow-Liu initial structure: maximum mutual-information spanning tree."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import DataSet
from .model import Edge


class WeightedEdge(NamedTuple):
    edge: Edge
    weight: float  # mutual information, nats


def _mi_of_tables(n00, n01, n10, n11) -> np.ndarray:
    """Empirical MI of 2x2 count tables, elementwise; 0*log(0/q) := 0, clamped at 0."""
    n = n00 + n01 + n10 + n11
    cells = ((n00, n00 + n01, n00 + n10), (n01, n00 + n01, n01 + n11),
             (n10, n10 + n11, n00 + n10), (n11, n10 + n11, n01 + n11))
    mi = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for cell, row, col in cells:
            mi = mi + np.where(cell > 0, (cell / n) * np.log(cell * n / (row * col)), 0.0)
    return np.maximum(mi, 0.0)


def mutual_information(ds: DataSet, i: int, j: int) -> float:
    """MI of the empirical joint of (X_i, X_j), in nats. Symmetric in (i, j)."""
    for v in (i, j):
        if not 0 <= v < ds.n_vars:
            raise IndexError(f"variable index {v} out of range [0, {ds.n_vars})")
    if i == j:
        raise ValueError(f"pair requires two distinct variables, got ({i}, {j})")
    return float(mutual_information_matrix(ds)[i, j])


def mutual_information_matrix(ds: DataSet) -> np.ndarray:
    """Symmetric (n_vars, n_vars) matrix of pairwise MI, zero diagonal.

    The 2x2 tables come from the weighted compressed rows; their integer
    counts are exact in any summation order."""
    rows, weights = ds.compressed()
    ones = weights @ rows
    n11 = (rows * weights[:, None]).T @ rows
    n10, n01 = ones[:, None] - n11, ones - n11
    n00 = ds.n_instances - n11 - n10 - n01
    upper = np.triu(_mi_of_tables(n00, n01, n10, n11), 1)
    return upper + upper.T


def weighted_edges(ds: DataSet) -> list[WeightedEdge]:
    """All complete-graph edges with MI weights, best first.

    Sorted by descending weight, ties in lexicographic (lo, hi) order.
    """
    lo, hi = np.triu_indices(ds.n_vars, 1)  # lexicographic edge order
    weights = mutual_information_matrix(ds)[lo, hi]
    order = np.argsort(-weights, kind="stable")
    return [WeightedEdge(Edge(i, j), w)
            for i, j, w in zip(lo[order].tolist(), hi[order].tolist(), weights[order])]


def chow_liu_tree(ds: DataSet) -> list[Edge]:
    """Maximum-weight spanning tree under empirical MI edge weights.

    Greedy edge-sorting construction; equal-weight edges are taken in
    lexicographic (lo, hi) order, so the result is deterministic. Returns
    the n_vars - 1 tree edges sorted lexicographically. The tree depends on
    the data alone, so it is computed once per dataset and cached on it.
    """
    return list(ds.cached("chow_liu_tree", _max_spanning_tree))


def _max_spanning_tree(ds: DataSet) -> tuple[Edge, ...]:
    v = ds.n_vars
    ranked = weighted_edges(ds)
    parent = list(range(v))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree: list[Edge] = []
    for e, _ in ranked:
        ra, rb = find(e.lo), find(e.hi)
        if ra != rb:
            parent[ra] = rb
            tree.append(e)
            if len(tree) == v - 1:
                break
    return tuple(sorted(tree))

"""Shared test helpers: synthetic models, exact enumeration, slow exact references
for the vectorized fast paths and for the whole exchange loop, benchmark data."""

import math
import os
from typing import NamedTuple

# pin BLAS threading before numpy loads so float reductions are reproducible
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from forced_pruning import (
    DataSet,
    Edge,
    IterationRecord,
    PairwiseModel,
    chow_liu_tree,
    complete_edges,
    learn_params_with_apt,
    pll,
    pll_without_edges,
)
from forced_pruning.model import logits
from forced_pruning.structure import _draw_subset

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# subprocesses such as `python -m forced_pruning` import this checkout's package
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
DATA_ENV = "FORCED_PRUNING_DATA"
BENCHMARK_SPLITS = ("train", "valid", "test")


def make_dataset(rows, name="test") -> DataSet:
    """DataSet from a list of 0/1 strings or an array-like."""
    if rows and isinstance(rows[0], str):
        rows = [[int(ch) for ch in r] for r in rows]
    return DataSet(np.asarray(rows, dtype=np.float64), name=name)


def write_data_file(path, X) -> str:
    X = np.asarray(X)
    with open(path, "w") as f:
        for row in X:
            f.write(",".join(str(int(v)) for v in row) + "\n")
    return str(path)


def random_model(rng, n_vars, n_edges=None, node_scale=0.5, edge_scale=1.0) -> PairwiseModel:
    """Random weights on a random edge subset of the complete graph."""
    pool = complete_edges(n_vars)
    if n_edges is None:
        n_edges = rng.integers(1, len(pool) + 1)
    picked = sorted(Edge(*pool[i]) for i in rng.choice(len(pool), size=n_edges, replace=False))
    return PairwiseModel(
        n_vars,
        rng.normal(0.0, node_scale, n_vars),
        tuple(picked),
        rng.normal(0.0, edge_scale, n_edges),
    )


def random_dataset(rng, n_vars, n_rows, p=0.5, name="random") -> DataSet:
    X = (rng.random((n_rows, n_vars)) < p).astype(np.float64)
    return DataSet(X, name=name)


def all_states(n_vars) -> np.ndarray:
    """All 2^n_vars binary configurations, one per row."""
    s = np.arange(2 ** n_vars)
    return ((s[:, None] >> np.arange(n_vars)) & 1).astype(np.float64)


def enumerate_joint(model) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint distribution by enumeration (small n_vars only)."""
    states = all_states(model.n_vars)
    W = model.weight_matrix()
    energy = states @ model.node_weights + 0.5 * np.einsum("si,ij,sj->s", states, W, states)
    p = np.exp(energy - energy.max())
    return states, p / p.sum()


def sample_dataset(model, n_rows, rng, name="sampled") -> DataSet:
    """Exact iid sample from the model's joint, via full enumeration."""
    states, p = enumerate_joint(model)
    idx = rng.choice(states.shape[0], size=n_rows, p=p)
    return DataSet(states[idx], name=name)


def fd_gradient(model, ds, h=1e-5) -> np.ndarray:
    """Central finite differences of the mean PLL."""
    theta = model.weight_vector()
    g = np.empty_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        g[j] = (pll(model.with_weights(up), ds) - pll(model.with_weights(down), ds)) / (2 * h)
    return g


def benchmark_dir() -> str | None:
    for cand in (os.environ.get(DATA_ENV), os.path.join(REPO_ROOT, "data")):
        if cand and os.path.isdir(cand):
            return cand
    return None


def benchmark_paths(name) -> dict[str, str] | None:
    """Split files for one benchmark dataset, or None if any is missing."""
    root = benchmark_dir()
    if root is None:
        return None
    paths = {s: os.path.join(root, f"{name}.{s}.data") for s in BENCHMARK_SPLITS}
    if all(os.path.isfile(p) for p in paths.values()):
        return paths
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def toy_dataset():
    """16 instances over 4 variables with a strong (0, 1) association."""
    return make_dataset([
        "0000", "0001", "0010", "0011",
        "1100", "1101", "1110", "1111",
        "0000", "1100", "0010", "1110",
        "0001", "1101", "0011", "1111",
    ], name="toy")


# Slow exact references for the vectorized fast paths. Each is the scalar or
# looped form the fast path replaced; tests compare the two byte for byte.

def quantize_reference(params, c):
    """Optimal c-cluster quantization by the scalar DP: (assignment, means)."""
    x_all = np.asarray(params, dtype=np.float64).ravel()
    n = x_all.size
    order = np.argsort(x_all, kind="stable")
    x = x_all[order]
    s = np.concatenate([[0.0], np.cumsum(x)])
    q = np.concatenate([[0.0], np.cumsum(x * x)])
    cost = np.full((c + 1, n + 1), np.inf)
    split = np.zeros((c + 1, n + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for t in range(1, c + 1):
        for j in range(t, n - (c - t) + 1):
            i = np.arange(t - 1, j)
            tot = s[j] - s[i]
            v = cost[t - 1, i] + (q[j] - q[i]) - tot * tot / (j - i)
            arg = int(np.argmin(v))
            cost[t, j] = v[arg]
            split[t, j] = i[arg]
    bounds = [n]
    j = n
    for t in range(c, 0, -1):
        j = int(split[t, j])
        bounds.append(j)
    bounds.reverse()
    assignment = np.empty(n, dtype=np.int64)
    means = np.empty(c)
    for a in range(c):
        lo, hi = bounds[a], bounds[a + 1]
        assignment[order[lo:hi]] = a
        means[a] = (s[hi] - s[lo]) / (hi - lo)
    return assignment, means


def void_key_tables(ds, edges):
    """Blanket group arrays by void-key grouping and a loop over edges, and
    the ``ones`` counts by unbuffered per-row addition."""
    rows, weights = ds.compressed()
    V = ds.n_vars
    neighbours = [[] for _ in range(V)]
    for lo, hi in edges:
        neighbours[lo].append(hi)
        neighbours[hi].append(lo)
    bits = rows.astype(bool)
    reps, counts, inverse, sizes = [], [], [], []
    for v in range(V):
        packed = np.packbits(bits[:, [v] + sorted(neighbours[v])], axis=1)
        keys = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        reps.append(first)
        counts.append(np.bincount(inv, weights=weights))
        inverse.append(inv.ravel().astype(np.int32))
        sizes.append(first.size)
    start = np.concatenate([[0], np.cumsum(sizes)])
    rep = np.concatenate(reps)
    rep_rows = rows[rep]
    inc = []
    for lo, hi in edges:
        inc.append(np.concatenate([
            start[v] + np.flatnonzero(rep_rows[start[v]:start[v + 1], u])
            for v, u in ((lo, hi), (hi, lo))
        ]))
    sizes_e = [g.size for g in inc]
    ones = np.zeros((start[-1], V))
    for v in range(V):
        np.add.at(ones, start[v] + inverse[v], weights[:, None] * rows)
    return {
        "start": start,
        "var": np.repeat(np.arange(V), sizes),
        "rep": rep,
        "count": np.concatenate(counts),
        "inverse": inverse,
        "inc_ptr": np.concatenate([[0], np.cumsum(sizes_e)]).astype(np.int64),
        "inc_group": np.concatenate(inc) if inc else np.zeros(0, dtype=np.int64),
        "inc_edge": np.repeat(np.arange(len(edges)), sizes_e),
        "ones": ones,
    }


def full_width_gains(tables, theta, candidates):
    """BlanketTables.addition_gains with every Newton step over all candidates."""
    from scipy.special import expit

    from forced_pruning.blanket import ADD_WEIGHT_BOUND, _NEWTON_STEPS, _NEWTON_TOL, _ranges

    def log_sigmoid(y):
        return -np.logaddexp(0.0, -y)

    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    n = candidates.shape[0]
    z = tables.logits(theta)
    side_var = np.concatenate([candidates[:, 0], candidates[:, 1]])
    side_other = np.concatenate([candidates[:, 1], candidates[:, 0]])
    lengths = tables.start[side_var + 1] - tables.start[side_var]
    g = _ranges(tables.start[side_var], lengths)
    cand = np.repeat(np.concatenate([np.arange(n), np.arange(n)]), lengths)
    s = tables.ones[g, np.repeat(side_other, lengths)]
    keep = s > 0
    g, cand, s = g[keep], cand[keep], s[keep]
    tg, zg = tables.t[g], z[g]

    def slopes(w):
        p = expit(-tg * (zg + w[cand]))
        d1 = np.bincount(cand, weights=s * tg * p, minlength=n)
        d2 = np.bincount(cand, weights=s * p * (1.0 - p), minlength=n)
        return d1, d2

    B = ADD_WEIGHT_BOUND
    lo, hi = np.full(n, -B), np.full(n, B)
    at_hi = slopes(hi)[0] >= 0.0
    at_lo = ~at_hi & (slopes(lo)[0] <= 0.0)
    w = np.zeros(n)
    open_ = ~(at_hi | at_lo)
    for _ in range(_NEWTON_STEPS):
        if not open_.any():
            break
        d1, d2 = slopes(w)
        lo = np.where(d1 > 0.0, w, lo)
        hi = np.where(d1 < 0.0, w, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = w + d1 / d2
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        step = np.where(d1 == 0.0, w, step)
        moved = np.abs(step - w) > _NEWTON_TOL * (1.0 + np.abs(w))
        w = np.where(open_, step, w)
        open_ &= moved
    w = np.where(at_hi, B, np.where(at_lo, -B, w))
    change = s * (log_sigmoid(tg * (zg + w[cand])) - log_sigmoid(tg * zg))
    gains = np.bincount(cand, weights=change, minlength=n) / tables.n_instances
    return np.maximum(gains, 0.0)


def conditional_prob_reference(model, x, i):
    """P(X_i = 1 | rest of x) by a loop over the model's edges."""
    z = model.node_weights[i]
    for (lo, hi), w in zip(model.edges, model.edge_weights):
        if lo == i:
            z += w * x[hi]
        elif hi == i:
            z += w * x[lo]
    return 1.0 / (1.0 + math.exp(-z))


def pair_table(X, i, j):
    """Exact 2x2 counts (n00, n01, n10, n11) of columns i and j of a 0/1 array."""
    X = np.asarray(X, dtype=int)
    xi, xj = X[:, i], X[:, j]
    n11 = int((xi & xj).sum())
    n10, n01 = int(xi.sum()) - n11, int(xj.sum()) - n11
    return len(xi) - n11 - n10 - n01, n01, n10, n11


def mi_from_counts(n00, n01, n10, n11):
    """Empirical MI of one 2x2 table in exact integer arithmetic and math.log."""
    n = n00 + n01 + n10 + n11
    cells = ((n00, n00 + n01, n00 + n10), (n01, n00 + n01, n01 + n11),
             (n10, n10 + n11, n00 + n10), (n11, n10 + n11, n01 + n11))
    mi = 0.0
    for cell, row, col in cells:
        if cell > 0:
            mi += (cell / n) * math.log(cell * n / (row * col))
    return max(mi, 0.0)


# End-to-end reference for the exchange loop of forced_pruning.

REF_TIE = 1e-9  # reference scores this close may rank either way in the fast path


class ReferenceRun(NamedTuple):
    """What reference_forced_pruning did. ``negs`` has each fitted
    iteration's train neg PLL. ``tie`` is the iteration whose exchange
    rested on scores within REF_TIE of each other: the run stopped there, so
    ``records`` ends before it. ``best`` holds the iterations the loop may
    return: the first iteration of each fitted model (edges and weight
    bytes) whose neg PLL lies within REF_TIE (relative) of the lowest; it is
    empty after a tie."""

    records: list
    negs: list
    best: tuple
    tie: int | None


def _log_sigmoid(y):
    return -np.logaddexp(0.0, -y)


def _row_addition_gain(ds, model, edge, bound=30.0):
    """Best PLL gain of adding ``edge`` at one weight in [-bound, bound], by a
    bounded scalar search on the row-based logits (only the conditionals of
    the edge's two endpoints change)."""
    rows, counts = ds.compressed()
    z = logits(model, rows)
    a, b = edge
    t = 2.0 * rows - 1.0
    before = _log_sigmoid(t[:, a] * z[:, a]) + _log_sigmoid(t[:, b] * z[:, b])

    def gain(w):
        after = (_log_sigmoid(t[:, a] * (z[:, a] + w * rows[:, b]))
                 + _log_sigmoid(t[:, b] * (z[:, b] + w * rows[:, a])))
        return float(counts @ (after - before)) / ds.n_instances

    res = minimize_scalar(lambda w: -gain(w), bounds=(-bound, bound),
                          method="bounded", options={"xatol": 1e-10})
    return max(0.0, -res.fun, gain(bound), gain(-bound))


def _pick(scored, k, order_matters):
    """The k lowest (score, edge) pairs, ties by edge, and whether scores
    within REF_TIE decide which k are picked (or, if ``order_matters``, in
    which order)."""
    scored = sorted(scored)
    s = [score for score, _ in scored]
    pairs = [(k - 1, k)] if len(s) > k else []
    if order_matters:
        pairs += [(i, i + 1) for i in range(k - 1)]
    tie = any(abs(s[i] - s[j]) <= REF_TIE for i, j in pairs)
    return [e for _, e in scored[:k]], tie


def reference_forced_pruning(ds, config) -> ReferenceRun:
    """forced_pruning the slow way: the active set and the pool are plain
    sets of edges and the weights a dict; deletion scores are row-based
    ``pll - pll_without_edges``, rejection proposals are scored by
    ``pll_without_edges``, and additions by ``_row_addition_gain``. The fits,
    the Chow-Liu tree and every RNG draw (the extra edges, each proposal and
    its uniform, the greedy fallback at the cap) are the same as the loop's."""
    V, k = ds.n_vars, config.exchange_size
    M = V - 1 + config.extra_edges
    rng = np.random.default_rng(config.seed)
    tree = chow_liu_tree(ds)
    pool = set(complete_edges(V)) - set(tree)
    extra = _draw_subset(sorted(pool), M - len(tree), rng)
    active, pool = set(tree) | set(extra), pool - set(extra)
    node, weights = np.zeros(V), {}
    c = min(config.apt_clusters, V + M)
    records, negs, states = [], [], {}
    for it in range(1, config.max_iter + 1):
        edges = sorted(active)
        model = PairwiseModel(V, node, edges, [weights.get(e, 0.0) for e in edges])
        model, _ = learn_params_with_apt(model, ds, c, config.fit)
        node, weights = model.node_weights, dict(zip(model.edges, model.edge_weights))
        base = pll(model, ds)
        negs.append(-base)
        states.setdefault((model.edges, model.weight_vector().tobytes()), it)
        deleted, added, proposals, fell_back, tie = [], [], 0, False, False
        if k > 0 and it < config.max_iter:
            if config.heuristic == "rejection":
                for proposals in range(1, config.rejection_cap + 1):
                    subset = _draw_subset(edges, k, rng)
                    bar = math.exp(pll_without_edges(model, ds, subset))
                    u = rng.random()
                    tie |= abs(u - bar) <= REF_TIE
                    if u <= bar:
                        deleted = subset
                        break
                else:
                    fell_back = True
            if not deleted:
                scored = [(base - pll_without_edges(model, ds, [e]), e) for e in edges]
                deleted, near = _pick(scored, k, order_matters=False)
                tie |= near
            scored = [(-_row_addition_gain(ds, model, e), e) for e in sorted(pool)]
            added, near = _pick(scored, k, order_matters=True)
            if tie or near:
                return ReferenceRun(records, negs, (), it)
            active = active - set(deleted) | set(added)
            pool = pool - set(added) | set(deleted)
        records.append(IterationRecord(
            iteration=it, train_neg_pll=-base, deleted=tuple(sorted(deleted)),
            added=tuple(added), proposals=proposals, fell_back=fell_back,
            active_edges=tuple(sorted(active)), pool_edges=tuple(sorted(pool)),
            seconds=0.0))
    low = min(negs)
    best = tuple(it for it in states.values() if negs[it - 1] - low <= REF_TIE * low)
    return ReferenceRun(records, negs, best, None)

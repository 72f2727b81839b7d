"""Structure learning under a hard edge budget by edge exchange.

The learner keeps exactly M = n_vars - 1 + extra_edges edges active at all
times. It starts from the Chow-Liu tree plus random extra edges, then
repeatedly refits parameters (with tying), drops the k weakest edges, and
adds the k most promising edges from the inactive pool, all tracked as one
boolean mask over the edge codes lo*V + hi. Each iteration holds the
Markov-blanket tables of the current structure (:mod:`forced_pruning.blanket`),
so the fits, the deletion heuristic and the addition scoring all get that one
build for their (dataset, edge set).
"""

from __future__ import annotations

import functools
import logging
import operator
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .blanket import tables_for
from .chowliu import chow_liu_tree
from .dataset import DataSet
from .model import Edge, PairwiseModel, canonical_edge, complete_edges
from .param_learn import FitOptions, TyingPartition, learn_params_with_apt

logger = logging.getLogger(__name__)

HEURISTICS = ("greedy", "rejection")


@dataclass(frozen=True)
class PruningConfig:
    """Settings for :func:`forced_pruning`.

    ``extra_edges`` is the count beyond the spanning tree, so the edge
    budget is M = n_vars - 1 + extra_edges; ``exchange_size`` is the number
    of edges swapped out and in per iteration.
    """

    extra_edges: int = 0
    exchange_size: int = 5
    heuristic: str = "greedy"
    max_iter: int = 30
    seed: int = 0
    apt_clusters: int = 16
    fit: FitOptions = field(default_factory=FitOptions)
    rejection_cap: int = 10000

    def __post_init__(self):
        if self.extra_edges < 0:
            raise ValueError("extra_edges must be >= 0")
        if self.exchange_size < 0:
            raise ValueError("exchange_size must be >= 0")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"heuristic must be one of {HEURISTICS}, got {self.heuristic!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.apt_clusters < 1:
            raise ValueError("apt_clusters must be >= 1")
        if self.rejection_cap < 1:
            raise ValueError("rejection_cap must be >= 1")


class EdgeScore(NamedTuple):
    edge: Edge
    delta: float


class IterationRecord(NamedTuple):
    """What one exchange iteration did."""

    iteration: int
    train_neg_pll: float
    deleted: tuple[Edge, ...]
    added: tuple[Edge, ...]
    proposals: int
    fell_back: bool
    active_edges: tuple[Edge, ...]
    pool_edges: tuple[Edge, ...]
    seconds: float


@dataclass(frozen=True)
class PruningResult:
    """Best model found, its tying partition, and the full iteration log."""

    model: PairwiseModel
    partition: TyingPartition
    iterations: tuple[IterationRecord, ...]
    best_iteration: int


class RejectionOutcome(NamedTuple):
    edges: frozenset[Edge]
    proposals: int
    fell_back: bool


def edge_deletion_scores(model: PairwiseModel, ds: DataSet) -> list[EdgeScore]:
    """PLL contribution of each active edge, worst first.

    The score of edge e is pll(model) - pll(model with e's weight zeroed);
    ties are broken lexicographically by edge.
    """
    if not model.edges:
        raise ValueError("model has no active edges to score")
    deltas = tables_for(model, ds).deletion_deltas(model.weight_vector())
    scores = [EdgeScore(e, float(d)) for e, d in zip(model.edges, deltas)]
    scores.sort(key=lambda s: (s.delta, s.edge))
    return scores


def greedy_delete(model: PairwiseModel, ds: DataSet, k: int) -> set[Edge]:
    """The k active edges whose removal costs the least PLL."""
    if not 0 <= k <= len(model.edges):
        raise ValueError(f"k must be in [0, {len(model.edges)}], got {k}")
    if k == 0:
        return set()
    return {s.edge for s in edge_deletion_scores(model, ds)[:k]}


def _draw_subset(items: Sequence, k: int, rng: np.random.Generator) -> list:
    """Uniform random k-subset via partial shuffling."""
    pool = list(items)
    n = len(pool)
    for i in range(k):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def rejection_sample_delete(
    model: PairwiseModel,
    ds: DataSet,
    k: int,
    rng: np.random.Generator,
    cap: int = PruningConfig.rejection_cap,
) -> RejectionOutcome:
    """Sample a k-subset S of active edges with probability ∝ exp(pll without S).

    Proposes uniform k-subsets and accepts a proposal S iff
    u <= exp(pll_S - B), where pll_S is the PLL of the model with S's weights
    zeroed, u ~ Uniform(0, 1), and B >= every pll_S. Both are one sum over
    the blanket groups at shifted logits, from the tables'
    :meth:`~forced_pruning.blanket.BlanketTables.subset_pll`. So the accepted
    subsets follow the target exactly, and the tighter B is, the fewer
    proposals an exchange takes.
    If ``cap`` proposals are all rejected, falls back to the greedy choice
    and flags it in the outcome.
    """
    if not 0 <= k <= len(model.edges):
        raise ValueError(f"k must be in [0, {len(model.edges)}], got {k}")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if k == 0:
        return RejectionOutcome(frozenset(), 0, False)
    # positions in the order of their edges, so the draws follow the edges
    order = sorted(range(len(model.edges)), key=model.edges.__getitem__)
    tables, theta = tables_for(model, ds), model.weight_vector()
    score, bound = tables.subset_pll(theta, k)
    for proposals in range(1, cap + 1):
        subset = _draw_subset(order, k, rng)
        u = rng.random()
        if u <= np.exp(score(subset) - bound):
            return RejectionOutcome(frozenset(model.edges[j] for j in subset), proposals, False)
    logger.info("no proposal accepted within cap %d, falling back to greedy deletion", cap)
    return RejectionOutcome(frozenset(greedy_delete(model, ds, k)), cap, True)


def _endpoints(candidates) -> tuple[np.ndarray, Sequence]:
    """The candidates as an (n, 2) int64 array, and as given: such an array
    is read in place, anything else parsed pair by pair. A non-pair is a
    ValueError; an endpoint beyond int64 is held at ±2**62, out of range."""
    if (isinstance(candidates, np.ndarray) and candidates.dtype == np.int64
            and candidates.shape[1:] == (2,)):
        return candidates, candidates
    pairs = []
    for e in candidates:
        try:
            i, j = e
            pairs.append((operator.index(i), operator.index(j)))
        except (TypeError, ValueError):
            raise ValueError(f"candidate {e!r} is not a pair of integers") from None
    held = np.clip(np.array(pairs, dtype=object).reshape(-1, 2), -2**62, 2**62)
    return held.astype(np.int64), pairs


def greedy_add(
    model: PairwiseModel,
    ds: DataSet,
    candidates: Iterable[Edge] | np.ndarray,
    k: int,
) -> list[tuple[Edge, float]]:
    """The k inactive edges whose addition gains the most PLL.

    Each candidate's gain is max over a single scalar weight w in [-30, 30]
    of pll(model + candidate at w) - pll(model), all existing weights
    frozen. Gains are >= 0 because w = 0 recovers the unmodified model.
    Returns (edge, gain) pairs sorted by descending gain, ties lexicographic.
    ``candidates`` is an iterable of pairs or an (n, 2) integer array, read
    in place when int64. Candidates are canonicalized; one that is not a
    pair of integers, or is active, repeated or out of range, is a ValueError.
    """
    ends, given = _endpoints(candidates)
    V = model.n_vars
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    out = (lo < 0) | (hi >= V)
    code = np.where(out, 0, lo * V + hi)  # code 0 is (0, 0), never an edge
    active = np.isin(code, [e.lo * V + e.hi for e in model.edges])
    codes, first = np.unique(code, return_index=True)
    repeat = np.ones(code.size, dtype=bool)
    repeat[first] = False
    bad = (lo == hi) | out | active | repeat
    if bad.any():
        # the first offender, in candidate order and as given, with the checks in this order
        e = tuple(map(int, given[int(np.argmax(bad))]))
        c = canonical_edge(*e)
        if c.lo < 0 or c.hi >= V:
            raise ValueError(f"candidate {e} is out of range for {V} variables")
        if c in model.edges:
            raise ValueError(f"candidate {e} is already active")
        raise ValueError(f"duplicate candidate {e}")
    if not 0 <= k <= codes.size:
        raise ValueError(f"k must be in [0, {codes.size}], got {k}")
    if k == 0:
        return []
    pairs = _pairs(codes, V)  # canonical and sorted
    gains = tables_for(model, ds).addition_gains(model.weight_vector(), pairs)
    best = np.lexsort((codes, -gains))[:k]  # descending gain, ties by edge
    return [(Edge(int(a), int(b)), float(g)) for (a, b), g in zip(pairs[best], gains[best])]


def _pairs(codes: np.ndarray, V: int) -> np.ndarray:
    """The (n, 2) endpoints of the edge codes lo*V + hi, in the codes' order."""
    return np.column_stack(np.divmod(codes, V))


@functools.lru_cache(maxsize=8)
def _edge_table(V: int) -> np.ndarray:
    """One read-only Edge per code lo*V + hi of the upper triangle, shared by
    every record's pool_edges in every run over V variables."""
    edge_of = np.empty(V * V, dtype=object)
    upper = np.triu(np.ones((V, V), dtype=bool), 1).ravel()
    edge_of[upper] = np.fromiter(complete_edges(V), dtype=object, count=V * (V - 1) // 2)
    edge_of.setflags(write=False)
    return edge_of


def forced_pruning(train: DataSet, config: PruningConfig) -> PruningResult:
    """Learn a pairwise model of exactly M edges by iterative edge exchange.

    Starts from the Chow-Liu tree plus ``extra_edges`` edges drawn uniformly
    at random from the remaining pairs (seeded). Each iteration refits the
    parameters with tying (warm-started from the surviving weights), removes
    ``exchange_size`` edges by the configured heuristic, and adds the same
    number of edges greedily from the inactive pool; the last iteration only
    fits, so its record has empty ``deleted`` and ``added``. The structure is
    a boolean mask over the edge codes lo*V + hi and the pool is its
    complement in the upper triangle, so an exchange flips the mask at 2k
    codes. Returns the iteration with the lowest training negative PLL.
    """
    V = train.n_vars
    n_edges = V * (V - 1) // 2
    M = V - 1 + config.extra_edges
    k = config.exchange_size
    if M > n_edges:
        raise ValueError(f"budget {M} exceeds the {n_edges} edges of the complete graph")
    if k > M:
        raise ValueError(f"exchange_size {k} exceeds the edge budget {M}")
    if k > n_edges - M:
        raise ValueError(f"exchange_size {k} exceeds the {n_edges - M} inactive edges")

    rng = np.random.default_rng(config.seed)
    upper = np.triu(np.ones((V, V), dtype=bool), 1).ravel()
    active = np.zeros(V * V, dtype=bool)
    active[[lo * V + hi for lo, hi in chow_liu_tree(train)]] = True
    active[_draw_subset(np.flatnonzero(upper & ~active), config.extra_edges, rng)] = True
    pool_codes = np.flatnonzero(upper & ~active)
    edge_of = _edge_table(V)

    model = PairwiseModel.zeros(V, _pairs(np.flatnonzero(active), V))
    c = min(config.apt_clusters, model.n_params)
    best, records = None, []
    for it in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        tables = tables_for(model, train)  # held, so every step below reuses it
        model, partition = learn_params_with_apt(model, train, c, config.fit)
        neg = -tables.pll(model.weight_vector())
        if best is None or neg < best[0]:
            best = (neg, model, partition, it)

        deleted, added, proposals, fell_back = set(), [], 0, False
        # the last iteration's exchange would never be fitted or scored
        if k > 0 and it < config.max_iter:
            if config.heuristic == "greedy":
                deleted = greedy_delete(model, train, k)
            else:
                deleted, proposals, fell_back = rejection_sample_delete(
                    model, train, k, rng, config.rejection_cap)
            added = [e for e, _ in greedy_add(model, train, _pairs(pool_codes, V), k)]
            active[[lo * V + hi for lo, hi in (*deleted, *added)]] ^= True
            codes, pool_codes = np.flatnonzero(active), np.flatnonzero(upper & ~active)
            model = PairwiseModel(
                V, model.node_weights, _pairs(codes, V), model.weight_matrix().ravel()[codes]
            )

        records.append(IterationRecord(
            iteration=it, train_neg_pll=neg, deleted=tuple(sorted(deleted)),
            added=tuple(added), proposals=proposals, fell_back=fell_back,
            active_edges=model.edges, pool_edges=tuple(edge_of[pool_codes].tolist()),
            seconds=time.perf_counter() - t0,
        ))
        logger.info(
            "iteration %d/%d: train neg PLL %.6f, swapped %d edges%s",
            it, config.max_iter, neg, len(deleted),
            " (rejection fell back to greedy)" if fell_back else "",
        )

    _, model, partition, it = best
    return PruningResult(model, partition, tuple(records), it)

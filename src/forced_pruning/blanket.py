"""Markov-blanket count tables: the pseudo-likelihood engine of one structure.

A variable's conditional P(x_v | rest) depends on a row only through x_v and
the values of v's neighbours, its Markov blanket. So for a fixed edge set
every sum the learner needs collapses from the compressed rows to the
(blanket configuration, x_v) groups of each variable: the PLL and its
gradient, the loss from zeroing any set of edges, an upper bound on the PLL
after zeroing any k edges (the rejection sampler's envelope), and the gain
of adding any inactive edge. The PLL with a set of edges zeroed and that
bound are one sum, over the groups at logits shifted by incident weights.
A group keeps its variable, its count of instances, an exact representative
row, and (for addition scoring) the count of x_u = 1 within the group for
every variable u. A variable never has more groups than there are unique
rows, and a sparse structure has far fewer: the plants Chow-Liu tree has
about 500 groups in all against about 8000 unique rows per variable.

Groups are keyed by the variable and its blanket, and grouped by
:func:`dataset.group_rows` on a column-major uint8 copy of the compressed
rows: by one weighted count of the key codes, which also gives the group
counts, for a key of at most log2(8 * unique rows) columns, by a stable
lexsort beyond. So grouping is exact at any blanket size, and the group
order is the lexicographic row order. (The deduplication of a dataset's
rows shares only the word packing and that lexsort: it counts narrow rows
in its own int32 code table.) The group values and the edge incidences are
read at any row of the group, where the variable and its blanket agree,
from the copy made once per dataset and kept in its cache
(:meth:`DataSet.cached`).

A variable's groups depend only on (dataset, variable, blanket), and an
exchange of k edges changes at most 2k blankets. So a store per dataset,
kept here and keyed weakly by it (a pickled or copied dataset never carries
it), holds a read-only block per blanket ``(v, *neighbours)``: its group
rows, counts and row-to-group map, which only ``ones`` reads and which the
block's ``ones`` rows replace once computed. A build groups only the
blankets the store lacks. The store keeps the 2 * V blankets used last, so
an undone exchange or a repeated run over two structures regroups nothing.

``ones`` is one weighted ``np.bincount`` per block without rows over the
nonzero (row, u) pairs of the compressed rows, each binned at (group of the
row, u). The pairs depend on the dataset alone: they are found in row-major
order when ``ones`` is first needed, and kept in the dataset's cache under
``"nonzero"``. The sums of ``ones`` are exact integers, and every other
reduction here is a sequential ``np.bincount`` over a fixed order, so
results do not depend on BLAS threading.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .dataset import DataSet, _read_only, group_rows
from .model import _check_dims, _log_sigmoid, _sigmoid

ADD_WEIGHT_BOUND = 30.0
_NEWTON_STEPS = 100
_NEWTON_TOL = 1e-13

# tables_for's slot: each dataset's last tables, both held weakly
_last_tables = weakref.WeakKeyDictionary()
# each dataset's blocks by blanket, least recently used first, at most those of
# _STORED_TABLES tables: the current and the previous ones, all that an
# exchange undone in the next iteration reads again
_store = weakref.WeakKeyDictionary()
_STORED_TABLES = 2


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) over the pairs (s, n)."""
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(lengths.sum())


def _columns(ds: DataSet) -> np.ndarray:
    """The unique rows of ``ds`` as a column-major copy."""
    return np.ascontiguousarray(ds.compressed()[0].T)


def _nonzero(ds: DataSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, u) pairs of the unique rows with x_u = 1 in row-major
    order, and the weight of each pair's row."""
    # np.nonzero's arrays are strided views: ``ones`` indexes copies twice as fast
    r, u = map(np.ascontiguousarray, np.nonzero(ds.compressed()[0]))
    return r, u, ds.compressed()[1][r]


class BlanketTables:
    """Group tables of one dataset under one edge set.

    The groups of variable v are ``slice(start[v], start[v + 1])``. Group g
    holds ``var[g]``, the value ``x[g]`` of that variable, the instance count
    ``count[g]`` and the representative compressed row ``rep[g]``. Edge j
    touches the groups listed in ``inc_group[inc_ptr[j]:inc_ptr[j + 1]]``:
    the groups of either endpoint in which the other endpoint is 1, which
    are the groups whose logit moves with the edge's weight.

    Every method takes the flat weight vector of a model with exactly this
    edge set (node weights, then edge weights in ``edges`` order).
    """

    def __init__(self, ds: DataSet, edges: Sequence[tuple[int, int]]):
        columns = ds.cached("columns", _columns)
        weights = ds.compressed()[1]
        V = ds.n_vars
        self.n_vars = V
        self.n_instances = ds.n_instances
        self.edges = tuple(edges)
        self._ds = ds
        neighbours: list[list[int]] = [[] for _ in range(V)]
        for lo, hi in self.edges:
            neighbours[lo].append(hi)
            neighbours[hi].append(lo)
        store = _store.setdefault(ds, {})
        self._blocks = []
        for v, nb in enumerate(neighbours):
            key = (v, *sorted(nb))
            block = store.pop(key, None)  # put back last, as the most recently used
            if block is None:
                rep, inverse, count = _read_only(group_rows(columns, key, weights))
                block = SimpleNamespace(rep=rep, count=count, inverse=inverse, ones=None)
            store[key] = block
            self._blocks.append(block)
        while len(store) > _STORED_TABLES * V:
            del store[next(iter(store))]
        sizes = [b.count.size for b in self._blocks]
        self.start = np.concatenate([[0], np.cumsum(sizes)])
        self.var = np.repeat(np.arange(V), sizes)
        self.rep = np.concatenate([b.rep for b in self._blocks])
        self.count = np.concatenate([b.count for b in self._blocks])
        self.x = columns[self.var, self.rep]
        self.t = 2.0 * self.x - 1.0

        # both sides of every edge in turn: the groups of one endpoint in
        # which the other endpoint is 1
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        side, other = ends.ravel(), ends[:, ::-1].ravel()
        lengths = self.start[side + 1] - self.start[side]
        g = _ranges(self.start[side], lengths)
        touched = columns[np.repeat(other, lengths), self.rep[g]] > 0
        self.inc_group = g[touched]
        self.inc_edge = np.repeat(np.arange(side.size) // 2, lengths)[touched]
        self.inc_ptr = np.searchsorted(self.inc_edge, np.arange(len(self.edges) + 1))

    @property
    def n_groups(self) -> int:
        return self.var.size

    @cached_property
    def ones(self) -> np.ndarray:
        """(n_groups, n_vars) weighted count of x_u = 1 within each group."""
        V = self.n_vars
        r, u, w = self._ds.cached("nonzero", _nonzero)
        for b in self._blocks:
            if b.ones is None:
                # one weighted count per nonzero (row, u), binned at (group of row, u)
                cell = (b.inverse.astype(np.intp) * V)[r] + u
                b.ones = _read_only(
                    np.bincount(cell, weights=w, minlength=b.count.size * V).reshape(-1, V))
                b.inverse = None
        # float64 even when a dataset has no nonzero entry: then bincount gives int64
        return np.concatenate([b.ones for b in self._blocks], dtype=np.float64)

    def _split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_vars + len(self.edges),):
            raise ValueError(
                f"expected {self.n_vars + len(self.edges)} weights, got shape {theta.shape}"
            )
        return theta[: self.n_vars], theta[self.n_vars :]

    def logits(self, theta: np.ndarray) -> np.ndarray:
        """Conditional log-odds of x_var = 1 in each group."""
        node, edge = self._split(theta)
        shift = np.bincount(self.inc_group, weights=edge[self.inc_edge], minlength=self.n_groups)
        return node[self.var] + shift

    def _pll_at(self, z: np.ndarray) -> float:
        """Mean per-instance PLL at the group logits ``z``."""
        return float((self.count * _log_sigmoid(self.t * z)).sum() / self.n_instances)

    def pll(self, theta: np.ndarray) -> float:
        """Mean per-instance PLL, equal to :func:`model.pll` up to rounding."""
        return self._pll_at(self.logits(theta))

    def pll_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """PLL and its gradient over (node ++ edge) weights, from one logit pass."""
        z = self.logits(theta)
        resid = self.count * (self.x - _sigmoid(z))
        g_node = np.bincount(self.var, weights=resid, minlength=self.n_vars)
        g_edge = np.bincount(self.inc_edge, weights=resid[self.inc_group], minlength=len(self.edges))
        return self._pll_at(z), np.concatenate([g_node, g_edge]) / self.n_instances

    def deletion_deltas(self, theta: np.ndarray) -> np.ndarray:
        """pll - pll with edge j's weight zeroed, for every edge j.

        Exactly 0.0 for an edge of weight 0.
        """
        _, edge = self._split(theta)
        z = self.logits(theta)
        g = self.inc_group
        zg, tg = z[g], self.t[g]
        loss = self.count[g] * (_log_sigmoid(tg * zg) - _log_sigmoid(tg * (zg - edge[self.inc_edge])))
        return np.bincount(self.inc_edge, weights=loss, minlength=len(self.edges)) / self.n_instances

    def subset_pll(self, theta: np.ndarray, k: int):
        """A function mapping edge indices to the PLL with those weights
        zeroed, and an upper bound on that PLL over every k edges.

        Zeroing a set S shifts group g's logit by minus the sum of S's weights
        on g's incident edges, so both are the PLL at the logits less one
        per-group sum of incident weights. For the bound, each group's term is
        largest when that shift holds the (at most k) most negative incident
        weights if x_var = 1, the most positive if x_var = 0. The sum of these
        per-group maxima bounds every k-subset's PLL, and equals the largest
        one when a single k-subset attains them all.
        """
        _, edge = self._split(theta)
        z = self.logits(theta)

        def score(drop: np.ndarray) -> float:
            drop = np.asarray(drop, dtype=np.int64)
            sel = _ranges(self.inc_ptr[drop], self.inc_ptr[drop + 1] - self.inc_ptr[drop])
            g, w = self.inc_group[sel], edge[self.inc_edge[sel]]
            return self._pll_at(z - np.bincount(g, weights=w, minlength=self.n_groups))

        # incident weights by group, ascending, and each one's rank from
        # either end of its group
        order = np.lexsort((edge[self.inc_edge], self.inc_group))
        g, w = self.inc_group[order], edge[self.inc_edge[order]]
        size = np.bincount(g, minlength=self.n_groups)
        rank = np.arange(g.size) - (np.cumsum(size) - size)[g]
        keep = np.where(self.x[g] > 0, (rank < k) & (w < 0.0), (size[g] - rank <= k) & (w > 0.0))
        return score, self._pll_at(z - np.bincount(g[keep], weights=w[keep], minlength=self.n_groups))

    def addition_gains(self, theta: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Best PLL gain of adding each candidate edge at one free weight.

        The gain of candidate (a, b) at weight w is concave in w, and only the
        rows with x_b = 1 among a's groups (and x_a = 1 among b's) change, so
        all candidates are maximized together by a safeguarded Newton search
        on [-ADD_WEIGHT_BOUND, ADD_WEIGHT_BOUND]. Gains are >= 0.
        """
        candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
        n = candidates.shape[0]
        z = self.logits(theta)
        side_var = np.concatenate([candidates[:, 0], candidates[:, 1]])
        side_other = np.concatenate([candidates[:, 1], candidates[:, 0]])
        lengths = self.start[side_var + 1] - self.start[side_var]
        g = _ranges(self.start[side_var], lengths)
        cand = np.repeat(np.concatenate([np.arange(n), np.arange(n)]), lengths)
        s = self.ones[g, np.repeat(side_other, lengths)]
        keep = s > 0
        g, cand, s = g[keep], cand[keep], s[keep]
        tg, zg = self.t[g], z[g]

        def slopes(w, cand, s, tg, zg):
            p = _sigmoid(-tg * (zg + w[cand]))  # 1 - P(x_var | blanket) at weight w
            d1 = np.bincount(cand, weights=s * tg * p, minlength=w.size)
            d2 = np.bincount(cand, weights=s * p * (1.0 - p), minlength=w.size)
            return d1, d2

        B = ADD_WEIGHT_BOUND
        at_hi = slopes(np.full(n, B), cand, s, tg, zg)[0] >= 0.0
        at_lo = ~at_hi & (slopes(np.full(n, -B), cand, s, tg, zg)[0] <= 0.0)
        w = np.zeros(n)
        # Newton steps over the open candidates only: each step drops the
        # closed ones and their entries, keeping every candidate's entries in
        # their order, so each sum adds the same terms in the same order
        is_open = ~(at_hi | at_lo)
        open_, entries = np.flatnonzero(is_open), (cand, s, tg, zg)
        lo, hi = np.full(open_.size, -B), np.full(open_.size, B)
        for _ in range(_NEWTON_STEPS):
            if not open_.size:
                break
            kept = is_open[entries[0]]
            entries = ((np.cumsum(is_open) - 1)[entries[0][kept]], *(a[kept] for a in entries[1:]))
            wo = w[open_]
            d1, d2 = slopes(wo, *entries)
            lo = np.where(d1 > 0.0, wo, lo)
            hi = np.where(d1 < 0.0, wo, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = wo + d1 / d2
            # a converged step may round onto its own bracket end: keep it
            # rather than restart from the far bracket's midpoint
            tol = _NEWTON_TOL * (1.0 + np.abs(wo))
            inside = (step > lo) & (step < hi) | (np.abs(step - wo) <= tol)
            step = np.where(inside, step, 0.5 * (lo + hi))
            step = np.where(d1 == 0.0, wo, step)
            w[open_] = step
            is_open = np.abs(step - wo) > tol
            open_, lo, hi = open_[is_open], lo[is_open], hi[is_open]
        w = np.where(at_hi, B, np.where(at_lo, -B, w))
        change = s * (_log_sigmoid(tg * (zg + w[cand])) - _log_sigmoid(tg * zg))
        gains = np.bincount(cand, weights=change, minlength=n) / self.n_instances
        return np.maximum(gains, 0.0)


def tables_for(model, ds: DataSet) -> BlanketTables:
    """The blanket tables of ``ds`` under the model's edge set, reused while a
    caller holds them: a weak slot per dataset remembers the last ones built.
    A new build takes its blocks from the dataset's store of blankets."""
    _check_dims(model, ds)
    tables = _last_tables.get(ds, lambda: None)()
    if tables is None or tables.edges != model.edges:
        tables = BlanketTables(ds, model.edges)
        _last_tables[ds] = weakref.ref(tables)
    return tables

"""Markov-blanket tables against the row-based reference evaluators, and the
code-bucket and integer-keyed grouping (on both sides of the key width where
one gives way to the other), the ``ones`` counts summed over the nonzeros,
the compacted Newton search and the tables built from a dataset's store of
blanket blocks against their slow exact references (void-key grouping,
per-row addition, the full-width Newton loop, a build on a copy of the
dataset with no store), byte for byte, but for the representative rows: any
row of a group may represent it, so those are checked by group membership.
The rejection envelope is checked against its row-by-row reference and
above every enumerated subset's PLL.

Tolerances are fixed from float64 rounding on at most a few hundred rows:
1e-12 for PLL values, gradients and deletion deltas (all of order 1 per
instance), and 1e-9 for addition gains against a bounded Brent search,
whose own error in the weight is below its 1e-10 tolerance.
"""

import pickle
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from forced_pruning import (
    DataSet,
    Edge,
    PairwiseModel,
    chow_liu_tree,
    complete_edges,
    edge_deletion_scores,
    greedy_add,
    mple_fit,
    pll,
    pll_gradient,
    pll_without_edges,
)
from forced_pruning import blanket
from forced_pruning.blanket import BlanketTables, tables_for

from conftest import (blanket_keys, full_width_gains, random_dataset, reference_subset_bound,
                      void_key_tables)

RTOL = 1e-12
GAIN_ATOL = 1e-9
BOUND = 30.0  # greedy_add searches weights in [-30, 30]


@st.composite
def models_and_data(draw, max_vars=6, max_rows=60, min_vars=2):
    n_vars = draw(st.integers(min_vars, max_vars))
    n_rows = draw(st.integers(1, max_rows))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_vars, max_size=n_vars),
                         min_size=n_rows, max_size=n_rows))
    pool = complete_edges(n_vars)
    on = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    edges = tuple(e for e, keep in zip(pool, on) if keep)
    weight = st.floats(-4.0, 4.0, allow_nan=False)
    node = draw(st.lists(weight, min_size=n_vars, max_size=n_vars))
    edge = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    model = PairwiseModel(n_vars, np.array(node), edges, np.array(edge))
    return model, DataSet(np.array(bits, dtype=np.float64))


@st.composite
def wide_blankets(draw):
    """A hub joined to 62, 63 or 64 others, so that its blanket key spans 63,
    64 or 65 columns, over rows drawn from a few patterns (repeated groups)."""
    width = draw(st.sampled_from([63, 64, 65]))
    n_vars = width + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    patterns = rng.random((draw(st.integers(1, 12)), n_vars)) < 0.5
    X = patterns[rng.integers(patterns.shape[0], size=draw(st.integers(1, 60)))]
    edges = [Edge(0, j) for j in range(1, width)]
    edges += [e for e in complete_edges(n_vars) if e.lo > 0 and rng.random() < 0.05]
    edges = tuple(sorted(set(edges)))
    model = PairwiseModel(n_vars, rng.normal(size=n_vars), edges,
                          rng.normal(0, 0.2, size=len(edges)))
    return model, DataSet(X.astype(np.float64))


@st.composite
def keys_at_the_fork(draw, ratio):
    """A hub joined to ``width - 1`` others, over rows with exactly U distinct
    patterns, where 2**width == ratio * U: the hub's key sits at, below or
    above the width where grouping switches from code buckets to sorting
    (2**width == 8 * U)."""
    width = draw(st.integers(5, 10))
    n_unique = int(2**width / ratio)
    n_vars = width + 1 + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.choice(2**n_vars, n_unique, replace=False)
    patterns = (codes[:, None] >> np.arange(n_vars)) & 1
    X = patterns[np.concatenate([np.arange(n_unique), rng.integers(n_unique, size=n_unique)])]
    edges = {Edge(0, j) for j in range(1, width)}
    edges |= {e for e in complete_edges(n_vars) if e.lo > 0 and rng.random() < 0.2}
    edges = tuple(sorted(edges))
    model = PairwiseModel(n_vars, rng.normal(size=n_vars), edges,
                          rng.normal(0, 0.5, size=len(edges)))
    return model, DataSet(X[rng.permutation(X.shape[0])].astype(np.float64))


@st.composite
def exchange_sequences(draw):
    """Rows, a first edge set and 2-6 steps, each an exchange of k random
    active edges for k random inactive ones or the undoing of an earlier
    exchange that still applies (the last one's undoing returns to the
    structure before it). Half the cases have a hub whose blanket key starts
    at 63, 64 or 65 columns and moves across those widths as hub edges are
    swapped out and in."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        width = draw(st.sampled_from([63, 64, 65]))
        n_vars = width + draw(st.integers(0, 2))
        edges = {Edge(0, j) for j in range(1, width)}
        edges |= {e for e in complete_edges(n_vars) if e.lo > 0 and rng.random() < 0.02}
    else:
        n_vars = draw(st.integers(3, 8))
        pool = complete_edges(n_vars)
        edges = {pool[i] for i in rng.choice(len(pool), rng.integers(1, len(pool)), replace=False)}
    patterns = rng.random((draw(st.integers(1, 12)), n_vars)) < 0.5
    X = patterns[rng.integers(patterns.shape[0], size=draw(st.integers(1, 60)))]
    structures, exchanges = [tuple(sorted(edges))], []
    for _ in range(draw(st.integers(2, 6))):
        undoable = [(added, deleted) for deleted, added in exchanges
                    if added <= edges and not deleted & edges]
        if undoable and draw(st.booleans()):
            deleted, added = undoable[draw(st.integers(0, len(undoable) - 1))]
        else:
            active, inactive = sorted(edges), sorted(set(complete_edges(n_vars)) - edges)
            k = int(rng.integers(1, min(3, len(active), len(inactive)) + 1))
            deleted = {active[i] for i in rng.choice(len(active), k, replace=False)}
            added = {inactive[i] for i in rng.choice(len(inactive), k, replace=False)}
        edges = edges - deleted | added
        exchanges.append((deleted, added))
        structures.append(tuple(sorted(edges)))
    return DataSet(X.astype(np.float64)), structures, draw(st.booleans())


def without_store(ds):
    """An unpickled copy of ``ds``: its cached arrays, but no blanket store."""
    clone = pickle.loads(pickle.dumps(ds))
    assert clone not in blanket._store
    return clone


def table_arrays(tables, names):
    """The named arrays of ``tables``; "inverse" lists each block's
    row-to-group map, None where the block's ``ones`` rows replaced it."""
    return {n: [b.inverse for b in tables._blocks] if n == "inverse" else getattr(tables, n)
            for n in names}


def assert_same_bytes(got, want):
    """The arrays of ``got`` equal those of ``want`` byte for byte, but for
    ``rep``: any row of a group represents it, so each of its entries need
    only be a row of the same group under ``want``'s ``inverse``. A map
    ``got`` no longer holds is checked through the ``ones`` rows that
    replaced it."""
    for name, w in want.items():
        g = got[name]
        if name == "inverse":
            assert len(g) == len(w)
            assert all(a is None or (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
                       for a, b in zip(g, w))
        elif name == "rep":
            assert g.dtype == w.dtype and g.shape == w.shape
            start = want["start"]
            for v, inv in enumerate(want["inverse"]):
                groups = inv[g[start[v]:start[v + 1]]]
                np.testing.assert_array_equal(groups, np.arange(start[v + 1] - start[v]))
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name


def check_against_void_keys(model, ds):
    # built with no store, so every block still holds its row-to-group map
    tables = BlanketTables(without_store(ds), model.edges)
    ref = void_key_tables(ds, model.edges)
    got = table_arrays(tables, ref)
    assert all(inv is not None for inv in got["inverse"])
    assert_same_bytes(got, ref)
    return tables


def check_gains_against_full_width(model, ds, tables):
    pool = [e for e in complete_edges(model.n_vars) if e not in set(model.edges)]
    theta = model.weight_vector()
    got = tables.addition_gains(theta, pool)
    assert got.tobytes() == full_width_gains(tables, theta, pool).tobytes()


def check_exchanges(shared, structures):
    """Tables for each structure in turn, built from the store of ``shared``,
    against a build on a copy with no store and the void-key reference, byte
    for byte (``rep`` by group membership). Each predecessor's ``ones`` is
    computed only after its successor was built, so a successor finds no
    ``ones`` rows but those of blankets it revisits."""
    names = GROUP_ARRAYS + ("ones",)
    held = None
    for edges in structures:
        tables = tables_for(PairwiseModel.zeros(shared.n_vars, edges), shared)
        if held is not None:
            assert_same_bytes(table_arrays(held[0], names), held[1])
        fresh = table_arrays(BlanketTables(without_store(shared), edges), names)
        assert_same_bytes(fresh, void_key_tables(shared, edges))
        held = tables, fresh
    assert_same_bytes(table_arrays(held[0], names), held[1])


def brent_gain(model, ds, e):
    """Row-based best gain of adding e at one weight in the bounds."""
    base = pll(model, ds)

    def neg_gain(w):
        grown = PairwiseModel(model.n_vars, model.node_weights, model.edges + (e,),
                              np.append(model.edge_weights, w))
        return base - pll(grown, ds)

    res = minimize_scalar(neg_gain, bounds=(-BOUND, BOUND),
                          method="bounded", options={"xatol": 1e-10})
    return max(0.0, -res.fun, -neg_gain(BOUND), -neg_gain(-BOUND))


def check_pll_and_gradient(model, ds):
    f, g = BlanketTables(ds, model.edges).pll_and_gradient(model.weight_vector())
    assert f == pytest.approx(pll(model, ds), rel=RTOL)
    ref = pll_gradient(model, ds)
    np.testing.assert_allclose(g, ref, rtol=RTOL, atol=RTOL * max(1.0, np.abs(ref).max()))


def check_deletions(model, ds):
    tables = BlanketTables(ds, model.edges)
    theta = model.weight_vector()
    base = pll(model, ds)
    for e, d in zip(model.edges, tables.deletion_deltas(theta)):
        assert d == pytest.approx(base - pll_without_edges(model, ds, [e]), abs=RTOL)
    score = tables.subset_pll(theta, 1)[0]
    assert score([]) == tables.pll(theta)  # bit for bit: no shift, the same sum
    for size in range(1, len(model.edges) + 1):
        drop = list(range(0, len(model.edges), max(1, len(model.edges) // size)))[:size]
        expected = pll_without_edges(model, ds, [model.edges[j] for j in drop])
        assert score(drop) == pytest.approx(expected, abs=RTOL)


def check_subset_bound(model, ds):
    """The bound against its row-by-row reference, and above the PLL of
    every k-subset of edges zeroed, for every k."""
    tables = BlanketTables(ds, model.edges)
    theta = model.weight_vector()
    for k in range(1, len(model.edges) + 1):
        bound = tables.subset_pll(theta, k)[1]
        assert bound == pytest.approx(reference_subset_bound(model, ds, k), rel=RTOL)
        best = max(pll_without_edges(model, ds, s) for s in combinations(model.edges, k))
        assert best <= bound + RTOL


def check_additions(model, ds):
    pool = [e for e in complete_edges(model.n_vars) if e not in set(model.edges)]
    if not pool:
        return
    gains = BlanketTables(ds, model.edges).addition_gains(model.weight_vector(), pool)
    for e, gain in zip(pool, gains):
        assert gain == pytest.approx(brent_gain(model, ds, e), abs=GAIN_ATOL)


class TestAgainstRowReference:
    @settings(max_examples=60, deadline=None)
    @given(models_and_data())
    def test_pll_and_gradient(self, case):
        check_pll_and_gradient(*case)

    @settings(max_examples=60, deadline=None)
    @given(models_and_data())
    def test_deletion_and_subset_scores(self, case):
        model, ds = case
        if model.edges:
            check_deletions(model, ds)

    @settings(max_examples=60, deadline=None)
    @given(models_and_data(min_vars=3))
    def test_subset_bound(self, case):
        check_subset_bound(*case)

    @settings(max_examples=25, deadline=None)
    @given(models_and_data(max_vars=5, max_rows=40))
    def test_addition_gains_match_brent(self, case):
        check_additions(*case)


class TestAgainstSlowExactPaths:
    @settings(max_examples=100, deadline=None)
    @given(models_and_data(max_vars=8, max_rows=80))
    def test_grouping_and_gains(self, case):
        tables = check_against_void_keys(*case)
        check_gains_against_full_width(*case, tables)

    @settings(max_examples=30, deadline=None)
    @given(wide_blankets())
    def test_blankets_of_63_64_and_65_columns(self, case):
        tables = check_against_void_keys(*case)
        check_gains_against_full_width(*case, tables)

    @pytest.mark.parametrize("ratio", [4, 8, 16])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_grouping_at_the_fork(self, ratio, data):
        model, ds = data.draw(keys_at_the_fork(ratio))
        n_unique = ds.compressed()[0].shape[0]
        degree = np.bincount(np.ravel(model.edges), minlength=model.n_vars)
        assert 2 ** (1 + degree[0]) == ratio * n_unique
        # one lexsort per key wider than the fork (the hub's only above it);
        # every other key takes the code buckets
        wide = 2.0 ** (1 + degree) > 8 * n_unique
        assert wide[0] == (ratio > 8) and not wide.all()
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            tables = check_against_void_keys(model, ds)
        assert lexsort.call_count == wide.sum()
        check_gains_against_full_width(model, ds, tables)

    def test_plants_sized_chow_liu_build_never_sorts_keys(self, rng, monkeypatch):
        # every Chow-Liu blanket key is narrow against about 8000 unique rows
        ds = random_dataset(rng, 69, 8000, p=0.3)
        tree = chow_liu_tree(ds)  # compresses the rows before the sorts are counted
        sorts = []

        def counting(sort):
            def wrapper(*args, **kwargs):
                sorts.append(sort.__name__)
                return sort(*args, **kwargs)
            return wrapper

        for name in ("sort", "argsort", "lexsort", "unique"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        tables = BlanketTables(ds, tree)
        assert sorts == [] and tables.n_groups < ds.compressed()[0].shape[0]

    def test_plants_sized_structure(self, rng):
        # many open candidates over many Newton steps, as in the pruning loop
        ds = random_dataset(rng, 40, 600, p=0.3)
        pool = complete_edges(40)
        edges = tuple(sorted(pool[i] for i in rng.choice(len(pool), 60, replace=False)))
        model = PairwiseModel(40, rng.normal(size=40), edges, rng.normal(size=60))
        check_gains_against_full_width(model, ds, check_against_void_keys(model, ds))


GROUP_ARRAYS = ("start", "var", "rep", "count", "x", "t", "inc_ptr", "inc_group", "inc_edge",
                "inverse")


class TestBlanketStore:
    """A build takes each blanket's block from the dataset's store and groups
    only the blankets that are not among the last 2 * V used; the result
    must equal a build on an unpickled copy of the dataset, which has no
    store."""

    @settings(max_examples=40, deadline=None)
    @given(exchange_sequences())
    def test_stored_tables_equal_a_fresh_build(self, case):
        shared, structures, ones_first = case
        V = shared.n_vars
        recent = []  # the blankets used last, least recently first
        pending = None  # tables whose ones are checked only after their successor was built
        for i, edges in enumerate(structures):
            keys = blanket_keys(V, edges)
            with mock.patch.object(blanket, "group_rows", wraps=blanket.group_rows) as grouping:
                tables = BlanketTables(shared, edges)
            assert [c.args[1] for c in grouping.call_args_list] == [
                key for key in keys if key not in recent]
            recent = ([key for key in recent if key not in keys] + keys)[-2 * V:]
            assert list(blanket._store[shared]) == recent
            fresh = BlanketTables(without_store(shared), edges)
            ref = void_key_tables(shared, edges)
            assert_same_bytes(table_arrays(tables, GROUP_ARRAYS), table_arrays(fresh, GROUP_ARRAYS))
            assert_same_bytes(table_arrays(tables, GROUP_ARRAYS),
                              {n: a for n, a in ref.items() if n != "ones"})
            if pending is not None:
                assert_same_bytes({"ones": pending[0].ones}, pending[1])
            # alternate: the successor finds computed ones rows or counts its own
            if (i % 2 == 0) == ones_first:
                assert_same_bytes({"ones": tables.ones}, {"ones": fresh.ones})
                assert_same_bytes({"ones": tables.ones}, {"ones": ref["ones"]})
                pending = None
            else:
                pending = tables, {"ones": ref["ones"]}
        if pending is not None:
            assert_same_bytes({"ones": pending[0].ones}, pending[1])

    @pytest.mark.parametrize("b_ones", [False, True])
    def test_a_two_cycle_regroups_and_counts_nothing(self, rng, b_ones):
        # A, B = A after one exchange, then A again
        ds = random_dataset(rng, 8, 120)
        pool = complete_edges(8)
        a = sorted(pool[i] for i in rng.choice(len(pool), 10, replace=False))
        inactive = sorted(set(pool) - set(a))
        b = sorted(set(a[2:]) | {inactive[0], inactive[5]})
        first = BlanketTables(ds, a)
        first.ones
        second = BlanketTables(ds, b)
        if b_ones:
            second.ones
        with mock.patch.object(blanket, "group_rows") as grouping:
            third = BlanketTables(ds, a)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as counting:
            third.ones
        assert grouping.call_count == 0 and counting.call_count == 0
        for block in blanket._store[ds].values():
            assert not any(a.flags.writeable for a in vars(block).values() if a is not None)
        names = GROUP_ARRAYS + ("ones",)
        fresh = table_arrays(BlanketTables(without_store(ds), a), names)
        assert_same_bytes(table_arrays(third, names), fresh)
        assert_same_bytes(table_arrays(first, names), fresh)

    def test_the_store_evicts_the_least_recently_used(self, rng):
        # a chain of 4 variables plus one chord, then another: each step
        # groups 2 new blankets, and the third chord overflows the 2 * V = 8
        # kept, evicting the first chord's two, so returning to it regroups them
        ds = random_dataset(rng, 4, 40)
        chain = [Edge(0, 1), Edge(1, 2), Edge(2, 3)]
        steps = [
            (chain, [(0, 1), (1, 0, 2), (2, 1, 3), (3, 2)]),
            (chain + [Edge(0, 2)], [(0, 1, 2), (2, 0, 1, 3)]),
            (chain + [Edge(0, 3)], [(0, 1, 3), (3, 0, 2)]),
            (chain + [Edge(1, 3)], [(1, 0, 2, 3), (3, 1, 2)]),
            (chain + [Edge(0, 2)], [(0, 1, 2), (2, 0, 1, 3)]),
        ]
        for i, (edges, grouped) in enumerate(steps):
            with mock.patch.object(blanket, "group_rows", wraps=blanket.group_rows) as grouping:
                BlanketTables(ds, sorted(edges))
            assert [c.args[1] for c in grouping.call_args_list] == grouped
            assert len(blanket._store[ds]) == min(4 + 2 * i, 8)
            if i == 3:
                assert list(blanket._store[ds]) == [
                    (3, 2), (0, 1, 3), (1, 0, 2), (3, 0, 2), (0, 1), (1, 0, 2, 3), (2, 1, 3), (3, 1, 2)]


class TestSpecialCases:
    def test_complete_graph(self, rng):
        # every blanket is the whole row, so each variable has one group per unique row
        ds = random_dataset(rng, 7, 200)
        edges = tuple(complete_edges(7))
        model = PairwiseModel(7, rng.normal(size=7), edges, rng.normal(size=len(edges)))
        tables = BlanketTables(ds, edges)
        n_unique = ds.compressed()[0].shape[0]
        assert (np.diff(tables.start) == n_unique).all()
        check_pll_and_gradient(model, ds)
        check_deletions(model, ds)
        assert tables.addition_gains(model.weight_vector(), np.zeros((0, 2))).size == 0

    def test_constant_columns(self, rng):
        X = (rng.random((80, 5)) < 0.5).astype(float)
        X[:, 2] = 0.0
        X[:, 4] = 1.0
        ds = DataSet(X)
        edges = (Edge(0, 2), Edge(1, 4), Edge(2, 3))
        model = PairwiseModel(5, rng.normal(size=5), edges, rng.normal(size=3))
        check_pll_and_gradient(model, ds)
        check_deletions(model, ds)
        check_additions(model, ds)
        check_against_void_keys(model, ds)
        check_exchanges(ds, [edges, (Edge(0, 2), Edge(1, 3), Edge(2, 4)), edges])

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_dataset(self, rng, value):
        # one unique row; with value 0 the rows have no nonzero entry at all
        ds = DataSet(np.full((30, 5), value))
        edges = (Edge(0, 1), Edge(1, 2), Edge(3, 4))
        check_against_void_keys(PairwiseModel.zeros(5, edges), ds)
        check_exchanges(ds, [edges, (Edge(0, 2), Edge(1, 2), Edge(3, 4)), complete_edges(5)])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_deterministic_pair_optimum_at_bound(self, rng, sign):
        X = (rng.random((60, 3)) < 0.5).astype(float)
        X[:, 1] = X[:, 0] if sign > 0 else 1.0 - X[:, 0]
        ds = DataSet(X)
        model = PairwiseModel(3, np.array([0.0, -0.5 if sign > 0 else 0.5, 0.1]),
                              (Edge(1, 2),), np.array([0.3]))
        gains = BlanketTables(ds, model.edges).addition_gains(
            model.weight_vector(), [Edge(0, 1)])
        at_bound = PairwiseModel(3, model.node_weights, model.edges + (Edge(0, 1),),
                                 np.array([0.3, sign * BOUND]))
        assert gains[0] == pytest.approx(pll(at_bound, ds) - pll(model, ds), abs=RTOL)
        assert gains[0] == pytest.approx(brent_gain(model, ds, Edge(0, 1)), abs=GAIN_ATOL)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_converged_search_is_not_restarted(self, seed, monkeypatch):
        # a Newton step of a converged candidate can round onto its own
        # bracket end; the search must stop there, not restart from the far
        # bracket's midpoint, so 15 steps are plenty at this size
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 8, 80, p=0.3)
        pool = complete_edges(8)
        edges = tuple(sorted(pool[i] for i in rng.choice(len(pool), 8, replace=False)))
        model = PairwiseModel(8, rng.normal(size=8), edges, rng.normal(size=8))
        monkeypatch.setattr(blanket, "_NEWTON_STEPS", 15)
        check_additions(model, ds)

    def test_blanket_wider_than_64_columns(self, rng):
        # a hub joined to 69 others: its blanket key spans 70 bits
        n = 70
        ds = random_dataset(rng, n, 40)
        edges = tuple(Edge(0, j) for j in range(1, n))
        model = PairwiseModel(n, rng.normal(size=n), edges, rng.normal(0, 0.2, size=n - 1))
        tables = BlanketTables(ds, edges)
        assert tables.start[1] == ds.compressed()[0].shape[0]
        check_pll_and_gradient(model, ds)

    def test_stale_slot_is_never_served(self, rng):
        # two structures of four edges alternate over one DataSet, each call
        # made while the other's tables are held, so the slot is alive but stale
        X = (rng.random((60, 5)) < 0.5).astype(np.float64)
        a, b = (PairwiseModel(5, rng.normal(size=5), edges, rng.normal(size=4)) for edges in (
            (Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4)),
            (Edge(0, 2), Edge(0, 3), Edge(1, 4), Edge(2, 4))))

        def outputs(model, ds):
            pool = [e for e in complete_edges(5) if e not in model.edges]
            return (edge_deletion_scores(model, ds), greedy_add(model, ds, pool, 3),
                    mple_fit(model, ds).weight_vector().tobytes())

        shared = DataSet(X)
        for model, other in [(a, b), (b, a), (a, b), (b, a)]:
            held = tables_for(other, shared)
            assert outputs(model, shared) == outputs(model, DataSet(X))
            assert held.edges == other.edges

    def test_rejects_a_dataset_of_another_width(self, rng):
        ds = random_dataset(rng, 4, 20)
        with pytest.raises(ValueError, match="dataset has 4 variables, model has 5"):
            tables_for(PairwiseModel.zeros(5, (Edge(0, 1),)), ds)

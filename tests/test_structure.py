"""Edge scoring, deletion heuristics, greedy addition, and the full loop, also
against the slow reference loop of conftest."""

import gc
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from forced_pruning import (
    Edge,
    FitOptions,
    PairwiseModel,
    PruningConfig,
    complete_edges,
    edge_deletion_scores,
    forced_pruning,
    greedy_add,
    greedy_delete,
    learn_params_with_apt,
    mple_fit,
    pll,
    pll_without_edges,
    rejection_sample_delete,
)
from forced_pruning import blanket, structure
from forced_pruning.blanket import BlanketTables, tables_for

from conftest import (
    make_dataset,
    random_dataset,
    random_model,
    reference_forced_pruning,
    sample_dataset,
)


class TestEdgeDeletionScores:
    def test_sorted_ascending_and_matches_full_recompute(self, rng):
        model = random_model(rng, 5, 6)
        ds = random_dataset(rng, 5, 40)
        scores = edge_deletion_scores(model, ds)
        assert len(scores) == 6
        deltas = [s.delta for s in scores]
        assert deltas == sorted(deltas)
        base = pll(model, ds)
        for edge, delta in scores:
            assert delta == pytest.approx(
                base - pll_without_edges(model, ds, [edge]), abs=1e-12)

    def test_zero_weight_edge_scores_zero(self, rng):
        ds = random_dataset(rng, 4, 30)
        model = PairwiseModel(
            4, np.zeros(4), (Edge(0, 1), Edge(2, 3)), np.array([0.0, 1.5]))
        scores = dict(edge_deletion_scores(model, ds))
        assert scores[Edge(0, 1)] == 0.0

    def test_true_edges_score_nonnegative_at_unpenalized_optimum(self, rng):
        chain = PairwiseModel(
            5, np.zeros(5),
            tuple(Edge(i, i + 1) for i in range(4)),
            np.array([1.2, -1.0, 0.8, -1.1]))
        ds = sample_dataset(chain, 500, rng)
        fitted = mple_fit(
            PairwiseModel.zeros(5, chain.edges), ds,
            FitOptions(l2_strength=0.0, gradient_tolerance=1e-8))
        for _, delta in edge_deletion_scores(fitted, ds):
            assert delta >= -1e-10

    def test_requires_at_least_one_edge(self, rng):
        with pytest.raises(ValueError):
            edge_deletion_scores(PairwiseModel.zeros(3), random_dataset(rng, 3, 5))


class TestGreedyDelete:
    def test_k_zero_is_empty(self, rng):
        model = random_model(rng, 4, 3)
        assert greedy_delete(model, random_dataset(rng, 4, 10), 0) == set()

    def test_k_all_is_everything(self, rng):
        model = random_model(rng, 4, 3)
        ds = random_dataset(rng, 4, 10)
        assert greedy_delete(model, ds, 3) == set(model.edges)

    def test_picks_bottom_of_score_list(self, rng):
        model = random_model(rng, 5, 5)
        ds = random_dataset(rng, 5, 30)
        scores = edge_deletion_scores(model, ds)
        assert greedy_delete(model, ds, 2) == {scores[0].edge, scores[1].edge}

    def test_rejects_k_too_large(self, rng):
        model = random_model(rng, 4, 2)
        with pytest.raises(ValueError):
            greedy_delete(model, random_dataset(rng, 4, 10), 3)


class TestRejectionSampleDelete:
    def test_single_edge_model_returns_it(self, rng):
        ds = make_dataset(["11", "00", "10", "01"] * 3)
        model = PairwiseModel(2, np.zeros(2), (Edge(0, 1),), np.array([0.3]))
        out = rejection_sample_delete(model, ds, 1, rng, cap=100000)
        assert out.edges == {Edge(0, 1)}

    def test_k_zero_shortcut(self, rng):
        model = random_model(rng, 4, 3)
        out = rejection_sample_delete(model, random_dataset(rng, 4, 10), 0, rng)
        assert out.edges == frozenset() and out.proposals == 0 and not out.fell_back

    def test_fixed_seed_reproducible(self, rng):
        model = random_model(rng, 4, 4, edge_scale=0.3)
        ds = random_dataset(rng, 4, 25)
        a = rejection_sample_delete(model, ds, 2, np.random.default_rng(9), cap=10**6)
        b = rejection_sample_delete(model, ds, 2, np.random.default_rng(9), cap=10**6)
        assert a == b

    def test_cap_falls_back_to_greedy(self, rng):
        # 10 variables of noise make exp(pll) ~ 1e-3, so one proposal at this
        # seed is rejected and the fallback must match the greedy choice
        model = random_model(np.random.default_rng(3), 10, 12, edge_scale=1.5)
        ds = random_dataset(np.random.default_rng(4), 10, 60)
        out = rejection_sample_delete(model, ds, 3, np.random.default_rng(0), cap=1)
        assert out.fell_back
        assert out.proposals == 1
        assert out.edges == frozenset(greedy_delete(model, ds, 3))

    def test_edge_order_does_not_change_the_draws(self, rng):
        model = random_model(rng, 6, 7, edge_scale=0.3)
        ds = random_dataset(rng, 6, 50)
        shuffled = PairwiseModel(6, model.node_weights, model.edges[::-1], model.edge_weights[::-1])
        for seed in range(20):
            a = rejection_sample_delete(model, ds, 3, np.random.default_rng(seed), cap=50)
            b = rejection_sample_delete(shuffled, ds, 3, np.random.default_rng(seed), cap=50)
            assert a == b

    def test_rejects_bad_arguments(self, rng):
        model = random_model(rng, 3, 2)
        ds = random_dataset(rng, 3, 10)
        with pytest.raises(ValueError):
            rejection_sample_delete(model, ds, 5, rng)
        with pytest.raises(ValueError):
            rejection_sample_delete(model, ds, 1, rng, cap=0)


class TestGreedyAdd:
    def test_gains_nonnegative_and_sorted(self, rng):
        model = random_model(rng, 5, 3)
        ds = random_dataset(rng, 5, 40)
        pool = [e for e in complete_edges(5) if e not in model.edges]
        out = greedy_add(model, ds, pool, len(pool))
        gains = [g for _, g in out]
        assert all(g >= 0 for g in gains)
        assert gains == sorted(gains, reverse=True)

    def test_correlated_pair_ranks_first(self, rng):
        # x3 == x4 always, everything else fair coins
        X = (rng.random((200, 5)) < 0.5).astype(float)
        X[:, 4] = X[:, 3]
        ds = make_dataset(X.astype(int).tolist())
        model = PairwiseModel.zeros(5)
        out = greedy_add(model, ds, complete_edges(5), 3)
        assert out[0][0] == Edge(3, 4)
        assert out[0][1] > 0.1

    def test_gain_matches_full_recompute(self, rng):
        model = random_model(rng, 4, 2)
        ds = random_dataset(rng, 4, 30)
        pool = [e for e in complete_edges(4) if e not in model.edges]
        (edge, gain), *_ = greedy_add(model, ds, pool, 1)
        base = pll(model, ds)
        grid = np.linspace(-5, 5, 20001)
        brute = max(
            pll(PairwiseModel(
                4, model.node_weights,
                model.edges + (edge,),
                np.append(model.edge_weights, w)), ds) - base
            for w in grid)
        assert gain == pytest.approx(brute, abs=1e-6)

    def test_independent_pair_gains_nothing(self):
        ds = make_dataset(["00", "01", "10", "11"] * 5)
        out = greedy_add(PairwiseModel.zeros(2), ds, [Edge(0, 1)], 1)
        assert out[0][1] < 1e-8

    def test_rejects_active_candidate(self, rng):
        model = random_model(rng, 3, 2)
        ds = random_dataset(rng, 3, 10)
        with pytest.raises(ValueError, match="already active"):
            greedy_add(model, ds, list(model.edges), 1)

    def test_canonicalizes_and_validates_candidates(self, rng):
        model = PairwiseModel(4, np.zeros(4), (Edge(0, 1),), np.array([0.8]))
        ds = random_dataset(rng, 4, 30)
        with pytest.raises(ValueError, match=r"\(1, 0\) is already active"):
            greedy_add(model, ds, [(1, 0)], 1)
        for pair in ([(2, 3), (2, 3)], [(2, 3), (3, 2)]):
            with pytest.raises(ValueError, match=re.escape(f"duplicate candidate {pair[1]}")):
                greedy_add(model, ds, pair, 2)
        for bad in ((0, 9), (-1, 2)):
            with pytest.raises(ValueError, match=re.escape(f"candidate {bad} is out of range")):
                greedy_add(model, ds, [(2, 3), bad], 1)
        for bad, offender in (([(0, 2, 4), (1, 3)], (0, 2, 4)), ([(0, 2, 4)], (0, 2, 4)),
                              ([(0, 2), (1,)], (1,)), ([(0, 2), 3], 3),
                              ([(0, 2.0)], (0, 2.0)), (np.array([[0, 2, 3]]), np.array([0, 2, 3])),
                              (np.array([[0.0, 2.0]]), np.array([0.0, 2.0]))):
            message = f"candidate {offender!r} is not a pair"
            with pytest.raises(ValueError, match=re.escape(message)):
                greedy_add(model, ds, bad, 1)
        reversed_out = greedy_add(model, ds, [(3, 2), (2, 0)], 2)
        assert reversed_out == greedy_add(model, ds, [Edge(0, 2), Edge(2, 3)], 2)
        assert all(type(e) is Edge for e, _ in reversed_out)

    def test_array_candidates_match_pairs(self, rng):
        model = PairwiseModel(4, np.zeros(4), (Edge(0, 1),), np.array([0.8]))
        ds = random_dataset(rng, 4, 30)
        pairs = [(3, 2), (2, 0), (1, 3), (0, 3)]
        for dtype in (np.int64, np.int32, np.uint8):
            got = greedy_add(model, ds, np.array(pairs, dtype=dtype), 3)
            assert got == greedy_add(model, ds, pairs, 3)
        # codes lo*V + hi past 255 must not wrap in a narrow dtype
        wide = random_model(rng, 20, 5)
        ds20 = random_dataset(rng, 20, 40)
        pairs = [e for e in complete_edges(20) if e.lo >= 12 and e not in wide.edges]
        assert (greedy_add(wide, ds20, np.array(pairs, dtype=np.uint8), 4)
                == greedy_add(wide, ds20, pairs, 4))
        # the first offender is named in plain ints, as for pairs
        for bad, message in (([[2, 3], [0, 9]], "candidate (0, 9) is out of range"),
                             ([[2, 3], [1, 0]], "candidate (1, 0) is already active"),
                             ([[2, 3], [3, 2]], "duplicate candidate (3, 2)"),
                             ([[2, 2]], "edge endpoints must differ, got (2, 2)")):
            with pytest.raises(ValueError, match=re.escape(message)):
                greedy_add(model, ds, np.array(bad), 1)
        ends = np.array(pairs)
        assert structure._endpoints(ends) is ends  # read in place, not copied

    def test_rejects_k_too_large(self, rng):
        model = random_model(rng, 3, 1)
        with pytest.raises(ValueError):
            greedy_add(model, random_dataset(rng, 3, 10), [Edge(0, 2)], 2)


class TestForcedPruning:
    def test_budget_and_partition_invariants(self, rng):
        ds = random_dataset(rng, 6, 80)
        cfg = PruningConfig(extra_edges=3, exchange_size=2, max_iter=8, seed=5,
                            apt_clusters=6)
        result = forced_pruning(ds, cfg)
        M = 6 - 1 + 3
        everything = set(complete_edges(6))
        for rec in result.iterations:
            active, pool = set(rec.active_edges), set(rec.pool_edges)
            assert len(rec.active_edges) == M
            assert not active & pool
            assert active | pool == everything

    @pytest.mark.parametrize("heuristic", ["greedy", "rejection"])
    def test_records_hold_sorted_edges_of_python_ints(self, rng, heuristic):
        ds = random_dataset(rng, 7, 80)
        cfg = PruningConfig(extra_edges=4, exchange_size=3, heuristic=heuristic,
                            max_iter=4, seed=2, rejection_cap=20)
        for rec in forced_pruning(ds, cfg).iterations:
            for edges in (rec.deleted, rec.added, rec.active_edges, rec.pool_edges):
                assert all(type(e) is Edge and type(e.lo) is int and type(e.hi) is int
                           for e in edges)
            assert list(rec.active_edges) == sorted(rec.active_edges)
            assert list(rec.pool_edges) == sorted(rec.pool_edges)
            assert type(rec.train_neg_pll) is float

    def test_exchange_moves_exactly_k_edges(self, rng):
        ds = random_dataset(rng, 5, 60)
        cfg = PruningConfig(extra_edges=2, exchange_size=2, max_iter=5, seed=1,
                            apt_clusters=8)
        result = forced_pruning(ds, cfg)
        *exchanges, last = result.iterations
        prev_active = None
        for rec in exchanges:
            assert len(rec.deleted) == 2 and len(rec.added) == 2
            assert not set(rec.deleted) & set(rec.added)
            if prev_active is not None:
                assert set(rec.deleted) <= prev_active
                assert not set(rec.added) & prev_active
                assert set(rec.active_edges) == (prev_active - set(rec.deleted)) | set(rec.added)
            prev_active = set(rec.active_edges)
        # the last iteration only fits: no exchange, structure kept
        assert last.deleted == () and last.added == ()
        assert set(last.active_edges) == prev_active
        assert last.proposals == 0 and not last.fell_back

    def test_k_zero_never_changes_structure(self, rng):
        ds = random_dataset(rng, 5, 50)
        cfg = PruningConfig(extra_edges=2, exchange_size=0, max_iter=4, seed=7)
        result = forced_pruning(ds, cfg)
        structures = {rec.active_edges for rec in result.iterations}
        assert len(structures) == 1
        assert all(rec.deleted == () and rec.added == () for rec in result.iterations)
        assert set(result.model.edges) == set(result.iterations[0].active_edges)

    def test_k_zero_equals_direct_apt_fit(self, rng):
        ds = random_dataset(rng, 4, 50)
        cfg = PruningConfig(extra_edges=1, exchange_size=0, max_iter=1, seed=3,
                            apt_clusters=4)
        result = forced_pruning(ds, cfg)
        direct, _ = learn_params_with_apt(
            PairwiseModel.zeros(4, result.model.edges), ds, 4, cfg.fit)
        np.testing.assert_allclose(
            result.model.weight_vector(), direct.weight_vector(), atol=1e-9)

    def test_returns_best_iteration_by_train_pll(self, rng):
        ds = random_dataset(rng, 5, 70)
        cfg = PruningConfig(extra_edges=2, exchange_size=1, max_iter=6, seed=2)
        result = forced_pruning(ds, cfg)
        negs = [rec.train_neg_pll for rec in result.iterations]
        assert result.best_iteration == int(np.argmin(negs)) + 1
        assert -pll(result.model, ds) == pytest.approx(min(negs), abs=1e-12)

    def test_greedy_run_is_deterministic(self, rng):
        ds = random_dataset(rng, 5, 60)
        cfg = PruningConfig(extra_edges=2, exchange_size=2, max_iter=4, seed=11)
        a = forced_pruning(ds, cfg)
        b = forced_pruning(ds, cfg)
        for ra, rb in zip(a.iterations, b.iterations):
            assert ra._replace(seconds=0.0) == rb._replace(seconds=0.0)
        np.testing.assert_array_equal(a.model.weight_vector(), b.model.weight_vector())

    def test_rejection_run_is_deterministic_and_valid(self, rng):
        ds = random_dataset(rng, 4, 40)
        cfg = PruningConfig(extra_edges=1, exchange_size=1, heuristic="rejection",
                            max_iter=3, seed=13, rejection_cap=100000)
        a = forced_pruning(ds, cfg)
        b = forced_pruning(ds, cfg)
        for ra, rb in zip(a.iterations, b.iterations):
            assert ra._replace(seconds=0.0) == rb._replace(seconds=0.0)
        M = 4 - 1 + 1
        assert all(len(r.active_edges) == M for r in a.iterations)

    def test_apt_clusters_clamped_to_param_count(self, rng):
        # 3 variables, tree only: 5 parameters but 16 requested clusters
        ds = random_dataset(rng, 3, 30)
        result = forced_pruning(ds, PruningConfig(exchange_size=0, max_iter=1))
        assert result.partition.n_clusters <= result.model.n_params

    def test_validates_budget_against_complete_graph(self, rng):
        ds = random_dataset(rng, 3, 10)
        with pytest.raises(ValueError, match="budget"):
            forced_pruning(ds, PruningConfig(extra_edges=10, exchange_size=0))

    def test_validates_exchange_against_pool(self, rng):
        ds = random_dataset(rng, 3, 10)
        # V=3: complete graph has 3 edges, tree 2, pool 1 -> k=2 impossible
        with pytest.raises(ValueError, match="exchange_size"):
            forced_pruning(ds, PruningConfig(extra_edges=0, exchange_size=2, max_iter=1))


@st.composite
def pruning_cases(draw):
    """4-8 variables over 30-300 rows, each variable copying an earlier one
    on a random share of the rows, and a config with any budget and
    exchange size the graph allows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, n = draw(st.integers(4, 8)), draw(st.integers(30, 300))
    X = rng.random((n, V)) < rng.uniform(0.2, 0.8, V)
    for j in range(1, V):
        copied = rng.random(n) < rng.uniform(0.0, 0.8)
        X[copied, j] = X[copied, rng.integers(j)]
    n_edges = V * (V - 1) // 2
    m = draw(st.integers(0, n_edges - (V - 1)))
    M = V - 1 + m
    config = PruningConfig(
        extra_edges=m,
        exchange_size=draw(st.integers(0, min(M, n_edges - M, 4))),
        heuristic=draw(st.sampled_from(["greedy", "rejection"])),
        max_iter=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
        apt_clusters=draw(st.sampled_from([2, 4, 16])),
        rejection_cap=draw(st.sampled_from([1, 30, 300])),
    )
    return make_dataset(X.astype(int).tolist()), config


class TestAgainstReference:
    """The loop against ``reference_forced_pruning``: every record, the best
    iteration and the neg PLLs, up to the first exchange that rests on a
    near tie of the reference's scores."""

    @settings(max_examples=100, deadline=None)
    @given(pruning_cases())
    def test_matches_the_slow_loop(self, case):
        ds, config = case
        ref = reference_forced_pruning(ds, config)
        result = forced_pruning(ds, config)
        if ref.tie is not None:
            event("stopped at a near tie")
        for got, neg in zip(result.iterations, ref.negs):
            assert got.train_neg_pll == pytest.approx(neg, rel=1e-12, abs=0.0)
        for got, want in zip(result.iterations, ref.records):
            assert got._replace(train_neg_pll=0.0, seconds=0.0) == want._replace(train_neg_pll=0.0)
        assert len(ref.records) == (config.max_iter if ref.tie is None else ref.tie - 1)
        if ref.tie is None:
            assert result.best_iteration in ref.best
            assert -pll(result.model, ds) == pytest.approx(
                ref.negs[result.best_iteration - 1], rel=1e-12, abs=0.0)


@pytest.fixture
def builds(monkeypatch):
    """Weak references to every BlanketTables built while the test runs."""
    made = []
    init = BlanketTables.__init__

    def counting(self, ds, edges):
        init(self, ds, edges)
        made.append(weakref.ref(self))

    monkeypatch.setattr(BlanketTables, "__init__", counting)
    return made


class TestSharedTables:
    """Every step of an iteration asks for the tables of (dataset, edge set);
    the loop holds them, so each iteration builds them once."""

    @pytest.mark.parametrize("heuristic, cap", [
        ("greedy", 10000), ("rejection", 10000), ("rejection", 1)])
    def test_one_build_per_iteration(self, rng, builds, heuristic, cap):
        ds = random_dataset(rng, 6, 80)
        cfg = PruningConfig(extra_edges=3, exchange_size=2, heuristic=heuristic,
                            max_iter=5, seed=3, rejection_cap=cap)
        result = forced_pruning(ds, cfg)
        assert len(builds) == cfg.max_iter
        if heuristic == "rejection":
            assert sum(r.proposals for r in result.iterations) > 0
            assert any(r.fell_back for r in result.iterations) == (cap == 1)

    def test_apt_fit_builds_once(self, rng, builds):
        ds = random_dataset(rng, 5, 60)
        learn_params_with_apt(random_model(rng, 5, 6), ds, 4)
        assert len(builds) == 1

    def test_last_tables_die_with_the_run(self, rng, builds):
        ds = random_dataset(rng, 5, 60)
        gc.disable()
        try:
            forced_pruning(ds, PruningConfig(extra_edges=2, exchange_size=2, max_iter=3))
            assert len(builds) == 3 and all(ref() is None for ref in builds)
        finally:
            gc.enable()

    def test_no_chain_of_tables_stays_alive(self, rng, builds, monkeypatch):
        # carried tables hold array blocks only, never their predecessor
        alive = []
        fit = structure.learn_params_with_apt

        def probing(*args):
            alive.append([ref() is not None for ref in builds])
            return fit(*args)

        monkeypatch.setattr(structure, "learn_params_with_apt", probing)
        ds = random_dataset(rng, 6, 80)
        gc.disable()
        try:
            forced_pruning(ds, PruningConfig(extra_edges=2, exchange_size=2, max_iter=4))
        finally:
            gc.enable()
        assert len(alive[2]) == 3 and alive[2][2] and not alive[2][0]

    def test_dataset_pickles_without_its_tables(self, rng):
        ds = random_dataset(rng, 5, 60)
        cfg = PruningConfig(extra_edges=2, exchange_size=2, max_iter=3)
        result = forced_pruning(ds, cfg)
        clone = pickle.loads(pickle.dumps(ds))
        assert sorted(clone._cache) == ["chow_liu_tree", "compressed"]
        held = tables_for(result.model, ds)  # a live slot is left out too
        assert "tables" in ds._cache and "tables" not in pickle.loads(pickle.dumps(ds))._cache
        again = forced_pruning(clone, cfg)
        assert again.model.weight_vector().tobytes() == result.model.weight_vector().tobytes()
        assert held.edges == result.model.edges


@pytest.fixture
def groupings(monkeypatch, builds):
    """(index of the build, variable) of every per-variable grouping."""
    made = []
    group = blanket._group

    def counting(columns, key):
        made.append((len(builds), key[0]))
        return group(columns, key)

    monkeypatch.setattr(blanket, "_group", counting)
    return made


def _neighbours(edges, v):
    return {u for e in edges if v in e for u in e if u != v}


class TestCarriedBlankets:
    """Tables built while the last ones are held regroup only the variables
    whose Markov blanket changed."""

    @pytest.mark.parametrize("heuristic", ["greedy", "rejection"])
    def test_only_changed_blankets_are_regrouped(self, rng, builds, groupings, heuristic):
        ds = random_dataset(rng, 8, 120)
        cfg = PruningConfig(extra_edges=3, exchange_size=2, heuristic=heuristic,
                            max_iter=6, seed=1)
        result = forced_pruning(ds, cfg)
        assert len(builds) == cfg.max_iter
        regrouped = [sorted(v for b, v in groupings if b == i) for i in range(cfg.max_iter)]
        assert regrouped[0] == list(range(8))
        for rec, got in zip(result.iterations, regrouped[1:]):
            after = rec.active_edges
            before = sorted(set(after) - set(rec.added) | set(rec.deleted))
            changed = {v for e in rec.deleted + rec.added for v in e
                       if _neighbours(before, v) != _neighbours(after, v)}
            assert got == sorted(changed) and 0 < len(got) < 8

    def test_same_edges_regroup_nothing(self, rng, groupings):
        ds = random_dataset(rng, 7, 90)
        model = random_model(rng, 7, 9)
        held = tables_for(model, ds)
        assert len(groupings) == 7
        assert tables_for(model, ds) is held
        BlanketTables(ds, model.edges)  # every blanket carries over from the held tables
        assert len(groupings) == 7


class TestPruningConfig:
    def test_rejects_unknown_heuristic(self):
        with pytest.raises(ValueError):
            PruningConfig(heuristic="simulated-annealing")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            PruningConfig(extra_edges=-1)
        with pytest.raises(ValueError):
            PruningConfig(exchange_size=-1)
        with pytest.raises(ValueError):
            PruningConfig(max_iter=0)
        with pytest.raises(ValueError):
            PruningConfig(rejection_cap=0)

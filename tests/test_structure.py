"""Edge scoring, deletion heuristics, greedy addition, and the full loop, also
against the slow reference loop of conftest."""

import copy
import gc
import pickle
import re
import weakref
from dataclasses import replace

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
    blanket_keys,
    make_dataset,
    planted_model,
    planted_score,
    random_dataset,
    random_model,
    reference_forced_pruning,
    reference_subset_bound,
    sample_dataset,
)


def first_draw_rejected(model, ds, k, rng):
    """Whether the sampler's first proposal from a copy of ``rng`` is
    rejected, u > exp(pll_S - B), by the row-based references: the premise
    of every test that expects a fallback at cap 1."""
    rng = copy.deepcopy(rng)
    order = sorted(range(len(model.edges)), key=model.edges.__getitem__)
    subset = [model.edges[j] for j in structure._draw_subset(order, k, rng)]
    return rng.random() > np.exp(pll_without_edges(model, ds, subset)
                                 - reference_subset_bound(model, ds, k))


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
        # the one proposal at this seed is rejected, so the fallback must
        # match the greedy choice
        model = random_model(np.random.default_rng(3), 10, 12, edge_scale=1.5)
        ds = random_dataset(np.random.default_rng(4), 10, 60)
        assert first_draw_rejected(model, ds, 3, np.random.default_rng(1))
        out = rejection_sample_delete(model, ds, 3, np.random.default_rng(1), cap=1)
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
        for bad in ((0, 9), (-1, 2), (0, 2**70), (2**63, 1), (-2**70, 1)):
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
        # a uint64 endpoint past int64 is named as given, not wrapped
        for bad in ([[2**63, 1]], [[2, 3], [0, 2**64 - 1]]):
            bad = np.array(bad, dtype=np.uint64)
            message = f"candidate {tuple(bad[-1].tolist())} is out of range for 4 variables"
            with pytest.raises(ValueError, match=re.escape(message)):
                greedy_add(model, ds, bad, 1)
        ends = np.array(pairs)
        assert structure._endpoints(ends)[0] is ends  # read in place, not copied

    def test_rejects_k_too_large(self, rng):
        model = random_model(rng, 3, 1)
        with pytest.raises(ValueError):
            greedy_add(model, random_dataset(rng, 3, 10), [Edge(0, 2)], 2)

    def test_k_zero_is_empty(self, rng):
        model = random_model(rng, 3, 1)
        assert greedy_add(model, random_dataset(rng, 3, 10), [Edge(0, 2)], 0) == []


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

    def test_records_share_the_edges_that_stay_in_the_pool(self, rng):
        ds = random_dataset(rng, 7, 80)
        cfg = PruningConfig(extra_edges=4, exchange_size=3, max_iter=3, seed=2)
        first, second, _ = forced_pruning(ds, cfg).iterations
        kept = set(first.pool_edges) & set(second.pool_edges)
        assert len(kept) == len(first.pool_edges) - 3
        shared = {id(e) for e in first.pool_edges} & {id(e) for e in second.pool_edges}
        assert len(shared) == len(kept)

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

    def test_validates_exchange_against_budget(self, rng):
        ds = random_dataset(rng, 5, 10)
        # V=5: the tree is the whole budget of 4 edges, 6 stay inactive
        with pytest.raises(ValueError, match="^exchange_size 5 exceeds the edge budget 4$"):
            forced_pruning(ds, PruningConfig(extra_edges=0, exchange_size=5, max_iter=1))


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


class TestPlantedRecovery:
    """Data sampled exactly from a planted model, learned at its own edge
    budget under a small penalty, gives back its edges and nearly its fit."""

    def test_recovers_the_planted_edges(self):
        # 8 variables, a tree plus 3 edges, 3000 train and 3000 test rows,
        # k=2, 10 iterations. Measured over seeds 0-19: at least 9 of 10
        # edges and a gap of at most 0.082 nats; at the default l2 = 0.1,
        # 7-10 edges and a gap of 0.435-0.618 on every seed. So recall >=
        # 0.8 leaves one edge of margin, and gap <= 0.15 leaves 0.068 nats
        # above the worst seed and 0.285 below the default penalty's best.
        cfg = PruningConfig(extra_edges=3, exchange_size=2, max_iter=10,
                            fit=FitOptions(l2_strength=1e-4))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            planted = planted_model(rng, 8, 3)
            train, test = sample_dataset(planted, 3000, rng), sample_dataset(planted, 3000, rng)
            score = planted_score(forced_pruning(train, cfg), planted, test)
            assert score.precision == score.recall  # the true budget: 10 edges each
            assert score.recall >= 0.8 and score.gap <= 0.15, (seed, score)


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
    def test_one_build_per_iteration(self, rng, builds, monkeypatch, heuristic, cap):
        ds = random_dataset(rng, 6, 80)
        cfg = PruningConfig(extra_edges=3, exchange_size=2, heuristic=heuristic,
                            max_iter=5, seed=0, rejection_cap=cap)
        first_rejected, sample = [], structure.rejection_sample_delete

        def recording(model, ds, k, rng, cap):
            first_rejected.append(first_draw_rejected(model, ds, k, rng))
            return sample(model, ds, k, rng, cap)

        monkeypatch.setattr(structure, "rejection_sample_delete", recording)
        result = forced_pruning(ds, cfg)
        assert len(builds) == cfg.max_iter
        if heuristic == "rejection":
            assert sum(r.proposals for r in result.iterations) > 0
            fell_back = [r.fell_back for r in result.iterations[:-1]]
            if cap == 1:
                # the premise: some first proposal is rejected, and exactly those fall back
                assert any(first_rejected)
                assert fell_back == first_rejected
            else:
                assert not any(fell_back)

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
        # tables hold blocks of arrays only, never their predecessor
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

    def test_the_slot_keeps_no_dataset_alive(self, rng):
        ds = random_dataset(rng, 5, 60)
        forced_pruning(ds, PruningConfig(extra_edges=2, exchange_size=2, max_iter=3))
        assert ds in blanket._last_tables and ds in blanket._store
        gone = weakref.ref(ds)
        del ds
        gc.collect()
        assert gone() is None

    def test_dataset_pickles_without_its_tables(self, rng):
        ds = random_dataset(rng, 5, 60)
        cfg = PruningConfig(extra_edges=2, exchange_size=2, max_iter=3)
        result = forced_pruning(ds, cfg)
        clone = pickle.loads(pickle.dumps(ds))
        assert sorted(clone._cache) == ["chow_liu_tree", "columns", "compressed", "nonzero"]
        got, kept = [(c["columns"], *c["compressed"], *c["nonzero"])
                     for c in (clone._cache, ds._cache)]
        for a, b in zip(got, kept, strict=True):
            assert not a.flags.writeable
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # the live slot and the store are blanket's, keyed by the dataset:
        # neither a pickle nor a deep copy carries them
        held = tables_for(result.model, ds)
        assert blanket._last_tables[ds]() is held and blanket._store[ds]
        for copied in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
            assert copied not in blanket._last_tables and copied not in blanket._store
            assert sorted(copied._cache) == sorted(ds._cache)
            assert not any(a.flags.writeable for a in (copied.X, *copied.compressed()))
        again = forced_pruning(clone, cfg)
        assert again.model.weight_vector().tobytes() == result.model.weight_vector().tobytes()
        assert held.edges == result.model.edges

    def test_runs_share_the_datasets_columns_and_nonzero_pairs(self, rng):
        # both are built once per dataset by the first table build, whatever
        # the runs on it, and neither goes with the tables
        ds = random_dataset(rng, 6, 80)
        cfg = PruningConfig(extra_edges=2, exchange_size=2, max_iter=3)
        forced_pruning(ds, cfg)
        columns, nonzero = ds._cache["columns"], ds._cache["nonzero"]
        forced_pruning(ds, cfg)
        assert ds._cache["columns"] is columns and ds._cache["nonzero"] is nonzero
        rows, weights = ds.compressed()
        np.testing.assert_array_equal(columns, rows.T)
        r, u, w = nonzero
        assert (np.diff(r) >= 0).all()  # row-major: the rows never decrease
        assert (rows[r, u] == 1).all() and r.size == rows.sum()
        np.testing.assert_array_equal(w, weights[r])
        clone = pickle.loads(pickle.dumps(ds))
        for d in (ds, clone):
            assert not d._cache["columns"].flags.writeable
            assert not any(a.flags.writeable for a in d._cache["nonzero"])
        np.testing.assert_array_equal(clone._cache["columns"], columns)


@pytest.fixture
def groupings(monkeypatch, builds):
    """(index of the build, variable) of every per-variable grouping."""
    made = []
    group = blanket.group_rows

    def counting(columns, key, weights):
        made.append((len(builds), key[0]))
        return group(columns, key, weights)

    monkeypatch.setattr(blanket, "group_rows", counting)
    return made


def _result_bytes(result):
    """A pickle of ``result`` with its iterations' wall times zeroed."""
    return pickle.dumps(replace(result, iterations=tuple(
        rec._replace(seconds=0.0) for rec in result.iterations)))


class TestStoredBlankets:
    """A build regroups a variable only when its Markov blanket is not among
    the last 2 * V blankets used on the dataset."""

    @pytest.mark.parametrize("heuristic", ["greedy", "rejection"])
    def test_only_blankets_not_used_lately_are_regrouped(self, rng, builds, groupings, heuristic):
        ds = random_dataset(rng, 8, 120)
        cfg = PruningConfig(extra_edges=3, exchange_size=2, heuristic=heuristic,
                            max_iter=6, seed=1)
        result = forced_pruning(ds, cfg)
        assert len(builds) == cfg.max_iter
        first = result.iterations[0]
        built = [sorted(set(first.active_edges) - set(first.added) | set(first.deleted))]
        built += [rec.active_edges for rec in result.iterations[:cfg.max_iter - 1]]
        recent = []  # the blankets used last, least recently first
        for i, edges in enumerate(built):
            keys = blanket_keys(8, edges)
            got = sorted(v for b, v in groupings if b == i)
            assert got == [v for v, key in enumerate(keys) if key not in recent]
            recent = ([key for key in recent if key not in keys] + keys)[-2 * 8:]

    @pytest.mark.parametrize("heuristic", ["greedy", "rejection"])
    def test_a_repeated_run_regroups_and_counts_nothing(self, rng, groupings, heuristic):
        # a two-iteration run builds two structures, both kept in the store,
        # so the same run again makes no grouping and no ones rows
        ds = random_dataset(rng, 12, 200)
        cfg = PruningConfig(extra_edges=0, exchange_size=3, heuristic=heuristic, max_iter=2, seed=3)
        first = forced_pruning(ds, cfg)
        assert len(groupings) > 0
        store = blanket._store[ds]
        blocks = {key: (b, b.ones) for key, b in store.items()}
        groupings.clear()
        again = forced_pruning(ds, cfg)
        assert groupings == []
        assert all(b is blocks[key][0] and b.ones is blocks[key][1] for key, b in store.items())
        assert list(store) == list(blocks)
        clone = pickle.loads(pickle.dumps(ds))
        assert clone not in blanket._store
        fresh = forced_pruning(clone, cfg)
        assert _result_bytes(again) == _result_bytes(first) == _result_bytes(fresh)

    def test_same_edges_regroup_nothing(self, rng, groupings):
        ds = random_dataset(rng, 7, 90)
        model = random_model(rng, 7, 9)
        held = tables_for(model, ds)
        assert len(groupings) == 7
        assert tables_for(model, ds) is held
        BlanketTables(ds, model.edges)  # every blanket is in the store
        del held
        BlanketTables(ds, model.edges)  # held or not
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
        with pytest.raises(ValueError, match="apt_clusters must be >= 1"):
            PruningConfig(apt_clusters=0)

"""Model construction, conditional logits, PLL, gradient, and edge-drop deltas."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forced_pruning import (
    DataSet,
    Edge,
    PairwiseModel,
    canonical_edge,
    complete_edges,
    edge_deletion_scores,
    logits,
    pll,
    pll_gradient,
    pll_without_edges,
)
from forced_pruning.model import _sigmoid
from scipy.special import expit

from conftest import (
    conditional_prob_reference, fd_gradient, make_dataset, random_dataset, random_model)

SIGMOID_2 = 0.8807970779778823  # sigma(2)
SIGMOID_1 = 0.7310585786300049  # sigma(1)


class TestEdge:
    def test_canonical_edge_orders_endpoints(self):
        assert canonical_edge(3, 1) == Edge(1, 3)
        assert canonical_edge(1, 3) == Edge(1, 3)

    def test_canonical_edge_rejects_loop(self):
        with pytest.raises(ValueError):
            canonical_edge(2, 2)

    def test_complete_edges_count_and_order(self):
        edges = complete_edges(4)
        assert len(edges) == 6
        assert edges == sorted(edges)
        assert edges[0] == Edge(0, 1) and edges[-1] == Edge(2, 3)


class TestPairwiseModel:
    def test_zeros_has_all_zero_weights(self):
        m = PairwiseModel.zeros(3, [Edge(0, 2)])
        assert m.n_params == 4
        assert not m.weight_vector().any()

    def test_rejects_non_canonical_edge(self):
        with pytest.raises(ValueError):
            PairwiseModel(3, np.zeros(3), (Edge(2, 0),), np.zeros(1))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairwiseModel(3, np.zeros(3), (Edge(0, 1), Edge(0, 1)), np.zeros(2))

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError):
            PairwiseModel(2, np.array([0.0, np.inf]), (), np.zeros(0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PairwiseModel(2, np.zeros(2), (Edge(0, 1),), np.zeros(2))
        with pytest.raises(ValueError, match=re.escape("node_weights must have shape (2,), got (3,)")):
            PairwiseModel(2, np.zeros(3), (Edge(0, 1),), np.zeros(1))
        with pytest.raises(ValueError, match="expected 3 weights"):
            PairwiseModel.zeros(2, [Edge(0, 1)]).with_weights(np.zeros(2))

    def test_rejects_no_variables(self):
        with pytest.raises(ValueError, match="n_vars must be positive"):
            PairwiseModel(0, np.zeros(0), (), np.zeros(0))

    def test_with_weights_round_trip(self, rng):
        m = random_model(rng, 4, 3)
        vec = rng.normal(size=m.n_params)
        np.testing.assert_array_equal(m.with_weights(vec).weight_vector(), vec)

    def test_edge_weight_lookup(self):
        m = PairwiseModel(3, np.zeros(3), [(1, 2), (0, 1)], np.array([0.5, -1.5]))
        assert dict(zip(m.edges, m.edge_weights.tolist())) == {Edge(1, 2): 0.5, Edge(0, 1): -1.5}
        assert all(type(e) is Edge for e in m.edges)
        assert m.weight_matrix()[2, 1] == 0.5

    def test_weight_matrix_symmetric(self, rng):
        m = random_model(rng, 5, 4)
        W = m.weight_matrix()
        np.testing.assert_array_equal(W, W.T)
        assert not W.diagonal().any()


class TestConditionals:
    def test_isolated_node_uses_its_weight_only(self):
        m = PairwiseModel(2, np.array([2.0, 0.0]), (), np.zeros(0))
        p = expit(logits(m, np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(p, [[SIGMOID_2, 0.5], [SIGMOID_2, 0.5]], rtol=1e-15)

    def test_edge_contributes_when_neighbor_is_one(self):
        m = PairwiseModel(2, np.zeros(2), (Edge(0, 1),), np.array([1.0]))
        p = expit(logits(m, np.array([[0.0, 1.0], [0.0, 0.0]])))
        np.testing.assert_allclose(p, [[SIGMOID_1, 0.5], [0.5, 0.5]], rtol=1e-15)

    def test_logits_matrix_matches_scalar_conditionals(self, rng):
        m = random_model(rng, 4, 4)
        ds = random_dataset(rng, 4, 12)
        A = logits(m, ds.X)
        for n in range(ds.n_instances):
            for i in range(4):
                assert expit(A[n, i]) == pytest.approx(
                    conditional_prob_reference(m, ds.X[n], i), abs=1e-12)


class TestSigmoid:
    def test_matches_scipy_without_overflow(self):
        # every warning is an error, so an overflow in exp would fail here
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-np.inf, np.inf, 0.0, -0.0]])
        np.testing.assert_allclose(_sigmoid(x), expit(x), rtol=1e-15, atol=np.finfo(float).tiny)
        assert _sigmoid(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


class TestPll:
    def test_all_zero_model_gives_uniform_pll(self, rng):
        for n_vars in (2, 5, 9):
            ds = random_dataset(rng, n_vars, 31)
            assert -pll(PairwiseModel.zeros(n_vars), ds) == pytest.approx(
                n_vars * math.log(2), abs=1e-12)

    def test_pll_by_hand_two_variables(self):
        # rows 11 and 00; theta_0 = 1, edge weight 1, theta_1 = 0
        ds = make_dataset(["11", "00"])
        m = PairwiseModel(2, np.array([1.0, 0.0]), (Edge(0, 1),), np.array([1.0]))
        # row 11: log sigma(2) + log sigma(1); row 00: log sigma(-1) + log sigma(0)
        expected = (
            math.log(SIGMOID_2) + math.log(SIGMOID_1)
            + math.log(1 - SIGMOID_1) + math.log(0.5)
        ) / 2
        assert pll(m, ds) == pytest.approx(expected, abs=1e-12)

    def test_pll_invariant_to_instance_order(self, rng):
        ds = random_dataset(rng, 5, 50)
        m = random_model(rng, 5, 6)
        perm = rng.permutation(ds.n_instances)
        assert pll(m, DataSet(ds.X[perm])) == pll(m, ds)

    def test_pll_never_positive(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            m = random_model(r, 4, 3, edge_scale=2.0)
            ds = random_dataset(r, 4, 20)
            assert pll(m, ds) <= 0.0


class TestGradient:
    def test_matches_finite_differences(self, rng):
        m = random_model(rng, 5, 5)
        ds = random_dataset(rng, 5, 40)
        g = pll_gradient(m, ds)
        g_fd = fd_gradient(m, ds)
        assert np.abs(g - g_fd).max() / np.abs(g_fd).max() < 1e-7

    def test_zero_at_exact_stationary_point(self):
        # independent fair coins: all-zero weights are the MPLE optimum
        ds = make_dataset(["00", "01", "10", "11"])
        g = pll_gradient(PairwiseModel.zeros(2, [Edge(0, 1)]), ds)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_finite_differences_fuzz(self, seed):
        r = np.random.default_rng(seed)
        n_vars = int(r.integers(3, 6))
        m = random_model(r, n_vars)
        ds = random_dataset(r, n_vars, int(r.integers(10, 50)))
        g = pll_gradient(m, ds)
        g_fd = fd_gradient(m, ds)
        assert np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-3) < 1e-6


class TestEdgeDrop:
    def test_without_edges_matches_rebuilt_model(self, rng):
        m = random_model(rng, 5, 6)
        ds = random_dataset(rng, 5, 30)
        drop = list(m.edges[:2])
        assert pll_without_edges(m, ds, drop) == pytest.approx(
            pll(rebuilt_without(m, drop), ds), abs=1e-12)

    def test_without_no_edges_is_identity(self, rng):
        m = random_model(rng, 4, 3)
        ds = random_dataset(rng, 4, 25)
        assert pll_without_edges(m, ds, []) == pytest.approx(pll(m, ds), abs=1e-15)

    def test_repeated_edge_is_zeroed_once(self, rng):
        m = random_model(rng, 5, 6)
        ds = random_dataset(rng, 5, 30)
        e, f = m.edges[:2]
        assert pll_without_edges(m, ds, [e, e]) == pll_without_edges(m, ds, [e])
        assert pll_without_edges(m, ds, iter([f, e, f])) == pll_without_edges(m, ds, [e, f])

    def test_delta_matches_full_recompute(self, rng):
        # the deletion delta pll - pll_without_edges, against a model rebuilt
        # without the edge and against the tables' deletion scores
        m = random_model(rng, 6, 8)
        ds = random_dataset(rng, 6, 40)
        scores = dict(edge_deletion_scores(m, ds))
        for e in m.edges:
            delta = pll(m, ds) - pll_without_edges(m, ds, [e])
            assert delta == pytest.approx(pll(m, ds) - pll(rebuilt_without(m, [e]), ds), abs=1e-12)
            assert scores[e] == pytest.approx(delta, abs=1e-12)

    def test_delta_of_zero_weight_edge_is_zero(self, rng):
        ds = random_dataset(rng, 3, 20)
        m = PairwiseModel(3, rng.normal(size=3), (Edge(0, 1),), np.array([0.0]))
        assert pll(m, ds) - pll_without_edges(m, ds, [Edge(0, 1)]) == 0.0
        assert dict(edge_deletion_scores(m, ds))[Edge(0, 1)] == 0.0

    def test_delta_rejects_inactive_edge(self, rng):
        ds = random_dataset(rng, 3, 10)
        m = PairwiseModel.zeros(3, [Edge(0, 1)])
        for drop in ([Edge(0, 2)], [Edge(0, 1), (0, 2)], [(1, 0)]):
            with pytest.raises(ValueError, match="not active"):
                pll_without_edges(m, ds, drop)


def rebuilt_without(model, drop):
    """The model with the edges of ``drop`` removed from its structure."""
    kept = [(e, w) for e, w in zip(model.edges, model.edge_weights) if e not in drop]
    return PairwiseModel(model.n_vars, model.node_weights,
                         tuple(e for e, _ in kept), np.array([w for _, w in kept]))

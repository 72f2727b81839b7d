"""Mutual information and maximum-spanning-tree initialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forced_pruning import (
    DataSet,
    Edge,
    chow_liu_tree,
    complete_edges,
    mutual_information,
    mutual_information_matrix,
    weighted_edges,
)

from conftest import make_dataset, mi_from_counts, pair_table, random_dataset

# MI of the 4-instance dataset {00, 00, 01, 11} over (x0, x1):
# 0.5 ln(4/3) + 0.25 ln(2/3) + 0.25 ln 2
MI_HAND = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * math.log(2)


def spanning_trees(n_vars):
    """All spanning trees of the complete graph, as edge tuples."""
    pool = complete_edges(n_vars)
    for combo in itertools.combinations(pool, n_vars - 1):
        parent = list(range(n_vars))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for lo, hi in combo:
            ra, rb = find(lo), find(hi)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            yield combo


class TestMutualInformation:
    def test_identical_variables(self):
        ds = make_dataset(["00", "11", "00", "11"])
        assert mutual_information(ds, 0, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_independent_variables(self):
        ds = make_dataset(["00", "01", "10", "11"])
        assert mutual_information(ds, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        ds = make_dataset(["00", "00", "01", "11"])
        assert mutual_information(ds, 0, 1) == pytest.approx(MI_HAND, abs=1e-12)

    def test_constant_variable_with_zero_cells(self):
        # x0 always 0: zero cells must contribute nothing, MI = 0
        ds = make_dataset(["00", "01", "00", "01"])
        assert mutual_information(ds, 0, 1) == 0.0

    def test_symmetric(self, rng):
        ds = random_dataset(rng, 4, 60)
        assert mutual_information(ds, 1, 3) == pytest.approx(
            mutual_information(ds, 3, 1), abs=1e-15)

    def test_never_negative(self, rng):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), 3, 25)
            assert mutual_information(ds, 0, 2) >= 0.0

    def test_matrix_matches_pairwise_calls(self, rng):
        ds = random_dataset(rng, 5, 40)
        M = mutual_information_matrix(ds)
        assert M.shape == (5, 5)
        np.testing.assert_array_equal(M, M.T)
        assert not M.diagonal().any()
        for i, j in complete_edges(5):
            ref = mi_from_counts(*pair_table(ds.X, i, j))
            assert M[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-14)
            assert mutual_information(ds, i, j) == mutual_information(ds, j, i) == M[i, j]


    # The fast path takes the log of each cell ratio with numpy, the reference
    # with math.log; both ratios are exact, so the two differ by rounding only.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 12), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_matrix_matches_integer_reference(self, n_vars, n_patterns, n_rows, seed):
        rng = np.random.default_rng(seed)
        patterns = rng.random((n_patterns, n_vars)) < rng.random(n_vars)
        X = patterns[rng.integers(n_patterns, size=n_rows)].astype(int)
        M = mutual_information_matrix(DataSet(X.astype(np.float64)))
        for i, j in complete_edges(n_vars):
            ref = mi_from_counts(*pair_table(X, i, j))
            assert M[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-14)
            assert M[j, i] == M[i, j]


class TestChowLiuTree:
    def test_returns_spanning_tree(self, rng):
        ds = random_dataset(rng, 6, 50)
        tree = chow_liu_tree(ds)
        assert len(tree) == 5
        assert tree == sorted(tree)
        assert tuple(tree) in set(spanning_trees(6))

    def test_picks_strong_pair_over_weak(self):
        # x0 == x1 always; x2 is noise tied to neither
        ds = make_dataset(["000", "001", "110", "111", "000", "111"])
        tree = chow_liu_tree(ds)
        assert Edge(0, 1) in tree

    def test_matches_exhaustive_enumeration(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_vars = 5 if seed % 2 == 0 else 6
            ds = random_dataset(rng, n_vars, 40)
            M = mutual_information_matrix(ds)

            def weight(tree):
                return sum(M[lo, hi] for lo, hi in tree)

            best = max(weight(t) for t in spanning_trees(n_vars))
            got = chow_liu_tree(ds)
            assert weight(got) == pytest.approx(best, abs=1e-12)

    def test_deterministic_tie_break(self):
        # all variables identical: every pair has equal MI; lexicographically
        # first tree must win
        ds = make_dataset(["0000", "1111", "0000", "1111"])
        tree = chow_liu_tree(ds)
        assert tree == [Edge(0, 1), Edge(0, 2), Edge(0, 3)]


class TestWeightedEdges:
    def test_sorted_by_descending_weight(self, rng):
        ds = random_dataset(rng, 5, 30)
        ranked = weighted_edges(ds)
        assert len(ranked) == 10
        weights = [w for _, w in ranked]
        assert weights == sorted(weights, reverse=True)

    def test_equal_weights_sorted_by_edge(self):
        ds = make_dataset(["000", "111"])
        ranked = weighted_edges(ds)
        assert [e for e, _ in ranked] == complete_edges(3)

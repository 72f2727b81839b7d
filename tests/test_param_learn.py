"""The L-BFGS minimizer, fitting, quantization, and tied refitting."""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forced_pruning import (
    Edge,
    FitError,
    FitOptions,
    PairwiseModel,
    TyingPartition,
    learn_params_with_apt,
    mple_fit,
    pll,
    pll_gradient,
    quantize_params,
    tied_fit,
    tying_objective,
)
from forced_pruning import param_learn
from forced_pruning.blanket import BlanketTables
from forced_pruning.param_learn import minimize

from conftest import make_dataset, quantize_reference, random_dataset, random_model

TIGHT = FitOptions(gradient_tolerance=1e-8)
LN3 = math.log(3.0)


def exhaustive_best_sse(values, c):
    """Minimal sum of squared distances over contiguous sorted partitions."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size

    def sse(seg):
        return float(((seg - seg.mean()) ** 2).sum()) if seg.size else 0.0

    best = math.inf
    for cuts in itertools.combinations(range(1, n), c - 1):
        bounds = [0, *cuts, n]
        best = min(best, sum(sse(x[a:b]) for a, b in zip(bounds, bounds[1:])))
    return best


def independent_pair_dataset():
    """x0 with marginal 3/4, x1 fair, exactly independent in-sample."""
    return make_dataset(["11"] * 3 + ["10"] * 3 + ["01", "00"])


class TestFitOptions:
    def test_defaults(self):
        opts = FitOptions()
        assert opts.l2_strength == 0.1
        assert opts.max_optimizer_steps == 500
        assert opts.gradient_tolerance == 1e-5

    def test_rejects_negative_l2(self):
        with pytest.raises(ValueError):
            FitOptions(l2_strength=-0.1)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            FitOptions(gradient_tolerance=0.0)

    def test_rejects_no_optimizer_steps(self):
        with pytest.raises(ValueError, match="max_optimizer_steps must be >= 1"):
            FitOptions(max_optimizer_steps=0)


class TestTyingPartition:
    def test_expand(self):
        p = TyingPartition(np.array([0, 1, 0]), np.array([2.0, -1.0]), 2)
        np.testing.assert_array_equal(p.expand(), [2.0, -1.0, 2.0])

    def test_singletons(self):
        p = TyingPartition.singletons(np.array([3.0, 1.0]))
        assert p.n_clusters == 2
        np.testing.assert_array_equal(p.expand(), [3.0, 1.0])

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError, match="non-empty"):
            TyingPartition(np.array([0, 0]), np.array([1.0, 2.0]), 2)

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ValueError):
            TyingPartition(np.array([0, 2]), np.array([1.0, 2.0]), 2)

    def test_rejects_empty_assignment(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            TyingPartition(np.array([], dtype=np.int64), np.zeros(0), 0)

    def test_tying_objective_by_hand(self):
        p = TyingPartition(np.array([0, 0, 1]), np.array([1.0, 5.0]), 2)
        # params [0, 2, 5]: (0-1)^2 + (2-1)^2 + 0 = 2
        assert tying_objective(np.array([0.0, 2.0, 5.0]), p) == pytest.approx(2.0)


class TestQuantizeParams:
    def test_hand_case(self):
        p = quantize_params(np.array([0.0, 1.0, 4.0]), 2)
        np.testing.assert_array_equal(p.assignment, [0, 0, 1])
        np.testing.assert_allclose(p.means, [0.5, 4.0])
        assert tying_objective(np.array([0.0, 1.0, 4.0]), p) == pytest.approx(0.5)

    def test_single_cluster_is_global_mean(self, rng):
        x = rng.normal(size=7)
        p = quantize_params(x, 1)
        assert p.means[0] == pytest.approx(x.mean())
        assert set(p.assignment) == {0}

    def test_n_clusters_equals_n_params(self, rng):
        x = rng.normal(size=5)
        p = quantize_params(x, 5)
        assert tying_objective(x, p) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(np.sort(p.means), np.sort(x))

    def test_cluster_ids_in_sorted_mean_order(self, rng):
        x = rng.normal(size=12)
        p = quantize_params(x, 4)
        assert (np.diff(p.means) >= 0).all()
        # membership respects value order: max of cluster a <= min of cluster a+1
        for a in range(3):
            assert x[p.assignment == a].max() <= x[p.assignment == a + 1].min()

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            quantize_params(np.zeros(3), 0)
        with pytest.raises(ValueError):
            quantize_params(np.zeros(3), 4)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError, match="params must be non-empty"):
            quantize_params(np.zeros(0), 1)

    def test_ties_prefer_earliest_split(self):
        # both 2-splits of [0, 1, 2] cost 0.5; the earlier one wins
        p = quantize_params(np.array([0.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(p.assignment, [0, 1, 1])

    def test_matches_exhaustive_enumeration(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 11))
            x = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
            for c in range(1, n + 1):
                got = tying_objective(x, quantize_params(x, c))
                want = exhaustive_best_sse(x, c)
                assert got == pytest.approx(want, abs=1e-12), (seed, n, c)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.data())
    def test_optimal_on_arbitrary_floats(self, values, data):
        c = data.draw(st.integers(1, len(values)))
        x = np.array(values)
        got = tying_objective(x, quantize_params(x, c))
        assert got <= exhaustive_best_sse(x, c) + 1e-9

    # values from a few levels give ties in both the values and the split costs
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=40),
        st.lists(st.floats(-30, 30), min_size=1, max_size=40),
    ), st.data())
    def test_matches_scalar_dp_byte_for_byte(self, values, data):
        c = data.draw(st.integers(1, len(values)))
        p = quantize_params(np.array(values), c)
        assignment, means = quantize_reference(values, c)
        assert p.assignment.tobytes() == assignment.tobytes()
        assert p.means.tobytes() == means.tobytes()

    def test_matches_scalar_dp_on_fitted_sized_vectors(self, rng):
        # the plants-shaped Chow-Liu model has 137 weights and 16 clusters
        for n, c in ((137, 16), (200, 32), (60, 60), (60, 1)):
            x = np.round(rng.normal(size=n), 2)
            p = quantize_params(x, c)
            assignment, means = quantize_reference(x, c)
            assert p.assignment.tobytes() == assignment.tobytes()
            assert p.means.tobytes() == means.tobytes()


class TestMinimize:
    def test_reaches_the_optimum_of_a_convex_quadratic(self, rng):
        # the negation of a strictly concave quadratic, minimum at A^-1 b
        Q = rng.normal(size=(6, 6))
        A = Q @ Q.T + 0.1 * np.eye(6)
        b = rng.normal(size=6)
        res = minimize(lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b), np.zeros(6),
                       max_iter=500, gtol=1e-10, max_evals=50000)
        assert res.message == "converged" and np.abs(res.jac).max() < 1e-10
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-8, atol=1e-8)

    def test_nfev_counts_the_objective_calls(self, rng):
        calls = []

        def fun_grad(x):
            calls.append(None)
            return float(np.sum(np.cosh(x))), np.sinh(x)

        res = minimize(fun_grad, rng.normal(size=4), max_iter=100, gtol=1e-9, max_evals=10000)
        assert res.nfev == len(calls) > 1
        np.testing.assert_allclose(res.x, 0.0, atol=1e-9)

    def test_evaluation_limit_is_kept(self, rng):
        calls = []

        def fun_grad(x):
            calls.append(None)
            return float(x @ x), 2.0 * x

        res = minimize(fun_grad, np.full(3, 5.0), max_iter=100, gtol=1e-30, max_evals=3)
        assert res.nfev == len(calls) == 3
        assert res.message == "evaluation limit reached"

    def test_step_limit_logs_one_warning(self, rng, caplog):
        ds = random_dataset(rng, 4, 60)
        model = random_model(rng, 4, 3)
        partition = quantize_params(model.weight_vector(), 2)
        for fit, what in ((lambda opts: mple_fit(model, ds, opts), "MPLE fit"),
                          (lambda opts: tied_fit(model, ds, partition, opts), "tied fit")):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="forced_pruning.param_learn"):
                fit(FitOptions(max_optimizer_steps=1))
            assert [(r.name, r.levelno) for r in caplog.records] == [
                ("forced_pruning.param_learn", logging.WARNING)]
            assert f"{what} stopped" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("fun_grad, message", [
        (lambda x: (float(x @ x), np.full_like(x, np.nan)), "no descent direction"),
        # the negated gradient points up the linear function
        (lambda x: (float(x.sum()), -np.ones_like(x)), "line search found no step"),
    ], ids=["nan-gradient", "rising"])
    def test_stops_where_no_step_descends(self, fun_grad, message):
        res = minimize(fun_grad, np.ones(3), max_iter=100, gtol=1e-9, max_evals=1000)
        assert res.message == message
        np.testing.assert_array_equal(res.x, np.ones(3))

    @pytest.mark.parametrize("pll_and_gradient, message", [
        (lambda self, theta: (0.0, np.full_like(theta, np.nan)), "no descent direction"),
        # at the default l2 of 0.1 the objective is 0.1 * ||x||^2 and this
        # gradient is the negation of its own, so every step rises
        (lambda self, theta: (0.0, 0.4 * theta), "line search found no step"),
    ], ids=["nan-gradient", "rising"])
    def test_warning_names_the_stop(self, rng, monkeypatch, caplog, pll_and_gradient, message):
        ds = random_dataset(rng, 4, 60)
        model = random_model(rng, 4, 3)
        partition = quantize_params(model.weight_vector(), 2)
        monkeypatch.setattr(BlanketTables, "pll_and_gradient", pll_and_gradient)
        for fit, what in ((lambda: mple_fit(model, ds), "MPLE fit"),
                          (lambda: tied_fit(model, ds, partition), "tied fit")):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="forced_pruning.param_learn"):
                fit()
            [record] = caplog.records
            assert record.getMessage().startswith(f"{what} stopped")
            assert record.getMessage().endswith(f"({message})")


class TestMpleFit:
    def test_exact_solution_on_independent_pair(self, caplog):
        # with no penalty the curvature along the edge weight can vanish
        ds = independent_pair_dataset()
        model = PairwiseModel.zeros(2, [Edge(0, 1)])
        with caplog.at_level(logging.WARNING, logger="forced_pruning.param_learn"):
            fitted = mple_fit(model, ds, FitOptions(l2_strength=0.0, gradient_tolerance=1e-10))
        assert caplog.records == []
        np.testing.assert_allclose(fitted.weight_vector(), [LN3, 0.0, 0.0], atol=1e-8)

    def test_penalized_gradient_vanishes_at_optimum(self, rng):
        ds = random_dataset(rng, 4, 60)
        model = random_model(rng, 4, 3)
        opts = TIGHT
        fitted = mple_fit(model, ds, opts)
        theta = fitted.weight_vector()
        g = pll_gradient(fitted, ds) - 2 * opts.l2_strength * theta
        assert np.abs(g).max() < 1e-6

    def test_l2_shrinks_weights(self):
        ds = make_dataset(["11"] * 8 + ["00"] * 8)
        model = PairwiseModel.zeros(2, [Edge(0, 1)])
        loose = mple_fit(model, ds, FitOptions(l2_strength=1e-4, gradient_tolerance=1e-9))
        tight = mple_fit(model, ds, FitOptions(l2_strength=1.0, gradient_tolerance=1e-9))
        assert np.abs(tight.weight_vector()).sum() < np.abs(loose.weight_vector()).sum()

    def test_fit_improves_pll(self, rng):
        ds = random_dataset(rng, 5, 50, p=0.3)
        model = PairwiseModel.zeros(5, [Edge(0, 1), Edge(2, 4)])
        fitted = mple_fit(model, ds)
        assert pll(fitted, ds) >= pll(model, ds)

    def test_warm_and_cold_starts_agree(self, rng):
        # the penalized objective is strictly concave, so the optimum is unique
        ds = random_dataset(rng, 4, 80)
        cold = PairwiseModel.zeros(4, [Edge(0, 1), Edge(1, 3)])
        warm = cold.with_weights(rng.normal(0, 2.0, cold.n_params))
        a = mple_fit(cold, ds, TIGHT)
        b = mple_fit(warm, ds, TIGHT)
        np.testing.assert_allclose(a.weight_vector(), b.weight_vector(), atol=1e-4)

    def test_non_finite_objective_raises(self, rng, monkeypatch):
        ds = random_dataset(rng, 3, 20)
        model = random_model(rng, 3, 2)
        partition = quantize_params(model.weight_vector(), 2)
        monkeypatch.setattr(BlanketTables, "pll_and_gradient",
                            lambda self, theta: (np.inf, np.zeros_like(theta)))
        with pytest.raises(FitError, match="^MPLE fit: objective became non-finite$"):
            mple_fit(model, ds)
        with pytest.raises(FitError, match="^tied fit: objective became non-finite$"):
            tied_fit(model, ds, partition)


class TestTiedFit:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([FitOptions(), TIGHT]))
    def test_singleton_tying_is_the_plain_fit_byte_for_byte(self, seed, n_vars, opts):
        # MPLE is the tied fit with one value per parameter
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_vars)
        ds = random_dataset(rng, n_vars, int(rng.integers(5, 60)))
        plain = mple_fit(model, ds, opts)
        tied = tied_fit(model, ds, TyingPartition.singletons(model.weight_vector()), opts)
        assert tied.weight_vector().tobytes() == plain.weight_vector().tobytes()

    def test_singleton_partition_matches_mple(self, rng):
        ds = random_dataset(rng, 4, 70)
        model = random_model(rng, 4, 4, edge_scale=0.5)
        fitted = mple_fit(model, ds, TIGHT)
        tied = tied_fit(fitted, ds, TyingPartition.singletons(fitted.weight_vector()), TIGHT)
        np.testing.assert_allclose(
            tied.weight_vector(), fitted.weight_vector(), atol=1e-4)

    def test_one_cluster_forces_equal_weights(self, rng):
        ds = random_dataset(rng, 3, 40)
        model = random_model(rng, 3, 2)
        partition = quantize_params(model.weight_vector(), 1)
        tied = tied_fit(model, ds, partition)
        w = tied.weight_vector()
        assert np.ptp(w) == 0.0

    def test_rejects_partition_size_mismatch(self, rng):
        ds = random_dataset(rng, 3, 10)
        model = random_model(rng, 3, 2)
        with pytest.raises(ValueError, match="parameters"):
            tied_fit(model, ds, TyingPartition.singletons(np.zeros(2)), FitOptions())


class TestLearnParamsWithApt:
    def test_output_has_at_most_c_distinct_values(self, rng):
        ds = random_dataset(rng, 5, 60)
        model = PairwiseModel.zeros(5, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4)])
        for c in (1, 2, 4):
            tied, partition = learn_params_with_apt(model, ds, c)
            assert len(set(tied.weight_vector().tolist())) <= c
            assert partition.n_clusters == c

    def test_partition_expand_reproduces_weights(self, rng):
        ds = random_dataset(rng, 4, 50)
        model = PairwiseModel.zeros(4, [Edge(0, 2), Edge(1, 3)])
        tied, partition = learn_params_with_apt(model, ds, 3)
        np.testing.assert_array_equal(partition.expand(), tied.weight_vector())

    def test_full_cluster_count_recovers_plain_fit(self, rng):
        ds = random_dataset(rng, 3, 80)
        model = PairwiseModel.zeros(3, [Edge(0, 1)])
        tied, _ = learn_params_with_apt(model, ds, model.n_params, TIGHT)
        plain = mple_fit(model, ds, TIGHT)
        np.testing.assert_allclose(
            tied.weight_vector(), plain.weight_vector(), atol=1e-4)

    def test_minimize_runs_once_inside_each_fit(self, rng, monkeypatch):
        # a tracer that wraps these module attributes counts the minimize
        # calls under each fit as that fit's evaluations
        ds = random_dataset(rng, 4, 50)
        model = random_model(rng, 4, 3)
        stack, calls = [], []

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, tuple(stack)))
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapped

        for name in ("minimize", "mple_fit", "tied_fit"):
            monkeypatch.setattr(param_learn, name, recorder(name, getattr(param_learn, name)))
        learn_params_with_apt(model, ds, 2)
        assert calls == [("mple_fit", ()), ("minimize", ("mple_fit",)),
                         ("tied_fit", ()), ("minimize", ("tied_fit",))]

    def test_tying_costs_training_pll(self, rng):
        # fewer clusters can only constrain the fit
        ds = random_dataset(rng, 5, 60, p=0.4)
        model = PairwiseModel.zeros(5, [Edge(i, i + 1) for i in range(4)])
        tied1, _ = learn_params_with_apt(model, ds, 1)
        tied9, _ = learn_params_with_apt(model, ds, model.n_params)
        assert pll(tied9, ds) >= pll(tied1, ds) - 1e-9

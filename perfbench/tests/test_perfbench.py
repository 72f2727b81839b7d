"""Tests of the benchmark's own parts: generator, output checks, tracing."""

import json
import os

import numpy as np
import pytest

import checks
import gen
import spans
from forced_pruning import DataSet, PairwiseModel, PruningConfig, complete_edges, forced_pruning, pll
from forced_pruning import structure

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_is_deterministic_for_a_seed():
    a = gen.generate("nltcs", 7)
    b = gen.generate("nltcs", 7)
    c = gen.generate("nltcs", 8)
    shape = gen.SHAPES["nltcs"]
    for split, rows in zip(gen.SPLITS, shape.rows):
        assert a[split].shape == (rows, shape.n_vars)
        assert np.array_equal(a[split], b[split])
    assert not np.array_equal(a["train"], c["train"])


def test_written_splits_load_back(tmp_path):
    from forced_pruning import load_dataset

    paths = gen.write_splits("nltcs", 3, str(tmp_path))
    splits = gen.generate("nltcs", 3)
    for split, path in paths.items():
        assert np.array_equal(load_dataset(path).X, splits[split])


def tied_model(rng, n_vars=6, extra=2):
    """A model on a path plus ``extra`` edges, with three distinct weights."""
    tree = [(i, i + 1) for i in range(n_vars - 1)]
    pool = [e for e in complete_edges(n_vars) if tuple(e) not in tree]
    edges = sorted(tree + [tuple(pool[i]) for i in rng.choice(len(pool), extra, replace=False)])
    values = np.array([-0.7, 0.4, 1.3])
    return PairwiseModel(n_vars, values[rng.integers(3, size=n_vars)], tuple(edges),
                         values[rng.integers(3, size=len(edges))])


@pytest.fixture
def model_and_rows():
    rng = np.random.default_rng(0)
    model = tied_model(rng)
    X = (rng.random((300, model.n_vars)) < 0.5).astype(np.float64)
    return model, X


def test_rowwise_pll_matches_the_package(model_and_rows):
    model, X = model_and_rows
    ref = checks.rowwise_neg_pll(model.node_weights, model.edges, model.edge_weights, X)
    assert ref == pytest.approx(-pll(model, DataSet(X)), rel=1e-12)


def test_checker_accepts_a_consistent_model(model_and_rows):
    model, X = model_and_rows
    reported = -pll(model, DataSet(X))
    assert checks.check_model(model, reported, X, extra_edges=2, clusters=3) == []


def test_checker_rejects_a_perturbed_weight(model_and_rows):
    model, X = model_and_rows
    reported = -pll(model, DataSet(X))
    w = model.edge_weights.copy()
    w[0] += 1e-3
    bad = PairwiseModel(model.n_vars, model.node_weights, model.edges, w)
    failures = checks.check_model(bad, reported, X, extra_edges=2, clusters=4)
    assert len(failures) == 1 and "row-wise" in failures[0]


def test_checker_rejects_a_dropped_edge(model_and_rows):
    model, X = model_and_rows
    reported = -pll(model, DataSet(X))
    bad = PairwiseModel(model.n_vars, model.node_weights, model.edges[1:], model.edge_weights[1:])
    failures = checks.check_model(bad, reported, X, extra_edges=2, clusters=3)
    assert any("budget" in f for f in failures)
    assert any("row-wise" in f for f in failures)


def test_checker_rejects_too_many_distinct_weights(model_and_rows):
    model, X = model_and_rows
    reported = -pll(model, DataSet(X))
    assert "distinct weights" in checks.check_model(model, reported, X, 2, clusters=2)[0]


def test_read_sweep_counts_failed_cells():
    report = ("dataset,heuristic,m,k,split,neg_pll\n"
              "d,greedy,0,1,train,5.0\nd,greedy,0,1,test,5.1\n"
              "d,greedy,0,2,train,nan\nd,greedy,0,2,test,nan\n")
    timings = ("dataset,heuristic,m,k,seed,seconds,status\n"
               "d,greedy,0,1,0,1.500,ok\nd,greedy,0,2,1,0.000,boom\n")
    failed, values, cells = checks.read_sweep(report, timings, 2, ("train", "test"))
    assert list(failed) == [("greedy", "0", "2")]
    assert values["train"][0] == 5.0 and cells == [(1.5, "ok"), (0.0, "boom")]
    failed, _, _ = checks.read_sweep(report, timings, 3, ("train", "test"))
    assert ("all",) in failed


def test_traced_run_records_every_layer(tmp_path):
    rng = np.random.default_rng(1)
    train = DataSet((rng.random((400, 7)) < 0.3).astype(np.float64))
    config = PruningConfig(extra_edges=3, exchange_size=2, heuristic="rejection", max_iter=3, seed=5)
    untraced = forced_pruning(train, config)
    originals = (structure.greedy_add, DataSet.compressed)

    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        traced = structure.forced_pruning(DataSet(train.X), config)
    finally:
        tracer.uninstall()
    assert (structure.greedy_add, DataSet.compressed) == originals
    assert traced.model.edges == untraced.model.edges
    assert np.array_equal(traced.model.edge_weights, untraced.model.edge_weights)

    recorded = tracer.collect()
    m = spans.layer_metrics(recorded, 1.0, None)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        names = {x["name"] for x in json.load(f)["per_layer"]}
    assert set(m) == names - {"dataset.unique_ratio", "trace.overhead_frac"}
    assert m["structure.rejection_proposals"] == sum(r.proposals for r in traced.iterations) > 0
    assert m["structure.add_candidates"] > 0 and m["structure.add_s"] > 0
    assert m["param_learn.mple_evals"] > 0 and m["model.grad_calls"] > 0
    assert m["dataset.compress_s"] > 0 and m["cli.cells"] == 0
    assert m["structure.final_exchange_s"] > 0
    root = [s for s in recorded if s["name"] == "structure.forced_pruning"]
    assert len(root) == 1 and root[0]["parent"] is None

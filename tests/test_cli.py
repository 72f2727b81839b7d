"""CLI flows, model file round-trip, report formats, and exit codes."""

import ast
import concurrent.futures
import csv
import importlib
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from forced_pruning import (
    Edge,
    FitError,
    FitOptions,
    ModelFormatError,
    PairwiseModel,
    PruningConfig,
    TyingPartition,
    load_dataset,
    load_model,
    pll,
    save_model,
)
from forced_pruning.cli import _cell_config, build_parser, main, parse_sweep

from conftest import random_model, write_data_file


@pytest.fixture
def data_file(tmp_path, rng):
    X = (rng.random((120, 4)) < 0.5).astype(int)
    X[:, 1] = X[:, 0]  # plant one strong pair
    return write_data_file(tmp_path / "toy.data", X)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


# A function patched in this process reaches the pool workers only when they
# are forked from it; under another start method they import a fresh module.
forked_workers_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs pool workers forked from the test process")


class TestModelFile:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        model = random_model(rng, 6, 7)
        partition = TyingPartition(
            np.arange(model.n_params) % 3, rng.normal(size=3), 3)
        path = tmp_path / "m.txt"
        save_model(path, model, partition)
        loaded, loaded_part = load_model(path)
        assert loaded.edges == model.edges
        np.testing.assert_array_equal(loaded.node_weights, model.node_weights)
        np.testing.assert_array_equal(loaded.edge_weights, model.edge_weights)
        np.testing.assert_array_equal(loaded_part.assignment, partition.assignment)
        np.testing.assert_array_equal(loaded_part.means, partition.means)

    def test_round_trip_without_partition(self, rng, tmp_path):
        model = random_model(rng, 3, 2)
        path = tmp_path / "m.txt"
        save_model(path, model)
        loaded, part = load_model(path)
        assert part is None
        np.testing.assert_array_equal(loaded.weight_vector(), model.weight_vector())

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "pairwise-model v1\nn_vars 2\nnodes 0.5 -0.25\nedges 1\n0 1 1.5\n")
        model, part = load_model(path)
        assert model.edges == (Edge(0, 1),)
        assert model.edge_weights.tolist() == [1.5]
        assert part is None

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v9\nn_vars 2\n")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges 2\n0 1 0.5\n")
        with pytest.raises(ModelFormatError, match="end of file"):
            load_model(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges 1\n0 x 1.0\n")
        with pytest.raises(ModelFormatError, match="line 5"):
            load_model(path)

    @pytest.mark.parametrize("body, line, message", [
        ("n_vars 3\nnodes 0 0\nedges 1\n0 1 0.5\n", 3, "expected 3 values after 'nodes', got 2"),
        ("n_vars 3\nnodes 0 0 0 0\nedges 0\n", 3, "expected 3 values after 'nodes', got 4"),
        ("n_vars 3\nnodes 0 nan 0\nedges 1\n0 1 0.5\n", 3, "finite"),
        ("n_vars 0\nnodes\nedges 0\n", 2, "variable count must be >= 1"),
        ("n_vars 3\nnodes 0 0 0\nedges 2\n0 7 0.5\n0 1 0.5\n", 5, "not canonical for 3"),
        ("n_vars 3\nnodes 0 0 0\nedges 2\n2 1 0.5\n0 1 0.5\n", 5, "not canonical for 3"),
        ("n_vars 3\nnodes 0 0 0\nedges 3\n0 1 0.5\n0 1 0.5\n1 2 0.5\n", 6, "duplicate edge"),
        ("n_vars 3\nnodes 0 0 0\nedges 2\n0 2 inf\n0 1 0.5\n", 5, "not finite"),
        ("n_vars 2\nnodes 0 0\nedges 1\n0 1 0.5\ntying 2\nassignment 0 0 1 1\nmeans 0.5 0.1\n", 7,
         "assignment covers 4 parameters, model has 3"),
        ("n_vars 2\nnodes 0 0\nedges 1\n0 1 0.5\ntying 2\nassignment 0 0 5\nmeans 0.5 0.1\n", 7,
         re.escape("cluster ids must lie in [0, n_clusters)")),
        ("n_vars 2\nnodes 0 0\nedges 1\n0 1 0.5\ntying 2\nassignment 0 0 1\nmeans 0.5\n", 8,
         re.escape("means must have shape (2,)")),
    ])
    def test_bad_line_is_named_where_it_is_read(self, tmp_path, body, line, message):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\n" + body)
        with pytest.raises(ModelFormatError, match=rf"line {line}: .*{message}"):
            load_model(path)

    def test_partition_length_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges 0\n"
            "tying 1\nassignment 0 0 0 0\nmeans 0.0\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_negative_edge_count_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges -1\n")
        with pytest.raises(ModelFormatError, match="line 4: edge count must be >= 0"):
            load_model(path)

    @pytest.mark.parametrize("tail, line", [
        ("tying 1\nassignment 0 0 0\nmeans 0.5\nextra junk\n", 9),
        ("tying 1\nassignment 0 0 0\nmeans 0.5\n\n  \nextra junk\n\n", 11),
        ("\ntying 1\nassignment 0 0 0\nmeans 0.5\n", 7),
    ])
    def test_trailing_lines_rejected(self, tmp_path, tail, line):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges 1\n0 1 0.5\n" + tail)
        with pytest.raises(ModelFormatError, match=f"line {line}: unexpected line"):
            load_model(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("pairwise-model v1\nn_vars 2\nnodes 0.0 0.0\nedges 1\n0 1 0.5\n"
                        "tying 1\nassignment 0 0 0\nmeans 0.5\n\n \n")
        model, part = load_model(path)
        assert model.edges == (Edge(0, 1),) and part.means.tolist() == [0.5]

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_save_rejects_partition_size_mismatch(self, rng, tmp_path):
        model = random_model(rng, 3, 1)
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.txt", model, TyingPartition.singletons(np.zeros(2)))


class TestParseSweep:
    def test_basic_grid(self):
        assert parse_sweep("m=0,15,30;k=0,5,10") == ([0, 15, 30], [0, 5, 10], None)

    def test_heuristic_component(self):
        ms, ks, hs = parse_sweep("m=0;k=1;h=greedy,rejection")
        assert hs == ["greedy", "rejection"]

    def test_deduplicates(self):
        assert parse_sweep("m=1,1,2;k=0,0")[0] == [1, 2]

    MALFORMED = [
        ("m=0", "sweep spec must define both m=... and k=..."),
        ("k=0", "sweep spec must define both m=... and k=..."),
        ("m=0;k=a", "non-integer value in sweep component 'k=a'"),
        ("m=-1;k=0", "negative value in sweep component 'm=-1'"),
        ("q=1;m=0;k=0", "bad sweep component 'q=1', expected m=..., k=... or h=..."),
        ("m=;k=0", "empty value list in sweep component 'm='"),
        ("m=0;k=0;h=quantum", "unknown heuristic 'quantum' in sweep"),
        ("m=0;k=0;m=5", "sweep component m= given more than once"),
        ("m=0;k=0;h=greedy;h=rejection", "sweep component h= given more than once"),
    ]

    @pytest.mark.parametrize("bad, message", MALFORMED, ids=[bad for bad, _ in MALFORMED])
    def test_rejects_malformed(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep(bad)


def test_parser_defaults_are_the_config_defaults():
    # PruningConfig equality covers every run setting, FitOptions included
    args = build_parser().parse_args(["--train", "x"])
    config = _cell_config(args, args.extra_edges, args.exchange, args.heuristic, args.seed)
    assert config == PruningConfig(fit=FitOptions())


def _readme_flag_table() -> dict[str, str]:
    """Each flag of the README's command-line table, with its default cell."""
    table = {}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("| `--"):
                flags, default, _ = (c.strip() for c in line.strip().strip("|").split("|", 2))
                for flag in re.findall(r"`(--[\w-]+)", flags):
                    table[flag] = default
    return table


def test_readme_flag_table_matches_the_parser():
    actions = {s: a for a in build_parser()._actions for s in a.option_strings
               if s.startswith("--") and s != "--help"}
    table = _readme_flag_table()
    assert sorted(table) == sorted(actions)
    for flag, shown in table.items():
        literal = re.fullmatch(r"`?([\w.-]+)`?", shown)
        if literal is None:  # a prose default, such as "from `--train`"
            continue
        shown = literal.group(1)
        if shown == "required":
            assert actions[flag].required, flag
        elif shown in ("none", "off"):
            assert actions[flag].default is {"none": None, "off": False}[shown], flag
        else:
            assert str(actions[flag].default) == shown, flag


def test_tracer_sites_in_the_cli_and_dataset_exist():
    """perfbench/spans.py times each layer by patching the module attributes in
    its WRAP_SITES, and skips a missing one, so a renamed attribute would make
    its layer read 0. The file is parsed, not imported."""
    with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py"),
              encoding="utf-8") as f:
        body = ast.parse(f.read()).body
    sites = next(ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WRAP_SITES"])
    checked = [(module, attr) for module, attr, _ in sites
               if module in ("forced_pruning.cli", "forced_pruning.dataset")]
    assert checked
    for module, attr in checked:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module} has no {attr}"
            obj = getattr(obj, part)


class TestConfigEcho:
    """config.json holds every parsed run setting, as parsed, and the dataset
    name: not --name, --out-dir, --jobs or --apt-select."""

    def test_single_run(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "--train", data_file, "--name", "toy-run", "--extra-edges", "1", "--exchange", "1",
            "--heuristic", "rejection", "--apt-clusters", "4", "--l2", "0.5", "--max-iter", "2",
            "--seed", "3", "--rejection-cap", "50", "--jobs", "2", "--out-dir", str(out),
        ]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "apt_clusters": 4, "dataset": "toy-run", "exchange": 1, "extra_edges": 1,
            "heuristic": "rejection", "l2": 0.5, "max_iter": 2, "rejection_cap": 50, "seed": 3,
            "sweep": None, "test": None, "train": data_file, "valid": None,
        }

    def test_apt_select_echoes_the_selected_count(self, data_file, tmp_path, rng, caplog):
        valid = write_data_file(tmp_path / "v.data", (rng.random((40, 4)) < 0.5).astype(int))
        out = tmp_path / "out"
        with caplog.at_level(logging.INFO, logger="forced_pruning.cli"):
            assert main([
                "--train", data_file, "--valid", valid, "--apt-select", "--apt-clusters", "7",
                "--exchange", "0", "--max-iter", "1", "--out-dir", str(out),
            ]) == 0
        selected = [int(m.group(1)) for r in caplog.records
                    if (m := re.fullmatch(r"selected cluster count (\d+)", r.getMessage()))]
        assert len(selected) == 1 and selected[0] in (4, 8, 16, 32)
        assert json.loads((out / "config.json").read_text()) == {
            "apt_clusters": selected[0], "dataset": "toy", "exchange": 0, "extra_edges": 0,
            "heuristic": "greedy", "l2": 0.1, "max_iter": 1, "rejection_cap": 10000, "seed": 0,
            "sweep": None, "test": None, "train": data_file, "valid": valid,
        }

    def test_sweep(self, data_file, tmp_path, rng):
        split = write_data_file(tmp_path / "s.data", (rng.random((30, 4)) < 0.5).astype(int))
        out = tmp_path / "out"
        spec = "m=0,1;k=1;h=greedy,rejection"
        assert main([
            "--train", data_file, "--valid", split, "--test", split, "--sweep", spec,
            "--max-iter", "1", "--seed", "9", "--out-dir", str(out),
        ]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "apt_clusters": 16, "dataset": "toy", "exchange": 5, "extra_edges": 0,
            "heuristic": "greedy", "l2": 0.1, "max_iter": 1, "rejection_cap": 10000, "seed": 9,
            "sweep": spec, "test": split, "train": data_file, "valid": split,
        }


class TestRunSingle:
    def test_writes_artifacts_and_consistent_report(self, data_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--train", data_file, "--extra-edges", "1", "--exchange", "1",
            "--max-iter", "2", "--seed", "3", "--out-dir", str(out),
        ])
        assert code == 0
        for name in ("model.txt", "iterations.jsonl", "report.csv",
                     "timings.csv", "config.json", "report.txt"):
            assert (out / name).is_file()
        model, partition = load_model(out / "model.txt")
        assert partition is not None
        ds = load_dataset(data_file)
        rows = read_csv(out / "report.csv")
        assert [r["split"] for r in rows] == ["train"]
        assert float(rows[0]["neg_pll"]) == pytest.approx(-pll(model, ds), abs=1e-9)
        lines = (out / "iterations.jsonl").read_text().splitlines()
        log = [json.loads(line) for line in lines]
        assert [r["iteration"] for r in log] == [1, 2]
        assert [json.dumps(r) for r in log] == lines  # each line round-trips
        assert [r["n_active"] + r["n_pool"] for r in log] == [6, 6]

    def test_all_splits_reported(self, data_file, tmp_path, rng):
        valid = write_data_file(tmp_path / "v.data", (rng.random((30, 4)) < 0.5).astype(int))
        test = write_data_file(tmp_path / "t.data", (rng.random((30, 4)) < 0.5).astype(int))
        out = tmp_path / "out"
        code = main([
            "--train", data_file, "--valid", valid, "--test", test,
            "--exchange", "0", "--max-iter", "1", "--out-dir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "report.csv")
        assert [r["split"] for r in rows] == ["train", "valid", "test"]

    def test_split_width_mismatch_is_io_error(self, data_file, tmp_path, rng):
        wide = write_data_file(tmp_path / "w.data", (rng.random((10, 5)) < 0.5).astype(int))
        assert main(["--train", data_file, "--test", wide]) == 2


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["--train", str(tmp_path / "absent.data")]) == 2

    def test_bad_flag_value(self, data_file):
        assert main(["--train", data_file, "--heuristic", "bogus"]) == 1

    def test_bad_config(self, data_file):
        assert main(["--train", data_file, "--extra-edges", "-1"]) == 1

    def test_bad_sweep_spec(self, data_file):
        assert main(["--train", data_file, "--sweep", "m=0"]) == 1

    def test_bad_dataset_token(self, tmp_path):
        p = tmp_path / "bad.data"
        p.write_text("0,1\n0,7\n")
        assert main(["--train", str(p)]) == 2

    @pytest.mark.parametrize("data", [b"0,1\n0,\xc3\xa9\n", b"\xef\xbb\xbf0,1\n1,0\n"],
                             ids=["non-ascii", "utf8-bom"])
    def test_non_ascii_dataset_is_a_format_error(self, tmp_path, capsys, data):
        p = tmp_path / "bad.data"
        p.write_bytes(data)
        assert main(["--train", str(p)]) == 2
        assert f"{p}: line " in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "edge" in capsys.readouterr().out

    def test_apt_select_needs_valid_split(self, data_file):
        assert main(["--train", data_file, "--apt-select"]) == 1

    def test_numeric_failure_maps_to_three(self, data_file, tmp_path, monkeypatch):
        import forced_pruning.cli as cli_mod
        def boom(*args, **kwargs):
            raise FitError("synthetic blow-up")
        monkeypatch.setattr(cli_mod, "forced_pruning", boom)
        assert main(["--train", data_file, "--out-dir", str(tmp_path / "o")]) == 3


class TestRunSweep:
    def test_grid_and_determinism(self, data_file, tmp_path):
        args = [
            "--train", data_file, "--sweep", "m=0,1;k=0,1", "--max-iter", "2",
            "--seed", "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        rows = read_csv(out_a / "report.csv")
        assert [(r["m"], r["k"]) for r in rows] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        table = (out_a / "report.txt").read_text()
        assert "m=0" in table and "k=1" in table and "greedy" in table

    def test_heuristic_grid_runs_both(self, data_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--train", data_file, "--sweep", "m=0;k=1;h=greedy,rejection",
            "--max-iter", "1", "--out-dir", str(out),
        ])
        assert code == 0
        heuristics = {r["heuristic"] for r in read_csv(out / "report.csv")}
        assert heuristics == {"greedy", "rejection"}

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=forked_workers_only)])
    def test_failed_cell_marked_and_sweep_continues(self, data_file, tmp_path, monkeypatch, jobs):
        import forced_pruning.cli as cli_mod
        real = cli_mod.forced_pruning
        def flaky(ds, config):
            if config.extra_edges == 1:
                raise FitError("synthetic failure")
            return real(ds, config)
        monkeypatch.setattr(cli_mod, "forced_pruning", flaky)
        out = tmp_path / "out"
        code = main([
            "--train", data_file, "--sweep", "m=0,1;k=0", "--max-iter", "1",
            "--jobs", str(jobs), "--out-dir", str(out),
        ])
        assert code == 0
        rows = {r["m"]: r["neg_pll"] for r in read_csv(out / "report.csv")}
        assert rows["1"] == "nan"
        assert float(rows["0"]) > 0
        assert "FAIL" in (out / "report.txt").read_text()
        timing = {r["m"]: r["status"] for r in read_csv(out / "timings.csv")}
        assert timing == {"0": "ok", "1": "synthetic failure"}

    @forked_workers_only
    def test_dead_worker_fails_the_cells_it_lost(self, data_file, tmp_path, monkeypatch):
        import forced_pruning.cli as cli_mod
        owner, real = os.getpid(), cli_mod.forced_pruning

        def dies_in_worker(ds, config):
            if config.extra_edges == 1 and os.getpid() != owner:
                os._exit(1)
            return real(ds, config)

        monkeypatch.setattr(cli_mod, "forced_pruning", dies_in_worker)
        out = tmp_path / "out"
        assert main(["--train", data_file, "--sweep", "m=0,1;k=0", "--max-iter", "1",
                     "--jobs", "2", "--out-dir", str(out)]) == 0
        rows = {r["m"]: r["neg_pll"] for r in read_csv(out / "report.csv")}
        status = {r["m"]: r["status"] for r in read_csv(out / "timings.csv")}
        assert rows.keys() == status.keys() == {"0", "1"}
        assert rows["1"] == "nan"
        assert "terminated abruptly" in status["1"]
        # the other cell either finished before the pool broke or was lost with it
        if status["0"] == "ok":
            assert float(rows["0"]) > 0
        else:
            assert rows["0"] == "nan" and "terminated abruptly" in status["0"]

    def test_parallel_jobs_match_sequential(self, data_file, tmp_path):
        args = [
            "--train", data_file, "--sweep", "m=0,1;k=1", "--max-iter", "1",
            "--seed", "2",
        ]
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(args + ["--out-dir", str(seq)]) == 0
        assert main(args + ["--out-dir", str(par), "--jobs", "2"]) == 0
        assert (seq / "report.csv").read_bytes() == (par / "report.csv").read_bytes()

    @forked_workers_only
    def test_pool_workers_never_reload_the_splits(self, data_file, tmp_path, rng, monkeypatch):
        import forced_pruning.cli as cli_mod

        split = write_data_file(tmp_path / "v.data", (rng.random((30, 4)) < 0.5).astype(int))
        owner = os.getpid()
        real = cli_mod.load_dataset

        def parent_only(path, *a, **kw):
            if os.getpid() != owner:
                raise RuntimeError(f"pool worker reloaded {path}")
            return real(path, *a, **kw)

        monkeypatch.setattr(cli_mod, "load_dataset", parent_only)
        args = ["--train", data_file, "--valid", split, "--test", split,
                "--sweep", "m=0,1;k=1;h=greedy,rejection", "--max-iter", "2", "--seed", "4"]
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(args + ["--out-dir", str(seq)]) == 0
        assert main(args + ["--out-dir", str(par), "--jobs", "2"]) == 0
        assert {r["status"] for r in read_csv(par / "timings.csv")} == {"ok"}
        assert (seq / "report.csv").read_bytes() == (par / "report.csv").read_bytes()

    def test_pool_capped_at_grid_size(self, data_file, tmp_path, monkeypatch):
        workers = []
        real = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers=None, **kw):
            workers.append(max_workers)
            return real(max_workers=max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        assert main(["--train", data_file, "--sweep", "m=0,1;k=1", "--max-iter", "1",
                     "--jobs", "4", "--out-dir", str(tmp_path / "two")]) == 0
        assert workers == [2]
        # a single cell runs in this process: a one-worker pool would only add its start
        assert main(["--train", data_file, "--sweep", "m=0;k=1", "--max-iter", "1",
                     "--jobs", "2", "--out-dir", str(tmp_path / "one")]) == 0
        assert workers == [2]
        assert {r["status"] for r in read_csv(tmp_path / "one" / "timings.csv")} == {"ok"}

    def test_cell_result_independent_of_grid(self, tmp_path, rng):
        X = (rng.random((150, 6)) < 0.5).astype(int)
        X[:, 1] = X[:, 0] ^ (rng.random(150) < 0.2)
        data = write_data_file(tmp_path / "six.data", X)
        common = ["--train", data, "--max-iter", "3", "--seed", "7"]
        alone, grid = tmp_path / "alone", tmp_path / "grid"
        assert main(common + ["--sweep", "m=3;k=2;h=rejection", "--out-dir", str(alone)]) == 0
        assert main(common + ["--sweep", "m=0,2,3;k=1,2;h=greedy,rejection",
                              "--out-dir", str(grid)]) == 0

        def cell_lines(path):
            lines = (path / "report.csv").read_text().splitlines()
            return [ln for ln in lines if ln.split(",")[1:4] == ["rejection", "3", "2"]]

        assert len(cell_lines(alone)) == 1
        assert cell_lines(alone) == cell_lines(grid)

    def test_apt_select_rejected_in_sweep(self, data_file, tmp_path, rng):
        valid = write_data_file(tmp_path / "v.data", (rng.random((20, 4)) < 0.5).astype(int))
        assert main([
            "--train", data_file, "--valid", valid, "--apt-select",
            "--sweep", "m=0;k=0",
        ]) == 1


class TestChowLiuOncePerTrainSplit:
    """The tree depends on the train split alone: one MI computation per run."""

    @pytest.fixture
    def mi_calls(self, monkeypatch):
        import forced_pruning.chowliu as chowliu

        calls, owner = [], os.getpid()
        real = chowliu.mutual_information_matrix

        def counted(ds):
            if os.getpid() != owner:
                raise RuntimeError("pool worker recomputed the Chow-Liu tree")
            calls.append(ds.name)
            return real(ds)

        monkeypatch.setattr(chowliu, "mutual_information_matrix", counted)
        return calls

    def test_apt_select_run(self, data_file, tmp_path, rng, mi_calls):
        valid = write_data_file(tmp_path / "v.data", (rng.random((40, 4)) < 0.5).astype(int))
        assert main(["--train", data_file, "--valid", valid, "--apt-select", "--exchange", "1",
                     "--max-iter", "2", "--out-dir", str(tmp_path / "out")]) == 0
        assert mi_calls == ["toy"]  # one computation serves the 4 fits

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=forked_workers_only)])
    def test_sweep(self, data_file, tmp_path, mi_calls, jobs):
        out = tmp_path / "out"
        assert main(["--train", data_file, "--sweep", "m=0,1;k=1;h=greedy,rejection",
                     "--max-iter", "2", "--jobs", str(jobs), "--out-dir", str(out)]) == 0
        assert {r["status"] for r in read_csv(out / "timings.csv")} == {"ok"}
        assert mi_calls == ["toy"]


class TestAptSelect:
    def test_selects_a_candidate_and_echoes_it(self, data_file, tmp_path, rng):
        valid = write_data_file(tmp_path / "v.data", (rng.random((40, 4)) < 0.5).astype(int))
        out = tmp_path / "out"
        code = main([
            "--train", data_file, "--valid", valid, "--apt-select",
            "--exchange", "0", "--max-iter", "1", "--out-dir", str(out),
        ])
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["apt_clusters"] in (4, 8, 16, 32)

    def test_selection_is_the_plain_run_at_the_first_best_count(self, tmp_path, rng):
        # 20 variables and 7 extra edges: 46 parameters, so each count ties differently
        X = np.zeros((300, 20), dtype=int)
        X[:, 0] = rng.random(300) < 0.5
        for j in range(1, 20):
            X[:, j] = X[:, j - 1] ^ (rng.random(300) < 0.25)
        train = write_data_file(tmp_path / "chain.data", X[:200])
        valid = write_data_file(tmp_path / "valid.data", X[200:])
        common = ["--train", train, "--valid", valid, "--extra-edges", "7", "--exchange", "2",
                  "--max-iter", "3", "--seed", "1"]

        def run(name, *flags):
            out = tmp_path / name
            assert main(common + [*flags, "--out-dir", str(out)]) == 0
            valid_neg_pll = {r["split"]: float(r["neg_pll"]) for r in read_csv(out / "report.csv")}
            return out, valid_neg_pll["valid"]

        plain = {c: run(f"c{c}", "--apt-clusters", str(c)) for c in (4, 8, 16, 32)}
        assert len({(out / "model.txt").read_bytes() for out, _ in plain.values()}) == 4
        scores = [score for _, score in plain.values()]
        first_best = (4, 8, 16, 32)[scores.index(min(scores))]
        selected, _ = run("select", "--apt-select")
        assert json.loads((selected / "config.json").read_text())["apt_clusters"] == first_best
        for name in ("report.csv", "model.txt"):
            assert (selected / name).read_bytes() == (plain[first_best][0] / name).read_bytes()


class TestRunInvariance:
    """A run's report, model and iteration log depend on the data, config
    and seed alone: not on the BLAS thread count, nor on the order of the
    training rows."""

    def test_outputs_independent_of_blas_threads_and_row_order(self, tmp_path, rng):
        # a noisy chain of 10 variables: most rows occur several times
        X = np.zeros((400, 10), dtype=int)
        X[:, 0] = rng.random(400) < 0.5
        for j in range(1, 10):
            X[:, j] = X[:, j - 1] ^ (rng.random(400) < 0.2)
        valid = write_data_file(tmp_path / "valid.data", X[:100] ^ (rng.random((100, 10)) < 0.1))
        (tmp_path / "given").mkdir()
        (tmp_path / "shuffled").mkdir()
        train = write_data_file(tmp_path / "given" / "chain.data", X)
        shuffled = write_data_file(tmp_path / "shuffled" / "chain.data", X[rng.permutation(400)])

        def run(name, train, **env):
            # tests/conftest.py pins BLAS to one thread in this process's
            # environment; the run takes that, or the threads given here
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "forced_pruning", "--train", train, "--valid", valid,
                 "--test", valid, "--extra-edges", "4", "--exchange", "2",
                 "--heuristic", "rejection", "--max-iter", "4", "--seed", "5",
                 "--out-dir", str(out)],
                capture_output=True, text=True, env={**os.environ, **env})
            assert proc.returncode == 0, proc.stderr
            with open(out / "iterations.jsonl", encoding="ascii") as f:
                iterations = [{**json.loads(line), "seconds": None} for line in f]
            return (out / "report.csv").read_bytes(), (out / "model.txt").read_bytes(), iterations

        base = run("base", train)
        threads = {v: "2" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        assert run("threads", train, **threads) == base
        assert run("shuffled", shuffled) == base

"""The public names of the package: pinned, resolvable, and all imported; the
parameters of the functions that share the Markov-blanket tables; the
dataset cache named by ``dataset.py`` alone; numpy as the only third-party
module that the package and its CLI load; and a run that leaves
``numpy.ma`` unloaded."""

import ast
import glob
import inspect
import os
import subprocess
import sys

import pytest

import forced_pruning

from conftest import REPO_ROOT

PUBLIC = [
    "DataSet",
    "DatasetFormatError",
    "Edge",
    "EdgeScore",
    "ExperimentReport",
    "FitError",
    "FitOptions",
    "IterationRecord",
    "ModelFormatError",
    "PairwiseModel",
    "PruningConfig",
    "PruningResult",
    "RejectionOutcome",
    "TyingPartition",
    "WeightedEdge",
    "__version__",
    "canonical_edge",
    "chow_liu_tree",
    "complete_edges",
    "edge_deletion_scores",
    "forced_pruning",
    "greedy_add",
    "greedy_delete",
    "learn_params_with_apt",
    "load_dataset",
    "load_model",
    "logits",
    "main",
    "mple_fit",
    "mutual_information",
    "mutual_information_matrix",
    "pll",
    "pll_gradient",
    "pll_without_edges",
    "quantize_params",
    "rejection_sample_delete",
    "save_model",
    "tied_fit",
    "tying_objective",
    "weighted_edges",
]


def _init_bindings():
    """Names that ``__init__.py`` imports from its submodules or assigns."""
    path = os.path.join(REPO_ROOT, "src", "forced_pruning", "__init__.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if t.id != "__all__"]
    return names


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(forced_pruning.__all__) == PUBLIC
    assert len(set(forced_pruning.__all__)) == len(forced_pruning.__all__)


def test_every_public_name_resolves():
    for name in forced_pruning.__all__:
        assert getattr(forced_pruning, name) is not None, name


def test_all_matches_the_imports():
    bindings = _init_bindings()
    assert len(set(bindings)) == len(bindings)
    assert sorted(bindings) == sorted(forced_pruning.__all__)


# These functions get their blanket tables from (dataset, edge set) through
# blanket.tables_for, so none of them takes the tables as an argument.
PARAMETERS = {
    "mple_fit": ["model", "ds", "opts"],
    "tied_fit": ["model", "ds", "partition", "opts"],
    "learn_params_with_apt": ["model", "ds", "c", "opts"],
    "edge_deletion_scores": ["model", "ds"],
    "greedy_delete": ["model", "ds", "k"],
    "rejection_sample_delete": ["model", "ds", "k", "rng", "cap"],
    "greedy_add": ["model", "ds", "candidates", "k"],
}


def test_table_sharing_functions_have_pinned_parameters():
    for name, params in PARAMETERS.items():
        assert list(inspect.signature(getattr(forced_pruning, name)).parameters) == params, name


def test_blanket_tables_constructor_is_pinned():
    # the tables take their blocks from the dataset's blanket store on
    # their own; no argument or option turns that on or off
    from forced_pruning.blanket import BlanketTables

    assert list(inspect.signature(BlanketTables.__init__).parameters) == ["self", "ds", "edges"]


def test_no_function_takes_tables():
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "forced_pruning", "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                assert "tables" not in names, f"{path}:{node.lineno}"


def test_only_the_dataset_module_names_its_cache():
    # other modules keep what they derive from a dataset through
    # DataSet.cached, and state of their own (blanket's slot) themselves
    sites = []
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "forced_pruning", "*.py")):
        if os.path.basename(path) == "dataset.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            # ds._cache read or written, or named as a string (getattr, setattr)
            if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                    or isinstance(node, ast.Constant) and node.value == "_cache"):
                sites.append((os.path.basename(path), node.lineno))
    assert sites == []


def test_minimize_has_one_call_site():
    # both fits reach the optimizer through one call, inside a fit, where a
    # tracer that wraps the module attribute sees it
    sites = []
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "forced_pruning", "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "minimize":
                    sites.append((os.path.basename(path), node.lineno))
    assert [file for file, _ in sites] == ["param_learn.py"], sites


@pytest.mark.parametrize("args", [
    ["-c", "import forced_pruning, forced_pruning.cli"],
    ["-m", "forced_pruning", "--help"],
])
def test_scipy_is_never_imported(args):
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "forced_pruning.cli" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_a_run_never_imports_numpy_ma():
    # numpy.ma takes 30-40 ms to import, and a plain np.unique loads it lazily
    check = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                      check=True).stdout.strip() == "True":
        pytest.skip("importing numpy loads numpy.ma here")
    run = (
        "import sys, numpy as np\n"
        "from forced_pruning import DataSet, PruningConfig, forced_pruning\n"
        "X = (np.random.default_rng(0).random((60, 6)) < 0.5).astype(float)\n"
        "for h in ('greedy', 'rejection'):\n"
        "    forced_pruning(DataSet(X), PruningConfig(extra_edges=2, exchange_size=2,\n"
        "                                             heuristic=h, max_iter=3))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"

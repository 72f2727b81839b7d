"""Budget-constrained structure learning for binary pairwise Markov networks.

The package learns a model with exactly n_vars - 1 + m edges by starting
from the Chow-Liu tree plus random extras and repeatedly exchanging the
weakest edges for the most promising inactive ones, scoring everything by
pseudo-log-likelihood and fitting parameters with automatic tying.
"""

from .chowliu import (
    WeightedEdge,
    chow_liu_tree,
    mutual_information,
    mutual_information_matrix,
    weighted_edges,
)
from .cli import (
    ExperimentReport,
    ModelFormatError,
    load_model,
    main,
    save_model,
)
from .dataset import (
    DataSet,
    DatasetFormatError,
    load_dataset,
)
from .model import (
    Edge,
    PairwiseModel,
    canonical_edge,
    complete_edges,
    logits,
    pll,
    pll_gradient,
    pll_without_edges,
)
from .param_learn import (
    FitError,
    FitOptions,
    TyingPartition,
    learn_params_with_apt,
    mple_fit,
    quantize_params,
    tied_fit,
    tying_objective,
)
from .structure import (
    EdgeScore,
    IterationRecord,
    PruningConfig,
    PruningResult,
    RejectionOutcome,
    edge_deletion_scores,
    forced_pruning,
    greedy_add,
    greedy_delete,
    rejection_sample_delete,
)

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "DatasetFormatError",
    "load_dataset",
    "Edge",
    "PairwiseModel",
    "canonical_edge",
    "complete_edges",
    "logits",
    "pll",
    "pll_gradient",
    "pll_without_edges",
    "WeightedEdge",
    "chow_liu_tree",
    "mutual_information",
    "mutual_information_matrix",
    "weighted_edges",
    "FitError",
    "FitOptions",
    "TyingPartition",
    "learn_params_with_apt",
    "mple_fit",
    "quantize_params",
    "tied_fit",
    "tying_objective",
    "EdgeScore",
    "IterationRecord",
    "PruningConfig",
    "PruningResult",
    "RejectionOutcome",
    "edge_deletion_scores",
    "forced_pruning",
    "greedy_add",
    "greedy_delete",
    "rejection_sample_delete",
    "ExperimentReport",
    "ModelFormatError",
    "load_model",
    "main",
    "save_model",
    "__version__",
]

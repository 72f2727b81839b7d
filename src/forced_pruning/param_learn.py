"""Penalized MPLE parameter fitting and automatic parameter tying.

Fitting maximizes  pll(theta) - l2_strength * ||theta||^2  (the PLL is the
per-instance mean, so the penalty is on that scale too). Tying quantizes the
fitted weights into c clusters by exact 1-D dynamic programming, then refits
one shared value per cluster. One routine serves both fits: MPLE is the
tied fit with one value per parameter. It evaluates the objective and its
gradient in one pass over the Markov-blanket tables of the model's edge set
(:mod:`forced_pruning.blanket`); while a caller holds those tables, every fit
on the same dataset and edge set reuses them. It climbs the objective with
the module's own L-BFGS, :func:`minimize`.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blanket import tables_for
from .dataset import DataSet
from .model import PairwiseModel

logger = logging.getLogger(__name__)


class FitError(RuntimeError):
    """The fit objective became non-finite."""


@dataclass(frozen=True)
class FitOptions:
    l2_strength: float = 0.1
    max_optimizer_steps: int = 500
    gradient_tolerance: float = 1e-5

    def __post_init__(self):
        if not (np.isfinite(self.l2_strength) and self.l2_strength >= 0):
            raise ValueError(f"l2_strength must be finite and >= 0, got {self.l2_strength}")
        if self.max_optimizer_steps < 1:
            raise ValueError("max_optimizer_steps must be >= 1")
        if not (np.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive")


@dataclass(frozen=True, eq=False)
class TyingPartition:
    """Assignment of each parameter to a cluster, plus cluster means.

    ``assignment[j]`` is the cluster id of parameter j (node weights first,
    then edge weights); ``means[a]`` is the representative value of cluster a.
    """

    assignment: np.ndarray
    means: np.ndarray
    n_clusters: int

    def __post_init__(self):
        a = np.array(self.assignment, dtype=np.int64)
        m = np.array(self.means, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("assignment must be a non-empty 1-D array")
        if m.shape != (self.n_clusters,):
            raise ValueError(f"means must have shape ({self.n_clusters},), got {m.shape}")
        if a.min() < 0 or a.max() >= self.n_clusters:
            raise ValueError("cluster ids must lie in [0, n_clusters)")
        if not np.bincount(a, minlength=self.n_clusters).all():
            raise ValueError("every cluster must be non-empty")
        a.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "means", m)

    @property
    def n_params(self) -> int:
        return self.assignment.size

    def expand(self) -> np.ndarray:
        """Per-parameter values implied by the partition."""
        return self.means[self.assignment]

    @classmethod
    def singletons(cls, params: np.ndarray) -> "TyingPartition":
        """One cluster per parameter (tying is vacuous)."""
        params = np.asarray(params, dtype=np.float64)
        return cls(np.arange(params.size), params.copy(), params.size)


def tying_objective(params: np.ndarray, partition: TyingPartition) -> float:
    """Sum of squared distances of parameters to their cluster means."""
    params = np.asarray(params, dtype=np.float64)
    d = params - partition.expand()
    return float(d @ d)


def quantize_params(params: np.ndarray, c: int) -> TyingPartition:
    """Optimal c-cluster quantization of a 1-D parameter vector.

    Minimizes the total squared distance to cluster means exactly: optimal
    clusters are contiguous intervals of the sorted values, found by dynamic
    programming over interval costs, one (n+1) x (n+1) array of (split i,
    end j) candidates per cluster count. Deterministic; on ties the earliest
    split is preferred.
    """
    params = np.asarray(params, dtype=np.float64).ravel()
    n = params.size
    if n < 1:
        raise ValueError("params must be non-empty")
    if not 1 <= c <= n:
        raise ValueError(f"cluster count must be in [1, {n}], got {c}")
    order = np.argsort(params, kind="stable")
    x = params[order]
    s = np.concatenate([[0.0], np.cumsum(x)])
    q = np.concatenate([[0.0], np.cumsum(x * x)])

    # interval (i, j] costs q[j]-q[i] - tot^2/(j-i); i >= j is no interval
    idx = np.arange(n + 1)
    gap = idx - idx[:, None]
    tot = s - s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.where(gap > 0, tot * tot / gap, -np.inf)
    dq = q - q[:, None]
    cost = np.where(idx > 0, np.inf, 0.0)  # prefixes too short for t clusters stay inf
    split = np.zeros((c + 1, n + 1), dtype=np.int64)
    for t in range(1, c + 1):
        v = cost[:, None] + dq - spread
        split[t] = np.argmin(v, axis=0)  # first minimum: earliest split wins ties
        cost = v[split[t], idx]
    bounds = [n]
    for t in range(c, 0, -1):
        bounds.insert(0, int(split[t, bounds[0]]))

    assignment = np.empty(n, dtype=np.int64)
    means = np.empty(c)
    for a in range(c):
        lo, hi = bounds[a], bounds[a + 1]
        assignment[order[lo:hi]] = a
        means[a] = (s[hi] - s[lo]) / (hi - lo)
    return TyingPartition(assignment=assignment, means=means, n_clusters=c)


class Minimum(NamedTuple):
    """Where :func:`minimize` stopped, its gradient there and why it stopped."""

    x: np.ndarray
    jac: np.ndarray
    nfev: int
    message: str


def minimize(fun_grad, x0: np.ndarray, max_iter: int, gtol: float, max_evals: int) -> Minimum:
    """Minimize a smooth function by L-BFGS (Liu & Nocedal 1989).

    ``fun_grad(x)`` returns the value and the gradient. The direction comes
    from the two-loop recursion over the last 10 steps, skipping a step whose
    curvature y.s is not positive; with none left, it is the steepest descent
    scaled to unit length. A backtracking search of at most 20 trial points
    takes the first step that meets the Armijo condition, judged on the values
    or, once they no longer resolve the decrease, on the mean of the slopes at
    both ends, which is exact for a quadratic. Stops once the gradient
    inf-norm is below ``gtol``, after ``max_iter`` steps or ``max_evals``
    evaluations, or when no step is found.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fun_grad(x)
    nfev, pairs = 1, deque(maxlen=10)
    for it in range(max_iter + 1):
        if np.abs(g).max() < gtol:
            return Minimum(x, g, nfev, "converged")
        if it == max_iter:
            return Minimum(x, g, nfev, "iteration limit reached")
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * (y @ y))
        else:
            d = d / np.sqrt(g @ g)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * (y @ d)) * s
        slope, step = g @ d, 1.0
        if not slope < 0.0:  # rounding, or a non-finite gradient
            return Minimum(x, g, nfev, "no descent direction")
        for _ in range(20):
            if nfev >= max_evals:
                return Minimum(x, g, nfev, "evaluation limit reached")
            f_new, g_new = fun_grad(x + step * d)
            nfev += 1
            if f_new <= f + 1e-4 * step * slope or (
                    f_new <= f + 1e-12 * abs(f) and g_new @ d + slope <= 2e-4 * slope):
                break
            step *= 0.5
        else:
            return Minimum(x, g, nfev, "line search found no step")
        s, y = step * d, g_new - g
        if (ys := y @ s) > 0.0:
            pairs.append((s, y, 1.0 / ys))
        x, f, g = x + s, f_new, g_new


def _fit(model: PairwiseModel, ds: DataSet, assign: np.ndarray, mu: np.ndarray,
         opts: FitOptions, what: str) -> PairwiseModel:
    """Maximize pll(mu[assign]) - l2 * ||mu||^2 by L-BFGS from ``mu``.

    Parameter j takes the value ``mu[assign[j]]``, so a value's gradient is
    the sum of its parameters' PLL gradients. ``what`` names the fit in the
    error and the non-convergence warning.
    """
    tables = tables_for(model, ds)
    l2 = opts.l2_strength

    def neg(x):
        f, g = tables.pll_and_gradient(x[assign])
        f -= l2 * float(x @ x)
        if not np.isfinite(f):
            raise FitError(f"{what}: objective became non-finite")
        g = np.bincount(assign, weights=g, minlength=x.size) - 2.0 * l2 * x
        return -f, -g

    res = minimize(
        neg, mu, opts.max_optimizer_steps, opts.gradient_tolerance,
        100 * opts.max_optimizer_steps,
    )
    grad_inf = float(np.abs(res.jac).max())
    if not grad_inf < opts.gradient_tolerance:
        logger.warning(
            "%s stopped with gradient inf-norm %.3g >= tolerance %.3g (%s)",
            what, grad_inf, opts.gradient_tolerance, res.message,
        )
    return model.with_weights(res.x[assign])


def mple_fit(
    model: PairwiseModel,
    ds: DataSet,
    opts: FitOptions = FitOptions(),
) -> PairwiseModel:
    """Maximize pll - l2 * ||theta||^2 over all weights.

    This is the tied fit with one value per parameter. Starts from the
    weights carried by ``model`` (pass a zero-weight model for a cold start;
    the pruning loop passes the previous iteration's weights to warm-start).
    """
    return _fit(model, ds, np.arange(model.n_params), model.weight_vector(), opts, "MPLE fit")


def tied_fit(
    model: PairwiseModel,
    ds: DataSet,
    partition: TyingPartition,
    opts: FitOptions = FitOptions(),
) -> PairwiseModel:
    """Refit with all parameters in a cluster sharing one value.

    Optimizes pll - l2 * sum_a mu_a^2 over the cluster values; a cluster's
    gradient is the sum of its members' PLL gradients. Starts from the
    partition's means.
    """
    if partition.n_params != model.n_params:
        raise ValueError(
            f"partition covers {partition.n_params} parameters, model has {model.n_params}"
        )
    return _fit(model, ds, partition.assignment, partition.means, opts, "tied fit")


def learn_params_with_apt(
    model: PairwiseModel,
    ds: DataSet,
    c: int,
    opts: FitOptions = FitOptions(),
) -> tuple[PairwiseModel, TyingPartition]:
    """Full parameter-learning pipeline: MPLE fit, quantize, tied refit.

    Returns the tied model and the partition; the partition's means are the
    refit shared values, so ``partition.expand()`` reproduces the returned
    model's weights and the model has at most c distinct values.
    """
    _held = tables_for(model, ds)  # both fits below share this build
    fitted = mple_fit(model, ds, opts)
    partition = quantize_params(fitted.weight_vector(), c)
    tied = tied_fit(fitted, ds, partition, opts)
    means = np.empty(partition.n_clusters)
    means[partition.assignment] = tied.weight_vector()  # a cluster's members share one value
    return tied, TyingPartition(partition.assignment, means, partition.n_clusters)

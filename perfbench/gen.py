"""Shape-matched synthetic splits for the benchmark.

Each shape is a fixed sparse Ising model whose graph and weights come from
the shape's own constant seed, so a shape is one distribution. The
benchmark's ``--seed`` only draws the sample, by Gibbs sampling from that
model. The constants below were chosen so that the Chow-Liu tree's test
negative PLL falls in the acceptance band of the real dataset of the same
name (see ``perfbench/README.md`` for the values reached, and for the
distinct-row counts, which fall short of the intended ones for nltcs and
plants).

Run ``python3 perfbench/gen.py --shape nltcs --seed 1 --out DIR`` to write
``DIR/nltcs.{train,valid,test}.data``.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Shape:
    """A sparse Ising model and the split sizes of one real dataset."""

    name: str
    n_vars: int
    rows: tuple[int, int, int]  # train, valid, test
    model_seed: int
    extra_degree: float  # mean number of non-tree edges per variable
    coupling: float  # edge weights are drawn from coupling * U(0.5, 1.5)
    negative_share: float  # share of edges with a negative weight
    bias: float  # node weight offset, before centring on the couplings
    bias_spread: float  # node weights vary by U(-spread, spread)


SHAPES = {
    s.name: s
    for s in (
        Shape("nltcs", 16, (16181, 2157, 3236), 101, 3.6, 1.16, 0.16, -1.05, 2.5),
        Shape("msnbc", 17, (291326, 38843, 58265), 202, 1.3, 1.8, 0.33, -1.5, 1.8),
        Shape("plants", 69, (17412, 2321, 3482), 303, 4.0, 3.15, 0.3, 0.4, 1.0),
    )
}

# Up to MAX_CHAINS chains run side by side; after BURN_IN sweeps each gives
# one row every THIN sweeps.
MAX_CHAINS = 20000
BURN_IN = 60
THIN = 4


def ising_model(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Node weights b and symmetric coupling matrix W of a shape."""
    rng = np.random.default_rng(shape.model_seed)
    v = shape.n_vars
    order = rng.permutation(v)
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)])))) for i in range(1, v)}
    n_extra = int(round(shape.extra_degree * v / 2))
    while len(edges) < v - 1 + n_extra:
        i, j = rng.choice(v, size=2, replace=False)
        edges.add((min(i, j), max(i, j)))
    W = np.zeros((v, v))
    for i, j in sorted(edges):
        w = shape.coupling * rng.uniform(0.5, 1.5)
        if rng.random() < shape.negative_share:
            w = -w
        W[i, j] = W[j, i] = w
    # centre each node on its couplings so an active neighbour pushes
    # towards 1 and the marginals stay sparse
    b = shape.bias - 0.5 * W.clip(min=0).sum(axis=1) + rng.uniform(-shape.bias_spread, shape.bias_spread, v)
    return b, W


def gibbs_sample(b: np.ndarray, W: np.ndarray, n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """n_rows states (uint8) from the Ising model, by systematic-scan Gibbs."""
    v = b.size
    chains = min(n_rows, MAX_CHAINS)
    draws = -(-n_rows // chains)
    nbrs = [np.flatnonzero(W[i]) for i in range(v)]
    # column-major, so one variable's states across chains are contiguous
    S = np.asfortranarray(rng.random((chains, v)) < 0.5, dtype=np.float64)
    out = np.empty((draws, chains, v), dtype=np.uint8)
    sweeps = BURN_IN + draws * THIN
    for sweep in range(1, sweeps + 1):
        for i in range(v):
            z = b[i] + S[:, nbrs[i]] @ W[nbrs[i], i]
            S[:, i] = rng.random(chains) * (1.0 + np.exp(-z)) < 1.0
        if sweep > BURN_IN and (sweep - BURN_IN) % THIN == 0:
            out[(sweep - BURN_IN) // THIN - 1] = S
    rows = out.reshape(-1, v)[:n_rows]
    return rows[rng.permutation(n_rows)]


def generate(shape_name: str, seed: int) -> dict[str, np.ndarray]:
    """The train/valid/test splits of a shape for one seed, as uint8 arrays."""
    shape = SHAPES[shape_name]
    b, W = ising_model(shape)
    rng = np.random.default_rng([shape.model_seed, seed])
    rows = gibbs_sample(b, W, sum(shape.rows), rng)
    bounds = np.cumsum((0,) + shape.rows)
    return {s: rows[bounds[i]:bounds[i + 1]] for i, s in enumerate(SPLITS)}


def write_split(path: str, X: np.ndarray) -> None:
    """Write rows as comma-separated 0/1 text, one row per line."""
    n, v = X.shape
    text = np.empty((n, 2 * v), dtype=np.uint8)
    text[:, 0::2] = X + ord("0")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    with open(path, "wb") as f:
        f.write(text.tobytes())


def write_splits(shape_name: str, seed: int, out_dir: str) -> dict[str, str]:
    """Generate a shape's splits and write them; returns split -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split, X in generate(shape_name, seed).items():
        paths[split] = os.path.join(out_dir, f"{shape_name}.{split}.data")
        write_split(paths[split], X)
    return paths


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--shape", choices=sorted(SHAPES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the split files")
    args = p.parse_args()
    for split, path in write_splits(args.shape, args.seed, args.out).items():
        print(split, path)


if __name__ == "__main__":
    main()

"""The benchmark's workloads: which data shape each uses and which call it times.

The two workloads stress different layers, and each bypasses the other's,
so a change to one layer should move one workload and leave the other alone:

- plants-greedy: many variables and many distinct rows, so ``greedy_add``
  (a scan over every unique row for every inactive candidate) dominates.
  Two iterations, so the run includes one exchange that is used and the
  final one that is not. The rejection sampler is bypassed.
- msnbc-sweep: 291k rows but only a few thousand distinct ones, run through
  the CLI with a process pool, where every cell re-reads and re-compresses
  the split files. Text parsing, ``np.unique`` compression and the pool are
  the layers here; learning is cut to two iterations so they stay visible,
  and the rejection cells still run the sampler in one used exchange.

A third workload, nltcs-rejection (16 variables, 30 rejection iterations),
was dropped: on a 2-core host whose speed drifted by about 30% within
minutes, its 3-5 s calls could not be made steady within the time budget.
"""

from __future__ import annotations

JOBS = 2  # at most this many pool workers, and never more than the CPUs

# every benchmark process pins these to 1 before it imports numpy, so float
# reductions do not depend on how many BLAS threads the machine offers
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = {
    "plants-greedy": {
        "shape": "plants",
        "config": {"extra_edges": 0, "exchange_size": 10, "heuristic": "greedy", "max_iter": 2},
    },
    "msnbc-sweep": {
        "shape": "msnbc",
        "sweep": "m=0,15;k=5,10;h=greedy,rejection",
        "cells": 8,
        "max_iter": 2,
    },
}

"""Small shared helpers: RNG streams, the worker count, connected components,
the chain-length settings, the CSV and JSON writers.

This module imports no numpy, so that a command that only reads and writes
files (``report``) starts without it.

Reproducibility rule used throughout the package: a run owns one integer
seed; independent tasks (Monte Carlo draws, chains, cross-validation folds)
receive child streams via ``numpy.random.SeedSequence(seed).spawn(n)``, so
results do not depend on scheduling or worker count.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass

from .errors import ConfigError

THREADS_ENV = "STRANDGP_THREADS"


def worker_count() -> int:
    """Number of worker threads for parallel sections: the positive integer
    in ``STRANDGP_THREADS``, 1 when it is unset.

    Raises:
        ConfigError: the variable holds anything but a positive integer.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return n


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length and thinning.

    The chain runs ``n_iterations`` iterations, adapts its proposal scales
    during the first ``burn_in`` of them, and stores every ``thin``-th draw
    after that.  The tuning policy itself (window length and acceptance
    band) is fixed: see ``tmcmc._Adaptation``.
    """

    n_iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_iterations < 0 or self.burn_in < 0:
            raise ValueError("iteration counts must be nonnegative")
        if self.burn_in > self.n_iterations:
            raise ValueError("burn_in may not exceed n_iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_stored(self) -> int:
        """The number of draws a chain stores."""
        return (self.n_iterations - self.burn_in) // self.thin


def spawn_rngs(seed, n: int) -> list:
    """Derive ``n`` independent numpy generators from one seed via
    SeedSequence.spawn."""
    import numpy as np

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def connected_components(n: int, edges) -> list:
    """Connected components of the graph on nodes 0..n-1 with the given
    (a, b) edges, as numpy index arrays.  Each component's nodes ascend, and
    components are ordered by their smallest node."""
    import numpy as np

    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = root(a), root(b)
        # the smaller root wins, so each root is its component's smallest node
        parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([root(a) for a in range(n)], dtype=np.intp)
    # Each root is its own parent; listed in ascending order without
    # np.unique, whose first call imports numpy.ma.
    return [np.flatnonzero(roots == r) for r in range(n) if parent[r] == r]


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV of ``header`` and ``rows``.  Floats (Python or numpy)
    are written as ``repr(float(v))``, which reads back to the same double."""
    # No numpy float can exist before numpy is imported.
    numpy = sys.modules.get("numpy")
    floats = (float, numpy.floating) if numpy is not None else float
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, floats) else v
                          for v in row] for row in rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2, keys sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

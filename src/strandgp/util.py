"""Small shared helpers: RNG streams, the worker count, connected components,
the CSV and JSON writers.

Reproducibility rule used throughout the package: a run owns one integer
seed; independent tasks (Monte Carlo draws, chains, cross-validation folds)
receive child streams via ``numpy.random.SeedSequence(seed).spawn(n)``, so
results do not depend on scheduling or worker count.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

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


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one seed via SeedSequence.spawn."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def connected_components(n: int, edges) -> list[np.ndarray]:
    """Connected components of the graph on nodes 0..n-1 with the given
    (a, b) edges.  Each component's nodes ascend, and components are ordered
    by their smallest node."""
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
    return [np.flatnonzero(roots == r) for r in np.unique(roots)]


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV of ``header`` and ``rows``.  Floats (Python or numpy)
    are written as ``repr(float(v))``, which reads back to the same double."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2, keys sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

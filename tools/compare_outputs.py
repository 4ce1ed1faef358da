"""Check that two source trees write byte-identical outputs on the benchmark's workloads.

Usage (from any directory):

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed N]

Each tree is a checkout of this repository.  For every workload of
``perfbench/workloads.py``, the inputs are made once from the seed with
PARENT_TREE's code and copied for each tree.  Each tree then runs the
workload's strandgp commands on its own copy, in subprocesses with one BLAS
thread.  Every file of the two copies is compared by SHA-256, except the
wall-time line of ``fit.log``.  Prints one line per file, with how many
numeric cells moved and by how much where a CSV or JSON file differs, and
exits 1 when a command fails or any file differs.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported here or in any command's subprocess.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STRANDGP_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

WALL_TIME_PREFIX = b"wall_time_seconds="


def digest(path):
    """SHA-256 of a file; fit.log is hashed without its wall-time line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "fit.log":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(WALL_TIME_PREFIX))
    return hashlib.sha256(data).hexdigest()


def digests(root):
    """Relative path -> SHA-256 of every file under ``root``."""
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            out[os.path.relpath(path, root)] = digest(path)
    return out


def cells(path):
    """(row, column name) -> text of a CSV file, or (dotted key path,) -> leaf
    of a JSON file: the last item of a key names its column or JSON key."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".csv"):
            header, *rows = csv.reader(fh)
            return {(r, name): text for r, row in enumerate(rows) for name, text in zip(header, row)}
        out, stack = {}, [((), json.load(fh))]
        while stack:
            key, value = stack.pop()
            if isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                stack.extend((key + (k,), v) for k, v in items)
            else:
                out[(".".join(map(str, key)),)] = value
        return out


def as_number(value):
    """The float a cell holds, or None for text, booleans and nulls."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def describe_change(parent, change):
    """How two versions of a CSV or JSON file differ, cell by cell: the
    count of numeric cells that moved, in which columns or keys, and the
    largest absolute move, and the count of other cells that differ; None for
    other files."""
    if not parent.endswith((".csv", ".json")) or not os.path.exists(change):
        return None
    before, after = cells(parent), cells(change)
    moved, largest, other, fields = 0, 0.0, 0, set()
    for key in before.keys() | after.keys():
        a, b = before.get(key), after.get(key)
        if a == b:
            continue
        fields.add(str(key[-1]))
        x, y = as_number(a), as_number(b)
        if x is None or y is None:
            other += 1
        else:
            moved, largest = moved + 1, max(largest, abs(x - y))
    return (f"{moved} numeric cells moved, largest by {largest:.3g}; {other} other cells differ; "
            f"in {', '.join(sorted(fields))}")


def run_commands(tree, workload, workdir):
    """Run the workload's commands with ``tree``'s sources; returns the
    failed commands with the end of their error output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    failed = []
    for argv in workload.commands(workdir):
        result = subprocess.run([sys.executable, "-m", "strandgp.cli", *argv],
                                capture_output=True, env=env, cwd=tree)
        if result.returncode != 0:
            tail = result.stderr.decode(errors="replace").strip()[-2000:]
            failed.append(f"strandgp {argv[0]} exited {result.returncode}:\n{tail}")
    return failed


def compare_workload(workload, trees, scratch):
    """Problems found for one workload: failed commands and differing files."""
    name = workload.name
    inputs = os.path.join(scratch, name, "inputs")
    os.makedirs(inputs)
    workload.setup(inputs)
    problems, found, workdirs = [], {}, {}
    for label, tree in trees.items():
        workdir = workdirs[label] = os.path.join(scratch, name, label)
        shutil.copytree(inputs, workdir)
        problems += [f"{name}: {label}: {p}" for p in run_commands(tree, workload, workdir)]
        found[label] = digests(workdir)
    parent, change = found.values()
    for path in sorted(set(parent) | set(change)):
        if parent.get(path) == change.get(path):
            print(f"{name}: {path}: same")
            continue
        detail = path in parent and describe_change(*(os.path.join(d, path) for d in workdirs.values()))
        print(f"{name}: {path}: DIFFERENT" + (f" ({detail})" if detail else ""))
        problems.append(f"{name}: {path} differs")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "src", "strandgp", "cli.py")):
            parser.error(f"no strandgp sources under {tree}")
    # The inputs are made by the parent tree's benchmark and program code.
    sys.path[:0] = [os.path.join(trees["parent"], "src"), os.path.join(trees["parent"], "perfbench")]
    from workloads import WORKLOADS

    problems = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        for workload in WORKLOADS.values():
            problems += compare_workload(workload(args.seed), trees, scratch)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"seed {args.seed}: {'outputs differ' if problems else 'all outputs byte-identical'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

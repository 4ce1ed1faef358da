"""Check that two source trees write byte-identical outputs on the benchmark's workloads.

Usage (from any directory):

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed N]

Each tree is a checkout of this repository.  For every workload of
``perfbench/workloads.py``, the inputs are made once from the seed with
PARENT_TREE's code and copied for each tree.  Each tree then runs the
workload's strandgp commands on its own copy, in subprocesses with one BLAS
thread.  Every file of the two copies is compared by SHA-256, except the
wall-time line of ``fit.log``.  Prints one line per file and exits 1 when a
command fails or any file differs.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported here or in any command's subprocess.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STRANDGP_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
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
    problems, found = [], {}
    for label, tree in trees.items():
        workdir = os.path.join(scratch, name, label)
        shutil.copytree(inputs, workdir)
        problems += [f"{name}: {label}: {p}" for p in run_commands(tree, workload, workdir)]
        found[label] = digests(workdir)
    parent, change = found.values()
    for path in sorted(set(parent) | set(change)):
        same = parent.get(path) == change.get(path)
        print(f"{name}: {path}: {'same' if same else 'DIFFERENT'}")
        if not same:
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

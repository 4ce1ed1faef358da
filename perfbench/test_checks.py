"""The benchmark's output checks accept real outputs and reject corrupted copies.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py

Each fixture produces real strandgp outputs on small inputs made the way the
workloads make theirs; each test checks the real output, then one corrupted
copy.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from strandgp.cli import main  # noqa: E402


def _run(workload, workdir):
    workload.setup(str(workdir))
    for argv in workload.commands(str(workdir)):
        assert main(argv) == 0, argv
    return workload


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(workloads, "FIT_SHAPE", dict(m=24, n=10, k=3))
    monkeypatch_module.setattr(workloads, "FIT_CHAIN", dict(iterations=80, burn_in=20, thin=1))
    workdir = tmp_path_factory.mktemp("fit")
    return _run(workloads.FitStudy(3), workdir), workdir


@pytest.fixture(scope="module")
def decide_run(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(workloads, "DECIDE_SHAPE", dict(m=30, n=12, k=3))
    monkeypatch_module.setattr(workloads, "DECIDE_PLANTED", dict(planted=8, signal=1.25))
    monkeypatch_module.setattr(workloads, "DECIDE_DRAWS", 2000)
    monkeypatch_module.setattr(workloads, "DECIDE_TESTING",
                               dict(prior_correlation_draws=1000, prior_psi_draws=200))
    workdir = tmp_path_factory.mktemp("decide")
    return _run(workloads.DecideStudy(4), workdir), workdir


@pytest.fixture(scope="module")
def loo_run(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(workloads, "LOO_SHAPE", dict(m=20, n=10, k=2))
    monkeypatch_module.setattr(workloads, "LOO_CHAIN",
                               dict(iterations=200, burn_in=100, thin=5, per_state=2))
    monkeypatch_module.setattr(workloads, "LOO_FOLDS", (0, 5))
    workdir = tmp_path_factory.mktemp("loo")
    return _run(workloads.LooMid(5), workdir), workdir


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def _corrupt_csv(path, row, column, value):
    rows = checks.read_dict_rows(path)
    rows[row][column] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_log_posterior_check_rejects_a_perturbed_draw(fit_run):
    workload, workdir = fit_run
    assert workload.check(str(workdir)) == []
    _, names, z, strands = workload.inputs(str(workdir))
    draws, _ = checks.read_samples_file(os.path.join(workdir, "out", "samples.bin"))
    with open(os.path.join(workdir, "out", "manifest.json"), encoding="utf-8") as fh:
        priors = json.load(fh)["priors"]
    pair = workload._distant_pair(draws)
    values = workload._program_log_target(str(workdir), pair)
    assert checks.check_log_posterior(pair, values, z, names, strands, priors) == []
    perturbed = (pair[0] + np.where(np.arange(pair[0].size) == 0, 1e-4, 0.0), pair[1])
    assert checks.check_log_posterior(perturbed, values, z, names, strands, priors)


def test_chain_check_rejects_a_truncated_chain(fit_run):
    workload, workdir = fit_run
    _, names, _, strands = workload.inputs(str(workdir))
    draws, meta = checks.read_samples_file(os.path.join(workdir, "out", "samples.bin"))
    assert checks.check_chain(draws[:-1], meta, names, strands, **workloads.FIT_CHAIN)


def _chain_and_log_posteriors(workload, workdir):
    _, names, z, strands = workload.inputs(str(workdir))
    draws, _ = checks.read_samples_file(os.path.join(workdir, "out", "samples.bin"))
    with open(os.path.join(workdir, "out", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    post = workloads.FIT_CHAIN["iterations"] - workloads.FIT_CHAIN["burn_in"]
    return draws.copy(), (z, names, strands, manifest["priors"]), manifest["acceptance_rate"], post


def test_move_check_rejects_a_move_no_sampler_accepts(fit_run):
    workload, workdir = fit_run
    draws, model, rate, post = _chain_and_log_posteriors(workload, workdir)
    lp = workload._chain_log_posteriors(draws, *model)
    assert checks.check_accepted_moves(draws, lp, rate, post) == []
    # Inside a run of three equal rows, move the middle one far into the
    # tails: the chain now "accepts" a move down by far more than 40.
    t = next(t for t in range(1, len(draws) - 1)
             if np.array_equal(draws[t - 1], draws[t]) and np.array_equal(draws[t], draws[t + 1]))
    draws[t, :len(model[1])] += 5.0
    lp = workload._chain_log_posteriors(draws, *model)
    problems = checks.check_accepted_moves(draws, lp, rate, post)
    assert any("lowers the log posterior" in p for p in problems), problems


def test_move_check_rejects_a_chain_that_never_moves(fit_run):
    workload, workdir = fit_run
    draws, model, rate, post = _chain_and_log_posteriors(workload, workdir)
    frozen = np.repeat(draws[:1], len(draws), axis=0)
    lp = workload._chain_log_posteriors(frozen, *model)
    assert checks.check_accepted_moves(frozen, lp, 0.0, post)
    lp = workload._chain_log_posteriors(draws, *model)
    assert checks.check_accepted_moves(draws, lp, rate + 3.0 / post, post)


def test_decision_check_rejects_an_infeasible_empty_result(decide_run, tmp_path):
    workload, workdir = decide_run
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    path = os.path.join(copy, "out", "decisions.csv")
    for i, r in enumerate(checks.read_dict_rows(path)):
        if r["decision"] == "1":
            _corrupt_csv(path, i, "decision", "0")
            _corrupt_csv(path, i, "direction", "")
    summary_path = os.path.join(copy, "out", "decisions_summary.json")
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.update(feasible=False, n_discoveries=0, posterior_fdr=0.0, beta=float("nan"))
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    problems = workload.check(str(copy))
    assert any(p.startswith("decisions: feasible=False") for p in problems), problems


def test_decision_check_rejects_one_flipped_decision(decide_run, tmp_path):
    workload, workdir = decide_run
    assert workload.check(str(workdir)) == []
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    path = os.path.join(copy, "out", "decisions.csv")
    rows = checks.read_dict_rows(path)
    with open(os.path.join(copy, "out", "decisions_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["feasible"] and summary["n_discoveries"] >= 1
    flip = next(i for i, r in enumerate(rows) if r["decision"] == "1")
    _corrupt_csv(path, flip, "decision", "0")
    _corrupt_csv(path, flip, "direction", "")
    # Keep the summary consistent with the edited column, so that only the
    # single-flip optimality check can notice.
    d = np.array([int(r["decision"]) for r in rows])
    d[flip] = 0
    draws, _ = checks.read_samples_file(os.path.join(copy, "samples.bin"))
    v = (np.abs(draws[:, :len(rows)]) > 1.0).mean(axis=0)
    summary["n_discoveries"] -= 1
    summary["posterior_fdr"] = float(np.sum(d * (1.0 - v)) / max(d.sum(), 1))
    with open(os.path.join(copy, "out", "decisions_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    problems = workload.check(str(copy))
    assert any(p.startswith("decisions: flipping") for p in problems), problems


def test_lrbh_check_rejects_one_edited_p_value(decide_run, tmp_path):
    workload, workdir = decide_run
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    path = os.path.join(copy, "out", "lrbh.csv")
    rows = checks.read_dict_rows(path)
    # Make the largest p-value the smallest: step-up must now reject it.
    target = max(range(len(rows)), key=lambda i: float(rows[i]["p_value"]))
    assert rows[target]["rejected"] == "0"
    _corrupt_csv(path, target, "p_value", "1e-12")
    problems = workload.check(str(copy))
    assert any(p.startswith("lrbh:") for p in problems)


def test_comparison_check_rejects_a_wrong_label(decide_run, tmp_path):
    workload, workdir = decide_run
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    path = os.path.join(copy, "out", "comparison.csv")
    rows = checks.read_dict_rows(path)
    _corrupt_csv(path, 0, "method", "LRBH" if rows[0]["method"] != "LRBH" else "NMD")
    problems = workload.check(str(copy))
    assert any(p.startswith("comparison:") for p in problems)


def test_cv_check_rejects_one_flipped_coverage_flag(loo_run, tmp_path):
    workload, workdir = loo_run
    assert workload.check(str(workdir)) == []
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    patients, _, _, _ = workload.inputs(str(copy))
    path = os.path.join(copy, "out", f"cv_{patients[workloads.LOO_FOLDS[0]]}.csv")
    rows = checks.read_dict_rows(path)
    _corrupt_csv(path, 0, "covered", "0" if rows[0]["covered"] == "1" else "1")
    problems = workload.check(str(copy))
    assert any("covered flags" in p for p in problems)


def test_benjamini_hochberg_worked_example():
    p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.212, 0.216]
    assert checks.benjamini_hochberg(p, 0.05).tolist() == [True, True] + [False] * 8
    assert checks.benjamini_hochberg(p, 0.20).sum() == 7

"""The three workloads: how each makes its inputs from a seed, the strandgp
commands of one round, and the checks of their outputs.

Inputs are written by the benchmark; the program only ever sees the files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks

# The program's own seed ([run] seed) is the same in every run: the cost of
# the prior Monte Carlo depends on the hyperparameters it draws, so only the
# inputs vary with the benchmark's --seed.
PROGRAM_SEED = 1

# fit-study: the paper's shape (522 units, 18 patients, 46 strands, 10%
# multi-locus units -> 574 loci) and a short chain, every post-burn-in state
# stored so that each accepted move can be checked.
FIT_SHAPE = dict(m=522, n=18, k=46)
FIT_CHAIN = dict(iterations=150, burn_in=50, thin=1)

# decide-study: the study's loci density (574 loci on 46 strands; here 127
# on 10, with 10% multi-locus units) at 116 units, with planted effects near the |psi| = 1
# threshold so that the FDR calibration has real work to do.
DECIDE_SHAPE = dict(m=116, n=18, k=10)
DECIDE_PLANTED = dict(planted=24, signal=1.25)
DECIDE_DRAWS = 10_000
DECIDE_TESTING = dict(prior_correlation_draws=1000, prior_psi_draws=1000)
# The default smoothness prior (variance 100) fails PD certification on more
# than 1% of prior draws at this loci density; 4.0 gives none (see README).
DECIDE_NU_VARIANCE = 4.0
TARGET_FDR, FDR_TOLERANCE, LRBH_Q = 0.10, 0.005, 0.10

# loo-mid: criterion 8's generator settings at m = 150, k = 13.  The chain
# keeps the [cv] defaults' ratio of about one predictive draw per 15
# iterations (thin 10, one draw per stored state, burn-in about a third), so
# the predictive composition weighs in each fold as it does in the program's
# own use.
LOO_SHAPE = dict(m=150, n=18, k=13)
LOO_GENERATOR = dict(psi_mode="gp", varrho2=2.0, nu=1.5, rho_fraction=0.3, delta2=1.0)
LOO_CHAIN = dict(iterations=1000, burn_in=300, thin=10, per_state=1)
LOO_FOLDS = (0, 6, 12)
LOO_LEVEL = 0.75
# Fold-to-fold variance of coverage over the binomial variance of one fold's
# m flags: 22 on 180 folds of the datasets of seeds 1-20 (300-iteration
# chains) and 20 on 90 folds of seeds 1-10 (these chains); README,
# "Coverage band".
LOO_DESIGN_EFFECT = 22.0


def _write_config(path, sections):
    lines = ["[data]", "case = data/case.csv", "control = data/control.csv",
             "annotation = data/annotation.csv", "output_dir = out"]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """One workload: ``setup`` writes the inputs into a directory,
    ``commands`` lists the strandgp argument vectors of one round (run in
    order), ``check`` returns the problems found in the round's outputs."""

    name = ""
    iterations = 0  # sampler iterations of one ``fit`` (fit-study only)

    def __init__(self, seed):
        self.seed = seed

    def simulate(self, **kwargs):
        from strandgp import simulate

        # Looked up on the module so the traced run sees the call.
        return simulate.simulate_dataset(seed=self.seed, **kwargs)

    def write_data(self, sim, workdir):
        from strandgp.simulate import write_simulated

        write_simulated(sim, os.path.join(workdir, "data"))

    def setup(self, workdir):
        raise NotImplementedError

    def commands(self, workdir):
        raise NotImplementedError

    def check(self, workdir):
        raise NotImplementedError

    def inputs(self, workdir):
        data = os.path.join(workdir, "data")
        patients, names, z = checks.read_z(os.path.join(data, "case.csv"),
                                           os.path.join(data, "control.csv"))
        strands = checks.read_strands(os.path.join(data, "annotation.csv"))
        return patients, names, z, strands


class FitStudy(Workload):
    name = "fit-study"
    iterations = FIT_CHAIN["iterations"]

    def setup(self, workdir):
        self.write_data(self.simulate(**FIT_SHAPE), workdir)
        _write_config(os.path.join(workdir, "run.ini"), {
            "sampler": {k: FIT_CHAIN[k] for k in ("iterations", "burn_in", "thin")},
            "run": {"seed": PROGRAM_SEED},
        })

    def commands(self, workdir):
        return [["fit", "--config", os.path.join(workdir, "run.ini")]]

    def check(self, workdir):
        _, names, z, strands = self.inputs(workdir)
        out = os.path.join(workdir, "out")
        draws, meta = checks.read_samples_file(os.path.join(out, "samples.bin"))
        problems = checks.check_chain(draws, meta, names, strands, **FIT_CHAIN)
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        problems += checks.check_manifest_priors(manifest, z, strands)
        if problems:
            return problems
        pair = self._distant_pair(draws)
        values = self._program_log_target(workdir, pair)
        problems = checks.check_log_posterior(pair, values, z, names, strands, manifest["priors"])
        if problems:
            return problems
        return checks.check_accepted_moves(
            draws, self._chain_log_posteriors(draws, z, names, strands, manifest["priors"]),
            manifest["acceptance_rate"], FIT_CHAIN["iterations"] - FIT_CHAIN["burn_in"])

    @staticmethod
    def _chain_log_posteriors(draws, z, names, strands, priors):
        """The benchmark's own log posterior at every row, evaluated once per
        run of equal rows."""
        values = np.empty(draws.shape[0])
        for t in range(draws.shape[0]):
            if t and np.array_equal(draws[t], draws[t - 1]):
                values[t] = values[t - 1]
            else:
                values[t] = checks.log_posterior(draws[t], z, names, strands, priors)
        return values

    @staticmethod
    def _distant_pair(draws):
        """First stored draw and the stored draw farthest from it."""
        far = int(np.argmax(np.abs(draws - draws[0]).sum(axis=1)))
        return draws[0].copy(), draws[far].copy()

    def _program_log_target(self, workdir, pair):
        from strandgp import (HyperPriorSpec, build_design_matrix, load_annotation,
                              load_expression, make_posterior_model)

        data = os.path.join(workdir, "data")
        dataset = load_expression(os.path.join(data, "case.csv"), os.path.join(data, "control.csv"))
        design = build_design_matrix(load_annotation(os.path.join(data, "annotation.csv")),
                                     dataset.mirna_names)
        priors = HyperPriorSpec.from_data(design, dataset.z)
        model = make_posterior_model(dataset.z, design, priors)
        return [model.log_target(x) for x in pair]


class DecideStudy(Workload):
    name = "decide-study"

    def setup(self, workdir):
        sim = self.simulate(psi_mode="planted", **DECIDE_SHAPE, **DECIDE_PLANTED)
        self.write_data(sim, workdir)
        self._write_chain(sim, os.path.join(workdir, "samples.bin"))
        _write_config(os.path.join(workdir, "run.ini"), {
            "priors": {"nu_variance": DECIDE_NU_VARIANCE},
            "testing": {"target_fdr": TARGET_FDR, "tolerance": FDR_TOLERANCE, **DECIDE_TESTING},
            "lrbh": {"q": LRBH_Q},
            "run": {"seed": PROGRAM_SEED},
        })

    def _write_chain(self, sim, path):
        """A stored chain whose psi columns are Gaussian around each unit's
        column mean with that column's standard error; the hyperparameter
        columns hold the generator's values."""
        rng = np.random.default_rng([self.seed, 1])
        z = sim.z
        n, m = z.shape
        strands = [s.strand_id for s in sim.annotation.strands]
        draws = np.empty((DECIDE_DRAWS, m + 3 * len(strands) + 1))
        se = z.std(axis=0, ddof=1) / math.sqrt(n)
        draws[:, :m] = z.mean(axis=0) + se * rng.standard_normal((DECIDE_DRAWS, m))
        h = sim.hypers[0]
        for i, value in enumerate((h.varrho2, h.nu, h.rho)):
            draws[:, m + i * len(strands):m + (i + 1) * len(strands)] = math.log(value)
        draws[:, -1] = 0.0
        names = checks.column_names(sim.mirna_names, strands)
        checks.write_samples_file(path, names, draws, {"m": m})

    def commands(self, workdir):
        config = os.path.join(workdir, "run.ini")
        return [["test", "--config", config, "--samples", os.path.join(workdir, "samples.bin")],
                ["lrbh", "--config", config],
                ["report", "--config", config]]

    def check(self, workdir):
        _, names, z, _ = self.inputs(workdir)
        out = os.path.join(workdir, "out")
        draws, _ = checks.read_samples_file(os.path.join(workdir, "samples.bin"))
        decisions = checks.read_dict_rows(os.path.join(out, "decisions.csv"))
        with open(os.path.join(out, "decisions_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        lrbh = checks.read_dict_rows(os.path.join(out, "lrbh.csv"))
        comparison = checks.read_dict_rows(os.path.join(out, "comparison.csv"))
        return (checks.check_decisions(decisions, summary, draws[:, :len(names)],
                                       TARGET_FDR, FDR_TOLERANCE)
                + checks.check_lrbh(lrbh, z, names, LRBH_Q)
                + checks.check_comparison(comparison, decisions, lrbh))


class LooMid(Workload):
    name = "loo-mid"

    def setup(self, workdir):
        self.write_data(self.simulate(**LOO_SHAPE, **LOO_GENERATOR), workdir)
        _write_config(os.path.join(workdir, "run.ini"), {
            "cv": {**LOO_CHAIN, "level": LOO_LEVEL},
            "run": {"seed": PROGRAM_SEED},
        })

    def commands(self, workdir):
        return [["cv", "--config", os.path.join(workdir, "run.ini"),
                 "--folds", ",".join(map(str, LOO_FOLDS))]]

    def check(self, workdir):
        patients, _, z, _ = self.inputs(workdir)
        out = os.path.join(workdir, "out")
        with open(os.path.join(out, "cv_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        expected = [patients[j] for j in LOO_FOLDS]
        if summary["folds"] != expected:
            return [f"cv: folds {summary['folds']}, expected {expected}"]
        fold_rows = {pid: checks.read_dict_rows(os.path.join(out, f"cv_{pid}.csv"))
                     for pid in expected}
        band = checks.coverage_band(len(LOO_FOLDS) * LOO_SHAPE["m"], LOO_LEVEL, LOO_DESIGN_EFFECT)
        return checks.check_cv(fold_rows, summary, z, patients, LOO_LEVEL, band)


WORKLOADS = {w.name: w for w in (FitStudy, DecideStudy, LooMid)}

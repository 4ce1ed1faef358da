"""Per-layer tracing for the in-process run.

The program is not modified: while a ``Tracer`` is installed, the public
functions of each layer are replaced, at the module attribute their callers
look up, by wrappers that record call counts and wall time.  Spans are kept
in memory and turned into metrics per round.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
from strandgp.errors import NumericalError

# (module, attribute, span name).  A name is wrapped in every module that
# looks it up, so e.g. ``run_chain`` is seen from both ``cli`` and ``crossval``.
WRAPPED = [
    ("strandgp.simulate", "simulate_dataset", "simulate.simulate_dataset"),
    ("strandgp.cli", "load_expression", "data.load"),
    ("strandgp.cli", "load_annotation", "data.load"),
    ("strandgp.cli", "build_design_matrix", "data.load"),
    ("strandgp.cli", "write_samples", "cli.write_samples"),
    ("strandgp.cli", "read_samples", "cli.read_samples"),
    ("strandgp.cli", "make_posterior_model", "priors.make_posterior_model"),
    ("strandgp.crossval", "make_posterior_model", "priors.make_posterior_model"),
    ("strandgp.cli", "draw_prior_psi", "priors.draw_prior_psi"),
    ("strandgp.kernels", "prior_cov_psi", "kernels.prior_cov_psi"),
    ("strandgp.cli", "estimate_prior_correlation", "kernels.estimate_prior_correlation"),
    ("strandgp.cli", "run_chain", "tmcmc.run_chain"),
    ("strandgp.crossval", "run_chain", "crossval.fold_chain"),
    ("strandgp.crossval", "predictive_draws", "crossval.predictive_draws"),
    ("strandgp.cli", "form_groups", "decisions.form_groups"),
    ("strandgp.cli", "calibrate_beta", "decisions.calibrate_beta"),
    ("strandgp.decisions", "optimize_decisions", "decisions.optimize_decisions"),
    ("strandgp.cli", "build_decision_report", "decisions.build_decision_report"),
    ("strandgp.cli", "run_baseline", "lrbh.run_baseline"),
]


class Tracer:
    """Spans (name -> list of durations) and counters for one round."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = {}
        self.counts = {"log_target.neg_inf": 0, "prior_cov_psi.failed": 0,
                       "chain.proposed": 0, "chain.accepted": 0,
                       "predictive.draws": 0, "folds": 0,
                       "largest_component": 0, "inexact_components": 0}
        self.log_target_total = 0.0
        self.chain_log_target = 0.0

    def add(self, name, seconds):
        self.spans.setdefault(name, []).append(seconds)

    def total(self, name):
        return math.fsum(self.spans.get(name, ()))

    def calls(self, name):
        return len(self.spans.get(name, ()))

    def quantile_ms(self, name, q):
        values = self.spans.get(name)
        return 1e3 * float(np.quantile(values, q)) if values else 0.0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, span, fn):
        tracer = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NumericalError:
                if span == "kernels.prior_cov_psi":
                    tracer.counts["prior_cov_psi.failed"] += 1
                raise
            finally:
                tracer.add(span, time.perf_counter() - start)
            tracer._observe(span, args, kwargs, result)
            return result

        if span in ("tmcmc.run_chain", "crossval.fold_chain"):
            def chain(*args, **kwargs):
                before = tracer.log_target_total
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer.chain_log_target += tracer.log_target_total - before
            return chain
        return timed

    def _observe(self, span, args, kwargs, result):
        if span == "priors.make_posterior_model":
            result.log_target = self._wrap_log_target(result.log_target)
        elif span in ("tmcmc.run_chain", "crossval.fold_chain"):
            config = args[1] if len(args) > 1 else kwargs["config"]
            post = config.n_iterations - config.burn_in
            self.counts["chain.proposed"] += post
            self.counts["chain.accepted"] += round(result.acceptance_rate * post)
            if span == "crossval.fold_chain":
                self.counts["folds"] += 1
        elif span == "crossval.predictive_draws":
            self.counts["predictive.draws"] += result.shape[0]
        elif span == "decisions.optimize_decisions":
            sizes = [c.indices.size for c in result.components]
            self.counts["largest_component"] = max(sizes)
            self.counts["inexact_components"] = sum(not c.exact for c in result.components)

    def _wrap_log_target(self, fn):
        tracer = self

        def log_target(x):
            start = time.perf_counter()
            value = fn(x)
            elapsed = time.perf_counter() - start
            tracer.add("priors.log_target", elapsed)
            tracer.log_target_total += elapsed
            if value == -math.inf:
                tracer.counts["log_target.neg_inf"] += 1
            return value
        return log_target

    @contextmanager
    def installed(self):
        """Replace every wrapped attribute; restore the originals on exit."""
        import importlib

        saved = []
        try:
            for module_name, attr, span in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- metrics -------------------------------------------------------------

    def round_metrics(self, command_seconds, iterations, samples_mb):
        """Per-layer metrics of one round; ``command_seconds`` maps command ->
        in-process wall time."""
        c = self.counts
        chain_s = self.total("tmcmc.run_chain") + self.total("crossval.fold_chain")
        folds = c["folds"]
        draws = c["predictive.draws"]
        return {
            "simulate.simulate_dataset_s": self.total("simulate.simulate_dataset"),
            "data.load_s": self.total("data.load"),
            "cli.write_samples_s": self.total("cli.write_samples"),
            "cli.read_samples_s": self.total("cli.read_samples"),
            "cli.samples_mb": samples_mb,
            "cli.fit_ms_per_iter": 1e3 * command_seconds.get("fit", 0.0) / iterations if iterations else 0.0,
            "cli.test_s": command_seconds.get("test", 0.0),
            "cli.lrbh_s": command_seconds.get("lrbh", 0.0),
            "cli.report_s": command_seconds.get("report", 0.0),
            "cli.cv_fold_s": command_seconds.get("cv", 0.0) / folds if folds else 0.0,
            "cli.round_s": math.fsum(command_seconds.values()),
            "priors.make_posterior_model_s": self.total("priors.make_posterior_model"),
            "priors.log_target.calls": self.calls("priors.log_target"),
            "priors.log_target.p50_ms": self.quantile_ms("priors.log_target", 0.5),
            "priors.log_target.p99_ms": self.quantile_ms("priors.log_target", 0.99),
            "priors.log_target.neg_inf": c["log_target.neg_inf"],
            "priors.draw_prior_psi_s": self.total("priors.draw_prior_psi"),
            "kernels.prior_cov_psi.calls": self.calls("kernels.prior_cov_psi"),
            "kernels.prior_cov_psi.p50_ms": self.quantile_ms("kernels.prior_cov_psi", 0.5),
            "kernels.prior_cov_psi.p99_ms": self.quantile_ms("kernels.prior_cov_psi", 0.99),
            "kernels.prior_cov_psi.failed": c["prior_cov_psi.failed"],
            "kernels.estimate_prior_correlation_s": self.total("kernels.estimate_prior_correlation"),
            "tmcmc.run_chain_s": chain_s,
            "tmcmc.self_s": chain_s - self.chain_log_target,
            "tmcmc.acceptance": c["chain.accepted"] / c["chain.proposed"] if c["chain.proposed"] else 0.0,
            "decisions.form_groups_s": self.total("decisions.form_groups"),
            "decisions.calibrate_beta_s": self.total("decisions.calibrate_beta"),
            "decisions.optimize_decisions.calls": self.calls("decisions.optimize_decisions"),
            "decisions.optimize_decisions.p50_ms": self.quantile_ms("decisions.optimize_decisions", 0.5),
            "decisions.build_decision_report_s": self.total("decisions.build_decision_report"),
            "decisions.largest_component": c["largest_component"],
            "decisions.inexact_components": c["inexact_components"],
            "lrbh.run_baseline_s": self.total("lrbh.run_baseline"),
            "crossval.fold_chain_s": self.total("crossval.fold_chain") / folds if folds else 0.0,
            "crossval.predictive_draws_s": self.total("crossval.predictive_draws") / folds if folds else 0.0,
            "crossval.predictive_ms_per_draw":
                1e3 * self.total("crossval.predictive_draws") / draws if draws else 0.0,
        }


def median_metrics(rounds):
    """Per-metric median over rounds."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}

"""strandgp: strand-blocked Gaussian-process modelling and Bayesian multiple
testing for paired differential-expression data.

The pipeline: ingest paired case/control tables and a genome annotation,
place a Matern Gaussian-process prior (independent across chromosome
strands) on the latent differential effects, sample the marginalized
posterior with an additive transformation-based MCMC, and decide which
units are deregulated with a group-coupled decision rule calibrated to a
posterior false-discovery-rate target.  A likelihood-ratio bootstrap with
Benjamini-Hochberg adjustment serves as the comparison baseline, and
leave-one-out posterior predictive checks validate the fit.
"""

__version__ = "0.1.0"

# Every exported name, by the module that defines it.  A name is imported on
# first use (PEP 562), so importing the package, or one command of
# ``strandgp.cli``, loads only the modules that are used.
_EXPORTS = {
    "crossval": ("PredictiveSummary", "overall_coverage", "run_loo"),
    "data": ("DesignMatrix", "ExpressionDataset", "GenomeAnnotation", "StrandRecord",
             "build_design_matrix", "load_annotation", "load_expression", "write_expression"),
    "decisions": ("CalibrationResult", "DecisionReport", "GroupStructure", "bayes_factors",
                  "build_decision_report", "calibrate_beta", "form_groups",
                  "hypothesis_indicators", "marginal_probs", "optimize_decisions",
                  "posterior_fdr", "posterior_fnr"),
    "errors": ("ConfigError", "DataError", "NumericalError", "StrandGPError"),
    "kernels": ("PriorCovariance", "StrandHyperParams", "estimate_prior_correlation",
                "prior_cov_psi"),
    "lrbh": ("BaselineReport", "LrResult", "bh_adjust", "bootstrap_pvalue", "lr_stat",
             "run_baseline"),
    "priors": ("HyperPriorSpec", "ModelState", "empirical_bayes_delta2", "make_posterior_model",
               "prior_exceedance", "solve_ig", "solve_lognormal"),
    "simulate": ("SimulatedData", "simulate_dataset", "write_simulated"),
    "tmcmc": ("PosteriorSamples", "TargetModel", "effective_sample_size", "export_trace",
              "run_chain", "run_chains", "tmcmc_step"),
    "util": ("SamplerConfig",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # kept out of the package's namespace

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

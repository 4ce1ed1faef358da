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

from .data import (
    DesignMatrix,
    ExpressionDataset,
    GenomeAnnotation,
    StrandRecord,
    build_design_matrix,
    load_annotation,
    load_expression,
    write_expression,
)
from .decisions import (
    CalibrationResult,
    DecisionReport,
    GroupStructure,
    bayes_factors,
    build_decision_report,
    calibrate_beta,
    form_groups,
    hypothesis_indicators,
    marginal_probs,
    optimize_decisions,
    posterior_fdr,
    posterior_fnr,
)
from .errors import ConfigError, DataError, NumericalError, StrandGPError
from .kernels import (
    PriorCovariance,
    StrandHyperParams,
    estimate_prior_correlation,
    prior_cov_psi,
)
from .lrbh import BaselineReport, LrResult, bh_adjust, bootstrap_pvalue, lr_stat, run_baseline
from .priors import (
    HyperPriorSpec,
    ModelState,
    empirical_bayes_delta2,
    make_posterior_model,
    prior_exceedance,
    solve_ig,
    solve_lognormal,
)
from .crossval import PredictiveSummary, loo_predictive, overall_coverage, run_loo
from .simulate import SimulatedData, simulate_dataset, write_simulated
from .tmcmc import (
    PosteriorSamples,
    SamplerConfig,
    TargetModel,
    effective_sample_size,
    export_trace,
    run_chain,
    run_chains,
    tmcmc_step,
)

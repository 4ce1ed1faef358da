"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget.

Criteria 1-8 are mandatory and self-contained (synthetic data only).
Criterion 9 reproduces externally reported study results and runs only when
the real dataset is supplied through environment variables (see
test_criterion_9_study_reproduction).
"""

import functools
import itertools
import math
import os
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from strandgp import (
    ExpressionDataset,
    GroupStructure,
    HyperPriorSpec,
    ModelState,
    SamplerConfig,
    StrandHyperParams,
    TargetModel,
    bh_adjust,
    bootstrap_pvalue,
    build_design_matrix,
    calibrate_beta,
    hypothesis_indicators,
    log_posterior,
    make_posterior_model,
    matern_cov,
    optimize_decisions,
    overall_coverage,
    prior_cov_psi,
    run_chain,
    run_loo,
    sample_psi_prior,
)
from strandgp.data import GenomeAnnotation, StrandRecord
from strandgp.simulate import simulate_dataset

mp.mp.dps = 40


def report(number, description, elapsed, limit, detail):
    print(f"\n[criterion {number}] PASS {description}: {detail} "
          f"({elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def criterion(number, description):
    """Print a FAIL line when a criterion's assertions do not hold."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number}] FAIL {description}")
                raise
        return inner
    return wrap


def make_design(spec, names):
    strands = tuple(StrandRecord(sid, length, tuple(loci)) for sid, length, loci in spec)
    return build_design_matrix(GenomeAnnotation(strands=strands), names)


# ---------------------------------------------------------------------------
# 1. Matern correctness
# ---------------------------------------------------------------------------

@criterion(1, "Matern nu=1/2 closed form and monotone decay")
def test_criterion_1_matern_closed_form():
    start = time.perf_counter()
    worst = 0.0
    # 100-point grid spanning the representable range of the closed form
    for ratio in np.geomspace(1e-4, 500.0, 10):
        for rho in np.geomspace(1.0, 1e5, 10):
            h = StrandHyperParams(1.7, 0.5, float(rho))
            got = matern_cov(float(ratio * rho), h)
            want = 1.7 * math.exp(-ratio)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-10

    for nu in (0.5, 1.1, 3.0, 12.0):
        h = StrandHyperParams(2.0, nu, 500.0)
        grid = np.linspace(0.0, 5000.0, 400)
        values = matern_cov(grid, h)
        assert np.all(np.diff(values) <= 1e-15)
    elapsed = time.perf_counter() - start
    report(1, "Matern nu=1/2 closed form and monotone decay", elapsed, 1.0,
           f"max rel err {worst:.2e} over 100-point grid")


# ---------------------------------------------------------------------------
# 2. Prior-covariance fidelity
# ---------------------------------------------------------------------------

@criterion(2, "prior-covariance fidelity from 50,000 draws")
def test_criterion_2_prior_covariance_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    spec = []
    names = []
    idx = 0
    for s, count in enumerate((7, 7, 6)):
        coords = np.sort(rng.uniform(10.0, 9000.0, size=count))
        loci = []
        for c in coords:
            loci.append((f"m{idx}", float(c)))
            names.append(f"m{idx}")
            idx += 1
        spec.append((f"Chr{s + 1}+", 1e4, loci))
    design = make_design(spec, names)
    hypers = [StrandHyperParams(2.0, 1.5, 3000.0),
              StrandHyperParams(1.0, 0.8, 2000.0),
              StrandHyperParams(3.0, 2.5, 4000.0)]
    pc = prior_cov_psi(design, hypers)
    draws = sample_psi_prior(pc, 50000, rng)
    sample_corr = np.corrcoef(draws.T)
    sd = np.sqrt(np.diag(pc.psi_cov))
    target_corr = pc.psi_cov / np.outer(sd, sd)
    worst = float(np.max(np.abs(sample_corr - target_corr)))
    assert worst < 0.02
    elapsed = time.perf_counter() - start
    report(2, "50,000 prior effect draws reproduce P W P^T", elapsed, 30.0,
           f"max entrywise correlation error {worst:.4f} on 20 units x 3 strands")


# ---------------------------------------------------------------------------
# 3. Marginalized-likelihood oracle
# ---------------------------------------------------------------------------

def _matern_mp(d, varrho2, nu, rho):
    if d == 0:
        return float(varrho2)
    x = mp.sqrt(2 * mp.mpf(nu)) * mp.mpf(d) / mp.mpf(rho)
    return float(mp.mpf(varrho2) * 2 ** (1 - mp.mpf(nu)) / mp.gamma(nu)
                 * x ** mp.mpf(nu) * mp.besselk(nu, x))


def _gamma_p(p, a):
    return (p * (p - 1) / 4) * math.log(math.pi) + sum(gammaln(a - j / 2) for j in range(p))


def _oracle_lp_m1(z_col, state, priors):
    n = z_col.size
    ups = priors.dof
    psi = float(state.psi[0])
    h = state.hypers[0]

    def integrand(log_s2):
        s2 = math.exp(log_s2)
        loglik = -n / 2 * math.log(2 * math.pi * s2) - np.sum((z_col - psi) ** 2) / (2 * s2)
        logprior = stats.invgamma.logpdf(s2, ups / 2, scale=state.delta2 / 2)
        return math.exp(loglik + logprior + log_s2)

    marginal, _ = integrate.quad(integrand, -25, 25, limit=400)
    lp = math.log(marginal)
    lp += stats.norm.logpdf(psi, 0.0, math.sqrt(h.varrho2))
    return lp + _oracle_hyperprior_terms(state, priors)


def _oracle_hyperprior_terms(state, priors):
    lp = 0.0
    a, b = priors.varrho2_prior
    mu_n, s_n = priors.nu_prior
    for h, (mu_r, s_r) in zip(state.hypers, priors.rho_priors):
        lp += stats.invgamma.logpdf(h.varrho2, a, scale=b)
        lp += stats.lognorm.logpdf(h.nu, s_n, scale=math.exp(mu_n))
        lp += stats.lognorm.logpdf(h.rho, s_r, scale=math.exp(mu_r))
    ad, bd = priors.delta2_prior
    return lp + stats.invgamma.logpdf(state.delta2, ad, scale=bd)


def _oracle_lp_m2(z, state, priors, coords):
    n, m = z.shape
    ups = priors.dof
    psi = state.psi
    h = state.hypers[0]
    centered = z - psi[None, :]
    s_dat = centered.T @ centered
    delta2 = state.delta2
    lognorm = ups * math.log(delta2) - ups * math.log(2.0) - _gamma_p(2, ups / 2)

    def f(t, la, lb):
        a_, b_ = math.exp(la), math.exp(lb)
        c = t * math.sqrt(a_ * b_)
        det = a_ * b_ * (1.0 - t * t)
        si = np.array([[b_, -c], [-c, a_]]) / det
        loglik = (-n * m / 2 * math.log(2 * math.pi) - n / 2 * math.log(det)
                  - 0.5 * float(np.einsum("ij,ji->", si, s_dat)))
        logprior = lognorm - (ups + 3) / 2 * math.log(det) - 0.5 * delta2 * float(np.trace(si))
        return math.exp(loglik + logprior + la + lb + 0.5 * (la + lb))

    marginal, _ = integrate.tplquad(f, -6, 6, -6, 6, -0.999999, 0.999999,
                                    epsabs=1e-9, epsrel=1e-6)
    lp = math.log(marginal)
    d = abs(coords[1] - coords[0])
    cov = np.array([
        [h.varrho2, _matern_mp(d, h.varrho2, h.nu, h.rho)],
        [_matern_mp(d, h.varrho2, h.nu, h.rho), h.varrho2],
    ])
    lp += stats.multivariate_normal(mean=np.zeros(2), cov=cov).logpdf(psi)
    return lp + _oracle_hyperprior_terms(state, priors)


@criterion(3, "marginalized-likelihood oracle")
def test_criterion_3_marginalized_likelihood_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)

    # m = 1, n = 3
    design1 = make_design([("Chr1+", 100.0, [("a", 30.0)])], ["a"])
    z1 = rng.normal(size=(3, 1))
    priors1 = HyperPriorSpec.from_data(design1, z1)
    states1 = [
        ModelState(psi=rng.normal(size=1),
                   hypers=(StrandHyperParams(float(rng.uniform(0.5, 2.5)),
                                             float(rng.uniform(0.6, 1.8)),
                                             float(rng.uniform(30.0, 90.0))),),
                   delta2=float(rng.uniform(0.6, 1.8)))
        for _ in range(3)
    ]
    lps1 = [log_posterior(s, z1, design1, priors1) for s in states1]
    oracle1 = [_oracle_lp_m1(z1[:, 0], s, priors1) for s in states1]
    worst = 0.0
    for i in range(1, len(states1)):
        got = lps1[i] - lps1[0]
        want = oracle1[i] - oracle1[0]
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-4

    # m = 2, n = 3 (one strand, two loci)
    coords = (20.0, 55.0)
    design2 = make_design([("Chr1+", 100.0, [("a", coords[0]), ("b", coords[1])])], ["a", "b"])
    z2 = rng.normal(size=(3, 2))
    priors2 = HyperPriorSpec.from_data(design2, z2)
    states2 = [
        ModelState(psi=rng.normal(size=2),
                   hypers=(StrandHyperParams(1.4, 1.1, 60.0),), delta2=1.2),
        ModelState(psi=rng.normal(size=2),
                   hypers=(StrandHyperParams(0.8, 0.7, 40.0),), delta2=0.7),
    ]
    lps2 = [log_posterior(s, z2, design2, priors2) for s in states2]
    oracle2 = [_oracle_lp_m2(z2, s, priors2, coords) for s in states2]
    got = lps2[1] - lps2[0]
    want = oracle2[1] - oracle2[0]
    rel2 = abs(got - want) / abs(want)
    assert rel2 < 1e-4
    elapsed = time.perf_counter() - start
    report(3, "log-posterior differences vs brute-force integration", elapsed, 60.0,
           f"worst rel err m=1: {worst:.2e}, m=2: {rel2:.2e}")


# ---------------------------------------------------------------------------
# 4. Sampler correctness
# ---------------------------------------------------------------------------

@criterion(4, "sampler distributional correctness")
def test_criterion_4_sampler_correctness():
    start = time.perf_counter()

    # (a) 10-D correlated Gaussian
    rng = np.random.default_rng(12)
    a = rng.normal(size=(10, 10))
    cov = a @ a.T + 5.0 * np.eye(10)
    mean = rng.normal(size=10)
    prec = np.linalg.inv(cov)

    def log_target(x):
        d = x - mean
        return -0.5 * float(d @ prec @ d)

    model = TargetModel(log_target=log_target, x0=mean.copy(),
                        names=[f"x{i}" for i in range(10)],
                        base_scales=np.sqrt(np.diag(cov)))
    cfg = SamplerConfig(n_iterations=400000, burn_in=50000, thin=1, seed=3)
    samples = run_chain(model, cfg)
    worst_z = 0.0
    for i in range(10):
        trace = samples.draws[:, i]
        mcse = trace.std() / math.sqrt(samples.ess(samples.names[i]))
        worst_z = max(worst_z, abs(trace.mean() - mean[i]) / mcse)
    assert worst_z < 3.0
    frob = np.linalg.norm(np.cov(samples.draws.T) - cov) / np.linalg.norm(cov)
    assert frob < 0.05

    # (b) prior-only sampling reproduces every hyperprior
    ann = GenomeAnnotation(strands=(StrandRecord("Chr1+", 100.0,
                                                 (("a", 20.0), ("b", 65.0))),))
    design = build_design_matrix(ann, ["a", "b"])
    z = np.random.default_rng(0).normal(size=(4, 2))
    priors = HyperPriorSpec.from_data(design, z)
    prior_model = make_posterior_model(z, design, priors, include_likelihood=False)
    prior_cfg = SamplerConfig(n_iterations=1100000, burn_in=100000, thin=10, seed=1)
    prior_samples = run_chain(prior_model, prior_cfg)
    assert prior_samples.n_draws == 100000

    a_v, b_v = priors.varrho2_prior
    mu_n, s_n = priors.nu_prior
    mu_r, s_r = priors.rho_priors[0]
    a_d, b_d = priors.delta2_prior
    checks = {
        "varrho2": (np.exp(prior_samples.trace("log_varrho2:Chr1+")),
                    stats.invgamma(a_v, scale=b_v)),
        "nu": (np.exp(prior_samples.trace("log_nu:Chr1+")),
               stats.lognorm(s_n, scale=math.exp(mu_n))),
        "rho": (np.exp(prior_samples.trace("log_rho:Chr1+")),
                stats.lognorm(s_r, scale=math.exp(mu_r))),
        "delta2": (np.exp(prior_samples.trace("log_delta2")),
                   stats.invgamma(a_d, scale=b_d)),
    }
    ks_stats = {}
    for name, (draws, dist) in checks.items():
        ks = stats.ks_1samp(draws, dist.cdf).statistic
        ks_stats[name] = float(ks)
        assert ks < 0.02, name
        for q in (0.10, 0.50, 0.90):
            # KS bound evaluated at the decile points themselves
            assert abs(dist.cdf(np.quantile(draws, q)) - q) < 0.02, (name, q)

    elapsed = time.perf_counter() - start
    detail = (f"10-D Gaussian worst |mean err|/mcse {worst_z:.2f}, Frobenius {frob:.3f}; "
              f"prior KS {max(ks_stats.values()):.4f} at 1e5 thinned draws")
    report(4, "sampler distributional correctness", elapsed, 300.0, detail)


# ---------------------------------------------------------------------------
# 5. Optimizer exactness
# ---------------------------------------------------------------------------

def _brute_force_max(indicators, groups, beta):
    """Fully independent exhaustive maximizer (direct masking per config)."""
    t, m = indicators.shape
    neighbors = [g[g != i] for i, g in enumerate(groups.groups)]
    best_d, best_f = None, -math.inf
    for bits in itertools.product([0, 1], repeat=m):
        f = 0.0
        for i in range(m):
            if not bits[i]:
                continue
            mask = indicators[:, i].copy()
            for j in neighbors[i]:
                mask &= indicators[:, j] == bool(bits[j])
            f += mask.mean() - beta
        if f > best_f:
            best_d, best_f = np.array(bits), f
    return best_d, best_f


@criterion(5, "decision optimizer exactness")
def test_criterion_5_optimizer_exactness():
    start = time.perf_counter()
    master = np.random.default_rng(505)
    n_singleton_checked = 0
    for instance in range(100):
        rng = np.random.default_rng(1000 + instance)
        m = int(rng.integers(2, 13))
        t = 64  # dyadic draw count keeps every f value exactly representable
        indicators = rng.random((t, m)) < rng.uniform(0.2, 0.8, size=m)
        singleton_only = instance % 4 == 0
        member_lists = []
        for i in range(m):
            if singleton_only:
                member_lists.append(np.array([i]))
                continue
            others = np.array([j for j in range(m) if j != i])
            size = int(rng.integers(0, min(4, others.size) + 1))
            chosen = rng.choice(others, size=size, replace=False) if size else []
            member_lists.append(np.array(sorted([i, *chosen])))
        groups = GroupStructure(groups=tuple(member_lists), threshold=0.5, cap=5)
        beta = float(rng.integers(1, 16)) / 16.0

        result = optimize_decisions(indicators, groups, beta)
        expected_d, expected_f = _brute_force_max(indicators, groups, beta)
        assert result.f_value == expected_f, (instance, m, beta)
        np.testing.assert_array_equal(result.d, expected_d, err_msg=f"instance {instance}")
        assert result.exact

        if singleton_only:
            v = indicators.mean(axis=0)
            np.testing.assert_array_equal(result.d, (v > beta).astype(int))
            n_singleton_checked += 1
    assert n_singleton_checked == 25
    elapsed = time.perf_counter() - start
    report(5, "decision optimizer equals brute force on 100 seeded instances",
           elapsed, 120.0, f"exact f and argmax matches, {n_singleton_checked} singleton-only reductions")


# ---------------------------------------------------------------------------
# 6. FDR calibration
# ---------------------------------------------------------------------------

def _conjugate_posterior_dataset(rng, m=50, t=1500, tau=1.3, noise=0.5):
    """Truth, data, and exact-posterior draws for one synthetic dataset."""
    kappa = tau**2 / (tau**2 + noise**2)
    psi_true = tau * rng.standard_normal(m)
    zbar = psi_true + noise * rng.standard_normal(m)
    draws = kappa * zbar + math.sqrt(kappa) * noise * rng.standard_normal((t, m))
    return psi_true, draws


@criterion(6, "posterior-FDR calibration")
def test_criterion_6_fdr_calibration():
    start = time.perf_counter()

    # Single synthetic posterior: calibration lands on the target.
    rng = np.random.default_rng(0)
    psi_true, draws = _conjugate_posterior_dataset(rng)
    groups = GroupStructure.singletons(50)
    result = calibrate_beta(hypothesis_indicators(draws), groups,
                            target_fdr=0.10, tol=0.005)
    assert result.feasible
    assert abs(result.fdr - 0.10) <= 0.005
    instance_fdr = result.fdr

    # Frequency property: realized false-discovery proportion over 200
    # independent datasets stays within Monte Carlo slack of the target.
    rng = np.random.default_rng(2024)
    fdps = []
    for _ in range(200):
        psi_true, draws = _conjugate_posterior_dataset(rng)
        res = calibrate_beta(hypothesis_indicators(draws), groups,
                             target_fdr=0.10, tol=0.005)
        assert res.feasible or res.d.sum() == 0  # infeasibility is flagged
        truth = np.abs(psi_true) > 1.0
        rejected = res.d.astype(bool)
        fdps.append(float(np.sum(rejected & ~truth) / max(rejected.sum(), 1)))
    fdps = np.array(fdps)
    mean_fdp = float(fdps.mean())
    mc_se = float(fdps.std(ddof=1) / math.sqrt(fdps.size))
    assert mean_fdp <= 0.10 + 2 * mc_se
    elapsed = time.perf_counter() - start
    report(6, "posterior-FDR calibration and realized FDP control", elapsed, 600.0,
           f"instance FDR {instance_fdr:.4f}, mean FDP {mean_fdp:.4f} "
           f"(bound {0.10 + 2 * mc_se:.4f}) over 200 datasets")


# ---------------------------------------------------------------------------
# 7. LRBH validity
# ---------------------------------------------------------------------------

@criterion(7, "boundary-null p-value calibration")
def test_criterion_7_lrbh_validity():
    start = time.perf_counter()

    # Boundary-null uniformity holds for the tie-randomized p-value
    # simulated at the least favorable boundary point; the default
    # conservative variant is (and can only be) super-uniform, because the
    # statistic carries an atom at 1 (see decisions ledger).
    rng = np.random.default_rng(7)
    uniform_p, conservative_p = [], []
    for _ in range(500):
        z = rng.normal(1.0, 1.0, size=18)
        uniform_p.append(bootstrap_pvalue(z, n_boot=2000, seed=rng,
                                          ties="randomized", null_point="boundary"))
        conservative_p.append(bootstrap_pvalue(z, n_boot=2000, seed=rng))
    ks = stats.kstest(uniform_p, "uniform").statistic
    assert ks < 0.08
    conservative_p = np.array(conservative_p)
    for x in (0.01, 0.05, 0.10, 0.25):
        frac = float((conservative_p <= x).mean())
        assert frac <= x + 3 * math.sqrt(x * (1 - x) / 500)

    # Step-up adjustment on the worked three-p-value example.
    rejected = bh_adjust(np.array([0.01, 0.02, 0.5]), q=0.1)
    assert rejected.tolist() == [True, True, False]
    elapsed = time.perf_counter() - start
    report(7, "boundary-null p-value calibration and step-up example", elapsed, 300.0,
           f"randomized-tie KS {ks:.4f} (500 reps, B=2000); conservative variant super-uniform")


# ---------------------------------------------------------------------------
# 8. Predictive coverage
# ---------------------------------------------------------------------------

@criterion(8, "leave-one-out predictive coverage")
def test_criterion_8_predictive_coverage():
    start = time.perf_counter()
    sim = simulate_dataset(m=30, n=18, k=3, seed=42, psi_mode="gp",
                           varrho2=2.0, nu=1.5, rho_fraction=0.3, delta2=1.0)
    dataset = ExpressionDataset(patient_ids=sim.patient_ids, mirna_names=sim.mirna_names,
                                case=sim.case, control=sim.control, z=None)
    design = build_design_matrix(sim.annotation, sim.mirna_names)
    cfg = SamplerConfig(n_iterations=25000, burn_in=8000, thin=10, seed=0)
    summaries = run_loo(dataset, design, cfg, level=0.75)
    coverage = overall_coverage(summaries)
    assert abs(coverage - 0.75) <= 0.05
    elapsed = time.perf_counter() - start
    report(8, "leave-one-out 75% predictive coverage", elapsed, 900.0,
           f"pooled coverage {coverage:.3f} over {len(summaries)} folds x 30 units")


# ---------------------------------------------------------------------------
# 9. OPTIONAL: real-dataset reproduction
# ---------------------------------------------------------------------------

# Externally reported reference results for the study dataset (18 patients,
# 522 units, 46 strands): posterior means and central 95% intervals for the
# reported discoveries, the expected discovery count, and the reported
# posterior FNR.  Checked only when the dataset is supplied.
REFERENCE_DISCOVERY_INTERVALS = {
    "hsa-miR-129-2-3p": (-2.11, (-2.95, -1.35)),
    "hsa-miR-548k": (-1.77, (-2.47, -1.09)),
    "hsa-miR-622": (-1.85, (-2.57, -1.13)),
    "hsa-miR-147b": (-1.32, (-2.19, -0.56)),
    "hsa-miR-124-3p": (-1.34, (-2.26, -0.45)),
    "hsa-miR-130b-5p": (-1.94, (-2.78, -1.10)),
    "hsa-miR-133b": (2.87, (2.02, 3.65)),
    "hsa-miR-375": (1.55, (0.73, 2.36)),
    "hsa-miR-1249": (3.46, (2.61, 4.33)),
    "hsa-miR-1": (3.78, (2.96, 4.62)),
    "hsa-miR-133a-3p": (4.36, (3.56, 5.22)),
    "hsa-miR-206": (4.59, (3.49, 5.51)),
}
REFERENCE_DISCOVERY_COUNT = 12
REFERENCE_POSTERIOR_FNR = 0.04

STUDY_ENV = {
    "case": "STRANDGP_STUDY_CASE",
    "control": "STRANDGP_STUDY_CONTROL",
    "annotation": "STRANDGP_STUDY_ANNOTATION",
}


@pytest.mark.skipif(not all(os.environ.get(v) for v in STUDY_ENV.values()),
                    reason="study dataset not supplied "
                           f"(set {', '.join(STUDY_ENV.values())})")
def test_criterion_9_study_reproduction():
    from strandgp import (
        estimate_prior_correlation,
        form_groups,
        load_annotation,
        load_expression,
    )
    from strandgp.decisions import build_decision_report
    from strandgp.priors import prior_exceedance, psi_draws

    start = time.perf_counter()
    dataset = load_expression(os.environ[STUDY_ENV["case"]],
                              os.environ[STUDY_ENV["control"]])
    annotation = load_annotation(os.environ[STUDY_ENV["annotation"]],
                                 lengths_path=os.environ.get("STRANDGP_STUDY_LENGTHS"))
    design = build_design_matrix(annotation, dataset.mirna_names)
    assert dataset.n_patients == 18 and dataset.n_mirnas == 522
    assert design.n_strands == 46

    iterations = int(os.environ.get("STRANDGP_STUDY_ITERATIONS", 150_000_000))
    burn_in = int(os.environ.get("STRANDGP_STUDY_BURN_IN", 30_000_000))
    thin = int(os.environ.get("STRANDGP_STUDY_THIN", 100))

    def run_variant(varrho_prior_on, rho_scale, seed):
        priors = HyperPriorSpec.from_data(design, dataset.z,
                                          varrho_prior_on=varrho_prior_on,
                                          rho_prior_variance_scale=rho_scale)
        model = make_posterior_model(dataset.z, design, priors)
        cfg = SamplerConfig(n_iterations=iterations, burn_in=burn_in, thin=thin, seed=seed)
        samples = run_chain(model, cfg)
        correlation = estimate_prior_correlation(design, priors.draw_hyper_arrays,
                                                 n_mc=2000, seed=seed + 1)
        groups = form_groups(correlation)
        draws = psi_draws(samples.draws, dataset.n_mirnas)
        calibration = calibrate_beta(hypothesis_indicators(draws), groups,
                                     target_fdr=0.10, tol=0.005)
        prior_probs, n_prior = prior_exceedance(design, priors, 4000, seed + 2)
        return build_decision_report(dataset.mirna_names, draws, calibration,
                                     groups, prior_probs, n_prior)

    report_main = run_variant("varrho2", "natural", seed=0)
    name_to_idx = {n: i for i, n in enumerate(report_main.mirna_names)}
    for name, (_, (low, high)) in REFERENCE_DISCOVERY_INTERVALS.items():
        i = name_to_idx[name]
        assert low <= report_main.psi_mean[i] <= high, name
    assert abs(report_main.n_discoveries - REFERENCE_DISCOVERY_COUNT) <= 2
    assert abs(report_main.posterior_fnr - REFERENCE_POSTERIOR_FNR) <= 0.02

    # Sensitivity of the two documented prior-interpretation switches plus
    # a second seed, reported alongside the main run.
    for tag, variant in [
        ("seed", run_variant("varrho2", "natural", seed=1)),
        ("varrho_prior_on=varrho", run_variant("varrho", "natural", seed=0)),
        ("rho_prior_variance_scale=log", run_variant("varrho2", "log", seed=0)),
    ]:
        print(f"[criterion 9] sensitivity {tag}: {variant.n_discoveries} discoveries, "
              f"posterior FNR {variant.posterior_fnr:.3f}")
    elapsed = time.perf_counter() - start
    report(9, "study-dataset reproduction", elapsed, float("inf"),
           f"{report_main.n_discoveries} discoveries, FNR {report_main.posterior_fnr:.3f}")

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import (
    log_density_delta2,
    log_density_hypers,
    log_density_varrho2,
    log_posterior,
    matern_cov,
)
from strandgp import (
    ConfigError,
    DataError,
    HyperPriorSpec,
    ModelState,
    NumericalError,
    StrandHyperParams,
    build_design_matrix,
    empirical_bayes_delta2,
    make_posterior_model,
    prior_cov_psi,
    prior_exceedance,
    simulate_dataset,
    solve_ig,
    solve_lognormal,
)
from strandgp.data import GenomeAnnotation, StrandRecord
from strandgp.kernels import sample_psi_prior
from strandgp.util import spawn_rngs


def make_design(spec, names):
    strands = tuple(StrandRecord(sid, length, tuple(loci)) for sid, length, loci in spec)
    return build_design_matrix(GenomeAnnotation(strands=strands), names)


def ig_moments(shape, scale):
    mode = scale / (shape + 1.0)
    var = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    return mode, var


def lognormal_moments(mu, sigma):
    mode = math.exp(mu - sigma**2)
    var = math.expm1(sigma**2) * math.exp(2 * mu + sigma**2)
    return mode, var


class TestSolveIG:
    def test_mode_one_variance_hundred(self):
        shape, scale = solve_ig(1.0, 100.0)
        mode, var = ig_moments(shape, scale)
        assert mode == pytest.approx(1.0, rel=1e-8)
        assert var == pytest.approx(100.0, rel=1e-8)
        assert shape > 2.0

    def test_huge_variance_shape_limits_to_two(self):
        shapes = [solve_ig(1.0, v)[0] for v in (1e2, 1e6, 1e10)]
        assert shapes[0] > shapes[1] > shapes[2] > 2.0
        assert shapes[2] - 2.0 < 1e-4

    def test_mode_two_variance_four(self):
        shape, scale = solve_ig(2.0, 4.0)
        mode, var = ig_moments(shape, scale)
        assert mode == pytest.approx(2.0, rel=1e-8)
        assert var == pytest.approx(4.0, rel=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_ig(0.0, 1.0)
        with pytest.raises(ValueError):
            solve_ig(1.0, -1.0)

    @pytest.mark.parametrize("mode, variance", [(1.0, 1e300), (1e-300, 1.0), (1e300, 1.0)])
    def test_unsolvable_extreme_pair_is_value_error(self, mode, variance):
        with pytest.raises(ValueError, match="solve_ig cannot solve"):
            solve_ig(mode, variance)


class TestSolveLognormal:
    def test_mode_one_gives_mu_equal_s2(self):
        mu, sigma = solve_lognormal(1.0, 100.0)
        assert mu == pytest.approx(sigma**2, rel=1e-10)
        assert np.expm1(sigma**2) * np.exp(3 * sigma**2) == pytest.approx(100.0, rel=1e-8)

    def test_small_variance_degenerates_to_point_mass(self):
        mode = 7.0
        for variance in (1e-2, 1e-6, 1e-10):
            mu, sigma = solve_lognormal(mode, variance)
            assert lognormal_moments(mu, sigma)[1] == pytest.approx(variance, rel=1e-8)
        assert sigma < 1e-5
        assert mu == pytest.approx(math.log(mode), abs=1e-8)

    @pytest.mark.parametrize("mode, variance", [(1e-300, 1.0), (1e300, 1.0)])
    def test_unsolvable_extreme_pair_is_value_error(self, mode, variance):
        with pytest.raises(ValueError, match="solve_lognormal cannot solve"):
            solve_lognormal(mode, variance)

    def test_brackets_a_huge_variance_without_warnings(self):
        # The bracket search passes t where e^{3t} overflows; that must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, sigma = solve_lognormal(1.0, 1e300)
        assert mu == pytest.approx(sigma**2, rel=1e-12)
        assert np.expm1(sigma**2) * math.exp(3 * sigma**2) == pytest.approx(1e300, rel=1e-8)

    def test_genome_scale_mode(self):
        mu, sigma = solve_lognormal(1e8, 1000.0)
        mode, var = lognormal_moments(mu, sigma)
        assert mode == pytest.approx(1e8, rel=1e-8)
        assert var == pytest.approx(1000.0, rel=1e-8)
        assert sigma < 1e-6  # near-point-mass prior


class TestEmpiricalBayesDelta2:
    def test_equal_variances_fallback(self):
        z = np.array([[0.0, 0.0], [2.0, 2.0]])  # both columns have s2 = 2
        shape, scale = empirical_bayes_delta2(z)
        assert (shape, scale) == (3.0, 4.0)
        assert scale / (shape - 1.0) == pytest.approx(2.0)

    def test_moment_match_two_columns(self):
        # column variances 1 and 3 for n=2: differences 2a => var a^2/ ... construct directly
        z = np.array([[0.0, 0.0], [math.sqrt(2.0), math.sqrt(6.0)]])
        s2 = z.var(axis=0, ddof=1)
        np.testing.assert_allclose(s2, [1.0, 3.0])
        shape, scale = empirical_bayes_delta2(z)
        mean = scale / (shape - 1.0)
        var = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert var == pytest.approx(np.var([1.0, 3.0], ddof=1), rel=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            empirical_bayes_delta2(np.array([[1.0, 2.0]]))

    def test_constant_data_rejected(self):
        with pytest.raises(DataError):
            empirical_bayes_delta2(np.ones((3, 4)))


def single_locus_design():
    return make_design([("Chr1+", 100.0, [("a", 10.0)])], ["a"])


def two_locus_design():
    return make_design([("Chr1+", 100.0, [("a", 10.0), ("b", 45.0)])], ["a", "b"])


def make_priors(design, z, **kwargs):
    return HyperPriorSpec.from_data(design, z, **kwargs)


class TestHyperPriorSpec:
    def test_round_trip_serialization(self):
        # fit's manifest.json records the priors through to_dict.
        design = two_locus_design()
        z = np.array([[0.5, -0.2], [1.0, 0.3], [0.1, 0.9]])
        priors = make_priors(design, z)
        record = json.loads(json.dumps(priors.to_dict()))
        assert record == json.loads(json.dumps(dataclasses.asdict(priors)))

    @pytest.mark.parametrize("kwargs, keys", [
        (dict(varrho2_variance=1e300), "priors.varrho2_mode and priors.varrho2_variance"),
        (dict(nu_mode=1e-300), "priors.nu_mode and priors.nu_variance"),
        (dict(rho_variance=1e-300), "priors.rho_variance on strand Chr1+"),
    ])
    def test_unsolvable_pair_is_config_error_naming_its_keys(self, kwargs, keys):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ConfigError, match=f"no prior for {re.escape(keys)}"):
            make_priors(design, z, **kwargs)

    def test_dof_is_units_plus_three(self):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(5, 2))
        assert make_priors(design, z).dof == 5

    def test_rho_prior_log_scale_reading(self):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(5, 2))
        priors = make_priors(design, z, rho_prior_variance_scale="log", rho_variance=4.0)
        mu, sigma = priors.rho_priors[0]
        assert mu == pytest.approx(math.log(100.0))
        assert sigma == 2.0

    def test_varrho_prior_on_varrho_changes_density(self):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(5, 2))
        on_sq = make_priors(design, z)
        on_scale = make_priors(design, z, varrho_prior_on="varrho")
        x = 2.7
        a, b = on_scale.varrho2_prior
        expected = stats.invgamma.logpdf(math.sqrt(x), a, scale=b) - math.log(2 * math.sqrt(x))
        assert log_density_varrho2(on_scale, x) == pytest.approx(expected, rel=1e-12)
        assert log_density_varrho2(on_scale, x) != pytest.approx(log_density_varrho2(on_sq, x))

    def test_draws_match_densities(self):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(6, 2))
        priors = make_priors(design, z)
        rng = np.random.default_rng(123)
        varrho2 = np.array([priors.draw_hyper_arrays(rng)[0][0] for _ in range(4000)])
        a, b = priors.varrho2_prior
        ks = stats.ks_1samp(varrho2, stats.invgamma(a, scale=b).cdf)
        assert ks.statistic < 0.03


# ---------------------------------------------------------------------------
# Log-posterior correctness
# ---------------------------------------------------------------------------

def independent_log_posterior_m1(z_col, psi, varrho2, nu, rho, delta2, priors, length=100.0):
    """Independent single-unit evaluation: quadrature over the error variance,
    scipy densities for every prior factor (constants included)."""
    n = z_col.size
    ups = priors.dof

    def integrand(log_s2):
        s2 = math.exp(log_s2)
        loglik = -n / 2 * math.log(2 * math.pi * s2) - np.sum((z_col - psi) ** 2) / (2 * s2)
        logprior = stats.invgamma.logpdf(s2, ups / 2, scale=delta2 / 2)
        return math.exp(loglik + logprior + log_s2)

    marginal, _ = integrate.quad(integrand, -25, 25, limit=400)
    lp = math.log(marginal)
    lp += stats.norm.logpdf(psi, 0.0, math.sqrt(varrho2))
    a, b = priors.varrho2_prior
    lp += stats.invgamma.logpdf(varrho2, a, scale=b)
    mu, s = priors.nu_prior
    lp += stats.lognorm.logpdf(nu, s, scale=math.exp(mu))
    mu_r, s_r = priors.rho_priors[0]
    lp += stats.lognorm.logpdf(rho, s_r, scale=math.exp(mu_r))
    ad, bd = priors.delta2_prior
    lp += stats.invgamma.logpdf(delta2, ad, scale=bd)
    return lp


class TestLogPosterior:
    def make_states(self, rng, m, k, n):
        def one():
            psi = rng.normal(size=m)
            hypers = tuple(StrandHyperParams(float(rng.uniform(0.5, 3.0)),
                                             float(rng.uniform(0.5, 2.0)),
                                             float(rng.uniform(20.0, 90.0))) for _ in range(k))
            return ModelState(psi=psi, hypers=hypers, delta2=float(rng.uniform(0.5, 2.0)))
        return one

    # One patient: the sample sd that make_posterior_model uses for the
    # chain's starting scales is undefined; only log_target is read here.
    @pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0:RuntimeWarning",
                                "ignore:invalid value encountered in divide:RuntimeWarning")
    def test_quadrature_oracle_m1_n1(self):
        rng = np.random.default_rng(2)
        design = single_locus_design()
        z = np.array([[0.8]])
        priors = HyperPriorSpec(
            varrho2_prior=solve_ig(1.0, 100.0),
            nu_prior=solve_lognormal(1.0, 100.0),
            rho_priors=(solve_lognormal(100.0, 1000.0),),
            delta2_prior=(3.0, 2.0),
            dof=1 + 3,
        )
        make = self.make_states(rng, 1, 1, 1)
        states = [make() for _ in range(4)]
        lps = [log_posterior(s, z, design, priors) for s in states]
        oracle = [independent_log_posterior_m1(
            z[:, 0], float(s.psi[0]), s.hypers[0].varrho2, s.hypers[0].nu,
            s.hypers[0].rho, s.delta2, priors) for s in states]
        for i in range(1, len(states)):
            got = lps[i] - lps[0]
            want = oracle[i] - oracle[0]
            assert got == pytest.approx(want, rel=1e-4)

    def test_quadrature_oracle_m1_n3(self):
        rng = np.random.default_rng(7)
        design = single_locus_design()
        z = rng.normal(size=(3, 1))
        priors = make_priors(design, z)
        make = self.make_states(rng, 1, 1, 3)
        states = [make() for _ in range(3)]
        lps = [log_posterior(s, z, design, priors) for s in states]
        oracle = [independent_log_posterior_m1(
            z[:, 0], float(s.psi[0]), s.hypers[0].varrho2, s.hypers[0].nu,
            s.hypers[0].rho, s.delta2, priors) for s in states]
        for i in range(1, len(states)):
            assert lps[i] - lps[0] == pytest.approx(oracle[i] - oracle[0], rel=1e-4)

    def test_zero_psi_drops_quadratic_term(self):
        rng = np.random.default_rng(3)
        design = two_locus_design()
        z = rng.normal(size=(4, 2))
        priors = make_priors(design, z)
        hypers = (StrandHyperParams(1.5, 1.2, 40.0),)
        state = ModelState(psi=np.zeros(2), hypers=hypers, delta2=1.1)
        lp = log_posterior(state, z, design, priors)

        # Independent reassembly with the quadratic form omitted entirely.
        pc = prior_cov_psi(design, list(hypers))
        sign, logdet = np.linalg.slogdet(pc.psi_cov)
        assert sign > 0
        n, m = z.shape
        b = np.eye(n) + z @ z.T / state.delta2
        _, logdet_b = np.linalg.slogdet(b)
        expected = (-0.5 * logdet - 0.5 * m * n * math.log(state.delta2)
                    - 0.5 * (priors.dof + n) * logdet_b
                    + log_density_hypers(priors, np.array([1.5]), np.array([1.2]), np.array([40.0]))
                    + float(log_density_delta2(priors, state.delta2)))
        assert lp == pytest.approx(expected, rel=1e-12)

    def test_column_shift_leaves_likelihood_unchanged(self):
        rng = np.random.default_rng(4)
        design = two_locus_design()
        z = rng.normal(size=(4, 2))
        priors = make_priors(design, z)

        def likelihood_part(zmat, state):
            on = make_posterior_model(zmat, design, priors, include_likelihood=True)
            off = make_posterior_model(zmat, design, priors, include_likelihood=False)
            x = state.to_vector()
            return on.log_target(x) - off.log_target(x)

        state = ModelState(psi=np.array([0.4, -0.7]),
                           hypers=(StrandHyperParams(1.0, 1.0, 30.0),), delta2=0.9)
        shift = 2.5
        z_shift = z.copy()
        z_shift[:, 1] += shift
        state_shift = ModelState(psi=state.psi + np.array([0.0, shift]),
                                 hypers=state.hypers, delta2=state.delta2)
        assert likelihood_part(z, state) == pytest.approx(
            likelihood_part(z_shift, state_shift), rel=1e-12)

    def test_patient_permutation_invariance(self):
        rng = np.random.default_rng(5)
        design = two_locus_design()
        z = rng.normal(size=(5, 2))
        priors = make_priors(design, z)
        state = ModelState(psi=np.array([0.2, 0.1]),
                           hypers=(StrandHyperParams(2.0, 1.0, 20.0),), delta2=1.3)
        lp1 = log_posterior(state, z, design, priors)
        lp2 = log_posterior(state, z[::-1], design, priors)
        assert lp1 == pytest.approx(lp2, rel=1e-12)

    def test_prior_logdet_term_matches_mvn(self):
        # Prior-only target differences in psi must equal the multivariate
        # normal log density differences under N(0, PWP^T).
        rng = np.random.default_rng(6)
        design = two_locus_design()
        z = rng.normal(size=(4, 2))
        priors = make_priors(design, z)
        model = make_posterior_model(z, design, priors, include_likelihood=False)
        hypers = (StrandHyperParams(1.7, 0.9, 35.0),)
        pc = prior_cov_psi(design, list(hypers))
        mvn = stats.multivariate_normal(mean=np.zeros(2), cov=pc.psi_cov)
        psi_a, psi_b = np.array([0.5, -0.3]), np.array([-1.2, 0.8])
        xa = ModelState(psi=psi_a, hypers=hypers, delta2=1.0).to_vector()
        xb = ModelState(psi=psi_b, hypers=hypers, delta2=1.0).to_vector()
        got = model.log_target(xa) - model.log_target(xb)
        want = mvn.logpdf(psi_a) - mvn.logpdf(psi_b)
        assert got == pytest.approx(want, rel=1e-10)

    def test_log_scale_mirror_bitwise_consistency(self):
        rng = np.random.default_rng(8)
        design = two_locus_design()
        z = rng.normal(size=(4, 2))
        priors = make_priors(design, z)
        model = make_posterior_model(z, design, priors)
        x = model.x0 + 0.01 * rng.normal(size=model.x0.size)
        first = model.log_target(x)
        second = model.log_target(x.copy())
        assert first == second  # bitwise

    @pytest.mark.parametrize("varrho_prior_on", ["varrho2", "varrho"])
    def test_matches_dense_full_matrix_factorization(self, varrho_prior_on):
        # Multi-locus units chain strands into components; the per-component
        # factorization must agree with one dense factorization of P W P^T.
        sim = simulate_dataset(m=40, n=6, k=8, seed=3, multi_locus_fraction=0.05)
        design = build_design_matrix(sim.annotation, sim.mirna_names)
        assert 1 < len(design.covariance_index.components) < design.n_strands
        z = sim.z
        priors = make_priors(design, z, varrho_prior_on=varrho_prior_on)
        model = make_posterior_model(z, design, priors)
        n, m = z.shape
        p = design.p.astype(float)
        rng = np.random.default_rng(12)
        for _ in range(6):
            hypers = tuple(StrandHyperParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 2.0)),
                                             float(rng.uniform(200.0, 2000.0))) for _ in range(8))
            state = ModelState(psi=0.5 * rng.normal(size=m), hypers=hypers,
                               delta2=float(rng.uniform(0.5, 2.0)))
            w = np.zeros((design.n_loci, design.n_loci))
            for strand, h, cols in zip(design.annotation.strands, hypers, design.strand_slices):
                c = strand.coordinates
                w[cols, cols] = matern_cov(np.abs(c[:, None] - c[None, :]), h)
            cov = p @ w @ p.T
            sign, logdet = np.linalg.slogdet(cov)
            assert sign > 0
            resid = z - state.psi[None, :]
            _, logdet_b = np.linalg.slogdet(np.eye(n) + resid @ resid.T / state.delta2)
            nat = [np.array([getattr(h, a) for h in hypers]) for a in ("varrho2", "nu", "rho")]
            expected = (-0.5 * state.psi @ np.linalg.solve(cov, state.psi) - 0.5 * logdet
                        - 0.5 * m * n * math.log(state.delta2) - 0.5 * (priors.dof + n) * logdet_b
                        + log_density_hypers(priors, *nat) + float(log_density_delta2(priors, state.delta2)))
            x = state.to_vector()
            via_target = model.log_target(x) - float(np.sum(x[m:]))
            assert via_target == pytest.approx(expected, rel=1e-9)

    def test_invalid_region_returns_neg_inf(self):
        design = two_locus_design()
        z = np.random.default_rng(0).normal(size=(4, 2))
        priors = make_priors(design, z)
        model = make_posterior_model(z, design, priors)
        x = model.x0.copy()
        x[-1] = 800.0  # exp overflows delta2
        assert model.log_target(x) == -math.inf
        x = model.x0.copy()
        x[2] = -800.0  # process variance underflows to exactly zero
        assert model.log_target(x) == -math.inf

    def test_initial_state_matches_contract(self):
        design = two_locus_design()
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 2))
        priors = make_priors(design, z)
        model = make_posterior_model(z, design, priors)
        state = ModelState.from_vector(model.x0, 2, 1)
        np.testing.assert_allclose(state.psi, z.mean(axis=0), rtol=1e-12)
        a, b = priors.varrho2_prior
        assert state.hypers[0].varrho2 == pytest.approx(b / (a + 1.0), rel=1e-12)
        assert state.delta2 == pytest.approx(priors.mean_delta2(), rel=1e-12)


class NanSmoothness:
    """``priors``' hyperparameter draws, with a NaN smoothness on every strand
    where the next uniform of the draw's stream is below ``cut``."""

    def __init__(self, priors, cut):
        self.priors, self.cut = priors, cut

    def draw_hyper_arrays(self, rng):
        varrho2s, nus, rhos = self.priors.draw_hyper_arrays(rng)
        if rng.random() < self.cut:
            nus = np.full_like(nus, np.nan)
        return varrho2s, nus, rhos


class TestPriorExceedance:
    """Prior probabilities of |psi| > t over a design where unit ``a`` has
    two loci on Chr1+, 400 bases apart, and a third on Chr2+; its variance
    carries twice their Matern covariance."""

    def setup_method(self):
        self.design = make_design([
            ("Chr1+", 2e3, [("a", 100.0), ("b", 400.0), ("a", 500.0)]),
            ("Chr2+", 2e3, [("a", 50.0), ("c", 900.0)]),
        ], ["a", "b", "c"])
        self.priors = HyperPriorSpec(varrho2_prior=(3.0, 1.0), nu_prior=(0.3, 0.4),
                                     rho_priors=((6.5, 0.5), (6.0, 0.5)),
                                     delta2_prior=(3.0, 2.0), dof=6)

    def test_matches_the_frequency_among_prior_effect_draws(self):
        # Effects drawn from the certified prior covariance of the same
        # hyperparameter draws: given those, the frequency of |psi| > 1 has
        # variance sum_h p_h (1 - p_h) / (k n^2), p_h the exact tail.
        n, k = 2000, 20
        hits, var, locus_only = np.zeros(3), np.zeros(3), 0.0
        for rng in spawn_rngs(7, n):
            varrho2s, nus, rhos = self.priors.draw_hyper_arrays(rng)
            pc = prior_cov_psi(self.design, [StrandHyperParams(*h) for h in zip(varrho2s, nus, rhos)])
            assert pc.jitter_used == 0.0
            hits += (np.abs(sample_psi_prior(pc, k, rng)) > 1.0).sum(axis=0)
            p_h = 2.0 * stats.norm.cdf(-1.0 / np.sqrt(np.diag(pc.psi_cov)))
            var += p_h * (1.0 - p_h)
            locus_only += 2.0 * stats.norm.cdf(-1.0 / math.sqrt(2 * varrho2s[0] + varrho2s[1]))
        frequency, se = hits / (n * k), np.sqrt(var / k) / n
        probs, used = prior_exceedance(self.design, self.priors, n, seed=7)
        assert used == n
        assert np.all(np.abs(probs - frequency) < 4.0 * se)
        # Without its own pair's covariance, unit a's estimate would miss.
        assert abs(locus_only / n - frequency[0]) > 4.0 * se[0]

    def test_single_locus_is_twice_the_normal_tail(self):
        # One locus: sigma^2 = varrho2, so each draw gives 2 Phi(-t / sigma).
        design = single_locus_design()
        priors = HyperPriorSpec(varrho2_prior=(3.0, 1.0), nu_prior=(0.0, 1.0),
                                rho_priors=((4.0, 1.0),), delta2_prior=(3.0, 2.0), dof=4)
        sigmas = np.sqrt([priors.draw_hyper_arrays(rng)[0][0] for rng in spawn_rngs(2, 300)])
        for t in (1.0, 2.5):
            probs, used = prior_exceedance(design, priors, 300, seed=2, threshold=t)
            assert used == 300
            assert probs[0] == pytest.approx(np.mean(2.0 * stats.norm.cdf(-t / sigmas)), rel=1e-13)
        probs, _ = prior_exceedance(design, priors, 1, seed=2)
        assert probs[0] == pytest.approx(2.0 * stats.norm.cdf(-1.0 / sigmas[0]), rel=1e-14)

    def test_bit_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.setenv("STRANDGP_THREADS", "1")
        serial = prior_exceedance(self.design, self.priors, 600, seed=9)
        monkeypatch.setenv("STRANDGP_THREADS", "2")
        threaded = prior_exceedance(self.design, self.priors, 600, seed=9)
        assert serial[1] == threaded[1] == 600
        np.testing.assert_array_equal(serial[0], threaded[0])

    def test_skip_limit(self):
        # A draw whose Matern evaluation leaves its numerical domain (here a
        # NaN smoothness on unit a's own pair) is skipped; 1% may be.
        n_draws = 1000
        uniforms = []
        for rng in spawn_rngs(4, n_draws):
            self.priors.draw_hyper_arrays(rng)
            uniforms.append(rng.random())
        cut = np.sort(uniforms)[10]  # ten draws fall below it
        probs, used = prior_exceedance(self.design, NanSmoothness(self.priors, cut), n_draws, seed=4)
        assert used == n_draws - 10
        assert np.all((probs > 0.0) & (probs < 1.0))
        with pytest.raises(NumericalError, match=f"11/{n_draws} prior draws failed"):
            prior_exceedance(self.design, NanSmoothness(self.priors, np.nextafter(cut, 1.0)),
                             n_draws, seed=4)

import math

import numpy as np
import pytest

from strandgp import (
    NumericalError,
    SamplerConfig,
    TargetModel,
    diagnostics,
    effective_sample_size,
    export_trace,
    run_chain,
    run_chains,
    tmcmc_step,
)
from strandgp.tmcmc import PosteriorSamples


class ScriptedRNG:
    """Deterministic stand-in feeding prescribed draws to the step kernel."""

    def __init__(self, normals=(), signs=(), uniforms=()):
        self.normals = list(normals)
        self.signs = list(signs)
        self.uniforms = list(uniforms)

    def standard_normal(self):
        return self.normals.pop(0)

    def integers(self, low, high, size):
        return np.array(self.signs.pop(0))

    def random(self):
        return self.uniforms.pop(0)


def gaussian_target(mean, cov):
    mean = np.asarray(mean, dtype=float)
    prec = np.linalg.inv(cov)

    def log_target(x):
        d = x - mean
        return -0.5 * float(d @ prec @ d)

    return log_target


class TestTmcmcStep:
    def test_uphill_always_accepted(self):
        # Proposal improves the density; acceptance must not consume chance.
        target = gaussian_target([0.0], [[1.0]])
        rng = ScriptedRNG(normals=[1.0], signs=[[0]], uniforms=[1.0 - 1e-12])
        x, lp, accepted = tmcmc_step(np.array([2.0]), np.array([1.0]), target, rng)
        assert accepted
        assert x.tolist() == [1.0]

    def test_acceptance_probability_density_ratio(self):
        # Standard normal, x=0 -> x*=2: acceptance probability e^{-2}.
        target = gaussian_target([0.0], [[1.0]])
        threshold = math.exp(-2.0)
        rng = ScriptedRNG(normals=[1.0], signs=[[1]], uniforms=[threshold * 0.999])
        _, _, accepted = tmcmc_step(np.array([0.0]), np.array([2.0]), target, rng)
        assert accepted
        rng = ScriptedRNG(normals=[1.0], signs=[[1]], uniforms=[threshold * 1.001])
        x, _, accepted = tmcmc_step(np.array([0.0]), np.array([2.0]), target, rng)
        assert not accepted
        assert x.tolist() == [0.0]

    def test_zero_epsilon_is_stationary_accept(self):
        target = gaussian_target([0.0], [[1.0]])
        rng = ScriptedRNG(normals=[0.0], signs=[[1]], uniforms=[0.999999])
        x, _, accepted = tmcmc_step(np.array([0.7]), np.array([1.0]), target, rng)
        assert accepted
        assert x.tolist() == [0.7]

    def test_nonfinite_proposal_autorejected(self):
        def target(x):
            return 0.0 if abs(x[0]) < 1.0 else -math.inf

        rng = ScriptedRNG(normals=[5.0], signs=[[1]], uniforms=[])
        x, lp, accepted = tmcmc_step(np.array([0.0]), np.array([1.0]), target, rng)
        assert not accepted and x.tolist() == [0.0]

    def test_requires_finite_current_density(self):
        with pytest.raises(NumericalError):
            tmcmc_step(np.array([5.0]), np.array([1.0]),
                       lambda x: -math.inf, ScriptedRNG())

    def test_shared_epsilon_signature(self):
        # Every accepted move displaces all coordinates by the same |eps|
        # relative to its scale.
        scales = np.array([0.5, 2.0, 7.0])
        target = gaussian_target([0.0, 0.0, 0.0], np.diag([1.0, 4.0, 9.0]))
        rng = np.random.default_rng(0)
        x = np.zeros(3)
        lp = target(x)
        seen_accepts = 0
        for _ in range(200):
            x_new, lp, accepted = tmcmc_step(x, scales, target, rng, lp_x=lp)
            if accepted and not np.array_equal(x_new, x):
                steps = np.abs(x_new - x) / scales
                assert np.allclose(steps, steps[0], rtol=1e-12)
                seen_accepts += 1
            x = x_new
        assert seen_accepts > 10


def burn_in_scales(log_target, config):
    """Scales and adaptation history after an all-burn-in chain from the origin of R^2."""
    model = TargetModel(log_target=log_target, x0=np.zeros(2), names=["x0", "x1"])
    samples = run_chain(model, config)
    return samples.scales, samples.block_info


class TestAdaptation:
    def test_all_rejections_shrink_scales(self):
        def target(x):
            return 0.0 if np.all(np.abs(x) < 1e-9) else -math.inf

        cfg = SamplerConfig(n_iterations=400, burn_in=400, adaptation_window=50, seed=1)
        scales, history = burn_in_scales(target, cfg)
        assert len(history) == 8
        factors = [h["factor"] for h in history]
        assert factors[-1] < factors[0]
        assert np.all(scales < 2.4 / math.sqrt(2))

    def test_all_acceptances_grow_scales(self):
        cfg = SamplerConfig(n_iterations=400, burn_in=400, adaptation_window=50, seed=1)
        scales, history = burn_in_scales(lambda x: 0.0, cfg)
        factors = [h["factor"] for h in history]
        assert factors[-1] > factors[0]
        assert np.all(scales > 2.4 / math.sqrt(2))

    def test_ten_dim_gaussian_lands_in_band(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 10))
        cov = a @ a.T + 10.0 * np.eye(10)
        target = gaussian_target(np.zeros(10), cov)
        model = TargetModel(log_target=target, x0=np.zeros(10),
                            names=[f"x{i}" for i in range(10)],
                            base_scales=np.sqrt(np.diag(cov)))
        cfg = SamplerConfig(n_iterations=26000, burn_in=25000, adaptation_window=250, seed=5)
        samples = run_chain(model, cfg)
        # latest completed adaptation windows sit inside the band
        recent = [h["acceptance"] for h in samples.block_info[-8:]]
        assert 0.20 <= np.mean(recent) <= 0.35
        # post-burn-in acceptance stays in the band too
        assert 0.20 <= samples.acceptance_rate <= 0.35

    def test_scales_frozen_after_burn_in(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=3000, burn_in=1000, adaptation_window=100, seed=0)
        samples = run_chain(model, cfg)
        assert len(samples.block_info) == 10  # windows fit inside burn-in only


class TestRunChain:
    def test_zero_post_burn_iterations(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=500, burn_in=500, thin=10, seed=0)
        samples = run_chain(model, cfg)
        assert samples.draws.shape == (0, 1)
        assert 0.0 <= samples.acceptance_rate <= 1.0
        with pytest.raises(ValueError):
            diagnostics(samples)

    def test_draw_count_contract(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        for n, burn, thin in [(107, 10, 10), (1000, 100, 7), (55, 0, 1)]:
            cfg = SamplerConfig(n_iterations=n, burn_in=burn, thin=thin, seed=2)
            samples = run_chain(model, cfg)
            assert samples.n_draws == (n - burn) // thin

    def test_gaussian_moments_recovered(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        model = TargetModel(log_target=gaussian_target(mean, cov), x0=mean.copy(),
                            names=["x0", "x1"], base_scales=np.sqrt(np.diag(cov)))
        cfg = SamplerConfig(n_iterations=120000, burn_in=20000, thin=1, seed=7)
        samples = run_chain(model, cfg)
        for name, true_mean, true_sd in [("x0", 1.0, 1.0), ("x1", -2.0, math.sqrt(2.0))]:
            trace = samples.trace(name)
            mcse = trace.std() / math.sqrt(samples.ess(name))
            assert abs(trace.mean() - true_mean) < 3 * mcse
        sample_cov = np.cov(samples.draws.T)
        assert np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov) < 0.05

    def test_same_seed_identical_draws(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=2000, burn_in=500, thin=3, seed=11)
        a = run_chain(model, cfg)
        b = run_chain(model, cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_distinct_chains_distinct_streams(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=800, burn_in=200, thin=1, seed=13)
        chains = run_chains(model, cfg, 3)
        assert len(chains) == 3
        assert not np.array_equal(chains[0].draws, chains[1].draws)

    def test_nonfinite_start_rejected(self):
        model = TargetModel(log_target=lambda x: -math.inf, x0=np.zeros(1), names=["x"])
        with pytest.raises(NumericalError):
            run_chain(model, SamplerConfig(n_iterations=10, seed=0))

    def test_detailed_balance_on_discretized_target(self):
        def log_target(x):
            v = x[0]
            return math.log(0.7 * math.exp(-0.5 * ((v + 1.0) / 0.5) ** 2)
                            + 0.3 * math.exp(-0.5 * ((v - 1.5) / 1.0) ** 2))

        # Without burn-in the scale stays at base_scales * 2.4 / sqrt(d), here 1.
        model = TargetModel(log_target=log_target, x0=np.zeros(1), names=["x"],
                            base_scales=np.array([1.0 / 2.4]))
        cfg = SamplerConfig(n_iterations=200000, burn_in=0, thin=1, seed=17)
        samples = run_chain(model, cfg)
        chain = samples.draws[:, 0]
        edges = np.linspace(-3.0, 4.0, 8)
        bins = np.digitize(chain, edges)
        counts = np.zeros((9, 9))
        np.add.at(counts, (bins[:-1], bins[1:]), 1)
        for i in range(9):
            for j in range(i + 1, 9):
                total = counts[i, j] + counts[j, i]
                if total >= 50:
                    z = abs(counts[i, j] - counts[j, i]) / math.sqrt(total)
                    assert z < 4.5, (i, j, counts[i, j], counts[j, i])


class TestPriorReproduction:
    def test_chain_reproduces_effect_prior_covariance(self):
        # Prior-only target with near-point-mass hyperpriors: the chain's
        # effect draws must match the modal-hyperparameter covariance.
        from strandgp import HyperPriorSpec, build_design_matrix, make_posterior_model, prior_cov_psi
        from strandgp.data import GenomeAnnotation, StrandRecord
        from strandgp.priors import solve_ig, solve_lognormal

        ann = GenomeAnnotation(strands=(
            StrandRecord("Chr1+", 200.0, (("a", 20.0), ("b", 60.0), ("c", 150.0))),
        ))
        design = build_design_matrix(ann, ["a", "b", "c"])
        priors = HyperPriorSpec(
            varrho2_prior=solve_ig(2.0, 1e-6),
            nu_prior=solve_lognormal(1.5, 1e-8),
            rho_priors=(solve_lognormal(80.0, 1e-4),),
            delta2_prior=(5.0, 4.0),
            dof=3 + 3,
        )
        z = np.random.default_rng(0).normal(size=(4, 3))
        model = make_posterior_model(z, design, priors, include_likelihood=False)
        cfg = SamplerConfig(n_iterations=250000, burn_in=30000, thin=10, seed=9)
        samples = run_chain(model, cfg)
        psi = samples.draws[:, :3]
        target = prior_cov_psi(design, priors.modal_hypers()).psi_cov
        sd = np.sqrt(np.diag(target))
        target_corr = target / np.outer(sd, sd)
        sample_corr = np.corrcoef(psi.T)
        assert np.max(np.abs(sample_corr - target_corr)) < 0.05
        np.testing.assert_allclose(psi.var(axis=0), np.diag(target), rtol=0.10)


class TestDiagnostics:
    def manual_samples(self, draws):
        draws = np.asarray(draws, dtype=float).reshape(-1, 1)
        return PosteriorSamples(draws=draws, names=["x"], acceptance_rate=0.5,
                                scales=np.ones(1), config=SamplerConfig(n_iterations=1),
                                block_info=[])

    def test_iid_ess_near_draw_count(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.normal(size=5000)
            ess = effective_sample_size(x)
            assert 0.8 * 5000 <= ess <= 5000

    def test_constant_chain_ess_one(self):
        assert effective_sample_size(np.ones(1000)) == 1.0

    def test_alternating_chain_finite_positive(self):
        x = np.tile([1.0, -1.0], 500)
        ess = effective_sample_size(x)
        assert np.isfinite(ess) and ess > 0

    def test_report_contents(self):
        samples = self.manual_samples(np.random.default_rng(1).normal(size=800))
        report = diagnostics(samples)
        assert report.n_draws == 800
        assert "ess[x]" in report.to_text()

    def test_trace_export(self, tmp_path):
        samples = self.manual_samples([0.5, 1.5, -0.5])
        path = tmp_path / "trace.csv"
        export_trace(samples, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,parameter,value"
        assert lines[1] == "0,x,0.5"
        assert len(lines) == 4

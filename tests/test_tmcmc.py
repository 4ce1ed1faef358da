import math

import numpy as np
import pytest

from strandgp import (
    NumericalError,
    SamplerConfig,
    TargetModel,
    effective_sample_size,
    export_trace,
    run_chain,
    run_chains,
    tmcmc_step,
)
from strandgp.tmcmc import PosteriorSamples, _Adaptation
from strandgp.util import spawn_rngs


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
        x, lp, accepted = tmcmc_step(np.array([2.0]), np.array([1.0]), target, rng,
                                     lp_x=target(np.array([2.0])))
        assert accepted
        assert x.tolist() == [1.0]

    def test_acceptance_probability_density_ratio(self):
        # Standard normal, x=0 -> x*=2: acceptance probability e^{-2}.
        target = gaussian_target([0.0], [[1.0]])
        threshold = math.exp(-2.0)
        rng = ScriptedRNG(normals=[1.0], signs=[[1]], uniforms=[threshold * 0.999])
        _, _, accepted = tmcmc_step(np.array([0.0]), np.array([2.0]), target, rng, lp_x=0.0)
        assert accepted
        rng = ScriptedRNG(normals=[1.0], signs=[[1]], uniforms=[threshold * 1.001])
        x, _, accepted = tmcmc_step(np.array([0.0]), np.array([2.0]), target, rng, lp_x=0.0)
        assert not accepted
        assert x.tolist() == [0.0]

    def test_zero_epsilon_is_stationary_accept(self):
        target = gaussian_target([0.0], [[1.0]])
        rng = ScriptedRNG(normals=[0.0], signs=[[1]], uniforms=[0.999999])
        x, _, accepted = tmcmc_step(np.array([0.7]), np.array([1.0]), target, rng,
                                    lp_x=target(np.array([0.7])))
        assert accepted
        assert x.tolist() == [0.7]

    def test_nonfinite_proposal_autorejected(self):
        def target(x):
            return 0.0 if abs(x[0]) < 1.0 else -math.inf

        rng = ScriptedRNG(normals=[5.0], signs=[[1]], uniforms=[])
        x, lp, accepted = tmcmc_step(np.array([0.0]), np.array([1.0]), target, rng, lp_x=0.0)
        assert not accepted and x.tolist() == [0.0]

    def test_requires_finite_current_density(self):
        with pytest.raises(NumericalError):
            tmcmc_step(np.array([5.0]), np.array([1.0]),
                       lambda x: -math.inf, ScriptedRNG(), lp_x=-math.inf)

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

        cfg = SamplerConfig(n_iterations=1600, burn_in=1600, seed=1)
        scales, history = burn_in_scales(target, cfg)
        assert len(history) == 8
        factors = [h["factor"] for h in history]
        assert factors[-1] < factors[0]
        assert np.all(scales < 2.4 / math.sqrt(2))

    def test_all_acceptances_grow_scales(self):
        cfg = SamplerConfig(n_iterations=1600, burn_in=1600, seed=1)
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
        cfg = SamplerConfig(n_iterations=26000, burn_in=25000, seed=5)
        samples = run_chain(model, cfg)
        # latest completed adaptation windows sit inside the band
        recent = [h["acceptance"] for h in samples.block_info[-8:]]
        assert 0.20 <= np.mean(recent) <= 0.35
        # post-burn-in acceptance stays in the band too
        assert 0.20 <= samples.acceptance_rate <= 0.35

    def test_scales_frozen_after_burn_in(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=4000, burn_in=2000, seed=0)
        samples = run_chain(model, cfg)
        assert len(samples.block_info) == 10  # windows fit inside burn-in only

    def test_per_block_phase_visits_blocks_in_turn(self):
        # After GLOBAL_WINDOWS shared windows, each window moves one block's
        # log factor, blocks taken in turn, by RATE / sqrt(min(visits, 16))
        # times the window's acceptance minus the band's midpoint.
        adapt = _Adaptation([np.array([0]), np.array([1]), np.array([2])], 3)
        window, n_global = _Adaptation.WINDOW, _Adaptation.GLOBAL_WINDOWS
        mid = 0.5 * (_Adaptation.BAND[0] + _Adaptation.BAND[1])
        visits = [0, 0, 0]
        for w in range(n_global + 3 * 18):
            accepted = (37 * w) % (window + 1)
            before = list(adapt.log_factors)
            closed = [adapt.record(i < accepted) for i in range(window)]
            assert closed == [False] * (window - 1) + [True]
            if w < n_global:
                assert adapt.history[-1]["block"] == -1
                continue
            b = (w - n_global) % 3
            visits[b] += 1
            step = _Adaptation.RATE / math.sqrt(min(visits[b], 16))
            assert adapt.history[-1]["block"] == b
            assert adapt.log_factors[b] == pytest.approx(
                before[b] + step * (accepted / window - mid), rel=0, abs=1e-12)
            assert [lf for i, lf in enumerate(adapt.log_factors) if i != b] == \
                [lf for i, lf in enumerate(before) if i != b]
        assert visits == [18, 18, 18]


class TestRunChain:
    def test_zero_post_burn_iterations(self):
        target = gaussian_target([0.0], [[1.0]])
        model = TargetModel(log_target=target, x0=np.zeros(1), names=["x"])
        cfg = SamplerConfig(n_iterations=500, burn_in=500, thin=10, seed=0)
        samples = run_chain(model, cfg)
        assert samples.draws.shape == (0, 1)
        assert 0.0 <= samples.acceptance_rate <= 1.0

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
        chains = run_chains([model] * 3, cfg, spawn_rngs(cfg.seed, 3))
        assert len(chains) == 3
        assert not np.array_equal(chains[0].draws, chains[1].draws)

    def test_nonfinite_start_rejected(self):
        model = TargetModel(log_target=lambda x: -math.inf, x0=np.zeros(1), names=["x"])
        with pytest.raises(NumericalError):
            run_chain(model, SamplerConfig(n_iterations=10, seed=0))

    def test_nonfinite_scales_rejected_by_name(self):
        # NaN fails a "<= 0" test, so it needs its own check: a NaN scale
        # would make every proposal NaN and the chain would never move.
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match=r"psi:b=(nan|inf|0\.0)"):
                TargetModel(log_target=lambda x: 0.0, x0=np.zeros(3), names=["psi:a", "psi:b", "s"],
                            base_scales=np.array([1.0, bad, 0.5]))

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



def sequential_chain(model, config, rng):
    """Reference: one chain by ``tmcmc_step``, iteration after iteration, as
    a chain ran before chains advanced in lockstep."""
    x, lp = model.x0.copy(), model.log_target(model.x0.copy())
    d = x.size
    adapt = _Adaptation(model.blocks, d)
    scales = model.base_scales * adapt.factors(d)
    draws, accepted = [], 0
    for t in range(config.n_iterations):
        x, lp, ok = tmcmc_step(x, scales, model.log_target, rng, lp_x=lp)
        if t < config.burn_in:
            if adapt.record(ok):
                scales = model.base_scales * adapt.factors(d)
        else:
            accepted += ok
            if (t - config.burn_in + 1) % config.thin == 0:
                draws.append(x)
    return np.array(draws).reshape(-1, d), accepted, scales, adapt.history


def assert_same_chain(a, b):
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate
    np.testing.assert_array_equal(a.scales, b.scales)
    assert a.block_info == b.block_info


@pytest.mark.filterwarnings("ignore:acceptance .* did not enter the target band:RuntimeWarning")
class TestLockstep:
    """Chain c of ``run_chains`` is the chain ``run_chain`` gives for model c
    and generator c alone, bit for bit, whatever runs beside it."""

    CONFIG = SamplerConfig(n_iterations=3000, burn_in=1000, thin=7, seed=0)

    def gaussian_models(self):
        rng = np.random.default_rng(4)
        models = []
        for c in range(4):
            a = rng.normal(size=(3, 3))
            mean = rng.normal(size=3)
            models.append(TargetModel(log_target=gaussian_target(mean, a @ a.T + np.eye(3)),
                                      x0=mean + 1.0, names=["x0", "x1", "x2"],
                                      blocks=[np.array([0, 1]), np.array([2])],
                                      base_scales=np.full(3, 0.5 + c)))
        return models

    def test_gaussian_chains_match_each_chain_alone(self):
        models = self.gaussian_models()
        together = run_chains(models, self.CONFIG, spawn_rngs(8, len(models)))
        for model, rng, chain in zip(models, spawn_rngs(8, len(models)), together):
            assert_same_chain(chain, run_chain(model, self.CONFIG, rng))

    def test_matches_the_sequential_reference(self):
        models = self.gaussian_models()
        post = self.CONFIG.n_iterations - self.CONFIG.burn_in
        together = run_chains(models, self.CONFIG, spawn_rngs(9, len(models)))
        for model, rng, chain in zip(models, spawn_rngs(9, len(models)), together):
            draws, accepted, scales, history = sequential_chain(model, self.CONFIG, rng)
            np.testing.assert_array_equal(chain.draws, draws)
            assert chain.acceptance_rate == accepted / post
            np.testing.assert_array_equal(chain.scales, scales)
            assert chain.block_info == history

    def test_plain_functions_beside_a_joint_target(self):
        # Targets that offer a joint evaluation serve only a list of their
        # own kind; with a plain function among them every row calls its
        # own target.
        calls = []

        class Joint:
            def __init__(self, f):
                self.f = f

            def __call__(self, x):
                return self.f(x)

            @staticmethod
            def joint(targets):
                if not all(isinstance(t, Joint) for t in targets):
                    return None
                return lambda xs: calls.append(len(xs)) or [t.f(x) for t, x in zip(targets, xs)]

        models = self.gaussian_models()
        joint = [TargetModel(log_target=Joint(m.log_target), x0=m.x0, names=m.names,
                             blocks=m.blocks, base_scales=m.base_scales) for m in models]
        alone = [run_chain(m, self.CONFIG, rng) for m, rng in zip(models, spawn_rngs(3, 4))]
        for chains in (joint, [joint[0], models[1], joint[2], models[3]]):
            calls.clear()
            together = run_chains(chains, self.CONFIG, spawn_rngs(3, 4))
            assert calls == ([4] * (self.CONFIG.n_iterations + 1) if chains is joint else [])
            for chain, reference in zip(together, alone):
                assert_same_chain(chain, reference)

    def test_models_of_different_dimensions_are_refused(self):
        models = [TargetModel(log_target=lambda x: 0.0, x0=np.zeros(d), names=["x"] * d)
                  for d in (1, 2)]
        with pytest.raises(ValueError, match="one dimension"):
            run_chains(models, self.CONFIG, spawn_rngs(0, 2))

    def test_nonfinite_start_names_the_chain(self):
        models = [TargetModel(log_target=lambda x, c=c: -math.inf if c == 1 else 0.0,
                              x0=np.zeros(1), names=["x"]) for c in range(3)]
        with pytest.raises(NumericalError) as raised:
            run_chains(models, self.CONFIG, spawn_rngs(0, 3))
        assert raised.value.chain == 1

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

    def test_trace_export(self, tmp_path):
        samples = self.manual_samples([0.5, 1.5, -0.5])
        path = tmp_path / "trace.csv"
        export_trace(samples, path, parameters=["x"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,parameter,value"
        assert lines[1] == "0,x,0.5"
        assert len(lines) == 4

import numpy as np
import pytest
from scipy import stats

from strandgp import (
    DataError,
    ExpressionDataset,
    SamplerConfig,
    build_design_matrix,
    loo_predictive,
    overall_coverage,
    run_loo,
)
from strandgp.crossval import _t_cdf, _t_quantile, predictive_draws
from strandgp.simulate import simulate_dataset


def tiny_dataset(seed=0, m=4, n=6, k=2):
    sim = simulate_dataset(m=m, n=n, k=k, seed=seed, varrho2=2.0, nu=1.0)
    dataset = ExpressionDataset(
        patient_ids=sim.patient_ids,
        mirna_names=sim.mirna_names,
        case=sim.case,
        control=sim.control,
        z=None,
    )
    design = build_design_matrix(sim.annotation, sim.mirna_names)
    return dataset, design


def chain_draws(psis, delta2s):
    """A stored-draw matrix: effects, three unused hyperparameter columns,
    then log delta2."""
    psis = np.atleast_2d(psis)
    return np.hstack([psis, np.zeros((psis.shape[0], 3)), np.log(np.asarray(delta2s))[:, None]])


def t_scales(psis, delta2s, z_train, nu):
    """Per state and unit, sqrt((delta2 + S_ii) / nu) with S the training
    scatter about the state's effects, summed directly."""
    scatter = ((z_train[None, :, :] - psis[:, None, :]) ** 2).sum(axis=1)
    return np.sqrt((delta2s[:, None] + scatter) / nu)


class TestStudentT:
    """The t CDF and quantile in numpy, against scipy.special as the oracle,
    for every integer nu from 1 to 500."""

    U = np.concatenate([np.linspace(-40.0, 40.0, 801), np.geomspace(1e-9, 1e3, 100),
                        -np.geomspace(1e-9, 1e3, 100), [0.0]])

    def test_cdf_matches_stdtr(self):
        from scipy.special import stdtr

        for nu in range(2, 501):
            # The finite sum's rounding grows with its nu / 2 terms.
            np.testing.assert_allclose(_t_cdf(nu, self.U), stdtr(nu, self.U),
                                       rtol=0, atol=4e-16 + 8e-18 * nu, err_msg=f"nu={nu}")

    def test_cdf_at_one_degree_is_the_cauchy_law(self):
        # scipy's stdtr(1, u) is up to 1.6e-9 off near u = 0, so nu = 1 is
        # checked against the closed form.
        np.testing.assert_allclose(_t_cdf(1, self.U), 0.5 + np.arctan(self.U) / np.pi,
                                   rtol=0, atol=2e-16)

    @pytest.mark.parametrize("levels, rtol", [
        ((0.025, 0.1, 0.125, 0.3, 0.5, 0.7, 0.875, 0.9, 0.975), 5e-14),
        ((1e-3, 0.999), 5e-13),
        ((1e-6, 1.0 - 1e-6), 1e-10),
    ])
    def test_quantile_matches_stdtrit(self, levels, rtol):
        # The CDF is accurate in absolute terms, so the relative error of a
        # quantile grows as its tail probability falls.
        from scipy.special import stdtrit

        for nu in range(1, 501):
            got = [_t_quantile(nu, p) for p in levels]
            np.testing.assert_allclose(got, stdtrit(nu, np.array(levels)), rtol=rtol, atol=0,
                                       err_msg=f"nu={nu}")


class TestPredictiveInterval:
    def test_one_state_one_unit_is_the_student_t_quantile(self):
        rng = np.random.default_rng(0)
        psi = np.array([[0.7]])
        delta2 = np.array([1.3])
        z_train = rng.normal(0.5, 1.0, size=(7, 1))
        dof = 1 + 3
        nu = dof + 7 - 1 + 1
        low, high = predictive_draws(chain_draws(psi, delta2), z_train, dof=dof, m=1, level=0.75)
        s = t_scales(psi, delta2, z_train, nu)[0, 0]
        np.testing.assert_allclose(low, 0.7 + s * stats.t.ppf(0.125, nu), rtol=0, atol=1e-12)
        np.testing.assert_allclose(high, 0.7 + s * stats.t.ppf(0.875, nu), rtol=0, atol=1e-12)

    def test_mixture_cdf_equals_the_tail_levels_at_the_ends(self):
        rng = np.random.default_rng(1)
        n_states, m, n = 40, 5, 9
        psis = rng.normal(scale=2.0, size=(n_states, m))
        delta2s = rng.gamma(2.0, 0.5, size=n_states)
        z_train = rng.normal(size=(n, m))
        dof = m + 3
        nu = dof + n - m + 1
        ends = predictive_draws(chain_draws(psis, delta2s), z_train, dof=dof, m=m, level=0.8)
        s = t_scales(psis, delta2s, z_train, nu)
        for end, target in zip(ends, (0.1, 0.9)):
            cdf = stats.t.cdf((end[None, :] - psis) / s, nu).mean(axis=0)
            np.testing.assert_allclose(cdf, target, rtol=0, atol=1e-12)

    def test_agrees_with_the_inverse_wishart_composition(self):
        # Monte Carlo oracle: per state, draw the error covariance from its
        # inverse-Wishart conditional and a new row from the normal around
        # psi; the pooled draws' per-unit quantiles match the exact ends.
        rng = np.random.default_rng(2)
        m, n, n_draws = 3, 6, 25000
        psis = np.array([[0.5, -1.0, 2.0], [0.8, -0.6, 1.5], [0.2, -1.3, 2.4]])
        delta2s = np.array([0.8, 1.1, 0.6])
        z_train = rng.normal(size=(n, m)) + psis[0]
        dof = m + 3
        pooled = []
        for psi, delta2 in zip(psis, delta2s):
            centered = z_train - psi
            scale = delta2 * np.eye(m) + centered.T @ centered
            sigmas = stats.invwishart.rvs(df=dof + n, scale=scale, size=n_draws, random_state=rng)
            normals = rng.standard_normal((n_draws, m, 1))
            pooled.append(psi + (np.linalg.cholesky(sigmas) @ normals)[:, :, 0])
        pooled = np.vstack(pooled)
        ends = predictive_draws(chain_draws(psis, delta2s), z_train, dof=dof, m=m, level=0.75)
        nu = dof + n - m + 1
        s = t_scales(psis, delta2s, z_train, nu)
        for end, q in zip(ends, (0.125, 0.875)):
            density = (stats.t.pdf((end[None, :] - psis) / s, nu) / s).mean(axis=0)
            se = np.sqrt(q * (1.0 - q) / pooled.shape[0]) / density
            got = np.quantile(pooled, q, axis=0)
            assert np.all(np.abs(got - end) < 4.0 * se), (q, got, end, se)

    def test_training_row_permutation_leaves_intervals_unchanged(self):
        rng = np.random.default_rng(3)
        psis = rng.normal(size=(30, 4))
        delta2s = rng.gamma(2.0, 0.5, size=30)
        z_train = rng.normal(size=(8, 4))
        a = predictive_draws(chain_draws(psis, delta2s), z_train, dof=7, m=4, level=0.75)
        b = predictive_draws(chain_draws(psis, delta2s), z_train[::-1], dof=7, m=4, level=0.75)
        np.testing.assert_array_equal(a, b)


class TestLooPredictive:
    def test_fold_summary_structure(self):
        dataset, design = tiny_dataset()
        cfg = SamplerConfig(n_iterations=1500, burn_in=500, thin=5, seed=0)
        summary = loo_predictive(dataset, design, 0, cfg)
        assert summary.patient_id == dataset.patient_ids[0]
        assert summary.low.shape == (dataset.n_mirnas,)
        assert np.all(summary.low <= summary.high)
        assert summary.covered.dtype == bool
        assert 0.0 <= summary.coverage <= 1.0

    def test_requires_three_patients(self):
        dataset, design = tiny_dataset(n=4)
        small = dataset.drop_patient(0).drop_patient(0)
        cfg = SamplerConfig(n_iterations=100, burn_in=50, seed=0)
        with pytest.raises(DataError):
            loo_predictive(small, design, 0, cfg)

    def test_subset_reproduces_full_run_fold(self):
        dataset, design = tiny_dataset(seed=1)
        cfg = SamplerConfig(n_iterations=800, burn_in=300, thin=5, seed=3)
        full = run_loo(dataset, design, cfg)
        only_two = run_loo(dataset, design, cfg, folds=[2])
        np.testing.assert_array_equal(full[2].low, only_two[0].low)
        np.testing.assert_array_equal(full[2].high, only_two[0].high)

    def test_overall_coverage_pools_folds(self):
        dataset, design = tiny_dataset(seed=2)
        cfg = SamplerConfig(n_iterations=800, burn_in=300, thin=5, seed=4)
        summaries = run_loo(dataset, design, cfg, folds=[0, 1])
        pooled = overall_coverage(summaries)
        flags = np.concatenate([s.covered for s in summaries])
        assert pooled == flags.mean()

    def test_csv_output(self, tmp_path):
        dataset, design = tiny_dataset(seed=3)
        cfg = SamplerConfig(n_iterations=600, burn_in=200, thin=4, seed=5)
        summary = loo_predictive(dataset, design, 1, cfg)
        path = tmp_path / "fold.csv"
        summary.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mirna,pred_low,pred_high,observed,covered"
        assert len(lines) == dataset.n_mirnas + 1

    def test_center_of_predictive_is_covered(self):
        # A held-out value equal to the posterior-mean effect sits inside
        # any central interval of reasonable width.
        dataset, design = tiny_dataset(seed=4)
        cfg = SamplerConfig(n_iterations=1200, burn_in=400, thin=4, seed=6)
        summary = loo_predictive(dataset, design, 0, cfg)
        center = 0.5 * (summary.low + summary.high)
        inside = (center >= summary.low) & (center <= summary.high)
        assert inside.all()


def test_predictive_draws_shape():
    rng = np.random.default_rng(0)
    draws = np.hstack([
        rng.normal(size=(10, 2)),                       # psi block
        rng.normal(size=(10, 3)),                       # hyper block (unused here)
        np.log(rng.normal(size=(10, 1)) ** 2 + 0.5),    # log delta2
    ])
    z_train = rng.normal(size=(5, 2))
    out = predictive_draws(draws, z_train, dof=5, m=2, level=0.75)
    assert out.shape == (2, 2)
    assert np.all(out[0] < out[1])

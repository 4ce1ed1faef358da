import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from strandgp import (
    DataError,
    bh_adjust,
    bootstrap_pvalue,
    lr_stat,
    run_baseline,
)
from strandgp.lrbh import _replicate_zetas


def _exact_lower_tail(z):
    """P(zeta* <= zeta_obs) at the null point nearest the observed mean, for
    zeta_obs < 1, by quadrature over the replicate mean: zeta* <= zeta_obs
    iff |mean*| > 1 and n v* / s^2 <= n g^2 r / ((1 - r) s^2), with
    r = zeta_obs^(2/n), g the replicate mean's gap to the interval and
    n v* / s^2 ~ chi^2_{n-1}."""
    from scipy import integrate

    z = np.asarray(z, dtype=float)
    n = z.size
    mean, var = z.mean(), np.mean((z - z.mean()) ** 2)
    center = float(np.clip(mean, -1.0, 1.0))
    s2 = var + (mean - center) ** 2
    r = lr_stat(z).zeta ** (2.0 / n)
    assert r < 1.0

    def integrand(x):
        g = x - np.clip(x, -1.0, 1.0)
        return (stats.norm.pdf(x, center, math.sqrt(s2 / n))
                * stats.chi2.cdf(n * g * g * r / ((1.0 - r) * s2), n - 1))

    lower = integrate.quad(integrand, -np.inf, -1.0, epsabs=1e-12)[0]
    upper = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-12)[0]
    return lower + upper


def _full_sample_zetas(center, spread2, n, n_boot, rng):
    """zeta over rows of a (replicates x n) matrix of N(center, spread2)
    observations, from the constrained and unconstrained variance MLEs."""
    samples = center + math.sqrt(spread2) * rng.standard_normal((n_boot, n))
    means = samples.mean(axis=1)
    var = np.mean((samples - means[:, None]) ** 2, axis=1)
    c_var = np.mean((samples - np.clip(means, -1.0, 1.0)[:, None]) ** 2, axis=1)
    return (var / c_var) ** (n / 2.0)


class TestLrStat:
    def test_interior_mean_gives_unit_statistic(self):
        res = lr_stat([0.5, -0.2, 0.9, 0.1])
        assert res.zeta == 1.0
        assert res.constrained_mean == res.mean

    def test_constant_sample_rejected(self):
        with pytest.raises(DataError, match="zero sample variance"):
            lr_stat([2.0, 2.0, 2.0, 2.0])

    def test_too_few_observations(self):
        with pytest.raises(DataError):
            lr_stat([1.0])

    def test_clamped_mean_against_grid_oracle(self):
        z = np.array([3.0, 5.0, 4.0])
        res = lr_stat(z)
        assert res.constrained_mean == 1.0

        # Dense 2-D grid over (mean, variance) for both optimizations.
        def max_loglik(mean_grid, var_grid):
            mg = mean_grid[:, None]
            vg = var_grid[None, :]
            sq = ((z[None, None, :] - mg[..., None]) ** 2).sum(axis=-1)
            ll = -0.5 * z.size * np.log(2 * np.pi * vg) - sq / (2 * vg)
            return ll.max()

        var_grid = np.geomspace(0.05, 60.0, 1500)
        constrained = max_loglik(np.linspace(-1.0, 1.0, 1201), var_grid)
        unconstrained = max_loglik(np.linspace(-8.0, 8.0, 4801), var_grid)
        oracle_zeta = np.exp(constrained - unconstrained)
        assert res.zeta == pytest.approx(oracle_zeta, rel=2e-3)
        assert res.zeta == pytest.approx(0.01811123211858242, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=12))
    def test_sign_flip_invariance(self, values):
        z = np.asarray(values)
        if np.mean((z - z.mean()) ** 2) <= 1e-12:
            return
        a = lr_stat(z)
        b = lr_stat(-z)
        assert a.zeta == pytest.approx(b.zeta, rel=1e-12)
        assert a.constrained_mean == pytest.approx(-b.constrained_mean, abs=1e-12)

    def test_zeta_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 2.0), size=6)
            assert lr_stat(z).zeta <= 1.0


class TestBootstrapPvalue:
    def test_unit_statistic_large_pvalue(self):
        z = np.array([0.2, -0.3, 0.5, 0.1, -0.2])
        res = lr_stat(z)
        assert res.zeta == 1.0
        p = bootstrap_pvalue(z, n_boot=2000, seed=0)
        assert p > 0.5

    def test_zero_replicates_gives_one(self):
        assert bootstrap_pvalue([1.0, 2.0, 0.5], n_boot=0, seed=0) == 1.0

    def test_frozen_regression_value(self):
        # Determinism contract plus a value frozen from the first verified run.
        z = np.array([2.1, 1.4, 3.3, 0.2, 2.7])
        p = bootstrap_pvalue(z, n_boot=5000, seed=12345)
        assert p == 0.08098380323935213
        assert bootstrap_pvalue(z, n_boot=5000, seed=12345) == p

    def test_monotone_in_shifted_mean_with_common_randoms(self):
        # Fixed variance, growing |mean| beyond the interval: p decreases.
        base = np.array([0.0, 0.6, -0.4, 0.8, -0.7, 0.3])
        pvals = []
        for shift in (1.2, 1.8, 2.6, 3.6):
            pvals.append(bootstrap_pvalue(base + shift, n_boot=4000, seed=99))
        assert all(a >= b for a, b in zip(pvals, pvals[1:]))

    def test_boundary_null_roughly_uniform_randomized(self):
        rng = np.random.default_rng(1)
        pvals = []
        for _ in range(120):
            z = rng.normal(1.0, 1.0, size=12)
            pvals.append(bootstrap_pvalue(z, n_boot=400, seed=rng, ties="randomized",
                                          null_point="boundary"))
        ks = stats.kstest(pvals, "uniform")
        assert ks.statistic < 0.15

    def test_conservative_pvalues_super_uniform_in_lower_tail(self):
        # Validity for step-up adjustment: P(p <= x) must not exceed x by
        # more than Monte Carlo slack in the rejection region.
        rng = np.random.default_rng(2)
        pvals = np.array([
            bootstrap_pvalue(rng.normal(1.0, 1.0, size=12), n_boot=400, seed=rng)
            for _ in range(300)
        ])
        for x in (0.01, 0.05, 0.1, 0.2):
            frac = float((pvals <= x).mean())
            assert frac <= x + 3 * math.sqrt(x * (1 - x) / 300)

    def test_tie_rule_validation(self):
        with pytest.raises(ValueError):
            bootstrap_pvalue([0.0, 1.0, 2.0], n_boot=10, seed=0, ties="bogus")
        with pytest.raises(ValueError, match="tie rule"):
            bootstrap_pvalue([0.0, 1.0, 2.0], n_boot=0, seed=0, ties="bogus")

    @pytest.mark.parametrize("n_boot", [0, 10])
    def test_null_point_validation(self, n_boot):
        with pytest.raises(ValueError, match="null point"):
            bootstrap_pvalue([0.0, 1.0, 2.0], n_boot=n_boot, seed=0, null_point="bogus")

    @pytest.mark.parametrize("null_point", ["mle", "boundary"])
    @pytest.mark.parametrize("z", [
        [2.1, 1.4, 3.3, 0.2, 2.7],
        [-1.9, -0.4, -2.6, -1.1, -3.0, -1.5, -0.8, -2.2],
        [1.3, 0.6, 2.0, 1.1, 1.7, 0.9, 1.5, 1.2, 0.4, 1.9, 1.4, 1.0],
    ])
    def test_conservative_pvalue_matches_exact_tail(self, z, null_point):
        # With the mean outside [-1, 1] both null points are the nearest
        # endpoint with the variance profiled there.
        n_boot = 20000
        tail = _exact_lower_tail(z)
        p = bootstrap_pvalue(z, n_boot=n_boot, seed=5, null_point=null_point)
        expected = (1.0 + n_boot * tail) / (n_boot + 1.0)
        se = math.sqrt(n_boot * tail * (1.0 - tail)) / (n_boot + 1.0)
        assert abs(p - expected) < 4.0 * se

    @pytest.mark.parametrize("center, spread2", [(1.0, 0.5), (-1.0, 2.0), (0.9, 0.3)])
    def test_replicates_distributed_as_over_full_samples(self, center, spread2):
        n, n_boot = 6, 20000
        drawn = _replicate_zetas(center, spread2, n, n_boot, np.random.default_rng(11))
        full = _full_sample_zetas(center, spread2, n, n_boot, np.random.default_rng(12))
        atom_drawn, atom_full = np.mean(drawn == 1.0), np.mean(full == 1.0)
        pooled = (atom_drawn + atom_full) / 2.0
        assert abs(atom_drawn - atom_full) < 4.0 * math.sqrt(2.0 * pooled * (1 - pooled) / n_boot)
        assert stats.ks_2samp(drawn[drawn < 1.0], full[full < 1.0]).pvalue > 1e-3


class TestBhAdjust:
    def test_all_ones_rejects_nothing(self):
        assert bh_adjust(np.ones(5), q=0.1).sum() == 0

    def test_worked_three_pvalue_example(self):
        rejected = bh_adjust(np.array([0.01, 0.02, 0.5]), q=0.1)
        assert rejected.tolist() == [True, True, False]

    def test_single_pvalue(self):
        assert bh_adjust(np.array([0.05]), q=0.1).tolist() == [True]
        assert bh_adjust(np.array([0.15]), q=0.1).tolist() == [False]

    def test_step_up_not_step_down(self):
        # p2 exceeds its own threshold but a later passing rank rescues it.
        p = np.array([0.01, 0.04, 0.045])
        rejected = bh_adjust(p, q=0.05)
        assert rejected.tolist() == [True, True, True]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.floats(0.01, 0.3))
    def test_uniformly_small_pvalues_all_rejected(self, m, q):
        p = np.full(m, q / m * 0.99)
        assert bh_adjust(p, q=q).all()

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(size=12)
        perm = rng.permutation(12)
        a = bh_adjust(p, 0.2)
        b = bh_adjust(p[perm], 0.2)
        np.testing.assert_array_equal(a[perm], b)

    def test_out_of_range_pvalues(self):
        with pytest.raises(ValueError):
            bh_adjust(np.array([0.5, 1.2]))

    def test_nan_pvalue_rejected(self):
        # NaN passes a (p < 0) | (p > 1) test and would sort as the largest.
        with pytest.raises(ValueError):
            bh_adjust(np.array([np.nan, 0.01, 0.02]), 0.1)


class TestRunBaseline:
    def test_end_to_end_discovers_planted_signal(self, tmp_path):
        rng = np.random.default_rng(6)
        null = rng.normal(0.0, 0.8, size=(12, 8))
        signal = rng.normal(4.0, 0.8, size=(12, 2))
        z = np.hstack([signal, null])
        names = [f"m{i}" for i in range(10)]
        report = run_baseline(z, names, q=0.10, n_boot=800, seed=0)
        assert report.rejected[:2].all()
        assert report.rejected[2:].sum() <= 1
        path = tmp_path / "lrbh.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mirna,zeta,p_value,rejected"
        assert len(lines) == 11

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(9, 5))
        a = run_baseline(z, list("abcde"), n_boot=300, seed=3)
        b = run_baseline(z, list("abcde"), n_boot=300, seed=3)
        np.testing.assert_array_equal(a.p_values, b.p_values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, bad):
        z = np.random.default_rng(9).normal(size=(10, 4))
        z[3, 2] = bad
        with pytest.raises(DataError, match="non-finite"):
            run_baseline(z, list("abcd"), n_boot=100, seed=0)

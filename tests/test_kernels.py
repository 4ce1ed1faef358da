import json
import os
import subprocess
import sys
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from oracles import matern_correlation, matern_cov
from strandgp import (
    NumericalError,
    StrandHyperParams,
    build_design_matrix,
    estimate_prior_correlation,
    prior_cov_psi,
)
from strandgp.data import GenomeAnnotation, StrandRecord
from strandgp import kernels
from strandgp.kernels import (
    assemble_blocks,
    hyper_arrays,
    sample_psi_prior,
    unit_variances,
)
from strandgp.util import connected_components, spawn_rngs

mp.mp.dps = 50


def matern_oracle(d, varrho2, nu, rho):
    """Arbitrary-precision evaluation through mpmath's Bessel K."""
    if d == 0:
        return float(varrho2)
    x = mp.sqrt(2 * mp.mpf(nu)) * mp.mpf(d) / mp.mpf(rho)
    val = mp.mpf(varrho2) * 2 ** (1 - mp.mpf(nu)) / mp.gamma(nu) * x ** mp.mpf(nu) * mp.besselk(nu, x)
    return float(val)


def make_annotation(spec):
    """spec: list of (strand_id, length, [(name, coord), ...])."""
    strands = tuple(
        StrandRecord(strand_id=sid, length=length, loci=tuple(loci))
        for sid, length, loci in spec
    )
    return GenomeAnnotation(strands=strands)


def strand_cov(coords, h):
    """Covariance of units placed one per coordinate on a single strand,
    i.e. that strand's Matern Gram matrix, and the jitter it needed."""
    names = [f"u{i}" for i in range(len(coords))]
    ann = make_annotation([("Chr1+", 1e6, list(zip(names, coords)))])
    pc = prior_cov_psi(build_design_matrix(ann, names), [h])
    return pc.psi_cov, pc.jitter_used


def dense_congruence(design, hypers):
    """Reference P W P^T: each strand's Matern Gram matrix through its column
    block of P, added strand by strand, then symmetrized.  The Gram matrices
    hold the pair covariances of the kernel's own evaluation, so a comparison
    checks the assembly by index, not the Matern values."""
    index = design.covariance_index
    draw = [values[None] for values in hyper_arrays(hypers)]
    pairs = kernels._pair_covariances(index, kernels._layout(index, False), *draw)[0][0]
    p = design.p.astype(float)
    cov = np.zeros((design.n_mirnas, design.n_mirnas))
    start = 0
    for strand, h, cols in zip(design.annotation.strands, hypers, design.strand_slices):
        n = len(strand.loci)
        a, b = np.triu_indices(n, 1)
        w = np.diag(np.full(n, h.varrho2))
        w[a, b] = w[b, a] = pairs[start:start + a.size]
        start += a.size
        cov += p[:, cols] @ w @ p[:, cols].T
    return 0.5 * (cov + cov.T)


def random_design(rng, n_strands, singles, shared):
    """Strands of 2-6 loci plus ``singles`` one-locus strands; ``shared``
    units also get a locus on the next strand (one on the next two), so
    multi-locus units chain strands into components."""
    spec, names = [], []
    for s in range(n_strands + singles):
        count = 1 if s >= n_strands else int(rng.integers(2, 7))
        loci = []
        for _ in range(count):
            loci.append((f"m{len(names)}", float(rng.uniform(1.0, 1e4))))
            names.append(loci[-1][0])
        spec.append([f"Chr{s:02d}+", 1e4, loci])
    for j, s in enumerate(rng.choice(n_strands - 2, size=shared, replace=False)):
        unit = spec[s][2][0][0]
        for t in ((s + 1, s + 2) if j == 0 else (s + 1,)):
            spec[t][2].append((unit, float(rng.uniform(1.0, 1e4))))
    for entry in spec:
        entry[2].sort(key=lambda t: t[1])
    return build_design_matrix(make_annotation(spec), names)


def jitter_design():
    """Two components: four loci a few bases apart on one strand (their
    block needs jitter when the correlation length is long) and three units
    on two strands tied by ``b1``; units are listed interleaved."""
    ann = make_annotation([
        ("Chr1+", 2e3, [("a0", 1000.0), ("a1", 1001.0), ("a2", 1002.0), ("a3", 1010.0)]),
        ("Chr2+", 2e3, [("b0", 100.0), ("b1", 900.0)]),
        ("Chr3+", 2e3, [("c0", 40.0), ("b1", 300.0)]),
    ])
    return build_design_matrix(ann, ["b0", "a0", "c0", "a1", "a2", "b1", "a3"])


def draw_jittery(rng):
    """Hyperparameters under which about a fifth of the jitter design's
    draws are not numerically positive definite (need jitter to factor)."""
    return [StrandHyperParams(float(1.0 / rng.gamma(3.0, 1.0)), float(np.exp(rng.normal(1.5, 0.5))),
                              float(np.exp(rng.normal(6.0, 2.0)))),
            StrandHyperParams(2.0, 1.0, 500.0), StrandHyperParams(1.0, 0.7, 200.0)]


def random_hypers(rng, k):
    return [StrandHyperParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 3.0)),
                              float(rng.uniform(1e2, 3e3))) for _ in range(k)]


class TestMaternCov:
    def test_zero_distance_returns_process_variance(self):
        for varrho2 in (0.5, 1.0, 7.3):
            h = StrandHyperParams(varrho2, 1.7, 11.0)
            assert matern_cov(0.0, h) == varrho2

    def test_half_smoothness_closed_form(self):
        h = StrandHyperParams(1.0, 0.5, 1.0)
        assert matern_cov(1.0, h) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_frozen_high_precision_value(self):
        # mpmath oracle at 50 digits: matern(d=5, varrho2=2, nu=1.5, rho=10)
        h = StrandHyperParams(2.0, 1.5, 10.0)
        assert matern_cov(5.0, h) == pytest.approx(1.569775307914901309, rel=1e-12)

    def test_against_live_oracle_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            varrho2 = rng.uniform(0.1, 5.0)
            nu = rng.uniform(0.1, 50.0)
            rho = rng.uniform(0.5, 1e6)
            d = rng.uniform(1e-3, 1e3) * rho
            h = StrandHyperParams(varrho2, nu, rho)
            expected = matern_oracle(d, varrho2, nu, rho)
            if expected < 1e-250:
                continue
            assert matern_cov(d, h) == pytest.approx(expected, rel=1e-10)

    def test_overflow_corner_maps_to_variance(self):
        # Bessel overflow regime: the true value equals the process variance
        # to ~1e-12 relative; the implementation must not return inf/nan.
        h = StrandHyperParams(2.0, 50.0, 1.0)
        value = matern_cov(1e-6, h)
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_monotone_decay_in_distance(self):
        for nu in (0.3, 0.5, 1.5, 4.0, 20.0):
            h = StrandHyperParams(2.0, nu, 37.0)
            grid = np.linspace(0.0, 500.0, 200)
            values = matern_cov(grid, h)
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all(values > 0)
            assert np.all(values <= 2.0)

    def test_scale_equivariance_in_variance(self):
        grid = np.linspace(0.1, 300.0, 50)
        a = matern_cov(grid, StrandHyperParams(1.0, 2.2, 40.0))
        b = matern_cov(grid, StrandHyperParams(13.7, 2.2, 40.0))
        np.testing.assert_allclose(b / 13.7, a, rtol=1e-12)

    def test_exponential_identity_tight(self):
        rho = 123.0
        h = StrandHyperParams(3.1, 0.5, rho)
        grid = np.linspace(0.0, 5 * rho, 100)
        np.testing.assert_allclose(matern_cov(grid, h), 3.1 * np.exp(-grid / rho), rtol=1e-10)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            StrandHyperParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            StrandHyperParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            StrandHyperParams(1.0, 1.0, np.inf)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            matern_cov(-1.0, StrandHyperParams(1.0, 1.0, 1.0))


def matern_correlation_oracle(x, nu):
    """Matern correlation at scaled distance ``x`` by mpmath's Bessel K."""
    x, nu = mp.mpf(x), mp.mpf(nu)
    return float(2 ** (1 - nu) / mp.gamma(nu) * x ** nu * mp.besselk(nu, x))


def matern_quadrature_oracle(x, nu):
    """Matern correlation at scaled distance ``x`` from mpmath's quadrature
    of K_nu(x) = (1/2) int exp(nu t - x cosh t) dt, split around the
    integrand's peak.  mpmath's besselk loses every digit at large orders
    (at nu = 826, x = 700 it returns a negative value at 40 digits)."""
    with mp.workdps(30):
        x, nu = mp.mpf(x), mp.mpf(nu)
        kappa = mp.sqrt(nu * nu + x * x)
        peak = mp.log((nu + kappa) / x)
        top = nu * peak - kappa
        width = 1 / mp.sqrt(kappa)
        half = mp.quad(lambda t: mp.exp(nu * t - x * mp.cosh(t) - top),
                       [peak + c * width for c in (-80, -20, -6, -2, 0, 2, 6, 20, 80)]) / 2
        return float(mp.exp((1 - nu) * mp.log(2) - mp.loggamma(nu) + nu * mp.log(x) + top) * half)


class TestMaternSeries:
    # The series serves 1e-100 <= x <= 2 up to order 8; the Bessel integral
    # serves the other x and orders.  Both must match mpmath to 1e-12.
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 8, 9, 17, 33, 50])
    def test_against_mpmath(self, order):
        xs = np.concatenate([np.geomspace(1e-8, 2.0, 61), [2.0 * (1.0 + 1e-12), 2.01, 3.0]])
        for mu in (0.0, 1e-9, -1e-9, 0.5 - 1e-12, -(0.5 - 1e-12)):
            nu = order + mu
            if nu <= 0.0:
                continue
            d = xs / np.sqrt(2.0 * nu)
            want = [matern_correlation_oracle(np.sqrt(2.0 * nu) * dv, nu) for dv in d]
            got = matern_correlation(d, nu)
            for dv, value, exact in zip(d, got, want):
                assert value == pytest.approx(exact, rel=1e-12, abs=0.0), (nu, dv)

    def test_overflow_corner_and_far_tail(self):
        h = StrandHyperParams(2.0, 50.0, 1.0)
        want = 2.0 * matern_correlation_oracle(np.sqrt(100.0) * 1e-6, 50.0)
        assert matern_cov(1e-6, h) == pytest.approx(want, rel=1e-12)
        assert matern_cov(1e-6, h) == pytest.approx(2.0, rel=1e-12)
        assert matern_correlation(np.array([800.0, 1e4]), 1.5).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("nu, x", [(100.0, 0.06647), (140.0, 0.68949)])
    def test_where_kv_overflows(self, nu, x):
        # Just below the largest x at which scipy's kv overflows, where the
        # first term of the expansion at 0 is 6e-11 and 4e-7 off, the
        # Bessel integral holds.
        from scipy.special import kv

        assert kv(nu, x) == np.inf
        got = matern_correlation(np.array([x / np.sqrt(2.0 * nu)]), nu)[0]
        assert got == pytest.approx(matern_correlation_oracle(x, nu), rel=1e-12, abs=0.0)

    def test_where_kv_overflows_at_large_order(self):
        # At nu = 800 kv overflows up to x = 239.7; the expansion at 0 that
        # served there was 2e-2 off at its largest x.
        from scipy.special import kv

        lo, hi = 1.0, 1000.0
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if kv(800.0, mid) == np.inf else (lo, mid)
        assert kv(800.0, lo) == np.inf and 200.0 < lo < 300.0
        got = matern_correlation(np.array([lo / np.sqrt(1600.0)]), 800.0)[0]
        assert got == pytest.approx(matern_quadrature_oracle(lo, 800.0), rel=1e-12, abs=0.0)

    def test_far_tail_at_huge_order(self):
        # About 2e-135; a first-term or expansion-at-0 value is 1.0.
        got = matern_correlation(np.array([5000.0 / np.sqrt(4e4)]), 2e4)[0]
        exact = matern_quadrature_oracle(5000.0, 2e4)
        assert 1e-136 < exact < 1e-134
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu", [0.3, 1.5, 8.6, 9.5, 33.0, 100.5, 300.0, 1000.0])
    def test_bessel_grid_against_quadrature(self, nu):
        for x in (2.0 * (1.0 + 1e-12), 2.5, 7.0, 30.0, 120.0, 400.0, 700.0):
            got = matern_correlation(np.array([x / np.sqrt(2.0 * nu)]), nu)[0]
            assert got == pytest.approx(matern_quadrature_oracle(x, nu), rel=1e-12, abs=0.0), (nu, x)

    def test_quadrature_oracle_agrees_with_besselk(self):
        for x, nu in ((2.5, 0.3), (7.0, 1.5), (30.0, 9.5), (3.0, 50.0)):
            exact = matern_correlation_oracle(x, nu)
            assert matern_quadrature_oracle(x, nu) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_near_zero_distance_gives_one(self):
        # Where the exact correlation rounds to 1, the series gives 1 too,
        # so coincident loci make a singular Gram matrix.
        for nu in (1.0, 1.5, 2.49, 4.5, 8.4):
            got = matern_correlation(np.array([1e-17, 1e-16, 1.0]), nu)
            assert got[:2].tolist() == [1.0, 1.0], nu

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_invalid_smoothness_is_a_numerical_error(self, nu):
        with pytest.raises(NumericalError):
            matern_correlation(np.linspace(0.1, 1.0, 8), nu)
        names = [f"u{i}" for i in range(14)]
        wide = build_design_matrix(make_annotation([
            ("Chr1+", 1e4, [(name, 300.0 * i + 7.0) for i, name in enumerate(names[:12])]),
            ("Chr2+", 1e4, [(names[12], 50.0), (names[13], 90.0)]),
        ]), names)
        for index in (jitter_design().covariance_index, wide.covariance_index):
            for first in (True, False):  # the bad strand first or last
                nus = np.full(index.n_strands, 1.3)
                nus[0 if first else -1] = nu
                with pytest.raises(NumericalError):
                    assemble_blocks(index, np.ones(index.n_strands), nus,
                                    np.full(index.n_strands, 500.0))

    def test_pairs_do_not_depend_on_their_company(self, monkeypatch):
        # A pair's covariance is bit-identical whether all pairs are evaluated
        # (assemble_blocks), only the same-unit pairs (unit_variances), or
        # either inside the prior Monte Carlo on one or two threads; orders
        # reach the recurrence and the Bessel hand-off.
        rng = np.random.default_rng(31)
        spec = [("Chr1+", 1e4, [(f"a{i}", 100.0 * i + 3.0) for i in range(40)] + [("a3", 4050.0)]),
                ("Chr2+", 1e4, [(f"b{i}", 37.0 * i + 1.0) for i in range(9)] + [("b0", 800.0), ("b5", 9e3)]),
                ("Chr3+", 1e4, [("c0", 10.0), ("c1", 20.0)])]
        for entry in spec:
            entry[2].sort(key=lambda t: t[1])
        names = sorted({name for _, _, loci in spec for name, _ in loci})
        design = build_design_matrix(make_annotation(spec), names)
        index = design.covariance_index
        same = index.same_unit_pairs
        assert same.size == 3 and np.bincount(kernels._layout(index, False).row_strand)[0] >= 2

        def draw(rng):
            return (rng.uniform(0.5, 3.0, 3), np.exp(rng.uniform(np.log(0.2), np.log(60.0), 3)),
                    np.exp(rng.uniform(np.log(50.0), np.log(5e4), 3)))

        def evaluate(varrho2s, nus, rhos):
            full, ok = kernels._pair_covariances(index, kernels._layout(index, False), varrho2s, nus, rhos)
            subset = kernels._pair_covariances(index, kernels._layout(index, True), varrho2s, nus, rhos)[0]
            diag = kernels.unit_variance_draws(index, varrho2s, nus, rhos)[0]
            return np.concatenate((full, subset, diag), axis=1), ok

        hypers = [np.array(column) for column in zip(*map(draw, spawn_rngs(9, 300)))]
        batch, ok = evaluate(*hypers)
        assert ok.all()
        pairs, units = index.pair_dist.size, index.n_units
        full, subset = batch[:, :pairs], batch[:, pairs:pairs + same.size]
        assert np.array_equal(full[:, same], subset)
        # Draw by draw, and in batches of seven, each row is the same bits,
        # and so are the diagonals of the blocks one draw assembles.
        serial = np.array([evaluate(*(h[i:i + 1] for h in hypers))[0][0] for i in range(300)])
        assert np.array_equal(serial, batch)
        sevens = np.concatenate([evaluate(*(h[i:i + 7] for h in hypers))[0] for i in range(0, 300, 7)])
        assert np.array_equal(sevens, batch)
        for i, row in enumerate(batch):
            one = (hypers[0][i], hypers[1][i], hypers[2][i])
            np.testing.assert_array_equal(kernels.assemble_blocks(index, *one)[index.unit_diag], row[-units:])
            np.testing.assert_array_equal(kernels.unit_variances(index, *one), row[-units:])
        # Inside the prior Monte Carlo, on one or two threads: the rows of
        # each chunk of 256 draws added in order, then the chunks.
        chunks = [np.zeros(batch.shape[1]) for _ in range(2)]
        for i, row in enumerate(batch):
            chunks[i // 256] += row
        for threads in ("1", "2"):
            monkeypatch.setenv("STRANDGP_THREADS", threads)
            total, used = kernels.prior_monte_carlo(draw, 300, 9, evaluate, batch.shape[1])
            assert used == 300
            assert np.array_equal(total, chunks[0] + chunks[1])
        x = np.sqrt(2.0 * hypers[1])[:, index.pair_strand] * index.pair_dist / hypers[2][:, index.pair_strand]
        handed_off = np.any(x > kernels.SERIES_X_MAX, axis=1).sum()
        assert 0 < handed_off < 300

    def test_fold_shaped_fit_calls_no_bessel_function(self, monkeypatch):
        # At the cross-validation fold's shape the sampler's scaled distances
        # all lie in the series' range: the Bessel integral is never evaluated.
        from strandgp import HyperPriorSpec, make_posterior_model
        from strandgp.simulate import simulate_dataset
        from strandgp.tmcmc import SamplerConfig, run_chain

        sim = simulate_dataset(m=150, n=18, k=13, seed=4, varrho2=2.0, nu=1.5, rho_fraction=0.3)
        design = build_design_matrix(sim.annotation, sim.mirna_names)
        z = sim.z[1:]
        model = make_posterior_model(z, design, HyperPriorSpec.from_data(design, z))
        calls = []
        bessel = kernels._bessel

        def counted_bessel(*args):
            calls.append(1)
            return bessel(*args)

        monkeypatch.setattr(kernels, "_bessel", counted_bessel)
        samples = run_chain(model, SamplerConfig(n_iterations=400, burn_in=100, thin=10, seed=2))
        assert samples.acceptance_rate > 0.05
        assert calls == []


class TestStrandCov:
    def test_single_coordinate(self):
        h = StrandHyperParams(2.5, 1.0, 10.0)
        cov, jitter = strand_cov([4.0], h)
        assert cov.tolist() == [[2.5]]
        assert jitter == 0.0

    def test_two_coordinate_symmetry(self):
        h = StrandHyperParams(1.5, 2.0, 25.0)
        cov, _ = strand_cov([10.0, 40.0], h)
        assert cov[0, 1] == cov[1, 0]
        assert cov[0, 1] == pytest.approx(matern_cov(30.0, h), rel=1e-12)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        coords = np.sort(rng.uniform(0, 1e4, size=10))
        h = StrandHyperParams(1.3, 2.5, 2e3)
        cov, _ = strand_cov(coords, h)
        expected = np.empty((10, 10))
        for i in range(10):
            for j in range(10):
                expected[i, j] = matern_oracle(abs(coords[i] - coords[j]), 1.3, 2.5, 2e3)
        assert np.max(np.abs(cov - expected)) < 1e-12

    def test_eigenvalues_nearly_nonnegative(self):
        rng = np.random.default_rng(11)
        coords = np.sort(rng.uniform(0, 1e5, size=30))
        h = StrandHyperParams(4.0, 1.5, 1e4)
        cov, _ = strand_cov(coords, h)
        assert np.linalg.eigvalsh(cov).min() >= -1e-8 * 4.0

    def test_jitter_escalation_and_budget(self, monkeypatch):
        # Coincident-to-machine-precision coordinates force a singular Gram.
        h = StrandHyperParams(1.0, 1.5, 1e6)
        coords = [1000.0, 1000.0 + 1e-9, 1000.0 + 2e-9]
        cov, jitter = strand_cov(coords, h)
        assert jitter > 0.0
        np.linalg.cholesky(cov)  # certified PD after recorded jitter
        # A budget below the initial jitter: the block cannot be certified.
        monkeypatch.setattr(kernels, "JITTER_MAXIMUM", 1e-29)
        with pytest.raises(NumericalError):
            strand_cov(coords, h)

    def test_validation(self):
        h = StrandHyperParams(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            strand_cov([1.0, 1.0], h)
        with pytest.raises(ValueError):
            strand_cov([1.0, np.inf], h)
        # The same coordinate on two strands is two distinct loci.
        ann = make_annotation([("Chr1+", 10.0, [("a", 1.0)]), ("Chr1-", 10.0, [("b", 1.0)])])
        pc = prior_cov_psi(build_design_matrix(ann, ["a", "b"]), [h, h])
        assert pc.psi_cov.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestPriorCovPsi:
    def test_identity_design_single_strand(self):
        ann = make_annotation([("Chr1+", 100.0, [("a", 10.0), ("b", 60.0)])])
        design = build_design_matrix(ann, ["a", "b"])
        h = [StrandHyperParams(2.0, 1.5, 50.0)]
        pc = prior_cov_psi(design, h)
        gram = matern_cov(np.abs(np.array([[0.0, 50.0], [-50.0, 0.0]])), h[0])
        np.testing.assert_allclose(pc.psi_cov, gram, rtol=1e-14)

    def test_cross_strand_unit_sums_block_variances(self):
        ann = make_annotation([
            ("Chr1+", 100.0, [("a", 10.0)]),
            ("Chr2+", 100.0, [("a", 20.0), ("b", 70.0)]),
        ])
        design = build_design_matrix(ann, ["a", "b"])
        hs = [StrandHyperParams(2.0, 1.0, 50.0), StrandHyperParams(3.0, 1.0, 50.0)]
        pc = prior_cov_psi(design, hs)
        assert pc.psi_cov[0, 0] == pytest.approx(2.0 + 3.0, rel=1e-12)
        # a-b covariance comes only from the shared strand
        assert pc.psi_cov[0, 1] == pytest.approx(matern_cov(50.0, hs[1]), rel=1e-12)

    def test_independent_strands_have_zero_cross_covariance(self):
        ann = make_annotation([
            ("Chr1+", 100.0, [("a", 10.0)]),
            ("Chr2-", 100.0, [("b", 10.0)]),
        ])
        design = build_design_matrix(ann, ["a", "b"])
        hs = [StrandHyperParams(1.0, 1.0, 10.0)] * 2
        pc = prior_cov_psi(design, hs)
        assert pc.psi_cov[0, 1] == 0.0

    def test_dense_triple_product_oracle(self):
        rng = np.random.default_rng(9)
        spec = []
        names = []
        idx = 0
        for s in range(3):
            loci = []
            for _ in range(rng.integers(2, 5)):
                names.append(f"m{idx}")
                loci.append((f"m{idx}", float(rng.uniform(1, 1e4))))
                idx += 1
            loci.sort(key=lambda t: t[1])
            spec.append((f"Chr{s}+", 1e4, loci))
        # one multi-strand unit
        spec[0] = (spec[0][0], spec[0][1], list(spec[0][2]) + [(names[-1], 9999.0)])
        spec[0][2].sort(key=lambda t: t[1])
        ann = make_annotation(spec)
        design = build_design_matrix(ann, names)
        hs = [StrandHyperParams(float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)),
                                float(rng.uniform(1e2, 1e4))) for _ in range(3)]
        pc = prior_cov_psi(design, hs)
        w = np.zeros((design.n_loci, design.n_loci))
        for strand, h, cols in zip(design.annotation.strands, hs, design.strand_slices):
            c = strand.coordinates
            w[cols, cols] = matern_cov(np.abs(c[:, None] - c[None, :]), h)
        dense = design.p.astype(float) @ w @ design.p.T.astype(float)
        np.testing.assert_allclose(pc.psi_cov, dense, atol=1e-12)

    def test_wrong_hyper_count(self):
        ann = make_annotation([("Chr1+", 10.0, [("a", 1.0)])])
        design = build_design_matrix(ann, ["a"])
        with pytest.raises(ValueError):
            prior_cov_psi(design, [])


class TestCovarianceIndex:
    def test_assembly_bit_identical_to_dense_congruence(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            design = random_design(rng, n_strands=6, singles=2, shared=3)
            assert np.any(design.p.sum(axis=1) > 1)
            for _ in range(4):
                hypers = random_hypers(rng, design.n_strands)
                pc = prior_cov_psi(design, hypers)
                assert pc.jitter_used == 0.0
                assert np.array_equal(pc.psi_cov, dense_congruence(design, hypers))

    def test_two_loci_of_one_unit_on_one_strand(self):
        ann = make_annotation([
            ("Chr1+", 1e3, [("a", 10.0), ("b", 200.0), ("a", 450.0), ("c", 700.0)]),
            ("Chr2+", 1e3, [("c", 50.0), ("d", 300.0)]),
        ])
        design = build_design_matrix(ann, ["a", "b", "c", "d"])
        rng = np.random.default_rng(5)
        for _ in range(10):
            hypers = random_hypers(rng, 2)
            pc = prior_cov_psi(design, hypers)
            np.testing.assert_allclose(pc.psi_cov, dense_congruence(design, hypers),
                                       rtol=1e-15, atol=0.0)

    def test_unit_variances_are_the_assembled_diagonal(self):
        # Bit for bit, with and without units that have two loci on one strand.
        rng = np.random.default_rng(13)
        same_strand = build_design_matrix(make_annotation([
            ("Chr1+", 1e3, [("a", 10.0), ("b", 200.0), ("a", 450.0), ("a", 460.0), ("c", 700.0)]),
            ("Chr2+", 1e3, [("c", 50.0), ("d", 300.0), ("c", 301.0)]),
        ]), ["a", "b", "c", "d"])
        assert same_strand.covariance_index.same_unit_pairs.size == 4
        for design in (same_strand, random_design(rng, n_strands=6, singles=2, shared=3)):
            index = design.covariance_index
            for _ in range(5):
                arrays = hyper_arrays(random_hypers(rng, design.n_strands))
                np.testing.assert_array_equal(unit_variances(index, *arrays),
                                              assemble_blocks(index, *arrays)[index.unit_diag])

    def test_components_match_graph_search(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            design = random_design(rng, n_strands=8, singles=3, shared=int(rng.integers(0, 5)))
            on_strand = np.column_stack([design.p[:, cols].any(axis=1)
                                         for cols in design.strand_slices]).astype(int)
            linked = on_strand @ on_strand.T > 0  # units sharing a strand
            seen, expected = set(), set()
            for start in range(design.n_mirnas):
                if start in seen:
                    continue
                group, frontier = {start}, [start]
                while frontier:
                    u = frontier.pop()
                    for v in np.flatnonzero(linked[u]).tolist():
                        if v not in group:
                            group.add(v)
                            frontier.append(v)
                seen |= group
                expected.add(frozenset(group))
            index = design.covariance_index
            assert {frozenset(c.tolist()) for c in index.components} == expected
            assert sorted(np.concatenate(index.components).tolist()) == list(range(design.n_mirnas))
            assert index.largest_component == max(len(g) for g in expected)

    def test_connected_components_order(self):
        # Nodes ascend within a component; components follow their smallest node.
        components = connected_components(7, [(6, 1), (4, 0), (1, 5), (3, 3)])
        assert [c.tolist() for c in components] == [[0, 4], [1, 5, 6], [2], [3]]
        assert connected_components(0, []) == []

    def test_index_built_once_per_design(self):
        ann = make_annotation([("Chr1+", 100.0, [("a", 10.0), ("b", 60.0)])])
        design = build_design_matrix(ann, ["a", "b"])
        assert design.covariance_index is design.covariance_index

    def test_concurrent_first_use_and_calls(self):
        # Threads share a design whose index is built on first use; every
        # call must still return what a serial call on a fresh design does.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(3)
        spec_rng = np.random.default_rng(4)
        hyper_sets = [random_hypers(rng, 8) for _ in range(64)]
        expected = [prior_cov_psi(random_design(np.random.default_rng(4), 6, 2, 3), h).psi_cov
                    for h in hyper_sets]
        shared = random_design(spec_rng, 6, 2, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda h: prior_cov_psi(shared, h).psi_cov, hyper_sets,
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_jitter_only_where_a_component_needs_it(self):
        ann = make_annotation([
            ("Chr1+", 2e3, [("a0", 1000.0), ("a1", 1000.0 + 1e-9), ("a2", 1000.0 + 2e-9)]),
            ("Chr2+", 2e3, [("b0", 100.0), ("b1", 900.0)]),
        ])
        names = ["a0", "a1", "a2", "b0", "b1"]
        design = build_design_matrix(ann, names)
        hypers = [StrandHyperParams(1.0, 1.5, 1e6), StrandHyperParams(2.0, 1.0, 500.0)]
        pc = prior_cov_psi(design, hypers)
        raw = dense_congruence(design, hypers)
        assert pc.jitter_used > 0.0
        a, b = np.arange(3), np.arange(3, 5)
        np.testing.assert_array_equal(np.diag(pc.psi_cov)[a], 1.0 + pc.jitter_used)
        np.testing.assert_array_equal(pc.psi_cov[np.ix_(b, b)], raw[np.ix_(b, b)])
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_array_equal(pc.psi_cov[off], raw[off])
        # The jitter is measured against the largest unit variance (2.0).
        assert 2.0 * kernels.JITTER_INITIAL <= pc.jitter_used <= 2.0 * kernels.JITTER_MAXIMUM
        np.linalg.cholesky(pc.psi_cov)

    def test_block_that_needs_jitter_is_factored_once_per_level(self, monkeypatch):
        # Each component is factored once without jitter; a rejected block
        # then escalates from the initial jitter, one factorization
        # per level, with no second unjittered attempt.  LAPACK dpotrf makes
        # every attempt, so numpy's Cholesky never decides.
        ann = make_annotation([
            ("Chr1+", 2e3, [("a0", 1000.0), ("a1", 1000.0 + 1e-9), ("a2", 1000.0 + 2e-9)]),
            ("Chr2+", 2e3, [("b0", 100.0), ("b1", 900.0)]),
        ])
        design = build_design_matrix(ann, ["a0", "a1", "a2", "b0", "b1"])
        hypers = [StrandHyperParams(1.0, 1.5, 1e6), StrandHyperParams(2.0, 1.0, 500.0)]
        calls = {"dpotrf": 0, "cholesky": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        routines = SimpleNamespace(dpotrf=counted("dpotrf", kernels.lapack().dpotrf))
        monkeypatch.setattr(kernels, "lapack", lambda: routines)
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        pc = prior_cov_psi(design, hypers)
        monkeypatch.undo()
        levels = np.log2(pc.jitter_used / (2.0 * kernels.JITTER_INITIAL)) + 1
        assert levels == round(levels) >= 1
        assert calls == {"dpotrf": 2 + round(levels), "cholesky": 0}


class TestPriorDraws:
    def test_sampled_covariance_matches_target(self):
        ann = make_annotation([
            ("Chr1+", 1000.0, [(f"a{i}", 10.0 + 97.0 * i) for i in range(4)]),
            ("Chr2+", 1000.0, [(f"b{i}", 20.0 + 83.0 * i) for i in range(4)]),
        ])
        names = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
        design = build_design_matrix(ann, names)
        hs = [StrandHyperParams(2.0, 1.5, 400.0), StrandHyperParams(1.0, 0.8, 300.0)]
        pc = prior_cov_psi(design, hs)
        draws = sample_psi_prior(pc, 20000, np.random.default_rng(0))
        sample_corr = np.corrcoef(draws.T)
        sd = np.sqrt(np.diag(pc.psi_cov))
        target_corr = pc.psi_cov / np.outer(sd, sd)
        assert np.max(np.abs(sample_corr - target_corr)) < 0.03

    def test_component_factors_reproduce_the_certified_blocks(self):
        # At this correlation length the first strand's correlations round
        # to 1, so its block is singular and needs jitter.
        design = jitter_design()
        hypers = [StrandHyperParams(1.0, 2.5, 1e9), StrandHyperParams(2.0, 1.0, 500.0),
                  StrandHyperParams(1.0, 0.7, 200.0)]
        pc = prior_cov_psi(design, hypers)
        assert pc.jitter_used > 0.0
        components = design.covariance_index.components
        for units, chol in zip(components, pc.factors):
            block = pc.psi_cov[np.ix_(units, units)]
            np.testing.assert_allclose(chol @ chol.T, block, rtol=1e-12, atol=0.0)
        # One standard_normal((n_draws, m)) call, mapped component by component.
        rng = np.random.default_rng(11)
        normals = rng.standard_normal((5, design.n_mirnas))
        used = np.random.default_rng(11)
        draws = sample_psi_prior(pc, 5, used)
        assert used.bit_generator.state == rng.bit_generator.state
        for units, chol in zip(components, pc.factors):
            np.testing.assert_array_equal(draws[:, units], normals[:, units] @ chol.T)


def draw_nan_smoothness(draw, fraction):
    """``draw`` (per-strand arrays), but with a NaN smoothness on every strand
    where the next uniform of the draw's stream is below ``fraction``: the
    Matern evaluation of such a draw leaves its numerical domain."""
    def flaky(rng):
        varrho2s, nus, rhos = draw(rng)
        if rng.random() < fraction:
            nus = np.full_like(nus, np.nan)
        return varrho2s, nus, rhos
    return flaky


class TestEstimatePriorCorrelation:
    def fixed_draw(self, hypers):
        return lambda rng: hyper_arrays(hypers)

    def test_cross_strand_correlation_is_zero(self):
        ann = make_annotation([
            ("Chr1+", 100.0, [("a", 10.0)]),
            ("Chr2+", 100.0, [("b", 10.0)]),
        ])
        design = build_design_matrix(ann, ["a", "b"])
        draw = self.fixed_draw([StrandHyperParams(1.0, 1.0, 10.0)] * 2)
        corr = estimate_prior_correlation(design, draw, 1000, seed=0)
        assert corr[0, 1] == 0.0
        np.testing.assert_array_equal(np.diag(corr), [1.0, 1.0])

    def test_single_unit(self):
        ann = make_annotation([("Chr1+", 100.0, [("a", 10.0)])])
        design = build_design_matrix(ann, ["a"])
        draw = self.fixed_draw([StrandHyperParams(1.0, 1.0, 10.0)])
        corr = estimate_prior_correlation(design, draw, 1000, seed=0)
        assert corr.tolist() == [[1.0]]

    def test_point_mass_hyperprior_gives_analytic_correlation(self):
        h = StrandHyperParams(2.3, 1.2, 77.0)
        d = 31.0
        ann = make_annotation([("Chr1+", 200.0, [("a", 10.0), ("b", 10.0 + d)])])
        design = build_design_matrix(ann, ["a", "b"])
        corr = estimate_prior_correlation(design, self.fixed_draw([h]), 1000, seed=1)
        assert corr[0, 1] == pytest.approx(matern_cov(d, h) / h.varrho2, rel=1e-10)

    def test_requires_enough_draws(self):
        ann = make_annotation([("Chr1+", 100.0, [("a", 10.0)])])
        design = build_design_matrix(ann, ["a"])
        with pytest.raises(ValueError):
            estimate_prior_correlation(design, self.fixed_draw([StrandHyperParams(1, 1, 1)]), 10, seed=0)

    def test_deterministic_in_seed_and_threads(self, monkeypatch):
        ann = make_annotation([
            ("Chr1+", 500.0, [("a", 10.0), ("b", 200.0), ("c", 450.0)]),
        ])
        design = build_design_matrix(ann, ["a", "b", "c"])

        def draw(rng):
            return (np.array([1.0 / rng.gamma(3.0, 1.0)]), np.array([1.0]),
                    np.array([np.exp(rng.normal(4.0, 0.5))]))

        first = estimate_prior_correlation(design, draw, 1200, seed=42)
        monkeypatch.setenv("STRANDGP_THREADS", "4")
        second = estimate_prior_correlation(design, draw, 1200, seed=42)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_equals_dense_reference(self, monkeypatch, threads):
        # The reference is the unjittered dense P W P^T of every draw, those
        # that are not numerically positive definite included.
        design = jitter_design()
        n_mc, chunk = 1100, 256
        total, not_pd = np.zeros((design.n_mirnas,) * 2), 0
        for first in range(0, n_mc, chunk):
            acc = np.zeros_like(total)
            for rng in spawn_rngs(5, n_mc)[first:first + chunk]:
                cov = dense_congruence(design, draw_jittery(rng))
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    not_pd += 1
                sd = np.sqrt(np.diag(cov))
                corr = cov / np.outer(sd, sd)
                np.fill_diagonal(corr, 1.0)
                acc += np.clip(corr, -1.0, 1.0)
            total += acc
        expected = total / n_mc
        np.fill_diagonal(expected, 1.0)
        expected = np.clip(expected, -1.0, 1.0)
        assert 0 < not_pd < n_mc
        monkeypatch.setenv("STRANDGP_THREADS", threads)
        got = estimate_prior_correlation(design, lambda rng: hyper_arrays(draw_jittery(rng)),
                                         n_mc, seed=5)
        np.testing.assert_array_equal(got, expected)

    def test_bit_identical_for_one_and_two_threads(self, monkeypatch):
        # Chunks of 256 draws, each evaluated in array passes of a fixed
        # size, with pairs handed to the Bessel integral.
        design = random_design(np.random.default_rng(8), 6, 2, 3)
        k = design.n_strands

        def draw(rng):
            return (rng.uniform(0.5, 3.0, k), np.exp(rng.normal(0.5, 1.2, k)),
                    np.exp(rng.uniform(np.log(300.0), np.log(3e4), k)))

        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("STRANDGP_THREADS", threads)
            runs.append(estimate_prior_correlation(design, draw, 1100, seed=3))
        np.testing.assert_array_equal(runs[0], runs[1])
        index = design.covariance_index
        hypers = [np.array(column) for column in zip(*map(draw, spawn_rngs(3, 1100)))]
        x = (np.sqrt(2.0 * hypers[1]) / hypers[2])[:, index.pair_strand] * index.pair_dist
        assert np.any(x > kernels.SERIES_X_MAX, axis=1).mean() > 0.5

    def test_a_failed_draw_is_skipped_alone(self):
        # One draw in the middle of the second chunk has a NaN smoothness:
        # that draw alone is skipped, and every other draw adds, in order,
        # what it gives on its own.
        design = jitter_design()
        index = design.covariance_index
        n_mc, bad = 1000, 300
        marker = spawn_rngs(6, n_mc)[bad]
        draw_jittery(marker)
        marker = marker.random()

        def draw(rng):
            varrho2s, nus, rhos = hyper_arrays(draw_jittery(rng))
            if rng.random() == marker:
                nus = np.full_like(nus, np.nan)
            return varrho2s, nus, rhos

        rows, cols = kernels._packed_units(index)
        chunks = [np.zeros((design.n_mirnas,) * 2) for _ in range(4)]
        for i, rng in enumerate(spawn_rngs(6, n_mc)):
            hypers = draw(rng)
            if i == bad:
                with pytest.raises(NumericalError):
                    assemble_blocks(index, *hypers)
                continue
            cov = np.zeros_like(chunks[0])
            cov[rows, cols] = assemble_blocks(index, *hypers)
            sd = np.sqrt(np.diag(cov))
            corr = cov / np.outer(sd, sd)
            np.fill_diagonal(corr, 1.0)
            chunks[i // 256] += np.clip(corr, -1.0, 1.0)
        expected = sum(chunks) / (n_mc - 1)
        np.fill_diagonal(expected, 1.0)
        got = estimate_prior_correlation(design, draw, n_mc, seed=6)
        np.testing.assert_array_equal(got, np.clip(expected, -1.0, 1.0))
        with pytest.raises(NumericalError, match=f"1/{n_mc} prior draws failed"):
            estimate_prior_correlation(design, draw, n_mc, seed=6, max_skip_fraction=0.0)

    def test_skip_limit(self):
        # A draw whose Matern evaluation leaves its numerical domain is
        # skipped; more than the allowed fraction of them is an error.
        design = jitter_design()
        n_mc = 1024  # a power of two, so fraction * n_mc is exact
        draw = draw_nan_smoothness(lambda rng: hyper_arrays(draw_jittery(rng)), 0.02)
        failed = 0
        for rng in spawn_rngs(3, n_mc):
            try:
                assemble_blocks(design.covariance_index, *draw(rng))
            except NumericalError:
                failed += 1
        assert failed > 0
        corr = estimate_prior_correlation(design, draw, n_mc, seed=3,
                                          max_skip_fraction=failed / n_mc)
        assert np.all(np.isfinite(corr))
        with pytest.raises(NumericalError, match=f"{failed}/{n_mc} prior draws failed"):
            estimate_prior_correlation(design, draw, n_mc, seed=3,
                                       max_skip_fraction=(failed - 1) / n_mc)


class TestCholeskyWithJitter:
    # Through _factor_with_jitter, the routine factor_blocks runs per block.
    @staticmethod
    def factor(matrix, scale):
        return kernels._factor_with_jitter(matrix, scale, kernels.lapack().dpotrf)

    def test_pd_matrix_untouched(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol, jitter = self.factor(mat, 2.0)
        assert jitter == 0.0
        np.testing.assert_allclose(chol @ chol.T, mat, rtol=1e-14)

    def test_singular_matrix_gets_jitter(self):
        mat = np.ones((3, 3))
        chol, jitter = self.factor(mat, 1.0)
        assert jitter > 0.0
        np.testing.assert_allclose(chol @ chol.T, mat + jitter * np.eye(3), rtol=1e-12)

    def test_budget_exhaustion(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericalError):
            self.factor(mat, 1.0)


def run_fresh(code):
    """The last stdout line of ``code`` run in a fresh interpreter, with the
    package on its path and no module loaded in advance."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=120)
    return result.stdout.strip().splitlines()[-1]


LAPACK_FIRST = """
import json, sys
import numpy as np
from strandgp import kernels

routines = kernels.lapack()
rng = np.random.default_rng(7)
cases = []
for size in range(1, 101):
    a = rng.standard_normal((size, size + 2))
    spd, rhs = a @ a.T, rng.standard_normal(size)
    chol, info = routines.dpotrf(spd, lower=1, clean=1)
    cases.append((spd, rhs, chol, info, routines.dtrtrs(chol, rhs, lower=1)))
indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
bad_info = routines.dpotrf(indefinite, lower=1, clean=1)[1]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import scipy.linalg
from scipy.linalg import lapack

same = all(np.array_equal(chol, lapack.dpotrf(spd, lower=1, clean=1)[0])
           and info == 0
           and np.array_equal(solved[0], lapack.dtrtrs(chol, rhs, lower=1)[0])
           for spd, rhs, chol, info, solved in cases)
print(json.dumps({
    "loaded": loaded,
    "same_bits": bool(same),
    "bad_info": [int(bad_info), int(lapack.dpotrf(indefinite, lower=1, clean=1)[1])],
    "same_routines": lapack.dpotrf is routines.dpotrf and lapack.dtrtrs is routines.dtrtrs,
    "cholesky": bool(np.array_equal(scipy.linalg.cholesky(cases[-1][0], lower=True), cases[-1][2])),
}))
"""


class TestLapack:
    """``kernels.lapack`` loads scipy's compiled LAPACK module without
    importing scipy, and serves the routines ``scipy.linalg.lapack`` does."""

    @pytest.fixture(scope="class")
    def loaded_first(self):
        return json.loads(run_fresh(LAPACK_FIRST))

    def test_loads_no_other_scipy_module(self, loaded_first):
        assert loaded_first["loaded"] == ["scipy.linalg._flapack"]

    def test_same_bits_as_scipy_lapack(self, loaded_first):
        # Random SPD blocks of size 1-100: factors and triangular solves.
        assert loaded_first["same_bits"]

    def test_same_info_on_a_block_that_is_not_positive_definite(self, loaded_first):
        info, expected = loaded_first["bad_info"]
        assert info == expected == 2

    def test_coexists_with_a_later_scipy_import(self, loaded_first):
        assert loaded_first["same_routines"]
        assert loaded_first["cholesky"]

    def test_falls_back_to_the_normal_import(self):
        code = ("import importlib.util; importlib.util.find_spec = lambda *args, **kwargs: None\n"
                "import numpy as np; from strandgp import kernels\n"
                "routines = kernels.lapack()\n"
                "chol, info = routines.dpotrf(np.array([[4.0, 2.0], [2.0, 3.0]]), lower=1, clean=1)\n"
                "print(routines.__name__, info, chol.tolist())")
        assert run_fresh(code) == f"scipy.linalg.lapack 0 {[[2.0, 0.0], [1.0, 2.0 ** 0.5]]}"

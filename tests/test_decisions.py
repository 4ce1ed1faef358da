import itertools
import json
import math

import numpy as np
import pytest

from oracles import compute_w
from strandgp import (
    CalibrationResult,
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
from strandgp.decisions import _linear_quantiles, _solve_components, format_bayes_factor
from strandgp.errors import NumericalError


def groups_from_lists(member_lists):
    return GroupStructure(groups=tuple(np.array(sorted(g)) for g in member_lists),
                          threshold=0.5, cap=5)


def brute_force_argmax(indicators, groups, beta):
    """Exhaustive maximizer of f_beta over all 2^m configurations.

    Independent of the component decomposition: recomputes w from the draws
    for every configuration and keeps the lexicographically smallest
    maximizer.
    """
    m = indicators.shape[1]
    best_d, best_f = None, -math.inf
    for bits in itertools.product([0, 1], repeat=m):
        d = np.array(bits)
        w = compute_w(d, indicators, groups)
        f = float(np.sum(d * (w - beta)))
        if f > best_f:
            best_d, best_f = d, f
    return best_d, best_f


def brute_force_path(indicators, groups):
    """Decisions that are the exhaustive argmax on some open interval of beta.

    w is recomputed from the draws for all 2^m configurations.  The argmax
    can only change where the best scores of two rejection counts cross,
    so one beta inside each gap between consecutive crossings in [0, 1]
    covers every interval; runs of one decision are kept once.  Returns
    (configurations, w matrix, [(beta, d)] with beta ascending).
    """
    m = indicators.shape[1]
    configs = np.array(list(itertools.product([0, 1], repeat=m)))
    w = np.array([compute_w(d, indicators, groups) for d in configs])
    score = (configs * w).sum(axis=1)
    count = configs.sum(axis=1)
    best = {k: score[count == k].max() for k in range(m + 1)}
    crossings = sorted({0.0, 1.0, *((best[a] - best[b]) / (a - b)
                                     for a in best for b in best if a > b)})
    edges = [0.0]
    for x in crossings:
        if 1e-12 < x <= 1.0 and x - edges[-1] > 1e-12:
            edges.append(x)
    edges[-1] = 1.0
    path = []
    for lo, hi in zip(edges, edges[1:]):
        beta = 0.5 * (lo + hi)
        d = configs[int(np.argmax((configs * (w - beta)).sum(axis=1)))]
        if not path or not np.array_equal(path[-1][1], d):
            path.append((beta, d))
    return configs, w, path


def enumerate_per_count(indicators, groups, comp):
    """Exhaustive oracle for one component: for every rejection count k, the
    best score t A_k over all 2^c decisions of ``comp`` and the
    lexicographically smallest decision that reaches it.

    Configurations are numbered so that ascending numbers are ascending
    decision tuples; the first maximum within each popcount is the
    lexicographically smallest argmax.
    """
    c = comp.size
    pos = {int(j): p for p, j in enumerate(comp)}
    masks = np.arange(1 << c, dtype=np.int64)

    def bit(p):
        return (masks >> (c - 1 - p)) & 1

    score = np.zeros(masks.size, dtype=np.int64)
    for p, i in enumerate(comp):
        others = groups.neighbors(i)
        draw_codes = np.zeros(indicators.shape[0], dtype=np.int64)
        config_codes = np.zeros(masks.size, dtype=np.int64)
        for b, j in enumerate(others):
            draw_codes |= indicators[:, j].astype(np.int64) << b
            config_codes |= bit(pos[int(j)]) << b
        counts = np.bincount(draw_codes[indicators[:, i]], minlength=1 << others.size)
        score += bit(p) * counts[config_codes]
    popcount = sum(bit(p) for p in range(c))
    scores, decisions = [], []
    for k in range(c + 1):
        idx = np.flatnonzero(popcount == k)
        e = idx[int(np.argmax(score[idx]))]
        scores.append(int(score[e]))
        decisions.append([int(x) for x in (e >> (c - 1 - np.arange(c))) & 1])
    return scores, decisions


def connected_instance(rng, m, cap=3, t=120):
    """Random groups over m units whose dependence graph is connected: each
    unit after the first is grouped with one earlier unit, plus random
    extra members up to ``cap``."""
    indicators = rng.random((t, m)) < rng.uniform(0.15, 0.85, size=m)
    member_lists = [{i} for i in range(m)]
    for i in range(1, m):
        member_lists[i].add(int(rng.integers(0, i)))
        extra = int(rng.integers(0, cap))
        member_lists[i].update(int(j) for j in rng.choice(m, size=extra, replace=False) if j != i)
    return indicators, groups_from_lists(member_lists)


def banded_instance(rng, m=200, half_width=2, t=400):
    """Units on a hidden line, each grouped with its neighbors within
    ``half_width`` there, under a random relabeling; latent effects are
    smooth along the line, so neighbors' indicators correlate."""
    perm = rng.permutation(m)  # perm[line position] = unit index
    mean = rng.uniform(-0.5, 2.5, size=m)
    noise = rng.standard_normal((t, m + 2 * half_width))
    smooth = sum(noise[:, s:s + m] for s in range(2 * half_width + 1)) / math.sqrt(2 * half_width + 1)
    latent = np.empty((t, m))
    latent[:, perm] = mean + 0.6 * smooth
    member_lists = [None] * m
    for s in range(m):
        member_lists[perm[s]] = [int(perm[r]) for r in range(max(0, s - half_width),
                                                             min(m, s + half_width + 1))]
    return np.abs(latent) > 1.0, groups_from_lists(member_lists)


def correlated_instance(rng, m, t=200):
    """Indicators from correlated latent effects, with random groups."""
    root = rng.normal(size=(m, m)) * rng.uniform(0, 1.2)
    cov = root @ root.T + np.eye(m)
    mean = rng.uniform(-0.5, 2.5, size=m)
    latent = rng.multivariate_normal(mean, cov / np.diag(cov).mean(), size=t)
    member_lists = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        size = int(rng.integers(0, 4))
        chosen = list(rng.choice(others, size=size, replace=False)) if size else []
        member_lists.append([i, *chosen])
    return np.abs(latent) > 1.0, groups_from_lists(member_lists)


def random_instance(rng, m, cap=3, t=60):
    indicators = rng.random((t, m)) < rng.uniform(0.15, 0.85, size=m)
    member_lists = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        size = int(rng.integers(0, min(cap, len(others)) + 1))
        chosen = list(rng.choice(others, size=size, replace=False)) if size else []
        member_lists.append([i, *chosen])
    return indicators, groups_from_lists(member_lists)


class TestLinearQuantiles:
    """``_linear_quantiles`` gives the bits of np.quantile and np.percentile
    (method 'linear'), which it replaces because they import numpy.ma."""

    LEVELS = [0.0, 0.025, 0.05, 0.3, 0.5, 0.95, 0.975, 1.0]

    def cases(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 7, 40, 399, 1000):
            for columns in ((), (1,), (5,)):
                x = rng.normal(size=(n, *columns))
                yield x
                yield np.round(x, 1)              # ties
                yield np.full((n, *columns), 0.25)  # all tied

    def test_quantiles_along_axis_0(self):
        rng = np.random.default_rng(13)
        for x in self.cases():
            qs = self.LEVELS + rng.uniform(0.0, 1.0, 5).tolist()
            assert np.array_equal(_linear_quantiles(x, qs), np.quantile(x, qs, axis=0)), x.shape

    def test_percentiles_of_a_vector(self):
        rng = np.random.default_rng(14)
        for x in self.cases():
            if x.ndim == 1:
                for p in [0.0, 5.0, 50.0, 95.0, 100.0] + rng.uniform(0.0, 100.0, 5).tolist():
                    assert float(_linear_quantiles(x, [p / 100])[0]) == float(np.percentile(x, p))

    def test_a_column_with_nan_gives_nan(self):
        x = np.random.default_rng(15).normal(size=(30, 3))
        x[4, 1] = np.nan
        got = _linear_quantiles(x, self.LEVELS)
        assert np.array_equal(got, np.quantile(x, self.LEVELS, axis=0), equal_nan=True)
        assert np.isnan(got[:, 1]).all() and np.isfinite(got[:, [0, 2]]).all()
        assert np.isnan(_linear_quantiles(x[:, 1], [0.95])).all()


class TestHypothesisIndicators:
    def test_threshold_rule(self):
        draws = np.array([[0.5, -1.2], [1.0, 2.0], [-3.0, 0.0]])
        ind = hypothesis_indicators(draws)
        assert ind.tolist() == [[False, True], [False, True], [True, False]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hypothesis_indicators(np.empty((0, 2)))


class TestFormGroups:
    def test_identity_gives_singletons(self):
        groups = form_groups(np.eye(3))
        assert all(g.tolist() == [i] for i, g in enumerate(groups.groups))

    def test_single_strong_pair(self):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = 0.9
        groups = form_groups(r)
        assert groups.groups[0].tolist() == [0, 1]
        assert groups.groups[1].tolist() == [0, 1]
        assert groups.groups[2].tolist() == [2]

    def test_cap_enforced_on_dense_correlation(self):
        m = 7
        r = np.full((m, m), 0.8)
        np.fill_diagonal(r, 1.0)
        groups = form_groups(r, cap=5)
        for i, g in enumerate(groups.groups):
            assert g.size == 6  # five neighbors plus the unit itself
            assert i in g

    def test_cap_includes_self_reading(self):
        # A group size of 5 counting the unit itself is cap = 4.
        m = 7
        r = np.full((m, m), 0.8)
        np.fill_diagonal(r, 1.0)
        groups = form_groups(r, cap=4)
        for g in groups.groups:
            assert g.size == 5

    def test_cap_zero_gives_singletons(self):
        m = 7
        r = np.full((m, m), 0.8)
        np.fill_diagonal(r, 1.0)
        groups = form_groups(r, cap=0)
        assert [g.tolist() for g in groups.groups] == [[i] for i in range(m)]
        with pytest.raises(ValueError, match="cap"):
            form_groups(r, cap=-1)

    def test_largest_correlations_win(self):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = 0.9
        r[0, 2] = r[2, 0] = 0.8
        r[0, 3] = r[3, 0] = 0.7
        groups = form_groups(r, cap=2, percentile=0.0)
        assert groups.groups[0].tolist() == [0, 1, 2]

    def test_requires_two_units(self):
        with pytest.raises(ValueError):
            form_groups(np.eye(1))


class TestComputeW:
    # Four-draw worked example: indicators for units (1, 2) are
    # (1,1), (1,0), (0,1), (1,1).
    draws = np.array([[1, 1], [1, 0], [0, 1], [1, 1]], dtype=bool)

    def test_coupled_group_with_neighbor_rejected(self):
        groups = groups_from_lists([[0, 1], [0, 1]])
        w = compute_w(np.array([0, 1]), self.draws, groups)
        assert w[0] == 0.5  # draws 1 and 4 have r_0=1 and r_1=1

    def test_coupled_group_with_neighbor_accepted(self):
        groups = groups_from_lists([[0, 1], [0, 1]])
        w = compute_w(np.array([0, 0]), self.draws, groups)
        assert w[0] == 0.25  # only draw 2 has r_0=1 and r_1=0

    def test_singleton_all_draws_deregulated(self):
        ind = np.ones((10, 1), dtype=bool)
        groups = groups_from_lists([[0]])
        assert compute_w(np.array([1]), ind, groups)[0] == 1.0

    def test_w_bounded_by_marginal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            indicators, groups = random_instance(rng, m=6)
            v = marginal_probs(indicators)
            d = rng.integers(0, 2, size=6)
            w = compute_w(d, indicators, groups)
            assert np.all(w <= v + 1e-12)


class TestErrorRates:
    def test_no_rejections_zero_fdr(self):
        assert posterior_fdr(np.zeros(4), np.array([0.2, 0.9, 0.5, 0.1])) == 0.0

    def test_single_rejection(self):
        d = np.array([1, 0])
        v = np.array([0.9, 0.5])
        assert posterior_fdr(d, v) == pytest.approx(0.1)

    def test_all_rejected_certain(self):
        d = np.ones(3)
        v = np.ones(3)
        assert posterior_fdr(d, v) == 0.0
        assert posterior_fnr(d, v) == 0.0

    def test_fnr_formula(self):
        d = np.array([1, 0, 0])
        v = np.array([0.9, 0.4, 0.2])
        assert posterior_fnr(d, v) == pytest.approx((0.4 + 0.2) / 2)

    def test_fdr_nonincreasing_with_certain_rejection(self):
        d = np.array([1, 0, 0])
        v = np.array([0.7, 1.0, 0.3])
        base = posterior_fdr(d, v)
        extended = posterior_fdr(np.array([1, 1, 0]), v)
        assert extended <= base


class TestOptimizeDecisions:
    def test_singletons_reduce_to_threshold_rule(self):
        rng = np.random.default_rng(1)
        for m in (3, 6, 10):
            indicators = rng.random((80, m)) < rng.uniform(0.1, 0.9, size=m)
            groups = GroupStructure.singletons(m)
            v = marginal_probs(indicators)
            beta = 0.4
            res = optimize_decisions(indicators, groups, beta)
            np.testing.assert_array_equal(res.d, (v > beta).astype(int))
            assert res.exact

    def test_threshold_tie_resolves_to_zero(self):
        indicators = np.array([[1], [1], [0], [0]], dtype=bool)  # v = 0.5
        groups = GroupStructure.singletons(1)
        res = optimize_decisions(indicators, groups, beta=0.5)
        assert res.d.tolist() == [0]

    def test_large_beta_empty_rejections(self):
        rng = np.random.default_rng(2)
        indicators, groups = random_instance(rng, m=5)
        res = optimize_decisions(indicators, groups, beta=0.999)
        assert res.d.tolist() == [0] * 5

    def test_worked_coupled_pair(self):
        draws = TestComputeW.draws
        groups = groups_from_lists([[0, 1], [0, 1]])
        res = optimize_decisions(draws, groups, beta=0.3)
        expected_d, expected_f = brute_force_argmax(draws, groups, 0.3)
        np.testing.assert_array_equal(res.d, expected_d)
        assert res.f_value == pytest.approx(expected_f)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            indicators, groups = random_instance(rng, m)
            beta = float(rng.uniform(0.05, 0.95))
            res = optimize_decisions(indicators, groups, beta)
            expected_d, expected_f = brute_force_argmax(indicators, groups, beta)
            assert res.f_value == pytest.approx(expected_f, abs=1e-12)
            np.testing.assert_array_equal(res.d, expected_d)

    def test_tie_on_a_collinear_hull_edge(self):
        # One component, 64 draws.  The best scores per rejection count are
        # 0, 22, 28 and 34 draws, so counts 1, 2 and 3 lie on one hull edge
        # of slope 6/64 and tie at beta = 6/64.  The middle count's decision
        # (0, 1, 1) is the lexicographically smallest of the three.
        indicators = np.array([(1, 0, 0)] * 22 + [(0, 1, 1)] * 10 + [(1, 1, 1)] * 8
                              + [(0, 0, 0)] * 24, dtype=bool)
        groups = groups_from_lists([[0, 1], [0, 1, 2], [1, 2]])
        assert _solve_components(indicators, groups, enum_limit=20)[0].scores == (0, 22, 28, 34)
        res = optimize_decisions(indicators, groups, beta=6 / 64)
        expected_d, expected_f = brute_force_argmax(indicators, groups, 6 / 64)
        assert res.d.tolist() == expected_d.tolist() == [0, 1, 1]
        assert res.f_value == expected_f == 16 / 64

    def test_invalid_beta(self):
        indicators = np.ones((4, 2), dtype=bool)
        with pytest.raises(ValueError):
            optimize_decisions(indicators, GroupStructure.singletons(2), beta=1.0)

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one posterior draw"):
            optimize_decisions(np.zeros((0, 3), dtype=bool), GroupStructure.singletons(3), 0.5)


class TestComponentSolver:
    def test_matches_enumeration_beyond_criterion_size(self):
        # Components of 13-20 units: every rejection count, score and decision.
        rng = np.random.default_rng(11)
        for m in (13, 15, 17, 20):
            for _ in range(2):
                indicators, groups = connected_instance(rng, m)
                solutions = _solve_components(indicators, groups, enum_limit=20)
                assert len(solutions) == 1
                sol = solutions[0]
                assert sol.report.indices.tolist() == list(range(m))
                scores, decisions = enumerate_per_count(indicators, groups, sol.report.indices)
                assert list(sol.scores) == scores
                assert sol.decisions.tolist() == decisions
                assert sol.report.exact and 1 <= sol.report.width < m

    def test_width_above_limit_raises(self):
        # Six units in one another's groups: every elimination order joins
        # all six in its first step (width 5).
        rng = np.random.default_rng(12)
        indicators = rng.random((50, 7)) < 0.5
        groups = groups_from_lists([list(range(6))] * 6 + [[6]])
        assert _solve_components(indicators, groups, enum_limit=6)[0].report.width == 5
        with pytest.raises(NumericalError, match="6 units.*width 5.*cap = 5.*component_enum_limit = 5"):
            optimize_decisions(indicators, groups, 0.5, enum_limit=5)
        with pytest.raises(NumericalError):
            calibrate_beta(indicators, groups, enum_limit=5)

    def test_banded_structure_with_shuffled_indices(self):
        rng = np.random.default_rng(13)
        indicators, groups = banded_instance(rng)
        result = calibrate_beta(indicators, groups, target_fdr=0.10)
        assert result.feasible
        assert [c.indices.size for c in result.components] == [200]
        assert all(c.exact and c.width == 4 for c in result.components)
        np.testing.assert_array_equal(optimize_decisions(indicators, groups, result.beta).d, result.d)

        def f(d):
            return float(np.sum(d * (compute_w(d, indicators, groups) - result.beta)))

        base = f(result.d)
        for u in range(200):
            flipped = result.d.copy()
            flipped[u] ^= 1
            assert f(flipped) <= base + 1e-12, u


class TestCalibrateBeta:
    def test_certain_signals_keep_everything(self):
        indicators = np.ones((50, 4), dtype=bool)
        groups = GroupStructure.singletons(4)
        result = calibrate_beta(indicators, groups, target_fdr=0.10)
        assert result.feasible
        assert result.d.tolist() == [1, 1, 1, 1]
        assert result.fdr == 0.0

    def test_single_marginal_hypothesis_infeasible(self):
        rng = np.random.default_rng(5)
        indicators = (rng.random((2000, 1)) < 0.85)
        groups = GroupStructure.singletons(1)
        result = calibrate_beta(indicators, groups, target_fdr=0.10, tol=0.005)
        assert not result.feasible
        assert result.d.tolist() == [0]
        assert result.fdr == 0.0

    def test_mixed_signals_hit_target(self):
        rng = np.random.default_rng(6)
        m = 40
        strong = rng.random((400, 25)) < 0.97
        weak = rng.random((400, m - 25)) < rng.uniform(0.3, 0.8, size=m - 25)
        indicators = np.hstack([strong, weak])
        groups = GroupStructure.singletons(m)
        result = calibrate_beta(indicators, groups, target_fdr=0.10, tol=0.005)
        assert result.feasible
        assert result.fdr <= 0.105
        assert result.d.sum() >= 25

    def test_all_null_posterior_yields_zero_discoveries(self):
        rng = np.random.default_rng(9)
        draws = rng.normal(0.0, 0.4, size=(1000, 20))  # no unit near the threshold
        indicators = hypothesis_indicators(draws)
        result = calibrate_beta(indicators, GroupStructure.singletons(20),
                                target_fdr=0.10, tol=0.005)
        assert result.d.sum() == 0
        assert result.fdr == 0.0
        assert not result.feasible

    def test_records_evaluations(self):
        # Singleton marginals 0.1, 0.3, 0.3, 0.6, 0.9, 1.0: the decision
        # changes at the four distinct values inside (0, 1).
        t = 10
        v = [1, 3, 3, 6, 9, 10]
        indicators = np.array([[r < k for k in v] for r in range(t)])
        result = calibrate_beta(indicators, GroupStructure.singletons(len(v)))
        betas = [e[0] for e in result.evaluations]
        assert betas == pytest.approx([0.05, 0.2, 0.45, 0.75, 0.95])
        assert [e[1] for e in result.evaluations] == [6, 5, 3, 2, 1]

    def test_matches_brute_force_path(self):
        rng = np.random.default_rng(10)
        n_feasible = 0
        for _ in range(30):
            m = int(rng.integers(3, 11))
            indicators, groups = correlated_instance(rng, m)
            target = float(rng.choice([0.10, 0.20, 0.30]))
            configs, w, path = brute_force_path(indicators, groups)
            v = marginal_probs(indicators)
            admissible = [int(d.sum()) for _, d in path
                          if d.sum() >= 1 and posterior_fdr(d, v) <= target + 0.005]
            result = calibrate_beta(indicators, groups, target_fdr=target, tol=0.005)
            assert [e[1] for e in result.evaluations] == [int(d.sum()) for _, d in path]
            for beta, count, fdr in result.evaluations:
                expected = configs[int(np.argmax((configs * (w - beta)).sum(axis=1)))]
                d = optimize_decisions(indicators, groups, beta).d
                np.testing.assert_array_equal(d, expected)
                assert d.sum() == count and posterior_fdr(d, v) == fdr
            assert result.feasible == bool(admissible)
            if not admissible:
                assert result.d.sum() == 0
                continue
            n_feasible += 1
            assert result.d.sum() == max(admissible)
            f = (configs * (w - result.beta)).sum(axis=1)
            np.testing.assert_array_equal(result.d, configs[int(np.argmax(f))])
            np.testing.assert_array_equal(
                optimize_decisions(indicators, groups, result.beta).d, result.d)
        assert n_feasible >= 10

    def test_nonmonotone_fdr_keeps_most_rejections(self):
        # On this instance posterior FDR rises and falls again as beta
        # falls, so a search that assumes monotonicity stops early.
        rng = np.random.default_rng(225)
        m = int(rng.integers(4, 11))
        indicators, groups = correlated_instance(rng, m)
        _, _, path = brute_force_path(indicators, groups)
        v = marginal_probs(indicators)
        fdrs = [posterior_fdr(d, v) for _, d in path[::-1]]  # beta descending
        assert any(a > b for a, b in zip(fdrs, fdrs[1:]))
        best = max(int(d.sum()) for _, d in path
                   if d.sum() >= 1 and posterior_fdr(d, v) <= 0.205)
        result = calibrate_beta(indicators, groups, target_fdr=0.20, tol=0.005)
        assert result.d.sum() == best == 5
        assert result.fdr <= 0.205

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one posterior draw"):
            calibrate_beta(np.zeros((0, 3), dtype=bool), GroupStructure.singletons(3))


class TestBayesFactors:
    def test_equal_odds_unit_factor(self):
        bf = bayes_factors(np.array([0.4]), np.array([0.4]), 1000, 1000)
        assert bf[0] == pytest.approx(1.0)

    def test_odds_arithmetic(self):
        bf = bayes_factors(np.array([0.9]), np.array([0.5]), 10000, 10000)
        assert bf[0] == pytest.approx(9.0)

    def test_degenerate_prior_clipped(self):
        bf = bayes_factors(np.array([0.5]), np.array([0.0]), 100, 200)
        # posterior odds 1 over the odds of the clipped prior 1/(2 * 200)
        assert bf[0] == pytest.approx(399.0)

    def test_formatting_convention(self):
        assert format_bayes_factor(250.0) == ">100"
        assert format_bayes_factor(9.246) == "9.25"


class TestDecisionReport:
    def build(self, tmp_path):
        rng = np.random.default_rng(7)
        m = 4
        psi_draws = rng.normal(loc=[2.5, 0.0, -2.2, 0.5], scale=0.3, size=(500, m))
        prior_draws = rng.normal(scale=2.0, size=(800, m))
        indicators = hypothesis_indicators(psi_draws)
        groups = GroupStructure.singletons(m)
        calibration = calibrate_beta(indicators, groups)
        names = [f"mir-{i}" for i in range(m)]
        prior_probs = marginal_probs(hypothesis_indicators(prior_draws))
        return build_decision_report(names, psi_draws, calibration, groups, prior_probs, 800)

    def test_directions_follow_sign_convention(self, tmp_path):
        report = self.build(tmp_path)
        for i in range(4):
            if report.d[i]:
                expected = "up" if report.psi_mean[i] < 0 else "down"
                assert report.direction[i] == expected
            else:
                assert report.direction[i] == ""

    def test_interval_is_central_credible(self, tmp_path):
        report = self.build(tmp_path)
        assert np.all(report.ci_low <= report.ci_high)
        # normal draws with sd 0.3: central 95% width ~ 2 * 1.96 * 0.3
        width = report.ci_high - report.ci_low
        assert np.all(np.abs(width - 2 * 1.96 * 0.3) < 0.25)

    def test_csv_and_json_outputs(self, tmp_path):
        report = self.build(tmp_path)
        csv_path = tmp_path / "decisions.csv"
        json_path = tmp_path / "summary.json"
        report.write_csv(csv_path)
        report.write_summary_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "mirna,decision,direction,psi_hat,ci_low,ci_high,bayes_factor,group_members"
        assert len(lines) == 5
        summary = json.loads(json_path.read_text())
        assert summary["n_discoveries"] == report.n_discoveries
        assert 0.0 <= summary["posterior_fdr"] <= 1.0


class TestBayesFactorThinningStability:
    def test_disjoint_halves_agree_within_mc_error(self):
        rng = np.random.default_rng(8)
        m = 6
        t = 4000
        psi_draws = rng.normal(loc=rng.uniform(-2, 2, size=m), scale=0.8, size=(t, m))
        prior = rng.normal(scale=1.5, size=(t, m))
        first, second = psi_draws[: t // 2], psi_draws[t // 2:]
        ind_a = hypothesis_indicators(first)
        ind_b = hypothesis_indicators(second)
        pa, pb = marginal_probs(ind_a), marginal_probs(ind_b)
        q = marginal_probs(hypothesis_indicators(prior))
        bf_a = bayes_factors(pa, q, t // 2, t)
        bf_b = bayes_factors(pb, q, t // 2, t)
        n = t // 2
        pa_c = np.clip(pa, 1 / (2 * n), 1 - 1 / (2 * n))
        pb_c = np.clip(pb, 1 / (2 * n), 1 - 1 / (2 * n))
        # log-odds standard error per half, doubled for the prior side
        se = np.sqrt(1.0 / (n * pa_c * (1 - pa_c)) + 1.0 / (n * pb_c * (1 - pb_c)))
        assert np.all(np.abs(np.log(bf_a) - np.log(bf_b)) < 3 * se + 1e-9)

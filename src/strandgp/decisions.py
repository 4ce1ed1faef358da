"""Non-marginal multiple testing on posterior draws.

A unit is deregulated when its effect exceeds 1 in absolute value.  Rather
than thresholding marginal posterior probabilities, each unit i carries a
group G_i of a-priori-correlated units, and the decision vector d maximizes

    f_beta(d) = sum_i d_i (w_i(d) - beta),

where w_i(d) is the posterior probability that unit i is deregulated AND
every other group member j's hypothesis agrees with its decision d_j.  Each
connected component of the decision-dependence graph is solved once for
every rejection count (exhaustive enumeration up to a size limit,
coordinate ascent under a parametric search beyond it); the optimum at any
beta follows from the upper concave hull of those solutions, and beta is
calibrated on the exact path of optimal decisions so that the posterior
false discovery rate meets a target.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


def hypothesis_indicators(psi_draws: np.ndarray, threshold: float = 1.0) -> np.ndarray:
    """Per-draw deregulation indicators: |effect| > threshold.  Rows are draws."""
    psi_draws = np.asarray(psi_draws, dtype=float)
    if psi_draws.ndim != 2 or psi_draws.shape[0] == 0:
        raise ValueError("need a nonempty (draws x units) matrix")
    return np.abs(psi_draws) > threshold


def marginal_probs(indicators: np.ndarray) -> np.ndarray:
    """Marginal posterior probability of deregulation per unit."""
    return np.asarray(indicators, dtype=float).mean(axis=0)


@dataclass(frozen=True)
class GroupStructure:
    """Per-unit index groups used by the non-marginal criterion.

    ``groups[i]`` always contains i; other members are the (at most ``cap``)
    units whose prior correlation with i reaches the percentile threshold.
    """

    groups: tuple
    threshold: float
    cap: int

    @property
    def n_units(self) -> int:
        return len(self.groups)

    def neighbors(self, i: int) -> np.ndarray:
        g = self.groups[i]
        return g[g != i]

    @classmethod
    def singletons(cls, m: int) -> "GroupStructure":
        return cls(groups=tuple(np.array([i]) for i in range(m)), threshold=math.nan, cap=0)


def form_groups(correlation: np.ndarray, cap: int = 5, percentile: float = 95.0,
                cap_includes_self: bool = False) -> GroupStructure:
    """Build groups from a prior correlation matrix.

    The cutoff is the given percentile of the above-diagonal correlations.
    Group i then holds i plus the up-to-``cap`` highest-correlated units at
    or above the cutoff (``cap_includes_self`` counts i itself against the
    cap); units with no qualifying partner stay singletons.  A deregulation
    coupling needs positive correlation, so nonpositive entries never
    qualify even when the cutoff itself is nonpositive.  Ties at the cap
    resolve toward smaller indices.
    """
    r = np.asarray(correlation, dtype=float)
    m = r.shape[0]
    if r.ndim != 2 or r.shape != (m, m) or m < 2:
        raise ValueError("correlation must be square with at least two units")
    if not np.allclose(np.diag(r), 1.0, atol=1e-8):
        raise ValueError("correlation matrix must have unit diagonal")
    iu = np.triu_indices(m, k=1)
    cutoff = float(np.percentile(r[iu], percentile))
    budget = max(0, cap - 1) if cap_includes_self else cap
    groups = []
    for i in range(m):
        row = r[i].copy()
        row[i] = -np.inf
        qualifying = np.flatnonzero((row >= cutoff) & (row > 0.0))
        if qualifying.size > budget:
            order = np.argsort(-row[qualifying], kind="stable")
            qualifying = qualifying[order[:budget]]
        members = np.sort(np.append(qualifying, i))
        groups.append(members.astype(int))
    return GroupStructure(groups=tuple(groups), threshold=cutoff, cap=cap)


def compute_w(d: np.ndarray, indicators: np.ndarray, groups: GroupStructure) -> np.ndarray:
    """Group-coupled posterior probabilities w_i(d).

    w_i(d) is the fraction of draws where unit i is deregulated and, for
    every other member j of its group, the draw's indicator equals d_j.
    Singleton groups give the marginal probability.
    """
    indicators = np.asarray(indicators, dtype=bool)
    d = np.asarray(d).astype(bool)
    t, m = indicators.shape
    if t == 0:
        raise ValueError("need at least one posterior draw")
    w = np.empty(m)
    for i in range(m):
        mask = indicators[:, i].copy()
        for j in groups.neighbors(i):
            mask &= indicators[:, j] == d[j]
        w[i] = mask.mean()
    return w


def posterior_fdr(d: np.ndarray, v: np.ndarray) -> float:
    """Expected false-discovery proportion under the posterior, given decisions."""
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    return float((d * (1.0 - v)).sum() / max(d.sum(), 1.0))


def posterior_fnr(d: np.ndarray, v: np.ndarray) -> float:
    """Expected false-non-discovery proportion under the posterior."""
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(((1.0 - d) * v).sum() / max((1.0 - d).sum(), 1.0))


# ---------------------------------------------------------------------------
# Decision optimization
# ---------------------------------------------------------------------------
#
# f_beta(d) = A(d) - beta |d| with A(d) = sum_i d_i w_i(d), and A does not
# depend on beta.  So each component is solved once, for every rejection
# count k: the best A_k and its lexicographically smallest argmax.  The
# optimum at any beta lies on the upper concave hull of the points (k, A_k).
# Scores are kept as integer draw counts (t A), which makes every comparison
# within a component exact.

def _w_tables(indicators: np.ndarray, groups: GroupStructure):
    """Per unit: (neighbor indices, draw counts for all 2^|neighbors| patterns).

    ``counts[code]`` is the number of draws in which the unit is deregulated
    and neighbor b's indicator is bit b of ``code``; w = counts / t.
    """
    columns = np.ascontiguousarray(indicators.T)
    t = indicators.shape[0]
    tables = []
    for i in range(groups.n_units):
        nb = groups.neighbors(i)
        codes = np.zeros(t, dtype=np.int64)
        for bit, j in enumerate(nb):
            codes |= columns[j].astype(np.int64) << bit
        tables.append((nb, np.bincount(codes[columns[i]], minlength=1 << nb.size)))
    return tables


def _components(groups: GroupStructure) -> list:
    m = groups.n_units
    adjacency = [set() for _ in range(m)]
    for i in range(m):
        for j in groups.neighbors(i):
            adjacency[i].add(int(j))
            adjacency[j].add(i)
    seen = np.zeros(m, dtype=bool)
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adjacency[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(np.array(sorted(comp)))
    return comps


class _LocalTables:
    """One component's w tables in local positions (0..c-1)."""

    def __init__(self, comp, tables):
        pos_of = {int(j): p for p, j in enumerate(comp)}
        self.c = comp.size
        self.counts = [tables[i][1].tolist() for i in comp]
        self.neighbors = [[pos_of[int(j)] for j in tables[i][0]] for i in comp]
        # dependents[q]: (p, bit) for every unit p that has q as neighbor ``bit``
        self.dependents = [[] for _ in range(self.c)]
        for p, nb in enumerate(self.neighbors):
            for bit, q in enumerate(nb):
                self.dependents[q].append((p, 1 << bit))

    def codes(self, d) -> list:
        return [sum(int(d[q]) << bit for bit, q in enumerate(nb)) for nb in self.neighbors]

    def selected_counts(self, d) -> np.ndarray:
        """Draw counts t w_p(d) of the rejected units, in component order."""
        codes = self.codes(d)
        return np.array([self.counts[p][codes[p]] for p in range(self.c) if d[p]], dtype=float)

    def climb(self, d, beta_t: float) -> list:
        """Coordinate ascent on f from ``d``; ties prefer 0.

        Keeping unit p rejected is worth ``value`` draw counts (its own plus
        what it changes in its dependents) against a penalty of beta t, so
        each comparison is an exact int-to-float one and every strict
        improvement raises f: the climb cannot cycle.
        """
        counts = self.counts
        codes = self.codes(d)
        d = [int(x) for x in d]
        improved = True
        while improved:
            improved = False
            for p in range(self.c):
                value = counts[p][codes[p]]
                for i, bit in self.dependents[p]:
                    if d[i]:
                        change = counts[i][codes[i] ^ bit] - counts[i][codes[i]]
                        value += -change if d[p] else change
                if d[p] and value <= beta_t or not d[p] and value > beta_t:
                    improved = improved or value != beta_t
                    d[p] ^= 1
                    for i, bit in self.dependents[p]:
                        codes[i] ^= bit
        return d


@dataclass(frozen=True)
class ComponentReport:
    indices: np.ndarray
    exact: bool
    ascent_runs: int  # coordinate-ascent queries spent on this component (0 when enumerated)


@dataclass(frozen=True)
class _ComponentSolution:
    """Best decision of one component for every rejection count it reached."""

    report: ComponentReport
    rejections: tuple      # ascending k
    scores: tuple          # t A_k, integers
    decisions: np.ndarray  # (entries, c) lexicographically smallest argmax per k
    weights: tuple         # per entry: w of the rejected units, in component order

    def pick(self, beta: float):
        """Entry maximizing f_beta, summed unit by unit in component order;
        exact ties go to the smallest decision tuple."""
        best, best_f = 0, -math.inf
        for e, w in enumerate(self.weights):
            f = float(np.cumsum(w - beta)[-1]) if w.size else 0.0
            if f > best_f or (f == best_f and tuple(self.decisions[e]) < tuple(self.decisions[best])):
                best, best_f = e, f
        return best, best_f

    def hull(self, t: int):
        """Upper concave hull of (k, A_k): entry indices and the betas between them.

        Vertex j is the optimum for beta between ``breaks[j]`` and
        ``breaks[j - 1]``; breaks decrease.
        """
        k, a = self.rejections, self.scores
        vertices = []
        for e in range(len(k)):
            while len(vertices) >= 2:
                p, q = vertices[-2:]
                if (k[q] - k[p]) * (a[e] - a[p]) < (a[q] - a[p]) * (k[e] - k[p]):
                    break
                vertices.pop()
            vertices.append(e)
        breaks = [(a[q] - a[p]) / (t * (k[q] - k[p])) for p, q in zip(vertices, vertices[1:])]
        return vertices, breaks


def _solution(comp, local, t, best: dict, exact: bool, runs: int) -> _ComponentSolution:
    """Package ``best`` (k -> (t A_k, decision tuple)) for one component."""
    ks = tuple(sorted(best))
    decisions = np.array([best[k][1] for k in ks], dtype=np.int8).reshape(len(ks), comp.size)
    return _ComponentSolution(
        report=ComponentReport(indices=comp, exact=exact, ascent_runs=runs),
        rejections=ks,
        scores=tuple(best[k][0] for k in ks),
        decisions=decisions,
        weights=tuple(local.selected_counts(d) / t for d in decisions),
    )


def _enumerate_component(comp, tables, t) -> _ComponentSolution:
    """Exact per-popcount maxima over all 2^c configurations of one component.

    Configurations are numbered so that ascending numbers are ascending
    decision tuples (component indices ascending, 0 before 1); the first
    maximum within each popcount is its lexicographically smallest argmax.
    """
    c = comp.size
    local = _LocalTables(comp, tables)
    masks = np.arange(1 << c, dtype=np.int64)

    def bit(p):
        return (masks >> (c - 1 - p)) & 1

    score = np.zeros(masks.size, dtype=np.int64)
    popcount = np.zeros(masks.size, dtype=np.int8)
    for p in range(c):
        code = np.zeros(masks.size, dtype=np.int64)
        for b, q in enumerate(local.neighbors[p]):
            code |= bit(q) << b
        own = bit(p)
        score += own * np.asarray(local.counts[p])[code]
        popcount += own.astype(np.int8)
    best = {}
    for k in range(c + 1):
        idx = np.flatnonzero(popcount == k)
        e = idx[int(np.argmax(score[idx]))]
        best[k] = (int(score[e]), tuple(int(x) for x in (e >> (c - 1 - np.arange(c))) & 1))
    return _solution(comp, local, t, best, exact=True, runs=0)


def _search_component(comp, tables, t, v, rng, restarts: int) -> _ComponentSolution:
    """Hull of one component too large to enumerate, by parametric search.

    Each query runs multi-start coordinate ascent at one beta (the
    thresholded marginals plus ``restarts`` random starts) and records every
    local optimum as a candidate for its rejection count.  Queries follow
    Eisner & Severance (1976): between two hull lines, query where they
    cross; a line above both there, with a rejection count between theirs,
    splits the interval.  The empty decision is the exact optimum at beta = 1,
    so the search starts from one query at beta = 0 and makes at most 2c.
    """
    c = comp.size
    local = _LocalTables(comp, tables)
    best = {0: (0, (0,) * c)}
    runs = 0

    def record(d):
        key = tuple(int(x) for x in d)
        k = sum(key)
        score = int(local.selected_counts(key).sum())
        if k not in best or score > best[k][0] or (score == best[k][0] and key < best[k][1]):
            best[k] = (score, key)

    def query(num: int, den: int):
        """Ascent at beta = num / (t den); returns the best count there."""
        nonlocal runs
        runs += 1
        beta = num / (t * den)
        starts = [(v[comp] > beta).astype(np.int8)]
        starts += [rng.integers(0, 2, size=c).astype(np.int8) for _ in range(restarts)]
        for s in starts:
            record(local.climb(s, num / den))
        # best f at beta, scaled by t den: exact integer comparison
        return max(best, key=lambda k: (best[k][0] * den - num * k, -k))

    def search(k_lo: int, k_hi: int):
        """Hull between the lines of counts k_lo < k_hi."""
        num = best[k_hi][0] - best[k_lo][0]
        den = k_hi - k_lo
        k = query(num, den)
        if k_lo < k < k_hi and best[k][0] * den - num * k > best[k_lo][0] * den - num * k_lo:
            search(k_lo, k)
            search(k, k_hi)

    k_top = query(0, 1)
    if k_top > 0:
        search(0, k_top)
    return _solution(comp, local, t, best, exact=False, runs=runs)


def _solve_components(indicators: np.ndarray, groups: GroupStructure, enum_limit: int,
                      restarts: int, seed: int) -> list:
    if groups.n_units != indicators.shape[1]:
        raise ValueError("groups and indicator matrix disagree on unit count")
    t = indicators.shape[0]
    tables = _w_tables(indicators, groups)
    v = marginal_probs(indicators)
    rng = np.random.default_rng(seed)
    return [_enumerate_component(comp, tables, t) if comp.size <= enum_limit
            else _search_component(comp, tables, t, v, rng, restarts)
            for comp in _components(groups)]


@dataclass(frozen=True)
class OptimizeResult:
    d: np.ndarray
    f_value: float
    components: tuple
    exact: bool  # every component solved by enumeration


def optimize_decisions(indicators: np.ndarray, groups: GroupStructure, beta: float,
                       enum_limit: int = 20, restarts: int = 8, seed: int = 0) -> OptimizeResult:
    """Maximize f_beta over all 2^m decision vectors.

    The dependence graph (i adjacent to j when either's group contains the
    other) splits the objective into independent connected components.
    Components up to ``enum_limit`` units are enumerated exhaustively; the
    optimum is read from the best decision per rejection count, and ties
    go to the lexicographically smallest vector.  Larger components are
    searched by coordinate ascent over the same per-count tables and are
    flagged as not exact.

    Args:
        indicators: (draws x units) deregulation indicator matrix.
        groups: group structure (one group per unit).
        beta: rejection penalty in (0, 1).

    Returns:
        OptimizeResult with the decision vector, the attained f value, and
        per-component exactness reports.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    indicators = np.asarray(indicators, dtype=bool)
    solutions = _solve_components(indicators, groups, enum_limit, restarts, seed)
    d = np.zeros(indicators.shape[1], dtype=np.int8)
    total = 0.0
    for sol in solutions:
        e, f = sol.pick(beta)
        d[sol.report.indices] = sol.decisions[e]
        total += f
    reports = tuple(sol.report for sol in solutions)
    return OptimizeResult(d=d, f_value=total, components=reports,
                          exact=all(r.exact for r in reports))


# ---------------------------------------------------------------------------
# beta calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    beta: float
    d: np.ndarray
    fdr: float
    fnr: float
    feasible: bool
    evaluations: tuple  # (beta, n_rejections, fdr) per interval of the beta path, beta ascending
    components: tuple   # ComponentReport per component


def calibrate_beta(indicators: np.ndarray, groups: GroupStructure,
                   target_fdr: float = 0.10, tol: float = 0.005, enum_limit: int = 20,
                   restarts: int = 8, seed: int = 0) -> CalibrationResult:
    """Pick beta so the posterior FDR of the optimal decisions meets a target.

    The optimal decision is piecewise constant in beta: the breakpoints of
    every component's hull split (0, 1) into open intervals, each with one
    decision vector, and rejections strictly grow as beta falls.  Every
    interval is scanned (posterior FDR need not be monotone in beta), and
    among decisions with posterior FDR at most ``target_fdr + tol`` and at
    least one rejection the one with the most rejections wins.  The reported
    beta is the midpoint of its interval, where ``optimize_decisions``
    returns the same vector.  With no admissible decision the all-zero
    vector is returned with ``feasible=False``.
    """
    if not 0.0 < target_fdr < 1.0:
        raise ValueError("target_fdr must lie in (0, 1)")
    indicators = np.asarray(indicators, dtype=bool)
    t, m = indicators.shape
    v = marginal_probs(indicators)
    solutions = _solve_components(indicators, groups, enum_limit, restarts, seed)

    # Walk beta down from 1 to 0: each component starts at the hull vertex
    # optimal just below 1 and steps one vertex on at each of its breaks.
    d = np.zeros(m, dtype=np.int8)
    events = {}
    walks = []
    for s, sol in enumerate(solutions):
        vertices, breaks = sol.hull(t)
        skip = sum(b >= 1.0 for b in breaks)
        walks.append(iter(vertices[skip:]))
        d[sol.report.indices] = sol.decisions[next(walks[s])]
        for b in breaks[skip:]:
            if b <= 0.0:
                break
            events.setdefault(b, []).append(s)
    edges = [1.0, *sorted(events, reverse=True), 0.0]
    path = [d.copy()]
    for b in edges[1:-1]:
        for s in events[b]:
            d[solutions[s].report.indices] = solutions[s].decisions[next(walks[s])]
        path.append(d.copy())

    fdrs = [posterior_fdr(x, v) for x in path]
    evaluations = tuple(
        (0.5 * (edges[n] + edges[n + 1]), int(x.sum()), fdr)
        for n, (x, fdr) in enumerate(zip(path, fdrs)))[::-1]
    reports = tuple(sol.report for sol in solutions)
    admissible = [n for n, (x, fdr) in enumerate(zip(path, fdrs))
                  if fdr <= target_fdr + tol and x.sum() >= 1]
    if not admissible:
        zeros = np.zeros(m, dtype=np.int8)
        return CalibrationResult(beta=math.nan, d=zeros, fdr=0.0,
                                 fnr=posterior_fnr(zeros, v), feasible=False,
                                 evaluations=evaluations, components=reports)
    n = admissible[-1]  # rejections grow along the path
    return CalibrationResult(beta=0.5 * (edges[n] + edges[n + 1]), d=path[n], fdr=fdrs[n],
                             fnr=posterior_fnr(path[n], v), feasible=True,
                             evaluations=evaluations, components=reports)


# ---------------------------------------------------------------------------
# Bayes factors and reporting
# ---------------------------------------------------------------------------

def bayes_factors(posterior_probs: np.ndarray, prior_probs: np.ndarray,
                  n_posterior_draws: int, n_prior_draws: int) -> np.ndarray:
    """Posterior-to-prior odds ratios for deregulation, per unit.

    Probabilities are clipped away from {0, 1} by half a draw's worth of
    mass on each side before forming odds, so finite chains give finite
    factors.
    """
    p = np.clip(np.asarray(posterior_probs, dtype=float),
                1.0 / (2 * n_posterior_draws), 1.0 - 1.0 / (2 * n_posterior_draws))
    q = np.clip(np.asarray(prior_probs, dtype=float),
                1.0 / (2 * n_prior_draws), 1.0 - 1.0 / (2 * n_prior_draws))
    return (p / (1.0 - p)) / (q / (1.0 - q))


def format_bayes_factor(value: float) -> str:
    """Table convention: decisive factors print as '>100'."""
    return ">100" if value > 100.0 else f"{value:.2f}"


@dataclass(frozen=True)
class DecisionReport:
    """Per-unit decisions with posterior summaries and global error rates."""

    mirna_names: tuple
    d: np.ndarray
    direction: tuple
    psi_mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    bayes_factor: np.ndarray
    group_members: tuple
    beta: float
    posterior_fdr: float
    posterior_fnr: float
    feasible: bool = True

    @property
    def n_discoveries(self) -> int:
        return int(self.d.sum())

    def summary_dict(self) -> dict:
        return {
            "beta": None if math.isnan(self.beta) else self.beta,
            "posterior_fdr": self.posterior_fdr,
            "posterior_fnr": self.posterior_fnr,
            "n_discoveries": self.n_discoveries,
            "feasible": self.feasible,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mirna", "decision", "direction", "psi_hat",
                             "ci_low", "ci_high", "bayes_factor", "group_members"])
            for i, name in enumerate(self.mirna_names):
                writer.writerow([
                    name, int(self.d[i]), self.direction[i],
                    repr(float(self.psi_mean[i])), repr(float(self.ci_low[i])),
                    repr(float(self.ci_high[i])), repr(float(self.bayes_factor[i])),
                    ";".join(self.group_members[i]),
                ])

    def write_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_decision_report(mirna_names, psi_draws: np.ndarray, calibration: CalibrationResult,
                          groups: GroupStructure, prior_psi_draws: np.ndarray,
                          threshold: float = 1.0, ci_level: float = 0.95) -> DecisionReport:
    """Assemble the full per-unit report from posterior and prior draw sets.

    Point estimates are posterior means; intervals are central credible
    intervals at ``ci_level``.  Discoveries are labeled 'up' when the
    posterior mean difference is negative (fewer cycles: higher expression
    in disease tissue) and 'down' when positive.
    """
    psi_draws = np.asarray(psi_draws, dtype=float)
    names = tuple(mirna_names)
    post_ind = hypothesis_indicators(psi_draws, threshold)
    prior_ind = hypothesis_indicators(prior_psi_draws, threshold)
    bf = bayes_factors(marginal_probs(post_ind), marginal_probs(prior_ind),
                                   post_ind.shape[0], prior_ind.shape[0])
    mean = psi_draws.mean(axis=0)
    alpha = 0.5 * (1.0 - ci_level)
    lowq, highq = np.quantile(psi_draws, [alpha, 1.0 - alpha], axis=0)
    direction = tuple(
        ("up" if mean[i] < 0 else "down") if calibration.d[i] else ""
        for i in range(len(names))
    )
    members = tuple(
        tuple(names[j] for j in groups.groups[i]) for i in range(len(names))
    )
    return DecisionReport(
        mirna_names=names,
        d=calibration.d,
        direction=direction,
        psi_mean=mean,
        ci_low=lowq,
        ci_high=highq,
        bayes_factor=bf,
        group_members=members,
        beta=calibration.beta,
        posterior_fdr=calibration.fdr,
        posterior_fnr=calibration.fnr,
        feasible=calibration.feasible,
    )

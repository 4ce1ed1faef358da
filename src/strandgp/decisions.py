"""Non-marginal multiple testing on posterior draws.

A unit is deregulated when its effect exceeds 1 in absolute value.  Rather
than thresholding marginal posterior probabilities, each unit i carries a
group G_i of a-priori-correlated units, and the decision vector d maximizes

    f_beta(d) = sum_i d_i (w_i(d) - beta),

where w_i(d) is the posterior probability that unit i is deregulated AND
every other group member j's hypothesis agrees with its decision d_j.  Each
connected component of the decision-dependence graph is solved once for
every rejection count, exactly, by bucket elimination; the optimum at any
beta follows from the upper concave hull of those solutions, and beta is
calibrated on the exact path of optimal decisions so that the posterior
false discovery rate meets a target.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .util import connected_components, write_csv, write_json


def hypothesis_indicators(psi_draws: np.ndarray) -> np.ndarray:
    """Per-draw deregulation indicators: |effect| > 1.  Rows are draws."""
    psi_draws = np.asarray(psi_draws, dtype=float)
    if psi_draws.ndim != 2 or psi_draws.shape[0] == 0:
        raise ValueError("need a nonempty (draws x units) matrix")
    return np.abs(psi_draws) > 1.0


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


def form_groups(correlation: np.ndarray, cap: int = 5,
                percentile: float = 95.0) -> GroupStructure:
    """Build groups from a prior correlation matrix.

    The cutoff is the given percentile of the above-diagonal correlations.
    Group i then holds i plus the up-to-``cap`` highest-correlated units at
    or above the cutoff, so a group has at most ``cap + 1`` members and
    ``cap = 0`` gives singletons (the marginal rule); units with no
    qualifying partner stay singletons.  A deregulation coupling needs
    positive correlation, so nonpositive entries never qualify even when
    the cutoff itself is nonpositive.  Ties at the cap resolve toward
    smaller indices.
    """
    r = np.asarray(correlation, dtype=float)
    m = r.shape[0]
    if r.ndim != 2 or r.shape != (m, m) or m < 2:
        raise ValueError("correlation must be square with at least two units")
    if not np.allclose(np.diag(r), 1.0, atol=1e-8):
        raise ValueError("correlation matrix must have unit diagonal")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    iu = np.triu_indices(m, k=1)
    cutoff = float(np.percentile(r[iu], percentile))
    groups = []
    for i in range(m):
        row = r[i].copy()
        row[i] = -np.inf
        qualifying = np.flatnonzero((row >= cutoff) & (row > 0.0))
        if qualifying.size > cap:
            order = np.argsort(-row[qualifying], kind="stable")
            qualifying = qualifying[order[:cap]]
        members = np.sort(np.append(qualifying, i))
        groups.append(members.astype(int))
    return GroupStructure(groups=tuple(groups), threshold=cutoff, cap=cap)


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


@dataclass(frozen=True)
class ComponentReport:
    indices: np.ndarray
    exact: bool  # always true: a component is solved exactly or refused
    width: int   # elimination width: most other units in one elimination step


@dataclass(frozen=True)
class _ComponentSolution:
    """Best decision of one component for every rejection count k = 0..c,
    and the upper concave hull of the points (k, A_k).

    Vertex j of the hull is the optimum for beta in [breaks[j], breaks[j - 1]];
    breaks do not increase.  Collinear points stay on the hull, so at a beta
    equal to a break every tied count is a vertex.
    """

    report: ComponentReport
    t: int                 # draw count: A_k = scores[k] / t
    scores: tuple          # t A_k, integers
    decisions: np.ndarray  # (c + 1, c) lexicographically smallest argmax per k
    vertices: tuple        # hull vertex counts, ascending
    breaks: tuple          # slope of the hull from vertex j to vertex j + 1

    @classmethod
    def solved(cls, report: ComponentReport, t: int, scores: tuple, decisions: np.ndarray):
        vertices = []
        for k in range(len(scores)):
            while len(vertices) >= 2:
                p, q = vertices[-2:]
                if (q - p) * (scores[k] - scores[p]) <= (scores[q] - scores[p]) * (k - p):
                    break
                vertices.pop()
            vertices.append(k)
        breaks = tuple((scores[q] - scores[p]) / (t * (q - p))
                       for p, q in zip(vertices, vertices[1:]))
        return cls(report, t, scores, decisions, tuple(vertices), breaks)

    def count(self, beta: float) -> int:
        """Rejection count of the optimum at beta.

        Each hull slope is compared with beta exactly, in integers.  On an
        exact tie the count whose decision is lexicographically smallest
        wins.
        """
        num, den = float(beta).as_integer_ratio()
        a, v = self.scores, self.vertices

        def gain(j):  # sign of f_beta(vertex j + 1) - f_beta(vertex j)
            return (a[v[j + 1]] - a[v[j]]) * den - num * self.t * (v[j + 1] - v[j])

        first = bisect.bisect_left(range(len(v) - 1), True, key=lambda j: gain(j) <= 0)
        last = first
        while last < len(v) - 1 and gain(last) == 0:
            last += 1
        return min(v[first:last + 1], key=lambda k: tuple(self.decisions[k]))


def _optimum(solutions, beta: float, m: int):
    """The optimal decision vector at beta and its score t A."""
    d = np.zeros(m, dtype=np.int8)
    score = 0
    for sol in solutions:
        k = sol.count(beta)
        d[sol.report.indices] = sol.decisions[k]
        score += sol.scores[k]
    return d, score


def _min_fill(scopes, c: int):
    """Greedy min-fill elimination order of the graph in which every scope is
    a clique (ties: fewer neighbors, then lower position), and its width: the
    most neighbors a unit still has when it is eliminated."""
    adjacent = [set() for _ in range(c)]
    for scope in scopes:
        for p in scope:
            adjacent[p].update(scope)
    for p in range(c):
        adjacent[p].discard(p)

    def fill(p):  # missing edges among p's neighbors
        return sum(len(adjacent[p] - adjacent[q]) - 1 for q in adjacent[p]) // 2

    fills = {p: fill(p) for p in range(c)}
    order, width = [], 0
    while fills:
        p = min(fills, key=lambda q: (fills[q], len(adjacent[q]), q))
        del fills[p]
        neighbors = adjacent[p]
        width = max(width, len(neighbors))
        for q in neighbors:
            adjacent[q] |= neighbors
            adjacent[q] -= {p, q}
        # new edges join p's neighbors: only they and units next to them change fill
        for q in neighbors.union(*(adjacent[q] for q in neighbors)):
            fills[q] = fill(q)
        order.append(p)
    return order, width


def _align(scope, table, joint):
    """``table`` over ``scope`` (one axis per unit, then the count axis),
    reshaped to broadcast over the units of ``joint``."""
    table = table.transpose([scope.index(q) for q in joint if q in scope] + [len(scope)])
    return table.reshape([2 if q in scope else 1 for q in joint] + [table.shape[-1]])


def _convolve(a, b):
    """Max-plus convolution along the last (rejection count) axis; the other
    axes broadcast."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    na, nb = a.shape[-1], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (na + nb - 1,), dtype=object)
    out[..., :na] = a + b[..., :1]
    for j in range(1, nb):
        out[..., j:j + na - 1] = np.maximum(out[..., j:j + na - 1], a[..., :-1] + b[..., j:j + 1])
        out[..., j + na - 1] = a[..., -1] + b[..., j]
    return out


def _solve_component(comp, tables, t: int, enum_limit: int, cap: int) -> _ComponentSolution:
    """Every A_k of one component by bucket elimination (Dechter 1999).

    Units are eliminated in min-fill order.  Each table has one axis per
    unit of its scope and a last axis: the number of rejections among the
    units already eliminated into it.  Eliminating x joins the tables that
    read x (max-plus convolution over the count axis), maximizes over x and
    hands the result to the next unit of its scope.  Values are Python ints
    S 2^c - sum_p d_p 2^(c-1-p), with S the score in draw counts and p the
    unit's position; a unit's term enters as its counts times 2^c when its
    bucket is joined, its tie-break when it is eliminated.  The sum is below
    2^c and differs between decisions, so each rejection count has one
    maximum: the largest S, attained first by the lexicographically smallest
    decision, whose bits are the low c bits of the maximum's negation.
    """
    c = comp.size
    position = {int(i): p for p, i in enumerate(comp)}
    neighbors = [[position[int(j)] for j in tables[i][0]] for i in comp]
    counts = [tables[i][1] for i in comp]
    # neighbor b is bit b of a count table's code: reshaped, the last neighbor's axis comes first
    scopes = [(p, *reversed(nb)) for p, nb in enumerate(neighbors)]
    order, width = _min_fill(scopes, c)
    if width + 1 > enum_limit:
        raise NumericalError(
            f"a decision component of {c} units has elimination width {width} (testing.cap = "
            f"{cap}): {width + 1} units in one elimination step exceed "
            f"testing.component_enum_limit = {enum_limit}")
    rank = {p: r for r, p in enumerate(order)}
    buckets = {p: [] for p in order}
    for p, scope in enumerate(scopes):
        own = counts[p].reshape((2,) * (len(scope) - 1) + (1,))
        buckets[min(scope, key=rank.get)].append((scope, np.stack([np.zeros_like(own), own])))
    root = np.zeros(1, dtype=object)
    for x in order:
        items = buckets.pop(x)
        joint = (x, *sorted({q for scope, _ in items for q in scope} - {x}, key=rank.get))
        table = None
        for scope, item in items:
            if item.dtype != object:  # a unit's own term
                item = item.astype(object) * (1 << c)
            item = _align(scope, item, joint)
            table = item if table is None else _convolve(table, item)
        tie = 1 << (c - 1 - x)
        out = np.empty(table.shape[1:-1] + (table.shape[-1] + 1,), dtype=object)
        out[..., :-1] = table[0]
        out[..., -1] = table[1, ..., -1] - tie
        out[..., 1:-1] = np.maximum(out[..., 1:-1], table[1, ..., :-1] - tie)
        if len(joint) == 1:
            root = _convolve(root, out)
        else:
            buckets[joint[1]].append((joint[1:], out))
    ties = [-value % (1 << c) for value in root]
    decisions = np.array([[(tie >> (c - 1 - p)) & 1 for p in range(c)] for tie in ties],
                         dtype=np.int8)
    return _ComponentSolution.solved(
        ComponentReport(indices=comp, exact=True, width=width), t,
        tuple((value + tie) >> c for value, tie in zip(root, ties)), decisions)


def _solve_components(indicators: np.ndarray, groups: GroupStructure, enum_limit: int) -> list:
    t, m = indicators.shape
    if t == 0:
        raise ValueError("need at least one posterior draw")
    if groups.n_units != m:
        raise ValueError("groups and indicator matrix disagree on unit count")
    tables = _w_tables(indicators, groups)
    edges = ((i, int(j)) for i in range(m) for j in groups.neighbors(i))
    return [_solve_component(comp, tables, t, enum_limit, groups.cap)
            for comp in connected_components(m, edges)]


@dataclass(frozen=True)
class OptimizeResult:
    d: np.ndarray
    f_value: float
    components: tuple
    exact: bool  # always true (see ComponentReport)


def optimize_decisions(indicators: np.ndarray, groups: GroupStructure, beta: float,
                       enum_limit: int = 20) -> OptimizeResult:
    """Maximize f_beta over all 2^m decision vectors.

    The dependence graph (i adjacent to j when either's group contains the
    other) splits the objective into independent connected components.
    Each is solved exactly by bucket elimination; the optimum is read from
    the upper hull of its best score per rejection count, and exact ties go
    to the lexicographically smallest vector.

    Args:
        indicators: (draws x units) deregulation indicator matrix, at least
            one draw.
        groups: group structure (one group per unit).
        beta: rejection penalty in (0, 1).
        enum_limit: most units one elimination step may join.

    Returns:
        OptimizeResult with the decision vector, the attained f value (from
        the integer draw-count scores), and per-component reports.

    Raises:
        NumericalError: a component's elimination width is ``enum_limit``
            or more.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    indicators = np.asarray(indicators, dtype=bool)
    solutions = _solve_components(indicators, groups, enum_limit)
    t, m = indicators.shape
    d, score = _optimum(solutions, beta, m)
    reports = tuple(sol.report for sol in solutions)
    return OptimizeResult(d=d, f_value=score / t - beta * int(d.sum()), components=reports,
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
                   target_fdr: float = 0.10, tol: float = 0.005,
                   enum_limit: int = 20) -> CalibrationResult:
    """Pick beta so the posterior FDR of the optimal decisions meets a target.

    The optimal decision is piecewise constant in beta: the breakpoints of
    every component's hull split (0, 1) into open intervals, each with one
    decision vector, and rejections strictly grow as beta falls.  Every
    interval is scanned at its midpoint (posterior FDR need not be monotone
    in beta), where the decision is read out as ``optimize_decisions`` reads
    it.  Among decisions with posterior FDR at most ``target_fdr + tol`` and
    at least one rejection the one with the most rejections wins, and the
    reported beta is its interval's midpoint.  With no admissible decision
    the all-zero vector is returned with ``feasible=False``.
    """
    if not 0.0 < target_fdr < 1.0:
        raise ValueError("target_fdr must lie in (0, 1)")
    indicators = np.asarray(indicators, dtype=bool)
    solutions = _solve_components(indicators, groups, enum_limit)
    m = indicators.shape[1]
    v = marginal_probs(indicators)

    breaks = sorted({b for sol in solutions for b in sol.breaks if 0.0 < b < 1.0}, reverse=True)
    edges = [1.0, *breaks, 0.0]
    betas = [0.5 * (hi + lo) for hi, lo in zip(edges, edges[1:])]  # descending
    path = [_optimum(solutions, beta, m)[0] for beta in betas]

    fdrs = [posterior_fdr(x, v) for x in path]
    evaluations = tuple(zip(betas, (int(x.sum()) for x in path), fdrs))[::-1]
    reports = tuple(sol.report for sol in solutions)
    admissible = [n for n, (x, fdr) in enumerate(zip(path, fdrs))
                  if fdr <= target_fdr + tol and x.sum() >= 1]
    if not admissible:
        zeros = np.zeros(m, dtype=np.int8)
        return CalibrationResult(beta=math.nan, d=zeros, fdr=0.0,
                                 fnr=posterior_fnr(zeros, v), feasible=False,
                                 evaluations=evaluations, components=reports)
    n = admissible[-1]  # rejections grow along the path
    return CalibrationResult(beta=betas[n], d=path[n], fdr=fdrs[n],
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
        write_csv(path, ["mirna", "decision", "direction", "psi_hat",
                         "ci_low", "ci_high", "bayes_factor", "group_members"],
                  ([name, int(self.d[i]), self.direction[i], self.psi_mean[i], self.ci_low[i],
                    self.ci_high[i], self.bayes_factor[i], ";".join(self.group_members[i])]
                   for i, name in enumerate(self.mirna_names)))

    def write_summary_json(self, path) -> None:
        write_json(path, self.summary_dict())


def build_decision_report(mirna_names, psi_draws: np.ndarray, calibration: CalibrationResult,
                          groups: GroupStructure, prior_probs: np.ndarray,
                          n_prior_draws: int) -> DecisionReport:
    """Assemble the full per-unit report from the posterior draws and the
    prior probabilities of deregulation at the same threshold |psi| > 1
    (``priors.prior_exceedance``), which average ``n_prior_draws`` draws.

    Point estimates are posterior means; intervals are central 95% credible
    intervals.  Discoveries are labeled 'up' when the posterior mean
    difference is negative (fewer cycles: higher expression in disease
    tissue) and 'down' when positive.
    """
    psi_draws = np.asarray(psi_draws, dtype=float)
    names = tuple(mirna_names)
    post_ind = hypothesis_indicators(psi_draws)
    bf = bayes_factors(marginal_probs(post_ind), prior_probs, post_ind.shape[0], n_prior_draws)
    mean = psi_draws.mean(axis=0)
    alpha = 0.5 * (1.0 - 0.95)
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

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

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


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


@dataclass(frozen=True)
class ComponentReport:
    indices: np.ndarray
    exact: bool  # always true: a component is solved exactly or refused
    width: int   # elimination width: most other units in one elimination step


@dataclass(frozen=True)
class _ComponentSolution:
    """Best decision of one component for every rejection count k = 0..c."""

    report: ComponentReport
    scores: tuple          # t A_k, integers
    decisions: np.ndarray  # (c + 1, c) lexicographically smallest argmax per k
    weights: tuple         # per k: w of the rejected units, in component order

    def pick(self, beta: float):
        """Rejection count maximizing f_beta, summed unit by unit in
        component order; exact ties go to the smallest decision tuple."""
        best, best_f = 0, -math.inf
        for k, w in enumerate(self.weights):
            f = float(np.cumsum(w - beta)[-1]) if w.size else 0.0
            if f > best_f or (f == best_f and tuple(self.decisions[k]) < tuple(self.decisions[best])):
                best, best_f = k, f
        return best, best_f

    def hull(self, t: int):
        """Upper concave hull of (k, A_k): vertex counts and the betas between them.

        Vertex j is the optimum for beta between ``breaks[j]`` and
        ``breaks[j - 1]``; breaks decrease.
        """
        a = self.scores
        vertices = []
        for k in range(len(a)):
            while len(vertices) >= 2:
                p, q = vertices[-2:]
                if (q - p) * (a[k] - a[p]) < (a[q] - a[p]) * (k - p):
                    break
                vertices.pop()
            vertices.append(k)
        breaks = [(a[q] - a[p]) / (t * (q - p)) for p, q in zip(vertices, vertices[1:])]
        return vertices, breaks


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
    # draw counts t w_p of every unit under every decision
    bits = decisions.astype(np.int64)
    own = np.column_stack([
        counts[p][sum((bits[:, q] << b for b, q in enumerate(nb)), np.zeros(c + 1, dtype=np.int64))]
        for p, nb in enumerate(neighbors)])
    return _ComponentSolution(
        report=ComponentReport(indices=comp, exact=True, width=width),
        scores=tuple((value + tie) >> c for value, tie in zip(root, ties)),
        decisions=decisions,
        weights=tuple(own[k, decisions[k] == 1] / t for k in range(c + 1)),
    )


def _solve_components(indicators: np.ndarray, groups: GroupStructure, enum_limit: int) -> list:
    t, m = indicators.shape
    if t == 0:
        raise ValueError("need at least one posterior draw")
    if groups.n_units != m:
        raise ValueError("groups and indicator matrix disagree on unit count")
    tables = _w_tables(indicators, groups)
    return [_solve_component(comp, tables, t, enum_limit, groups.cap)
            for comp in _components(groups)]


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
    the best decision per rejection count, and ties go to the
    lexicographically smallest vector.

    Args:
        indicators: (draws x units) deregulation indicator matrix, at least
            one draw.
        groups: group structure (one group per unit).
        beta: rejection penalty in (0, 1).
        enum_limit: most units one elimination step may join.

    Returns:
        OptimizeResult with the decision vector, the attained f value, and
        per-component reports.

    Raises:
        NumericalError: a component's elimination width is ``enum_limit``
            or more.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    indicators = np.asarray(indicators, dtype=bool)
    solutions = _solve_components(indicators, groups, enum_limit)
    d = np.zeros(indicators.shape[1], dtype=np.int8)
    total = 0.0
    for sol in solutions:
        k, f = sol.pick(beta)
        d[sol.report.indices] = sol.decisions[k]
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
                   target_fdr: float = 0.10, tol: float = 0.005,
                   enum_limit: int = 20) -> CalibrationResult:
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
    solutions = _solve_components(indicators, groups, enum_limit)
    t, m = indicators.shape
    v = marginal_probs(indicators)

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
                          groups: GroupStructure, prior_probs: np.ndarray, n_prior_draws: int,
                          threshold: float = 1.0, ci_level: float = 0.95) -> DecisionReport:
    """Assemble the full per-unit report from the posterior draws and the
    prior probabilities of deregulation at the same ``threshold``
    (``priors.prior_exceedance``), which average ``n_prior_draws`` draws.

    Point estimates are posterior means; intervals are central credible
    intervals at ``ci_level``.  Discoveries are labeled 'up' when the
    posterior mean difference is negative (fewer cycles: higher expression
    in disease tissue) and 'down' when positive.
    """
    psi_draws = np.asarray(psi_draws, dtype=float)
    names = tuple(mirna_names)
    post_ind = hypothesis_indicators(psi_draws, threshold)
    bf = bayes_factors(marginal_probs(post_ind), prior_probs, post_ind.shape[0], n_prior_draws)
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

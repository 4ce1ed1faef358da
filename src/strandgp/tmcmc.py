"""Additive transformation-based MCMC.

Every iteration draws ONE half-normal step size and a vector of independent
sign flips; all coordinates move simultaneously by their per-coordinate
scale times that shared step.  The move is its own inverse under sign
reversal, so the acceptance ratio is the bare density ratio with no
Jacobian term.

Scale adaptation runs only during burn-in: per-coordinate relative scales
(typically prior standard deviations) are multiplied by per-block factors,
and the blocks' log factors receive Robbins-Monro updates in round-robin
windows driven by the realized window acceptance.  After burn-in all scales
are frozen, so the stored portion of the chain is a true Markov chain.
"""

from __future__ import annotations

import warnings
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .util import SamplerConfig, write_csv


@dataclass
class TargetModel:
    """A sampling target over an unconstrained vector.

    Attributes:
        log_target: callable mapping a d-vector to a log density (up to a
            constant); -inf marks invalid points.  It may also offer
            ``joint(targets)``, for ``run_chains``: a function from one
            vector per target of ``targets`` to their log densities, or None
            where it cannot serve those targets.
        x0: starting point with finite log density.
        names: one label per coordinate.
        blocks: disjoint index arrays partitioning the coordinates for
            scale adaptation; None collapses to a single block.
        base_scales: per-coordinate relative proposal scales.
        meta: free-form description carried into the sample set.
    """

    log_target: object
    x0: np.ndarray
    names: list
    blocks: list | None = None
    base_scales: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        d = self.x0.size
        if self.base_scales is None:
            self.base_scales = np.ones(d)
        self.base_scales = np.asarray(self.base_scales, dtype=float)
        if len(self.names) != d:
            raise ValueError("names must have one entry per coordinate")
        if self.base_scales.shape != (d,):
            raise ValueError("base_scales must have one entry per coordinate")
        bad = np.flatnonzero(~(np.isfinite(self.base_scales) & (self.base_scales > 0)))
        if bad.size:
            shown = ", ".join(f"{self.names[i]}={float(self.base_scales[i])!r}" for i in bad[:5])
            more = f" and {bad.size - 5} more" if bad.size > 5 else ""
            raise ValueError(f"base_scales must be positive and finite: {shown}{more}")
        if self.blocks is None:
            self.blocks = [np.arange(d)]
        self.blocks = [np.asarray(b, dtype=int) for b in self.blocks]


@dataclass
class PosteriorSamples:
    """Thinned post-burn-in draws plus chain metadata.

    ``draws`` has one row per stored draw; columns follow ``names``.
    ``acceptance_rate`` covers the post-burn-in portion of the chain.
    """

    draws: np.ndarray
    names: list
    acceptance_rate: float
    scales: np.ndarray
    config: SamplerConfig
    block_info: list
    meta: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def trace(self, name: str) -> np.ndarray:
        return self.draws[:, self.index(name)]

    def ess(self, name: str) -> float:
        return effective_sample_size(self.trace(name))


def _propose(x: np.ndarray, scales: np.ndarray, rngs) -> np.ndarray:
    """The additive move's proposal from each row of ``x``, with the scales
    of the same row of ``scales``: row c's generator ``rngs[c]`` gives its
    epsilon, then its signs."""
    eps = np.array([[abs(rng.standard_normal())] for rng in rngs])
    signs = np.array([rng.integers(0, 2, size=x.shape[1]) for rng in rngs])
    return x + (signs * 2 - 1) * scales * eps


def _accept(lp_prop: float, lp_x: float, rng) -> bool:
    """The Metropolis test; consumes a uniform only for a finite proposal."""
    return math.isfinite(lp_prop) and math.log(rng.random()) < lp_prop - lp_x


def tmcmc_step(x: np.ndarray, scales: np.ndarray, log_target, rng, lp_x: float):
    """One additive move: all coordinates shift by +-scale_i * epsilon.

    Args:
        x: current point (finite log density required).
        scales: positive per-coordinate scales.
        log_target: log density callable.
        rng: numpy Generator; consumes (epsilon, signs, uniform) per call,
            the uniform only when the proposal has finite density.
        lp_x: the log density at x.

    Returns:
        (next point, its log density, accepted flag).
    """
    if not math.isfinite(lp_x):
        raise NumericalError("tmcmc_step requires a finite log density at the current point")
    proposal = _propose(x[None], scales[None], [rng])[0]
    lp_prop = log_target(proposal)
    if _accept(lp_prop, lp_x, rng):
        return proposal, lp_prop, True
    return x, lp_x, False


class _Adaptation:
    """Two-phase Robbins-Monro tuning of per-block scale factors.

    Acceptance is counted over windows of ``WINDOW`` iterations, and each
    closed window moves log factors by a decaying step times the window's
    acceptance minus the midpoint of ``BAND``.  A shared epsilon makes the
    acceptance rate a joint function of every block's scale, so the first
    ``GLOBAL_WINDOWS`` windows move all factors together, fixing the overall
    magnitude quickly; later windows refine one block at a time in
    round-robin order.  Every factor starts at 2.4 / sqrt(d), the random-walk
    Metropolis rule of thumb in d dimensions.  ``run_chains`` feeds only
    burn-in iterations, so the factors freeze when burn-in ends.
    """

    WINDOW = 200  # iterations per tuning window
    BAND = (0.20, 0.35)  # target acceptance band
    GLOBAL_WINDOWS = 12
    RATE = 1.0  # Robbins-Monro gain on the log factors

    def __init__(self, blocks, d):
        self.blocks = blocks
        self.mid = 0.5 * (self.BAND[0] + self.BAND[1])
        self.log_factors = [math.log(2.4 / math.sqrt(d))] * len(blocks)
        self.windows_done = 0
        self.visits = [0] * len(blocks)
        self.active = 0
        self.accepted = 0
        self.seen = 0
        self.history = []

    def factors(self, d):
        out = np.empty(d)
        for block, lf in zip(self.blocks, self.log_factors):
            out[block] = math.exp(lf)
        return out

    def record(self, accepted: bool) -> bool:
        """Returns True when the window closed and factors changed."""
        self.accepted += int(accepted)
        self.seen += 1
        if self.seen < self.WINDOW:
            return False
        acc = self.accepted / self.seen
        self.windows_done += 1
        if self.windows_done <= self.GLOBAL_WINDOWS or len(self.blocks) == 1:
            step = self.RATE / math.sqrt(self.windows_done)
            delta = step * (acc - self.mid)
            self.log_factors = [float(np.clip(lf + delta, -30.0, 30.0))
                                for lf in self.log_factors]
            self.history.append({"block": -1, "acceptance": acc,
                                 "factor": math.exp(self.log_factors[0])})
        else:
            # Steps shrink with the visit count but keep a floor: the local
            # scale of the target can shift while burn-in still explores, and
            # a fully decayed schedule cannot track it.  Post-burn-in the
            # factors freeze regardless, preserving the Markov property.
            b = self.active
            self.visits[b] += 1
            step = self.RATE / math.sqrt(min(self.visits[b], 16))
            self.log_factors[b] = float(np.clip(self.log_factors[b] + step * (acc - self.mid),
                                                -30.0, 30.0))
            self.history.append({"block": b, "acceptance": acc,
                                 "factor": math.exp(self.log_factors[b])})
            self.active = (b + 1) % len(self.blocks)
        self.accepted = 0
        self.seen = 0
        return True


def _evaluator(targets):
    """A function from the rows of an array, one per target, to their log
    densities: the targets' own joint evaluation where the first offers one
    that serves them all, otherwise one call of each target."""
    joint = getattr(targets[0], "joint", None)
    evaluate = joint(targets) if joint is not None else None
    if evaluate is None:
        return lambda xs: [f(x) for f, x in zip(targets, xs)]
    return evaluate


def run_chains(models: list, config: SamplerConfig, rngs: list) -> list:
    """Run one chain per model in lockstep: adapt during burn-in, then store
    every ``thin``-th draw.  The models share one dimension.

    Chain c draws from ``rngs[c]`` alone, in the order ``tmcmc_step`` does,
    and keeps its own point, adaptation, acceptance counts and draws.  Each
    iteration forms every chain's proposal at once and evaluates them in one
    call (see ``TargetModel.log_target``), so chain c is the chain that
    ``run_chain(models[c], config, rngs[c])`` gives.  Each chain stores
    ``config.n_stored`` draws.

    Raises:
        ValueError: the models differ in dimension.
        NumericalError: a starting point has non-finite log density; the
            error's ``chain`` attribute is its model's index.
    """
    if len({model.x0.size for model in models}) > 1:
        raise ValueError("chains run in lockstep must share one dimension")
    evaluate = _evaluator([model.log_target for model in models])
    x = np.array([model.x0 for model in models])
    lp = evaluate(x)
    for c, value in enumerate(lp):
        if not math.isfinite(value):
            error = NumericalError("initial state has non-finite log target")
            error.chain = c
            raise error

    n_chains, d = x.shape
    base = np.array([model.base_scales for model in models])
    adapts = [_Adaptation(model.blocks, d) for model in models]
    scales = np.array([b * adapt.factors(d) for b, adapt in zip(base, adapts)])
    draws = np.empty((n_chains, config.n_stored, d))
    burn_in, thin = config.burn_in, config.thin
    # Acceptance counts after burn-in, or over the whole chain if it is all
    # burn-in.
    counted_from = burn_in if config.n_iterations > burn_in else 0
    accepted = [0] * n_chains
    for t in range(config.n_iterations):
        proposals = _propose(x, scales, rngs)
        burning = t < burn_in
        for c, lp_prop in enumerate(evaluate(proposals)):
            ok = _accept(lp_prop, lp[c], rngs[c])
            if ok:
                x[c], lp[c] = proposals[c], lp_prop
            if t >= counted_from:
                accepted[c] += ok
            if burning and adapts[c].record(ok):
                scales[c] = base[c] * adapts[c].factors(d)
        if not burning and (t - burn_in + 1) % thin == 0:
            draws[:, (t - burn_in) // thin] = x

    counted = config.n_iterations - counted_from
    out = []
    for c, (model, adapt) in enumerate(zip(models, adapts)):
        if adapt.history and config.n_iterations > burn_in:
            recent = [h["acceptance"] for h in adapt.history[-4:]]
            lo, hi = _Adaptation.BAND
            if not (lo <= float(np.mean(recent)) <= hi):
                warnings.warn(
                    f"acceptance {np.mean(recent):.3f} did not enter the target band "
                    f"[{lo}, {hi}] within burn-in; consider a longer burn-in",
                    RuntimeWarning, stacklevel=2)
        out.append(PosteriorSamples(
            draws=draws[c],
            names=list(model.names),
            acceptance_rate=accepted[c] / counted if counted else 0.0,
            scales=scales[c],
            config=config,
            block_info=adapt.history,
            meta=dict(model.meta),
        ))
    return out


def run_chain(model: TargetModel, config: SamplerConfig, rng=None) -> PosteriorSamples:
    """``run_chains`` for one chain, on ``rng`` or else a generator seeded
    with ``config.seed``.

    Raises:
        NumericalError: the starting point has non-finite log density.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return run_chains([model], config, [rng])[0]


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f))[:n].real
    return acov / n


def effective_sample_size(x: np.ndarray) -> float:
    """ESS by Geyer's initial monotone sequence estimator.

    A constant trace reports 1.0; a super-efficient (negatively coupled)
    trace is capped at the draw count.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return 1.0
    acov = _autocovariance(x)
    g0 = acov[0]
    if g0 <= 0:
        return 1.0
    pair_sums = []
    running_min = math.inf
    for j in range(0, n - 1, 2):
        gamma = acov[j] + acov[j + 1] if j + 1 < n else acov[j]
        if gamma <= 0:
            break
        running_min = min(running_min, gamma)
        pair_sums.append(running_min)
    asym_var = -g0 + 2.0 * sum(pair_sums)
    if asym_var <= 0:
        return float(n)
    return float(min(max(n * g0 / asym_var, 1.0), n))


def export_trace(samples: PosteriorSamples, path, parameters) -> None:
    """Write ``iteration,parameter,value`` rows for the named parameters."""
    cols = [samples.index(name) for name in parameters]
    write_csv(path, ["iteration", "parameter", "value"],
              ([i, name, row[c]] for i, row in enumerate(samples.draws)
               for name, c in zip(parameters, cols)))

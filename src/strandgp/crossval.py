"""Leave-one-out validation through posterior predictive intervals.

Each fold refits the model without one patient.  Given a stored state (psi,
delta2), the error covariance's inverse-Wishart conditional composed with a
normal row around psi has, for unit i, the exact marginal
``psi_i + sqrt((delta2 + S_ii) / nu) * t_nu`` with ``nu = dof + n - m + 1``
and S the training scatter about psi.  The predictive of a unit is thus an
equal-weight mixture of Student-t laws, one per stored state; its central
interval ends are solved as mixture quantiles, with no drawing, and reported
with coverage of the held-out values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix, ExpressionDataset
from .errors import DataError, NumericalError
from .priors import HyperPriorSpec, delta2_draws, make_posterior_model, psi_draws
# ``run_chain`` is not called here; perfbench/tracing.py still looks it up.
from .tmcmc import SamplerConfig, run_chain, run_chains  # noqa: F401
from .util import spawn_rngs, write_csv


def _t_cdf(nu: int, u: np.ndarray) -> np.ndarray:
    """CDF of Student's t with integer ``nu`` degrees of freedom, elementwise:
    the finite sums of Abramowitz & Stegun 26.7.3 (odd ``nu``) and 26.7.4
    (even), in Cephes' ``stdtr`` form and summed by Horner's rule.  Each
    term is one array pass, so the cost grows with ``nu``; the absolute
    error grows too, to about 3e-15 at ``nu`` = 500."""
    z = 1.0 + u * u / nu
    f = np.ones_like(z)
    for j in range(nu - 2, 1 if nu % 2 else 0, -2):
        f = 1.0 + f * ((j - 1) / j) / z
    x = np.abs(u)
    if nu % 2:
        root = x / math.sqrt(nu)
        half = np.arctan(root) + (f * root / z if nu > 1 else 0.0)
        half *= 1.0 / math.pi
    else:
        half = 0.5 * f * x / np.sqrt(z * nu)
    return 0.5 + np.copysign(half, u)


def _t_log_norm(nu: int) -> float:
    """Log of the t_nu density's normalizing constant."""
    return math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi)


def _t_quantile(nu: int, p: float) -> float:
    """The ``p``-quantile of Student's t with integer ``nu``, by Newton on
    ``_t_cdf`` from 0.  The CDF is concave on the positive half-line, so
    the iterates for the upper quantile rise monotonically to the root; the
    solve stops when rounding halts their rise."""
    q = max(p, 1.0 - p)
    log_norm = _t_log_norm(nu)
    t = 0.0
    while True:
        gap = q - float(_t_cdf(nu, np.array(t)))
        new = t + gap / math.exp(log_norm - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))
        if not new > t:
            return t if p >= 0.5 else -t
        t = new


def _mixture_t_quantile(loc: np.ndarray, scale: np.ndarray, nu: int, p: float) -> np.ndarray:
    """Per-column ``p``-quantile of the equal-weight mixture of location-scale
    t_nu laws, one per row, by safeguarded Newton on the mixture CDF.

    The component quantiles bracket the root and their median starts it.  A
    step that leaves the bracket, or is over half the previous step, is
    replaced by the bracket's midpoint, so rounding noise in the CDF cannot
    make a column oscillate; a column is frozen once its step or its bracket
    is under float resolution.
    """
    comp = loc + scale * _t_quantile(nu, p)
    # The column medians, as np.median computes them; its NaN check would
    # import numpy.ma, and comp is finite.
    n = comp.shape[0]
    x = np.partition(comp, [(n - 1) // 2, n // 2], axis=0)[(n - 1) // 2:n // 2 + 1].mean(axis=0)
    lo, hi = comp.min(axis=0), comp.max(axis=0)
    last_step, span = hi - lo, scale.max(axis=0)
    log_norm = _t_log_norm(nu)
    active = np.arange(x.size)
    while active.size:
        xa, la, sa = x[active], loc[:, active], scale[:, active]
        u = (xa - la) / sa
        gap = _t_cdf(nu, u).mean(axis=0) - p
        density = (np.exp(log_norm - 0.5 * (nu + 1.0) * np.log1p(u * u / nu)) / sa).mean(axis=0)
        below = gap < 0
        lo[active[below]], hi[active[~below]] = xa[below], xa[~below]
        lo_a, hi_a = lo[active], hi[active]
        new = xa - gap / density
        newton = (new >= lo_a) & (new <= hi_a) & (np.abs(new - xa) <= 0.5 * last_step[active])
        x[active] = new = np.where(newton, new, 0.5 * (lo_a + hi_a))
        last_step[active] = step = np.abs(new - xa)
        resolution = 4.0 * np.finfo(float).eps * (np.abs(new) + span[active])
        active = active[(step > resolution) & (hi_a - lo_a > resolution)]
    return x


def predictive_draws(draws: np.ndarray, z_train: np.ndarray, dof: int, m: int,
                     level: float) -> np.ndarray:
    """Per-unit central ``level`` predictive interval over a stored chain, as a
    2 x m array (low ends, then high ends); ``dof`` is the prior's
    inverse-Wishart degrees of freedom."""
    psis = psi_draws(draws, m)
    # Sorted per unit, so the ends do not depend on the order of the rows.
    z = np.sort(np.asarray(z_train, dtype=float), axis=0)
    n = z.shape[0]
    nu = dof + n - m + 1
    zbar = z.mean(axis=0)
    # S_ii = sum_r (z_ri - psi_i)^2 = ss_i + n (zbar_i - psi_i)^2.
    s_ii = ((z - zbar) ** 2).sum(axis=0) + n * (zbar - psis) ** 2
    scale = np.sqrt((delta2_draws(draws)[:, None] + s_ii) / nu)
    alpha = 0.5 * (1.0 - level)
    return np.stack([_mixture_t_quantile(psis, scale, nu, q) for q in (alpha, 1.0 - alpha)])


@dataclass(frozen=True)
class PredictiveSummary:
    """One fold's predictive intervals and coverage of the held-out row."""

    patient_id: str
    mirna_names: tuple
    low: np.ndarray
    high: np.ndarray
    observed: np.ndarray
    covered: np.ndarray
    level: float

    @property
    def coverage(self) -> float:
        return float(self.covered.mean())

    def write_csv(self, path) -> None:
        write_csv(path, ["mirna", "pred_low", "pred_high", "observed", "covered"],
                  ([name, self.low[i], self.high[i], self.observed[i], int(self.covered[i])]
                   for i, name in enumerate(self.mirna_names)))


# Folds run together in groups whose stored draws take at most this many
# bytes (or one fold, if it alone takes more): a fixed bound on memory that
# does not change any result.
_GROUP_BYTES = 64 << 20


def run_loo(dataset: ExpressionDataset, design: DesignMatrix,
            sampler_config: SamplerConfig, prior_kwargs: dict | None = None,
            level: float = 0.75, folds=None) -> list:
    """Refit without each patient (all, or the indices ``folds``) and
    summarize the predictive for the held-out row.

    A fold rebuilds its hyperpriors (the noise-scale prior is empirical) from
    the training rows only, runs a chain on its own child stream of the
    sampler config's seed, indexed by patient position, and reports central
    predictive intervals at ``level`` per unit plus coverage flags.  The
    folds' chains advance together (``tmcmc.run_chains``), in groups bounded
    by ``_GROUP_BYTES``; a fold's result does not depend on which folds run
    with it, so a subset reproduces the same per-fold results as all of them.

    Raises:
        DataError: fewer than three patients.
        ValueError: the chain stores no draws.
        NumericalError: a fold's chain could not be started (non-finite
            posterior at the initial state); the message names the fold.
    """
    if dataset.n_patients < 3:
        raise DataError("leave-one-out needs at least three patients")
    if sampler_config.n_stored == 0:
        raise ValueError("the fold chains store no draws: (n_iterations - burn_in) // thin is 0")
    indices = list(folds) if folds is not None else list(range(dataset.n_patients))
    rngs = spawn_rngs(sampler_config.seed, dataset.n_patients)
    built = []
    for j in indices:
        try:
            train = dataset.drop_patient(j)
            priors = HyperPriorSpec.from_data(design, train.z, **(prior_kwargs or {}))
            built.append((j, train, priors, make_posterior_model(train.z, design, priors)))
        except NumericalError as exc:
            raise _in_fold(dataset, j, exc) from exc
    if not built:
        return []
    per_group = max(1, _GROUP_BYTES // (8 * sampler_config.n_stored * built[0][3].x0.size))
    summaries = []
    for first in range(0, len(built), per_group):
        group = built[first:first + per_group]
        try:
            chains = run_chains([model for *_, model in group], sampler_config,
                                [rngs[j] for j, *_ in group])
        except NumericalError as exc:
            raise _in_fold(dataset, group[exc.chain][0], exc) from exc
        for (j, train, priors, _), samples in zip(group, chains):
            low, high = predictive_draws(samples.draws, train.z, priors.dof,
                                         m=dataset.n_mirnas, level=level)
            held_out = dataset.z[j]
            summaries.append(PredictiveSummary(
                patient_id=dataset.patient_ids[j],
                mirna_names=dataset.mirna_names,
                low=low, high=high, observed=held_out,
                covered=(held_out >= low) & (held_out <= high), level=level,
            ))
    return summaries


def _in_fold(dataset: ExpressionDataset, j: int, exc: NumericalError) -> NumericalError:
    return NumericalError(f"fold {j} (patient {dataset.patient_ids[j]}): {exc}")


def overall_coverage(summaries) -> float:
    """Pooled coverage over all folds and units."""
    flags = np.concatenate([s.covered for s in summaries])
    return float(flags.mean())

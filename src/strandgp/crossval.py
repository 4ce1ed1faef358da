"""Leave-one-out validation through posterior predictive intervals.

Each fold refits the model without one patient, then builds the held-out
row's predictive distribution by composition: for every stored draw of
(effects, noise scale), the integrated-out error covariance is re-drawn
from its inverse-Wishart conditional given the training rows, and a new
observation vector is drawn from the resulting normal.  Central predictive
intervals are reported per unit together with coverage of the held-out
values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix, ExpressionDataset
from .errors import DataError, NumericalError
from .priors import HyperPriorSpec, delta2_draws, make_posterior_model, psi_draws
from .tmcmc import SamplerConfig, run_chain
from .util import spawn_rngs


def sample_predictive(psi: np.ndarray, delta2: float, z_train: np.ndarray,
                      dof: int, rng, n_draws: int = 1) -> np.ndarray:
    """Draw new observation vectors given one posterior state.

    The error covariance is drawn from inverse-Wishart with degrees of
    freedom ``dof + n_train`` and scale ``delta2 I + S``, where S is the
    training scatter about ``psi``; new rows are then normal around ``psi``.

    Returns:
        (n_draws x m) matrix of predictive draws.
    """
    from scipy import stats  # deferred: importing it costs every command about 0.6 s

    psi = np.asarray(psi, dtype=float)
    z_train = np.asarray(z_train, dtype=float)
    n_train, m = z_train.shape
    centered = z_train - psi[None, :]
    scale = delta2 * np.eye(m) + centered.T @ centered
    df = dof + n_train
    out = np.empty((n_draws, m))
    for i in range(n_draws):
        sigma = stats.invwishart.rvs(df=df, scale=scale, random_state=rng)
        sigma = np.atleast_2d(sigma)
        chol = np.linalg.cholesky(sigma)
        out[i] = psi + chol @ rng.standard_normal(m)
    return out


def predictive_draws(draws: np.ndarray, z_train: np.ndarray, dof: int, rng,
                     m: int, per_state: int = 1) -> np.ndarray:
    """Predictive draws composed over a whole stored chain."""
    psis = psi_draws(draws, m)
    d2s = delta2_draws(draws)
    chunks = [
        sample_predictive(psis[t], float(d2s[t]), z_train, dof, rng, n_draws=per_state)
        for t in range(psis.shape[0])
    ]
    return np.vstack(chunks)


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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mirna", "pred_low", "pred_high", "observed", "covered"])
            for i, name in enumerate(self.mirna_names):
                writer.writerow([name, repr(float(self.low[i])), repr(float(self.high[i])),
                                 repr(float(self.observed[i])), int(self.covered[i])])


def loo_predictive(dataset: ExpressionDataset, design: DesignMatrix, patient_index: int,
                   sampler_config: SamplerConfig, prior_kwargs: dict | None = None,
                   level: float = 0.75, per_state: int = 1, rng=None) -> PredictiveSummary:
    """Refit without one patient and summarize the predictive for that row.

    The fold rebuilds its hyperpriors (the noise-scale prior is empirical)
    from the training rows only, runs a fresh chain, and reports central
    predictive intervals at ``level`` per unit plus coverage flags.

    Raises:
        DataError: fewer than three patients.
        NumericalError: the fold's chain could not be started (non-finite
            posterior at the initial state).
    """
    if dataset.n_patients < 3:
        raise DataError("leave-one-out needs at least three patients")
    if rng is None:
        rng = np.random.default_rng(sampler_config.seed)
    train = dataset.drop_patient(patient_index)
    held_out = dataset.z[patient_index]
    priors = HyperPriorSpec.from_data(design, train.z, **(prior_kwargs or {}))
    model = make_posterior_model(train.z, design, priors)
    samples = run_chain(model, sampler_config, rng=rng)
    if samples.n_draws == 0:
        raise NumericalError("fold produced no stored draws; lengthen the chain")
    pred = predictive_draws(samples.draws, train.z, priors.dof, rng,
                            m=dataset.n_mirnas, per_state=per_state)
    alpha = 0.5 * (1.0 - level)
    low, high = np.quantile(pred, [alpha, 1.0 - alpha], axis=0)
    covered = (held_out >= low) & (held_out <= high)
    return PredictiveSummary(
        patient_id=dataset.patient_ids[patient_index],
        mirna_names=dataset.mirna_names,
        low=low, high=high, observed=held_out, covered=covered, level=level,
    )


def run_loo(dataset: ExpressionDataset, design: DesignMatrix,
            sampler_config: SamplerConfig, prior_kwargs: dict | None = None,
            level: float = 0.75, per_state: int = 1, folds=None,
            seed: int | None = None) -> list:
    """All (or selected) folds, each with its own child RNG stream.

    Folds are independent; their seeds are spawned from ``seed`` (defaults
    to the sampler config's seed) indexed by patient position, so running a
    subset reproduces the same per-fold results as running all of them.
    """
    indices = list(folds) if folds is not None else list(range(dataset.n_patients))
    base_seed = sampler_config.seed if seed is None else seed
    rngs = spawn_rngs(base_seed, dataset.n_patients)
    summaries = []
    for j in indices:
        try:
            summaries.append(loo_predictive(dataset, design, j, sampler_config,
                                            prior_kwargs=prior_kwargs, level=level,
                                            per_state=per_state, rng=rngs[j]))
        except NumericalError as exc:
            raise NumericalError(
                f"fold {j} (patient {dataset.patient_ids[j]}): {exc}") from exc
    return summaries


def overall_coverage(summaries) -> float:
    """Pooled coverage over all folds and units."""
    flags = np.concatenate([s.covered for s in summaries])
    return float(flags.mean())

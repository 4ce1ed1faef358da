"""Per-unit likelihood-ratio tests for the interval null, with parametric
bootstrap p-values and Benjamini-Hochberg step-up adjustment.

Each unit's differential observations are modeled as iid normal.  The null
constrains the mean to [-1, 1]; the test statistic is the likelihood ratio

    zeta = (sigma_hat^2 / sigma0_hat^2)^(n/2) = (v / (v + g^2))^(n/2),

with biased (1/n) variance MLEs v = sigma_hat^2 and sigma0_hat^2 = v + g^2,
where g is the gap between the sample mean and the interval.  zeta is a
function of the sufficient statistics (mean, v) alone, and a mean inside
the interval gives exactly zeta = 1.  The null distribution has no closed
form, so p-values come from a parametric bootstrap at a null point; each
replicate draws its mean and variance directly, which is exact in
distribution (see ``bootstrap_pvalue``).  The module needs numpy only: it
loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import spawn_rngs, write_csv


@dataclass(frozen=True)
class LrResult:
    """Likelihood-ratio statistic and the MLEs it was built from."""

    zeta: float
    constrained_mean: float
    constrained_var: float
    mean: float
    var: float
    n: int


def _zeta(mean, var, n: int):
    """Likelihood ratio (var / (var + gap^2))^(n/2) from the sample mean and
    the biased variance; gap = mean - clip(mean, -1, 1), so a mean inside
    the interval gives exactly 1.  Works elementwise on arrays."""
    gap = mean - np.clip(mean, -1.0, 1.0)
    return (var / (var + gap * gap)) ** (n / 2.0)


def lr_stat(z_col) -> LrResult:
    """Likelihood-ratio statistic for one unit's observations.

    Args:
        z_col: at least two finite observations with positive sample
            variance.

    Raises:
        DataError: fewer than two observations, a non-finite observation
            or zero variance.
    """
    z = np.asarray(z_col, dtype=float).ravel()
    n = z.size
    if n < 2:
        raise DataError("need at least two observations")
    if not np.isfinite(z).all():
        raise DataError("non-finite observation")
    mean = float(z.mean())
    var = float(np.mean((z - mean) ** 2))
    if var <= 0.0:
        raise DataError("zero sample variance")
    c_mean = float(np.clip(mean, -1.0, 1.0))
    return LrResult(zeta=float(_zeta(mean, var, n)), constrained_mean=c_mean,
                    constrained_var=var + (mean - c_mean) ** 2, mean=mean, var=var, n=n)


def _replicate_zetas(center: float, spread2: float, n: int, n_boot: int,
                     rng: np.random.Generator) -> np.ndarray:
    """zeta of ``n_boot`` samples of n iid N(center, spread2) observations,
    drawn from their sufficient statistics (see ``bootstrap_pvalue``): all
    the means first, then all the variances."""
    means = center + np.sqrt(spread2 / n) * rng.standard_normal(n_boot)
    var = spread2 * 2.0 * rng.standard_gamma((n - 1) / 2.0, n_boot) / n
    return _zeta(means, var, n)


def bootstrap_pvalue(z_col, n_boot: int = 10000, seed=0, result: LrResult | None = None,
                     ties: str = "conservative", null_point: str = "mle") -> float:
    """Parametric-bootstrap p-value for small zeta under the interval null.

    The statistic has an atom at zeta = 1 (every sample whose mean lands
    inside the interval), so both the simulation point and the tie rule
    matter:

    * ``null_point="mle"`` (default) simulates at the constrained MLE,
      which equals the boundary point whenever the observed mean falls
      outside the interval.
    * ``null_point="boundary"`` simulates at the interval endpoint nearest
      the observed mean (the least favorable null point), with the
      variance profiled at that endpoint.

    * ``ties="conservative"`` (default) counts ties as extreme,
      p = (1 + #{zeta* <= zeta_obs}) / (B + 1).  Super-uniform under the
      null (valid for step-up adjustment); an observed zeta of 1 gets a
      p-value near 1.
    * ``ties="randomized"`` spreads the atom uniformly,
      p = (#{zeta* < zeta_obs} + U (1 + #{zeta* = zeta_obs})) / (B + 1).

    The combination (boundary, randomized) is the classical construction
    whose p-value distribution is uniform when the truth sits exactly on
    the interval boundary; the default combination is conservative there
    but never anti-conservative.  All variants are strictly positive and
    deterministic given the seed (the randomization draw comes from the
    same stream, after the replicates).

    Each of the B replicates draws the two sufficient statistics of n iid
    normal observations at the null point, not the observations: the mean
    from N(center, s^2/n) and the biased variance from s^2 chi^2_{n-1} / n,
    independent by Cochran's theorem.  zeta depends on a sample only
    through these two, so the replicates have exactly the distribution of
    zeta over full samples, at two random numbers per replicate instead
    of n.

    Raises:
        ValueError: an unknown tie rule or null point, whatever ``n_boot``.
    """
    if ties not in ("conservative", "randomized"):
        raise ValueError(f"unknown tie rule {ties!r} (expected 'conservative' or 'randomized')")
    if null_point not in ("mle", "boundary"):
        raise ValueError(f"unknown null point {null_point!r} (expected 'mle' or 'boundary')")
    if result is None:
        result = lr_stat(z_col)
    if n_boot <= 0:
        return 1.0
    if null_point == "mle":
        center, spread2 = result.constrained_mean, result.constrained_var
    else:
        center = 1.0 if result.mean >= 0 else -1.0
        spread2 = result.var + (result.mean - center) ** 2
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    zetas = _replicate_zetas(center, spread2, result.n, n_boot, rng)
    below = int(np.count_nonzero(zetas < result.zeta))
    equal = int(np.count_nonzero(zetas == result.zeta))
    if ties == "conservative":
        return float((1.0 + below + equal) / (n_boot + 1.0))
    u = rng.random()
    return float((below + u * (1.0 + equal)) / (n_boot + 1.0))


def bh_adjust(p_values, q: float = 0.10) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at level ``q``.

    Sorts ascending (stable on the original index for ties), finds the
    largest rank i with p_(i) <= i q / m, and rejects the i smallest
    p-values.

    Returns:
        Boolean mask over the input order.
    """
    p = np.asarray(p_values, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = q * (np.arange(1, m + 1) / m)
    passing = np.flatnonzero(p[order] <= thresholds)
    reject = np.zeros(m, dtype=bool)
    if passing.size:
        reject[order[: passing[-1] + 1]] = True
    return reject


@dataclass(frozen=True)
class BaselineReport:
    mirna_names: tuple
    zeta: np.ndarray
    p_values: np.ndarray
    rejected: np.ndarray
    q: float

    @property
    def n_discoveries(self) -> int:
        return int(self.rejected.sum())

    def write_csv(self, path) -> None:
        write_csv(path, ["mirna", "zeta", "p_value", "rejected"],
                  ([name, zeta, p, int(r)] for name, zeta, p, r
                   in zip(self.mirna_names, self.zeta, self.p_values, self.rejected)))


def run_baseline(z: np.ndarray, mirna_names, q: float = 0.10, n_boot: int = 10000,
                 seed: int = 0) -> BaselineReport:
    """Full baseline pass over all units: bootstrap LR p-values with ties
    counted as extreme (``bootstrap_pvalue``'s default), then the
    Benjamini-Hochberg step-up at ``q``.  Each unit uses its own child RNG
    stream of ``seed``, so results are independent of evaluation order.
    """
    z = np.asarray(z, dtype=float)
    _, m = z.shape
    names = tuple(mirna_names)
    if len(names) != m:
        raise DataError("name count does not match column count")
    results = [lr_stat(z[:, i]) for i in range(m)]
    zetas = np.array([r.zeta for r in results])
    rngs = spawn_rngs(seed, m)
    p = np.array([
        bootstrap_pvalue(None, n_boot=n_boot, seed=rngs[i], result=results[i])
        for i in range(m)
    ])
    rejected = bh_adjust(p, q)
    return BaselineReport(mirna_names=names, zeta=zetas, p_values=p,
                          rejected=rejected, q=q)

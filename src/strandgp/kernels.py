"""Stationary Matern covariance and the prior covariance of the
differential-effect vector.

Each strand carries its own hyperparameters (process variance, smoothness,
correlation length).  Strands are independent a priori, so the latent-effect
covariance over all loci is block diagonal; the covariance of the m-vector
of unit effects is the congruence ``P W P^T`` with the incidence matrix P.
It is assembled by index from the Matern covariances of the locus pairs
(``data.CovarianceIndex``) into packed component blocks and, where a draw
of effects is needed, factored one component at a time.  The prior Monte
Carlo reads the assembled blocks or the unit variances only; it factors
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .data import CovarianceIndex, DesignMatrix
from .errors import NumericalError
from .util import spawn_rngs, worker_count

@cache
def _scipy():
    """(dpotrf, gammaln, kv), imported on first use so that importing the
    package loads no scipy module.  Public functions look them up once per
    call and hand them down, never once per block or pair."""
    from scipy.linalg.lapack import dpotrf
    from scipy.special import gammaln, kv

    return dpotrf, gammaln, kv


@dataclass(frozen=True)
class StrandHyperParams:
    """Matern hyperparameters of one strand.

    Attributes:
        varrho2: process variance (zero-distance covariance).
        nu: smoothness.
        rho: correlation length, in the same unit as coordinates (base pairs).
    """

    varrho2: float
    nu: float
    rho: float

    def __post_init__(self):
        for name in ("varrho2", "nu", "rho"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")


# Escalating diagonal jitter for Cholesky certification, as fractions of a
# reference scale: start at JITTER_INITIAL, multiply by JITTER_GROWTH on
# failure, give up beyond JITTER_MAXIMUM (read at call time).  For the effect
# covariance the reference is its largest diagonal entry over all units, and
# each component (strands linked by multi-locus units) escalates on its own:
# a component that factors without jitter gets none, and the jitter lands on
# the component's unit variances.  Because every component shares the global
# reference, a covariance is rejected exactly when the whole matrix would be
# (in exact arithmetic).
JITTER_INITIAL = 1e-10
JITTER_GROWTH = 2.0
JITTER_MAXIMUM = 1e-6
_LOG2 = np.log(2.0)


def _matern_at(x, nu, lead, kv) -> np.ndarray:
    """Matern correlation at scaled distances ``x = sqrt(2 nu) d``, with
    ``lead = (1 - nu) log 2 - log Gamma(nu)``; ``nu`` and ``lead`` are
    scalars or arrays shaped like ``x``; ``kv`` is scipy's Bessel K."""
    out = np.ones(x.shape)
    pos = x != 0.0  # a NaN (say from a NaN smoothness) goes on to the Bessel factor and raises
    xp = x[pos]
    if np.ndim(nu):
        nu, lead = nu[pos], lead[pos]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bessel = kv(nu, xp)
        val = np.exp(lead + nu * np.log(xp) + np.log(bessel))
    val[bessel == np.inf] = 1.0  # x -> 0 limit
    val[bessel == 0.0] = 0.0     # far-tail underflow
    if not np.isfinite(val).all():
        raise NumericalError(f"Matern evaluation left its numerical domain (nu={np.max(nu)})")
    out[pos] = np.minimum(val, 1.0)
    return out


def matern_correlation(d, nu: float) -> np.ndarray:
    """Matern correlation (variance-free part) at distances ``d >= 0``.

    Evaluated in log space through the modified Bessel function of the
    second kind.  Where the Bessel factor overflows (tiny scaled distance,
    large smoothness) the correlation is 1 to double precision and is
    returned as such; underflow of the far tail returns 0.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and nonnegative")
    _, gammaln, kv = _scipy()
    return _matern_at(np.sqrt(2.0 * nu) * d, nu, (1.0 - nu) * _LOG2 - gammaln(nu), kv)


def cholesky_with_jitter(matrix: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of ``matrix``, adding escalating diagonal jitter on failure.

    Every attempt, jittered or not, is one LAPACK ``dpotrf`` call, so one
    library decides positive definiteness throughout.

    Args:
        matrix: symmetric matrix to factor (not modified).
        scale: reference magnitude; jitter amounts are the ``JITTER_*`` fractions of it.

    Returns:
        (lower Cholesky factor, jitter actually added to the diagonal).

    Raises:
        NumericalError: factorization still fails at the jitter budget, or
            the reference scale is not a positive finite number.
    """
    return _factor_with_jitter(matrix, scale, _scipy()[0])


def _factor_with_jitter(matrix, scale, dpotrf):
    chol, info = dpotrf(matrix, lower=1, clean=1)
    if not info:
        return chol, 0.0
    if not (np.isfinite(scale) and scale > 0.0):
        raise NumericalError(f"invalid jitter reference scale {scale!r}")
    jitter = JITTER_INITIAL * scale
    limit = JITTER_MAXIMUM * scale
    eye = np.eye(matrix.shape[0])
    while jitter <= limit:
        chol, info = dpotrf(matrix + jitter * eye, lower=1, clean=1)
        if not info:
            return chol, jitter
        jitter *= JITTER_GROWTH
    raise NumericalError(
        f"matrix not positive definite within jitter budget ({JITTER_MAXIMUM:g} x scale)"
    )


def assemble_blocks(index: CovarianceIndex, varrho2s, nus, rhos) -> np.ndarray:
    """The component blocks of ``P W P^T``, packed as ``index`` lays them out.

    The Matern covariance is evaluated once over every locus pair of every
    strand (per-pair smoothness) and scattered by index; the result is
    bit-identical to the dense congruence when no unit has two loci on one
    strand.  Arguments are per-strand arrays in the design's strand order.

    Raises:
        NumericalError: the Matern evaluation left its numerical domain.
    """
    pairs = _pair_covariances(index, slice(None), varrho2s, nus, rhos)
    weights = np.concatenate((varrho2s[index.locus_strand], pairs, pairs))
    return np.bincount(index.targets, weights, minlength=index.packed_size)


def _pair_covariances(index: CovarianceIndex, which, varrho2s, nus, rhos) -> np.ndarray:
    """Matern covariance of the locus pairs ``which`` selects, each with its
    strand's hyperparameters."""
    _, gammaln, kv = _scipy()
    s = index.pair_strand[which]
    lead = (1.0 - nus) * _LOG2 - gammaln(nus)
    x = np.sqrt(2.0 * nus)[s] * (index.pair_dist[which] / rhos[s])
    return varrho2s[s] * _matern_at(x, nus[s], lead[s], kv)


def factor_blocks(index: CovarianceIndex, packed: np.ndarray) -> list:
    """Lower Cholesky factor and jitter of every component block.

    Jitter escalates per component against the largest unit variance over
    all components (see the ``JITTER_*`` constants) and is added to the
    block's diagonal in ``packed``, so each factor is that of its packed
    block.

    Raises:
        NumericalError: some block is not positive definite within budget.
    """
    dpotrf = _scipy()[0]
    scale = float(packed[index.unit_diag].max())
    out = []
    for _, size, offset in index.spans:
        block = packed[offset:offset + size * size].reshape(size, size)
        chol, jitter = _factor_with_jitter(block, scale, dpotrf)
        if jitter:
            block[np.diag_indices(size)] += jitter
        out.append((chol, jitter))
    return out


def unit_variances(index: CovarianceIndex, varrho2s, nus, rhos) -> np.ndarray:
    """The diagonal of ``P W P^T``: each unit's locus variances plus twice the
    Matern covariance of each pair of its loci on one strand.  Only those
    pairs are evaluated, and the sums are those of ``assemble_blocks``, so
    the result equals the diagonal of its blocks bit for bit.

    Raises:
        NumericalError: the Matern evaluation left its numerical domain.
    """
    units, weights = index.locus_unit, varrho2s[index.locus_strand]
    same = index.same_unit_pairs
    if same.size:
        pairs = _pair_covariances(index, same, varrho2s, nus, rhos)
        owner = index.pair_units[same, 0]
        units = np.concatenate((units, owner, owner))
        weights = np.concatenate((weights, pairs, pairs))
    return np.bincount(units, weights, minlength=index.n_units)


def hyper_arrays(hypers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-strand (varrho2, nu, rho) arrays from StrandHyperParams."""
    return (np.array([h.varrho2 for h in hypers]), np.array([h.nu for h in hypers]),
            np.array([h.rho for h in hypers]))


def _packed_units(index: CovarianceIndex) -> tuple[np.ndarray, np.ndarray]:
    """Row and column unit of every entry of the packed blocks."""
    rows = np.concatenate([np.repeat(units, units.size) for units in index.components])
    cols = np.concatenate([np.tile(units, units.size) for units in index.components])
    return rows, cols


@dataclass(frozen=True)
class PriorCovariance:
    """The induced unit-effect covariance P W P^T, certified positive definite
    component by component: the blocks packed as ``index`` lays them out (any
    jitter on their diagonals), each block's lower Cholesky factor, and the
    largest jitter used.  The dense m x m ``psi_cov`` is built when read."""

    index: CovarianceIndex
    packed: np.ndarray
    factors: tuple
    jitter_used: float

    @cached_property
    def psi_cov(self) -> np.ndarray:
        dense = np.zeros((self.index.n_units,) * 2)
        dense[_packed_units(self.index)] = self.packed
        return dense


def prior_cov_psi(design: DesignMatrix, hypers) -> PriorCovariance:
    """The prior covariance of the effects, certified positive definite.

    ``hypers`` supplies one StrandHyperParams per strand, in the design's
    strand order.  The covariance is assembled through the design's
    ``covariance_index`` and certified by factoring each component block;
    a block that needs jitter carries it on its diagonal.

    Raises:
        NumericalError: PD not attainable within the jitter budget.
    """
    index = design.covariance_index
    if len(hypers) != index.n_strands:
        raise ValueError(f"expected {index.n_strands} strand hyperparameters, got {len(hypers)}")
    packed = assemble_blocks(index, *hyper_arrays(hypers))
    factors, jitters = zip(*factor_blocks(index, packed))
    return PriorCovariance(index, packed, factors, max(jitters))


def sample_psi_prior(prior_cov: PriorCovariance, n_draws: int, rng) -> np.ndarray:
    """Draw ``n_draws`` effect vectors from N(0, psi_cov), rows are draws: one
    ``standard_normal((n_draws, m))`` call mapped through the component factors."""
    index = prior_cov.index
    out = rng.standard_normal((n_draws, index.n_units))
    for units, chol in zip(index.components, prior_cov.factors):
        out[:, units] = out[:, units] @ chol.T
    return out


def prior_monte_carlo(draw_hypers, n_draws: int, seed, start, add,
                      max_skip_fraction: float = 0.01) -> tuple[list, int]:
    """Fold ``n_draws`` hyperparameter draws into one ``start()`` accumulator
    per chunk of 256 draws by ``add(acc, varrho2s, nus, rhos)``, where the
    per-strand arrays are ``draw_hypers(rng)`` of the i-th child stream of
    ``seed`` for draw i; chunks run on ``worker_count()`` threads.  A draw
    whose ``add`` raises NumericalError (a Matern evaluation out of its
    numerical domain; ``add`` must not have touched ``acc``) is skipped, and
    more than ``max_skip_fraction`` of them raises NumericalError.  Returns
    (accumulators in order, draws used).
    """
    from concurrent.futures import ThreadPoolExecutor

    rngs = spawn_rngs(seed, n_draws)
    chunk = 256  # fixed, so that results do not depend on the worker count

    def run_chunk(first):
        acc, failed = start(), 0
        for rng in rngs[first:first + chunk]:
            try:
                add(acc, *draw_hypers(rng))
            except NumericalError:
                failed += 1
        return acc, failed

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(run_chunk, range(0, n_draws, chunk)))
    failed = sum(bad for _, bad in results)
    if failed > max_skip_fraction * n_draws:
        raise NumericalError(f"{failed}/{n_draws} prior draws failed: the Matern evaluation "
                             f"left its numerical domain (> {max_skip_fraction:.0%})")
    return [acc for acc, _ in results], n_draws - failed


def estimate_prior_correlation(design: DesignMatrix, draw_hypers, n_mc: int, seed,
                               max_skip_fraction: float = 0.01) -> np.ndarray:
    """Monte Carlo estimate of the prior correlation matrix of the effects.

    For each of ``n_mc`` draws (at least 1000, through ``prior_monte_carlo``)
    the per-strand hyperparameter arrays come from ``draw_hypers(rng)``, the
    induced covariance P W P^T is assembled (never factored) and converted
    to a correlation matrix, clipped to [-1, 1], and the entrywise average
    over draws is returned (correlations, not covariances, are averaged: the
    group-formation threshold works on the correlation scale and the draws
    have heterogeneous variances).  The average is kept on the packed blocks
    and scattered once into the m x m result: unit diagonal, entries in
    [-1, 1].
    """
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000 for a stable percentile threshold")
    index = design.covariance_index
    rows, cols = _packed_units(index)

    def add(acc, varrho2s, nus, rhos):
        packed = assemble_blocks(index, varrho2s, nus, rhos)
        sd = np.sqrt(packed[index.unit_diag])
        corr = packed / (sd[rows] * sd[cols])
        corr[index.unit_diag] = 1.0
        acc += np.clip(corr, -1.0, 1.0)

    chunks, used = prior_monte_carlo(draw_hypers, n_mc, seed, lambda: np.zeros(index.packed_size),
                                     add, max_skip_fraction)
    corr = np.zeros((index.n_units,) * 2)
    corr[rows, cols] = sum(chunks) / used
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)

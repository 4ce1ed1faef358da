"""Reference code that the tests compare the program against.

Plain formulas, written for clarity rather than speed: the Matern
covariance at a distance, the hyperprior log densities with every constant
kept, the group-coupled posterior probabilities w_i(d) recounted from the
draws, and the log posterior of a ``ModelState`` read through the sampling
target the pipeline builds.
"""

import math

import numpy as np
from scipy.special import gammaln

from strandgp import make_posterior_model
from strandgp.kernels import matern_correlation

LOG2PI = math.log(2.0 * math.pi)


def matern_cov(d, h):
    """Matern covariance of one strand's hyperparameters ``h`` at distance(s)
    ``d`` (scalar in, scalar out): ``varrho2`` at zero, decaying with
    distance at a rate set by ``rho``."""
    d = np.asarray(d, dtype=float)
    value = h.varrho2 * matern_correlation(d / h.rho, h.nu)
    return float(value) if d.ndim == 0 else value


def log_posterior(state, z, design, priors):
    """Log posterior of ``state`` (error covariance integrated out, up to a
    constant fixed per dataset): the pipeline's target less its Jacobian."""
    x = state.to_vector()
    return make_posterior_model(z, design, priors).log_target(x) - x[design.n_mirnas:].sum()


# -- hyperprior log densities ------------------------------------------------

def log_invgamma_pdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    return shape * math.log(scale) - gammaln(shape) - (shape + 1.0) * np.log(x) - scale / x


def log_lognormal_pdf(x, mu, sigma):
    x = np.asarray(x, dtype=float)
    logx = np.log(x)
    return -logx - np.log(sigma) - 0.5 * LOG2PI - (logx - mu) ** 2 / (2.0 * np.asarray(sigma) ** 2)


def log_density_varrho2(priors, varrho2):
    """On ``varrho_prior_on == "varrho"`` the inverse gamma is on the square
    root, so the density in varrho2 carries the Jacobian 1 / (2 varrho)."""
    a, b = priors.varrho2_prior
    varrho2 = np.asarray(varrho2, dtype=float)
    if priors.varrho_prior_on == "varrho":
        varrho = np.sqrt(varrho2)
        return log_invgamma_pdf(varrho, a, b) - np.log(2.0 * varrho)
    return log_invgamma_pdf(varrho2, a, b)


def log_density_nu(priors, nu):
    mu, sigma = priors.nu_prior
    return log_lognormal_pdf(nu, mu, sigma)


def log_density_rho(priors, rho):
    mus = np.array([p[0] for p in priors.rho_priors])
    sigmas = np.array([p[1] for p in priors.rho_priors])
    return log_lognormal_pdf(rho, mus, sigmas)


def log_density_delta2(priors, delta2):
    a, b = priors.delta2_prior
    return log_invgamma_pdf(delta2, a, b)


def log_density_hypers(priors, varrho2s, nus, rhos):
    return float(np.sum(log_density_varrho2(priors, varrho2s))
                 + np.sum(log_density_nu(priors, nus))
                 + np.sum(log_density_rho(priors, rhos)))


# -- decisions -----------------------------------------------------------------

def compute_w(d, indicators, groups):
    """Group-coupled posterior probabilities w_i(d): the fraction of draws
    where unit i is deregulated and, for every other member j of its group,
    the draw's indicator equals d_j.  Singleton groups give the marginal
    probability."""
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

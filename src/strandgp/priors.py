"""Hyperprior construction, the model state, and the marginalized log posterior.

The error covariance of the differential observations carries an
inverse-Wishart prior with identity-proportional scale ``delta2 * I`` and is
integrated out analytically, leaving a posterior over the effect vector psi,
the per-strand Matern hyperparameters, and delta2:

    -0.5 psi' (PWP')^{-1} psi - 0.5 log|PWP'|
    - m n log(delta) - ((ups + n)/2) log|I_n + (Z - M)(Z - M)' / delta2|
    + sum of hyperprior log densities,   M having every row equal to psi'.

Hyperpriors are specified by (mode, variance) pairs and solved for their
natural parameters by one-dimensional root finding; delta2's inverse-gamma
parameters come from moment matching on the per-unit sample variances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .errors import ConfigError, DataError, NumericalError
from .kernels import (
    StrandHyperParams,
    assemble_blocks,
    factor_blocks,
    hyper_arrays,
    lapack,
    prior_monte_carlo,
    unit_variance_draws,
    unit_variances,
)
from .tmcmc import TargetModel

ROUND_TRIP_RTOL = 1e-8
LOG2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# (mode, variance) -> natural parameter solvers
# ---------------------------------------------------------------------------

def _bisect(gap, lo: float, hi: float) -> float:
    """Root of ``gap`` in [lo, hi], where it changes sign, to float resolution.

    Halves the bracket until its midpoint is one of its ends.
    """
    lo_negative = gap(lo) < 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        value = gap(mid)
        if value == 0:
            return mid
        if (value < 0) == lo_negative:
            lo = mid
        else:
            hi = mid


def _unsolvable_as_value_error(solver):
    """Raise every failure to solve a (mode, variance) pair, overflow and
    underflow to zero included, as ``ValueError``."""
    @functools.wraps(solver)
    def solve(mode: float, variance: float) -> tuple[float, float]:
        if mode <= 0 or variance <= 0:
            raise ValueError("mode and variance must be positive")
        try:
            return solver(mode, variance)
        except ArithmeticError as exc:
            raise ValueError(f"{solver.__name__} cannot solve mode={mode}, "
                             f"variance={variance} in floating point ({exc})") from None
    return solve


@_unsolvable_as_value_error
def solve_ig(mode: float, variance: float) -> tuple[float, float]:
    """Inverse-gamma (shape, scale) with the given mode and variance.

    Solves shape a > 2 from variance/mode^2 = (a+1)^2 / ((a-1)^2 (a-2)),
    then scale b = mode (a + 1).  The forward formulas are re-evaluated and
    must round-trip within 1e-8 relative error.
    """
    ratio = variance / mode**2

    # Root search in u = log(shape - 2): keeps relative precision when huge
    # variances push the shape arbitrarily close to 2.
    def gap(u):
        t = math.exp(u)
        a = 2.0 + t
        return (a + 1.0) ** 2 / ((a - 1.0) ** 2 * t) - ratio

    hi = 1.0
    while gap(hi) > 0:
        hi += 1.0
        if hi > 700.0:
            raise ValueError("no inverse-gamma solution with shape > 2")
    shape = 2.0 + math.exp(_bisect(gap, -700.0, hi))
    scale = mode * (shape + 1.0)
    mode_back = scale / (shape + 1.0)
    var_back = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    # The variance is exact only up to the representability of shape - 2.
    var_tol = max(ROUND_TRIP_RTOL, 8.0 * np.finfo(float).eps / (shape - 2.0))
    if abs(mode_back - mode) > ROUND_TRIP_RTOL * mode or abs(var_back - variance) > var_tol * variance:
        raise ValueError(f"inverse-gamma solver failed round trip for mode={mode}, variance={variance}")
    return shape, scale


@_unsolvable_as_value_error
def solve_lognormal(mode: float, variance: float) -> tuple[float, float]:
    """Lognormal (location mu, scale sigma) with the given mode and variance.

    With t = sigma^2, the mode constraint gives mu = log(mode) + t and the
    variance becomes mode^2 (e^t - 1) e^{3t}; t is found by root search and
    the pair is forward-checked to 1e-8 relative error.
    """
    ratio = variance / mode**2

    def gap(t):
        return np.expm1(t) * np.exp(3.0 * t) - ratio

    # Past t of about 236 the product overflows to inf, which still brackets
    # the root: no warning.
    with np.errstate(over="ignore"):
        hi = 1.0
        while gap(hi) < 0:
            hi *= 2.0
            if hi > 1e6:
                raise ValueError("no lognormal scale solution")
        t = _bisect(gap, 1e-300, hi)
    mu = math.log(mode) + t
    sigma = math.sqrt(t)
    mode_back = math.exp(mu - t)
    var_back = np.expm1(t) * math.exp(2.0 * mu + t)
    if abs(mode_back - mode) > ROUND_TRIP_RTOL * mode or abs(var_back - variance) > ROUND_TRIP_RTOL * variance:
        raise ValueError(f"lognormal solver failed round trip for mode={mode}, variance={variance}")
    return mu, sigma


def empirical_bayes_delta2(z: np.ndarray) -> tuple[float, float]:
    """Inverse-gamma parameters for delta2 by moment matching on column variances.

    The mean and variance of the per-unit sample variances {s_i^2} are
    matched to the inverse-gamma mean and variance, giving
    shape = 2 + mean^2/var and scale = mean (shape - 1).  When the variance
    match is infeasible (all s_i^2 equal), falls back to (3, 2 mean), whose
    prior mean equals the observed mean.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2:
        raise DataError("need at least two rows to form sample variances")
    s2 = z.var(axis=0, ddof=1)
    mean = float(s2.mean())
    if mean <= 0:
        raise DataError("all-constant data: column variances are zero")
    var = float(s2.var(ddof=1)) if s2.size > 1 else 0.0
    if var <= 0:
        return 3.0, 2.0 * mean
    shape = 2.0 + mean**2 / var
    scale = mean * (shape - 1.0)
    return shape, scale


# ---------------------------------------------------------------------------
# Hyperprior specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperPriorSpec:
    """All hyperprior parameters plus the two documented reading switches.

    Attributes:
        varrho2_prior: inverse-gamma (shape, scale); applies to the process
            variance itself, or to its square root when
            ``varrho_prior_on == "varrho"``.
        nu_prior: lognormal (mu, sigma), shared by all strands.
        rho_priors: per-strand lognormal (mu, sigma).
        delta2_prior: inverse-gamma (shape, scale) from empirical Bayes.
        dof: inverse-Wishart degrees of freedom (number of units + 3).
        varrho_prior_on: "varrho2" (default) or "varrho".
        rho_prior_variance_scale: "natural" solves (mode, variance) on the
            correlation-length scale; "log" reads the variance as the
            variance of log rho around log(mode).
    """

    varrho2_prior: tuple[float, float]
    nu_prior: tuple[float, float]
    rho_priors: tuple[tuple[float, float], ...]
    delta2_prior: tuple[float, float]
    dof: int
    varrho_prior_on: str = "varrho2"
    rho_prior_variance_scale: str = "natural"

    @classmethod
    def from_data(cls, design: DesignMatrix, z: np.ndarray,
                  varrho2_mode: float = 1.0, varrho2_variance: float = 100.0,
                  nu_mode: float = 1.0, nu_variance: float = 100.0,
                  rho_variance: float = 1000.0,
                  varrho_prior_on: str = "varrho2",
                  rho_prior_variance_scale: str = "natural") -> "HyperPriorSpec":
        """Standard construction: vague modes at 1, strand-length modes for rho,
        delta2 from the data, degrees of freedom m + 3.  A (mode, variance)
        pair with no prior raises ``ConfigError`` naming its ``[priors]`` keys."""
        if varrho_prior_on not in ("varrho2", "varrho"):
            raise ValueError(f"varrho_prior_on must be 'varrho2' or 'varrho', got {varrho_prior_on!r}")
        if rho_prior_variance_scale not in ("natural", "log"):
            raise ValueError("rho_prior_variance_scale must be 'natural' or 'log'")

        def solved(solver, keys, mode, variance):
            try:
                return solver(mode, variance)
            except ValueError as exc:
                raise ConfigError(f"no prior for {keys}: {exc}") from None

        rho_priors = []
        for strand in design.annotation.strands:
            if rho_prior_variance_scale == "natural":
                rho_priors.append(solved(solve_lognormal, f"priors.rho_variance on strand {strand.strand_id}",
                                         strand.length, rho_variance))
            else:
                rho_priors.append((math.log(strand.length), math.sqrt(rho_variance)))
        return cls(
            varrho2_prior=solved(solve_ig, "priors.varrho2_mode and priors.varrho2_variance",
                                 varrho2_mode, varrho2_variance),
            nu_prior=solved(solve_lognormal, "priors.nu_mode and priors.nu_variance", nu_mode, nu_variance),
            rho_priors=tuple(rho_priors),
            delta2_prior=empirical_bayes_delta2(z),
            dof=z.shape[1] + 3,
            varrho_prior_on=varrho_prior_on,
            rho_prior_variance_scale=rho_prior_variance_scale,
        )

    @property
    def n_strands(self) -> int:
        return len(self.rho_priors)

    # -- draws -------------------------------------------------------------

    def draw_hyper_arrays(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One draw of the per-strand (varrho2, nu, rho) arrays."""
        k = self.n_strands
        a, b = self.varrho2_prior
        base = 1.0 / rng.gamma(a, 1.0 / b, size=k)  # inverse-gamma draws
        varrho2 = base**2 if self.varrho_prior_on == "varrho" else base
        mu, sigma = self.nu_prior
        nus = np.exp(mu + sigma * rng.standard_normal(k))
        rho_mus, rho_sigmas = np.array(self.rho_priors, dtype=float).reshape(k, 2).T
        rhos = np.fromiter(map(math.exp, (rho_mus + rho_sigmas * rng.standard_normal(k)).tolist()),
                           float, k)
        return varrho2, nus, rhos

    # -- moments and initial values ----------------------------------------

    def modal_hypers(self) -> list[StrandHyperParams]:
        """Prior-modal hyperparameters (median for 'log'-scale rho, whose
        lognormal mode is numerically degenerate)."""
        a, b = self.varrho2_prior
        base_mode = b / (a + 1.0)
        varrho2 = base_mode**2 if self.varrho_prior_on == "varrho" else base_mode
        mu, sigma = self.nu_prior
        nu = math.exp(mu - sigma**2)
        out = []
        for m_, s_ in self.rho_priors:
            rho = math.exp(m_) if self.rho_prior_variance_scale == "log" else math.exp(m_ - s_**2)
            out.append(StrandHyperParams(varrho2, nu, rho))
        return out

    def mean_delta2(self) -> float:
        a, b = self.delta2_prior
        if a <= 1.0:
            raise NumericalError("delta2 prior mean undefined (shape <= 1)")
        return b / (a - 1.0)

    def log_scale_sds(self) -> dict:
        """Prior standard deviations of the log-scale parameters (proposal scales)."""
        a, _ = self.varrho2_prior
        sd_log_ig = math.sqrt(_trigamma(a))
        sd_varrho2 = 2.0 * sd_log_ig if self.varrho_prior_on == "varrho" else sd_log_ig
        ad, _ = self.delta2_prior
        return {
            "log_varrho2": sd_varrho2,
            "log_nu": self.nu_prior[1],
            "log_rho": np.array([s_ for _, s_ in self.rho_priors]),
            "log_delta2": math.sqrt(_trigamma(ad)),
        }

    def to_dict(self) -> dict:
        return {
            "varrho2_prior": list(self.varrho2_prior),
            "nu_prior": list(self.nu_prior),
            "rho_priors": [list(p) for p in self.rho_priors],
            "delta2_prior": list(self.delta2_prior),
            "dof": self.dof,
            "varrho_prior_on": self.varrho_prior_on,
            "rho_prior_variance_scale": self.rho_prior_variance_scale,
        }

# Cephes' Euler-Maclaurin coefficients (2k)! / B_2k for the Hurwitz zeta.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _trigamma(q: float) -> float:
    """The trigamma function psi_1(q) = zeta(2, q) for q > 0: Cephes' Hurwitz
    zeta (direct sum up to q + 9, then Euler-Maclaurin), step for step, so
    the result has the bits of ``scipy.special.polygamma(1, q)``."""
    if q > 1e8:
        return (1.0 + 1.0 / (2.0 * q)) * q ** -1.0
    s, a, b, i = q ** -2.0, q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -2.0
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= 2.0 + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= 2.0 + k
        b /= w
        k += 1.0
    return s


# ---------------------------------------------------------------------------
# Model state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelState:
    """One point in the sampled parameter space."""

    psi: np.ndarray
    hypers: tuple[StrandHyperParams, ...]
    delta2: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi must be finite")
        if not (np.isfinite(self.delta2) and self.delta2 > 0):
            raise ValueError("delta2 must be positive and finite")
        object.__setattr__(self, "psi", psi)

    @property
    def n_strands(self) -> int:
        return len(self.hypers)

    def to_vector(self) -> np.ndarray:
        """Unconstrained vector [psi, log varrho2, log nu, log rho, log delta2]."""
        arrs = [self.psi]
        for attr in ("varrho2", "nu", "rho"):
            arrs.append(np.log([getattr(h, attr) for h in self.hypers]))
        arrs.append(np.array([math.log(self.delta2)]))
        return np.concatenate(arrs)


def vector_names(mirna_names, strand_ids) -> list[str]:
    names = [f"psi:{name}" for name in mirna_names]
    for prefix in ("log_varrho2", "log_nu", "log_rho"):
        names.extend(f"{prefix}:{sid}" for sid in strand_ids)
    names.append("log_delta2")
    return names


def parameter_blocks(m: int, k: int) -> list[np.ndarray]:
    """Adaptation blocks: effects, strand hyperparameters, noise scale."""
    return [
        np.arange(m),
        np.arange(m, m + 3 * k),
        np.array([m + 3 * k]),
    ]


# ---------------------------------------------------------------------------
# Log posterior
# ---------------------------------------------------------------------------

class _PosteriorTarget:
    """The marginalized log posterior of one dataset under one design.

    The design's covariance index, the data products and the hyperprior
    constants are fixed at construction, and so are the LAPACK routines it
    calls; every call allocates its own work arrays, so concurrent calls are
    safe.  Called on an unconstrained vector [psi, log varrho2 (k), log nu
    (k), log rho (k), log delta2] it returns the log target including the
    log Jacobian of the exponential map (the sum of the vector's tail), or
    -inf where the posterior is undefined or its covariance fails PD
    certification.
    """

    def __init__(self, z: np.ndarray, design: DesignMatrix, priors: HyperPriorSpec,
                 include_likelihood: bool):
        routines = lapack()
        self.dpotrf, self.dtrtrs = routines.dpotrf, routines.dtrtrs
        self.z = np.asarray(z, dtype=float)
        self.n, self.m = self.z.shape
        if self.m != design.n_mirnas:
            raise DataError(f"z has {self.m} columns but design has {design.n_mirnas} units")
        k = self.k = design.n_strands
        if priors.n_strands != k:
            raise DataError(f"priors cover {priors.n_strands} strands, design has {k}")
        self.index = design.covariance_index
        self.include_likelihood = include_likelihood
        self.zzt = self.z @ self.z.T
        self.eye = np.eye(self.n)
        self.dof = priors.dof

        # Hyperprior log densities (and the likelihood's delta2 power) as
        # functions of the natural values and their logs: the log terms are
        # one dot product, every constant is folded into ``const``.
        a, b = priors.varrho2_prior
        ad, bd = priors.delta2_prior
        mu_nu, s_nu = priors.nu_prior
        sigmas = np.array([s_nu] * k + [s_ for _, s_ in priors.rho_priors])
        self.root_varrho = priors.varrho_prior_on == "varrho"
        # On varrho = sqrt(varrho2): IG(varrho) / (2 varrho) in varrho2.
        varrho2_power = 0.5 * (a + 2.0) if self.root_varrho else a + 1.0
        delta2_power = ad + 1.0 + (0.5 * self.m * self.n if include_likelihood else 0.0)
        self.log_coefs = -np.concatenate([np.full(k, varrho2_power), np.ones(2 * k), [delta2_power]])
        self.varrho2_scale, self.delta2_scale = b, bd
        self.log_mus = np.array([mu_nu] * k + [mu for mu, _ in priors.rho_priors])
        self.half_precisions = 1.0 / (2.0 * sigmas**2)
        self.const = (k * (a * math.log(b) - math.lgamma(a)
                           - (math.log(2.0) if self.root_varrho else 0.0))
                      + ad * math.log(bd) - math.lgamma(ad)
                      - float(np.sum(np.log(sigmas))) - k * LOG2PI)

    def __call__(self, x: np.ndarray) -> float:
        m = self.m
        if x.shape != (m + 3 * self.k + 1,):
            raise ValueError(f"expected vector of length {m + 3 * self.k + 1}, got {x.shape}")
        tail = x[m:]
        with np.errstate(over="ignore", divide="ignore"):
            nat = np.exp(tail)
            lognat = np.log(nat)
        try:
            lp = self.evaluate(x[:m], nat, lognat)
        except NumericalError:
            return -math.inf
        out = lp + float(tail.sum())
        return out if math.isfinite(out) else -math.inf

    def evaluate(self, psi, nat, lognat) -> float:
        """Log posterior (no Jacobian) at effects ``psi`` and the natural
        values ``nat`` = [varrho2 (k), nu (k), rho (k), delta2], with
        ``lognat = np.log(nat)``.

        Raises:
            NumericalError: a hyperparameter is zero, negative or not
                finite, or a covariance fails PD certification.
        """
        if not math.isfinite(lognat.sum()):
            raise NumericalError("hyperparameters left their numerical domain")
        k, index = self.k, self.index
        varrho2s, nus, rhos, delta2 = nat[:k], nat[k:2 * k], nat[2 * k:3 * k], nat[-1]

        packed = assemble_blocks(index, varrho2s, nus, rhos)
        dtrtrs = self.dtrtrs
        y = psi[index.unit_order]
        diag = np.empty(self.m)
        for (start, size, _), (chol, _) in zip(index.spans, factor_blocks(index, packed)):
            seg = slice(start, start + size)
            y[seg] = dtrtrs(chol, y[seg], lower=1)[0]
            diag[seg] = chol.diagonal()
        dev = lognat[k:3 * k] - self.log_mus
        lp = (self.const - 0.5 * float(y @ y) - np.log(diag).sum() + lognat @ self.log_coefs
              - self.varrho2_scale * (1.0 / (np.sqrt(varrho2s) if self.root_varrho else varrho2s)).sum()
              - dev * dev @ self.half_precisions - self.delta2_scale / delta2)

        if self.include_likelihood:
            u = self.z @ psi
            gram = self.zzt - u[:, None] - u[None, :] + psi @ psi
            bchol, info = self.dpotrf(self.eye + gram / delta2, lower=1, clean=0)
            if info:
                raise NumericalError("likelihood Gram matrix lost positive definiteness")
            lp -= (self.dof + self.n) * np.log(bchol.diagonal()).sum()
        return float(lp)


def make_posterior_model(z: np.ndarray, design: DesignMatrix, priors: HyperPriorSpec,
                         include_likelihood: bool = True) -> TargetModel:
    """Bundle the posterior into an unconstrained sampling target.

    The target vector is [psi, log varrho2 (k), log nu (k), log rho (k),
    log delta2]; the log Jacobian of the exponential map (the sum of the
    log-scale entries' natural values, i.e. of the vector tail) is added so
    the chain targets the posterior of the natural parameters.

    With ``include_likelihood=False`` the data term is dropped and the chain
    targets the joint prior (used for sampler validation).

    Initial point: psi at the column means of z (zeros without likelihood),
    hyperparameters at their prior modes, delta2 at its prior mean.

    Raises:
        DataError: with the likelihood, z has fewer than two rows, so the
            effects' starting proposal scales (column standard errors) are
            undefined.
    """
    target = _PosteriorTarget(z, design, priors, include_likelihood)
    m, k, zmat = target.m, target.k, target.z
    if include_likelihood and target.n < 2:
        raise DataError(f"z has {target.n} patient row; the effects' starting proposal scales "
                        "need the column standard deviations of at least two")

    modal = priors.modal_hypers()
    psi0 = zmat.mean(axis=0) if include_likelihood else np.zeros(m)
    x0 = ModelState(psi=psi0, hypers=tuple(modal), delta2=priors.mean_delta2()).to_vector()

    sds = priors.log_scale_sds()
    index = target.index
    modal_var = unit_variances(index, *hyper_arrays(modal))
    psi_scale = np.sqrt(np.clip(modal_var, 1e-12, None))
    if include_likelihood:
        # The posterior concentrates near the column means at rate 1/sqrt(n);
        # starting near the posterior width shortens adaptation.
        data_scale = zmat.std(axis=0, ddof=1) / math.sqrt(target.n)
        psi_scale = np.minimum(psi_scale, np.clip(data_scale, 1e-6, None))
    base_scales = np.concatenate([
        psi_scale,
        np.full(k, sds["log_varrho2"]),
        np.full(k, sds["log_nu"]),
        np.atleast_1d(sds["log_rho"]) * np.ones(k),
        [sds["log_delta2"]],
    ])
    base_scales = np.clip(base_scales, 1e-12, None)

    strand_ids = [s.strand_id for s in design.annotation.strands]
    return TargetModel(
        log_target=target,
        x0=x0,
        names=vector_names(design.mirna_names, strand_ids),
        blocks=parameter_blocks(m, k),
        base_scales=base_scales,
        meta={"m": m, "k": k, "n": target.n,
              "mirna_names": list(design.mirna_names),
              "strand_ids": strand_ids,
              "likelihood": include_likelihood},
    )


def prior_exceedance(design: DesignMatrix, priors: HyperPriorSpec, n_draws: int, seed,
                     threshold: float = 1.0) -> tuple[np.ndarray, int]:
    """Prior probability that each unit's effect exceeds ``threshold`` in
    absolute value, and the number of hyperparameter draws it averages.

    Given the hyperparameters h, psi_i ~ N(0, Sigma_ii(h)), so
    P(|psi_i| > t | h) = erfc(t / sqrt(2 Sigma_ii(h))) exactly.  Averaging it
    over hyperparameter draws (draw i on the i-th child stream of ``seed``,
    through ``kernels.prior_monte_carlo``) is the Rao-Blackwellized
    frequency of |psi_i| > t among effects drawn from the full prior
    (Casella & Robert 1996, Biometrika 83).  Nothing is factored, and the
    Matern covariance is evaluated only for pairs of one unit's loci on one
    strand (``kernels.unit_variance_draws``).  Units whose loci lie on the
    same strands in the same order, no two on one strand, have the same
    variance bit for bit in every draw, so erfc runs once per such class.
    """
    index = design.covariance_index
    owners = set(index.pair_units[index.same_unit_pairs, 0].tolist())
    strands = {}
    for unit, strand in zip(index.locus_unit.tolist(), index.locus_strand.tolist()):
        strands.setdefault(unit, []).append(strand)
    classes = {}
    members = np.array([classes.setdefault(unit if unit in owners else tuple(strands[unit]), unit)
                        for unit in range(index.n_units)])
    firsts, inverse = np.unique(members, return_inverse=True)

    def evaluate(varrho2s, nus, rhos):
        variances, ok = unit_variance_draws(index, varrho2s, nus, rhos)
        limits = threshold / np.sqrt(2.0 * variances[:, firsts])
        tails = np.fromiter(map(math.erfc, limits.ravel().tolist()), float, limits.size)
        return tails.reshape(limits.shape)[:, inverse], ok

    total, used = prior_monte_carlo(priors.draw_hyper_arrays, n_draws, seed, evaluate, index.n_units)
    return total / used, used


def psi_draws(draws: np.ndarray, m: int) -> np.ndarray:
    """Effect columns of a draw matrix."""
    return np.asarray(draws)[:, :m]


def delta2_draws(draws: np.ndarray) -> np.ndarray:
    return np.exp(np.asarray(draws)[:, -1])

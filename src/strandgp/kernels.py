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
    package loads no scipy module.  ``factor_blocks`` calls dpotrf once per
    block; gammaln and kv serve only the pairs that the Matern series leaves
    to the Bessel function (see ``_pair_correlations``), so an evaluation
    whose scaled distances all lie in the series' range calls neither."""
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

# The Matern correlation at scaled distance x = sqrt(2 nu) d / rho is
# 2^(1-nu) x^nu K_nu(x) / Gamma(nu).  Pairs with SERIES_X_MIN <= x <=
# SERIES_X_MAX take Temme's series for K_mu and K_(mu+1), mu = nu - round(nu)
# (Temme 1975, J. Comput. Phys. 19; Numerical Recipes' ``bessik``), carried
# to order nu by the upward recurrence; the others take scipy's kv.  So do
# all pairs of a strand whose round(nu) exceeds SERIES_MAX_ORDER or whose
# largest x exceeds SERIES_SCALE_MAX (below it every slot of the series
# stays finite).
SERIES_X_MIN = 1e-100
SERIES_X_MAX = 2.0
SERIES_MAX_ORDER = 8
SERIES_SCALE_MAX = 16.0

# The series is a polynomial of SERIES_TERMS terms in u^2 per strand, u a
# pair's distance over its strand's span: 13 terms reach double precision
# for scaled distances up to 2, and 4 more carry the recurrence to order 8.
# Rows of a pair layout hold PAIR_ROW_WIDTH pairs of one strand.  Every
# layout has the same row width, so each row is one product of the same
# shape, whichever pairs it holds.
SERIES_TERMS = 17
PAIR_ROW_WIDTH = 32

# Taylor coefficients of 1/Gamma(1 + z) at 0 (Abramowitz & Stegun 6.1.34);
# these 24 reach double precision for |z| <= 1/2.
_RGAMMA_TAYLOR = np.array([
    1.0, 0.57721566490153286061, -0.65587807152025388108, -0.042002635034095235529,
    0.1665386113822914895, -0.042197734555544336748, -0.0096219715278769735621,
    0.0072189432466630995424, -0.0011651675918590651121, -0.00021524167411495097282,
    0.00012805028238811618615, -0.000020134854780788238656, -1.2504934821426706573e-6,
    1.1330272319816958824e-6, -2.0563384169776071035e-7, 6.1160951044814158179e-9,
    5.0020076444692229301e-9, -1.1812745704870201446e-9, 1.0434267116911005105e-10,
    7.782263439905071254e-12, -3.6968056186422057082e-12, 5.100370287454475979e-13,
    -2.0583260535665067832e-14, -5.3481225394230179824e-15,
])
_MU_DEGREE = 28
_DEGREES = np.arange(_MU_DEGREE, dtype=float)
_TERMS = np.arange(SERIES_TERMS, dtype=float)
_FACTORIALS = np.cumprod(np.maximum(_TERMS, 1.0))
_TWICE_TERMS = 2.0 * _TERMS
_LOG4_TERMS = np.log(4.0) * _TERMS


@dataclass(frozen=True)
class PairLayout:
    """Locus pairs laid out for one batched Matern evaluation.

    The pairs of each strand fill consecutive rows of ``PAIR_ROW_WIDTH``
    slots in their given order; the last row of a strand is padded with
    u = 1.  A pair is evaluated from its own slot only, so its value does
    not depend on which other pairs a layout holds.

    Attributes:
        strand: strand of each pair (nondecreasing).
        u: each pair's distance over its strand's span, in (0, 1].
        u_min: smallest ``u`` (1 for an empty layout).
        slot: flat slot of each pair, row * PAIR_ROW_WIDTH + column.
        row_strand: strand of each row.
        powers: (rows, SERIES_TERMS + 1, PAIR_ROW_WIDTH) slot values
            u^(2j) for j < SERIES_TERMS, then log(u/2).
    """

    strand: np.ndarray
    u: np.ndarray
    u_min: float
    slot: np.ndarray
    row_strand: np.ndarray
    powers: np.ndarray

    @classmethod
    def build(cls, strand: np.ndarray, u: np.ndarray, n_strands: int) -> "PairLayout":
        width = PAIR_ROW_WIDTH
        counts = np.bincount(strand, minlength=n_strands)
        rows_per = -(-counts // width)
        rank = np.arange(strand.size) - (np.cumsum(counts) - counts)[strand]
        slot = (np.cumsum(rows_per) - rows_per)[strand] * width + rank
        slot_u = np.ones((int(rows_per.sum()), width))
        slot_u.reshape(-1)[slot] = u
        u2 = slot_u * slot_u
        powers = np.empty((slot_u.shape[0], SERIES_TERMS + 1, width))
        powers[:, 0] = 1.0
        for j in range(1, SERIES_TERMS):
            np.multiply(powers[:, j - 1], u2, out=powers[:, j])
        np.log(0.5 * slot_u, out=powers[:, SERIES_TERMS])
        layout = cls(strand=strand, u=u, u_min=float(u.min(initial=1.0)), slot=slot,
                     row_strand=np.repeat(np.arange(n_strands), rows_per), powers=powers)
        for value in vars(layout).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return layout


def _layout(index: CovarianceIndex, same_unit: bool) -> PairLayout:
    """The layout of ``index``'s pairs (only its ``same_unit_pairs`` if
    ``same_unit``), built on first use and kept in ``index.derived``."""
    key = ("matern_pair_layout", same_unit)
    layout = index.derived.get(key)
    if layout is None:
        which = index.same_unit_pairs if same_unit else slice(None)
        strand = index.pair_strand[which]
        layout = index.derived.setdefault(key, PairLayout.build(
            strand, index.pair_dist[which] / index.strand_span[strand], index.n_strands))
    return layout


def _series_tables(mu) -> np.ndarray:
    """Temme's series at orders ``mu`` (|mu| <= 1/2) as coefficients of
    s_i u^(2i), i < SERIES_TERMS, where u is a pair's normalized distance,
    c the scale of x = c u and s_i = (c^2/4)^i / i!.  Returns
    (mu.size, SERIES_MAX_ORDER + 1, 2, SERIES_TERMS): for each order n, a
    row A and a row B with

        sum_i s_i u^(2i) (A_i + y B_i) = H_n = x^(mu+n) K_(mu+n)(x) / (2^(mu+n-1) Gamma(mu+n)),
        y = expm1(2 mu log(x/2)) / mu,

    H_n being the correlation at smoothness mu + n; for n = 0 the rows hold
    H_0 / (4 mu (mu + 1)), which the caller multiplies out, so that the
    fitted polynomials keep their relative accuracy as mu -> 0.

    The series sums c_i f_i for K_mu and c_i (p_i - i f_i) for x K_(mu+1) / 2,
    with c_i = (x^2/4)^i / i! and f_i, p_i, q_i from a recurrence that is
    linear in (f_0, p_0, q_0), with coefficients that depend on mu alone:
    p_i = p_0 P_i, P_i = 1 / prod_(l<=i) (l - mu), likewise q_i with l + mu,
    and f_i = a_i (f_0 + p_0 S_i + q_0 R_i), a_i = i! P_i Q_i, S_i and R_i
    cumulative sums.  Times x^mu, f_0, p_0 and q_0 depend on x only through
    y.  From H_1 and H_0 / (4 mu (mu + 1)), the recurrence H_(n+1) = H_n +
    x^2 H_(n-1) / (4 (mu+n) (mu+n-1)) runs on the coefficients (x^2 s_i
    u^(2i) = 4 (i+1) s_(i+1) u^(2i+2)).
    """
    mu = np.asarray(mu, dtype=float)
    terms = _TERMS[1:]
    even = mu[:, None] ** np.arange(0, 24, 2)
    gam1, gam2 = -even @ _RGAMMA_TAYLOR[1::2], even @ _RGAMMA_TAYLOR[0::2]
    rgamma_plus = gam2 - mu * gam1           # 1 / Gamma(1 + mu)
    fact = 1.0 / np.sinc(mu)                 # mu pi / sin(mu pi)
    m1, m2 = fact * gam1, fact * gam2
    m3, m4 = 0.5 / rgamma_plus, 0.5 / (gam2 + mu * gam1)
    pq = np.ones((2, mu.size, SERIES_TERMS))
    pq[..., 1:] = np.cumprod(1.0 / (terms + np.array([-1.0, 1.0])[:, None, None] * mu[:, None]),
                             axis=-1)
    factorial = np.concatenate(([1.0], np.cumprod(terms)))
    a = factorial * pq[0] * pq[1]
    steps = 1.0 / (factorial[1:] * pq[::-1, :, :-1])
    f_sum = np.concatenate((m1[:, None], m3[:, None] * steps[0] + m4[:, None] * steps[1]), axis=1)
    y_sum = np.concatenate((0.5 * (mu * m1 - m2)[:, None], (mu * m4)[:, None] * steps[1]), axis=1)
    f_sum, y_sum = a * f_sum.cumsum(axis=1), a * y_sum.cumsum(axis=1)
    scale0 = (rgamma_plus / (2.0 * (mu + 1.0)))[:, None]
    scale1 = -2.0 * rgamma_plus[:, None] * _TERMS
    prev = np.stack([scale0 * f_sum, scale0 * y_sum], axis=1)    # H_0 / (4 mu (mu + 1))
    cur = np.stack([pq[0] + scale1 * f_sum, scale1 * y_sum], axis=1)  # H_1

    out = np.empty((mu.size, SERIES_MAX_ORDER + 1, 2, SERIES_TERMS))
    out[:, 0] = prev
    out[:, 1] = cur
    for n in range(1, SERIES_MAX_ORDER):
        kappa = 1.0 if n == 1 else 0.25 / ((mu + n) * (mu + n - 1.0))[:, None, None]
        shifted = np.zeros_like(prev)
        shifted[..., 1:] = 4.0 * terms * prev[..., :-1]
        prev, cur = cur, cur + kappa * shifted
        out[:, n + 1] = cur
    return out


@cache
def _series_polynomials() -> np.ndarray:
    """``_series_tables`` over i! (the B rows times 2) as Chebyshev series
    of degree < _MU_DEGREE in 2 mu, shape (_MU_DEGREE, (SERIES_MAX_ORDER +
    1) * 2 * SERIES_TERMS), order by order: interpolated at Chebyshev
    points, within 4e-15 of each entry's largest value.  One product of the
    Chebyshev polynomials at each strand's 2 mu with it replaces some fifty
    small array operations per evaluation.

    The entries that are exact constants are set exactly: for n >= 1,
    H_n = 1 + O(x^2) and its x^(2 mu + 2n) part starts at term n, so A_0 = 1
    and B_i = 0 for i < n.  A pair near distance 0 then gets correlation 1
    to the last bit, as with kv, not 1 - 2e-15."""
    n = np.arange(_MU_DEGREE)
    angles = np.pi * (n + 0.5) / _MU_DEGREE
    values = _series_tables(0.5 * np.cos(angles)) / _FACTORIALS
    values[:, :, 1] *= 2.0  # the B rows are divided by 2 mu, not mu
    coef = (2.0 / _MU_DEGREE) * np.cos(np.outer(n, angles)) @ values.reshape(_MU_DEGREE, -1)
    coef[0] *= 0.5
    rows = coef.reshape(_MU_DEGREE, SERIES_MAX_ORDER + 1, 2, SERIES_TERMS)
    rows[:, 1:, 0, 0] = 0.0
    rows[0, 1:, 0, 0] = 1.0
    for order in range(1, SERIES_MAX_ORDER + 1):
        rows[:, order, 1, :order] = 0.0
    return coef


def _series(layout: PairLayout, nus, order, cs, lowest, highest) -> np.ndarray:
    """Matern correlations of ``layout``'s pairs by the series, for
    per-strand smoothness ``nus``, ``order`` = round(nus) between ``lowest``
    and ``highest``, and scales ``cs``.  One product of per-strand tables
    with the layout's powers gives, per slot, the two sums of
    ``_series_tables`` and 2 mu log(x/2) (from log(u/2))."""
    k, rows = nus.size, layout.row_strand
    mu = nus - order
    # 2 mu, but where mu is 0 or a positive nu below 1e-84, so that
    # y = expm1(2 mu log(x/2)) / mu takes its limit 2 log(x/2) there.
    twice = mu * 2.0
    twice += 2e-100
    log_cs = np.log(cs)
    chebyshev = np.cos(np.multiply.outer(np.arccos(twice), _DEGREES))
    # The tables of every order from lowest to highest, then each strand's.
    width = 2 * SERIES_TERMS
    coef = chebyshev @ _series_polynomials()[:, int(lowest) * width:(int(highest) + 1) * width]
    if lowest != highest:
        coef = coef.reshape(k, -1, width)[np.arange(k), (order - lowest).astype(np.intp)]
    if lowest == 0.0:  # nu <= 1/2
        coef *= np.where(order == 0.0, 4.0 * mu * (mu + 1.0), 1.0)[:, None]
    tables = np.zeros((k, 3, SERIES_TERMS + 1))
    scale = np.exp(np.multiply.outer(log_cs, _TWICE_TERMS) - _LOG4_TERMS)   # (c^2/4)^i
    np.multiply(coef.reshape(k, 2, SERIES_TERMS), scale[:, None, :], out=tables[:, :2, :-1])
    tables[:, 1] /= twice[:, None]
    np.multiply(twice, log_cs, out=tables[:, 2, 0])
    tables[:, 2, -1] = twice
    slots = np.matmul(tables[rows], layout.powers)        # (rows, 3, width)
    corr = np.expm1(slots[:, 2])
    corr *= slots[:, 1]
    corr += slots[:, 0]
    corr = corr.take(layout.slot)
    return np.minimum(corr, 1.0, out=corr)


def _pair_correlations(layout: PairLayout, nus, cs) -> np.ndarray:
    """Matern correlation of every pair of ``layout``, in its pair order, for
    per-strand smoothness ``nus`` and scales ``cs = sqrt(2 nus) * span /
    rho`` (a pair's scaled distance is x = cs[strand] * u).

    Raises:
        NumericalError: a smoothness is not positive and finite, or a scale
            is NaN.
    """
    if not layout.u.size:
        return np.empty(0)
    order = np.rint(nus)
    orders = order.tolist()
    lowest, highest = min(orders), max(orders)
    # A smoothness that is NaN, zero or negative makes its cs NaN or 0,
    # which fails the test.
    smallest = SERIES_X_MIN / layout.u_min
    if highest <= SERIES_MAX_ORDER and all(smallest <= c <= SERIES_X_MAX for c in cs.tolist()):
        return _series(layout, nus, order, cs, lowest, highest)

    if not ((nus > 0.0).all() and (nus < np.inf).all()) or np.isnan(cs).any():
        raise NumericalError(f"Matern evaluation left its numerical domain (nu={np.max(nus)})")
    # The strands of ``whole`` run through the series at nu = 1 and scale 1;
    # their pairs, and those outside the series' range, then take kv.
    whole = (order > SERIES_MAX_ORDER) | (cs > SERIES_SCALE_MAX)
    x = cs[layout.strand] * layout.u
    bessel = whole[layout.strand] | (x > SERIES_X_MAX) | (x < SERIES_X_MIN)
    if bessel.all():
        corr = np.empty(x.size)
    else:
        order = np.where(whole, 1.0, order)
        orders = order.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            corr = _series(layout, np.where(whole, 1.0, nus), order, np.where(whole, 1.0, cs),
                           min(orders), max(orders))
    corr[bessel] = _bessel(x[bessel], nus[layout.strand[bessel]])
    return corr


def _bessel(x, nu) -> np.ndarray:
    """Matern correlation at scaled distances ``x`` and smoothness ``nu``
    (one per distance) by scipy's kv, in log space."""
    _, gammaln, kv = _scipy()
    out = np.ones(x.shape)
    pos = x != 0.0
    xp, nu = x[pos], nu[pos]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bessel = kv(nu, xp)
        val = np.exp((1.0 - nu) * _LOG2 - gammaln(nu) + nu * np.log(xp) + np.log(bessel))
        over = bessel == np.inf
        val[over] = _near_zero(xp[over], nu[over])
    val[bessel == 0.0] = 0.0     # far-tail underflow
    if not np.isfinite(val).all():
        raise NumericalError(f"Matern evaluation left its numerical domain (nu={np.max(nu)})")
    out[pos] = np.minimum(val, 1.0)
    return out


def _near_zero(x, nu) -> np.ndarray:
    """Matern correlation where K_nu(x) overflows: its expansion at 0, the sum
    of (-x^2/4)^j Gamma(nu - j) / (j! Gamma(nu)) to terms below 1e-17, within
    4e-14 of mpmath up to nu = 500 (the terms cancel beyond).  Overflow at
    nu < 2 needs x < 1e-150, where flooring nu - j at 1 changes nothing.  A
    sum that overflows ends the loop and fails the caller's check."""
    q = -0.25 * x * x
    term, total = np.ones(x.shape), np.ones(x.shape)
    j = 0
    while (np.abs(term) >= 1e-17).any() and np.isfinite(total).all():
        j += 1
        term *= q / (j * np.maximum(nu - j, 1.0))
        total += term
    return total


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
    pairs = _pair_covariances(index, _layout(index, False), varrho2s, nus, rhos)
    weights = np.concatenate((varrho2s[index.locus_strand], pairs, pairs))
    return np.bincount(index.targets, weights, minlength=index.packed_size)


def _pair_covariances(index: CovarianceIndex, layout: PairLayout, varrho2s, nus, rhos) -> np.ndarray:
    """Matern covariance of the locus pairs of ``layout`` (one of ``index``'s),
    each with its strand's hyperparameters."""
    corr = _pair_correlations(layout, nus, np.sqrt(2.0 * nus) * (index.strand_span / rhos))
    return varrho2s[layout.strand] * corr


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
        pairs = _pair_covariances(index, _layout(index, True), varrho2s, nus, rhos)
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

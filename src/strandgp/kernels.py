"""Stationary Matern covariance and the prior covariance of the
differential-effect vector.

Each strand carries its own hyperparameters (process variance, smoothness,
correlation length).  Strands are independent a priori, so the latent-effect
covariance over all loci is block diagonal; the covariance of the m-vector
of unit effects is the congruence ``P W P^T`` with the incidence matrix P.
It is assembled by index from the Matern covariances of the locus pairs
(``data.CovarianceIndex``) into packed component blocks and, where a draw
of effects is needed, factored one component at a time.  The prior Monte
Carlo reads the pair covariances and the unit variances only, for a pass of
hyperparameter draws at a time; it assembles and factors nothing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .data import CovarianceIndex, DesignMatrix
from .errors import NumericalError
from .util import spawn_rngs, worker_count


@cache
def lapack():
    """scipy's compiled LAPACK wrappers (``dpotrf``, ``dtrtrs``, ...), loaded
    on first use.

    The extension module ``scipy.linalg._flapack`` is loaded straight from
    the file a normal import would use, so neither ``scipy/__init__`` nor
    ``scipy/linalg/__init__`` runs: that costs a few milliseconds where
    ``import scipy.linalg.lapack`` costs about a quarter of a second.  The
    routines are the same objects, so results are bit-identical.  Where the
    file cannot be found or loaded, ``scipy.linalg.lapack`` is imported.
    """
    try:
        return _load_flapack()
    except (ImportError, OSError):
        from scipy.linalg import lapack as module

        return module


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy")
    if root is None or not root.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    folder = os.path.join(root.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # As a normal import would, so a later one reuses this module.
            sys.modules[name] = module
            return module
    raise ImportError(f"no {name} extension under {folder}")


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

# The Matern correlation at scaled distance x = sqrt(2 nu) d / rho is
# 2^(1-nu) x^nu K_nu(x) / Gamma(nu).  Pairs with SERIES_X_MIN <= x <=
# SERIES_X_MAX take Temme's series for K_mu and K_(mu+1), mu = nu - round(nu)
# (Temme 1975, J. Comput. Phys. 19; Numerical Recipes' ``bessik``), carried
# to order nu by the upward recurrence; the others take ``_bessel``.  So do
# all pairs of a strand whose round(nu) exceeds SERIES_MAX_ORDER or whose
# largest x exceeds SERIES_SCALE_MAX (below it every slot of the series
# stays finite).
SERIES_X_MIN = 1e-100
SERIES_X_MAX = 2.0
SERIES_MAX_ORDER = 8
SERIES_SCALE_MAX = 16.0

# ``_bessel`` sums the integral of K_nu by the trapezoidal rule over the
# stretch where the integrand is above exp(-_BESSEL_TAIL) of its peak, cut
# into (_BESSEL_NODES - 1) 2^j equal steps, j the least that keeps the step
# below _BESSEL_STEP / sqrt(kappa + 4), kappa the integrand's curvature at
# its peak.  Against mpmath, the largest step that keeps 3e-15 is 0.18-0.33
# / sqrt(kappa) up to kappa = 9 and 0.7 / sqrt(kappa) beyond, which this
# bound stays 15-25% below.  The pairs that the series leaves aside, at the
# x and nu of the prior Monte Carlo, need 30-47 steps, so they take j = 0:
# one array pass.
_BESSEL_STEP = 0.55
_BESSEL_TAIL = 36.0
_BESSEL_NODES = 49
# Stirling's series for log Gamma beyond nu = 100, coefficients of
# nu^(1-2j): the first omitted term is below 3e-17 from nu = 10 on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Arrays of one pass (pairs times nodes, draws times packed entries) hold at
# most about _PASS_ENTRIES numbers, whatever the design: a fixed bound on
# memory that does not change any result.
_PASS_ENTRIES = 1 << 16

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
    to the last bit, as the exact value rounds, not 1 - 2e-15."""
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


def _series(layout: PairLayout, nus, order, cs) -> np.ndarray:
    """Matern correlations of ``layout``'s pairs by the series, one row per
    draw, for per-strand smoothness ``nus``, ``order`` = round(nus) and
    scales ``cs`` (draws x strands).  Per draw, one product of the Chebyshev
    polynomials at each strand's 2 mu with the tables of the draw's orders,
    lowest to highest, gives each strand's coefficients; one product of the
    per-strand tables with the layout's powers then gives, per slot, the
    two sums of ``_series_tables`` and 2 mu log(x/2) (from log(u/2)).  Both
    products have the shapes they have for the draw alone, so a draw's row
    is the same bits in any batch of draws."""
    draws, k = nus.shape
    mu = nus - order
    # 2 mu, but where mu is 0 or a positive nu below 1e-84, so that
    # y = expm1(2 mu log(x/2)) / mu takes its limit 2 log(x/2) there.
    twice = mu * 2.0
    twice += 2e-100
    log_cs = np.log(cs)
    chebyshev = np.cos(np.multiply.outer(np.arccos(twice), _DEGREES))
    # The tables of every order from the draw's lowest to its highest, then
    # each strand's.
    width = 2 * SERIES_TERMS
    if draws == 1:
        orders = order[0].tolist()
        groups = {(min(orders), max(orders))}
    else:
        lowest, highest = order.min(axis=1), order.max(axis=1)
        groups = set(zip(lowest.tolist(), highest.tolist()))
    coef = None if len(groups) == 1 else np.empty((draws, k, width))
    for low, high in groups:
        sel = slice(None) if coef is None else np.flatnonzero((lowest == low) & (highest == high))
        block = chebyshev[sel] @ _series_polynomials()[:, int(low) * width:(int(high) + 1) * width]
        rows = block.shape[0] * k
        if low != high:
            own = (order[sel] - low).astype(np.intp).reshape(rows)
            block = block.reshape(rows, -1, width)[np.arange(rows), own].reshape(-1, k, width)
        if low == 0.0:  # nu <= 1/2
            block *= np.where(order[sel] == 0.0, 4.0 * mu[sel] * (mu[sel] + 1.0), 1.0)[..., None]
        if coef is None:
            coef = block
        else:
            coef[sel] = block
    tables = np.zeros((draws, k, 3, SERIES_TERMS + 1))
    scale = np.exp(np.multiply.outer(log_cs, _TWICE_TERMS) - _LOG4_TERMS)   # (c^2/4)^i
    np.multiply(coef.reshape(draws, k, 2, SERIES_TERMS), scale[..., None, :],
                out=tables[..., :2, :-1])
    tables[..., 1, :] /= twice[..., None]
    np.multiply(twice, log_cs, out=tables[..., 2, 0])
    tables[..., 2, -1] = twice
    slots = np.matmul(tables.take(layout.row_strand, axis=1), layout.powers)   # (draws, rows, 3, width)
    corr = np.expm1(slots[:, :, 2])
    corr *= slots[:, :, 1]
    corr += slots[:, :, 0]
    corr = corr.reshape(draws, -1).take(layout.slot, axis=1)
    return np.minimum(corr, 1.0, out=corr)


def _pair_correlations(layout: PairLayout, nus, cs) -> tuple[np.ndarray, np.ndarray]:
    """Matern correlation of every pair of ``layout``, in its pair order, for
    each draw (row) of per-strand smoothness ``nus`` and scales ``cs =
    sqrt(2 nus) * span / rho`` (draws x strands; a pair's scaled distance
    is x = cs[strand] * u), and whether each draw stayed in the numerical
    domain: smoothness positive and finite, no NaN scale, finite values.
    A draw's row does not depend on the other draws.
    """
    draws = nus.shape[0]
    if not layout.u.size:
        return np.empty((draws, 0)), np.ones(draws, dtype=bool)
    order = np.rint(nus)
    # A smoothness that is NaN, zero or negative makes its cs NaN or 0,
    # which fails the test.
    smallest = SERIES_X_MIN / layout.u_min
    if order.max() <= SERIES_MAX_ORDER and smallest <= cs.min() and cs.max() <= SERIES_X_MAX:
        return _series(layout, nus, order, cs), np.ones(draws, dtype=bool)

    ok = ((nus > 0.0) & np.isfinite(cs)).all(axis=1)
    if not ok.all():  # evaluated at nu = 1, scale 1, and dropped
        nus, cs = np.where(ok[:, None], nus, 1.0), np.where(ok[:, None], cs, 1.0)
        order = np.rint(nus)
    # The strands of ``whole`` run through the series at nu = 1 and scale 1;
    # their pairs, and those outside the series' range, then take _bessel.
    whole = (order > SERIES_MAX_ORDER) | (cs > SERIES_SCALE_MAX)
    x = cs.take(layout.strand, axis=1) * layout.u
    bessel = whole.take(layout.strand, axis=1) | (x > SERIES_X_MAX) | (x < SERIES_X_MIN)
    if bessel.all():
        corr = np.empty(x.shape)
    else:
        series = (nus, order, cs)
        if whole.any():
            series = (np.where(whole, 1.0, values) for values in series)
        with np.errstate(over="ignore", invalid="ignore"):
            corr = _series(layout, *series)
    draw, pair = np.nonzero(bessel)
    strands = layout.strand[pair]
    values = _bessel(x[bessel], nus[draw, strands], _log_gamma_gap(nus)[draw, strands])
    corr[bessel] = values
    finite = np.isfinite(values)
    if not finite.all():
        ok[draw[~finite]] = False
    return corr, ok


def _bessel(x, nu, lead) -> np.ndarray:
    """Matern correlation 2^(1-nu) x^nu K_nu(x) / Gamma(nu) at scaled
    distances ``x`` > 0 and smoothness ``nu`` (one per distance), in log
    space, given ``lead`` = ``_log_gamma_gap(nu)``: NaN or inf where it
    leaves floating point.

    K_nu(x) is half the integral of exp(nu t - x cosh t) over the real line.
    Its peak is at t* = log((nu + kappa) / x), kappa = hypot(nu, x), where
    the exponent has curvature -kappa and falls, w past the peak, by

        phi(w) = -2 g sinh(w/2)^2 - nu (expm1(w) - w),   g = kappa - nu,

    so the correlation is exp(L(nu) + nu log1p(g / (2 nu)) - g) times the
    integral of exp(phi), with L(nu) = nu log nu - nu - log Gamma(nu).  The
    integrand is analytic and falls doubly exponentially on both sides, so
    the trapezoidal rule converges geometrically in the inverse step
    (Trefethen & Weideman 2014, SIAM Rev. 56); see the ``_BESSEL_*``
    constants.  Within 3e-13 of mpmath for x up to 700 and orders up to
    1000, and 6e-14 at nu = 2e4, x = 5000.  Below SERIES_X_MIN the
    correlation comes from ``_tiny_distances``.
    """
    tiny = x < SERIES_X_MIN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if not tiny.any():
            return _trapezoid(x, nu, lead)
        out = np.empty(x.shape)
        out[tiny] = _tiny_distances(x[tiny], nu[tiny])
        out[~tiny] = _trapezoid(x[~tiny], nu[~tiny], lead[~tiny])
        return out


def _trapezoid(x, nu, lead) -> np.ndarray:
    """``_bessel`` at x >= SERIES_X_MIN."""
    kappa = np.hypot(nu, x)
    gap = x * (x / (nu + kappa))                 # kappa - nu, without cancellation
    # phi < -_BESSEL_TAIL below w = -left and beyond w = right, where one
    # of its two terms alone gets there: 2 g sinh(w/2)^2, or nu (expm1(w) -
    # w), whose root lies below reach + min(1, sqrt(2 reach)) for w < 0 and
    # below each iterate of w = log1p(reach + w) from sqrt(2 reach) for
    # w > 0 (reach = _BESSEL_TAIL / nu), or for w > 0 kappa (cosh w - 1).
    reach = _BESSEL_TAIL / nu
    root = np.sqrt(2.0 * reach)
    left = np.minimum(np.arccosh(1.0 + _BESSEL_TAIL / gap), reach + np.minimum(root, 1.0))
    right = np.minimum(np.log1p(reach + np.log1p(reach + root)), np.arccosh(1.0 + _BESSEL_TAIL / kappa))
    span = left + right
    steps = span * np.sqrt(kappa + 4.0)   # the least number of steps, times _BESSEL_STEP
    if steps.max(initial=0.0) > (_BESSEL_NODES - 1) * _BESSEL_STEP:
        steps = np.maximum(np.ceil(np.log2(steps / ((_BESSEL_NODES - 1) * _BESSEL_STEP))), 0.0)
        steps = (_BESSEL_NODES - 1) * 2.0 ** steps
        counts = sorted(set(steps.tolist()))
    else:
        steps, counts = _BESSEL_NODES - 1.0, [_BESSEL_NODES - 1.0]
    step = span / steps
    # Half the nodes w, from -left / 2 in steps of step / 2.
    half, start, scale = 0.5 * step, -0.5 * left, -2.0 * gap
    total = np.empty(x.shape)
    for count in counts:
        which = np.flatnonzero(steps == count) if len(counts) > 1 else None
        size = x.size if which is None else which.size
        nodes = np.arange(count + 1.0)
        per_pass = max(1, _PASS_ENTRIES // nodes.size)
        for first in range(0, size, per_pass):
            sel = slice(first, first + per_pass) if which is None else which[first:first + per_pass]
            w = np.multiply.outer(half[sel], nodes)
            w += start[sel, None]
            phi = np.sinh(w)
            phi *= phi
            phi *= scale[sel, None]
            w += w
            term = np.expm1(w)
            term -= w
            term *= nu[sel, None]
            phi -= term
            total[sel] = np.exp(phi, out=phi).sum(axis=1)
    log_corr = lead - gap
    log_corr += nu * np.log1p(gap / (2.0 * nu))
    log_corr += np.log(step * total)
    return np.minimum(np.exp(log_corr, out=log_corr), 1.0, out=log_corr)


def _log_gamma_gap(nu) -> np.ndarray:
    """nu log nu - nu - log Gamma(nu): by ``math.lgamma`` below nu = 100,
    where the terms that cancel stay below 400, and by Stirling's series
    beyond, where it is log sqrt(nu / 2 pi) less terms below 1/(12 nu)."""
    small = nu < 100.0
    if small.all():
        lgamma = np.fromiter(map(math.lgamma, nu.ravel().tolist()), float, nu.size)
        return nu * np.log(nu) - nu - lgamma.reshape(nu.shape)
    out = np.empty(nu.shape)
    out[small] = _log_gamma_gap(nu[small])
    high = nu[~small]
    inverse_square = 1.0 / (high * high)
    series = np.full(high.shape, _STIRLING[-1])
    for coefficient in _STIRLING[-2::-1]:
        series *= inverse_square
        series += coefficient
    out[~small] = 0.5 * np.log(high) - _HALF_LOG_2PI - series / high
    return out


def _tiny_distances(x, nu) -> np.ndarray:
    """Matern correlation at x < SERIES_X_MIN: 1 - Gamma(1 - nu) (x/2)^(2 nu)
    / Gamma(1 + nu), whose relative error is O(x^2) (Abramowitz & Stegun
    9.6.2 and 9.6.10), for nu < 1; from nu = 1 on the correction is below
    1e-199 and the correlation rounds to 1."""
    out = np.ones(x.shape)
    low = nu < 1.0
    if low.any():
        small = nu[low]
        ratio = np.array([math.lgamma(1.0 - v) - math.lgamma(1.0 + v) for v in small.tolist()])
        out[low] = -np.expm1(ratio + 2.0 * small * np.log(0.5 * x[low]))
    return out


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


def _one_draw(values, ok, nus) -> np.ndarray:
    """The first row of a batch of one draw.

    Raises:
        NumericalError: the draw left the Matern evaluation's numerical domain.
    """
    if not ok[0]:
        raise NumericalError(f"Matern evaluation left its numerical domain (nu={np.max(nus)})")
    return values[0]


def _scatter(targets, weights, size: int) -> np.ndarray:
    """``np.bincount(targets, row, minlength=size)`` of each row of
    ``weights``, as one bincount over the targets offset by size per row:
    every bin adds its terms in the order one row alone would."""
    draws = weights.shape[0]
    if draws > 1:
        targets = np.add.outer(np.arange(0, draws * size, size), targets)
    return np.bincount(targets.ravel(), weights.ravel(), minlength=draws * size).reshape(draws, size)


def assemble_blocks(index: CovarianceIndex, varrho2s, nus, rhos) -> np.ndarray:
    """The component blocks of ``P W P^T``, packed as ``index`` lays them out.

    The Matern covariance is evaluated once over every locus pair of every
    strand (per-pair smoothness) and scattered by index; the result is
    bit-identical to the dense congruence when no unit has two loci on one
    strand.  Arguments are per-strand arrays in the design's strand order.

    Raises:
        NumericalError: the Matern evaluation left its numerical domain.
    """
    pairs = _one_draw(*_pair_covariances(index, _layout(index, False), varrho2s[None], nus[None],
                                         rhos[None]), nus)
    weights = np.concatenate((varrho2s[index.locus_strand], pairs, pairs))
    return np.bincount(index.targets, weights, minlength=index.packed_size)


def _pair_covariances(index: CovarianceIndex, layout: PairLayout, varrho2s, nus, rhos):
    """Matern covariance of the locus pairs of ``layout`` (one of ``index``'s)
    for each draw (row) of per-strand hyperparameters, and which draws
    stayed in the numerical domain."""
    corr, ok = _pair_correlations(layout, nus, np.sqrt(2.0 * nus) * (index.strand_span / rhos))
    return varrho2s.take(layout.strand, axis=1) * corr, ok


def factor_blocks(index: CovarianceIndex, packed: np.ndarray) -> list:
    """Lower Cholesky factor and jitter of every component block.

    Jitter escalates per component against the largest unit variance over
    all components (see the ``JITTER_*`` constants) and is added to the
    block's diagonal in ``packed``, so each factor is that of its packed
    block.

    Raises:
        NumericalError: some block is not positive definite within budget.
    """
    dpotrf = lapack().dpotrf
    scale = float(packed[index.unit_diag].max())
    out = []
    for _, size, offset in index.spans:
        block = packed[offset:offset + size * size].reshape(size, size)
        chol, jitter = _factor_with_jitter(block, scale, dpotrf)
        if jitter:
            block[np.diag_indices(size)] += jitter
        out.append((chol, jitter))
    return out


def _unit_sums(index: CovarianceIndex, varrho2s, same_pairs) -> np.ndarray:
    """Each unit's locus variances plus twice the covariance of each pair of
    its loci on one strand, per draw (row): ``same_pairs`` holds the
    covariances of ``index.same_unit_pairs``.  The sums are those of
    ``assemble_blocks``, so the result equals the diagonal of its blocks bit
    for bit."""
    units, weights = index.locus_unit, varrho2s.take(index.locus_strand, axis=1)
    if same_pairs.shape[1]:
        owner = index.pair_units[index.same_unit_pairs, 0]
        units = np.concatenate((units, owner, owner))
        weights = np.concatenate((weights, same_pairs, same_pairs), axis=1)
    return _scatter(units, weights, index.n_units)


def unit_variance_draws(index: CovarianceIndex, varrho2s, nus, rhos) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of ``P W P^T`` for each draw (row) of per-strand arrays,
    and which draws stayed in the Matern evaluation's numerical domain.
    Only the pairs of one unit's loci on one strand are evaluated."""
    if not index.same_unit_pairs.size:
        return _unit_sums(index, varrho2s, varrho2s[:, :0]), np.ones(varrho2s.shape[0], dtype=bool)
    pairs, ok = _pair_covariances(index, _layout(index, True), varrho2s, nus, rhos)
    return _unit_sums(index, varrho2s, pairs), ok


def unit_variances(index: CovarianceIndex, varrho2s, nus, rhos) -> np.ndarray:
    """``unit_variance_draws`` for one draw of per-strand arrays.

    Raises:
        NumericalError: the Matern evaluation left its numerical domain.
    """
    return _one_draw(*unit_variance_draws(index, varrho2s[None], nus[None], rhos[None]), nus)


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


def prior_monte_carlo(draw_hypers, n_draws: int, seed, evaluate, width: int,
                      max_skip_fraction: float = 0.01) -> tuple[np.ndarray, int]:
    """Sum ``evaluate``'s rows over ``n_draws`` hyperparameter draws, draw i
    taking the per-strand arrays ``draw_hypers(rng)`` of the i-th child
    stream of ``seed``.

    Draws run in chunks of 256 on ``worker_count()`` threads, and each
    chunk in passes of at most ``_PASS_ENTRIES // width`` draws:
    ``evaluate(varrho2s, nus, rhos)`` takes a pass's (draws x strands)
    arrays and returns its (draws x ``width``) rows and which draws stayed
    in the Matern evaluation's numerical domain.  A chunk adds the rows of
    those draws in draw order; a draw that left the domain is skipped, and
    more than ``max_skip_fraction`` of them raises NumericalError.  Both
    sizes are fixed, so results do not depend on the worker count.

    Returns:
        (the chunks' sums added in chunk order, draws used).
    """
    from concurrent.futures import ThreadPoolExecutor

    rngs = spawn_rngs(seed, n_draws)
    chunk = 256
    per_pass = max(1, _PASS_ENTRIES // max(width, 1))

    def run_chunk(first):
        hypers = [np.array(column) for column in zip(*map(draw_hypers, rngs[first:first + chunk]))]
        acc, failed = np.zeros(width), 0
        for start in range(0, hypers[0].shape[0], per_pass):
            rows, ok = evaluate(*(h[start:start + per_pass] for h in hypers))
            for row, used in zip(rows, ok.tolist()):
                if used:
                    acc += row
                else:
                    failed += 1
        return acc, failed

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(run_chunk, range(0, n_draws, chunk)))
    failed = sum(bad for _, bad in results)
    if failed > max_skip_fraction * n_draws:
        raise NumericalError(f"{failed}/{n_draws} prior draws failed: the Matern evaluation "
                             f"left its numerical domain (> {max_skip_fraction:.0%})")
    return sum(acc for acc, _ in results), n_draws - failed


def estimate_prior_correlation(design: DesignMatrix, draw_hypers, n_mc: int, seed,
                               max_skip_fraction: float = 0.01) -> np.ndarray:
    """Monte Carlo estimate of the prior correlation matrix of the effects.

    For each of ``n_mc`` draws (at least 1000, through ``prior_monte_carlo``)
    the per-strand hyperparameter arrays come from ``draw_hypers(rng)``, and
    each locus pair's covariance is divided by the standard deviations of
    its two units (``_unit_sums``; nothing is assembled or factored) and
    clipped to [-1, 1].  These pair correlations are averaged over draws
    (correlations, not covariances: the group-formation threshold works on
    the correlation scale and the draws have heterogeneous variances) and
    scattered once into the m x m result, an entry adding those of its
    pairs: the average of the induced correlation matrices, with unit
    diagonal and entries in [-1, 1].  An entry made by one pair, as most
    are, is the average of that entry clipped per draw bit for bit.
    """
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000 for a stable percentile threshold")
    index = design.covariance_index
    layout = _layout(index, False)
    first, second = index.pair_units.T

    def evaluate(varrho2s, nus, rhos):
        pairs, ok = _pair_covariances(index, layout, varrho2s, nus, rhos)
        sd = np.sqrt(_unit_sums(index, varrho2s, pairs.take(index.same_unit_pairs, axis=1)))
        scale = sd.take(first, axis=1)
        scale *= sd.take(second, axis=1)
        pairs /= scale
        np.maximum(pairs, -1.0, out=pairs)
        return np.minimum(pairs, 1.0, out=pairs), ok

    total, used = prior_monte_carlo(draw_hypers, n_mc, seed, evaluate, first.size, max_skip_fraction)
    m = index.n_units
    mean = total / used
    corr = np.bincount(np.concatenate((first * m + second, second * m + first)),
                       np.concatenate((mean, mean)), minlength=m * m).reshape(m, m)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)

"""Readers and writers of the program's file formats, and output checks
computed apart from the program.

Everything here uses the standard library, numpy and scipy only; nothing is
imported from ``strandgp``.  Each check returns a list of problems (empty
when the output is correct), so a run can report every failed check at once.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import special, stats

SAMPLES_MAGIC = "#strandgp-samples v1"
# Relative agreement of two log-posterior differences (see README).
LOG_POSTERIOR_RTOL = 1e-9
# Absolute agreement of numbers the program writes with repr() and the
# benchmark recomputes in a different summation order.
VALUE_ATOL = 1e-9
# Mode/variance equations of the hyperpriors are solved to 1e-8 by the program.
PRIOR_RTOL = 1e-7
# A single-unit flip may not raise f_beta by more than rounding.
FLIP_ATOL = 1e-12
# A Metropolis sampler accepts a move that lowers the log posterior by more
# than this with probability below e^-40 per proposal.
ACCEPTED_DROP_LIMIT = 40.0


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def read_matrix_csv(path):
    """Wide expression CSV -> (patient ids, unit names, n x m matrix)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    patients = [row[0] for row in rows[1:]]
    values = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    return patients, names, values


def read_z(case_path, control_path):
    """(patients, names, case - control) with control realigned onto case."""
    patients, names, case = read_matrix_csv(case_path)
    c_patients, c_names, control = read_matrix_csv(control_path)
    rows = [c_patients.index(p) for p in patients]
    cols = [c_names.index(n) for n in names]
    return patients, names, case - control[np.ix_(rows, cols)]


def read_strands(annotation_path):
    """Annotation CSV -> sorted list of (strand id, [(unit, coordinate)...])."""
    per_strand = {}
    with open(annotation_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            sign = "-" if row["strand"].strip() in ("-", "−", "–") else "+"
            sid = row["chromosome"].strip() + sign
            per_strand.setdefault(sid, []).append((row["mirna"].strip(), float(row["coordinate"])))
    return [(sid, sorted(per_strand[sid], key=lambda t: t[1])) for sid in sorted(per_strand)]


def read_samples_file(path):
    """samples.bin -> (draw matrix, header metadata)."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode().rstrip("\n")
        meta = json.loads(fh.readline().decode())
        marker = fh.readline().decode().rstrip("\n")
        body = fh.read()
    if magic != SAMPLES_MAGIC or marker != "#data float64":
        raise ValueError(f"{path}: malformed samples header")
    d = len(meta["names"])
    if len(body) % (8 * d):
        raise ValueError(f"{path}: body is not a whole number of rows")
    return np.frombuffer(body, dtype="<f8").reshape(-1, d), meta


def read_dict_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_samples_file(path, names, draws, meta=None):
    """Write a chain in the documented samples.bin layout."""
    header = {"names": list(names), **(meta or {})}
    with open(path, "wb") as fh:
        fh.write((SAMPLES_MAGIC + "\n").encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(b"#data float64\n")
        fh.write(np.ascontiguousarray(draws, dtype="<f8").tobytes())


def column_names(unit_names, strand_ids):
    """Documented samples.bin columns, strand ids in sorted order."""
    names = [f"psi:{u}" for u in unit_names]
    for prefix in ("log_varrho2", "log_nu", "log_rho"):
        names += [f"{prefix}:{sid}" for sid in strand_ids]
    return names + ["log_delta2"]


# ---------------------------------------------------------------------------
# fit: chain shape and the marginalized log posterior
# ---------------------------------------------------------------------------

def check_chain(draws, meta, unit_names, strands, iterations, burn_in, thin):
    problems = []
    expected_rows = (iterations - burn_in) // thin
    if draws.shape[0] != expected_rows:
        problems.append(f"samples: {draws.shape[0]} rows, expected {expected_rows}")
    if meta["names"] != column_names(unit_names, [sid for sid, _ in strands]):
        problems.append("samples: column names differ from the documented layout")
    if not np.all(np.isfinite(draws)):
        problems.append("samples: non-finite values")
    return problems


def _ig_from_mode_variance_ok(shape, scale, mode, variance):
    mode_back = scale / (shape + 1.0)
    var_back = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    return math.isclose(mode_back, mode, rel_tol=PRIOR_RTOL) and \
        math.isclose(var_back, variance, rel_tol=PRIOR_RTOL)


def _lognormal_from_mode_variance_ok(mu, sigma, mode, variance):
    mode_back = math.exp(mu - sigma**2)
    var_back = math.expm1(sigma**2) * math.exp(2.0 * mu + sigma**2)
    return math.isclose(mode_back, mode, rel_tol=PRIOR_RTOL) and \
        math.isclose(var_back, variance, rel_tol=PRIOR_RTOL)


def check_manifest_priors(manifest, z, strands):
    """The manifest's prior parameters satisfy their defining equations.

    Covers the default reading switches (IG on varrho2, rho variance on the
    natural scale, strand length = largest coordinate without a lengths file).
    """
    problems = []
    pri = manifest["priors"]
    cfg = manifest["config"]["priors"]
    if not _ig_from_mode_variance_ok(*pri["varrho2_prior"], float(cfg["varrho2_mode"]),
                                     float(cfg["varrho2_variance"])):
        problems.append("manifest: varrho2 prior misses its mode/variance")
    if not _lognormal_from_mode_variance_ok(*pri["nu_prior"], float(cfg["nu_mode"]),
                                            float(cfg["nu_variance"])):
        problems.append("manifest: nu prior misses its mode/variance")
    if len(pri["rho_priors"]) != len(strands):
        problems.append("manifest: one rho prior per strand expected")
    for (mu, sigma), (sid, loci) in zip(pri["rho_priors"], strands):
        length = max(c for _, c in loci)
        if not _lognormal_from_mode_variance_ok(mu, sigma, length, float(cfg["rho_variance"])):
            problems.append(f"manifest: rho prior of {sid} misses its mode/variance")
    s2 = z.var(axis=0, ddof=1)
    mean, var = float(s2.mean()), float(s2.var(ddof=1))
    shape = 2.0 + mean**2 / var
    expected = (shape, mean * (shape - 1.0))
    if not np.allclose(pri["delta2_prior"], expected, rtol=PRIOR_RTOL, atol=0.0):
        problems.append("manifest: delta2 prior is not the moment match of column variances")
    if pri["dof"] != z.shape[1] + 3:
        problems.append("manifest: inverse-Wishart dof is not m + 3")
    return problems


def matern(d, varrho2, nu, rho):
    """Matern covariance by the Bessel-K formula, variance at distance 0."""
    x = math.sqrt(2.0 * nu) * np.asarray(d, dtype=float) / rho
    out = np.full(x.shape, varrho2)
    pos = x > 0
    with np.errstate(over="ignore", divide="ignore"):
        logc = ((1.0 - nu) * math.log(2.0) - special.gammaln(nu)
                + nu * np.log(x[pos]) + np.log(special.kv(nu, x[pos])))
    out[pos] = varrho2 * np.minimum(np.exp(logc), 1.0)
    return out


def log_posterior(x, z, unit_names, strands, priors):
    """Dense evaluation of the marginalized log posterior on the sampler's
    unconstrained scale, up to an additive constant.

    ``x`` is [psi, log varrho2, log nu, log rho, log delta2]; ``priors`` holds
    the (verified) hyperprior parameters.
    """
    n, m = z.shape
    k = len(strands)
    psi = x[:m]
    varrho2, nu, rho = (np.exp(x[m + i * k:m + (i + 1) * k]) for i in range(3))
    delta2 = math.exp(x[-1])
    row = {u: i for i, u in enumerate(unit_names)}
    cov = np.zeros((m, m))
    for s, (_, loci) in enumerate(strands):
        coords = np.array([c for _, c in loci])
        p = np.zeros((m, len(loci)))
        p[[row[u] for u, _ in loci], np.arange(len(loci))] = 1.0
        w = matern(np.abs(coords[:, None] - coords[None, :]), varrho2[s], nu[s], rho[s])
        cov += p @ w @ p.T
    chol = np.linalg.cholesky(cov)
    y = np.linalg.solve(chol, psi)
    lp = -0.5 * float(y @ y) - float(np.sum(np.log(np.diag(chol))))
    resid = z - psi[None, :]
    _, logdet_b = np.linalg.slogdet(np.eye(n) + resid @ resid.T / delta2)
    lp += -0.5 * m * n * math.log(delta2) - 0.5 * (priors["dof"] + n) * logdet_b
    a, b = priors["varrho2_prior"]
    lp += float(np.sum(stats.invgamma.logpdf(varrho2, a, scale=b)))
    mu, sigma = priors["nu_prior"]
    lp += float(np.sum(stats.lognorm.logpdf(nu, sigma, scale=math.exp(mu))))
    for r, (mu_r, sigma_r) in zip(rho, priors["rho_priors"]):
        lp += float(stats.lognorm.logpdf(r, sigma_r, scale=math.exp(mu_r)))
    a, b = priors["delta2_prior"]
    lp += float(stats.invgamma.logpdf(delta2, a, scale=b))
    return lp + float(np.sum(x[m:]))


def check_log_posterior(pair, program_values, z, unit_names, strands, priors):
    """The program's log_target and the dense evaluation differ by the same
    amount between two stored draws."""
    try:
        own = [log_posterior(np.asarray(x, dtype=float), z, unit_names, strands, priors)
               for x in pair]
    except np.linalg.LinAlgError:
        return ["log posterior: the prior covariance at a stored draw is not positive definite"]
    own_diff = own[0] - own[1]
    prog_diff = program_values[0] - program_values[1]
    scale = max(1.0, abs(own[0]), abs(own[1]))
    if not abs(own_diff - prog_diff) <= LOG_POSTERIOR_RTOL * scale:
        return [f"log posterior: difference {prog_diff!r} from the program, "
                f"{own_diff!r} from the dense evaluation"]
    return []


def check_accepted_moves(draws, log_posteriors, acceptance_rate, post_steps):
    """A chain stored at every post-burn-in step obeys the Metropolis rule.

    ``log_posteriors[t]`` is the log posterior of ``draws[t]`` (any additive
    constant).  A changed row is an accepted move; the move before the first
    row is not stored, so the accepted count is the changed rows or one more.
    The chain must move, and no accepted move may lower the log posterior by
    more than ``ACCEPTED_DROP_LIMIT``.
    """
    problems = []
    moved = np.any(draws[1:] != draws[:-1], axis=1)
    changes = int(moved.sum())
    if changes == 0:
        return ["chain: no stored move was accepted"]
    accepted = acceptance_rate * post_steps
    if not (changes - 1e-6 <= accepted <= changes + 1 + 1e-6):
        problems.append(f"chain: acceptance_rate {acceptance_rate!r} over {post_steps} steps, "
                        f"but {changes} stored rows changed")
    drops = np.asarray(log_posteriors[:-1]) - np.asarray(log_posteriors[1:])
    worst = float(np.max(drops[moved]))
    if not worst <= ACCEPTED_DROP_LIMIT:
        problems.append(f"chain: an accepted move lowers the log posterior by {worst:.4g}")
    return problems


# ---------------------------------------------------------------------------
# test / lrbh / report
# ---------------------------------------------------------------------------

def _w(d, indicators, groups):
    """Group-coupled probabilities w_i(d) from the indicator matrix."""
    out = np.empty(len(groups))
    for i, members in enumerate(groups):
        mask = indicators[:, i].copy()
        for j in members:
            if j != i:
                mask &= indicators[:, j] == bool(d[j])
        out[i] = mask.mean()
    return out


def f_beta(d, indicators, groups, beta):
    return float(np.sum(np.asarray(d) * (_w(d, indicators, groups) - beta)))


def check_decisions(rows, summary, psi, target_fdr, tol):
    """decisions.csv and decisions_summary.json against the stored chain.

    The workload plants effects, so the calibration must find an admissible
    decision with at least one discovery: an infeasible or empty result fails.
    """
    problems = []
    names = [r["mirna"] for r in rows]
    m = len(names)
    d = np.array([int(r["decision"]) for r in rows])
    psi_hat = np.array([float(r["psi_hat"]) for r in rows])
    ci = np.array([[float(r["ci_low"]), float(r["ci_high"])] for r in rows])
    if not np.allclose(psi_hat, psi.mean(axis=0), rtol=0.0, atol=VALUE_ATOL):
        problems.append("decisions: psi_hat is not the chain's column mean")
    if not np.allclose(ci.T, np.quantile(psi, [0.025, 0.975], axis=0), rtol=0.0, atol=VALUE_ATOL):
        problems.append("decisions: ci_low/ci_high are not the chain's 2.5%/97.5% quantiles")

    indicators = np.abs(psi) > 1.0
    v = indicators.mean(axis=0)
    fdr = float(np.sum(d * (1.0 - v)) / max(d.sum(), 1))
    if int(d.sum()) != summary["n_discoveries"]:
        problems.append("decisions: n_discoveries disagrees with the decision column")
    if not math.isclose(fdr, summary["posterior_fdr"], rel_tol=0.0, abs_tol=VALUE_ATOL):
        problems.append(f"decisions: posterior FDR {summary['posterior_fdr']} but the chain gives {fdr}")
    if not summary["feasible"] or summary["n_discoveries"] < 1:
        problems.append(f"decisions: feasible={summary['feasible']} with "
                        f"{summary['n_discoveries']} discoveries on planted effects")
    if fdr > target_fdr + tol + VALUE_ATOL:
        problems.append(f"decisions: posterior FDR {fdr} exceeds the target")

    for i, r in enumerate(rows):
        expected = ("up" if psi_hat[i] < 0 else "down") if d[i] else ""
        if r["direction"] != expected:
            problems.append(f"decisions: {names[i]} direction {r['direction']!r}, sign says {expected!r}")
            break

    index = {name: i for i, name in enumerate(names)}
    groups = [np.array(sorted(index[g] for g in r["group_members"].split(";"))) for r in rows]
    if any(i not in g for i, g in enumerate(groups)):
        problems.append("decisions: a group does not contain its own unit")
    elif summary["feasible"]:  # beta is NaN otherwise, and that already failed above
        beta = summary["beta"]
        base = f_beta(d, indicators, groups, beta)
        for u in range(m):
            flipped = d.copy()
            flipped[u] ^= 1
            gain = f_beta(flipped, indicators, groups, beta) - base
            if gain > FLIP_ATOL:
                problems.append(f"decisions: flipping {names[u]} raises f_beta by {gain!r}")
                break
    return problems


def lr_zeta(z):
    """Interval-null likelihood-ratio statistic per column (biased variances)."""
    n = z.shape[0]
    mean = z.mean(axis=0)
    var = ((z - mean) ** 2).mean(axis=0)
    c_var = ((z - np.clip(mean, -1.0, 1.0)) ** 2).mean(axis=0)
    return (var / c_var) ** (n / 2.0)


def benjamini_hochberg(p, q):
    """Step-up rejections: the k smallest p-values, k = max{i : p_(i) <= i q / m}."""
    p = np.asarray(p, dtype=float)
    m = p.size
    order = sorted(range(m), key=lambda i: (p[i], i))
    k = 0
    for rank, i in enumerate(order, start=1):
        if p[i] <= q * rank / m:
            k = rank
    reject = np.zeros(m, dtype=bool)
    reject[order[:k]] = True
    return reject


def check_lrbh(rows, z, names, q):
    problems = []
    if [r["mirna"] for r in rows] != list(names):
        return ["lrbh: units differ from the input columns"]
    zeta = np.array([float(r["zeta"]) for r in rows])
    p = np.array([float(r["p_value"]) for r in rows])
    rejected = np.array([r["rejected"] == "1" for r in rows])
    if not np.allclose(zeta, lr_zeta(z), rtol=1e-9, atol=0.0):
        problems.append("lrbh: zeta differs from case - control")
    if np.any((p <= 0) | (p > 1)):
        problems.append("lrbh: p-value outside (0, 1]")
    if not np.array_equal(rejected, benjamini_hochberg(p, q)):
        problems.append("lrbh: rejected differs from the step-up rule on the listed p-values")
    return problems


def check_comparison(rows, decision_rows, lrbh_rows):
    nmd = {r["mirna"] for r in decision_rows if r["decision"] == "1"}
    lr = {r["mirna"] for r in lrbh_rows if r["rejected"] == "1"}
    got = {r["mirna"]: r["method"] for r in rows}
    expected = {u: ("NMD, LRBH" if u in nmd and u in lr else "NMD" if u in nmd else "LRBH")
                for u in nmd | lr}
    if got != expected or len(rows) != len(got):
        return ["comparison: rows are not the labelled union of both discovery sets"]
    return []


# ---------------------------------------------------------------------------
# cv
# ---------------------------------------------------------------------------

def coverage_band(n_values, level, design_effect, z_score=4.0):
    """Half-width of the band the pooled coverage of ``n_values`` held-out
    values must fall in (derivation in the README)."""
    return z_score * math.sqrt(level * (1.0 - level) * design_effect / n_values)


def check_cv(fold_rows, summary, z, patients, level, band):
    """``fold_rows`` maps patient id -> rows of cv_<patient>.csv."""
    problems = []
    flags = []
    for pid, rows in fold_rows.items():
        held_out = z[patients.index(pid)]
        observed = np.array([float(r["observed"]) for r in rows])
        low = np.array([float(r["pred_low"]) for r in rows])
        high = np.array([float(r["pred_high"]) for r in rows])
        covered = np.array([r["covered"] == "1" for r in rows])
        if not np.array_equal(observed, held_out):
            problems.append(f"cv: observed values of {pid} are not its case - control row")
        if not np.array_equal(covered, (low <= observed) & (observed <= high)):
            problems.append(f"cv: covered flags of {pid} disagree with its intervals")
        flags.append(covered)
    pooled = float(np.concatenate(flags).mean())
    if not math.isclose(pooled, summary["overall_coverage"], rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"cv: overall_coverage {summary['overall_coverage']} but flags give {pooled}")
    if abs(pooled - level) > band:
        problems.append(f"cv: pooled coverage {pooled:.3f} outside {level} +- {band:.3f}")
    return problems


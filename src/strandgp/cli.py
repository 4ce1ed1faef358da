"""Command-line orchestration: configuration, run persistence, reports.

Subcommands: ``fit`` (sample the posterior and persist the chain), ``test``
(non-marginal decisions from a stored chain), ``lrbh`` (likelihood-ratio +
step-up baseline), ``cv`` (leave-one-out predictive validation), ``report``
(merge the two methods' discovery sets), ``simulate`` (synthetic data from
the model).  Exit codes: 0 success, 2 validation error, 3 numerical
failure.  The ``STRANDGP_THREADS`` environment variable bounds worker
threads in parallel sections.

Every output is a deterministic function of (config, seed, input files);
wall-clock timings go to a side log, never into result files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .crossval import overall_coverage, run_loo
from .data import build_design_matrix, load_annotation, load_expression
from .decisions import (
    build_decision_report,
    calibrate_beta,
    form_groups,
    format_bayes_factor,
    hypothesis_indicators,
)
from .errors import ConfigError, DataError, NumericalError, StrandGPError
from .kernels import estimate_prior_correlation
from .lrbh import run_baseline
from .priors import HyperPriorSpec, make_posterior_model, psi_draws
# perfbench/tracing.py times the prior step under this name (ROADMAP item 6).
from .priors import prior_exceedance as draw_prior_psi
from .simulate import simulate_dataset, write_simulated
from .tmcmc import PosteriorSamples, SamplerConfig, export_trace, run_chain
from .util import THREADS_ENV

SAMPLES_MAGIC = "#strandgp-samples v1"
_DEFAULTS = {
    "data": {
        "case": "", "control": "", "annotation": "", "lengths": "",
        "output_dir": "out", "drop_incomplete_patients": "false",
    },
    "sampler": {
        "iterations": "200000", "burn_in": "50000", "thin": "10",
        "adaptation_window": "200", "target_low": "0.20", "target_high": "0.35",
    },
    "priors": {
        "varrho2_mode": "1.0", "varrho2_variance": "100.0",
        "nu_mode": "1.0", "nu_variance": "100.0",
        "rho_variance": "1000.0", "rho_prior_variance_scale": "natural",
        "varrho_prior_on": "varrho2",
    },
    "testing": {
        "target_fdr": "0.10", "tolerance": "0.005", "cap": "5",
        "percentile": "95.0", "component_enum_limit": "20",
        "group_cap_includes_self": "false",
        "prior_correlation_draws": "2000", "prior_psi_draws": "4000",
    },
    "lrbh": {"bootstrap": "10000", "q": "0.10", "method": "lrbh"},
    "cv": {
        "iterations": "30000", "burn_in": "10000", "thin": "10",
        "level": "0.75", "per_state": "1",
    },
    "run": {"seed": "0"},
}
# Checked while a config is read: (section, key, type, test, requirement).
_RANGES = (
    *((section, key, float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
      for section, key in (("testing", "target_fdr"), ("lrbh", "q"), ("cv", "level"))),
    *(("priors", key, float, lambda v: 0.0 < v < math.inf, "be positive and finite")
      for key in ("varrho2_mode", "varrho2_variance", "nu_mode", "nu_variance", "rho_variance")),
    # The group threshold is a percentile of the estimated correlations.
    ("testing", "prior_correlation_draws", int, lambda v: v >= 1000, "be at least 1000"),
    ("testing", "percentile", float, lambda v: 0.0 <= v <= 100.0, "lie in [0, 100]"),
    ("testing", "tolerance", float, lambda v: v >= 0.0, "be at least 0"),
    ("run", "seed", int, lambda v: v >= 0, "be at least 0"),
    *((section, key, int, lambda v: v >= 1, "be at least 1")
      for section, key in (("testing", "cap"), ("testing", "component_enum_limit"),
                           ("testing", "prior_psi_draws"),
                           ("lrbh", "bootstrap"), ("cv", "per_state"))),
)
_CHOICES = {
    ("lrbh", "method"): ("lrbh", "median-sign"),
    ("priors", "rho_prior_variance_scale"): ("natural", "log"),
    ("priors", "varrho_prior_on"): ("varrho2", "varrho"),
}


def _as_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (every default filled in and echoed)."""

    values: dict = field(repr=False)
    base_dir: str = "."

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            sections = {section: dict(parser.items(section)) for section in parser.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section, items in sections.items():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in items:
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        return cls.from_defaults(sections, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_defaults(cls, overrides: dict | None = None, base_dir: str = ".") -> "RunConfig":
        values = {section: dict(defaults) for section, defaults in _DEFAULTS.items()}
        for section, items in (overrides or {}).items():
            values[section].update({k: str(v) for k, v in items.items()})
        cfg = cls(values=values, base_dir=base_dir)
        cfg.validate()
        return cfg

    # typed accessors -------------------------------------------------------

    def path(self, key: str, required: bool = True) -> str | None:
        raw = self.values["data"][key].strip()
        if not raw:
            if required:
                raise ConfigError(f"config key data.{key} is required for this command")
            return None
        resolved = raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)
        if not os.path.exists(resolved):
            raise ConfigError(f"data.{key} points to a missing file: {resolved}")
        return resolved

    def output_dir(self) -> str:
        raw = self.values["data"]["output_dir"]
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)

    def seed(self) -> int:
        return int(self.values["run"]["seed"])

    def sampler_config(self, section: str = "sampler") -> SamplerConfig:
        sec = self.values[section]
        return SamplerConfig(
            n_iterations=int(sec["iterations"]),
            burn_in=int(sec["burn_in"]),
            thin=int(sec["thin"]),
            seed=self.seed(),
            adaptation_window=int(self.values["sampler"]["adaptation_window"]),
            target_acceptance=(float(self.values["sampler"]["target_low"]),
                               float(self.values["sampler"]["target_high"])),
        )

    def prior_kwargs(self) -> dict:
        return {key: raw if ("priors", key) in _CHOICES else float(raw)
                for key, raw in self.values["priors"].items()}

    def _number(self, section: str, key: str, kind=float):
        raw = self.values[section][key]
        try:
            return kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{section}.{key} must be {what}, got {raw!r}") from None

    def validate(self) -> None:
        for section, key, kind, accept, requirement in _RANGES:
            value = self._number(section, key, kind)
            if not accept(value):
                raise ConfigError(f"{section}.{key} must {requirement}, got {value}")
        for (section, key), allowed in _CHOICES.items():
            value = self.values[section][key]
            if value not in allowed:
                raise ConfigError(f"{section}.{key} must be one of {', '.join(allowed)}, got {value!r}")
        try:
            self.sampler_config()
            self.sampler_config("cv")
            _as_bool(self.values["data"]["drop_incomplete_patients"])
            _as_bool(self.values["testing"]["group_cap_includes_self"])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    def semantic_hash(self) -> str:
        """Hash of every result-affecting field (output location excluded)."""
        trimmed = {s: dict(v) for s, v in self.values.items()}
        trimmed["data"].pop("output_dir")
        blob = json.dumps(trimmed, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {s: dict(v) for s, v in self.values.items()}


# ---------------------------------------------------------------------------
# Sample persistence: text header + raw float64 rows (append-safe)
# ---------------------------------------------------------------------------

def write_samples(path, samples: PosteriorSamples) -> None:
    meta = {
        "names": list(samples.names),
        "acceptance_rate": samples.acceptance_rate,
        "seed": samples.config.seed,
        **{k: v for k, v in samples.meta.items() if isinstance(v, (int, float, str, bool, list))},
    }
    with open(path, "wb") as fh:
        fh.write((SAMPLES_MAGIC + "\n").encode())
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode())
        fh.write(b"#data float64\n")
        fh.write(np.ascontiguousarray(samples.draws, dtype="<f8").tobytes())


def read_samples(path) -> tuple[np.ndarray, dict]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read samples file {path}: {exc.strerror}") from None
    with fh:
        magic = fh.readline().decode(errors="replace").rstrip("\n")
        if magic != SAMPLES_MAGIC:
            raise DataError(f"{path}: not a samples file (bad magic {magic!r})")
        try:
            meta = json.loads(fh.readline().decode())
        except ValueError:
            raise DataError(f"{path}: samples header is not JSON") from None
        marker = fh.readline().decode(errors="replace").rstrip("\n")
        if marker != "#data float64":
            raise DataError(f"{path}: malformed samples header")
        body = fh.read()
    names = meta.get("names") if isinstance(meta, dict) else None
    if not isinstance(names, list) or not names:
        raise DataError(f"{path}: samples header has no column names")
    d = len(names)
    if len(body) % (8 * d) != 0:
        raise DataError(f"{path}: body is not a whole number of float64 rows")
    draws = np.frombuffer(body, dtype="<f8").reshape(-1, d)
    return draws, meta


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------

def _load_inputs(config: RunConfig):
    dataset = load_expression(
        config.path("case"), config.path("control"),
        drop_incomplete_patients=_as_bool(config.values["data"]["drop_incomplete_patients"]),
    )
    annotation = load_annotation(config.path("annotation"),
                                 lengths_path=config.path("lengths", required=False))
    design = build_design_matrix(annotation, dataset.mirna_names)
    return dataset, design


def _write_manifest(config: RunConfig, outdir: str, extra: dict) -> str:
    manifest = {
        "package": "strandgp",
        "version": __version__,
        "config": config.to_dict(),
        "config_hash": config.semantic_hash(),
        "seed": config.seed(),
        "rng": "numpy PCG64; task streams via SeedSequence.spawn",
        **extra,
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _samples_path(config: RunConfig, override=None) -> str:
    if override:
        return override
    return os.path.join(config.output_dir(), "samples.bin")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    config = RunConfig.from_file(args.config)
    outdir = config.output_dir()
    os.makedirs(outdir, exist_ok=True)
    dataset, design = _load_inputs(config)
    priors = HyperPriorSpec.from_data(design, dataset.z, **config.prior_kwargs())
    model = make_posterior_model(dataset.z, design, priors)
    start = time.perf_counter()
    samples = run_chain(model, config.sampler_config())
    elapsed = time.perf_counter() - start
    write_samples(_samples_path(config, args.samples_out), samples)
    if args.trace:
        wanted = samples.names if args.trace == "all" else args.trace.split(",")
        unknown = [name for name in wanted if name not in samples.names]
        if unknown:
            raise ConfigError(f"unknown trace parameters {unknown}; "
                              f"see column names in the samples file")
        export_trace(samples, os.path.join(outdir, "trace.csv"), parameters=wanted)
    _write_manifest(config, outdir, {
        "command": "fit",
        "n_draws": samples.n_draws,
        "acceptance_rate": samples.acceptance_rate,
        "priors": priors.to_dict(),
    })
    index = design.covariance_index
    with open(os.path.join(outdir, "fit.log"), "w", encoding="utf-8") as fh:
        fh.write(f"wall_time_seconds={elapsed:.3f}\n"
                 f"covariance_components={len(index.components)}\n"
                 f"largest_component={index.largest_component}\n")
    print(f"fit: {samples.n_draws} stored draws, acceptance {samples.acceptance_rate:.3f}, "
          f"{elapsed:.1f} s")
    return 0


def cmd_test(args) -> int:
    config = RunConfig.from_file(args.config)
    outdir = config.output_dir()
    os.makedirs(outdir, exist_ok=True)
    dataset, design = _load_inputs(config)
    draws, meta = read_samples(_samples_path(config, args.samples))
    m = dataset.n_mirnas
    if meta.get("m") not in (None, m):
        raise DataError(f"samples were drawn for m={meta.get('m')}, dataset has m={m}")
    if meta["names"][:m] != [f"psi:{name}" for name in dataset.mirna_names]:
        raise DataError("the samples' effect columns do not name the dataset's units in its order")
    if draws.shape[0] == 0:
        raise DataError("stored chain is empty; run fit with more iterations")
    priors = HyperPriorSpec.from_data(design, dataset.z, **config.prior_kwargs())
    tst = config.values["testing"]
    corr_seed, prior_seed = (s for s in np.random.SeedSequence(config.seed()).spawn(2))
    correlation = estimate_prior_correlation(
        design, priors.draw_hyper_arrays, n_mc=int(tst["prior_correlation_draws"]), seed=corr_seed)
    np.savetxt(os.path.join(outdir, "prior_correlation.csv"), correlation,
               delimiter=",", header=",".join(dataset.mirna_names), comments="")
    groups = form_groups(correlation, cap=int(tst["cap"]),
                         percentile=float(tst["percentile"]),
                         cap_includes_self=_as_bool(tst["group_cap_includes_self"]))
    indicators = hypothesis_indicators(psi_draws(draws, m))
    calibration = calibrate_beta(indicators, groups,
                                 target_fdr=float(tst["target_fdr"]),
                                 tol=float(tst["tolerance"]),
                                 enum_limit=int(tst["component_enum_limit"]))
    prior_probs, n_prior = draw_prior_psi(design, priors, int(tst["prior_psi_draws"]), prior_seed)
    report = build_decision_report(dataset.mirna_names, psi_draws(draws, m),
                                   calibration, groups, prior_probs, n_prior)
    report.write_csv(os.path.join(outdir, "decisions.csv"))
    report.write_summary_json(os.path.join(outdir, "decisions_summary.json"))

    print(f"non-marginal decisions: {report.n_discoveries} discoveries at "
          f"posterior FDR {report.posterior_fdr:.3f} (beta={report.beta:.4f} "
          f"feasible={report.feasible}); posterior FNR {report.posterior_fnr:.3f}")
    header = f"{'miRNA':<24}{'Deregulation':<14}{'BF':>8}  {'psi_hat':>8}  95% CI"
    print(header)
    for i, name in enumerate(report.mirna_names):
        if report.d[i]:
            print(f"{name:<24}{report.direction[i]:<14}{format_bayes_factor(report.bayes_factor[i]):>8}"
                  f"  {report.psi_mean[i]:>8.2f}  ({report.ci_low[i]:.2f}, {report.ci_high[i]:.2f})")
    return 0


def cmd_lrbh(args) -> int:
    config = RunConfig.from_file(args.config)
    outdir = config.output_dir()
    os.makedirs(outdir, exist_ok=True)
    dataset, _ = _load_inputs(config)
    sec = config.values["lrbh"]
    report = run_baseline(dataset.z, dataset.mirna_names, q=float(sec["q"]),
                          n_boot=int(sec["bootstrap"]), seed=config.seed(),
                          method=sec["method"])
    report.write_csv(os.path.join(outdir, "lrbh.csv"))
    print(f"{report.method}: {report.n_discoveries} discoveries at q={report.q}")
    return 0


def cmd_cv(args) -> int:
    config = RunConfig.from_file(args.config)
    outdir = config.output_dir()
    os.makedirs(outdir, exist_ok=True)
    dataset, design = _load_inputs(config)
    if args.folds:
        try:
            folds = [int(tok) for tok in args.folds.split(",")]
        except ValueError:
            raise ConfigError(f"--folds must be comma-separated integers, got {args.folds!r}") from None
        out_of_range = [j for j in folds if not 0 <= j < dataset.n_patients]
        if out_of_range:
            raise ConfigError(f"fold indices out of range: {out_of_range}")
        # Each fold has one RNG stream; a repeat would rerun it on a used one.
        repeated = sorted({j for j in folds if folds.count(j) > 1})
        if repeated:
            raise ConfigError(f"fold indices repeated: {repeated}")
    else:
        folds = None
    sec = config.values["cv"]
    summaries = run_loo(dataset, design, config.sampler_config("cv"),
                        prior_kwargs=config.prior_kwargs(),
                        level=float(sec["level"]), folds=folds)
    for summary in summaries:
        summary.write_csv(os.path.join(outdir, f"cv_{summary.patient_id}.csv"))
    coverage = overall_coverage(summaries)
    with open(os.path.join(outdir, "cv_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"level": float(sec["level"]), "overall_coverage": coverage,
                   "folds": [s.patient_id for s in summaries]}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"cv: coverage {coverage:.3f} at level {float(sec['level']):.2f} "
          f"over {len(summaries)} folds")
    return 0


def cmd_report(args) -> int:
    import csv as _csv

    config = RunConfig.from_file(args.config)
    outdir = config.output_dir()
    decisions_path = os.path.join(outdir, "decisions.csv")
    lrbh_path = os.path.join(outdir, "lrbh.csv")
    for p in (decisions_path, lrbh_path):
        if not os.path.exists(p):
            raise DataError(f"missing {p}; run the test/lrbh commands first")
    with open(decisions_path, newline="", encoding="utf-8") as fh:
        nmd_rows = {row["mirna"]: row for row in _csv.DictReader(fh)}
    with open(lrbh_path, newline="", encoding="utf-8") as fh:
        lrbh_rows = {row["mirna"]: row for row in _csv.DictReader(fh)}
    out_path = os.path.join(outdir, "comparison.csv")
    n_common = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["mirna", "method", "direction", "psi_hat", "ci_low", "ci_high",
                         "bayes_factor", "zeta", "p_value"])
        for name, row in nmd_rows.items():
            in_nmd = row["decision"] == "1"
            in_lrbh = name in lrbh_rows and lrbh_rows[name]["rejected"] == "1"
            if not (in_nmd or in_lrbh):
                continue
            method = "NMD, LRBH" if (in_nmd and in_lrbh) else ("NMD" if in_nmd else "LRBH")
            n_common += int(in_nmd and in_lrbh)
            lrow = lrbh_rows.get(name, {})
            writer.writerow([name, method, row["direction"], row["psi_hat"],
                             row["ci_low"], row["ci_high"], row["bayes_factor"],
                             lrow.get("zeta", ""), lrow.get("p_value", "")])
    print(f"report: wrote {out_path} ({n_common} common discoveries)")
    return 0


def cmd_simulate(args) -> int:
    if args.strands < 1 or args.m < args.strands:
        raise ConfigError(f"simulate needs --strands >= 1 and --m >= --strands "
                          f"(got --m {args.m}, --strands {args.strands})")
    sim = simulate_dataset(m=args.m, n=args.n, k=args.strands, seed=args.seed,
                           psi_mode="planted" if args.planted else "gp",
                           planted=args.planted, signal=args.signal)
    paths = write_simulated(sim, args.out)
    print(f"simulate: wrote {', '.join(sorted(paths.values()))}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandgp",
        description="Strand-blocked GP modelling and Bayesian multiple testing "
                    "for paired differential-expression data.",
        epilog=f"Set {THREADS_ENV} to bound worker threads in parallel sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="sample the posterior and persist the chain")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--samples-out", default=None)
    p_fit.add_argument("--trace", default=None, metavar="PARAMS",
                       help="write trace.csv for comma-separated parameters or 'all'")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="non-marginal decisions from a stored chain")
    p_test.add_argument("--config", required=True)
    p_test.add_argument("--samples", default=None)
    p_test.set_defaults(func=cmd_test)

    p_lrbh = sub.add_parser("lrbh", help="likelihood-ratio bootstrap + step-up baseline")
    p_lrbh.add_argument("--config", required=True)
    p_lrbh.set_defaults(func=cmd_lrbh)

    p_cv = sub.add_parser("cv", help="leave-one-out predictive validation")
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--folds", default=None, help="comma-separated patient indices")
    p_cv.set_defaults(func=cmd_cv)

    p_rep = sub.add_parser("report", help="merge the two methods' discovery sets")
    p_rep.add_argument("--config", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", help="generate synthetic data from the model")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--m", type=int, default=50)
    p_sim.add_argument("--n", type=int, default=18)
    p_sim.add_argument("--strands", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--planted", type=int, default=0,
                       help="plant this many signal units instead of GP effects")
    p_sim.add_argument("--signal", type=float, default=2.5)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except StrandGPError as exc:  # data and config errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError, DataError, NumericalError, StrandGPError
from .util import THREADS_ENV, SamplerConfig, write_csv, write_json

# The names the commands take from the model's layers, by layer.  Each is
# imported on first lookup (PEP 562), so a command loads only the layers it
# runs and ``report`` loads no numpy.  Commands look these names up on the
# module (``_cli.run_chain``), where perfbench/tracing.py replaces them.
_LAYERS = {
    "crossval": ("overall_coverage", "run_loo"),
    "data": ("build_design_matrix", "load_annotation", "load_expression"),
    "decisions": ("build_decision_report", "calibrate_beta", "form_groups",
                  "format_bayes_factor", "hypothesis_indicators"),
    "kernels": ("estimate_prior_correlation",),
    "lrbh": ("run_baseline",),
    "priors": ("HyperPriorSpec", "make_posterior_model", "psi_draws"),
    "simulate": ("simulate_dataset", "write_simulated"),
    "tmcmc": ("export_trace", "run_chain"),
}
_SOURCE = {name: (module, name) for module, names in _LAYERS.items() for name in names}
# perfbench/tracing.py times the prior step under this name (ROADMAP item 1).
_SOURCE["draw_prior_psi"] = ("priors", "prior_exceedance")


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCE[name]
    value = globals()[name] = getattr(import_module(f"{__package__}.{module}"), attr)
    return value


_cli = sys.modules[__name__]

SAMPLES_MAGIC = "#strandgp-samples v1"


class _Key(NamedTuple):
    default: str
    kind: object  # str, int, float, bool, or a tuple of the allowed strings
    accept: Callable | None = None
    requirement: str = ""


_AT_LEAST_0 = (lambda v: v >= 0, "be at least 0")
_AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")
_IN_UNIT = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be positive and finite")
# Every config key, declared once; a key absent from the INI file takes its
# default, and the resolved strings are echoed into the manifest.
_KEYS = {
    "data": {
        "case": _Key("", str), "control": _Key("", str), "annotation": _Key("", str),
        "lengths": _Key("", str), "output_dir": _Key("out", str),
        "drop_incomplete_patients": _Key("false", bool),
    },
    "sampler": {
        "iterations": _Key("200000", int, *_AT_LEAST_0),
        "burn_in": _Key("50000", int, *_AT_LEAST_0),
        "thin": _Key("10", int, *_AT_LEAST_1),
    },
    "priors": {
        "varrho2_mode": _Key("1.0", float, *_POSITIVE),
        "varrho2_variance": _Key("100.0", float, *_POSITIVE),
        "nu_mode": _Key("1.0", float, *_POSITIVE),
        "nu_variance": _Key("100.0", float, *_POSITIVE),
        "rho_variance": _Key("1000.0", float, *_POSITIVE),
        "rho_prior_variance_scale": _Key("natural", ("natural", "log")),
        "varrho_prior_on": _Key("varrho2", ("varrho2", "varrho")),
    },
    "testing": {
        "target_fdr": _Key("0.10", float, *_IN_UNIT),
        "tolerance": _Key("0.005", float, *_AT_LEAST_0),
        # Partners per group, the unit itself not counted; 0 gives singletons.
        "cap": _Key("5", int, *_AT_LEAST_0),
        # The group threshold is a percentile of the estimated correlations.
        "percentile": _Key("95.0", float, lambda v: 0.0 <= v <= 100.0, "lie in [0, 100]"),
        "component_enum_limit": _Key("20", int, *_AT_LEAST_1),
        "prior_correlation_draws": _Key("2000", int, lambda v: v >= 1000, "be at least 1000"),
        "prior_psi_draws": _Key("4000", int, *_AT_LEAST_1),
    },
    "lrbh": {
        "bootstrap": _Key("10000", int, *_AT_LEAST_1),
        "q": _Key("0.10", float, *_IN_UNIT),
    },
    "cv": {
        "iterations": _Key("30000", int, *_AT_LEAST_0),
        "burn_in": _Key("10000", int, *_AT_LEAST_0),
        "thin": _Key("10", int, *_AT_LEAST_1),
        "level": _Key("0.75", float, *_IN_UNIT),
        "per_state": _Key("1", int, *_AT_LEAST_1),
    },
    "run": {"seed": _Key("0", int, *_AT_LEAST_0)},
}
_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parse(section: str, key: str, raw: str):
    """The typed value of one config string, or a ConfigError naming the key."""
    spec = _KEYS[section][key]
    if spec.kind is str:
        return raw
    if isinstance(spec.kind, tuple):
        if raw not in spec.kind:
            raise ConfigError(f"{section}.{key} must be one of {', '.join(spec.kind)}, got {raw!r}")
        return raw
    if spec.kind is bool:
        value = _BOOLEANS.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"{section}.{key} must be a boolean "
                              f"(true/false, yes/no, on/off, 1/0), got {raw!r}")
        return value
    try:
        value = spec.kind(raw)
    except ValueError:
        what = "an integer" if spec.kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {what}, got {raw!r}") from None
    if spec.accept is not None and not spec.accept(value):
        raise ConfigError(f"{section}.{key} must {spec.requirement}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (every default filled in and echoed).

    ``values`` holds each key's string as read; ``get`` returns it parsed.
    """

    values: dict = field(repr=False)
    base_dir: str = "."
    _parsed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

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
        return cls.from_defaults(sections, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_defaults(cls, overrides: dict | None = None, base_dir: str = ".") -> "RunConfig":
        values = {section: {key: spec.default for key, spec in keys.items()}
                  for section, keys in _KEYS.items()}
        for section, items in (overrides or {}).items():
            values.setdefault(section, {}).update({k: str(v) for k, v in items.items()})
        return cls(values=values, base_dir=base_dir)

    def validate(self) -> None:
        """Parse every key once; raise ConfigError on the first bad one."""
        for section, items in self.values.items():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in items:
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        object.__setattr__(self, "_parsed", {
            section: {key: _parse(section, key, raw) for key, raw in items.items()}
            for section, items in self.values.items()})
        # Rules that tie two keys together live in SamplerConfig.
        for section in ("sampler", "cv"):
            try:
                self.sampler_config(section)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from None

    # typed accessors -------------------------------------------------------

    def get(self, section: str, key: str):
        """The parsed value of ``section.key``: a str, int, float or bool."""
        return self._parsed[section][key]

    def path(self, key: str, required: bool = True) -> str | None:
        raw = self.get("data", key).strip()
        if not raw:
            if required:
                raise ConfigError(f"config key data.{key} is required for this command")
            return None
        resolved = raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)
        if not os.path.exists(resolved):
            raise ConfigError(f"data.{key} points to a missing file: {resolved}")
        if os.path.isdir(resolved):
            raise ConfigError(f"data.{key} points to a directory, not a file: {resolved}")
        return resolved

    def output_dir(self) -> str:
        raw = self.get("data", "output_dir")
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)

    def seed(self) -> int:
        return self.get("run", "seed")

    def sampler_config(self, section: str = "sampler") -> SamplerConfig:
        return SamplerConfig(
            n_iterations=self.get(section, "iterations"),
            burn_in=self.get(section, "burn_in"),
            thin=self.get(section, "thin"),
            seed=self.seed(),
        )

    def prior_kwargs(self) -> dict:
        return {key: self.get("priors", key) for key in _KEYS["priors"]}

    def semantic_hash(self) -> str:
        """Hash of every result-affecting field (output location excluded)."""
        trimmed = {s: dict(v) for s, v in self.values.items()}
        trimmed["data"].pop("output_dir")
        blob = json.dumps(trimmed, sort_keys=True).encode()
        import hashlib  # only fit writes a manifest

        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {s: dict(v) for s, v in self.values.items()}


# ---------------------------------------------------------------------------
# Sample persistence: text header + raw float64 rows (append-safe)
# ---------------------------------------------------------------------------

def write_samples(path, samples) -> None:
    """Write a ``tmcmc.PosteriorSamples``; an OSError becomes a DataError."""
    import numpy as np

    meta = {
        "names": list(samples.names),
        "acceptance_rate": samples.acceptance_rate,
        "seed": samples.config.seed,
        **{k: v for k, v in samples.meta.items() if isinstance(v, (int, float, str, bool, list))},
    }
    try:
        with open(path, "wb") as fh:
            fh.write((SAMPLES_MAGIC + "\n").encode())
            fh.write((json.dumps(meta, sort_keys=True) + "\n").encode())
            fh.write(b"#data float64\n")
            fh.write(np.ascontiguousarray(samples.draws, dtype="<f8").tobytes())
    except OSError as exc:
        raise DataError(f"cannot write samples file {path}: {exc.strerror}") from None


def read_samples(path) -> tuple:
    """The (draws, header) of a samples file: a read-only float64 array with
    one row per draw, and the JSON header as a dict."""
    import numpy as np

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
    dataset = _cli.load_expression(
        config.path("case"), config.path("control"),
        drop_incomplete_patients=config.get("data", "drop_incomplete_patients"),
    )
    annotation = _cli.load_annotation(config.path("annotation"),
                                      lengths_path=config.path("lengths", required=False))
    design = _cli.build_design_matrix(annotation, dataset.mirna_names)
    return dataset, design


def _make_dir(path: str, setting: str) -> str:
    """Create the directory ``path`` unless it exists; a ConfigError names
    the ``setting`` that gave a path which cannot be a directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{setting} cannot be used as a directory: {path}: {exc.strerror}") from None
    return path


def _write_manifest(config: RunConfig, outdir: str, extra: dict) -> None:
    manifest = {
        "package": "strandgp",
        "version": __version__,
        "config": config.to_dict(),
        "config_hash": config.semantic_hash(),
        "seed": config.seed(),
        "rng": "numpy PCG64; task streams via SeedSequence.spawn",
        **extra,
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _samples_path(config: RunConfig, override: str | None, flag: str) -> str:
    """The samples file a flag names, or ``samples.bin`` in the output
    directory when the flag is absent; an empty value names no file."""
    if override is None:
        return os.path.join(config.output_dir(), "samples.bin")
    if not override:
        raise ConfigError(f"{flag} must name a file, got ''")
    return override


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(config: RunConfig, args) -> int:
    samples_path = _samples_path(config, args.samples_out, "--samples-out")
    outdir = _make_dir(config.output_dir(), "data.output_dir")
    if not os.path.isdir(os.path.dirname(samples_path) or "."):
        raise ConfigError(f"--samples-out names a file in a missing directory: {samples_path}")
    dataset, design = _load_inputs(config)
    priors = _cli.HyperPriorSpec.from_data(design, dataset.z, **config.prior_kwargs())
    model = _cli.make_posterior_model(dataset.z, design, priors)
    if args.trace is not None:
        wanted = model.names if args.trace == "all" else args.trace.split(",")
        unknown = [name for name in wanted if name not in model.names]
        if unknown:
            raise ConfigError(f"--trace names unknown parameters {unknown}; valid names are "
                              f"the samples file's column names, or 'all'")
    start = time.perf_counter()
    samples = _cli.run_chain(model, config.sampler_config())
    elapsed = time.perf_counter() - start
    write_samples(samples_path, samples)
    if args.trace is not None:
        _cli.export_trace(samples, os.path.join(outdir, "trace.csv"), parameters=wanted)
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


def cmd_test(config: RunConfig, args) -> int:
    import numpy as np

    samples_path = _samples_path(config, args.samples, "--samples")
    outdir = _make_dir(config.output_dir(), "data.output_dir")
    dataset, design = _load_inputs(config)
    draws, meta = read_samples(samples_path)
    m = dataset.n_mirnas
    if meta.get("m") not in (None, m):
        raise DataError(f"samples were drawn for m={meta.get('m')}, dataset has m={m}")
    if meta["names"][:m] != [f"psi:{name}" for name in dataset.mirna_names]:
        raise DataError("the samples' effect columns do not name the dataset's units in its order")
    if draws.shape[0] == 0:
        raise DataError("stored chain is empty; run fit with more iterations")
    priors = _cli.HyperPriorSpec.from_data(design, dataset.z, **config.prior_kwargs())
    corr_seed, prior_seed = (s for s in np.random.SeedSequence(config.seed()).spawn(2))
    correlation = _cli.estimate_prior_correlation(
        design, priors.draw_hyper_arrays, n_mc=config.get("testing", "prior_correlation_draws"),
        seed=corr_seed)
    np.savetxt(os.path.join(outdir, "prior_correlation.csv"), correlation,
               delimiter=",", header=",".join(dataset.mirna_names), comments="")
    groups = _cli.form_groups(correlation, cap=config.get("testing", "cap"),
                              percentile=config.get("testing", "percentile"))
    indicators = _cli.hypothesis_indicators(_cli.psi_draws(draws, m))
    calibration = _cli.calibrate_beta(indicators, groups,
                                      target_fdr=config.get("testing", "target_fdr"),
                                      tol=config.get("testing", "tolerance"),
                                      enum_limit=config.get("testing", "component_enum_limit"))
    prior_probs, n_prior = _cli.draw_prior_psi(design, priors,
                                               config.get("testing", "prior_psi_draws"), prior_seed)
    report = _cli.build_decision_report(dataset.mirna_names, _cli.psi_draws(draws, m),
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
            print(f"{name:<24}{report.direction[i]:<14}{_cli.format_bayes_factor(report.bayes_factor[i]):>8}"
                  f"  {report.psi_mean[i]:>8.2f}  ({report.ci_low[i]:.2f}, {report.ci_high[i]:.2f})")
    return 0


def cmd_lrbh(config: RunConfig, args) -> int:
    outdir = _make_dir(config.output_dir(), "data.output_dir")
    dataset, _ = _load_inputs(config)
    report = _cli.run_baseline(dataset.z, dataset.mirna_names, q=config.get("lrbh", "q"),
                               n_boot=config.get("lrbh", "bootstrap"), seed=config.seed())
    report.write_csv(os.path.join(outdir, "lrbh.csv"))
    print(f"lrbh: {report.n_discoveries} discoveries at q={report.q}")
    return 0


def cmd_cv(config: RunConfig, args) -> int:
    sampler = config.sampler_config("cv")
    if sampler.n_stored == 0:
        raise ConfigError(f"[cv] iterations ({sampler.n_iterations}), burn_in ({sampler.burn_in}) "
                          f"and thin ({sampler.thin}) store no draw: (iterations - burn_in) // thin is 0")
    outdir = _make_dir(config.output_dir(), "data.output_dir")
    dataset, design = _load_inputs(config)
    if args.folds is not None:
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
    level = config.get("cv", "level")
    summaries = _cli.run_loo(dataset, design, sampler,
                             prior_kwargs=config.prior_kwargs(), level=level, folds=folds)
    for summary in summaries:
        summary.write_csv(os.path.join(outdir, f"cv_{summary.patient_id}.csv"))
    coverage = _cli.overall_coverage(summaries)
    write_json(os.path.join(outdir, "cv_summary.json"),
               {"level": level, "overall_coverage": coverage,
                "folds": [s.patient_id for s in summaries]})
    print(f"cv: coverage {coverage:.3f} at level {level:.2f} "
          f"over {len(summaries)} folds")
    return 0


def cmd_report(config: RunConfig, args) -> int:
    outdir = config.output_dir()
    decisions_path = os.path.join(outdir, "decisions.csv")
    lrbh_path = os.path.join(outdir, "lrbh.csv")
    for p in (decisions_path, lrbh_path):
        if not os.path.exists(p):
            raise DataError(f"missing {p}; run the test/lrbh commands first")
    with open(decisions_path, newline="", encoding="utf-8") as fh:
        nmd_rows = {row["mirna"]: row for row in csv.DictReader(fh)}
    with open(lrbh_path, newline="", encoding="utf-8") as fh:
        lrbh_rows = {row["mirna"]: row for row in csv.DictReader(fh)}
    out_path = os.path.join(outdir, "comparison.csv")
    n_common = 0
    rows = []
    for name, row in nmd_rows.items():
        in_nmd = row["decision"] == "1"
        in_lrbh = name in lrbh_rows and lrbh_rows[name]["rejected"] == "1"
        if not (in_nmd or in_lrbh):
            continue
        method = "NMD, LRBH" if (in_nmd and in_lrbh) else ("NMD" if in_nmd else "LRBH")
        n_common += int(in_nmd and in_lrbh)
        lrow = lrbh_rows.get(name, {})
        rows.append([name, method, row["direction"], row["psi_hat"],
                     row["ci_low"], row["ci_high"], row["bayes_factor"],
                     lrow.get("zeta", ""), lrow.get("p_value", "")])
    write_csv(out_path, ["mirna", "method", "direction", "psi_hat", "ci_low", "ci_high",
                         "bayes_factor", "zeta", "p_value"], rows)
    print(f"report: wrote {out_path} ({n_common} common discoveries)")
    return 0


def cmd_simulate(args) -> int:
    if args.strands < 1 or args.m < args.strands:
        raise ConfigError(f"simulate needs --strands >= 1 and --m >= --strands "
                          f"(got --m {args.m}, --strands {args.strands})")
    # The commands need at least two patients.
    if args.n < 2:
        raise ConfigError(f"simulate needs --n >= 2 (got --n {args.n})")
    if args.seed < 0:
        raise ConfigError(f"simulate needs --seed >= 0 (got --seed {args.seed})")
    if not 0 <= args.planted <= args.m:
        raise ConfigError(f"simulate needs 0 <= --planted <= --m "
                          f"(got --planted {args.planted}, --m {args.m})")
    _make_dir(args.out, "--out")
    sim = _cli.simulate_dataset(m=args.m, n=args.n, k=args.strands, seed=args.seed,
                                psi_mode="planted" if args.planted else "gp",
                                planted=args.planted, signal=args.signal)
    paths = _cli.write_simulated(sim, args.out)
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
        if "config" in args:
            return args.func(RunConfig.from_file(args.config), args)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except StrandGPError as exc:  # data and config errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

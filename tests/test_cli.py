import ast
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import strandgp
from strandgp.cli import _KEYS, RunConfig, main, read_samples, write_samples
from strandgp.crossval import run_loo
from strandgp.decisions import ComponentReport, calibrate_beta, form_groups, optimize_decisions
from strandgp.errors import ConfigError
from strandgp.lrbh import run_baseline
from strandgp.priors import HyperPriorSpec
from strandgp.tmcmc import PosteriorSamples, SamplerConfig
from strandgp.util import worker_count


def write_config(path, data_dir, outdir, seed=0, extra=""):
    path.write_text(f"""
[data]
case = {data_dir}/case.csv
control = {data_dir}/control.csv
annotation = {data_dir}/annotation.csv
output_dir = {outdir}

[sampler]
iterations = 3000
burn_in = 1000
thin = 5

[testing]
prior_correlation_draws = 1000
prior_psi_draws = 400

[cv]
iterations = 600
burn_in = 200
thin = 4

[lrbh]
bootstrap = 300

[run]
seed = {seed}
{extra}
""")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> fit once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    out_dir = root / "out"
    assert main(["simulate", "--out", str(data_dir), "--m", "8", "--n", "6",
                 "--strands", "2", "--seed", "1", "--planted", "3"]) == 0
    config = write_config(root / "run.ini", data_dir, out_dir)
    assert main(["fit", "--config", config]) == 0
    return {"root": root, "data": data_dir, "out": out_dir, "config": config}


@pytest.fixture(scope="module")
def decided(pipeline):
    """test and lrbh on the fitted pipeline, for the checks that read their
    files; each such check passes when selected alone."""
    assert main(["test", "--config", pipeline["config"]]) == 0
    assert main(["lrbh", "--config", pipeline["config"]]) == 0
    return pipeline


class TestRunConfig:
    def test_defaults_resolve_and_hash(self, tmp_path):
        cfg = RunConfig.from_defaults()
        assert cfg.values["sampler"]["iterations"] == "200000"
        assert len(cfg.semantic_hash()) == 64

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            RunConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sampler]\nwarmup = 10\n")
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_file(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sampler]\niterations = soon\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("section,key,value", [
        ("testing", "target_fdr", "1.5"),
        ("testing", "target_fdr", "0"),
        ("lrbh", "q", "1.0"),
        ("lrbh", "q", "-0.1"),
        ("lrbh", "bootstrap", "0"),
        ("testing", "percentile", "150"),
        ("testing", "percentile", "-5"),
        ("testing", "tolerance", "-0.01"),
        ("testing", "tolerance", "small"),
        ("testing", "cap", "abc"),
        ("testing", "cap", "-1"),
        ("testing", "component_enum_limit", "0"),
        ("testing", "component_enum_limit", "2.5"),
        ("testing", "prior_psi_draws", "0"),
        ("testing", "prior_correlation_draws", "-3"),
        ("testing", "prior_correlation_draws", "999"),
        ("testing", "target_fdr", "tenth"),
        ("priors", "varrho2_mode", "0"),
        ("priors", "varrho2_variance", "-1"),
        ("priors", "nu_mode", "one"),
        ("priors", "nu_variance", "0"),
        ("priors", "rho_variance", "inf"),
        ("priors", "rho_prior_variance_scale", "logarithmic"),
        ("priors", "varrho_prior_on", "sigma"),
        ("run", "seed", "-1"),
        ("run", "seed", "first"),
        ("cv", "level", "1.5"),
        ("cv", "level", "0"),
        ("cv", "level", "most"),
        ("cv", "per_state", "0"),
        ("cv", "per_state", "1.5"),
        ("sampler", "iterations", "abc"),
        ("sampler", "burn_in", "-5"),
        ("sampler", "thin", "1.5"),
        ("cv", "iterations", "-1"),
        ("cv", "burn_in", "many"),
        ("cv", "thin", "2.5"),
        ("data", "drop_incomplete_patients", "maybe"),
        # Removed keys exit 2 as unknown keys.
        ("testing", "group_cap_includes_self", "sometimes"),
        ("lrbh", "method", "median-sign"),
        ("sampler", "adaptation_window", "ten"),
        ("sampler", "target_low", "0"),
        ("sampler", "target_high", "1.2"),
        # Malformed files: the whole text is given and the name the error
        # must carry stands in for the key.
        pytest.param(None, "priors", "[priors]\nnu_mode = 1\n[priors]\nnu_mode = 2\n",
                     id="duplicate-section"),
        pytest.param(None, "nu_mode", "nu_mode = 1\n[priors]\n", id="missing-section-header"),
        pytest.param(None, "nu_mode", "[priors]\nnu_mode = 1\nnu_mode = 2\n", id="duplicate-key"),
    ])
    def test_out_of_range_value_exits_2_before_any_work(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "bad.ini"
        if section is None:
            path.write_text(value)
        else:
            header = "" if section == "data" else f"[{section}]\n"
            path.write_text(f"[data]\ncase = {tmp_path}/absent.csv\n{header}{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_file(path)
        # The range check fires while the config is read, before any input
        # is touched (the data paths here do not exist).
        assert main(["test", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, text", [
        ("sampler", "iterations = 10\nburn_in = 20"),
        ("cv", "iterations = 10\nburn_in = 20"),
    ])
    def test_two_key_rule_names_the_section(self, tmp_path, section, text):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{text}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"testing": {"capp": 3}}, r"unknown key 'capp' in section \[testing\]"),
        ({"tsting": {"cap": 3}}, r"unknown config section \[tsting\]"),
    ])
    def test_from_defaults_checks_keys_as_a_file_does(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_defaults(overrides)

    def test_readme_table_lists_every_key_with_its_default(self):
        # Rows read "| section | key / key | default / default | meaning |";
        # one default may stand for several keys, and "(required)" and
        # "(empty)" stand for the empty string.
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        listed = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) != 4 or cells[0] in ("Section", "---"):
                continue
            keys, defaults = cells[1].split(" / "), cells[2].split(" / ")
            defaults = ["" if d in ("(required)", "(empty)") else d for d in defaults]
            if len(defaults) == 1:
                defaults *= len(keys)
            assert len(defaults) == len(keys), line
            for key, default in zip(keys, defaults):
                assert (cells[0], key) not in listed, line
                listed[cells[0], key] = default
        declared = {(section, key): default
                    for section, items in RunConfig.from_defaults().values.items()
                    for key, default in items.items()}
        assert listed == declared

    def test_library_defaults_match_config_defaults(self):
        # A library call left at its defaults must do what a run on the
        # default config does; perfbench's fit-study check, for one, calls
        # HyperPriorSpec.from_data(design, z) against a fit on these defaults.
        config = RunConfig.from_defaults()
        keys = {
            HyperPriorSpec.from_data: {key: ("priors", key) for key in config.values["priors"]},
            form_groups: {"cap": ("testing", "cap"), "percentile": ("testing", "percentile")},
            calibrate_beta: {"target_fdr": ("testing", "target_fdr"),
                             "tol": ("testing", "tolerance"),
                             "enum_limit": ("testing", "component_enum_limit")},
            optimize_decisions: {"enum_limit": ("testing", "component_enum_limit")},
            run_baseline: {"q": ("lrbh", "q"), "n_boot": ("lrbh", "bootstrap"),
                           "seed": ("run", "seed")},
            run_loo: {"level": ("cv", "level")},
        }
        for function, params in keys.items():
            signature = inspect.signature(function).parameters
            for param, (section, key) in params.items():
                assert signature[param].default == config.get(section, key), (function, param)

    def test_hash_ignores_output_dir_only(self, tmp_path):
        a = RunConfig.from_defaults({"data": {"output_dir": "x"}})
        b = RunConfig.from_defaults({"data": {"output_dir": "y"}})
        c = RunConfig.from_defaults({"run": {"seed": 5}})
        assert a.semantic_hash() == b.semantic_hash()
        assert a.semantic_hash() != c.semantic_hash()


class TestSamplesIO:
    def make_samples(self, draws):
        return PosteriorSamples(
            draws=np.asarray(draws, dtype=float),
            names=[f"x{i}" for i in range(np.asarray(draws).shape[1])],
            acceptance_rate=0.3,
            scales=np.ones(np.asarray(draws).shape[1]),
            config=SamplerConfig(n_iterations=10, seed=4),
            block_info=[],
            meta={"m": 2, "k": 1},
        )

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = self.make_samples(rng.normal(size=(7, 3)))
        path = tmp_path / "s.bin"
        write_samples(path, samples)
        draws, meta = read_samples(path)
        np.testing.assert_array_equal(draws, samples.draws)
        assert meta["names"] == samples.names
        assert meta["m"] == 2

    def test_empty_draws_round_trip(self, tmp_path):
        samples = self.make_samples(np.empty((0, 2)))
        path = tmp_path / "s.bin"
        write_samples(path, samples)
        draws, _ = read_samples(path)
        assert draws.shape == (0, 2)

    def test_append_extends_rows(self, tmp_path):
        samples = self.make_samples(np.ones((2, 2)))
        path = tmp_path / "s.bin"
        write_samples(path, samples)
        with open(path, "ab") as fh:
            fh.write(np.full((1, 2), 5.0).tobytes())
        draws, _ = read_samples(path)
        assert draws.shape == (3, 2)
        assert draws[-1].tolist() == [5.0, 5.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"not a samples file\n")
        with pytest.raises(Exception):
            read_samples(path)


class TestPipeline:
    def test_fit_artifacts(self, pipeline):
        out = pipeline["out"]
        draws, meta = read_samples(out / "samples.bin")
        assert draws.shape[0] == (3000 - 1000) // 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config_hash"]
        assert "wall" not in json.dumps(manifest)  # deterministic manifest
        assert "covariance_components" not in json.dumps(manifest)
        assert "largest_component" not in json.dumps(manifest)
        log = dict(line.split("=") for line in (out / "fit.log").read_text().split())
        # 8 units round-robin on 2 strands, none multi-locus (10% of 8
        # rounds down): each strand is a component of 4 units.
        assert log["covariance_components"] == "2"
        assert log["largest_component"] == "4"

    def test_fit_reproducible_byte_for_byte(self, pipeline, tmp_path):
        out2 = tmp_path / "out2"
        config2 = write_config(pipeline["root"] / "run2.ini", pipeline["data"], out2)
        assert main(["fit", "--config", config2]) == 0
        a = (pipeline["out"] / "samples.bin").read_bytes()
        b = (out2 / "samples.bin").read_bytes()
        assert a == b

    def test_test_command(self, pipeline, capsys):
        assert main(["test", "--config", pipeline["config"]]) == 0
        out = pipeline["out"]
        lines = (out / "decisions.csv").read_text().strip().splitlines()
        assert lines[0].startswith("mirna,decision,direction")
        assert len(lines) == 9
        summary = json.loads((out / "decisions_summary.json").read_text())
        assert set(summary) >= {"beta", "posterior_fdr", "posterior_fnr", "n_discoveries"}
        console = capsys.readouterr().out
        assert "non-marginal decisions" in console
        assert (out / "prior_correlation.csv").exists()

    def test_discoveries_recover_planted_truth(self, decided):
        truth_lines = (decided["data"] / "truth.csv").read_text().strip().splitlines()
        planted = {row.split(",")[0] for row in truth_lines[1:] if row.split(",")[2] == "1"}
        decision_lines = (decided["out"] / "decisions.csv").read_text().strip().splitlines()
        discovered = {row.split(",")[0] for row in decision_lines[1:] if row.split(",")[1] == "1"}
        # strong planted signals (|effect| = 2.8, noise sd ~ 1) must all be found
        assert planted <= discovered
        assert len(discovered - planted) <= 1

    def test_lrbh_command(self, pipeline):
        assert main(["lrbh", "--config", pipeline["config"]]) == 0
        lines = (pipeline["out"] / "lrbh.csv").read_text().strip().splitlines()
        assert lines[0] == "mirna,zeta,p_value,rejected"
        assert len(lines) == 9

    def test_cv_command_subset(self, pipeline):
        assert main(["cv", "--config", pipeline["config"], "--folds", "0,1"]) == 0
        out = pipeline["out"]
        summary = json.loads((out / "cv_summary.json").read_text())
        assert summary["level"] == 0.75
        assert len(summary["folds"]) == 2
        fold_file = out / f"cv_{summary['folds'][0]}.csv"
        assert fold_file.exists()

    def test_cv_repeated_fold_exits_2(self, pipeline, capsys):
        # Each fold has its own RNG stream; a repeat would rerun the fold on
        # a used stream and count it twice in the pooled coverage.
        capsys.readouterr()
        assert main(["cv", "--config", pipeline["config"], "--folds", "2,1,2"]) == 2
        assert "fold indices repeated: [2]" in capsys.readouterr().err

    def test_cv_empty_folds_exits_2(self, pipeline, capsys):
        # An empty list names no fold; it must not fall back to all of them.
        capsys.readouterr()
        assert main(["cv", "--config", pipeline["config"], "--folds", ""]) == 2
        assert "--folds must be comma-separated integers, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--trace", ""], "--trace"),
        (["fit", "--samples-out", ""], "--samples-out"),
        (["test", "--samples", ""], "--samples"),
    ])
    def test_empty_flag_value_exits_2(self, pipeline, tmp_path, capsys, argv, flag):
        # An empty value must not fall back to the flag's absence: no trace,
        # or samples.bin in the output directory.
        out = tmp_path / "out"
        config = (pipeline["config"] if argv[0] == "test"
                  else write_config(tmp_path / "run.ini", pipeline["data"], out))
        capsys.readouterr()
        assert main(argv + ["--config", config]) == 2
        assert flag in capsys.readouterr().err
        assert not (out / "samples.bin").exists()

    def test_report_command(self, decided):
        assert main(["report", "--config", decided["config"]]) == 0
        lines = (decided["out"] / "comparison.csv").read_text().strip().splitlines()
        assert lines[0].startswith("mirna,method")
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods <= {"NMD", "LRBH", '"NMD', "NMD, LRBH"} or len(lines) >= 1

    def test_trace_semantics_in_samples(self, pipeline):
        draws, meta = read_samples(pipeline["out"] / "samples.bin")
        assert any(name.startswith("psi:") for name in meta["names"])
        assert meta["names"][-1] == "log_delta2"

    def test_fit_trace_export(self, pipeline, tmp_path):
        out2 = tmp_path / "out_trace"
        config2 = write_config(pipeline["root"] / "run_trace.ini", pipeline["data"], out2)
        assert main(["fit", "--config", config2, "--trace", "log_delta2"]) == 0
        lines = (out2 / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,parameter,value"
        assert all(line.split(",")[1] == "log_delta2" for line in lines[1:])
        assert main(["fit", "--config", config2, "--trace", "bogus"]) == 2

    def test_unknown_trace_name_exits_2_before_sampling(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out_typo"
        config = write_config(tmp_path / "run.ini", pipeline["data"], out)
        capsys.readouterr()
        assert main(["fit", "--config", config, "--trace", "log_delta2,psi:nope"]) == 2
        assert "psi:nope" in capsys.readouterr().err
        assert not (out / "samples.bin").exists()


def last_line(code, *args):
    """The last line a fresh interpreter prints running ``code`` with ``args``
    (the package's sources first on its path)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=env, check=True, timeout=300)
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

    def run_commands(config, *argvs):
        code = ("import sys, json; from strandgp.cli import main; "
                "codes = [main(argv + ['--config', sys.argv[1]]) for argv in json.loads(sys.argv[2])]; "
                "print(codes, end=' '); " + report)
        return last_line(code, str(config), json.dumps(argvs))

    # Importing the command line loads no scipy module at all.
    assert last_line("import sys, strandgp.cli; " + report) == "[]"
    data_dir = tmp_path / "data"
    assert main(["simulate", "--out", str(data_dir), "--m", "6", "--n", "5",
                 "--strands", "2", "--seed", "0"]) == 0
    # fit and cv load scipy's compiled LAPACK module and no other scipy
    # module: the t distribution, lgamma and trigamma are computed here.
    config = write_config(tmp_path / "default.ini", data_dir, tmp_path / "out2")
    assert run_commands(config, ["fit"]) == "[0] ['scipy.linalg._flapack']"
    config = tmp_path / "run.ini"
    write_config(config, data_dir, tmp_path / "out")
    config.write_text(config.read_text()
                      .replace("[cv]\niterations = 600", "[cv]\niterations = 300"))
    assert run_commands(config, ["cv", "--folds", "0"]) == "[0] ['scipy.linalg._flapack']"
    assert (tmp_path / "out" / "cv_summary.json").exists()
    # The decisions, the baseline and report load no scipy module:
    # test factors nothing and evaluates the Bessel function in numpy.
    config = tmp_path / "default.ini"
    assert run_commands(config, ["test"], ["lrbh"], ["report"]) == "[0, 0, 0] []"
    assert (tmp_path / "out2" / "decisions.csv").exists()
    assert (tmp_path / "out2" / "comparison.csv").exists()


def test_each_command_loads_only_its_layers(tmp_path):
    # strandgp.cli binds the layers' names on first use, so a command
    # imports only the modules it runs; report merges two CSV files without
    # numpy.  fit, test and cv also keep clear of numpy.ma, which np.unique,
    # np.median, np.percentile and np.quantile import on first use.
    def loaded(code, *args):
        return set(json.loads(last_line(code + "; print(json.dumps(sorted(sys.modules)))", *args)))

    def run(argv):
        code = "import sys, json; from strandgp.cli import main; assert main(json.loads(sys.argv[1])) == 0"
        modules = loaded(code, json.dumps(argv))
        return modules, {name.split(".")[1] for name in modules if name.startswith("strandgp.")}

    assert "numpy" not in loaded("import sys, json, strandgp.cli")
    data_dir = tmp_path / "data"
    assert main(["simulate", "--out", str(data_dir), "--m", "6", "--n", "5",
                 "--strands", "2", "--seed", "0", "--planted", "2"]) == 0
    config = write_config(tmp_path / "run.ini", data_dir, tmp_path / "out")
    for argv, absent in [(["fit"], {"decisions", "lrbh", "simulate"}),
                         (["test"], {"lrbh", "crossval", "simulate"}),
                         (["lrbh"], {"kernels", "priors", "tmcmc", "decisions", "crossval", "simulate"}),
                         (["cv", "--folds", "0"], {"decisions", "lrbh", "simulate"})]:
        modules, layers = run(argv + ["--config", config])
        assert not layers & absent, (argv, layers & absent)
        if argv[0] in ("fit", "test", "cv"):
            assert "numpy.ma" not in modules, argv
    modules, layers = run(["report", "--config", config])
    assert "numpy" not in modules
    assert layers == {"cli", "errors", "util"}


def test_every_config_key_is_read(tmp_path, monkeypatch):
    # A key no command reads is a setting that does nothing. Reads made while
    # a config is validated do not count, only those the commands make.
    loaded, read = [], set()
    from_file, get = RunConfig.from_file.__func__, RunConfig.get

    def loading(cls, path):
        config = from_file(cls, path)
        loaded.append(config)
        return config

    def reading(self, section, key):
        if any(self is config for config in loaded):
            read.add((section, key))
        return get(self, section, key)

    monkeypatch.setattr(RunConfig, "from_file", classmethod(loading))
    monkeypatch.setattr(RunConfig, "get", reading)
    data_dir = tmp_path / "data"
    assert main(["simulate", "--out", str(data_dir), "--m", "4", "--n", "5",
                 "--strands", "2", "--seed", "0", "--planted", "1"]) == 0
    config = write_config(tmp_path / "run.ini", data_dir, tmp_path / "out")
    for argv in (["fit"], ["test"], ["lrbh"], ["cv", "--folds", "0"], ["report"]):
        assert main([*argv, "--config", config]) == 0, argv
    declared = {(section, key) for section, keys in _KEYS.items() for key in keys}
    # perfbench's loo-mid still writes [cv] per_state, which has no effect.
    assert declared - read == {("cv", "per_state")}


def test_benchmark_hooks_resolve():
    # perfbench/tracing.py wraps each (module, attribute) of WRAPPED with a
    # plain getattr and reads each solved component's indices and exact
    # flag, and perfbench/workloads.py imports names from strandgp:
    # removing or renaming any of them stops the benchmark.
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(root, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.WRAPPED:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    assert {"indices", "exact"} <= {f.name for f in dataclasses.fields(ComponentReport)}
    with open(os.path.join(root, "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "strandgp"
                for alias in node.names]
    assert ("strandgp", "make_posterior_model") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_tracer_replacements_reach_the_commands(pipeline, tmp_path):
    # perfbench/tracing.py looks each name up on strandgp.cli, sets a wrapper
    # in its place and restores the original afterwards.  The command must
    # call whatever the module holds at that moment: a name a command
    # imported for itself would escape the tracer.
    from strandgp import cli

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(root, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    uses = {
        "fit": ["load_expression", "load_annotation", "build_design_matrix",
                "make_posterior_model", "run_chain", "write_samples"],
        "test": ["read_samples", "estimate_prior_correlation", "form_groups", "calibrate_beta",
                 "draw_prior_psi", "build_decision_report"],
        "lrbh": ["run_baseline"],
    }
    assert {attr for module, attr, _ in tracing.WRAPPED if module == "strandgp.cli"} \
        == {name for names in uses.values() for name in names}
    config = write_config(tmp_path / "run.ini", pipeline["data"], tmp_path / "out")

    class Called(Exception):
        pass

    def stand_in(*args, **kwargs):
        raise Called

    for command, names in uses.items():
        for name in names:
            if name in cli._SOURCE:  # start unbound, as in a fresh process
                vars(cli).pop(name, None)
            original = getattr(cli, name)
            setattr(cli, name, stand_in)
            try:
                with pytest.raises(Called):
                    main([command, "--config", config])
            finally:
                setattr(cli, name, original)
        assert main([command, "--config", config]) == 0, command


def test_files_have_one_writer():
    # util.write_csv and util.write_json fix the dialect and the number
    # format of every CSV and JSON file the package writes.
    package = os.path.dirname(os.path.abspath(strandgp.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "util.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            found += [(name, call) for call in ("csv.writer(", "json.dump(") if call in text]
    assert found == []


def test_test_command_runs_at_study_shape_under_default_priors(tmp_path):
    # 522 units, 18 patients, 46 strands, default [priors] and [testing]:
    # the prior step factors nothing, so no draw can fail certification.
    # The stored chain is synthetic: effects around each unit's column mean.
    data_dir = tmp_path / "data"
    assert main(["simulate", "--out", str(data_dir), "--m", "522", "--n", "18",
                 "--strands", "46", "--seed", "1"]) == 0
    config = tmp_path / "run.ini"
    config.write_text(f"""
[data]
case = {data_dir}/case.csv
control = {data_dir}/control.csv
annotation = {data_dir}/annotation.csv
output_dir = {tmp_path}/out
""")
    names = (data_dir / "case.csv").read_text().splitlines()[0].split(",")[1:]
    z = (np.loadtxt(data_dir / "case.csv", delimiter=",", skiprows=1, usecols=range(1, 523))
         - np.loadtxt(data_dir / "control.csv", delimiter=",", skiprows=1, usecols=range(1, 523)))
    rng = np.random.default_rng(0)
    draws = np.zeros((400, 522 + 3 * 46 + 1))
    draws[:, :522] = z.mean(axis=0) + z.std(axis=0, ddof=1) / np.sqrt(18) * rng.standard_normal((400, 522))
    os.makedirs(tmp_path / "out")
    write_samples(tmp_path / "out" / "samples.bin", PosteriorSamples(
        draws=draws, names=[f"psi:{n}" for n in names] + [f"x{i}" for i in range(3 * 46 + 1)],
        acceptance_rate=0.3, scales=np.ones(draws.shape[1]),
        config=SamplerConfig(n_iterations=400, seed=0), block_info=[], meta={"m": 522, "k": 46}))
    assert main(["test", "--config", str(config)]) == 0
    correlation = np.loadtxt(tmp_path / "out" / "prior_correlation.csv", delimiter=",", skiprows=1)
    assert correlation.shape == (522, 522)
    with open(tmp_path / "out" / "decisions.csv", encoding="utf-8") as fh:
        rows = fh.read().strip().splitlines()[1:]
    assert len(rows) == 522
    assert all(0.0 < float(row.split(",")[6]) < math.inf for row in rows)


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("key, value", [("varrho2_variance", "1e300"), ("nu_mode", "1e-300")])
    def test_unsolvable_prior_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        # Positive and finite, so the config loads; the hyperprior has no
        # floating-point solution, which shows once fit builds it.
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--m", "4", "--n", "5",
                     "--strands", "2", "--seed", "0"]) == 0
        config = write_config(tmp_path / "run.ini", data_dir, tmp_path / "out",
                              extra=f"[priors]\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["fit", "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"priors.{key}" in err
        assert not (tmp_path / "out" / "samples.bin").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_exits_2_naming_the_variable(self, pipeline, monkeypatch, capsys,
                                                           threads):
        # The prior Monte Carlo of test reads STRANDGP_THREADS.
        monkeypatch.setenv("STRANDGP_THREADS", threads)
        with pytest.raises(ConfigError, match=f"STRANDGP_THREADS must be a positive integer, "
                                              f"got '{re.escape(threads)}'"):
            worker_count()
        capsys.readouterr()
        assert main(["test", "--config", pipeline["config"]]) == 2
        assert "STRANDGP_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["data.case", "data.output_dir", "--out"])
    def test_path_of_the_wrong_kind_exits_2_naming_the_setting(self, pipeline, tmp_path, capsys,
                                                                setting):
        # A directory where a file belongs, or a file where a directory
        # belongs.
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        if setting == "--out":
            argv = ["simulate", "--out", str(a_file), "--m", "4", "--strands", "2"]
        else:
            config = tmp_path / "run.ini"
            write_config(config, pipeline["data"],
                         a_file if setting == "data.output_dir" else tmp_path / "out")
            if setting == "data.case":
                config.write_text(config.read_text().replace("/case.csv", ""))
            argv = ["lrbh", "--config", str(config)]
        capsys.readouterr()
        assert main(argv) == 2
        assert setting in capsys.readouterr().err

    def test_samples_out_in_a_missing_directory_exits_2_before_sampling(
            self, pipeline, tmp_path, capsys, monkeypatch):
        from strandgp import cli

        def run_chain(*args, **kwargs):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(cli, "run_chain", run_chain)
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", pipeline["data"], out)
        capsys.readouterr()
        assert main(["fit", "--config", config, "--samples-out", str(tmp_path / "no" / "x.bin")]) == 2
        assert "--samples-out" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_cv_chain_that_stores_no_draw_exits_2_before_sampling(
            self, pipeline, tmp_path, capsys, monkeypatch):
        from strandgp import crossval

        def run_chains(*args, **kwargs):
            raise AssertionError("a fold ran")

        monkeypatch.setattr(crossval, "run_chains", run_chains)
        config = tmp_path / "run.ini"
        write_config(config, pipeline["data"], tmp_path / "out")
        config.write_text(config.read_text().replace("[cv]\niterations = 600\nburn_in = 200",
                                                     "[cv]\niterations = 3000\nburn_in = 3000"))
        capsys.readouterr()
        assert main(["cv", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("[cv] iterations", "burn_in", "thin")), err
        assert not (tmp_path / "out").exists()

    def test_unwritable_samples_file_exits_2(self, pipeline, tmp_path, capsys):
        # The path names a directory, so only the write itself can fail.
        out = tmp_path / "out"
        config = tmp_path / "run.ini"
        write_config(config, pipeline["data"], out)
        config.write_text(config.read_text().replace("iterations = 3000\nburn_in = 1000",
                                                     "iterations = 20\nburn_in = 10"))
        capsys.readouterr()
        assert main(["fit", "--config", str(config), "--samples-out", str(tmp_path)]) == 2
        assert f"cannot write samples file {tmp_path}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_missing_data_file(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(f"""
[data]
case = {tmp_path}/missing.csv
control = {tmp_path}/missing2.csv
annotation = {tmp_path}/ann.csv
output_dir = {tmp_path}/out
""")
        assert main(["fit", "--config", str(config)]) == 2

    def test_empty_chain_then_test_fails_cleanly(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--m", "4", "--n", "5",
                     "--strands", "2", "--seed", "0"]) == 0
        config = tmp_path / "run.ini"
        config.write_text(f"""
[data]
case = {data_dir}/case.csv
control = {data_dir}/control.csv
annotation = {data_dir}/annotation.csv
output_dir = {tmp_path}/out

[sampler]
iterations = 500
burn_in = 500

[run]
seed = 0
""")
        assert main(["fit", "--config", str(config)]) == 0
        draws, _ = read_samples(tmp_path / "out" / "samples.bin")
        assert draws.shape[0] == 0
        assert main(["test", "--config", str(config)]) == 2


class TestAnnotationChecks:
    """``fit`` refuses, with exit 2 naming the file and line, a coordinate or
    a chromosome length that is not finite, and a chromosome given two
    lengths; naming the file and chromosome, a lengths file that omits an
    annotated chromosome or gives one a length below its loci."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--m", "4", "--n", "5",
                     "--strands", "2", "--seed", "0"]) == 0
        config = tmp_path / "run.ini"
        write_config(config, data_dir, tmp_path / "out")
        config.write_text(config.read_text().replace(
            "output_dir =", f"lengths = {data_dir}/lengths.csv\noutput_dir ="))
        (data_dir / "lengths.csv").write_text("chromosome,length\nChr1,1e6\nChr2,1e6\n")
        capsys.readouterr()

        def fit():
            code = main(["fit", "--config", str(config)])
            assert not (tmp_path / "out" / "samples.bin").exists()
            return code, capsys.readouterr().err
        return data_dir, fit

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate(self, run, value):
        data_dir, fit = run
        path = data_dir / "annotation.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3] + [value])
        path.write_text("\n".join(lines) + "\n")
        code, err = fit()
        assert code == 2
        assert f"annotation.csv:3: non-finite coordinate '{value}'" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_length(self, run, value):
        data_dir, fit = run
        (data_dir / "lengths.csv").write_text(f"chromosome,length\nChr1,1e6\nChr2,{value}\n")
        code, err = fit()
        assert code == 2
        assert f"lengths.csv:3: non-finite length '{value}'" in err

    @pytest.mark.parametrize("lengths, message", [
        ("Chr1,1e6\n", "lengths.csv: no length for chromosome 'Chr2'"),
        ("Chr1,1e6\nChr2,50\n", "lengths.csv: length 50 of chromosome 'Chr2' is below its locus"),
    ])
    def test_lengths_must_cover_each_chromosome(self, run, lengths, message):
        data_dir, fit = run
        (data_dir / "lengths.csv").write_text("chromosome,length\n" + lengths)
        code, err = fit()
        assert code == 2
        assert message in err

    def test_repeated_chromosome_length(self, run):
        data_dir, fit = run
        (data_dir / "lengths.csv").write_text("chromosome,length\nChr1,1e6\nChr2,1e6\nChr1,5e5\n")
        code, err = fit()
        assert code == 2
        assert "lengths.csv:4: second length for chromosome 'Chr1'" in err


class TestSamplesChecks:
    """``test`` refuses, with exit 2, a samples file that it cannot read or
    whose effect columns are not the dataset's units in its order."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--m", "4", "--n", "5",
                     "--strands", "2", "--seed", "0"]) == 0
        config = write_config(tmp_path / "run.ini", data_dir, tmp_path / "out")
        units = (data_dir / "case.csv").read_text().splitlines()[0].split(",")[1:]
        path = tmp_path / "s.bin"

        def run(header: bytes, columns: int = 8, magic: bytes = b"#strandgp-samples v1"):
            body = np.random.default_rng(0).normal(size=(5, columns)).astype("<f8").tobytes()
            path.write_bytes(magic + b"\n" + header + b"\n#data float64\n" + body)
            capsys.readouterr()
            code = main(["test", "--config", config, "--samples", str(path)])
            return code, capsys.readouterr().err

        run.units = units
        return run

    @pytest.mark.parametrize("header, message", [
        (b"{not json", "not JSON"),
        (b'{"m": 4}', "no column names"),
        (b'{"names": []}', "no column names"),
        (b'["psi:a"]', "no column names"),
    ])
    def test_malformed_header_exits_2(self, run, header, message):
        code, err = run(header)
        assert code == 2
        assert message in err

    def test_missing_file_exits_2(self, run, tmp_path, capsys):
        config = str(tmp_path / "run.ini")
        assert main(["test", "--config", config, "--samples", str(tmp_path / "none.bin")]) == 2
        assert "cannot read samples file" in capsys.readouterr().err

    def test_binary_file_exits_2(self, run):
        # A first line that is not UTF-8, as in a NumPy .npy file.
        code, err = run(b"{}", magic=b"\x93NUMPY\x01\x00")
        assert code == 2
        assert "not a samples file" in err

    def test_other_units_exit_2(self, run):
        # Same unit count as the dataset, units in another order.
        names = [f"psi:{u}" for u in reversed(run.units)] + [f"x{i}" for i in range(4)]
        code, err = run(json.dumps({"m": 4, "names": names}).encode())
        assert code == 2
        assert "effect columns" in err

    def test_too_few_effect_columns_exit_2(self, run):
        names = [f"psi:{u}" for u in run.units[:3]]
        code, err = run(json.dumps({"names": names}).encode(), columns=3)
        assert code == 2
        assert "effect columns" in err


class TestIntegrationFit:
    def test_acceptance_rate_lands_in_tuned_band(self, tmp_path):
        # 50-unit end-to-end fit: the manifest must record a post-burn-in
        # acceptance rate inside the configured band.
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--m", "50", "--n", "18",
                     "--strands", "5", "--seed", "0", "--planted", "10"]) == 0
        config = tmp_path / "run.ini"
        config.write_text(f"""
[data]
case = {data_dir}/case.csv
control = {data_dir}/control.csv
annotation = {data_dir}/annotation.csv
output_dir = {tmp_path}/out

[sampler]
iterations = 26000
burn_in = 20000
thin = 4

[run]
seed = 0
""")
        assert main(["fit", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 0.20 <= manifest["acceptance_rate"] <= 0.35


class TestSimulateCommand:
    def test_more_strands_than_units_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--m", "3",
                     "--strands", "5"]) == 2
        assert "--strands" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag, value", [("--planted", "-1"), ("--planted", "5"),
                                             ("--n", "1"), ("--n", "0"), ("--seed", "-1")])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, flag, value):
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--m", "4",
                     "--strands", "2", flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_planted_truth_recorded(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--m", "10", "--n", "4",
                     "--strands", "2", "--seed", "3", "--planted", "4",
                     "--signal", "3.0"]) == 0
        truth = (out / "truth.csv").read_text().strip().splitlines()
        assert truth[0] == "mirna,psi_true,deregulated"
        flags = [line.split(",")[2] for line in truth[1:]]
        assert flags.count("1") == 4

    def test_case_minus_control_equals_z(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--m", "5", "--n", "4",
                     "--strands", "2", "--seed", "9"]) == 0
        from strandgp import load_expression

        ds = load_expression(out / "case.csv", out / "control.csv")
        np.testing.assert_array_equal(ds.z, ds.case - ds.control)
        assert ds.n_mirnas == 5

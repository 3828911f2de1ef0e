import concurrent.futures
import copy
import csv
import dataclasses
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tomllib
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
import yaml

import kdvbbm as kb
import kdvbbm.cli as cli


def _write_config(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def _small_sim(**extra):
    cfg = {
        "run": {"seed": 3},
        "initial": {"family": "cos_mode", "k": 1, "amplitude": 0.05},
        "solver": {"T": 0.2, "dt": 0.005, "record_every": 10},
    }
    for section, values in extra.items():
        cfg.setdefault(section, {}).update(values)
    return cfg


def _small_radius():
    return {
        "run": {"seed": 5},
        "initial": {"family": "gevrey_synthetic", "sigma0": 0.6,
                    "roll_off": 2.0, "amplitude": 0.002},
        "solver": {"T": 0.5, "dt": 0.002, "record_every": 25},
        "analyticity": {"sigma0": 0.5},
    }


def _small_picard():
    return {
        "run": {"seed": 7},
        "initial": {"family": "cos_mode", "k": 1, "amplitude": 0.01},
        "solver": {"T": "auto", "dt": 0.01, "n_nodes": 32},
        "analyticity": {"sigma0": 0.1},
    }


def _small_estimates():
    return {
        "run": {"seed": 11},
        "estimates": {"n_trials": 30, "failure_ks": [8, 16]},
    }


#: The pinned expansion parameters, which derive params.DEFAULT_COEFFICIENTS.
_ABCD = {
    "a": 1 / 12, "b": 1 / 12, "c": 1 / 12, "d": 1 / 12,
    "a1": 4 / 45, "b1": 1 / 20, "c1": 4 / 45, "d1": 1 / 20,
}


def _manifest(outdir):
    (rundir,) = [d for d in os.listdir(outdir) if not d.startswith(".")]
    with open(os.path.join(outdir, rundir, "manifest.json")) as fh:
        return json.load(fh), os.path.join(outdir, rundir)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _config_error(capsys, argv, out):
    """The one stderr line of a run that exits 2 with nothing under --out."""
    assert cli.main([*argv, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not out.exists()
    return lines[0]


class TestConfig:
    @pytest.mark.parametrize("document", ["[]", "false", "0", "''", "[1]"])
    def test_non_mapping_document_rejected(self, tmp_path, capsys, document):
        # only an empty document stands for the defaults; a falsy one is not a mapping
        path = tmp_path / "c.yaml"
        path.write_text(document + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
        assert "must be a mapping at top level" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_document_loads_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("", encoding="utf-8")
        assert cli.load_config(str(path)).data == cli.RunConfig({}).data

    def test_repeated_campaign_rejected(self, tmp_path, capsys):
        # a second run of a campaign would overwrite the first one's CSV and check
        path = _write_config(tmp_path / "c.yaml", _small_estimates())
        out = tmp_path / "out"
        repeated = "estimates.campaigns=[bilinear_omega, bilinear_tau, bilinear_omega]"
        assert cli.main(["estimates", path, "--out", str(out), "--set", repeated]) == 2
        err = capsys.readouterr().err
        assert "estimates.campaigns" in err and "'bilinear_omega'" in err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", {"bogus": 1})
        assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", {"solver": {"Dt": 0.1}})
        assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 2

    def test_invalid_coefficients_fail_before_compute(self, tmp_path, capsys):
        # the CoefficientSet constructor names the invariant with the largest residual
        cfg = _small_sim(coefficients={"delta1": -1.0})
        path = _write_config(tmp_path / "c.yaml", cfg)
        line = _config_error(capsys, ["simulate", path], tmp_path / "out")
        assert line.startswith(
            "config error: coefficients: constraint violated: delta2 - delta1 = 19/360 - gamma1/6"
        )

    def test_invalid_abcd_coefficients_fail_before_compute(self, tmp_path, capsys):
        abcd = {
            "a": 1 / 12, "b": 1 / 12, "c": 1 / 12, "d": 1 / 12,
            "a1": 4 / 45, "b1": -1.0, "c1": 4 / 45, "d1": -1.0,
        }
        path = _write_config(tmp_path / "c.yaml", _small_sim(coefficients={"abcd": abcd}))
        line = _config_error(capsys, ["simulate", path], tmp_path / "out")
        assert line.startswith("config error: coefficients: constraint violated: ")

    def test_missing_config_file(self, tmp_path, capsys):
        line = _config_error(capsys, ["simulate", str(tmp_path / "none.yaml")], tmp_path / "out")
        assert line.startswith(f"config error: cannot read config {tmp_path / 'none.yaml'}: ")

    def test_unparsable_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [1\n", encoding="utf-8")
        line = _config_error(capsys, ["simulate", str(path)], tmp_path / "out")
        assert line == (
            f"config error: cannot parse config {path}: "
            "expected ',' or ']', but got '<stream end>' at line 2, column 1"
        )

    def test_section_not_a_mapping(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", {"grid": 3})
        line = _config_error(capsys, ["simulate", path], tmp_path / "out")
        assert line == "config error: grid: expected a mapping, got int"

    @pytest.mark.parametrize(
        "override, message",
        [
            ("grid", "override 'grid' must look like section.key=value"),
            (".n_modes=64", "override '.n_modes=64' has an empty key component"),
            (
                "grid.n_modes=[1",
                "override 'grid.n_modes=[1': cannot parse value: "
                "expected ',' or ']', but got '<stream end>' at line 1, column 3",
            ),
            ("grid.n_modes.x=1", "override 'grid.n_modes.x=1': n_modes is not a section"),
        ],
    )
    def test_malformed_override(self, tmp_path, capsys, override, message):
        path = _write_config(tmp_path / "c.yaml", _small_sim(grid={"n_modes": 64}))
        line = _config_error(capsys, ["simulate", path, "--set", override], tmp_path / "out")
        assert line == f"config error: {message}"

    def test_unparsable_sweep_value_is_one_line(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        argv = ["sweep", path, "--out", str(out), "--set", "grid.n_modes=[1", "--workers", "1"]
        assert cli.main(argv) == 2
        with open(out / "sweep_manifest.json") as fh:
            (point,) = json.load(fh)["points"]
        assert point["error"].startswith("config error: override 'grid.n_modes=[1': ")
        assert "\n" not in point["error"]

    def test_auto_horizon_on_zero_datum(self, tmp_path, capsys):
        # T_bar is unbounded for a zero datum, so picard has no window to solve on
        path = _write_config(tmp_path / "c.yaml", _small_picard())
        argv = ["picard", path, "--set", "initial.amplitude=0"]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == "config error: solver.T: 'auto' needs a nonzero datum"

    @pytest.mark.parametrize("s", [-40, -200])
    @pytest.mark.parametrize("command", ["simulate", "picard"])
    def test_overflowing_existence_constant(self, tmp_path, capsys, command, s):
        # the existence constant's terms overflow at a very negative s: rejected before any
        # march, with no window of NaN and no floating-point warning
        cfg = _small_sim(
            grid={"n_modes": 64, "half_length": np.pi},
            initial={"family": "gaussian", "width": 0.3, "amplitude": 0.5},
            analyticity={"s": s},
        )
        path = _write_config(tmp_path / "c.yaml", cfg)
        line = _config_error(capsys, [command, path], tmp_path / "out")
        assert line.startswith("config error: analyticity: the ")
        assert line.endswith(
            f"bound overflows at s = {float(s)}, L = 3.142; s is too small, or L too large, "
            "for double precision"
        )

    @pytest.mark.parametrize(
        "command, solver", [("simulate", {"T": 0.01, "dt": 0.001}), ("picard", {"T": "auto"})]
    )
    def test_overlong_grid_bound_overflows(self, tmp_path, capsys, command, solver):
        # the bound divides by (2L)^2, which leaves double range at L = 1e300: one line, as for
        # a sum that overflows, in place of a traceback and an internal error
        path = _write_config(tmp_path / "c.yaml", {"grid": {"half_length": 1.0e300}, "solver": solver})
        line = _config_error(capsys, [command, path], tmp_path / "out")
        assert line == (
            "config error: analyticity: the trilinear_psi bound overflows at s = 2.0, L = 1e+300; "
            "s is too small, or L too large, for double precision"
        )

    def test_overlong_grid_estimates_is_a_runtime_error(self, tmp_path, capfd):
        # the trilinear campaign's right-side norms, about 1e151 each, overflow in their product:
        # one line, no numpy warning and nothing on disk, where ratio_max read 0.0
        path = _write_config(tmp_path / "c.yaml", {"grid": {"half_length": 1.0e300}})
        out = tmp_path / "out"
        assert cli.main(["estimates", path, "--out", str(out), "--set", "estimates.n_trials=2"]) == 3
        assert capfd.readouterr().err.splitlines() == [
            "runtime error: the trilinear_psi ratio needs finite norms and nonzero fields"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, half_length, expected",
        [
            ("simulate", 1.0e-300,
             "config error: analyticity: 2*sigma*<xi_max> = 4.021e+302 exceeds 650.0; "
             "sigma is too large for this grid"),
            ("radius", 1.0e300,
             "config error: analyticity: the first sigma step would take 6.796e+296 sub-steps "
             "(X0 = 8.244e+148), more than 10,000; lower solver.dt or X0 (analyticity.sigma0, "
             "analyticity.s or the datum), or raise analyticity.max_rel_step"),
        ],
    )
    def test_extreme_grid_messages_stay_short(self, tmp_path, capsys, command, half_length, expected):
        # numbers of hundreds of digits print to 4 significant digits
        path = _write_config(tmp_path / "c.yaml", {"grid": {"half_length": half_length}})
        line = _config_error(capsys, [command, path], tmp_path / "out")
        assert line == expected
        assert len(line) < 250

    @pytest.mark.parametrize(
        "initial, section",
        [
            ({"family": "gevrey_synthetic", "roll_off": -400}, "initial"),
            ({"amplitude": 1.0e200}, "analyticity"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "radius", "picard", "estimates"])
    def test_overflowing_datum_rejected(self, tmp_path, capsys, command, initial, section):
        # RunConfig builds every input for every command: a datum with an Inf coefficient
        # fails the Spectrum gate and one whose X0 overflows fails gevrey_norm, each with no
        # floating-point warning and before any compute
        path = _write_config(tmp_path / "c.yaml", {"initial": initial})
        line = _config_error(capsys, [command, path], tmp_path / "out")
        assert line.startswith(f"config error: {section}: "), line

    def test_underflowing_gaussian_is_a_field(self, tmp_path, capsys):
        # a bump far narrower than the grid spacing samples to one spike at x = 0: a valid
        # datum, built with no floating-point warning
        cfg = dict(_small_estimates(), initial={"family": "gaussian", "width": 1.0e-300})
        path = _write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["estimates", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_type_errors_rejected(self, tmp_path):
        cfg = _small_sim()
        cfg["grid"] = {"n_modes": "many"}
        path = _write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            "estimates.n_trials=0",
            "checks.existence_trials=0",
            "estimates.failure_ks=[8, x]",
            "estimates.failure_ks=[8]",
            "estimates.failure_ks=[2, 2]",
            "estimates.failure_ks=[8, 4]",
            "estimates.cutoff=ten",
            "estimates.cutoff=2.5",
            "solver.dt=fast",
            "solver.dt=nan",
            "estimates.interpolation_combos=[[2.0, 0.0, 0.5]]",
            "estimates.interpolation_combos=[[0.0, 2.0, 1.5]]",
            "estimates.interpolation_combos=[[0.0, x, 0.5]]",
            "estimates.sigma=-1",
            "estimates.sigma=100",
            "estimates.s=400",
            "initial.sigma0=-1",
            "run.seed=-1",
            "checks.existence_seed=-1",
            "estimates.interpolation_combos=[]",
            "solver.tol=-1",
            "analyticity.s=.nan",
            "estimates.cutoff=0",
            "estimates.rate=-5",
            "estimates.power=-1",
            "coefficients.abcd={a: [1], b: 0.0833, c: 0.0833, d: 0.0833,"
            " a1: 0.0889, b1: 0.05, c1: 0.0889, d1: 0.05}",
            "initial.k=128",  # cos_mode needs k < n/2 = 128
            "estimates.s=0.5",  # derivsq_psi, a default campaign, needs s >= 1
        ],
    )
    def test_bad_values_rejected_before_compute(self, tmp_path, override):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        assert cli.main(["estimates", path, "--out", str(out), "--set", override]) == 2
        assert not out.exists()

    def test_variant_knob_removed(self, tmp_path, capsys):
        # the tracked march evaluates the exact-integral lower bound, with no key to pick another
        path = _write_config(tmp_path / "c.yaml", _small_sim(analyticity={"variant": "printed"}))
        line = _config_error(capsys, ["radius", path], tmp_path / "out")
        assert line == "config error: unknown config key: analyticity.variant"

    @pytest.mark.parametrize(
        "key", ["energy_drift_tol", "h2_band_slack", "growth_slack", "contraction_limit", "crosscheck_tol"]
    )
    @pytest.mark.parametrize("where", ["file", "override"])
    def test_tolerance_keys_removed(self, tmp_path, capsys, key, where):
        # the gate tolerances are constants of cli (cli.TOLERANCES), so no config moves a verdict
        raw = _small_sim()
        if where == "file":
            raw["checks"] = {key: 1.0e9}
        path = _write_config(tmp_path / "c.yaml", raw)
        argv = ["simulate", path, *(["--set", f"checks.{key}=1e9"] if where == "override" else [])]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == f"config error: unknown config key: checks.{key}"

    @pytest.mark.parametrize(
        "key", ["analyticity.noise_floor", "solver.blowup_factor", "estimates.failure_s"]
    )
    @pytest.mark.parametrize("where", ["file", "override"])
    def test_policy_keys_removed(self, tmp_path, capsys, key, where):
        # the tail fit's floor, the march's ceiling and the failure demo's s are constants of
        # analyticity, dynamics and estimates, so no config moves the outcome they shape
        section, name = key.split(".")
        raw = _small_sim()
        if where == "file":
            raw.setdefault(section, {})[name] = -1.0
        path = _write_config(tmp_path / "c.yaml", raw)
        argv = ["estimates", path, *(["--set", f"{key}=-1.0"] if where == "override" else [])]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == f"config error: unknown config key: {key}"

    def test_default_coefficients_have_one_owner(self):
        # the schema's defaults are params.DEFAULT_COEFFICIENTS, so the default run models it
        assert cli.RunConfig({}).coefficients == kb.DEFAULT_COEFFICIENTS
        defaults = {name: spec[0] for name, spec in cli._SCHEMA["coefficients"].items()}
        assert defaults == {**dataclasses.asdict(kb.DEFAULT_COEFFICIENTS), "abcd": None}

    def test_calibration_fraction_knob_removed(self, tmp_path, capsys):
        # both radius bounds are closed-form, so there is no prefix to calibrate them on
        cfg = _small_radius()
        cfg["analyticity"]["calibration_fraction"] = 0.1
        path = _write_config(tmp_path / "c.yaml", cfg)
        line = _config_error(capsys, ["radius", path], tmp_path / "out")
        assert line == "config error: unknown config key: analyticity.calibration_fraction"

    def test_duplicate_key_in_file_rejected(self, tmp_path, capsys):
        # safe_load would keep the second solver mapping, and with it the default T and dt
        path = tmp_path / "c.yaml"
        path.write_text(
            "solver:\n  T: 0.1\n  dt: 0.01\nsolver:\n  record_every: 5\n", encoding="utf-8"
        )
        line = _config_error(capsys, ["simulate", str(path)], tmp_path / "out")
        assert line == (
            f"config error: cannot parse config {path}: duplicate key 'solver' at line 4, column 1"
        )

    def test_merge_key_loads(self, tmp_path):
        # a YAML merge key (<<) is PyYAML's to expand, not a key of the mapping it sits in
        path = tmp_path / "c.yaml"
        path.write_text("solver: {<<: {T: 0.1, dt: 0.01}, record_every: 5}\n", encoding="utf-8")
        solver = cli.load_config(str(path)).data["solver"]
        assert (solver["T"], solver["dt"], solver["record_every"]) == (0.1, 0.01, 5)

    def test_duplicate_key_beside_merge_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text(
            "solver: {<<: {T: 0.1}, record_every: 5, record_every: 6}\n", encoding="utf-8"
        )
        line = _config_error(capsys, ["simulate", str(path)], tmp_path / "out")
        assert line.startswith(f"config error: cannot parse config {path}: duplicate key 'record_every'")

    def test_duplicate_key_in_override_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        spec = "solver={T: 0.1, T: 0.2}"
        line = _config_error(capsys, ["simulate", path, "--set", spec], tmp_path / "out")
        assert line == (
            f"config error: override {spec!r}: cannot parse value: "
            "duplicate key 'T' at line 1, column 10"
        )

    def test_rho_knob_removed(self, tmp_path, capsys):
        # rho = b + d - 1/6 is worked out from the other keys, so it is no key of its own
        abcd = {
            "a": 1 / 12, "b": 1 / 12, "c": 1 / 12, "d": 1 / 12,
            "a1": 4 / 45, "b1": 1 / 20, "c1": 4 / 45, "d1": 1 / 20, "rho": 0.0,
        }
        path = _write_config(tmp_path / "c.yaml", _small_sim(coefficients={"abcd": abcd}))
        line = _config_error(capsys, ["simulate", path], tmp_path / "out")
        assert line.startswith(
            "config error: coefficients.abcd: expected the keys a, b, c, d, a1, b1, c1, d1, got "
        )

    def test_unconfigured_campaign_not_weighed(self):
        # only the configured campaigns build their weights: an s2 of 400 overflows them
        # at sigma 0.1, but interpolation is not run
        est = {"campaigns": ["bilinear_tau"], "interpolation_combos": [[0.0, 400.0, 0.5]]}
        assert cli.RunConfig({"estimates": est}).data["estimates"]["campaigns"] == ["bilinear_tau"]
        with pytest.raises(cli.ConfigError, match="^estimates: "):
            cli.RunConfig({"estimates": {**est, "campaigns": ["interpolation"]}})

    def test_combos_stored_as_floats(self):
        cfg = cli.RunConfig({"estimates": {"interpolation_combos": [[0, 2, "5e-1"]]}})
        (combo,) = cfg.data["estimates"]["interpolation_combos"]
        assert combo == [0.0, 2.0, 0.5]
        assert all(type(v) is float for v in combo)

    def test_abcd_coefficients_accepted(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim(coefficients={"abcd": _ABCD}))
        assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 0

    def test_run_ids_pinned(self):
        # canonical_json, and with it every run id, is the identity of a config
        assert cli.RunConfig({}).run_id("simulate") == "simulate-3a53f4c531b4"
        assert cli.RunConfig({"coefficients": {"abcd": _ABCD}}).run_id("simulate") == "simulate-047594a7f3bd"

    @pytest.mark.parametrize("where", ["file", "override"])
    def test_abcd_excludes_direct_coefficients(self, tmp_path, capsys, where):
        # abcd derives all five coefficients, so a direct one beside it would be hashed and
        # recorded without entering the run
        raw = _small_sim(coefficients={"abcd": _ABCD})
        if where == "file":
            raw["coefficients"].update(gamma1=0.3, delta1=-5.0)
        path = _write_config(tmp_path / "c.yaml", raw)
        sets = ["--set", "coefficients.gamma1=0.3", "--set", "coefficients.delta1=-5.0"]
        argv = ["simulate", path, *(sets if where == "override" else [])]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == (
            "config error: coefficients: abcd derives every coefficient, so delta1, gamma1 cannot be set"
        )

    @pytest.mark.parametrize("key, message", [("run.label", "run.label"), ("output.directory", "output")])
    @pytest.mark.parametrize("where", ["file", "override"])
    def test_former_output_keys_removed(self, tmp_path, capsys, monkeypatch, key, message, where):
        # the config holds only what a run computes from; the output root is --out, else
        # KDVBBM_OUTPUT_ROOT, else runs
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        section, name = key.split(".")
        raw = _small_sim()
        if where == "file":
            raw.setdefault(section, {})[name] = "x"
        path = _write_config(tmp_path / "c.yaml", raw)
        argv = ["simulate", path, *(["--set", f"{key}=x"] if where == "override" else [])]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == f"config error: unknown config key: {message}"
        assert os.listdir(tmp_path) == ["c.yaml"]

    def test_abcd_spelling_gives_one_run(self, tmp_path):
        # an abcd value is stored as its float, as every number leaf is: b1 as 5e-2, which
        # YAML 1.1 reads as a string, is the run of b1 as 0.05
        runs = []
        for spelling in (0.05, "5e-2"):
            cfg = _small_sim(coefficients={"abcd": {**_ABCD, "b1": spelling}})
            path = _write_config(tmp_path / "c.yaml", cfg)
            out = str(tmp_path / f"out-{spelling}")
            assert cli.main(["simulate", path, "--out", out]) == 0
            manifest, rundir = _manifest(out)
            runs.append((os.path.basename(rundir), manifest["config"]))
        assert runs[0] == runs[1]
        assert runs[0][1]["coefficients"]["abcd"]["b1"] == 0.05

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A minimal configuration.*?```yaml\n(.*?)```", readme, re.S)
        assert block is not None
        path = tmp_path / "readme.yaml"
        path.write_text(block.group(1), encoding="utf-8")
        cfg = cli.load_config(str(path))
        assert cfg.data["analyticity"]["sigma0"] == 0.5
        assert "enabled" not in block.group(1)  # radius alone tracks sigma

    def test_override_flag(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out, "--set", "solver.T=0.1"]) == 0
        manifest, _ = _manifest(out)
        assert manifest["config"]["solver"]["T"] == 0.1


def _schema_leaves(schema=cli._SCHEMA, path=""):
    for key, spec in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from _schema_leaves(spec, here)
        else:
            yield here, spec


_LEAVES = dict(_schema_leaves())


class TestSchema:
    """Every leaf of the schema, including keys added later."""

    @pytest.mark.parametrize("path", sorted(_LEAVES))
    def test_default_passes_its_type(self, path):
        default, kind = _LEAVES[path]
        parsed = kind(copy.deepcopy(default), path)
        assert parsed == default
        assert type(parsed) is type(default)

    @pytest.mark.parametrize("wrong", [{"x": 1}, [{"x": 1}]], ids=["mapping", "list"])
    @pytest.mark.parametrize("path", sorted(_LEAVES))
    def test_wrong_kind_is_a_config_error(self, path, wrong):
        _, kind = _LEAVES[path]
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(path)}"):
            kind(wrong, path)


class TestSimulate:
    def test_small_run_passes(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        assert manifest["passed"] is True
        assert manifest["checks"]["energy_drift"]["passed"] is True
        names = {a["name"] for a in manifest["artifacts"]}
        assert {"trajectory.csv", "final_spectrum.csv"} <= names
        rows = _read_csv(os.path.join(rundir, "trajectory.csv"))
        assert rows[0]["t"] == "0"
        assert list(rows[0]) == list(cli.TRAJECTORY_COLUMNS)

    def test_zero_datum_columns(self, tmp_path):
        cfg = _small_sim(initial={"amplitude": 0.0}, analyticity={"sigma0": 0.5})
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        rows = _read_csv(os.path.join(rundir, "trajectory.csv"))
        assert all(float(r["energy"]) == 0.0 for r in rows)
        assert all(float(r["gevrey_norm"]) == 0.0 for r in rows)
        assert all(r["sigma_hat"] == "" for r in rows)  # fit undefined on empty spectra
        assert all(float(r["sigma_lower"]) == 0.5 for r in rows)
        assert all(float(r["sigma_upper"]) == 0.5 for r in rows)  # m = 0 on a zero datum
        assert manifest["checks"]["h2_band"].get("skipped") is True

    def test_h2_band_reads_each_record_value(self):
        # the h2_polynomial_sq column holds the value of each state, and the band reads it:
        # scaling the column moves the check, the states being unchanged
        cfg = cli.RunConfig(_small_sim())
        eta0, g = kb.gaussian(cfg.grid, 1.0, 0.5), cfg.gevrey_index
        traj = kb.evolve_ifrk4(eta0, 0.2, 0.005, cfg.coefficients, g, record_every=10)
        x0 = kb.gevrey_norm(eta0, g)
        t_bar = kb.local_existence_time(x0, kb.existence_constant(cfg.grid, g, cfg.coefficients))
        h2p = np.array([kb.h2_polynomial_sq(kb.Spectrum(traj.grid, d)) for d in traj.half])
        checks = cli._simulate_checks(cfg, traj, None, t_bar, x0)
        assert checks["h2_band"]["value"] == float(np.max(np.abs(h2p / h2p[0] - 1.0)))
        h2p[1:] *= 1.5
        traj = dataclasses.replace(traj, h2_polynomial_sq=h2p)
        checks = cli._simulate_checks(cfg, traj, None, t_bar, x0)
        assert checks["h2_band"]["value"] == float(np.max(np.abs(h2p / h2p[0] - 1.0)))

    def test_check_failure_gives_exit_one(self, tmp_path, monkeypatch):
        strict = dataclasses.replace(cli.TOLERANCES, energy_drift_tol=0.0)
        monkeypatch.setattr(cli, "TOLERANCES", strict)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        code = cli.main(["simulate", path, "--out", out])
        assert code == 1
        manifest, _ = _manifest(out)
        assert manifest["passed"] is False

    def test_non_hamiltonian_skips_energy_check(self, tmp_path):
        g1 = 0.1
        cfg = _small_sim(coefficients={
            "gamma1": g1, "gamma2": 1 / 6 - g1, "delta1": 0.05,
            "delta2": 0.05 + 19 / 360 - g1 / 6, "gamma": (5 - 18 * g1) / 24,
        })
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out]) == 0
        manifest, _ = _manifest(out)
        assert manifest["checks"]["energy_drift"].get("skipped") is True

    def test_existing_dir_needs_force(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out]) == 0
        assert cli.main(["simulate", path, "--out", out]) == 2
        assert cli.main(["simulate", path, "--out", out, "--force"]) == 0

    def test_left_over_staging_replaced(self, tmp_path):
        # a staging directory that a killed run with this process id left, stray file and all
        root = tmp_path / "out"
        rundir = cli.RunDirectory(str(root), "run", force=False)
        os.makedirs(rundir.staging)
        Path(rundir.path("stray.csv")).write_text("left over\n")
        with rundir:
            assert os.listdir(rundir.staging) == []
            Path(rundir.path("a.csv")).write_text("new\n")
        assert os.listdir(root) == ["run"]
        assert os.listdir(root / "run") == ["a.csv"]

    def test_raising_body_leaves_nothing(self, tmp_path):
        root = tmp_path / "out"
        with pytest.raises(RuntimeError, match="^body failed$"):
            with cli.RunDirectory(str(root), "run", force=False) as rundir:
                Path(rundir.path("a.csv")).write_text("partial\n")
                raise RuntimeError("body failed")
        assert os.listdir(root) == []

    def test_unwritable_artifact_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # strict JSON rejects a NaN after the CSV before it is staged: exit 3, and the
        # staging directory goes with the CSV in it
        def nan_runner(cfg, **options):
            return {"a.csv": (("x",), [(1.0,)]), "b.json": {"x": np.nan}}, {}

        monkeypatch.setattr(cli, "run_simulate", nan_runner)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        assert cli.main(["simulate", path, "--out", str(out)]) == 3
        assert os.listdir(out) == []
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("internal error: Out of range float values are not JSON compliant")

    def test_failed_force_promotion_keeps_old_run(self, tmp_path, monkeypatch):
        root = str(tmp_path / "out")
        with cli.RunDirectory(root, "run", force=False) as rundir:
            with open(rundir.path("a.csv"), "w") as fh:
                fh.write("old\n")
        real_replace = os.replace
        failures = []

        def replace_failing_promotion(src, dst):
            if os.path.basename(src).startswith(".staging-") and not failures:
                failures.append(src)
                raise OSError("simulated crash during promotion")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_promotion)
        with pytest.raises(OSError):
            with cli.RunDirectory(root, "run", force=True) as rundir:
                with open(rundir.path("a.csv"), "w") as fh:
                    fh.write("new\n")
        assert failures
        assert os.listdir(root) == ["run"]
        with open(os.path.join(root, "run", "a.csv")) as fh:
            assert fh.read() == "old\n"

    @pytest.mark.parametrize("window", ["since_enter", "at_rename"])
    def test_run_promoted_meanwhile_is_kept(self, tmp_path, monkeypatch, window):
        # a run with the same id promoted while ours ran is not replaced without --force
        root = tmp_path / "out"

        def promote_other():
            (root / "run").mkdir()
            (root / "run" / "a.csv").write_text("other\n")

        if window == "at_rename":
            real_replace = os.replace

            def replace_after_other(src, dst):
                if os.path.basename(src).startswith(".staging-"):
                    promote_other()
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace_after_other)
        with pytest.raises(cli.ConfigError, match="exists"):
            with cli.RunDirectory(str(root), "run", force=False) as rundir:
                Path(rundir.path("a.csv")).write_text("ours\n")
                if window == "since_enter":
                    promote_other()
        assert os.listdir(root) == ["run"]  # no .staging-* left behind
        assert (root / "run" / "a.csv").read_text() == "other\n"

    def test_failed_promotion_without_force_propagates(self, tmp_path, monkeypatch, capsys):
        # no run directory exists, and the rename of the staging directory fails: the OSError
        # propagates and neither a .staging-* nor a run directory is left
        real_replace = os.replace

        def refuse_staging(src, dst):
            if os.path.basename(src).startswith(".staging-"):
                raise OSError("simulated failure during promotion")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_staging)
        root = tmp_path / "lib"
        with pytest.raises(OSError, match="simulated failure"):
            with cli.RunDirectory(str(root), "run", force=False) as rundir:
                Path(rundir.path("a.csv")).write_text("ours\n")
        assert os.listdir(root) == []
        # through the command line: an internal error, exit 3
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        assert cli.main(["simulate", path, "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == "internal error: simulated failure during promotion"
        assert os.listdir(out) == []

    def test_blowup_leaves_no_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kb.dynamics, "BLOWUP_FACTOR", 0.5)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out]) == 3
        leftovers = os.listdir(out) if os.path.exists(out) else []
        assert leftovers == []

    @pytest.mark.parametrize(
        "command, config, spec, message",
        [
            ("simulate", _small_sim, "initial.amplitude=1e110", "exceeded ceiling"),
            ("simulate", _small_radius, "initial.roll_off=-50", "exceeded ceiling"),
            ("picard", _small_picard, "initial.amplitude=1e110", "non-finite distance"),
        ],
    )
    def test_overflow_leaves_no_artifacts(self, tmp_path, capfd, command, config, spec, message):
        # the integrators catch an overflow, without a numpy warning: the march by its
        # L2 ceiling, Picard by its distance
        path = _write_config(tmp_path / "c.yaml", config())
        out = tmp_path / "out"
        assert cli.main([command, path, "--out", str(out), "--set", spec]) == 3
        (line,) = capfd.readouterr().err.splitlines()
        assert line.startswith("runtime error: ") and message in line
        assert not out.exists()

    def test_memory_error_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a run larger than memory ends in one line, with no traceback and nothing on disk, and
        # a sweep point records that line; numpy raises a MemoryError subclass with this message
        message = "Unable to allocate 9.61 GiB for an array with shape (5000001, 129)"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "evolve_ifrk4", too_large)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        assert cli.main(["simulate", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"runtime error: {message}"]
        assert not out.exists()
        argv = ["sweep", path, "--out", str(out), "--workers", "1", "--set", "initial.amplitude=0.01"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "sweep_manifest.json").read_text())
        assert [p["error"] for p in summary["points"]] == [f"runtime error: {message}"]
        assert os.listdir(out) == ["sweep_manifest.json"]

    def test_sigma0_below_resolvable_radius_rejected(self, tmp_path, capsys):
        # pi/L = 1 on this grid, above the default sigma0 = 0.5: sigma(t) would collapse at once
        path = _write_config(tmp_path / "c.yaml", _small_sim(grid={"n_modes": 64, "half_length": np.pi}))
        out = tmp_path / "out"
        assert cli.main(["radius", path, "--out", str(out)]) == 2
        assert "analyticity.sigma0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "solver, planned", [({"dt": 2.0e-3}, "5.998e+10"), ({"T": 1e300, "dt": 1e300}, "inf")]
    )
    def test_unbounded_sigma_plan_rejected(self, tmp_path, capsys, monkeypatch, solver, planned):
        # X0 = 5.476e5 on the default grid: the first sigma step would plan 59,979,328,114
        # sub-steps (a count past any float at dt = 1e300), so radius exits 2 before it computes
        def not_entered(*args, **kwargs):
            raise AssertionError("computed")

        for name in ("existence_constant", "tracked_run", "evolve_ifrk4"):
            monkeypatch.setattr(cli, name, not_entered)
        cfg = {"initial": {"family": "gaussian", "width": 0.3, "amplitude": 3.0},
               "solver": solver, "analyticity": {"sigma0": 1.0, "s": 3.0}}
        path = _write_config(tmp_path / "c.yaml", cfg)
        line = _config_error(capsys, ["radius", path], tmp_path / "out")
        assert line.startswith(
            f"config error: analyticity: the first sigma step would take {planned} sub-steps "
            "(X0 = 5.476e+05), more than 10,000; "
        )

    @pytest.mark.parametrize("cap, code", [(0, 2), (1, 0)])
    def test_sigma_plan_cap_is_inclusive(self, tmp_path, monkeypatch, cap, code):
        # the small radius config plans one sub-step; simulate plans none, whatever the cap
        monkeypatch.setattr(cli, "MAX_SIGMA_SUBSTEPS", cap)
        path = _write_config(tmp_path / "c.yaml", _small_radius())
        assert cli.main(["radius", path, "--out", str(tmp_path / "radius")]) == code
        assert (tmp_path / "radius").exists() == (code == 0)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "simulate")]) == 0

    def test_simulate_never_tracks(self, tmp_path):
        # analyticity.enabled is read by nothing: radius alone tracks sigma, so simulate with
        # it set writes what simulate writes without it (on a grid radius would refuse)
        cfg = _small_sim(grid={"n_modes": 64, "half_length": np.pi})
        outs = {}
        for enabled in (False, True):
            cfg["analyticity"] = {"enabled": enabled}
            path = _write_config(tmp_path / f"{enabled}.yaml", cfg)
            outs[enabled] = str(tmp_path / f"out-{enabled}")
            assert cli.main(["simulate", path, "--out", outs[enabled]]) == 0
        (plain, _), (flagged, rundir) = (_manifest(outs[False]), _manifest(outs[True]))
        assert sorted(os.listdir(rundir)) == ["final_spectrum.csv", "manifest.json", "trajectory.csv"]
        assert flagged["checks"] == plain["checks"]
        assert not any(name.startswith("sigma") for name in flagged["checks"])
        assert flagged["artifacts"] == plain["artifacts"]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_root_not_a_directory(self, tmp_path, capfd, monkeypatch, command, below):
        # an existing file as the root, or as a component of it, is rejected before any compute
        def not_entered(*args, **kwargs):
            raise AssertionError("runner entered")

        for name in ("run_simulate", "run_picard", "run_estimates"):
            monkeypatch.setattr(cli, name, not_entered)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        blocker = tmp_path / "file"
        blocker.write_text("keep\n")
        out = blocker / "sub" if below else blocker
        argv = [command, path, "--out", str(out)]
        if command == "sweep":
            argv += ["--workers", "1", "--set", "run.seed=1,2"]
        assert cli.main(argv) == 2
        (line,) = capfd.readouterr().err.splitlines()
        assert line.startswith("config error: output root")
        assert sorted(os.listdir(tmp_path)) == ["c.yaml", "file"]
        assert blocker.read_text() == "keep\n"

    def test_output_root_one_rule(self, tmp_path, monkeypatch):
        # --out, else KDVBBM_OUTPUT_ROOT, else ./runs; wherever it lands, one config is one run
        monkeypatch.chdir(tmp_path)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        run_ids, made = [], {"c.yaml"}
        for out, env in [("cli-out", "env-out"), (None, "env-out"), (None, None)]:
            if env is None:
                monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
            else:
                monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, env)
            assert cli.main(["simulate", path, *(["--out", out] if out else [])]) == 0
            root = out or env or "runs"
            made.add(root)
            assert sorted(os.listdir(tmp_path)) == sorted(made)  # no other root was created
            _, rundir = _manifest(tmp_path / root)
            run_ids.append(os.path.basename(rundir))
        assert len(set(run_ids)) == 1


class TestFourModeGrid:
    """grid.n_modes = 4 passes the schema, so each command on it ends in a recorded outcome;
    the existence constant's bound sums over modes -1..1 there."""

    @pytest.mark.parametrize(
        "command, config",
        [
            ("simulate", _small_sim()),
            ("radius", _small_radius()),
            ("picard", dict(_small_picard(), solver={"T": 0.5, "dt": 0.01})),
        ],
    )
    def test_command_ends_without_traceback(self, tmp_path, capfd, command, config):
        cfg = copy.deepcopy(config)
        cfg["grid"] = {"n_modes": 4}
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        code = cli.main([command, path, "--out", out])
        err = capfd.readouterr().err
        assert code in (0, 1), err
        assert "Traceback" not in err and "error" not in err
        if command == "picard":
            _, rundir = _manifest(out)
            with open(os.path.join(rundir, "picard_meta.json")) as fh:
                assert json.load(fh)["existence_constant"] > 0


class TestRadius:
    def test_radius_run(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_radius())
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        assert manifest["checks"]["sigma_lower_le_tracked"]["passed"]
        assert manifest["checks"]["sigma_tracked_le_upper"]["passed"]
        rows = _read_csv(os.path.join(rundir, "trajectory.csv"))
        assert all(r["sigma_hat"] != "" for r in rows)
        assert float(rows[-1]["sigma_lower"]) <= float(rows[-1]["sigma_upper"])
        assert os.path.exists(os.path.join(rundir, "sigma.csv"))

    def test_upper_bound_from_energy(self, tmp_path):
        # sigma_upper is sigma0 e^{-(m + m^2) t}, m^2 the smallest recorded energy over
        # max(1, gamma1, delta1), with no fitted constant; the manifest records m, and Y0,
        # which tells whether the lower bound's sqrt(t) term ever acts
        path = _write_config(tmp_path / "c.yaml", _small_radius())
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        rows = _read_csv(os.path.join(rundir, "trajectory.csv"))
        coeffs = kb.DEFAULT_COEFFICIENTS
        energy = min(float(r["energy"]) for r in rows)
        m = np.sqrt(energy / max(1.0, coeffs.gamma1, coeffs.delta1))
        for r in rows:
            expected = 0.5 * np.exp(-(m + m * m) * float(r["t"]))
            assert float(r["sigma_upper"]) == pytest.approx(expected, rel=1e-15)
        assert manifest["checks"]["sigma_tracked_le_upper"]["value"] == pytest.approx(m, rel=1e-15)
        assert manifest["checks"]["sigma_lower_le_tracked"]["value"] == 0.0

    @pytest.mark.parametrize(
        "initial, analyticity, coefficients, note",
        [
            # a run whose fitted upper bound failed: sigma(t)/(sigma0 e^{-h2^2 t}) peaked
            # after the calibration prefix
            ({"family": "gaussian", "width": 1.0, "amplitude": 0.5}, {"s": 0.0}, None,
             "s = 0 < 2"),
            (None, None, {"gamma1": 0.1, "gamma2": 1 / 6 - 0.1, "delta1": 0.05,
                          "delta2": 0.05 + 19 / 360 - 0.1 / 6, "gamma": (5 - 18 * 0.1) / 24},
             "coefficients are not Hamiltonian (gamma != 7/48)"),
        ],
        ids=["s-below-2", "not-hamiltonian"],
    )
    def test_upper_bound_skipped(self, tmp_path, initial, analyticity, coefficients, note):
        cfg = _small_radius()
        if initial:
            cfg["initial"] = initial
        cfg["analyticity"].update(analyticity or {})
        if coefficients:
            cfg["coefficients"] = coefficients
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        check = manifest["checks"]["sigma_tracked_le_upper"]
        assert check["skipped"] is True and check["note"].startswith(note)
        assert manifest["passed"] is True
        rows = _read_csv(os.path.join(rundir, "trajectory.csv"))
        assert all(r["sigma_upper"] == "" and r["sigma_lower"] != "" for r in rows)


    def test_growth_gate_at_sigma0(self, tmp_path):
        # the trajectory's gevrey column is G at sigma(t) <= sigma0; the gate takes G at sigma0
        data = {
            "initial": {"family": "cos_mode", "k": 2, "amplitude": 0.1},
            "solver": {"T": 0.5, "dt": 0.005, "record_every": 10},
        }
        path = _write_config(tmp_path / "c.yaml", data)
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 0
        manifest, _ = _manifest(out)
        cfg = cli.load_config(path)
        g, (_, t_bar, _) = cfg.gevrey_index, cli._setup(cfg)
        traj = kb.evolve_ifrk4(cfg.initial_state, 0.5, 0.005, cfg.coefficients, g, record_every=10)
        expected = max(
            kb.gevrey_norm(kb.Spectrum(traj.grid, d), g) for t, d in zip(traj.t, traj.half) if t <= t_bar
        )
        assert manifest["checks"]["growth_bound"]["value"] == expected

    def test_collapse_is_a_failed_check(self, tmp_path):
        # sigma0 just above pi/L = 1/16 crosses it within T: a recorded outcome, not a crash
        path = _write_config(tmp_path / "c.yaml", _small_sim(analyticity={"sigma0": 0.07}))
        out = str(tmp_path / "out")
        assert cli.main(["radius", path, "--out", out]) == 1
        manifest, rundir = _manifest(out)
        names = {"trajectory.csv", "sigma.csv", "final_spectrum.csv", "manifest.json"}
        assert set(os.listdir(rundir)) == names
        failed = [name for name, c in manifest["checks"].items() if c.get("passed") is False]
        assert failed == ["sigma_resolvable"]
        entry = manifest["checks"]["sigma_resolvable"]
        sigma_rows = _read_csv(os.path.join(rundir, "sigma.csv"))
        first_below = next(r["t"] for r in sigma_rows if float(r["sigma"]) < 1.0 / 16.0)
        assert entry["limit"] == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert entry["value"] == min(float(r["sigma"]) for r in sigma_rows)
        assert entry["note"] == f"sigma < pi/L first at t = {float(first_below):.6g}"
        assert float(sigma_rows[-1]["t"]) == pytest.approx(0.2)


class TestGrowthGate:
    """One growth gate serves every command that marches or solves."""

    @pytest.mark.parametrize(
        "command, config",
        [("simulate", _small_sim), ("radius", _small_radius), ("picard", _small_picard)],
    )
    def test_same_entry_and_slack(self, tmp_path, monkeypatch, command, config):
        loose = dataclasses.replace(cli.TOLERANCES, growth_slack=0.5)
        monkeypatch.setattr(cli, "TOLERANCES", loose)
        path = _write_config(tmp_path / "c.yaml", config())
        out = str(tmp_path / "out")
        assert cli.main([command, path, "--out", out]) == 0
        manifest, _ = _manifest(out)
        entry = manifest["checks"]["growth_bound"]
        assert set(entry) == {"passed", "value", "limit", "note"}
        cfg = cli.load_config(path)
        x0 = kb.gevrey_norm(cfg.initial_state, cfg.gevrey_index)
        assert entry["limit"] == 2.0 * x0 * (1.0 + 0.5)
        assert entry["passed"] and entry["value"] <= entry["limit"]

    @pytest.mark.parametrize("s", [0.5, 0.0])
    @pytest.mark.parametrize(
        "command, config",
        [("simulate", _small_sim), ("radius", _small_radius), ("picard", _small_picard)],
    )
    def test_judged_below_s_one(self, tmp_path, command, config, s):
        # the existence constant is a bound on the grid at every s, so the gate has a window
        # there too, and picard's T: auto solves on it
        path = _write_config(tmp_path / "c.yaml", config())
        out = str(tmp_path / "out")
        assert cli.main([command, path, "--out", out, "--set", f"analyticity.s={s}"]) == 0
        manifest, rundir = _manifest(out)
        entry = manifest["checks"]["growth_bound"]
        assert set(entry) == {"passed", "value", "limit", "note"} and entry["passed"]
        cfg = cli.load_config(path, [f"analyticity.s={s}"])
        g = cfg.gevrey_index
        x0 = kb.gevrey_norm(cfg.initial_state, g)
        t_bar = kb.local_existence_time(x0, kb.existence_constant(cfg.grid, g, cfg.coefficients))
        assert entry["note"] == f"window T_bar = {t_bar:.6g}"
        if command == "picard":
            with open(os.path.join(rundir, "picard_meta.json")) as fh:
                meta = json.load(fh)
            assert meta["T"] == meta["existence_window"] == t_bar
            assert meta["existence_constant"] > 0


def _coarse_gaussian_picard():
    """A picard config whose 16 nodes are too coarse for the datum: both Picard gates fail."""
    return {
        "grid": {"n_modes": 64, "half_length": float(np.pi)},
        "initial": {"family": "gaussian", "width": 0.3, "amplitude": 0.5},
        "solver": {"T": 0.5, "dt": 0.05, "n_nodes": 16},
        "analyticity": {"sigma0": 0.1, "s": 0.5},
    }


class TestPicardCommand:
    def test_auto_window(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_picard())
        out = str(tmp_path / "out")
        assert cli.main(["picard", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        assert manifest["checks"]["contraction"]["passed"]
        assert manifest["checks"]["marcher_crosscheck"]["passed"]
        diag = _read_csv(os.path.join(rundir, "picard.csv"))
        assert len(diag) >= 2
        with open(os.path.join(rundir, "picard_meta.json")) as fh:
            meta = json.load(fh)
        assert meta["T"] > 0
        assert isinstance(meta["mesh_delta"], float)  # every solve is checked on a doubled mesh

    def test_zero_datum_artifacts_are_strict_json(self, tmp_path):
        # the window of a zero datum is unbounded: written as null, not as Infinity
        path = _write_config(tmp_path / "c.yaml", _small_picard())
        out = str(tmp_path / "out")
        argv = ["picard", path, "--out", out, "--set", "initial.amplitude=0", "--set", "solver.T=0.2"]
        assert cli.main(argv) == 0
        _, rundir = _manifest(out)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        names = sorted(name for name in os.listdir(rundir) if name.endswith(".json"))
        assert names == ["manifest.json", "picard_meta.json"]
        for name in names:
            with open(os.path.join(rundir, name)) as fh:
                data = json.load(fh, parse_constant=reject)
        assert data["existence_window"] is None  # picard_meta.json, the last name

    def test_max_iter_exhausted(self, tmp_path, capfd):
        # one sweep leaves the distance far above tol: exit 3, one line, no output root
        cfg = _small_picard()
        cfg["grid"] = {"n_modes": 64}
        cfg["solver"].update(T=0.5, n_nodes=16, max_iter=1)
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = tmp_path / "out"
        assert cli.main(["picard", path, "--out", str(out)]) == 3
        (line,) = capfd.readouterr().err.splitlines()
        assert line.startswith("runtime error: no convergence after 1 Picard iterations on 16 nodes")
        assert not out.exists()

    def test_mesh_refinement_failure_is_recorded(self, tmp_path):
        # two nodes over T = 35 leave a quadrature error far above tol (1.7e-7; over the
        # window T_bar = 3.87 it is 2.3e-10): exit 1 with every artifact written.  The
        # cross-check's 70 steps of dt = 0.5 pass, as 3,500 steps of 0.01 do
        path = _write_config(tmp_path / "c.yaml", _small_picard())
        out = str(tmp_path / "out")
        argv = ["picard", path, "--out", out, "--set", "solver.n_nodes=2",
                "--set", "solver.dt=0.5", "--set", "solver.T=35"]
        assert cli.main(argv) == 1
        manifest, rundir = _manifest(out)
        with open(os.path.join(rundir, "picard_meta.json")) as fh:
            meta = json.load(fh)
        failed = [name for name, c in manifest["checks"].items() if c.get("passed") is False]
        assert failed == ["mesh_refinement"]
        entry = manifest["checks"]["mesh_refinement"]
        assert entry == {"passed": False, "value": meta["mesh_delta"], "limit": 1e-9}
        assert meta["mesh_delta"] > 1e-9

    @pytest.mark.parametrize("tol", ["1e-9", "1e-3"])
    def test_mesh_refinement_limit_is_a_constant(self, tmp_path, tol):
        # 16 nodes leave a gaussian's fixed point 1.68e-5 off the doubled mesh's and 2.24e-5
        # off the IFRK4 march's (2.32e-5 when the looser tol stops an iteration earlier):
        # both gates fail against TOLERANCES at any solver.tol, which only stops the iteration
        path = _write_config(tmp_path / "c.yaml", _coarse_gaussian_picard())
        out = str(tmp_path / "out")
        assert cli.main(["picard", path, "--out", out, "--set", f"solver.tol={tol}"]) == 1
        manifest, _ = _manifest(out)
        failed = [name for name, c in manifest["checks"].items() if c.get("passed") is False]
        assert failed == ["marcher_crosscheck", "mesh_refinement"]
        entry = manifest["checks"]["mesh_refinement"]
        assert entry["limit"] == cli.TOLERANCES.mesh_refinement_limit == 1e-9
        assert entry["value"] == pytest.approx(1.68e-5, rel=0.01)
        entry = manifest["checks"]["marcher_crosscheck"]
        assert entry["limit"] == cli.TOLERANCES.crosscheck_tol == 1e-6
        assert entry["value"] == pytest.approx(2.24e-5 if tol == "1e-9" else 2.32e-5, rel=0.01)

    @pytest.mark.parametrize(
        "command, key",
        [("picard", "solver.mesh_check"), ("picard", "solver.crosscheck"),
         ("estimates", "estimates.failure_demo")],
    )
    @pytest.mark.parametrize("where", ["file", "set"])
    def test_no_switch_turns_a_step_off(self, tmp_path, capsys, command, key, where):
        # each key stays, since the benchmark writes it, but only as true: no config turns off
        # a Picard gate (here two that fail) or the failure demo
        section, leaf = key.split(".")
        cfg = _coarse_gaussian_picard()
        if where == "file":
            cfg.setdefault(section, {})[leaf] = False
        argv = [command, _write_config(tmp_path / "c.yaml", cfg)]
        if where == "set":
            argv += ["--set", f"{key}=false"]
        line = _config_error(capsys, argv, tmp_path / "out")
        assert line == f"config error: {key}: expected true (this step always runs), got False"
        cfg.setdefault(section, {})[leaf] = True
        assert cli.RunConfig(cfg).data[section][leaf] is True

    @pytest.mark.parametrize(
        "command, solver",
        [
            ("simulate", {"T": "auto"}),
            ("simulate", {"method": "picard", "T": "auto"}),
            ("simulate", {"method": "picard", "T": 0.2033, "dt": 0.005}),
            ("radius", {"method": "picard", "T": "auto"}),
            ("radius", {"method": "picard", "T": 0.2033, "dt": 0.005}),
            ("radius", {"T": "auto"}),
            ("simulate", {"T": 0.2033, "dt": 0.005}),
            ("radius", {"T": 0.2033, "dt": 0.005}),
        ],
    )
    def test_auto_needs_picard_method(self, tmp_path, capsys, command, solver):
        # simulate and radius march with IFRK4 whatever solver.method says: T is a whole
        # number of dt steps, and T: auto is the picard command's
        cfg = _small_sim()
        cfg["solver"].update(solver)
        path = _write_config(tmp_path / "c.yaml", cfg)
        line = _config_error(capsys, [command, path], tmp_path / "o")
        if solver["T"] == "auto":
            assert line == "config error: solver.T: 'auto' needs the picard command"
        else:
            assert line == "config error: solver: T = 0.2033 is not an integral multiple of dt = 0.005"

    @pytest.mark.parametrize("solver", [{"T": "auto"}, {"T": 0.4567, "dt": 0.01}])
    def test_command_picks_the_solver(self, tmp_path, solver):
        # no solver.method: the march's horizon rule is not picard's, whose cross-check
        # marches T in the whole number of steps nearest dt
        cfg = _small_picard()
        cfg["solver"].update(solver)
        assert "method" not in cfg["solver"]
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        assert cli.main(["picard", path, "--out", out]) == 0
        manifest, _ = _manifest(out)
        enabled = {name: c["passed"] for name, c in manifest["checks"].items() if "passed" in c}
        assert set(enabled) == {"contraction", "growth_bound", "mesh_refinement", "marcher_crosscheck"}
        assert all(enabled.values())


class TestEstimatesCommand:
    def test_small_campaign(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_estimates())
        out = str(tmp_path / "out")
        assert cli.main(["estimates", path, "--out", out]) == 0
        manifest, rundir = _manifest(out)
        assert manifest["checks"]["interpolation"]["passed"]
        assert manifest["checks"]["splitting_r1"]["passed"]
        assert manifest["checks"]["antisymmetry"]["passed"]
        assert manifest["checks"]["bilinear_omega"]["informational"] is True
        # estimate digests follow numpy's Generator streams, so the manifest names the release
        assert manifest["environment"] == {"python": platform.python_version(), "numpy": np.__version__}
        # one row per (s1, s2, theta) combo, in interpolation_combos order
        rows = _read_csv(os.path.join(rundir, "interpolation.csv"))
        combos = manifest["config"]["estimates"]["interpolation_combos"]
        grid, g = kb.SpectralGrid(256, 16.0 * np.pi), kb.GevreyIndex(0.1, 1.0)
        reports = kb.run_trials("interpolation", grid, g, kb.DEFAULT_COEFFICIENTS, 30, seed=11,
                                combos=combos)
        assert [row["ratio_max"] for row in rows] == [f"{rep.ratio_max:.17g}" for rep in reports]
        assert len(rows) == 5
        assert os.path.exists(os.path.join(rundir, "failure_demo.csv"))

    def test_reads_no_solver_key(self, tmp_path):
        # a horizon that is not a whole number of steps is no concern of the campaigns
        cfg = _small_estimates()
        cfg["estimates"]["campaigns"] = ["splitting_r1"]
        cfg["solver"] = {"T": 0.2033, "dt": 0.005}
        path = _write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["estimates", path, "--out", str(tmp_path / "out")]) == 0

    def test_below_range_s_rejected(self, tmp_path):
        cfg = {"estimates": {"s": 0.5, "campaigns": ["derivsq_psi"]}}
        path = _write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["estimates", path, "--out", str(tmp_path / "o")]) == 2


def _campaign(**profile):
    """The campaign of _campaign_config() through the library: [(ratio_max, ratio_mean)]."""
    grid = kb.SpectralGrid(256, 16.0 * np.pi)
    g = kb.GevreyIndex(0.1, 1.0)
    [rep] = kb.run_trials("bilinear_omega", grid, g, kb.DEFAULT_COEFFICIENTS, 30, seed=11, **profile)
    return [(rep.ratio_max, rep.ratio_mean)]


def _campaign_config():
    cfg = _small_estimates()
    cfg["estimates"]["campaigns"] = ["bilinear_omega"]
    return cfg


def _tracked(**knobs):
    """_small_radius() through the library."""
    eta0 = kb.gevrey_synthetic(kb.SpectralGrid(256, 16.0 * np.pi), 0.6, 2.0, 0.002)
    return kb.tracked_run(
        eta0, 0.5, 0.002, kb.DEFAULT_COEFFICIENTS, kb.GevreyIndex(0.5, 2.0), record_every=25, **knobs
    )


def _sigma_rows(run):
    """The (t, sigma) rows of a tracked run's series, one per step."""
    return zip(run.t, run.sigma)


class TestKnobs:
    """Each knob that shapes a campaign's fields or the radius tracker reaches its artifact:
    a non-default value gives what the library gives with it, and not the default run.  A
    run whose check fails writes every artifact too, so either outcome is compared."""

    @pytest.mark.parametrize(
        "command, config, overrides, artifact, columns, library",
        [
            (
                "estimates", _campaign_config,
                ["estimates.profile=exponential_decay", "estimates.rate=0.3"],
                "bilinear_omega.csv", ("ratio_max", "ratio_mean"),
                lambda: _campaign(profile="exponential_decay", rate=0.3),
            ),
            (
                "estimates", _campaign_config,
                ["estimates.profile=polynomial_decay", "estimates.power=1.5"],
                "bilinear_omega.csv", ("ratio_max", "ratio_mean"),
                lambda: _campaign(profile="polynomial_decay", power=1.5),
            ),
            (
                "estimates", _campaign_config, ["estimates.cutoff=5"],
                "bilinear_omega.csv", ("ratio_max", "ratio_mean"),
                lambda: _campaign(cutoff=5),
            ),
            (
                "radius", _small_radius, ["analyticity.max_rel_step=1e-4"],
                "sigma.csv", ("t", "sigma"),
                lambda: _sigma_rows(_tracked(max_rel_step=1e-4)),
            ),
        ],
        ids=["profile-rate", "profile-power", "cutoff", "max_rel_step"],
    )
    def test_knob_moves_its_artifact(
        self, tmp_path, command, config, overrides, artifact, columns, library
    ):
        path = _write_config(tmp_path / "c.yaml", config())
        cells = {}
        for name, extra in (("default", []), ("knob", overrides)):
            out = str(tmp_path / name)
            argv = [command, path, "--out", out]
            for spec in extra:
                argv += ["--set", spec]
            assert cli.main(argv) in (0, 1)
            _, rundir = _manifest(out)
            rows = _read_csv(os.path.join(rundir, artifact))
            cells[name] = [tuple(row[c] for c in columns) for row in rows]
        expected = [tuple(f"{v:.17g}" for v in row) for row in library()]
        assert cells["knob"] == expected
        assert cells["knob"] != cells["default"]


class TestReproducibility:
    def test_identical_runs_identical_digests(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["simulate", path, "--out", out1]) == 0
        assert cli.main(["simulate", path, "--out", out2]) == 0
        m1, _ = _manifest(out1)
        m2, _ = _manifest(out2)
        d1 = {a["name"]: a["sha256"] for a in m1["artifacts"]}
        d2 = {a["name"]: a["sha256"] for a in m2["artifacts"]}
        assert d1 == d2


class TestSweep:
    def test_cross_product(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", path, "--out", out, "--workers", "1",
            "--set", "initial.amplitude=0.01,0.05",
            "--set", "solver.dt=0.005,0.0025",
        ])
        assert code == 0
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            summary = json.load(fh)
        assert len(summary["points"]) == 4
        assert summary["passed"] is True
        run_dirs = [d for d in os.listdir(out) if d.startswith("simulate-")]
        assert len(run_dirs) == 4

    def test_config_read_once(self, tmp_path, monkeypatch):
        # every point is the mapping main read with its overrides: a config file removed
        # after the first point changes no later one
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        run = cli._run

        def run_then_remove(*args):
            code = run(*args)
            if os.path.exists(path):
                os.remove(path)
            return code

        monkeypatch.setattr(cli, "_run", run_then_remove)
        argv = ["sweep", path, "--out", out, "--workers", "1",
                "--set", "initial.amplitude=0.01,0.02,0.05"]
        assert cli.main(argv) == 0
        assert not os.path.exists(path)
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            points = json.load(fh)["points"]
        assert [(p["exit_code"], p["error"]) for p in points] == 3 * [(0, None)]

    def test_no_axis_rejected(self, tmp_path):
        # without --set there is nothing to sweep: exit 2, nothing written
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        assert cli.main(["sweep", path, "--out", str(out), "--workers", "1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("grid.n_modes", "--set 'grid.n_modes' must look like section.key=v1,v2,..."),
            ("grid.n_modes=,", "--set 'grid.n_modes=,' lists no values"),
        ],
        ids=["no-equals", "no-values"],
    )
    def test_malformed_axis_rejected(self, tmp_path, capsys, spec, message):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        argv = ["sweep", path, "--workers", "1", "--set", spec]
        assert _config_error(capsys, argv, tmp_path / "out") == f"config error: {message}"

    def test_base_config_its_command_rejects(self, tmp_path):
        # the base config validates, so each point records the error of the command it runs
        path = _write_config(tmp_path / "c.yaml", _small_sim(solver={"T": "auto"}))
        out = tmp_path / "out"
        code = cli.main([
            "sweep", str(path), "--out", str(out), "--workers", "1",
            "--set", "initial.amplitude=0.01,0.05",
        ])
        assert code == 2
        assert os.listdir(out) == ["sweep_manifest.json"]
        with open(out / "sweep_manifest.json") as fh:
            points = json.load(fh)["points"]
        assert [p["error"] for p in points] == 2 * ["config error: solver.T: 'auto' needs the picard command"]

    def test_output_directory_is_no_axis(self, tmp_path, monkeypatch):
        # no config key names the root, so a sweep can neither split its points across roots
        # nor record a root they were not written to
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        argv = ["sweep", path, "--workers", "1", "--set", "output.directory=x,y"]
        assert cli.main(argv) == 2
        assert sorted(os.listdir(tmp_path)) == ["c.yaml", "runs"]
        assert os.listdir(tmp_path / "runs") == ["sweep_manifest.json"]
        with open(tmp_path / "runs" / "sweep_manifest.json") as fh:
            points = json.load(fh)["points"]
        assert [p["error"] for p in points] == 2 * ["config error: unknown config key: output"]

    def test_exponent_notation_values(self, tmp_path):
        # YAML 1.1 reads 1e-3 as a string; float fields must still take it
        path = _write_config(tmp_path / "c.yaml", _small_sim(solver={"T": 0.01}))
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", path, "--out", out, "--workers", "1",
            "--set", "solver.dt=1e-3,5e-4",
        ])
        assert code == 0
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            summary = json.load(fh)
        assert [p["exit_code"] for p in summary["points"]] == [0, 0]

    def test_list_values_split_at_top_level_commas(self, tmp_path):
        # the commas inside [8,16] belong to the value, not to the axis
        cfg = _small_estimates()
        cfg["estimates"]["campaigns"] = ["splitting_r1"]
        path = _write_config(tmp_path / "c.yaml", cfg)
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", path, "--out", out, "--workers", "1", "--command", "estimates",
            "--set", "estimates.failure_ks=[8,16],[8,32]",
        ])
        assert code == 0
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            summary = json.load(fh)
        assert [p["overrides"] for p in summary["points"]] == [
            ["estimates.failure_ks=[8,16]"], ["estimates.failure_ks=[8,32]"]
        ]
        assert [p["exit_code"] for p in summary["points"]] == [0, 0]

    def test_bad_point_reported(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", path, "--out", out, "--workers", "1",
            "--set", "initial.amplitude=0.01,-bogus",
        ])
        assert code == 2
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            summary = json.load(fh)
        codes = sorted(p["exit_code"] for p in summary["points"])
        assert codes == [0, 2]

    def test_radius_points(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_radius())
        out = tmp_path / "out"
        code = cli.main([
            "sweep", path, "--out", str(out), "--workers", "1", "--command", "radius",
            "--set", "initial.amplitude=0.002,0.001",
        ])
        assert code == 0
        run_dirs = sorted(d for d in os.listdir(out) if d.startswith("radius-"))
        assert len(run_dirs) == 2
        assert all((out / d / "sigma.csv").exists() for d in run_dirs)

    def test_point_error_is_the_message_main_prints(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", path, "--out", out, "--set", "initial.amplitude=-bogus"]) == 2
        printed = capsys.readouterr().err.strip()
        assert printed.startswith("config error: initial.amplitude")
        cli.main([
            "sweep", path, "--out", out, "--workers", "1",
            "--set", "initial.amplitude=0.01,-bogus",
        ])
        with open(os.path.join(out, "sweep_manifest.json")) as fh:
            summary = json.load(fh)
        assert [p["error"] for p in summary["points"]] == [None, printed]

    def test_pool_capped_at_point_count(self, tmp_path, monkeypatch):
        # a forking pool starts every worker it may use at the first submit
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", path, "--out", out, "--workers", "64",
            "--set", "initial.amplitude=0.01,0.05",
        ])
        assert code == 0
        assert sizes == [2]
        assert len([d for d in os.listdir(out) if d.startswith("simulate-")]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        path = _write_config(tmp_path / "c.yaml", _small_sim())
        out = tmp_path / "out"
        code = cli.main([
            "sweep", path, "--out", str(out), "--workers", workers,
            "--set", "initial.amplitude=0.01,0.05",
        ])
        assert code == 2
        assert not out.exists()


class TestRunnerEntry:
    """The runners are entered by name, once, before any compute.

    A benchmark marks the end of set-up by rebinding run_simulate, run_picard
    and run_estimates on the module; a runner bound elsewhere or entered late
    would hide that mark.
    """

    @pytest.mark.parametrize(
        "command, config, runner",
        [
            ("simulate", _small_sim, "run_simulate"),
            ("radius", _small_radius, "run_simulate"),
            ("picard", _small_picard, "run_picard"),
            ("estimates", _small_estimates, "run_estimates"),
        ],
    )
    def test_runner_entered_first(self, tmp_path, monkeypatch, command, config, runner):
        events = []
        for name in ("run_simulate", "run_picard", "run_estimates", "existence_constant"):

            def recording(*args, _real=getattr(cli, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, recording)
        path = _write_config(tmp_path / "c.yaml", config())
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 0
        computes = [] if command == "estimates" else ["existence_constant"]
        assert events == [runner] + computes


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def benchmark_workloads():
    """perfbench/workloads.py, loaded by path as the benchmark runs it, not imported as a
    package module."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestBenchmarkConfigs:
    """Every op the benchmark runs validates: a schema change that dropped a key it writes
    would fail each of its ops with exit 2.  Seven keys it writes are kept for it alone:
    solver.method (the command picks the solver), analyticity.enabled (radius alone tracks
    sigma), checks.existence_trials (its span test's config) and checks.existence_seed are
    read by nothing, and solver.mesh_check, solver.crosscheck and estimates.failure_demo
    accept only true (no config switches a step off)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_op_validates(self, benchmark_workloads, seed):
        ops = [
            (name, op) for name, ops in benchmark_workloads.WORKLOADS.items() for op in ops
        ]
        assert {name for name, _ in ops} >= {*benchmark_workloads.MEASURED, "known_failures"}
        for name, op in ops:
            assert op.command in cli._COMMANDS, name
            raw = op.seeded(seed)
            cfg = cli.RunConfig(copy.deepcopy(raw))
            assert cfg.data["run"]["seed"] == cfg.data["checks"]["existence_seed"] == seed
            for section, values in raw.items():
                for key, value in values.items():
                    assert cfg.data[section][key] == value, (name, section, key)


class TestAutoWindow:
    """T: auto takes the window from the certified constant, which reads no seed and
    converges under grid refinement."""

    def test_window_deterministic_and_grid_stable(self, tmp_path, benchmark_workloads):
        op = benchmark_workloads.KNOWN_FAILURES[0]  # picard at n = 1024 with T: auto
        assert op.command == "picard" and op.config["solver"]["T"] == "auto"
        metas = {}
        for n in (256, 1024):
            for seed in (1, 2):
                cfg = op.seeded(seed)
                cfg["grid"]["n_modes"] = n
                path = _write_config(tmp_path / f"c{n}-{seed}.yaml", cfg)
                out = str(tmp_path / f"out{n}-{seed}")
                assert cli.main(["picard", path, "--out", out]) in (0, 1)
                _, rundir = _manifest(out)
                with open(os.path.join(rundir, "picard_meta.json")) as fh:
                    metas[n, seed] = json.load(fh)
        for n in (256, 1024):
            assert metas[n, 1]["existence_constant"] == metas[n, 2]["existence_constant"]
        coarse, fine = metas[256, 1]["existence_window"], metas[1024, 1]["existence_window"]
        assert coarse == pytest.approx(fine, rel=0.01)


def _child_env():
    """The environment of a fresh interpreter that imports this package from its source."""
    env = dict(os.environ)
    src = str(Path(kb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestModuleEntryPoint:
    """python -m kdvbbm, the entry point no in-process test reaches."""

    @staticmethod
    def _run(*args):
        return subprocess.run(
            [sys.executable, "-m", "kdvbbm", *args],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )

    def test_help(self):
        done = self._run("--help")
        assert done.returncode == 0, done.stderr
        assert "simulate" in done.stdout

    def test_config_error(self, tmp_path):
        path = _write_config(tmp_path / "c.yaml", _small_sim(solver={"dt": 0}))
        out = tmp_path / "out"
        done = self._run("simulate", path, "--out", str(out))
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("config error: solver.dt: ")
        assert not out.exists() or not any(out.iterdir())


def test_console_script_help(monkeypatch, capsys):
    # the kdvbbm script that pyproject.toml declares, resolved as an installer resolves a
    # console script and called as its generated wrapper calls it: main() on sys.argv
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert list(scripts) == ["kdvbbm"]
    main = EntryPoint("kdvbbm", scripts["kdvbbm"], "console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["kdvbbm", "--help"])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kdvbbm ")


_RUN_COMMANDS = """
import json, sys
import kdvbbm.cli as cli
seen = []
for command, path, out in json.loads(sys.argv[1]):
    seen.append([cli.main([command, path, "--out", out]), "numpy.random" in sys.modules])
print(json.dumps(seen))
"""


def test_no_random_numbers_outside_estimates(tmp_path):
    # a fresh interpreter, since pytest and hypothesis import numpy.random in this one; the
    # marches and the solve compute C_s, and only estimates draws
    runs = []
    for command, config in (
        ("simulate", _small_sim()),
        ("radius", _small_radius()),
        ("picard", _small_picard()),
        ("estimates", _small_estimates()),
    ):
        path = _write_config(tmp_path / f"{command}.yaml", config)
        runs.append([command, path, str(tmp_path / f"out-{command}")])
    done = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(runs)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, False], [0, False], [0, False], [0, True]]

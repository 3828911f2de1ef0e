"""Configuration-driven command line: simulate, picard, radius, estimates, sweep.

Runs are described by a YAML file validated against a strict schema (unknown
keys are rejected; every module precondition is checked before any compute
starts).  Artifacts (CSV files plus a JSON manifest with content digests) are
written to a staging directory and promoted atomically on success, so failed
runs leave no partial outputs.

Exit codes: 0 success, 1 enabled check failed, 2 configuration error,
3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import datetime
import hashlib
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import yaml

from . import __version__
from .analyticity import tracked_run
from .dynamics import evolve_ifrk4, local_existence_time, picard_solve
from .errors import ConfigError, KdvBbmError
from .estimates import (
    MULTILINEAR,
    existence_constant,
    failure_demo_bilinear,
    run_trials,
)
from .fields import cos_mode, gaussian, gevrey_synthetic
from .norms import GevreyIndex, gevrey_norm, gevrey_weights, h2_polynomial_sq
from .params import ABCDParams, CoefficientSet, derive_coefficients, validate_coefficients
from .spectral import SpectralGrid, Spectrum, spectrum_csv_rows

OUTPUT_ROOT_ENV = "KDVBBM_OUTPUT_ROOT"

TRAJECTORY_COLUMNS = (
    "t",
    "energy",
    "h2_norm",
    "gevrey_norm",
    "sigma_hat",
    "sigma_lower",
    "sigma_upper",
)

ESTIMATE_COLUMNS = (
    "lemma_id",
    "s",
    "sigma",
    "n_modes",
    "n_trials",
    "ratio_max",
    "ratio_mean",
    "seed",
)

_CAMPAIGNS = tuple(MULTILINEAR) + ("interpolation", "splitting_r1", "antisymmetry")

# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_SCHEMA = {
    "run": {"seed": 0, "label": ""},
    "coefficients": {
        "gamma1": 1.0 / 12.0,
        "gamma2": 1.0 / 12.0,
        "delta1": 1.0 / 20.0,
        "delta2": 4.0 / 45.0,
        "gamma": 7.0 / 48.0,
        "abcd": None,  # optional {a,b,c,d,a1,b1,c1,d1[,rho]}; overrides the direct values
    },
    "grid": {"n_modes": 256, "half_length": 16.0 * math.pi},
    "initial": {
        "family": "cos_mode",  # cos_mode | gaussian | gevrey_synthetic
        "amplitude": 0.05,
        "k": 1,
        "width": 1.0,
        "sigma0": 0.5,
        "roll_off": 2.0,
    },
    "solver": {
        "method": "ifrk4",
        "T": 5.0,  # picard runs also accept "auto" (the guaranteed window)
        "dt": 1.0e-3,
        "record_every": 10,
        "tol": 1.0e-9,
        "max_iter": 30,
        "n_nodes": 64,
        "mesh_check": True,
        "crosscheck": True,
        "blowup_factor": 1.0e6,
    },
    "analyticity": {
        "enabled": False,
        "sigma0": 0.5,
        "s": 2.0,
        "noise_floor": 1.0e-8,
        "variant": "exact_integral",
        "max_rel_step": 0.01,
        "calibration_fraction": 0.1,
    },
    "estimates": {
        "campaigns": list(_CAMPAIGNS),
        "n_trials": 1000,
        "sigma": 0.1,
        "s": 1.0,
        "profile": "band_limited",
        "cutoff": None,
        "rate": 0.5,
        "power": 2.0,
        "interpolation_combos": [
            [0.0, 2.0, 0.5],
            [0.0, 2.0, 0.25],
            [1.0, 3.0, 0.5],
            [0.0, 4.0, 0.75],
            [0.5, 2.5, 1.0 / 3.0],
        ],
        "failure_demo": True,
        "failure_s": -0.5,
        "failure_ks": [8, 16, 32, 64],
    },
    "checks": {
        "energy_drift_tol": 1.0e-6,
        "h2_band_slack": 1.0e-6,
        "growth_slack": 1.0e-6,
        "contraction_limit": 0.55,
        "crosscheck_tol": 1.0e-6,
        "existence_trials": 128,
        "existence_seed": 2024,
    },
    "output": {"directory": "runs"},
}

_ABCD_KEYS = ("a", "b", "c", "d", "a1", "b1", "c1", "d1")


def _merge_section(user, schema, path):
    if not isinstance(user, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(user).__name__}")
    merged = {}
    for key, default in schema.items():
        here = f"{path}.{key}" if path else key
        if key not in user:
            merged[key] = copy.deepcopy(default)
        elif isinstance(default, dict):
            merged[key] = _merge_section(user[key], default, here)
        else:
            merged[key] = _coerce(user[key], default, here)
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown config key: {f'{path}.{key}' if path else key}")
    return merged


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value, default, path):
    if default is None or value is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if _is_int(default):
        if not _is_int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if value == "auto" and path == "solver.T":
            return value
        if isinstance(value, str):
            # YAML 1.1 reads exponent notation without a dot (1e-3) as a string
            try:
                value = float(value) if math.isfinite(float(value)) else value
            except ValueError:
                pass
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return value
    return value


class RunConfig:
    """A validated run configuration; builders for every module input."""

    def __init__(self, raw: dict):
        self.data = _merge_section(raw or {}, _SCHEMA, "")
        self._validate()

    # -- builders ----------------------------------------------------------

    def coefficients(self) -> CoefficientSet:
        sec = self.data["coefficients"]
        if sec["abcd"] is not None:
            abcd = sec["abcd"]
            if not isinstance(abcd, dict):
                raise ConfigError("coefficients.abcd: expected a mapping")
            unknown = set(abcd) - set(_ABCD_KEYS) - {"rho"}
            if unknown:
                raise ConfigError(f"coefficients.abcd: unknown keys {sorted(unknown)}")
            missing = [k for k in _ABCD_KEYS if k not in abcd]
            if missing:
                raise ConfigError(f"coefficients.abcd: missing keys {missing}")
            return derive_coefficients(ABCDParams(**{k: float(v) for k, v in abcd.items()}))
        return CoefficientSet(
            gamma1=sec["gamma1"],
            gamma2=sec["gamma2"],
            delta1=sec["delta1"],
            delta2=sec["delta2"],
            gamma=sec["gamma"],
        )

    def grid(self) -> SpectralGrid:
        sec = self.data["grid"]
        return SpectralGrid(sec["n_modes"], sec["half_length"])

    def gevrey_index(self) -> GevreyIndex:
        sec = self.data["analyticity"]
        return GevreyIndex(sec["sigma0"], sec["s"])

    def initial_state(self, grid: SpectralGrid) -> Spectrum:
        sec = self.data["initial"]
        family = sec["family"]
        if family == "cos_mode":
            return cos_mode(grid, sec["k"], sec["amplitude"])
        if family == "gaussian":
            return gaussian(grid, sec["width"], sec["amplitude"])
        if family == "gevrey_synthetic":
            return gevrey_synthetic(grid, sec["sigma0"], sec["roll_off"], sec["amplitude"])
        raise ConfigError(f"initial.family: unknown family {family!r}")

    # -- validation --------------------------------------------------------

    def _validate(self):
        d = self.data
        try:
            coeffs = self.coefficients()
            grid = self.grid()
        except (KdvBbmError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        report = validate_coefficients(coeffs)
        if not report.passed:
            names = ", ".join(c.name for c in report.failures())
            raise ConfigError(f"coefficients: invariants failed: {names}")

        if d["initial"]["family"] not in ("cos_mode", "gaussian", "gevrey_synthetic"):
            raise ConfigError(f"initial.family: unknown family {d['initial']['family']!r}")
        if d["initial"]["family"] == "cos_mode" and not (
            0 <= d["initial"]["k"] < grid.n_modes // 2
        ):
            raise ConfigError("initial.k: must satisfy 0 <= k < n_modes/2")
        if d["initial"]["family"] == "gaussian" and d["initial"]["width"] <= 0:
            raise ConfigError("initial.width: must be positive")

        sol = d["solver"]
        if sol["method"] not in ("ifrk4", "picard"):
            raise ConfigError(f"solver.method: unknown method {sol['method']!r}")
        if sol["dt"] <= 0:
            raise ConfigError("solver.dt: must be positive")
        if sol["T"] != "auto":
            if not (isinstance(sol["T"], float) and sol["T"] > 0):
                raise ConfigError("solver.T: must be positive (or 'auto' for picard runs)")
            if sol["method"] == "ifrk4" and abs(round(sol["T"] / sol["dt"]) * sol["dt"] - sol["T"]) > 1e-9 * sol["T"]:
                raise ConfigError("solver.T: must be an integral multiple of solver.dt")
        elif sol["method"] != "picard":
            raise ConfigError("solver.T: 'auto' is only supported with method 'picard'")
        if sol["record_every"] < 1 or sol["n_nodes"] < 2 or sol["max_iter"] < 1:
            raise ConfigError("solver: record_every, n_nodes, max_iter must be >= 1 (n_nodes >= 2)")

        ana = d["analyticity"]
        if ana["sigma0"] <= 0:
            raise ConfigError("analyticity.sigma0: must be positive")
        if ana["variant"] not in ("exact_integral", "printed"):
            raise ConfigError(f"analyticity.variant: unknown variant {ana['variant']!r}")
        if not 0 < ana["max_rel_step"] <= 0.5:
            raise ConfigError("analyticity.max_rel_step: must lie in (0, 0.5]")
        try:
            gevrey_weights(grid, ana["sigma0"], ana["s"])
        except KdvBbmError as exc:
            raise ConfigError(f"analyticity: {exc}") from exc

        est = d["estimates"]
        for name in est["campaigns"]:
            if name not in _CAMPAIGNS:
                raise ConfigError(f"estimates.campaigns: unknown campaign {name!r}")
            if name in MULTILINEAR and est["s"] < MULTILINEAR[name][1] - 1e-12:
                raise ConfigError(
                    f"estimates.s: {name} requires s >= {MULTILINEAR[name][1]}, got {est['s']}"
                )
        if est["n_trials"] < 1 or d["checks"]["existence_trials"] < 1:
            raise ConfigError("estimates.n_trials, checks.existence_trials: must be >= 1")
        if est["cutoff"] is not None and not _is_int(est["cutoff"]):
            raise ConfigError(f"estimates.cutoff: expected an integer, got {est['cutoff']!r}")
        if est["profile"] not in ("band_limited", "exponential_decay", "polynomial_decay"):
            raise ConfigError(f"estimates.profile: unknown profile {est['profile']!r}")
        if not (math.isfinite(est["sigma"]) and est["sigma"] >= 0):
            raise ConfigError(f"estimates.sigma: must be finite and nonnegative, got {est['sigma']}")
        if not math.isfinite(est["s"]):
            raise ConfigError(f"estimates.s: must be finite, got {est['s']}")
        campaign_s = [est["s"], est["s"] + 1.0]
        for combo in est["interpolation_combos"]:
            if not (isinstance(combo, list) and len(combo) == 3):
                raise ConfigError("estimates.interpolation_combos: entries must be [s1, s2, theta]")
            s1, s2, theta = (_coerce(v, 0.0, "estimates.interpolation_combos") for v in combo)
            if not all(math.isfinite(v) for v in (s1, s2, theta)):
                raise ConfigError(f"estimates.interpolation_combos: entries must be finite, got {combo}")
            if s1 > s2 or not 0.0 <= theta <= 1.0:
                raise ConfigError(
                    f"estimates.interpolation_combos: need s1 <= s2 and 0 <= theta <= 1, got {combo}"
                )
            campaign_s += [s1, s2]
        try:
            for s in campaign_s:
                gevrey_weights(grid, est["sigma"], s)
        except KdvBbmError as exc:
            raise ConfigError(f"estimates: {exc}") from exc
        if est["failure_demo"]:
            if est["failure_s"] >= 0:
                raise ConfigError("estimates.failure_s: must be negative")
            ks = est["failure_ks"]
            if len(ks) < 2 or not all(_is_int(k) and k >= 2 for k in ks):
                raise ConfigError("estimates.failure_ks: need two or more integer modes >= 2")

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def run_id(self, command: str) -> str:
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]
        return f"{command}-{digest}"


def load_config(path: str, overrides=()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    for spec in overrides:
        raw = apply_override(raw, spec)
    return RunConfig(raw)


def apply_override(raw: dict, spec: str) -> dict:
    """Apply one 'section.key=value' override (value parsed as YAML)."""
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like section.key=value")
    path, _, text = spec.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override {spec!r} has an empty key component")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {spec!r}: cannot parse value: {exc}") from exc
    out = copy.deepcopy(raw)
    node = out
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {spec!r}: {key} is not a section")
    node[keys[-1]] = value
    return out


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunDirectory:
    """Staging-then-promote output directory; nothing survives a failed run."""

    def __init__(self, root: str, run_id: str, force: bool):
        self.root = root
        self.run_id = run_id
        self.force = force
        self.final = os.path.join(root, run_id)
        self.staging = os.path.join(root, f".staging-{run_id}-{os.getpid()}")

    def __enter__(self):
        if os.path.exists(self.final) and not self.force:
            raise ConfigError(f"output directory {self.final} exists (use --force to replace)")
        os.makedirs(self.root, exist_ok=True)
        if os.path.exists(self.staging):
            shutil.rmtree(self.staging)
        os.makedirs(self.staging)
        return self

    def path(self, name: str) -> str:
        return os.path.join(self.staging, name)

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
            return False
        if not os.path.exists(self.final):
            os.replace(self.staging, self.final)
            return False
        # move the old run aside first, so a failed promotion can restore it
        old = os.path.join(self.root, f".old-{self.run_id}-{os.getpid()}")
        os.replace(self.final, old)
        try:
            os.replace(self.staging, self.final)
        except OSError:
            os.replace(old, self.final)
            shutil.rmtree(self.staging, ignore_errors=True)
            raise
        shutil.rmtree(old)
        return False


def _manifest(command, cfg: RunConfig, rundir: RunDirectory, checks: dict, started):
    artifacts = []
    for name in sorted(os.listdir(rundir.staging)):
        if name == "manifest.json":
            continue
        full = os.path.join(rundir.staging, name)
        artifacts.append({"name": name, "sha256": _sha256(full), "bytes": os.path.getsize(full)})
    enabled = [c for c in checks.values() if "passed" in c]
    manifest = {
        "tool": {"name": "kdvbbm", "version": __version__},
        "command": command,
        "run_id": rundir.run_id,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.data,
        "artifacts": artifacts,
        "checks": checks,
        "passed": all(c["passed"] for c in enabled),
    }
    with open(rundir.path("manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _existence_window(cfg: RunConfig, grid, g, coeffs, norm0):
    if norm0 == 0.0:
        return math.inf, None
    if g.s < 1.0:
        return None, None
    c_s = existence_constant(
        grid,
        g,
        coeffs,
        n_trials=cfg.data["checks"]["existence_trials"],
        seed=cfg.data["checks"]["existence_seed"],
    )
    return local_existence_time(norm0, c_s), c_s


def _check(value, passed, limit=None, note=None) -> dict:
    entry = {"passed": bool(passed), "value": value}
    if limit is not None:
        entry["limit"] = limit
    if note:
        entry["note"] = note
    return entry


def _skip(note) -> dict:
    return {"skipped": True, "note": note}


def _simulate_checks(cfg, coeffs, traj, tracked, t_bar, x0):
    cks = cfg.data["checks"]
    checks: dict = {}

    energies = np.array([r.energy for r in traj.records])
    if coeffs.is_hamiltonian:
        scale = max(abs(energies[0]), np.finfo(float).tiny)
        drift = float(np.max(np.abs(energies - energies[0])) / scale)
        checks["energy_drift"] = _check(drift, drift <= cks["energy_drift_tol"], cks["energy_drift_tol"])
    else:
        checks["energy_drift"] = _skip("coefficients are not Hamiltonian (gamma != 7/48)")

    h2p = np.array([h2_polynomial_sq(r.state) for r in traj.records])
    if h2p[0] > 0.0:
        ratios = h2p / h2p[0]
        slack = cks["h2_band_slack"]
        lo = (coeffs.c_min / coeffs.c_max) * (1.0 - slack)
        hi = (coeffs.c_max / coeffs.c_min) * (1.0 + slack)
        ok = bool(np.all((ratios >= lo) & (ratios <= hi)))
        checks["h2_band"] = _check(
            float(np.max(np.abs(ratios - 1.0))), ok, note=f"band [{lo:.6g}, {hi:.6g}]"
        )
    else:
        checks["h2_band"] = _skip("zero datum")

    if t_bar is None:
        checks["growth_bound"] = _skip("existence constant needs analyticity.s >= 1")
    else:
        gs = np.array([r.gevrey for r in traj.records])
        ts = traj.times()
        window = gs[ts <= t_bar]
        limit = 2.0 * x0 * (1.0 + cks["growth_slack"])
        worst = float(np.max(window)) if window.size else 0.0
        checks["growth_bound"] = _check(
            worst, worst <= limit, limit, note=f"window T_bar = {t_bar:.6g}"
        )

    if tracked is not None:
        t = tracked.checks
        checks["sigma_lower_le_tracked"] = _check(None, t["lower_le_sigma"])
        checks["sigma_tracked_le_upper"] = _check(None, t["sigma_le_upper"])
        checks["sigma_strictly_decreasing"] = _check(None, t["strictly_decreasing"])
        if t["sigma_hat_ge_tracked"] is None:
            checks["sigma_hat_ge_tracked"] = _skip("tail fit undefined on this spectrum")
        else:
            checks["sigma_hat_ge_tracked"] = _check(None, t["sigma_hat_ge_tracked"])
    return checks


def run_simulate(cfg: RunConfig, outroot: str, force: bool, command: str = "simulate") -> int:
    started = _now()
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    eta0 = cfg.initial_state(grid)
    g = cfg.gevrey_index()
    sol = cfg.data["solver"]
    ana = cfg.data["analyticity"]
    tracking = ana["enabled"] or command == "radius"

    x0 = gevrey_norm(eta0, g)
    t_bar, _ = _existence_window(cfg, grid, g, coeffs, x0)

    if tracking:
        tracked = tracked_run(
            eta0,
            sol["T"],
            sol["dt"],
            coeffs,
            sigma0=ana["sigma0"],
            s=ana["s"],
            record_every=sol["record_every"],
            noise_floor=ana["noise_floor"],
            max_rel_step=ana["max_rel_step"],
            variant=ana["variant"],
            prefix_fraction=ana["calibration_fraction"],
            blowup_factor=sol["blowup_factor"],
        )
        traj = tracked.trajectory
        rows = [
            (
                r.t,
                r.energy,
                r.h2,
                r.gevrey,
                r.sigma_hat,
                float(tracked.lower[i]),
                float(tracked.upper[i]),
            )
            for i, r in enumerate(traj.records)
        ]
    else:
        tracked = None
        traj = evolve_ifrk4(
            eta0,
            sol["T"],
            sol["dt"],
            coeffs,
            record_every=sol["record_every"],
            gevrey_index=g,
            blowup_factor=sol["blowup_factor"],
        )
        rows = [(r.t, r.energy, r.h2, r.gevrey, None, None, None) for r in traj.records]

    checks = _simulate_checks(cfg, coeffs, traj, tracked, t_bar, x0)
    with RunDirectory(outroot, cfg.run_id(command), force) as rundir:
        _write_csv(rundir.path("trajectory.csv"), TRAJECTORY_COLUMNS, rows)
        _write_csv(
            rundir.path("final_spectrum.csv"),
            ("k", "xi", "re", "im", "abs"),
            spectrum_csv_rows(traj.final.state),
        )
        if tracked is not None:
            _write_csv(rundir.path("sigma.csv"), ("t", "sigma"), tracked.sigma_series)
        manifest = _manifest(command, cfg, rundir, checks, started)
    return 0 if manifest["passed"] else 1


def run_picard(cfg: RunConfig, outroot: str, force: bool) -> int:
    started = _now()
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    eta0 = cfg.initial_state(grid)
    g = cfg.gevrey_index()
    sol = cfg.data["solver"]
    cks = cfg.data["checks"]

    x0 = gevrey_norm(eta0, g)
    T = sol["T"]
    t_bar, c_s = _existence_window(cfg, grid, g, coeffs, x0)
    if T == "auto":
        if t_bar is None or not math.isfinite(t_bar):
            raise ConfigError(
                "solver.T: 'auto' needs a nonzero datum and analyticity.s >= 1"
            )
        T = t_bar

    traj, diag = picard_solve(
        eta0,
        T,
        sol["tol"],
        sol["max_iter"],
        coeffs,
        g,
        n_nodes=sol["n_nodes"],
        mesh_check=sol["mesh_check"],
    )

    checks = {
        "contraction": _check(
            diag.contraction_ratio,
            diag.contraction_ratio <= cks["contraction_limit"],
            cks["contraction_limit"],
        ),
        "growth_bound": _check(diag.growth_ratio, diag.growth_bound_ok, 2.0),
    }
    if sol["crosscheck"]:
        n_steps = max(1, round(T / sol["dt"]))
        dt_cross = T / n_steps
        rk = evolve_ifrk4(eta0, T, dt_cross, coeffs, record_every=n_steps, gevrey_index=g)
        delta = gevrey_norm(
            Spectrum(grid, traj.final.state.coeffs - rk.final.state.coeffs), g
        )
        checks["marcher_crosscheck"] = _check(delta, delta <= cks["crosscheck_tol"], cks["crosscheck_tol"])

    rows = [(r.t, r.energy, r.h2, r.gevrey, None, None, None) for r in traj.records]
    diag_rows = [
        (str(i + 1), _fmt(d), _fmt(diag.ratios[i - 1]) if i >= 1 else "")
        for i, d in enumerate(diag.distances)
    ]
    with RunDirectory(outroot, cfg.run_id("picard"), force) as rundir:
        _write_csv(rundir.path("trajectory.csv"), TRAJECTORY_COLUMNS, rows)
        _write_csv(rundir.path("picard.csv"), ("iteration", "distance", "ratio"), diag_rows)
        meta = {
            "T": T,
            "existence_window": t_bar,
            "existence_constant": c_s,
            "iterations": diag.iterations,
            "mesh_delta": diag.mesh_delta,
        }
        with open(rundir.path("picard_meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest = _manifest("picard", cfg, rundir, checks, started)
    return 0 if manifest["passed"] else 1


def run_estimates(cfg: RunConfig, outroot: str, force: bool) -> int:
    started = _now()
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    est = cfg.data["estimates"]
    seed = cfg.data["run"]["seed"]
    profile_kw = {}
    if est["cutoff"] is not None:
        profile_kw["cutoff"] = est["cutoff"]
    if est["profile"] == "exponential_decay":
        profile_kw["rate"] = est["rate"]
    if est["profile"] == "polynomial_decay":
        profile_kw["power"] = est["power"]

    checks: dict = {}
    outputs: list[tuple[str, list]] = []
    for name in est["campaigns"]:
        g = GevreyIndex(est["sigma"], est["s"])
        if name == "interpolation":
            reports = [
                run_trials(
                    name,
                    grid,
                    g,
                    coeffs,
                    n_trials=est["n_trials"],
                    seed=seed,
                    profile=est["profile"],
                    combo=tuple(float(v) for v in combo),
                    **profile_kw,
                )
                for combo in est["interpolation_combos"]
            ]
        else:
            reports = [
                run_trials(
                    name,
                    grid,
                    g,
                    coeffs,
                    n_trials=est["n_trials"],
                    seed=seed,
                    profile=est["profile"],
                    **profile_kw,
                )
            ]
        rows = [
            tuple(rep.csv_row()[col] if col != "lemma_id" else rep.lemma_id for col in ESTIMATE_COLUMNS)
            for rep in reports
        ]
        outputs.append((f"{name}.csv", rows))
        worst = max(rep.ratio_max for rep in reports)
        if name == "interpolation" or name == "splitting_r1":
            checks[name] = _check(worst, worst <= 1.0 + 1e-12, 1.0 + 1e-12)
        elif name == "antisymmetry":
            checks[name] = _check(worst, worst < 1e-12, 1e-12)
        else:
            checks[name] = {"informational": True, "ratio_max": worst}

    demo = None
    if est["failure_demo"]:
        demo = failure_demo_bilinear(
            est["failure_s"], ks=tuple(est["failure_ks"]), coeffs=coeffs
        )
        checks["failure_demo"] = {
            "informational": True,
            "monotone": demo.monotone,
            "growth_exponent": demo.growth_exponent,
        }

    with RunDirectory(outroot, cfg.run_id("estimates"), force) as rundir:
        for name, rows in outputs:
            _write_csv(rundir.path(name), ESTIMATE_COLUMNS, rows)
        if demo is not None:
            _write_csv(
                rundir.path("failure_demo.csv"),
                ("k", "n_modes", "ratio"),
                [(str(k), str(n), _fmt(r)) for (k, n, r) in demo.rows],
            )
        manifest = _manifest("estimates", cfg, rundir, checks, started)
    return 0 if manifest["passed"] else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _expand_sweep(set_specs):
    """Cross product of comma-separated override values."""
    axes = []
    for spec in set_specs:
        if "=" not in spec:
            raise ConfigError(f"--set {spec!r} must look like section.key=v1,v2,...")
        path, _, text = spec.partition("=")
        values = [v for v in text.split(",") if v != ""]
        if not values:
            raise ConfigError(f"--set {spec!r} lists no values")
        axes.append([(path, v) for v in values])
    points = [[]]
    for axis in axes:
        points = [p + [choice] for p in points for choice in axis]
    return [tuple(f"{path}={value}" for path, value in point) for point in points]


def _run_point(args):
    config_path, overrides, command, outroot, force = args
    try:
        cfg = load_config(config_path, overrides)
        runner = {"simulate": run_simulate, "picard": run_picard, "estimates": run_estimates}[
            command
        ]
        code = runner(cfg, outroot, force)
        return code, cfg.run_id(command), None
    except ConfigError as exc:
        return 2, None, str(exc)
    except Exception as exc:  # sweep points must not kill their siblings
        return 3, None, f"{type(exc).__name__}: {exc}"


def run_sweep(config_path, set_specs, command, outroot, force, workers) -> int:
    points = _expand_sweep(set_specs)
    if not points:
        raise ConfigError("sweep needs at least one --set axis")
    started = _now()
    args = [(config_path, overrides, command, outroot, force) for overrides in points]
    if workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, args))
    else:
        results = [_run_point(a) for a in args]
    entries = []
    for overrides, (code, run_id, error) in zip(points, results):
        entries.append(
            {"overrides": list(overrides), "exit_code": code, "run_id": run_id, "error": error}
        )
    summary = {
        "tool": {"name": "kdvbbm", "version": __version__},
        "command": f"sweep:{command}",
        "started": started,
        "finished": _now(),
        "points": entries,
        "passed": all(e["exit_code"] == 0 for e in entries),
    }
    os.makedirs(outroot, exist_ok=True)
    with open(os.path.join(outroot, "sweep_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return max(e["exit_code"] for e in entries)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _output_root(cfg_dir: str | None, cli_out: str | None) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return env
    return cfg_dir if cfg_dir else "runs"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvbbm",
        description="Pseudo-spectral runs and estimate campaigns for the fifth-order KdV-BBM model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="YAML run configuration")
    common.add_argument("--out", help="output root (overrides config and environment)")
    common.add_argument("--force", action="store_true", help="replace an existing run directory")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    sub.add_parser("simulate", parents=[common], help="march the PDE and record the trajectory")
    sub.add_parser("picard", parents=[common], help="fixed-point solve on the integral equation")
    sub.add_parser("radius", parents=[common], help="simulate with radius tracking and bounds")
    sub.add_parser("estimates", parents=[common], help="randomized inequality campaigns")
    sweep = sub.add_parser("sweep", parents=[common], help="cross product of overrides, run in parallel")
    sweep.add_argument(
        "--command",
        dest="sweep_command",
        default="simulate",
        choices=["simulate", "picard", "estimates"],
        help="runner executed at every sweep point",
    )
    sweep.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = load_config(args.config)  # the base config must validate on its own
            outroot = _output_root(cfg.data["output"]["directory"], args.out)
            return run_sweep(
                args.config, args.overrides, args.sweep_command, outroot, args.force, args.workers
            )
        cfg = load_config(args.config, args.overrides)
        outroot = _output_root(cfg.data["output"]["directory"], args.out)
        if args.command == "simulate":
            return run_simulate(cfg, outroot, args.force)
        if args.command == "radius":
            return run_simulate(cfg, outroot, args.force, command="radius")
        if args.command == "picard":
            return run_picard(cfg, outroot, args.force)
        if args.command == "estimates":
            return run_estimates(cfg, outroot, args.force)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KdvBbmError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

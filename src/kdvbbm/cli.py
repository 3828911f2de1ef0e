"""Configuration-driven command line: simulate, picard, radius, estimates, sweep.

Runs are described by a YAML file validated against a strict schema (unknown
keys are rejected; every module precondition is checked before any compute
starts).  Artifacts (CSV files plus a JSON manifest with content digests) are
written to a staging directory and promoted atomically once computed, so a run
that raises leaves no partial outputs.

Exit codes: 0 success, 1 enabled check failed (artifacts written), 2 configuration
error, 3 runtime/numerical error (divergence, an input that is not a real field, or a
MemoryError).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import traceback
from collections.abc import Hashable

import numpy as np
import yaml

from . import __version__
from .analyticity import tracked_run
from .dynamics import evolve_ifrk4, local_existence_time, picard_solve, step_count, whole_steps
from .errors import ConfigError, KdvBbmError
from .estimates import (
    CAMPAIGNS, PROFILES, TrialReport, campaign, existence_constant, failure_demo_bilinear, run_trials
)
from .fields import cos_mode, gaussian, gevrey_synthetic
from .norms import GevreyIndex, gevrey_norm
from .params import ABCDParams, CoefficientSet, derive_coefficients
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

# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------
#
# Every leaf of _SCHEMA is a (default, type) pair.  A type parses one user
# value: it checks the value's kind and domain and returns what the config
# stores (a float for a number; lists and mappings as written), or raises a
# ConfigError whose message starts with the key's dotted path.


def _expect(ok, path, what, value):
    if not ok:
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return value


def _of_kind(kind, what):
    return lambda value, path: _expect(isinstance(value, kind), path, what, value)


def _one_of(*choices):
    what = f"one of {list(choices)}"
    return lambda value, path: _expect(value in choices, path, what, value)


def _integer(lo):
    what = f"an integer >= {lo}"
    return lambda value, path: _expect(type(value) is int and value >= lo, path, what, value)


def _number(interval="(-inf, inf)"):
    """A finite number in an interval written like "(0, 0.5]"; a string that parses as one
    counts, since YAML 1.1 reads exponent notation without a dot (1e-3) as a string."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    closed_lo, closed_hi = interval[0] == "[", interval[-1] == "]"
    what = "a finite number" if interval == "(-inf, inf)" else f"a finite number in {interval}"

    def parse(value, path):
        x = math.nan
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            with contextlib.suppress(ValueError, OverflowError):
                x = float(value)
        inside = (lo <= x if closed_lo else lo < x) and (x <= hi if closed_hi else x < hi)
        _expect(math.isfinite(x) and inside, path, what, value)
        return x

    return parse


def _list(item, min_len=0, increasing=False, distinct=False):
    def parse(value, path):
        ok = isinstance(value, list) and len(value) >= min_len
        _expect(ok, path, f"a list of {min_len} or more entries", value)
        value = [item(entry, f"{path}[{i}]") for i, entry in enumerate(value)]
        for i, entry in enumerate(value if distinct else ()):
            if entry in value[:i]:
                raise ConfigError(f"{path}: {entry!r} is listed more than once")
        ok = not increasing or all(a < b for a, b in zip(value, value[1:]))
        return _expect(ok, path, "a strictly increasing list", value)

    return parse


def _optional(kind):
    return lambda value, path: None if value is None else kind(value, path)


_BOOLEAN = _of_kind(bool, "a boolean")
_STRING = _of_kind(str, "a string")
_FINITE = _number()
_POSITIVE = _number("(0, inf)")
_NONNEGATIVE = _number("[0, inf)")
_UNIT = _number("[0, 1]")
_SEED = _integer(0)


def _horizon(value, path):
    """solver.T: a positive time, or 'auto' (the guaranteed window)."""
    return value if value == "auto" else _POSITIVE(value, path)


def _combo(value, path):
    """An interpolation combo [s1, s2, theta] with s1 <= s2 and 0 <= theta <= 1, as floats."""
    _expect(isinstance(value, list) and len(value) == 3, path, "[s1, s2, theta]", value)
    combo = [_FINITE(value[0], path), _FINITE(value[1], path), _UNIT(value[2], path)]
    _expect(combo[0] <= combo[1], path, "s1 <= s2", value)
    return combo


_ABCD_KEYS = ("a", "b", "c", "d", "a1", "b1", "c1", "d1")


def _abcd(value, path):
    """The expansion parameters {a, b, c, d, a1, b1, c1, d1}, all numbers."""
    _expect(isinstance(value, dict), path, "a mapping", value)
    keys = sorted(value, key=str)
    _expect(set(keys) == set(_ABCD_KEYS), path, f"the keys {', '.join(_ABCD_KEYS)}", keys)
    for key, v in value.items():
        _FINITE(v, f"{path}.{key}")
    return value


_SCHEMA = {
    "run": {"seed": (0, _SEED), "label": ("", _STRING)},
    "coefficients": {
        "gamma1": (1.0 / 12.0, _FINITE),
        "gamma2": (1.0 / 12.0, _FINITE),
        "delta1": (1.0 / 20.0, _FINITE),
        "delta2": (4.0 / 45.0, _FINITE),
        "gamma": (7.0 / 48.0, _FINITE),
        "abcd": (None, _optional(_abcd)),  # overrides the direct values
    },
    "grid": {"n_modes": (256, _integer(4)), "half_length": (16.0 * math.pi, _POSITIVE)},
    "initial": {
        "family": ("cos_mode", _one_of("cos_mode", "gaussian", "gevrey_synthetic")),
        "amplitude": (0.05, _FINITE),
        "k": (1, _integer(0)),
        "width": (1.0, _POSITIVE),
        "sigma0": (0.5, _NONNEGATIVE),
        "roll_off": (2.0, _FINITE),
    },
    "solver": {
        # read by nothing (the command picks the solver); kept, like analyticity.enabled and
        # checks.existence_*, while the benchmark writes it
        "method": ("ifrk4", _one_of("ifrk4", "picard")),
        "T": (5.0, _horizon),  # "auto" (the guaranteed window) for the picard command
        "dt": (1.0e-3, _POSITIVE),
        "record_every": (10, _integer(1)),
        "tol": (1.0e-9, _POSITIVE),
        "max_iter": (30, _integer(1)),
        "n_nodes": (64, _integer(2)),
        "mesh_check": (True, _BOOLEAN),
        "crosscheck": (True, _BOOLEAN),
        "blowup_factor": (1.0e6, _POSITIVE),
    },
    "analyticity": {
        "enabled": (False, _BOOLEAN),  # read by nothing (radius alone tracks sigma)
        "sigma0": (0.5, _POSITIVE),
        "s": (2.0, _FINITE),
        "noise_floor": (1.0e-8, _NONNEGATIVE),
        "max_rel_step": (0.01, _number("(0, 0.5]")),
    },
    "estimates": {
        "campaigns": (list(CAMPAIGNS), _list(_one_of(*CAMPAIGNS), distinct=True)),
        "n_trials": (1000, _integer(1)),
        "sigma": (0.1, _NONNEGATIVE),
        "s": (1.0, _FINITE),
        "profile": ("band_limited", _one_of(*PROFILES)),
        "cutoff": (None, _optional(_integer(1))),
        "rate": (0.5, _NONNEGATIVE),
        "power": (2.0, _NONNEGATIVE),
        "interpolation_combos": (
            [[0.0, 2.0, 0.5], [0.0, 2.0, 0.25], [1.0, 3.0, 0.5], [0.0, 4.0, 0.75], [0.5, 2.5, 1.0 / 3.0]],
            _list(_combo, 1),
        ),
        "failure_demo": (True, _BOOLEAN),
        "failure_s": (-0.5, _number("(-inf, 0)")),
        "failure_ks": ([8, 16, 32, 64], _list(_integer(2), 2, increasing=True)),
    },
    "checks": {
        # read by nothing (C_s is a closed-form bound, and the gates read TOLERANCES); kept
        # while the benchmark writes them
        "existence_trials": (128, _integer(1)),
        "existence_seed": (2024, _SEED),
    },
    "output": {"directory": ("runs", _STRING)},
}


def _merge_section(user, schema, path):
    if not isinstance(user, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(user).__name__}")
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown config key: {f'{path}.{key}' if path else key}")
    merged = {}
    for key, spec in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            merged[key] = _merge_section(user.get(key, {}), spec, here)
        elif key in user:
            merged[key] = spec[1](user[key], here)
        else:
            merged[key] = copy.deepcopy(spec[0])
    return merged


@contextlib.contextmanager
def _asked(section):
    """A block that asks the module enforcing a rule; its error becomes a ConfigError that
    names the config section."""
    try:
        yield
    except (KdvBbmError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


class RunConfig:
    """A validated run configuration and the module inputs it built, once each, through the
    constructors that check them: coefficients, grid, initial_state (the datum), gevrey_index
    (the march's (sigma0, s)), x0 (X0, the datum's G norm there) and estimates_index (the
    campaigns' (sigma, s))."""

    def __init__(self, raw: dict):
        self.data = _merge_section(raw, _SCHEMA, "")
        self._validate()

    def _validate(self):
        """Build the run inputs and check the rules that tie keys together, each asked of the
        module that enforces it; each key's own domain is its schema type."""
        coef, init = self.data["coefficients"], self.data["initial"]
        ana, est = self.data["analyticity"], self.data["estimates"]
        with _asked("coefficients"):
            if coef["abcd"] is None:
                self.coefficients = CoefficientSet(**{k: v for k, v in coef.items() if k != "abcd"})
            else:
                abcd = ABCDParams(**{k: float(v) for k, v in coef["abcd"].items()})
                self.coefficients = derive_coefficients(abcd)
        with _asked("grid"):
            self.grid = SpectralGrid(**self.data["grid"])
        with _asked("initial"):
            if init["family"] == "cos_mode":
                self.initial_state = cos_mode(self.grid, init["k"], init["amplitude"])
            elif init["family"] == "gaussian":
                self.initial_state = gaussian(self.grid, init["width"], init["amplitude"])
            else:
                self.initial_state = gevrey_synthetic(
                    self.grid, init["sigma0"], init["roll_off"], init["amplitude"]
                )
        with _asked("analyticity"):
            self.gevrey_index = GevreyIndex(ana["sigma0"], ana["s"])
            self.x0 = gevrey_norm(self.initial_state, self.gevrey_index)
        with _asked("estimates"):
            self.estimates_index = g = GevreyIndex(est["sigma"], est["s"])
            for name in est["campaigns"]:
                campaign(name, self.grid, g, self.coefficients, est["interpolation_combos"])

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def run_id(self, command: str) -> str:
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]
        return f"{command}-{digest}"


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader rejecting a mapping that repeats a key, of which safe_load keeps the last
    value; merge keys (<<) and unhashable keys are left to PyYAML."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep)
            if isinstance(key, Hashable) and key in seen:
                problem = f"duplicate key {key!r}"
                raise yaml.constructor.ConstructorError(None, None, problem, key_node.start_mark)
            if isinstance(key, Hashable):
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str, overrides=()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {_yaml_problem(exc)}") from exc
    if raw is None:  # an empty document; [], false, 0 and '' are not mappings
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    for spec in overrides:
        raw = apply_override(raw, spec)
    return RunConfig(raw)


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """PyYAML's problem on one line, with the line and column where it found it."""
    mark = getattr(exc, "problem_mark", None)
    where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
    return " ".join(str(getattr(exc, "problem", None) or exc).split()) + where


def apply_override(raw: dict, spec: str) -> dict:
    """Apply one 'section.key=value' override (value parsed as YAML)."""
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like section.key=value")
    path, _, text = spec.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override {spec!r} has an empty key component")
    try:
        value = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {spec!r}: cannot parse value: {_yaml_problem(exc)}") from exc
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


def _write_csv(path, columns, rows):
    """Strings as they are, None as an empty cell, numbers to 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row]
            )


def _write_json(path, data):
    """Strict JSON: a NaN or an infinity raises ValueError rather than writing a non-JSON token."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunDirectory:
    """Staging-then-promote output directory; nothing survives a failed run, and
    without force an existing run directory is never replaced."""

    def __init__(self, root: str, run_id: str, force: bool):
        self.root = root
        self.run_id = run_id
        self.force = force
        self.final = os.path.join(root, run_id)
        self.staging = os.path.join(root, f".staging-{run_id}-{os.getpid()}")

    def __enter__(self):
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
            try:
                os.replace(self.staging, self.final)
                return False
            except OSError:  # refused onto a run directory promoted in between
                if not os.path.exists(self.final):
                    shutil.rmtree(self.staging, ignore_errors=True)
                    raise
        if not self.force:  # checked here, so a run promoted while ours ran is kept too
            shutil.rmtree(self.staging, ignore_errors=True)
            raise ConfigError(f"output directory {self.final} exists (use --force to replace)")
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
        full = os.path.join(rundir.staging, name)
        artifacts.append({"name": name, "sha256": _sha256(full), "bytes": os.path.getsize(full)})
    enabled = [c for c in checks.values() if "passed" in c]
    manifest = {
        "tool": {"name": "kdvbbm", "version": __version__},
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "command": command,
        "run_id": rundir.run_id,
        "started": started,
        "finished": _now(),
        "config": cfg.data,
        "artifacts": artifacts,
        "checks": checks,
        "passed": all(c["passed"] for c in enabled),
    }
    _write_json(rundir.path("manifest.json"), manifest)
    return manifest


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# runners: each computes one command and returns (artifacts, checks)
# ---------------------------------------------------------------------------


def _setup(cfg: RunConfig):
    """(X0, T_bar, C_s) of a march or a solve: X0 is cfg.x0, C_s the existence constant on
    the grid and T_bar the guaranteed window, inf for a zero datum."""
    with _asked("analyticity"):
        c_s = existence_constant(cfg.grid, cfg.gevrey_index, cfg.coefficients)
    return cfg.x0, local_existence_time(cfg.x0, c_s), c_s


def _trajectory_csv(traj, tracked=None):
    """trajectory.csv: one row per recorded time.  A tracked run's gevrey_norm is G at sigma(t)
    and its fits give sigma_hat; without tracking, sigma_hat and the bound columns stay empty,
    and sigma_upper stays empty where the upper bound does not hold."""
    empty = [None] * traj.t.size
    if tracked is None:
        columns = (traj.gevrey, empty, empty, empty)
    else:
        hats = [fit.sigma_hat for fit in tracked.fits]
        upper = empty if tracked.upper is None else tracked.upper
        columns = (tracked.gevrey[tracked.recorded], hats, tracked.lower, upper)
    return TRAJECTORY_COLUMNS, zip(traj.t, traj.energy, traj.h2, *columns)


@dataclasses.dataclass(frozen=True)
class GateTolerances:
    """The tolerance of every gate.  They are constants: each gate records its measured
    value, so a stricter or looser reading is a comparison with that value, and no config
    moves a verdict."""

    energy_drift_tol: float = 1.0e-6  # energy_drift: max |E(t) - E(0)| / |E(0)|
    h2_band_slack: float = 1.0e-6  # h2_band: relative widening of [c_min/c_max, c_max/c_min]
    growth_slack: float = 1.0e-6  # growth_bound: G <= 2 X0 (1 + growth_slack)
    contraction_limit: float = 0.55  # contraction: Picard's worst contraction ratio
    crosscheck_tol: float = 1.0e-6  # marcher_crosscheck: G distance of the final states
    radius_slack: float = 1.0e-12  # sigma_lower_le_tracked, sigma_tracked_le_upper: relative
    sigma_hat_fraction: float = 0.95  # sigma_hat_ge_tracked: sigma_hat >= fraction * sigma
    identity_slack: float = 1.0e-12  # interpolation, splitting_r1: worst ratio <= 1 + slack
    antisymmetry_tol: float = 1.0e-12  # antisymmetry: worst residual < tol


TOLERANCES = GateTolerances()


def _check(value, passed, limit=None, note=None) -> dict:
    entry = {"passed": bool(passed), "value": value}
    if limit is not None:
        entry["limit"] = limit
    if note:
        entry["note"] = note
    return entry


def _at_most(value, limit, note=None) -> dict:
    """A gate that passes when the measured value is at most its limit."""
    return _check(value, value <= limit, limit, note)


def _skip(note) -> dict:
    return {"skipped": True, "note": note}


def _resolvable_radius(cfg) -> float:
    """pi/L, one wavenumber spacing: a radius below it is steeper than the grid can witness."""
    return float(cfg.grid.wavenumbers[1])


def _simulate_checks(cfg, traj, tracked, t_bar, x0):
    tol, coeffs = TOLERANCES, cfg.coefficients
    checks: dict = {}

    energies = traj.energy
    if coeffs.is_hamiltonian:
        scale = max(abs(energies[0]), np.finfo(float).tiny)
        drift = float(np.max(np.abs(energies - energies[0])) / scale)
        checks["energy_drift"] = _at_most(drift, tol.energy_drift_tol)
    else:
        checks["energy_drift"] = _skip("coefficients are not Hamiltonian (gamma != 7/48)")

    h2p = traj.h2_polynomial_sq
    if h2p[0] > 0.0:
        ratios = h2p / h2p[0]
        lo = (coeffs.c_min / coeffs.c_max) * (1.0 - tol.h2_band_slack)
        hi = (coeffs.c_max / coeffs.c_min) * (1.0 + tol.h2_band_slack)
        ok = bool(np.all((ratios >= lo) & (ratios <= hi)))
        checks["h2_band"] = _check(
            float(np.max(np.abs(ratios - 1.0))), ok, note=f"band [{lo:.6g}, {hi:.6g}]"
        )
    else:
        checks["h2_band"] = _skip("zero datum")

    checks["growth_bound"] = _growth_bound(traj, t_bar, x0)
    if tracked is not None:
        resolvable = _resolvable_radius(cfg)
        below = tracked.t[tracked.sigma < resolvable]
        note = f"sigma < pi/L first at t = {below[0]:.6g}" if below.size else None
        sigma_low = float(tracked.sigma.min())
        checks["sigma_resolvable"] = _check(sigma_low, not below.size, resolvable, note)
        sigmas, slack = tracked.sigma[tracked.recorded], 1.0 + tol.radius_slack
        zero_datum = not np.any(traj.half[0])
        defined = [(f.sigma_hat, sg) for f, sg in zip(tracked.fits, sigmas) if f.defined]
        lower_ok = np.all(tracked.lower <= sigmas * slack)
        checks["sigma_lower_le_tracked"] = _check(tracked.bounds.Y0, lower_ok)
        if tracked.upper is None:
            checks["sigma_tracked_le_upper"] = _skip(tracked.upper_gap)
        else:
            upper_ok = np.all(sigmas <= tracked.upper * slack)
            checks["sigma_tracked_le_upper"] = _check(tracked.bounds.m, upper_ok)
        checks["sigma_strictly_decreasing"] = _check(
            None, zero_datum or np.all(np.diff(sigmas) < 0.0)
        )
        if defined:
            checks["sigma_hat_ge_tracked"] = _check(
                None, all(hat >= tol.sigma_hat_fraction * sg for hat, sg in defined)
            )
        else:
            checks["sigma_hat_ge_tracked"] = _skip("tail fit undefined on this spectrum")
    return checks


def _growth_bound(traj, t_bar, x0) -> dict:
    """The growth gate: the trajectory's gevrey column, G at (sigma0, s), stays at most
    2 X0 (1 + growth_slack) on the guaranteed window t <= T_bar."""
    worst = float(traj.gevrey[traj.t <= t_bar].max())  # t = 0 lies in every window
    limit = 2.0 * x0 * (1.0 + TOLERANCES.growth_slack)
    return _at_most(worst, limit, note=f"window T_bar = {t_bar:.6g}")


def run_simulate(cfg: RunConfig, tracking: bool = False):
    """March the datum with IFRK4; sigma(t) is tracked for radius."""
    sol, ana = cfg.data["solver"], cfg.data["analyticity"]
    if sol["T"] == "auto":
        raise ConfigError("solver.T: 'auto' needs the picard command")
    with _asked("solver"):
        step_count(sol["T"], sol["dt"])
    if tracking and cfg.gevrey_index.sigma <= _resolvable_radius(cfg):  # sigma_resolvable fails at t = 0
        raise ConfigError("analyticity.sigma0: a tracked march needs sigma0 > pi/grid.half_length")
    x0, t_bar, _ = _setup(cfg)

    inputs = (cfg.initial_state, sol["T"], sol["dt"], cfg.coefficients, cfg.gevrey_index)
    options = {"record_every": sol["record_every"], "blowup_factor": sol["blowup_factor"]}
    tracked = None
    if tracking:
        tracked = tracked_run(
            *inputs, noise_floor=ana["noise_floor"], max_rel_step=ana["max_rel_step"], **options
        )
        traj = tracked.trajectory
    else:
        traj = evolve_ifrk4(*inputs, **options)

    artifacts = {
        "trajectory.csv": _trajectory_csv(traj, tracked),
        "final_spectrum.csv": (
            ("k", "xi", "re", "im", "abs"), spectrum_csv_rows(Spectrum(traj.grid, traj.half[-1]))
        ),
    }
    if tracked is not None:
        artifacts["sigma.csv"] = (("t", "sigma"), zip(tracked.t, tracked.sigma))
    return artifacts, _simulate_checks(cfg, traj, tracked, t_bar, x0)


def run_picard(cfg: RunConfig):
    """Solve the integral equation by Picard iteration, optionally cross-checked by IFRK4."""
    coeffs, eta0, g = cfg.coefficients, cfg.initial_state, cfg.gevrey_index
    x0, t_bar, c_s = _setup(cfg)
    sol = cfg.data["solver"]

    T = sol["T"]
    if T == "auto":
        if not math.isfinite(t_bar):
            raise ConfigError("solver.T: 'auto' needs a nonzero datum")
        T = t_bar

    traj, diag = picard_solve(
        eta0, T, sol["tol"], sol["max_iter"], coeffs, g,
        n_nodes=sol["n_nodes"], mesh_check=sol["mesh_check"],
    )

    checks = {
        "contraction": _at_most(diag.contraction_ratio, TOLERANCES.contraction_limit),
        "growth_bound": _growth_bound(traj, t_bar, x0),
    }
    if sol["mesh_check"]:
        checks["mesh_refinement"] = _at_most(diag.mesh_delta, sol["tol"])
    else:
        checks["mesh_refinement"] = _skip("solver.mesh_check is off")
    if sol["crosscheck"]:
        n_steps, dt_cross = whole_steps(T, sol["dt"])
        rk = evolve_ifrk4(eta0, T, dt_cross, coeffs, g, record_every=n_steps)
        delta = gevrey_norm(Spectrum(eta0.grid, traj.half[-1] - rk.half[-1]), g)
        checks["marcher_crosscheck"] = _at_most(delta, TOLERANCES.crosscheck_tol)

    iterations = len(diag.distances)
    meta = {
        "T": T,
        "existence_window": None if t_bar == math.inf else t_bar,  # unbounded for a zero datum
        "existence_constant": c_s,
        "iterations": iterations,
        "mesh_delta": diag.mesh_delta,
    }
    rows = zip(range(1, iterations + 1), diag.distances, (None, *diag.ratios))
    artifacts = {
        "trajectory.csv": _trajectory_csv(traj),
        "picard.csv": (("iteration", "distance", "ratio"), rows),
        "picard_meta.json": meta,
    }
    return artifacts, checks


def run_estimates(cfg: RunConfig):
    """The randomized estimate campaigns and the below-range failure demo."""
    coeffs, grid, g = cfg.coefficients, cfg.grid, cfg.estimates_index
    est = cfg.data["estimates"]
    seed = cfg.data["run"]["seed"]

    artifacts: dict = {}
    checks: dict = {}
    columns = tuple(f.name for f in dataclasses.fields(TrialReport))
    for name in est["campaigns"]:
        reports = run_trials(
            name, grid, g, coeffs, n_trials=est["n_trials"], seed=seed, profile=est["profile"],
            combos=est["interpolation_combos"],
            cutoff=est["cutoff"], rate=est["rate"], power=est["power"],
        )
        artifacts[f"{name}.csv"] = (columns, [dataclasses.astuple(rep) for rep in reports])
        worst = max(rep.ratio_max for rep in reports)
        if name == "interpolation" or name == "splitting_r1":
            checks[name] = _at_most(worst, 1.0 + TOLERANCES.identity_slack)
        elif name == "antisymmetry":
            limit = TOLERANCES.antisymmetry_tol
            checks[name] = _check(worst, worst < limit, limit)
        else:
            checks[name] = {"informational": True, "ratio_max": worst}

    if est["failure_demo"]:
        demo = failure_demo_bilinear(
            est["failure_s"], ks=tuple(est["failure_ks"]), coeffs=coeffs
        )
        artifacts["failure_demo.csv"] = (("k", "n_modes", "ratio"), demo.rows)
        checks["failure_demo"] = {
            "informational": True,
            "monotone": demo.monotone,
            "growth_exponent": demo.growth_exponent,
        }
    return artifacts, checks


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------

#: command -> (runner, its keyword arguments, help).  A runner returns (artifacts, checks):
#: a file name maps to (columns, rows) for a CSV or to a dict for a JSON file.  A run looks
#: its runner up by name in this module, so a runner rebound on the module is the one run.
_COMMANDS = {
    "simulate": ("run_simulate", {}, "march the PDE and record the trajectory"),
    "picard": ("run_picard", {}, "fixed-point solve on the integral equation"),
    "radius": ("run_simulate", {"tracking": True}, "simulate with radius tracking and bounds"),
    "estimates": ("run_estimates", {}, "randomized inequality campaigns"),
}


def _run(command: str, cfg: RunConfig, outroot: str, force: bool) -> int:
    """Compute one command, then stage, write and promote its run directory: 0 if every
    enabled check passed, else 1.  A run that raises leaves nothing (see _failure)."""
    started = _now()
    runner, options, _ = _COMMANDS[command]
    artifacts, checks = globals()[runner](cfg, **options)
    with RunDirectory(outroot, cfg.run_id(command), force) as rundir:
        for name, content in artifacts.items():
            if isinstance(content, dict):
                _write_json(rundir.path(name), content)
            else:
                _write_csv(rundir.path(name), *content)
        manifest = _manifest(command, cfg, rundir, checks, started)
    return 0 if manifest["passed"] else 1


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and message of a run that raised exc; a MemoryError is a run larger than
    the machine, not a fault of the program, so it ends as a runtime error."""
    if isinstance(exc, ConfigError):
        return 2, f"config error: {exc}"
    if isinstance(exc, (KdvBbmError, MemoryError)):
        return 3, f"runtime error: {exc}"
    return 3, f"internal error: {exc}"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _top_level_split(text):
    """text split at its commas outside [] and {}, so a list or mapping value stays whole."""
    parts, depth = [""], 0
    for ch in text:
        depth += (ch in "[{") - (ch in "]}")
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    return parts


def _expand_sweep(set_specs):
    """Cross product of comma-separated override values."""
    axes = []
    for spec in set_specs:
        if "=" not in spec:
            raise ConfigError(f"--set {spec!r} must look like section.key=v1,v2,...")
        path, _, text = spec.partition("=")
        values = [v for v in _top_level_split(text) if v != ""]
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
        return _run(command, cfg, outroot, force), cfg.run_id(command), None
    except Exception as exc:  # sweep points must not kill their siblings
        code, message = _failure(exc)
        return code, None, message


def run_sweep(config_path, set_specs, command, outroot, force, workers) -> int:
    if workers < 1:
        raise ConfigError(f"--workers: expected an integer >= 1, got {workers}")
    if not set_specs:  # no axis still expands to one point: the base config
        raise ConfigError("sweep needs at least one --set axis")
    points = _expand_sweep(set_specs)
    started = _now()
    args = [(config_path, overrides, command, outroot, force) for overrides in points]
    # a forking pool starts all its workers at the first submit: start no idle ones
    workers = min(workers, len(points))
    if workers > 1:
        # imported here: it loads multiprocessing, socket and logging, which no other command uses
        from concurrent.futures import ProcessPoolExecutor
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
    _write_json(os.path.join(outroot, "sweep_manifest.json"), summary)
    return max(e["exit_code"] for e in entries)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _output_root(cfg_root: str | None, cli_out: str | None) -> str:
    """--out, else the environment, else the config's output.directory key; rejected before
    any compute unless its nearest existing component is a directory."""
    root = cli_out or os.environ.get(OUTPUT_ROOT_ENV) or cfg_root or "runs"
    existing = os.path.abspath(root)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"output root {root}: {existing} is not a directory")
    return root


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
    for command, (_, _, text) in _COMMANDS.items():
        sub.add_parser(command, parents=[common], help=text)
    sweep = sub.add_parser("sweep", parents=[common], help="cross product of overrides, run in parallel")
    sweep.add_argument(
        "--command",
        dest="sweep_command",
        default="simulate",
        choices=list(_COMMANDS),
        help="runner executed at every sweep point",
    )
    sweep.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sweep = args.command == "sweep"
    try:
        # a sweep's base config must validate on its own; its --set values are axes
        cfg = load_config(args.config, [] if sweep else args.overrides)
        outroot = _output_root(cfg.data["output"]["directory"], args.out)
        if sweep:
            return run_sweep(
                args.config, args.overrides, args.sweep_command, outroot, args.force, args.workers
            )
        return _run(args.command, cfg, outroot, args.force)
    except Exception as exc:
        code, message = _failure(exc)
        if message.startswith("internal error"):
            traceback.print_exc()
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())

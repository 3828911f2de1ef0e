"""Workload mixes: which CLI command each op runs, on which generated config.

Every op is one ``kdvbbm <command> <config.yaml>`` invocation.  A workload is a
fixed cycle of ops, run in a closed loop with one op in flight.  The benchmark
seed is written into ``run.seed`` and ``checks.existence_seed`` and nowhere
else; the keys that size the work (grid, T, dt, trial counts) are spelled out
so that they cannot drift with the program's defaults.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

# The keys below equal the program defaults at the commit that introduced the
# benchmark; they are written out so that a change of default is not mistaken
# for a change of speed.
_DEFAULT_GRID = {"n_modes": 256, "half_length": 16.0 * math.pi}
_DEFAULT_DATUM = {"family": "cos_mode", "k": 1, "amplitude": 0.05}

CAMPAIGNS = (
    "bilinear_omega",
    "bilinear_tau",
    "trilinear_psi",
    "derivsq_psi",
    "interpolation",
    "splitting_r1",
    "antisymmetry",
)
INTERPOLATION_COMBOS = (
    (0.0, 2.0, 0.5),
    (0.0, 2.0, 0.25),
    (1.0, 3.0, 0.5),
    (0.0, 4.0, 0.75),
    (0.5, 2.5, 1.0 / 3.0),
)


@dataclass(frozen=True)
class OpSpec:
    """One CLI op: the subcommand and its config before the seed is applied."""

    command: str
    config: dict = field(default_factory=dict)

    def seeded(self, seed: int) -> dict:
        """The config this op runs under the given benchmark seed."""
        cfg = copy.deepcopy(self.config)
        cfg.setdefault("run", {})["seed"] = seed
        cfg.setdefault("checks", {})["existence_seed"] = seed
        return cfg

    def steps(self) -> int:
        """IFRK4 steps of the main march (0 for commands that do not march)."""
        if self.command not in ("simulate", "radius"):
            return 0
        sol = self.config["solver"]
        return round(sol["T"] / sol["dt"])

    def trials(self) -> int:
        """Randomized trials over all campaigns (0 for other commands)."""
        if self.command != "estimates":
            return 0
        est = self.config["estimates"]
        per_campaign = [
            len(est["interpolation_combos"]) if name == "interpolation" else 1
            for name in est["campaigns"]
        ]
        return est["n_trials"] * sum(per_campaign)


# march: the most common run, `simulate` on the default config.  The tendency
# kernel inside IFRK4Stepper.step does nearly all the work; Picard and the
# campaign loops are bypassed, so batching them must not move this workload.
MARCH = (
    OpSpec(
        "simulate",
        {
            "grid": dict(_DEFAULT_GRID),
            "initial": dict(_DEFAULT_DATUM),
            "solver": {"method": "ifrk4", "T": 5.0, "dt": 1.0e-3, "record_every": 10},
            "analyticity": {"enabled": False},
        },
    ),
)

# picard: the only workload that calls the tendency once per row of a time
# mesh (64 nodes, 128 for the mesh check), which is what batching Picard
# targets.  cos_mode k=1 as in C04: with the 64-node mesh the gaussian,
# gevrey_synthetic, k=2 and n=512 data raise QuadratureError.  The marcher
# cross-check stays on at a coarse dt so it does not swamp the solve.  T is
# pinned inside the range that T: auto gives over seeds (4.41 to 5.22, with 5
# or 6 iterations), because with T: auto the seed would change the work; the
# existence constant is still computed in every op.
PICARD = (
    OpSpec(
        "picard",
        {
            "grid": dict(_DEFAULT_GRID),
            "initial": dict(_DEFAULT_DATUM),
            "solver": {
                "method": "picard",
                "T": 4.7,
                "dt": 1.0e-2,
                "n_nodes": 64,
                "mesh_check": True,
                "crosscheck": True,
            },
        },
    ),
)

# estimates: the seven default campaigns (11,000 trials) and the failure demo.
# Trials are bound by the Python loop and run the spectral kernel on random
# fields instead of a marched state; the norm-only half (interpolation,
# splitting, antisymmetry) must not move when the kernel changes.
ESTIMATES = (
    OpSpec(
        "estimates",
        {
            "grid": dict(_DEFAULT_GRID),
            "estimates": {
                "campaigns": list(CAMPAIGNS),
                "n_trials": 1000,
                "interpolation_combos": [list(c) for c in INTERPOLATION_COMBOS],
                "failure_demo": True,
            },
        },
    ),
)

# radius: the C10 acceptance datum at n=1024.  The only workload for the
# analyticity layer and the tracked-run loop, and the only one marching at
# n=1024, where the tendency is less bound by per-call overhead than at 256.
RADIUS = (
    OpSpec(
        "radius",
        {
            "grid": {"n_modes": 1024, "half_length": 16.0 * math.pi},
            "initial": {
                "family": "gevrey_synthetic",
                "sigma0": 0.6,
                "roll_off": 2.0,
                "amplitude": 0.002,
            },
            "solver": {"method": "ifrk4", "T": 2.0, "dt": 2.0e-3, "record_every": 10},
            "analyticity": {"enabled": True, "sigma0": 0.5, "s": 2.0},
        },
    ),
)

# known_failures: ops that fail at the commit that introduced the benchmark,
# kept runnable so the defects stay visible.  They are not in BENCHMARK.json,
# whose workloads must not fail.
#  - picard at n=1024 with T: auto: the Gevrey distance stalls near 1e-8
#    against tol 1e-9, so the solve exits 3 after max_iter iterations.
#  - radius on the README example config: sigma collapses at t=2.804 and the
#    run exits 3 with nothing on disk.
KNOWN_FAILURES = (
    OpSpec(
        "picard",
        {
            "grid": {"n_modes": 1024, "half_length": 16.0 * math.pi},
            "initial": dict(_DEFAULT_DATUM),
            "solver": {**PICARD[0].config["solver"], "T": "auto"},
        },
    ),
    OpSpec(
        "radius",
        {
            "grid": dict(_DEFAULT_GRID),
            "initial": dict(_DEFAULT_DATUM),
            "solver": {"method": "ifrk4", "T": 5.0, "dt": 1.0e-3, "record_every": 10},
            "analyticity": {"enabled": True, "sigma0": 0.5, "s": 2.0},
        },
    ),
)

WORKLOADS = {
    "march": MARCH,
    "picard": PICARD,
    "estimates": ESTIMATES,
    "radius": RADIUS,
    "known_failures": KNOWN_FAILURES,
}

#: The workloads `--workload all` runs; known_failures is run only by name.
MEASURED = ("march", "picard", "estimates", "radius")

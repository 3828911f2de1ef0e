"""Golden outputs: small runs of each command, frozen under tests/golden/.

Each case is one command on a small config.  Its artifacts are the runner's own
(columns, rows) and JSON dicts, written as the command line writes them, plus the
runner's checks as checks.json.  test_golden.py reruns every case and compares.

Regenerate (after a change that moves outputs on purpose) with

    PYTHONPATH=src python tests/regenerate_golden.py

and list each moved file with its largest relative change in CHANGES.md.
"""

import json
import math
import pathlib
import shutil

import numpy as np

from kdvbbm import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_SMALL_GRID = {"n_modes": 64, "half_length": math.pi}

#: case -> (command, config).  Every march and solve has analyticity.s < 1, so no existence
#: constant (a random campaign) is computed and only the estimates case depends on numpy's
#: random streams.
CASES = {
    # a datum large enough that the cubic term moves the final spectrum above round-off
    "simulate": ("simulate", {
        "grid": _SMALL_GRID,
        "initial": {"family": "gaussian", "amplitude": 0.5, "width": 0.3},
        "solver": {"T": 0.5, "dt": 0.01, "record_every": 5},
        "analyticity": {"sigma0": 0.1, "s": 0.5},
    }),
    "radius": ("radius", {
        "grid": {"n_modes": 128, "half_length": 4.0 * math.pi},
        "initial": {
            "family": "gevrey_synthetic", "sigma0": 0.6, "roll_off": 2.0, "amplitude": 0.05,
        },
        "solver": {"T": 0.5, "dt": 0.01, "record_every": 5},
        "analyticity": {"sigma0": 0.5, "s": 0.5},
    }),
    "picard": ("picard", {
        "grid": _SMALL_GRID,
        "initial": {"family": "cos_mode", "k": 1, "amplitude": 0.05},
        "solver": {"method": "picard", "T": 0.5, "dt": 0.05, "n_nodes": 32},
        "analyticity": {"sigma0": 0.1, "s": 0.5},
    }),
    "estimates": ("estimates", {
        "grid": {"n_modes": 32, "half_length": math.pi},
        "run": {"seed": 7},
        "estimates": {"n_trials": 40, "s": 1.0, "sigma": 0.1, "failure_ks": [8, 16, 32]},
    }),
}

#: files of the estimates case that do not follow numpy's random streams
STREAM_FREE = {"failure_demo.csv"}


def run_case(name):
    """{file: (columns, rows) or dict} of one case, its checks as checks.json."""
    command, config = CASES[name]
    runner, options, _ = cli._COMMANDS[command]
    artifacts, checks = getattr(cli, runner)(cli.RunConfig(config), **options)
    return {**artifacts, "checks.json": checks}


def main():
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for name in CASES:
        folder = GOLDEN / name
        folder.mkdir(parents=True)
        for file, content in run_case(name).items():
            if isinstance(content, dict):
                cli._write_json(folder / file, content)
            else:
                cli._write_csv(folder / file, *content)
    (GOLDEN / "numpy_version.json").write_text(json.dumps({"numpy": np.__version__}) + "\n")


if __name__ == "__main__":
    main()

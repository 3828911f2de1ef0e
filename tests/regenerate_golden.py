"""Golden outputs: small runs of each command, frozen under tests/golden/.

Each case is one command on a small config.  Its artifacts are the runner's own
(columns, rows) and JSON dicts, written as the command line writes them, plus the
runner's checks as checks.json.  test_golden.py reruns every case and compares.

Regenerate the cases whose outputs a change moves on purpose (all cases when none is
named) with

    PYTHONPATH=src python tests/regenerate_golden.py [case ...]

It prints, for each file it writes, the largest relative change against the file
it replaces; list each moved file with that change in CHANGES.md.
"""

import csv
import json
import math
import pathlib
import shutil
import sys

import numpy as np

from kdvbbm import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_SMALL_GRID = {"n_modes": 64, "half_length": math.pi}

#: case -> (command, config).  Every march and solve has analyticity.s < 1, so no existence
#: constant is computed (growth_bound is a skip) and the radius case has no upper bound
#: (sigma_tracked_le_upper is a skip); only the estimates case draws random numbers.
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
        "solver": {"T": 0.5, "dt": 0.05, "n_nodes": 32},
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


def _values(path):
    """{where: value} of a golden file: CSV cells by (row, column), JSON leaves by path."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return {(i, c): v for i, row in enumerate(rows) for c, v in zip(header, row)}

    def leaves(value, where):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(item, f"{where}.{key}")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, f"{where}[{i}]")
        else:
            yield where, value

    return dict(leaves(json.loads(path.read_text(encoding="utf-8")), "$"))


def _change(old, new):
    """The largest relative change from the values old to new, and where; values that
    change kind (a cell emptied or filled, a key added or removed) are counted apart."""
    worst, where, kind = 0.0, None, []
    for key in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        try:
            change = abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
        except (TypeError, ValueError):
            kind.append(key)
            continue
        if change > worst:
            worst, where = change, key
    text = [f"{len(kind)} values change kind, first at {kind[0]}"] if kind else []
    if where is not None:
        text.append(f"largest relative change {worst:.3g} at {where}")
    return "; ".join(text) or "unchanged"


def main(names):
    """Rewrite the golden files of the named cases, printing how each file moved."""
    for name in names:
        folder = GOLDEN / name
        old = {path.name: _values(path) for path in folder.glob("*")}
        if folder.exists():
            shutil.rmtree(folder)
        folder.mkdir(parents=True)
        for file, content in run_case(name).items():
            if isinstance(content, dict):
                cli._write_json(folder / file, content)
            else:
                cli._write_csv(folder / file, *content)
            moved = _change(old.pop(file), _values(folder / file)) if file in old else "new"
            print(f"{name}/{file}: {moved}")
        for file in sorted(old):
            print(f"{name}/{file}: removed")
    (GOLDEN / "numpy_version.json").write_text(json.dumps({"numpy": np.__version__}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(CASES))

"""Golden outputs: small runs of each command, frozen under tests/golden/.

Each case is one command on a small config.  Its artifacts are the runner's own
(columns, rows) and JSON dicts, written as the command line writes them, plus the
runner's checks as checks.json.  test_golden.py reruns every case and compares it
with differences(), at the tolerances below.

Floats compare at |a - b| <= RTOL * max(|a|, |b|) + ATOL, which admits a round-off
reordering (a few ulp) and rejects a moved constant; the absolute floor covers columns
that are rounding noise themselves, such as the antisymmetry residuals.  The energy
drift check, a difference of nearly equal energies, compares at DRIFT_ATOL alone.
Integers, strings, booleans and empty cells compare exactly.

Regenerate the cases whose outputs a change moves on purpose (all cases when none is
named) with

    PYTHONPATH=src python tests/regenerate_golden.py [case ...]

It rewrites only the files that differ beyond the tolerances, so round-off leaves a
file as it is, and prints, for each file it rewrites, the largest relative change
against the file it replaces; list each moved file with that change in CHANGES.md.
"""

import csv
import json
import math
import pathlib
import sys

import numpy as np

from kdvbbm import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_SMALL_GRID = {"n_modes": 64, "half_length": math.pi}

#: case -> (command, config).  Every march and solve has analyticity.s < 1, below the
#: continuum lemmas' range, where the existence constant still bounds the grid's estimates
#: and growth_bound is judged on its window; the radius case has no upper bound
#: (sigma_tracked_le_upper is a skip).  Only the estimates case draws random numbers.
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

RTOL = 1e-12
ATOL = 1e-15

#: The energy drift is a difference of nearly equal energies (2.4e-12 and 8.7e-16 in the
#: goldens) that a reordered sum has moved by 5.5e-16; 1e-14 is 20 times that and 1e8 times
#: below the 1e-6 gate.
DRIFT = "$.energy_drift.value"
DRIFT_ATOL = 1e-14


def run_case(name):
    """{file: (columns, rows) or dict} of one case, its checks as checks.json; the rows
    are a list, so they can be compared and then written."""
    command, config = CASES[name]
    runner, options, _ = cli._COMMANDS[command]
    artifacts, checks = getattr(cli, runner)(cli.RunConfig(config), **options)
    artifacts = {
        file: content if isinstance(content, dict) else (content[0], list(content[1]))
        for file, content in artifacts.items()
    }
    return {**artifacts, "checks.json": checks}


def mismatch(fresh, golden):
    """Why the fresh value differs from the golden one, or None when they agree."""
    if fresh is None or golden is None or isinstance(fresh, (bool, str)):
        return None if fresh == golden else f"{fresh!r} != {golden!r}"
    if isinstance(fresh, (int, np.integer)):
        return None if int(fresh) == int(golden) else f"{fresh} != {golden}"
    a, b = float(fresh), float(golden)
    if abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL:
        return None
    return f"{a!r} != {b!r} (relative {abs(a - b) / max(abs(a), abs(b)):.3e})"


def _read(path):
    """A golden file as written: (header, rows of cell text) for a CSV, the parsed JSON."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return header, rows
    return json.loads(path.read_text(encoding="utf-8"))


def _cell(text):
    return None if text == "" else text  # None is an empty cell


def _compare_csv(content, golden):
    (columns, rows), (header, golden_rows) = content, golden
    if list(columns) != header or len(rows) != len(golden_rows):
        return [f"{len(rows)} rows of {list(columns)} != {len(golden_rows)} rows of {header}"]
    problems = []
    for i, (row, texts) in enumerate(zip(rows, golden_rows)):
        for column, fresh, text in zip(columns, row, texts):
            why = mismatch(fresh, _cell(text))
            if why:
                problems.append(f"row {i} {column}: {why}")
    return problems


def compare_json(fresh, golden, where="$"):
    """The problems of a fresh JSON value against the golden one, leaf by leaf."""
    if isinstance(fresh, dict):
        if not isinstance(golden, dict) or sorted(fresh) != sorted(golden):
            return [f"{where}: {fresh!r} != {golden!r}"]
        return [p for k in fresh for p in compare_json(fresh[k], golden[k], f"{where}.{k}")]
    if isinstance(fresh, (list, tuple)):
        if not isinstance(golden, list) or len(fresh) != len(golden):
            return [f"{where}: {fresh!r} != {golden!r}"]
        pairs = enumerate(zip(fresh, golden))
        return [p for i, (a, b) in pairs for p in compare_json(a, b, f"{where}[{i}]")]
    if where == DRIFT:
        a, b = float(fresh), float(golden)
        why = None if abs(a - b) <= DRIFT_ATOL else f"{a!r} != {b!r} (absolute {abs(a - b):.3e})"
    else:
        why = mismatch(fresh, golden)
    return [f"{where}: {why}"] if why else []


def differences(content, path):
    """The problems of a case's fresh content, (columns, rows) or a dict, against the golden
    file at path: an empty list when every value agrees within the tolerances."""
    if isinstance(content, dict):
        return compare_json(content, _read(path))
    return _compare_csv(content, _read(path))


def _settled_json(fresh, golden, where="$"):
    if isinstance(fresh, dict) and isinstance(golden, dict):
        return {
            k: _settled_json(v, golden[k], f"{where}.{k}") if k in golden else v
            for k, v in fresh.items()
        }
    if isinstance(fresh, (list, tuple)) and isinstance(golden, list) and len(fresh) == len(golden):
        return [_settled_json(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(fresh, golden))]
    return fresh if compare_json(fresh, golden, where) else golden


def _settled(content, path):
    """content with each value that agrees with the golden file at path within the
    tolerances taken from the file, so that a rewrite moves only the values that moved."""
    golden = _read(path)
    if isinstance(content, dict):
        return _settled_json(content, golden)
    (columns, rows), (header, golden_rows) = content, golden
    if list(columns) != header or len(rows) != len(golden_rows):
        return content
    return columns, [
        [text if mismatch(fresh, _cell(text)) is None else fresh for fresh, text in zip(row, texts)]
        for row, texts in zip(rows, golden_rows)
    ]


def _values(path):
    """{where: value} of a golden file: CSV cells by (row, column), JSON leaves by path."""
    if path.suffix == ".csv":
        header, rows = _read(path)
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

    return dict(leaves(_read(path), "$"))


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
    """Rewrite the golden files of the named cases that differ beyond the tolerances, each
    value that agrees kept as it was, printing how each file moved; remove the files a case
    no longer writes."""
    for name in names:
        folder = GOLDEN / name
        folder.mkdir(parents=True, exist_ok=True)
        outputs = run_case(name)
        for file, content in outputs.items():
            path = folder / file
            old = _values(path) if path.exists() else None
            if old is not None:
                if not differences(content, path):
                    print(f"{name}/{file}: within tolerance, kept")
                    continue
                content = _settled(content, path)
            if isinstance(content, dict):
                cli._write_json(path, content)
            else:
                cli._write_csv(path, *content)
            print(f"{name}/{file}: {'new' if old is None else _change(old, _values(path))}")
        for path in sorted(folder.iterdir()):
            if path.name not in outputs:
                path.unlink()
                print(f"{name}/{path.name}: removed")
    # the version whose random streams the estimates files follow
    if any(CASES[name][0] == "estimates" for name in names):
        (GOLDEN / "numpy_version.json").write_text(json.dumps({"numpy": np.__version__}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(CASES))

"""Every command's outputs on small configs, against the files frozen under tests/golden/.

Floats compare at |a - b| <= RTOL * max(|a|, |b|) + ATOL, which admits a round-off
reordering (a few ulp) and rejects a moved constant; the absolute floor covers columns
that are rounding noise themselves, such as the antisymmetry residuals.  The energy
drift check, a difference of nearly equal energies, compares at DRIFT_ATOL alone.
Integers, strings, booleans and empty cells compare exactly.
The random campaigns follow numpy's Generator streams, which NEP 19 does not promise
across releases, so their files are compared only under the numpy version the goldens
were made with; failure_demo.csv draws nothing and is always compared.  Regenerate with
tests/regenerate_golden.py.
"""

import csv
import json

import numpy as np
import pytest

from regenerate_golden import CASES, GOLDEN, STREAM_FREE, run_case

RTOL = 1e-12
ATOL = 1e-15

#: The energy drift is a difference of nearly equal energies (2.4e-12 and 8.7e-16 in the
#: goldens) that a reordered sum has moved by 5.5e-16; 1e-14 is 20 times that and 1e8 times
#: below the 1e-6 gate.
DRIFT = "$.energy_drift.value"
DRIFT_ATOL = 1e-14

GOLDEN_NUMPY = json.loads((GOLDEN / "numpy_version.json").read_text())["numpy"]


def _mismatch(fresh, golden):
    """Why the fresh value differs from the golden one, or None when they agree."""
    if fresh is None or golden is None or isinstance(fresh, (bool, str)):
        return None if fresh == golden else f"{fresh!r} != {golden!r}"
    if isinstance(fresh, (int, np.integer)):
        return None if int(fresh) == int(golden) else f"{fresh} != {golden}"
    a, b = float(fresh), float(golden)
    if abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL:
        return None
    return f"{a!r} != {b!r} (relative {abs(a - b) / max(abs(a), abs(b)):.3e})"


def _compare_csv(content, path):
    columns, rows = content
    with open(path, newline="", encoding="utf-8") as fh:
        header, *golden_rows = csv.reader(fh)
    assert list(columns) == header
    rows = [tuple(row) for row in rows]
    assert len(rows) == len(golden_rows)
    problems = []
    for i, (row, golden) in enumerate(zip(rows, golden_rows)):
        for column, fresh, text in zip(columns, row, golden):
            why = _mismatch(fresh, None if text == "" else text)  # None is an empty cell
            if why:
                problems.append(f"row {i} {column}: {why}")
    return problems


def _compare_json(fresh, golden, where="$"):
    if isinstance(fresh, dict):
        assert isinstance(golden, dict) and sorted(fresh) == sorted(golden), where
        return [p for k in fresh for p in _compare_json(fresh[k], golden[k], f"{where}.{k}")]
    if isinstance(fresh, (list, tuple)):
        assert isinstance(golden, list) and len(fresh) == len(golden), where
        pairs = enumerate(zip(fresh, golden))
        return [p for i, (a, b) in pairs for p in _compare_json(a, b, f"{where}[{i}]")]
    if where == DRIFT:
        a, b = float(fresh), float(golden)
        why = None if abs(a - b) <= DRIFT_ATOL else f"{a!r} != {b!r} (absolute {abs(a - b):.3e})"
    else:
        why = _mismatch(fresh, golden)
    return [f"{where}: {why}"] if why else []


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case):
    outputs = run_case(case)
    folder = GOLDEN / case
    assert sorted(outputs) == sorted(p.name for p in folder.iterdir())
    streams = CASES[case][0] == "estimates"
    for name, content in outputs.items():
        if streams and name not in STREAM_FREE and np.__version__ != GOLDEN_NUMPY:
            continue
        path = folder / name
        if isinstance(content, dict):
            problems = _compare_json(content, json.loads(path.read_text(encoding="utf-8")))
        else:
            problems = _compare_csv(content, path)
        assert problems == [], f"{case}/{name}: {problems[:5]}"


def test_tolerance_admits_round_off_and_rejects_a_moved_digit():
    assert _mismatch(1.0 + 2.0**-52, "1") is None
    assert _mismatch(3e-16, "1e-16") is None  # rounding-noise columns ride on the floor
    assert _mismatch(1.0 + 1e-11, "1") is not None
    assert _mismatch(7, "8") is not None


def test_energy_drift_compares_at_its_own_floor():
    def compare(check, moved_by):
        drift = 2.3831237068779932e-12
        return _compare_json({check: {"value": drift + moved_by}}, {check: {"value": drift}})

    assert compare("energy_drift", 9e-15) == []
    assert compare("energy_drift", 2e-14) != []
    # every other value keeps the relative tolerance and the 1e-15 floor
    assert compare("h2_band", 9e-15) != []

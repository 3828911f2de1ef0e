"""Every command's outputs on small configs, against the files frozen under tests/golden/.

Values compare at the tolerances of regenerate_golden.py, which writes the files and
rewrites only those that move beyond them.  The random campaigns follow numpy's
Generator streams, which NEP 19 does not promise across releases, so their files are
compared only under the numpy version the goldens were made with; failure_demo.csv draws
nothing and is always compared.
"""

import csv
import json
import shutil

import numpy as np
import pytest

import regenerate_golden
from regenerate_golden import (
    CASES, GOLDEN, STREAM_FREE, compare_json, differences, mismatch, run_case,
)

GOLDEN_NUMPY = json.loads((GOLDEN / "numpy_version.json").read_text())["numpy"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case):
    outputs = run_case(case)
    folder = GOLDEN / case
    assert sorted(outputs) == sorted(p.name for p in folder.iterdir())
    streams = CASES[case][0] == "estimates"
    for name, content in outputs.items():
        if streams and name not in STREAM_FREE and np.__version__ != GOLDEN_NUMPY:
            continue
        problems = differences(content, folder / name)
        assert problems == [], f"{case}/{name}: {problems[:5]}"


def test_tolerance_admits_round_off_and_rejects_a_moved_digit():
    assert mismatch(1.0 + 2.0**-52, "1") is None
    assert mismatch(3e-16, "1e-16") is None  # rounding-noise columns ride on the floor
    assert mismatch(1.0 + 1e-11, "1") is not None
    assert mismatch(7, "8") is not None


def test_energy_drift_compares_at_its_own_floor():
    def compare(check, moved_by):
        drift = 2.3831237068779932e-12
        return compare_json({check: {"value": drift + moved_by}}, {check: {"value": drift}})

    assert compare("energy_drift", 9e-15) == []
    assert compare("energy_drift", 2e-14) != []
    # every other value keeps the relative tolerance and the 1e-15 floor
    assert compare("h2_band", 9e-15) != []


def test_shape_change_is_a_difference(tmp_path):
    # a column, row or key added or removed is a difference, so regeneration rewrites it
    path = tmp_path / "a.csv"
    path.write_text("t,x\n0,1\n", encoding="utf-8")
    assert differences((("t", "x"), [(0.0, 1.0)]), path) == []
    assert differences((("t", "x"), [(0.0, 1.0), (1.0, 1.0)]), path) != []
    assert differences((("t",), [(0.0,)]), path) != []
    assert compare_json({"a": {"passed": True}}, {"a": {"skipped": True}}) != []


def test_regeneration_rewrites_only_what_moved(tmp_path, monkeypatch, capsys):
    shutil.copytree(GOLDEN / "picard", tmp_path / "picard")
    monkeypatch.setattr(regenerate_golden, "GOLDEN", tmp_path)
    # a cell and a JSON value moved within the tolerance, and a JSON value moved beyond it
    trajectory = tmp_path / "picard" / "trajectory.csv"
    meta = tmp_path / "picard" / "picard_meta.json"
    with open(trajectory, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = repr(float(rows[1][1]) * (1.0 + 1e-13))
    with open(trajectory, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    rounded = trajectory.read_bytes()
    golden = json.loads(meta.read_text(encoding="utf-8"))
    golden["existence_constant"] *= 1.0 + 1e-13
    meta.write_text(json.dumps({**golden, "mesh_delta": 2.0 * golden["mesh_delta"]}), encoding="utf-8")

    regenerate_golden.main(["picard"])
    assert trajectory.read_bytes() == rounded
    regenerated = json.loads(meta.read_text(encoding="utf-8"))
    assert mismatch(regenerated.pop("mesh_delta"), golden.pop("mesh_delta")) is None
    assert regenerated == golden  # every other value as it was
    printed = capsys.readouterr().out.splitlines()
    assert "picard/trajectory.csv: within tolerance, kept" in printed
    assert "picard/picard_meta.json: largest relative change 0.5 at $.mesh_delta" in printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["picard"]  # numpy_version.json untouched

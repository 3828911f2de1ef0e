import hashlib
import json

import ops


def _run_dir(tmp_path, passed=True):
    run_dir = tmp_path / "simulate-0123456789ab"
    run_dir.mkdir()
    artifacts = []
    for name, text in (("trajectory.csv", "t\n0\n"), ("final_spectrum.csv", "k\n1\n")):
        (run_dir / name).write_text(text)
        artifacts.append(
            {"name": name, "sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text)}
        )
    manifest = {"artifacts": artifacts, "passed": passed, "checks": {"energy_drift": {"passed": passed}}}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return run_dir


def test_matching_digests_pass(tmp_path):
    _run_dir(tmp_path)
    problem, wrong, digests, size, _ = ops.verify_run_dir(str(tmp_path), "simulate")
    assert problem == "" and not wrong
    assert set(digests) == {"trajectory.csv", "final_spectrum.csv"}
    assert size > 0


def test_changed_artifact_is_caught(tmp_path):
    run_dir = _run_dir(tmp_path)
    (run_dir / "trajectory.csv").write_text("t\n1\n")
    problem, wrong, _, _, _ = ops.verify_run_dir(str(tmp_path), "simulate")
    assert "trajectory.csv" in problem and "SHA-256" in problem
    assert wrong


def test_missing_artifact_and_failed_manifest_are_caught(tmp_path):
    run_dir = _run_dir(tmp_path, passed=False)
    problem, wrong, _, _, _ = ops.verify_run_dir(str(tmp_path), "simulate")
    assert "energy_drift" in problem and wrong
    (run_dir / "final_spectrum.csv").unlink()
    problem, wrong, _, _, _ = ops.verify_run_dir(str(tmp_path), "simulate")
    assert "missing" in problem and wrong


def test_no_run_directory_is_a_problem(tmp_path):
    problem, wrong, _, _, _ = ops.verify_run_dir(str(tmp_path), "picard")
    assert "found 0" in problem and wrong

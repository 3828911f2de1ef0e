"""Run one op in a fresh child process and check everything it wrote.

An op passes only if the command exits 0, its manifest says ``passed``, every
SHA-256 in the manifest matches the file on disk, and its CSV digests equal
those of earlier ops of the same config (the C13 property).  A deadline turns
a hang into a counted failure.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import yaml

import spans
from workloads import OpSpec

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Wall-clock limit of one op; the slowest op takes about 5 s.
DEADLINE_S = 60.0


@dataclass
class OpResult:
    spec: OpSpec
    traced: bool
    wall_s: float  # spawn to exit
    setup_s: float | None  # spawn to the start of the command's own work
    rss_mb: float
    ok: bool = False
    wrong_output: bool = False  # an output contradicts its manifest or an earlier op
    problem: str = ""
    csv_digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    picard_iterations: int = 0
    trace: dict | None = None  # raw spans, dropped once summarized
    layer_values: dict | None = None


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _wait(proc: subprocess.Popen, deadline_s: float):
    """Wait for the child, killing it at the deadline; return (status, rusage, timed_out)."""
    fd = os.pidfd_open(proc.pid)
    try:
        try:
            ready, _, _ = select.select([fd], [], [], deadline_s)
        except BaseException:  # interrupted: do not leave the child running
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, not ready


def verify_run_dir(out_root: str, command: str):
    """Check the single run directory under out_root against its manifest.

    Returns (problem, wrong_output, csv_digests, artifact_bytes, run_dir); the
    problem is empty when every check holds.
    """
    found = glob.glob(os.path.join(out_root, f"{command}-*"))
    if len(found) != 1:
        return f"expected one {command} run directory, found {len(found)}", True, {}, 0, ""
    run_dir = found[0]
    try:
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable manifest: {exc}", True, {}, 0, run_dir
    digests = {}
    for art in manifest.get("artifacts", []):
        path = os.path.join(run_dir, art["name"])
        if not os.path.isfile(path):
            return f"artifact {art['name']} missing", True, {}, 0, run_dir
        actual = sha256(path)
        if actual != art["sha256"]:
            return f"artifact {art['name']} does not match its SHA-256", True, {}, 0, run_dir
        if art["name"].endswith(".csv"):
            digests[art["name"]] = actual
    total = sum(os.path.getsize(p) for p in glob.glob(os.path.join(run_dir, "*")))
    if manifest.get("passed") is not True:
        failed = sorted(k for k, c in manifest.get("checks", {}).items() if c.get("passed") is False)
        return f"manifest not passed: {failed}", True, digests, total, run_dir
    return "", False, digests, total, run_dir


def run_op(spec: OpSpec, seed: int, work_dir: str, src_dir: str, traced: bool) -> OpResult:
    """Run `kdvbbm <command>` on the seeded config in a fresh process under work_dir."""
    os.makedirs(work_dir)
    cfg_path = os.path.join(work_dir, "config.yaml")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(spec.seeded(seed), fh, sort_keys=True)
    out_root = os.path.join(work_dir, "out")
    result_path = os.path.join(work_dir, "result.json")
    argv = [sys.executable, CHILD, result_path, "1" if traced else "0",
            spec.command, cfg_path, "--out", out_root]
    env = dict(os.environ, PYTHONPATH=src_dir)
    with open(os.path.join(work_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(work_dir, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work_dir)
        code, usage, timed_out = _wait(proc, DEADLINE_S)
        wall = time.monotonic() - t0
    res = OpResult(spec, traced, wall, None, usage.ru_maxrss / 1024.0)
    if timed_out:
        res.problem = f"killed at the {DEADLINE_S:.0f} s deadline"
        return res
    try:
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        child = {}
    if child.get("work_start") is not None:
        res.setup_s = child["work_start"] - t0
    if child.get("trace") is not None:
        res.trace = spans.load(child["trace"], result_path + ".spans.npz")
    if code != 0:
        with open(os.path.join(work_dir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        res.problem = f"exit {code}: {lines[-1] if lines else 'no message'}"
        # exit 1 means an enabled check failed: the outputs themselves are wrong
        res.wrong_output = code == 1
        return res
    if not child:
        res.problem = "exit 0 without a result record"
        return res
    res.problem, res.wrong_output, res.csv_digests, res.artifact_bytes, run_dir = verify_run_dir(
        out_root, spec.command
    )
    if spec.command == "picard" and not res.problem:
        with open(os.path.join(run_dir, "picard_meta.json"), encoding="utf-8") as fh:
            res.picard_iterations = json.load(fh)["iterations"]
    res.ok = not res.problem
    return res

import json
import os
import subprocess
import sys

import pytest
import yaml

import metrics
import spans
from ops import OpResult
from spans import Tracer, summarize
from workloads import MEASURED, OpSpec

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _nested_trace():
    names = [
        "cli.main",
        "dynamics.evolve_ifrk4",
        "dynamics.step",
        "fft.fft",
        "norms.gevrey_norm",
        "norms.gevrey_weights",
    ]
    # name, start, end, parent
    rows = [
        (0, 0.0, 10.0, -1),  # cli.main
        (1, 1.0, 9.0, 0),  # evolve_ifrk4
        (2, 2.0, 5.0, 1),  # step
        (3, 3.0, 4.0, 2),  # fft inside the step
        (2, 5.0, 7.0, 1),  # step
        (4, 7.5, 8.5, 1),  # gevrey_norm
        (5, 7.75, 8.0, 5),  # gevrey_weights inside gevrey_norm
        (4, 9.5, 9.75, 0),  # gevrey_norm raising into cli
    ]
    name_of, start, end, parent = (list(col) for col in zip(*rows))
    return {"names": names, "name_of": name_of, "start": start, "end": end,
            "parent": parent, "raised": [7]}


def test_self_time_subtracts_direct_children_only():
    s = summarize(_nested_trace())
    by_name = s["by_name"]
    assert by_name["cli.main"]["self"] == pytest.approx(10.0 - 8.0 - 0.25)
    assert by_name["dynamics.evolve_ifrk4"]["self"] == pytest.approx(8.0 - 3.0 - 2.0 - 1.0)
    assert by_name["dynamics.step"]["self"] == pytest.approx(2.0 + 2.0)
    assert by_name["dynamics.step"]["busy"] == pytest.approx(5.0)
    assert by_name["norms.gevrey_norm"]["self"] == pytest.approx(0.75 + 0.25)
    assert by_name["norms.gevrey_norm"]["calls"] == 2
    assert by_name["norms.gevrey_norm"]["callers"] == {"dynamics": 1, "cli": 1}


def test_layer_busy_counts_nested_spans_of_a_layer_once():
    by_layer = summarize(_nested_trace())["by_layer"]
    assert by_layer["dynamics"]["busy"] == pytest.approx(8.0)
    assert by_layer["dynamics"]["self"] == pytest.approx(6.0)
    assert by_layer["norms"]["busy"] == pytest.approx(1.25)
    assert by_layer["norms"]["self"] == pytest.approx(1.25)
    assert by_layer["fft"]["busy"] == pytest.approx(1.0)
    # self times of all layers add up to the root span
    assert sum(v["self"] for v in by_layer.values()) == pytest.approx(10.0)
    assert by_layer["norms"]["errors"] == 1
    assert by_layer["dynamics"]["errors"] == 0


def test_generator_gets_one_span_per_next():
    tracer = Tracer()

    def count(n):
        yield from range(n)

    traced = tracer.wrap("dynamics.iterate_ifrk4", count)
    outer = tracer.wrap("dynamics.evolve_ifrk4", lambda: list(traced(3)))
    assert outer() == [0, 1, 2]
    names = [tracer.names[k] for k in tracer.name_of]
    assert names == ["dynamics.evolve_ifrk4"] + ["dynamics.iterate_ifrk4"] * 4
    assert tracer.parent == [-1, 0, 0, 0, 0]


def test_exception_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("norms.gevrey_norm", boom)()
    assert tracer.raised == [0]
    assert tracer._stack == []


def test_traced_cli_run_wraps_public_names_wherever_bound(tmp_path):
    config = {
        "grid": {"n_modes": 16},
        "solver": {"T": 0.01, "dt": 0.001, "record_every": 5},
        "checks": {"existence_trials": 4},
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(config))
    result = tmp_path / "result.json"
    argv = [sys.executable, os.path.join(BENCH, "child.py"), str(result), "1",
            "simulate", str(cfg), "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["work_start"] is not None
    trace = spans.load(data["trace"], str(result) + ".spans.npz")
    assert all(not name.split(".", 1)[1].startswith("_") for name in trace["names"])
    by_name = summarize(trace)["by_name"]
    assert by_name["dynamics.step"]["calls"] == 10
    assert by_name["dynamics.iterate_ifrk4"]["calls"] == 12  # 11 states and the final stop
    # gevrey_norm is imported into several modules; every binding is traced
    assert {"cli", "dynamics", "estimates"} <= set(by_name["norms.gevrey_norm"]["callers"])
    assert by_name["fft.ifft"]["calls"] > 0
    assert trace["fft_points"] > 0 and trace["fft_bytes"] > 0

    # every per-layer metric is computed from such a trace
    op = OpResult(OpSpec("simulate", config), True, 1.0, 0.1, 40.0, trace=trace)
    values, note = metrics.layer_values(op)
    assert set(values) | {"trace.overhead_s"} == set(metrics.PER_LAYER_UNITS)
    assert note == ""


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(MEASURED)

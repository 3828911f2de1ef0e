"""Turn op results into the end-to-end and per-layer metrics."""

from __future__ import annotations

import math
import statistics

from spans import LAYERS, summarize
from workloads import CAMPAIGNS

#: The gated end-to-end metrics: every workload reports them and none is ever 0.
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default rule).

    A failed op enters as +inf: it sorts last, and a rank that touches an
    infinite value yields +inf rather than an interpolated finite number.
    """
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(ops) -> dict:
    """{name: (value, unit, samples)} over the untraced ops of one workload.

    steps_per_s and trials_per_s are reported where the workload marches or
    runs campaigns, and are measured over successful ops.
    """
    plain = [op for op in ops if not op.traced]
    good = [op for op in plain if op.ok]
    setups = [op.setup_s for op in plain if op.setup_s is not None]
    out = {
        "setup_s": (statistics.median(setups) if setups else math.nan, "s", len(setups)),
        "op_s_p50": (
            percentile([op.wall_s if op.ok else math.inf for op in plain], 50),
            "s",
            len(plain),
        ),
        "peak_rss_mb": (max((op.rss_mb for op in plain), default=math.nan), "MB", len(plain)),
        "error_rate": (
            (len(plain) - len(good)) / len(plain) if plain else math.nan,
            "ratio",
            len(plain),
        ),
    }
    wall = sum(op.wall_s for op in good)
    steps = sum(op.spec.steps() for op in good)
    trials = sum(op.spec.trials() for op in good)
    if any(op.spec.steps() for op in plain):
        out["steps_per_s"] = (steps / wall if wall else math.nan, "steps/s", len(good))
    if any(op.spec.trials() for op in plain):
        out["trials_per_s"] = (trials / wall if wall else math.nan, "trials/s", len(good))
    return out


# name, unit: the per-layer metrics, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "dynamics.step.calls": "count",
    "dynamics.step.us_p50": "us",
    "dynamics.step.us_p99": "us",
    "dynamics.step.busy_s": "s",
    "dynamics.march.self_s": "s",
    "dynamics.picard_solve.busy_s": "s",
    "dynamics.picard_solve.self_s": "s",
    "dynamics.picard.iterations": "count",
    "dynamics.share": "ratio",
    "spectral.dealiased_product.calls": "count",
    "spectral.dealiased_product.us_p50": "us",
    "spectral.dealiased_product.busy_s": "s",
    "spectral.transform_inverse.busy_s": "s",
    "spectral.symbol_cache.hit_ratio": "ratio",
    "spectral.share": "ratio",
    "fft.calls": "count",
    "fft.points": "pts_computed",
    "fft.bytes": "B_computed",
    "fft.busy_s": "s",
    "fft.share": "ratio",
    "norms.gevrey_norm.calls": "count",
    "norms.gevrey_norm.us_p50": "us",
    "norms.gevrey_norm.busy_s": "s",
    "norms.gevrey_weights.calls": "count",
    "norms.sobolev_norm.busy_s": "s",
    "norms.energy.busy_s": "s",
    "norms.share": "ratio",
    **{f"estimates.{c}.trial_us": "us" for c in CAMPAIGNS},
    "estimates.trials": "count",
    "estimates.random_field.calls": "count",
    "estimates.random_field.busy_s": "s",
    "estimates.existence_constant.busy_s": "s",
    "estimates.failure_demo.busy_s": "s",
    "estimates.share": "ratio",
    "analyticity.tracked_run.self_s": "s",
    "analyticity.estimate_radius.calls": "count",
    "analyticity.estimate_radius.us_p50": "us",
    "analyticity.sigma_norms.calls": "count",
    "analyticity.share": "ratio",
    "cli.load_config.busy_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "cli.share": "ratio",
    "fields.busy_s": "s",
    "params.busy_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def campaign_trials(trace: dict) -> dict:
    """{campaign: [trials, seconds]} over run_trials calls made for a campaign.

    Calls made inside existence_constant are set-up for a march or a solve,
    not campaign trials, and are left out.
    """
    names, name_of, parent = trace["names"], trace["name_of"], trace["parent"]
    out: dict[str, list] = {}
    for key, (campaign, n_trials) in trace["labels"].items():
        idx = int(key)
        p = parent[idx]
        if p >= 0 and names[name_of[p]] == "estimates.existence_constant":
            continue
        entry = out.setdefault(campaign, [0, 0.0])
        entry[0] += n_trials
        entry[1] += trace["end"][idx] - trace["start"][idx]
    return out


def layer_values(op) -> tuple[dict, str]:
    """Per-layer values of one traced op, and a note if the trace misses work.

    The IFRK4 steps and campaign trials the trace counts must equal what the
    config requests; a shortfall means the spans no longer see that layer.
    """
    trace, spec = op.trace, op.spec
    s = summarize(trace)
    by_name, by_layer = s["by_name"], s["by_layer"]
    wall = op.wall_s

    def fn(name, key):
        return by_name.get(name, {}).get(key, 0)

    def us(name, q):
        durations = fn(name, "durations")
        return percentile(durations, q) * 1e6 if durations else 0.0

    def lay(layer, key):
        return by_layer.get(layer, {}).get(key, 0)

    cache = trace["symbol_cache"]
    lookups = cache["hits"] + cache["misses"]
    trials = campaign_trials(trace)
    v = {
        "dynamics.step.calls": fn("dynamics.step", "calls"),
        "dynamics.step.us_p50": us("dynamics.step", 50),
        "dynamics.step.us_p99": us("dynamics.step", 99),
        "dynamics.step.busy_s": fn("dynamics.step", "busy"),
        "dynamics.march.self_s": fn("dynamics.evolve_ifrk4", "self")
        + fn("dynamics.iterate_ifrk4", "self"),
        "dynamics.picard_solve.busy_s": fn("dynamics.picard_solve", "busy"),
        "dynamics.picard_solve.self_s": fn("dynamics.picard_solve", "self"),
        "dynamics.picard.iterations": op.picard_iterations,
        "spectral.dealiased_product.calls": fn("spectral.dealiased_product", "calls"),
        "spectral.dealiased_product.us_p50": us("spectral.dealiased_product", 50),
        "spectral.dealiased_product.busy_s": fn("spectral.dealiased_product", "busy"),
        "spectral.transform_inverse.busy_s": fn("spectral.transform_inverse", "busy"),
        "spectral.symbol_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "fft.calls": sum(f["calls"] for name, f in by_name.items() if name.startswith("fft.")),
        "fft.points": trace["fft_points"],
        "fft.bytes": trace["fft_bytes"],
        "fft.busy_s": lay("fft", "busy"),
        "norms.gevrey_norm.calls": fn("norms.gevrey_norm", "calls"),
        "norms.gevrey_norm.us_p50": us("norms.gevrey_norm", 50),
        "norms.gevrey_norm.busy_s": fn("norms.gevrey_norm", "busy"),
        "norms.gevrey_weights.calls": fn("norms.gevrey_weights", "calls"),
        "norms.sobolev_norm.busy_s": fn("norms.sobolev_norm", "busy"),
        "norms.energy.busy_s": fn("norms.energy", "busy"),
        **{
            f"estimates.{c}.trial_us": trials[c][1] / trials[c][0] * 1e6 if c in trials else 0.0
            for c in CAMPAIGNS
        },
        "estimates.trials": sum(t[0] for t in trials.values()),
        "estimates.random_field.calls": fn("estimates.random_field", "calls"),
        "estimates.random_field.busy_s": fn("estimates.random_field", "busy"),
        "estimates.existence_constant.busy_s": fn("estimates.existence_constant", "busy"),
        "estimates.failure_demo.busy_s": fn("estimates.failure_demo_bilinear", "busy"),
        "analyticity.tracked_run.self_s": fn("analyticity.tracked_run", "self"),
        "analyticity.estimate_radius.calls": fn("analyticity.estimate_radius", "calls"),
        "analyticity.estimate_radius.us_p50": us("analyticity.estimate_radius", 50),
        "analyticity.sigma_norms.calls": by_name.get("norms.gevrey_norm", {})
        .get("callers", {})
        .get("analyticity", 0),
        "cli.load_config.busy_s": fn("cli.load_config", "busy"),
        "cli.self_s": lay("cli", "self"),
        "cli.artifact_bytes": op.artifact_bytes,
        "fields.busy_s": lay("fields", "busy"),
        "params.busy_s": lay("params", "busy"),
    }
    for layer in ("dynamics", "spectral", "fft", "norms", "estimates", "analyticity", "cli"):
        v[f"{layer}.share"] = lay(layer, "self") / wall
    for layer in LAYERS:
        v[f"{layer}.errors"] = lay(layer, "errors")

    note = ""
    if spec.steps() and v["dynamics.step.calls"] != spec.steps():
        note = f"{v['dynamics.step.calls']} IFRK4 steps traced, config requests {spec.steps()}"
    if spec.trials() and v["estimates.trials"] != spec.trials():
        note = f"{v['estimates.trials']} campaign trials traced, config requests {spec.trials()}"
    return v, note


def per_layer(ops) -> dict:
    """{name: (value, unit, samples)}: the median over traced ops of each value."""
    traced = [op for op in ops if op.traced and op.layer_values]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            continue
        values = [op.layer_values[name] for op in traced]
        out[name] = (statistics.median(values) if values else math.nan, unit, len(values))
    plain = [op.wall_s for op in ops if not op.traced and op.ok]
    walls = [op.wall_s for op in traced if op.ok]
    overhead = statistics.median(walls) - statistics.median(plain) if plain and walls else math.nan
    out["trace.overhead_s"] = (overhead, "s", min(len(plain), len(walls)))
    return out

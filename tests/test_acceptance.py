"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them live).
Expensive runs are shared through session fixtures; the wall-clock budget of
a criterion covers the work attributed to it.
"""

import json
import os
import time

import numpy as np
import pytest
import yaml

import kdvbbm as kb
import kdvbbm.cli as cli
from draws import random_spectrum
from oracles import richardson_order

G_TRACK = kb.GevreyIndex(0.1, 2.0)


def _line(cid, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{cid}] {name}: {status}  {detail}  ({elapsed:.2f}s < {budget:.0f}s)", flush=True)
    assert ok, f"{cid} {name}: {detail}"
    assert elapsed < budget, f"{cid} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


@pytest.fixture(scope="session")
def c2_run(grid, coeffs):
    eta0 = kb.cos_mode(grid, 1, 0.05)
    t0 = time.perf_counter()
    traj = kb.evolve_ifrk4(eta0, 5.0, 1e-3, coeffs, record_every=5, gevrey_index=G_TRACK)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="session")
def c4_run(grid, coeffs):
    """Certified constant, guaranteed window, Picard solve and marcher run."""
    t0 = time.perf_counter()
    eta0 = kb.cos_mode(grid, 1, 0.01)
    x0 = kb.gevrey_norm(eta0, G_TRACK)
    c_s = kb.existence_constant(grid, G_TRACK, coeffs)
    t_bar = kb.local_existence_time(x0, c_s)
    traj, diag = kb.picard_solve(eta0, t_bar, 1e-9, 30, coeffs, G_TRACK, n_nodes=64)
    m = max(1, round(t_bar / 1e-3 / 64))
    dt = t_bar / (64 * m)
    rk = kb.evolve_ifrk4(eta0, t_bar, dt, coeffs, record_every=m, gevrey_index=G_TRACK)
    elapsed = time.perf_counter() - t0
    return {
        "eta0": eta0, "x0": x0, "c_s": c_s, "t_bar": t_bar,
        "picard": traj, "diag": diag, "marcher": rk, "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def c10_run(grid, coeffs):
    eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
    t0 = time.perf_counter()
    run = kb.tracked_run(eta0, 2.0, 2e-3, coeffs, sigma0=0.5, record_every=10)
    return run, time.perf_counter() - t0


def test_c01_unitarity(grid, coeffs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for seed in range(100):
        u = random_spectrum(grid, "band_limited", seed)
        t = float(rng.uniform(0.0, 10.0))
        v = kb.linear_propagate(u, t, coeffs)
        before = kb.gevrey_norm(u, G_TRACK)
        after = kb.gevrey_norm(v, G_TRACK)
        worst = max(worst, abs(after - before) / before)
    elapsed = time.perf_counter() - t0
    _line("C01", "unitarity of the free group", worst < 1e-12,
          f"max_rel_change={worst:.2e} tol=1e-12", elapsed, 1.0)


def test_c02_energy_conservation(c2_run):
    traj, elapsed = c2_run
    energies = traj.energy
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    _line("C02", "energy conservation (T=5, dt=1e-3)", drift < 1e-6,
          f"rel_drift={drift:.2e} tol=1e-6", elapsed, 30.0)


def test_c03_h2_two_sided_bound(c2_run, coeffs):
    traj, _ = c2_run
    t0 = time.perf_counter()
    h2p = np.array([kb.h2_polynomial_sq(kb.Spectrum(traj.grid, d)) for d in traj.half])
    ratios = h2p / h2p[0]
    lo = (coeffs.c_min / coeffs.c_max) * (1.0 - 1e-6)   # 3/5 for the defaults
    hi = (coeffs.c_max / coeffs.c_min) * (1.0 + 1e-6)   # 5/3
    ok = bool(np.all((ratios >= lo) & (ratios <= hi)))
    elapsed = time.perf_counter() - t0
    _line("C03", "H2 two-sided bound along the run", ok,
          f"ratio in [{ratios.min():.8f}, {ratios.max():.8f}] within [{lo:.4f}, {hi:.4f}]",
          elapsed, 30.0)


def test_c04_picard_marcher_cross_validation(c4_run):
    picard, rk = c4_run["picard"], c4_run["marcher"]
    assert picard.half.shape == rk.half.shape
    sup = 0.0
    for a, b in zip(picard.half, rk.half):
        diff = kb.Spectrum(picard.grid, a - b)
        sup = max(sup, kb.gevrey_norm(diff, G_TRACK))
    ratio = c4_run["diag"].contraction_ratio
    ok = sup < 1e-6 and ratio <= 0.55
    _line("C04", "Picard vs IFRK4 on the guaranteed window", ok,
          f"sup_diff={sup:.2e} tol=1e-6, contraction={ratio:.3f} <= 0.55, "
          f"T_bar={c4_run['t_bar']:.3g}, C_s={c4_run['c_s']:.3g}",
          c4_run["elapsed"], 60.0)


def test_c05_growth_bound_in_window(c4_run):
    t0 = time.perf_counter()
    x0 = c4_run["x0"]
    sup_g = max(c4_run["picard"].gevrey)
    limit = 2.0 * x0 * (1.0 + 1e-6)
    elapsed = time.perf_counter() - t0
    _line("C05", "growth bound on [0, T_bar]", sup_g <= limit,
          f"sup_G={sup_g:.6g} <= 2*X0*(1+1e-6)={limit:.6g}", elapsed, 60.0)


def test_c06_interpolation_inequality(grid, coeffs):
    t0 = time.perf_counter()
    combos = [(0.0, 2.0, 0.5), (0.0, 2.0, 0.25), (1.0, 3.0, 0.5),
              (0.0, 4.0, 0.75), (0.5, 2.5, 1.0 / 3.0)]
    worst = 0.0
    violations = 0
    for i, combo in enumerate(combos):
        [rep] = kb.run_trials("interpolation", grid, kb.GevreyIndex(0.1, 0.0), coeffs,
                              n_trials=1000, seed=600 + i, combos=[combo])
        worst = max(worst, rep.ratio_max)
        if rep.ratio_max > 1.0 + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    _line("C06", "interpolation inequality (5000 trials)", violations == 0,
          f"ratio_max={worst:.15f} <= 1+1e-12, violations={violations}", elapsed, 5.0)


def test_c07_splitting_inequality_r1(grid, coeffs):
    t0 = time.perf_counter()
    [rep] = kb.run_trials("splitting_r1", grid, kb.GevreyIndex(0.1, 1.0), coeffs,
                          n_trials=1000, seed=700)
    ok = rep.ratio_max <= 1.0 + 1e-12
    elapsed = time.perf_counter() - t0
    _line("C07", "splitting at r=1 with c1=c2=1", ok,
          f"ratio_max={rep.ratio_max:.15f} <= 1+1e-12", elapsed, 5.0)


def test_c08_antisymmetry_cancellation(grid, coeffs):
    t0 = time.perf_counter()
    [rep] = kb.run_trials("antisymmetry", grid, kb.GevreyIndex(0.0, 0.0), coeffs,
                          n_trials=1000, seed=800)
    ok = rep.ratio_max < 1e-12
    elapsed = time.perf_counter() - t0
    _line("C08", "antisymmetry cancellation", ok,
          f"max_residual={rep.ratio_max:.2e} < 1e-12", elapsed, 5.0)


def test_c09_radius_estimator_oracle(grid):
    t0 = time.perf_counter()
    results = []
    ok = True
    for rate in (0.1, 0.3, 0.5, 1.0):
        fit = kb.estimate_radius(kb.gevrey_synthetic(grid, rate))
        results.append((rate, fit.sigma_hat, fit.r_squared))
        ok &= abs(fit.sigma_hat - rate) <= 0.02 * rate and fit.r_squared > 0.999
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{r}->{s:.4f}(r2={q:.5f})" for r, s, q in results)
    _line("C09", "radius estimator on synthetic decays", ok, detail, elapsed, 1.0)


def test_c10_bound_ordering(c10_run):
    run, elapsed = c10_run
    times, tracked, b = run.trajectory.t, run.sigmas, run.bounds
    ok_lower = bool(np.all(run.lower <= tracked * (1 + 1e-12)))
    # the lower bound's hypothesis: G(sigma(t)) <= X0 + sqrt(t) Y0
    ok_hypothesis = bool(np.all(run.gevreys <= (b.X0 + np.sqrt(times) * b.Y0) * (1 + 1e-12)))
    ok_upper = run.upper is not None and bool(np.all(tracked <= run.upper * (1 + 1e-12)))
    ok_decreasing = bool(np.all(np.diff(tracked) < 0))
    fits = [f.sigma_hat for f in run.fits if f.defined]
    ok_hat = len(fits) == len(run.fits) and all(
        h >= 0.95 * s for h, s in zip(fits, tracked)
    )
    ok = ok_lower and ok_hypothesis and ok_upper and ok_decreasing and ok_hat
    _line("C10", "radius bound ordering on a tracked run", ok,
          f"lower<=sigma:{ok_lower} G<=X0+sqrt(t)Y0:{ok_hypothesis} sigma<=upper:{ok_upper} "
          f"decreasing:{ok_decreasing} sigma_hat>=0.95*sigma:{ok_hat} sigma(T)={tracked[-1]:.4f} "
          f"Y0={b.Y0:.6g} m={b.m:.6g}", elapsed, 60.0)


def test_c11_bilinear_signature(coeffs):
    t0 = time.perf_counter()
    stable = True
    details = []
    for s in (0.0, 1.0):
        g = kb.GevreyIndex(0.1, s)
        maxima = []
        for n in (256, 512):
            [rep] = kb.run_trials("bilinear_omega", kb.SpectralGrid(n, 16 * np.pi), g,
                                  coeffs, n_trials=1000, seed=1100, cutoff=32)
            maxima.append(rep.ratio_max)
        factor = max(maxima) / min(maxima)
        stable &= factor < 2.0
        details.append(f"s={s}: x{factor:.3f}")
    demo = kb.failure_demo_bilinear(-0.5, ks=(8, 16, 32, 64))
    ratios = [r for (_, _, r) in demo.rows]
    ok = stable and demo.monotone
    elapsed = time.perf_counter() - t0
    _line("C11", "bilinear boundedness and s<0 failure", ok,
          f"{'; '.join(details)}; s=-1/2 ratios {['%.2f' % r for r in ratios]} monotone={demo.monotone}",
          elapsed, 30.0)


def test_c12_ifrk4_self_convergence(grid, coeffs):
    t0 = time.perf_counter()
    eta0 = kb.gaussian(grid, 1.0, 1.0)
    finals = [
        kb.evolve_ifrk4(eta0, 2.0, dt, coeffs, record_every=10**6).half[-1]
        for dt in (0.04, 0.02, 0.01)
    ]
    # sums over all n modes: a paired half-layout entry counts twice, d_{n/2} four times
    e1 = float(np.sqrt(np.sum(grid.parseval * np.abs(finals[0] - finals[1]) ** 2)))
    e2 = float(np.sqrt(np.sum(grid.parseval * np.abs(finals[1] - finals[2]) ** 2)))
    order = richardson_order(e1, e2)
    elapsed = time.perf_counter() - t0
    _line("C12", "IFRK4 self-convergence order", 3.7 <= order <= 4.3,
          f"order={order:.3f} in [3.7, 4.3] (e1={e1:.2e}, e2={e2:.2e})", elapsed, 30.0)


def test_c13_reproducibility(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("accept-repro")
    sim_cfg = {
        "run": {"seed": 3},
        "initial": {"family": "cos_mode", "k": 1, "amplitude": 0.05},
        "solver": {"T": 0.5, "dt": 0.005, "record_every": 10},
    }
    est_cfg = {
        "run": {"seed": 9},
        "estimates": {"n_trials": 100, "failure_demo": False,
                      "campaigns": ["bilinear_omega", "interpolation", "antisymmetry"]},
    }
    digests = []
    for label, config, command in (("sim", sim_cfg, "simulate"), ("est", est_cfg, "estimates")):
        pair = []
        for attempt in ("a", "b"):
            cfg_path = root / f"{label}-{attempt}.yaml"
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(config, fh)
            out = root / f"{label}-out-{attempt}"
            assert cli.main([command, str(cfg_path), "--out", str(out)]) == 0
            (rd,) = [d for d in os.listdir(out) if not d.startswith(".")]
            with open(out / rd / "manifest.json") as fh:
                manifest = json.load(fh)
            pair.append({a["name"]: a["sha256"] for a in manifest["artifacts"]})
        digests.append(pair[0] == pair[1])
    ok = all(digests)
    elapsed = time.perf_counter() - t0
    _line("C13", "reproducibility of CSV digests", ok,
          f"simulate identical={digests[0]}, estimates identical={digests[1]}",
          elapsed, 30.0)

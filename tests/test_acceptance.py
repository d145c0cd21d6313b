"""Acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance, and
prints one [PASS]/[FAIL] line (visible with ``pytest -s``; the -v test
status line carries the same verdict).  The heavyweight runs are shared
through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

import swarmsphere as ss
from swarmsphere.cli import main as cli_main


def check(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    """Swarm run, d=2, N=64, kappa=1, random generator (scale 1), dt=1e-3,
    t in [0, 5], with the driving field recorded at every step."""
    t0 = time.perf_counter()
    omega = ss.SkewMatrix.random(2, 2024, 1.0)
    ens0 = ss.sample_uniform(2, 64, 42).with_omega(omega)
    traj = ss.simulate(ens0, ss.MeanField(1.0), 5.0, 1e-3, record_every=1)
    replay = ss.ReplayField.from_trajectory(traj)
    path = ss.ws_evolve(omega, replay, 5.0, 1e-3)
    elapsed = time.perf_counter() - t0
    return {"omega": omega, "ens0": ens0, "traj": traj, "replay": replay,
            "path": path, "elapsed": elapsed}


@pytest.fixture(scope="module")
def kinetic_run():
    """Identical-generator kinetic run, d=2, N=1000, kappa=1, t_end=50,
    dt=1e-2, diagnostics recorded every step."""
    t0 = time.perf_counter()
    ens0 = ss.sample_vmf([0.0, 0.0, 1.0], 1.0, 1000, 2025)
    series, final = ss.order_parameter_series(ens0, ss.MeanField(1.0), 50.0, 1e-2,
                                              record_every=1)
    elapsed = time.perf_counter() - t0
    return {"ens0": ens0, "series": series, "final": final, "elapsed": elapsed}


def test_criterion_01_pushforward_equivalence(reference_run):
    traj, path, ens0 = reference_run["traj"], reference_run["path"], reference_run["ens0"]
    steps = len(path) - 1
    worst = 0.0
    for c in range(1, 11):
        idx = round(c * steps / 10)
        pushed = ss.push_forward(path[idx], ens0)
        worst = max(worst, float(np.max(np.linalg.norm(
            pushed.points - traj.points[idx], axis=1))))
    ok = worst <= 1e-5 and reference_run["elapsed"] < 30.0
    check("criterion 1 (push-forward equivalence)", ok,
          f"max mismatch {worst:.3e} (tol 1e-5), runtime {reference_run['elapsed']:.1f}s (< 30s)")


def test_criterion_02_cross_and_cycle_conservation(reference_run):
    traj = reference_run["traj"]
    rep2 = ss.conservation_drift(traj, 1.0, 2, 100, seed=7)
    rep3 = ss.conservation_drift(traj, 1.0, 3, 50, seed=8)
    worst = max(rep2.per_tuple_max_drift, rep3.per_tuple_max_drift,
                rep2.max_relative_drift, rep3.max_relative_drift)
    check("criterion 2 (cross/cycle conservation)", worst <= 1e-6,
          f"relative drift {worst:.3e} over 100 four-cycles and 50 six-cycles (tol 1e-6)")


def test_criterion_03_functional_conservation(reference_run):
    traj = reference_run["traj"]
    worst = 0.0
    for p in (0.3, -0.3):
        for k in (2, 3):
            rep = ss.conservation_drift(traj, p, k, 100, seed=11)
            worst = max(worst, rep.max_relative_drift)
    zero = max(ss.conservation_drift(traj, 0.0, k, 100, seed=11).max_relative_drift
               for k in (2, 3))
    ok = worst <= 1e-6 and zero == 0.0
    check("criterion 3 (functional conservation)", ok,
          f"max drift {worst:.3e} at p=+-0.3, k in {{2,3}} (tol 1e-6); p=0 drift {zero}")


def test_criterion_04_existence_boundary_grid():
    t0 = time.perf_counter()
    mism = []
    log_defect = 0.0
    for d in (1, 2, 3):
        p = -1.5
        while p <= 1.5 + 1e-12:
            rep = ss.divergence_probe(p, d)
            if (rep.classification == "convergent") != ss.existence_check(p, d):
                mism.append((p, d, rep.classification))
            if abs(abs(p) - d / 2.0) < 1e-12:
                diffs = np.array(rep.decade_differences)
                log_defect = max(log_defect, float(np.max(np.abs(diffs / diffs[0] - 1.0))))
            p += 0.25
    elapsed = time.perf_counter() - t0
    ok = not mism and log_defect <= 0.10 and elapsed < 10.0
    check("criterion 4 (existence boundary)", ok,
          f"mismatches {mism}; log-boundary decade spread {log_defect:.3f} (tol 0.10); "
          f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_05_reduced_integral_anchors():
    a = ss.reduced_pair_integral(0.0, 2)
    b = ss.reduced_pair_integral(-1.0, 1)
    defect = max(abs(a - 4 * math.pi), abs(b - 4 * math.pi))
    check("criterion 5 (reduced-integral anchors)", defect <= 1e-9,
          f"|value - 4 pi| = {defect:.2e} for (d=2, p=0) and (d=1, p=-1) (tol 1e-9)")


def test_criterion_06_order_parameter_monotone_and_derivative(kinetic_run):
    series = kinetic_run["series"]
    increments = np.diff(series.R2)
    min_inc = float(np.min(increments))
    fd = (series.R2[2:] - series.R2[:-2]) / (series.times[2:] - series.times[:-2])
    fd_defect = float(np.max(np.abs(series.dR2_analytic[1:-1] - fd)))
    ok = min_inc >= -1e-10 and fd_defect <= 1e-4 and kinetic_run["elapsed"] < 60.0
    check("criterion 6 (monotonicity + derivative identity)", ok,
          f"min increment {min_inc:.2e} (>= -1e-10); |analytic - FD| {fd_defect:.2e} "
          f"(tol 1e-4); runtime {kinetic_run['elapsed']:.1f}s (< 60s)")


def test_criterion_07_complete_synchronization(kinetic_run):
    series = kinetic_run["series"]
    r0 = math.sqrt(float(series.R2[0]))
    r_end = math.sqrt(float(series.R2[-1]))
    mass_defect = max(abs(float(series.mass_plus[-1]) - 0.5 * (1 + r_end)),
                      abs(float(series.mass_minus[-1]) - 0.5 * (1 - r_end)))
    ok = r0 >= 0.1 and r_end >= 0.99 and mass_defect <= 0.05
    check("criterion 7 (complete synchronization)", ok,
          f"R(0)={r0:.3f} (>= 0.1), R(50)={r_end:.6f} (>= 0.99), "
          f"bipolar mass defect {mass_defect:.3f} (tol 0.05)")


def test_criterion_08_bipolar_instability():
    rep = ss.instability_experiment(N=1000, d=2, kappa=1.0, delta=1e-3, seed=7)
    ok = (rep.R_max_symmetric <= 1e-6 and rep.R_end_perturbed >= 0.99
          and rep.mixed_tuple_max >= 1e3)
    check("criterion 8 (bipolar instability)", ok,
          f"symmetric R_max {rep.R_max_symmetric:.2e} (tol 1e-6); perturbed "
          f"R(50) {rep.R_end_perturbed:.4f} (>= 0.99); mixed-cluster cross-ratio "
          f"{rep.mixed_tuple_max:.2e} (>= 1e3); control drift {rep.control_max_drift:.2e}")


def test_criterion_09_heterogeneous_conservation():
    om_a = ss.SkewMatrix.zero(2)
    om_b = ss.SkewMatrix.planar(2, 1.0)
    pts = ss.sample_uniform(2, 64, 77).points
    ens0 = ss.Ensemble(pts, (om_a,) * 32 + (om_b,) * 32)
    traj = ss.simulate(ens0, ss.MeanField(1.0), 5.0, 1e-3, record_every=10)
    rep = ss.per_omega_conservation(traj, 0.3, 2, 50, seed=13)
    within = max(drift.per_tuple_max_drift for drift in rep.groups)
    mixed = rep.mixed_drift.per_tuple_max_drift
    ok = within <= 1e-6 and mixed >= 1e-2
    check("criterion 9 (heterogeneous conservation)", ok,
          f"within-group drift {within:.2e} (tol 1e-6); mixed-tuple drift {mixed:.2e} (>= 1e-2)")


def test_criterion_10_algebraic_identity_suite():
    rng = ss.rng_stream(4096)
    worst = 0.0
    for _ in range(1000):
        w = rng.standard_normal(3)
        w *= 0.95 * rng.random() ** (1.0 / 3.0) / np.linalg.norm(w)
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        x = rng.standard_normal(3)
        om = ss.SkewMatrix(3, rng.standard_normal(3))
        r1, r3 = ss.algebraic_identity_residuals(w, m, om, x)
        worst = max(worst, r1, r3)
    check("criterion 10 (algebraic identity suite)", worst <= 1e-12,
          f"max residual {worst:.2e} over 1000 random states (tol 1e-12)")


def test_criterion_11_determinism(tmp_path):
    cfgs = {
        "ws.json": {"experiment": "ws-verify", "d": 2, "N": 4, "t_end": 0.1, "dt": 1e-3,
                    "omega_spec": {"kind": "random", "seed": 3, "scale": 1.0}, "seed": 42},
        "ex.json": {"experiment": "existence", "d": 1, "seed": 0},
    }
    all_ok = True
    details = []
    for name, cfg in cfgs.items():
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_a = tmp_path / (name + ".a")
        out_b = tmp_path / (name + ".b")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for artifact in sorted(out_a.iterdir()):
            other = out_b / artifact.name
            if artifact.name == "manifest.json":
                ma = json.loads(artifact.read_text())
                mb = json.loads(other.read_text())
                ma.pop("wall_time_s"), mb.pop("wall_time_s")
                same = ma == mb
            else:
                same = artifact.read_bytes() == other.read_bytes()
            all_ok &= same
            if not same:
                details.append(f"{name}/{artifact.name}")
    check("criterion 11 (determinism)", all_ok,
          "all artifacts byte-identical across reruns" if all_ok
          else f"differing artifacts: {details}")

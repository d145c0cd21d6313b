"""Reproducible experiment harness.

One experiment per invocation, driven by a JSON config with a top-level
``experiment`` discriminator.  Configs are validated strictly (unknown keys
are rejected by name, numeric parameters are checked against the
preconditions of the operations they feed), artifacts are CSV/JSON written
deterministically, and a manifest recording the config hash, tool version,
wall time, output hashes and gate verdicts is written last.

Exit codes: 0 all gates pass, 1 a gate failed, 2 usage/config error or an
aborted run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (FrustratedField, MeanField, PrescribedField, ReplayField,
                       TimeDelayField, WinfreeField, simulate)
from .functionals import (UniformSphereSampler, VmfSampler, conservation_drifts,
                          divergence_probe, estimate_cycle_moments, existence_check)
from .geometry import Ensemble, SkewMatrix, sample_uniform, sample_vmf
from .io import sha256_file, write_csv, write_json
from .kinetic import (instability_experiment, order_parameter, order_parameter_series,
                      per_omega_conservation)
from .ws import conjugacy_residual, push_forward, ws_evolve

__all__ = ["ConfigError", "main", "parse_config", "run_experiment"]

EXPERIMENTS = ("simulate", "ws-verify", "functional", "existence", "kinetic", "heterogeneous")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(obj: dict, allowed: set[str], path: str = ""):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}{key}")


def _check_plane(spec: dict, path: str, d: int):
    plane = spec.get("plane", [0, 1])
    _require(isinstance(plane, list) and len(plane) == 2 and all(_is_int(i) for i in plane)
             and 0 <= plane[0] <= d and 0 <= plane[1] <= d and plane[0] != plane[1],
             f"{path}.plane: expected two distinct axis indices in range")


def _validate_omega_spec(spec, path: str, d: int):
    _require(isinstance(spec, dict), f"{path}: expected an object")
    kind = spec.get("kind")
    _require(kind in ("zero", "random", "planar"), f"{path}.kind: expected zero|random|planar")
    if kind == "zero":
        _check_keys(spec, {"kind"}, path + ".")
    elif kind == "random":
        _check_keys(spec, {"kind", "seed", "scale"}, path + ".")
        _require(_is_int(spec.get("seed")) and spec["seed"] >= 0, f"{path}.seed: expected a nonnegative integer")
        _require(_is_num(spec.get("scale", 1.0)), f"{path}.scale: expected a number")
    else:
        _check_keys(spec, {"kind", "rate", "plane"}, path + ".")
        _require(_is_num(spec.get("rate")), f"{path}.rate: expected a number")
        _check_plane(spec, path, d)


def _build_omega(spec, d: int):
    kind = spec["kind"]
    if kind == "zero":
        return SkewMatrix.zero(d)
    if kind == "random":
        return SkewMatrix.random(d, spec["seed"], float(spec.get("scale", 1.0)))
    plane = spec.get("plane", [0, 1])
    return SkewMatrix.planar(d, float(spec["rate"]), (plane[0], plane[1]))


_FIELD_KEYS = {
    "mean_field": {"variant", "kappa"},
    "frustrated": {"variant", "kappa", "matrix"},
    "winfree": {"variant", "kappa", "pole"},
    "time_delay": {"variant", "kappa", "tau"},
    "prescribed_constant": {"variant", "vector"},
    "prescribed_rotating": {"variant", "amplitude", "rate", "plane"},
}


def _validate_field(spec, path: str, d: int, dt: float):
    _require(isinstance(spec, dict), f"{path}: expected an object")
    variant = spec.get("variant")
    _require(variant in _FIELD_KEYS, f"{path}.variant: expected one of {sorted(_FIELD_KEYS)}")
    _check_keys(spec, _FIELD_KEYS[variant], path + ".")
    if variant in ("mean_field", "frustrated", "winfree", "time_delay"):
        _require(_is_num(spec.get("kappa", 1.0)), f"{path}.kappa: expected a number")
    if variant == "frustrated":
        mat = spec.get("matrix")
        _require(isinstance(mat, list) and len(mat) == d + 1
                 and all(isinstance(r, list) and len(r) == d + 1 and all(_is_num(v) for v in r) for r in mat),
                 f"{path}.matrix: expected a (d+1)x(d+1) numeric matrix")
    if variant == "winfree" and "pole" in spec:
        pole = spec["pole"]
        _require(isinstance(pole, list) and len(pole) == d + 1 and all(_is_num(v) for v in pole)
                 and any(v != 0 for v in pole),
                 f"{path}.pole: expected a nonzero numeric vector of length d+1")
    if variant == "time_delay":
        tau = spec.get("tau")
        _require(_is_num(tau) and tau >= dt, f"{path}.tau: expected a number >= dt")
    if variant == "prescribed_constant":
        vec = spec.get("vector")
        _require(isinstance(vec, list) and len(vec) == d + 1 and all(_is_num(v) for v in vec),
                 f"{path}.vector: expected a numeric vector of length d+1")
    if variant == "prescribed_rotating":
        _require(_is_num(spec.get("amplitude")), f"{path}.amplitude: expected a number")
        _require(_is_num(spec.get("rate")), f"{path}.rate: expected a number")
        _check_plane(spec, path, d)


def _build_field(spec, d: int):
    variant = spec["variant"]
    kappa = float(spec.get("kappa", 1.0))
    if variant == "mean_field":
        return MeanField(kappa)
    if variant == "frustrated":
        return FrustratedField(kappa, np.array(spec["matrix"], dtype=float))
    if variant == "winfree":
        pole = np.array(spec["pole"], dtype=float) if "pole" in spec else np.eye(d + 1)[-1]
        return WinfreeField(kappa, pole)
    if variant == "time_delay":
        return TimeDelayField(kappa, float(spec["tau"]))
    if variant == "prescribed_constant":
        vec = np.array(spec["vector"], dtype=float)
        return PrescribedField(lambda t: vec)
    amp = float(spec["amplitude"])
    rate = float(spec["rate"])
    i, j = spec.get("plane", [0, 1])
    dim = d + 1

    def rotating(t):
        x = np.zeros(dim)
        x[i] = amp * math.cos(rate * t)
        x[j] = amp * math.sin(rate * t)
        return x

    return PrescribedField(rotating)


def _validate_initial(spec, path: str):
    _require(isinstance(spec, dict), f"{path}: expected an object")
    kind = spec.get("kind")
    _require(kind in ("uniform", "vmf"), f"{path}.kind: expected uniform|vmf")
    if kind == "uniform":
        _check_keys(spec, {"kind"}, path + ".")
    else:
        _check_keys(spec, {"kind", "concentration"}, path + ".")
        conc = spec.get("concentration", 1.0)
        _require(_is_num(conc) and conc >= 0, f"{path}.concentration: expected a nonnegative number")


def _build_initial(spec, d: int, n: int, seed: int) -> Ensemble:
    if spec["kind"] == "uniform":
        return sample_uniform(d, n, seed)
    return sample_vmf(np.eye(d + 1)[-1], float(spec.get("concentration", 1.0)), n, seed)


def _common_checks(cfg: dict):
    _require(_is_int(cfg.get("d")) and cfg["d"] >= 1, "d: expected an integer >= 1")
    _require(_is_int(cfg.get("seed")) and cfg["seed"] >= 0, "seed: expected a nonnegative integer")
    if "output_dir" in cfg:
        _require(isinstance(cfg["output_dir"], str), "output_dir: expected a string")


def _run_params(cfg: dict, dt_default: float, t_default: float | None = None):
    cfg.setdefault("dt", dt_default)
    if t_default is not None:
        cfg.setdefault("t_end", t_default)
    _require(_is_num(cfg.get("t_end")) and cfg["t_end"] >= 0, "t_end: expected a number >= 0")
    _require(_is_num(cfg.get("dt")) and cfg["dt"] > 0, "dt: expected a positive number")
    cfg.setdefault("record_every", 1)
    _require(_is_int(cfg["record_every"]) and cfg["record_every"] >= 1,
             "record_every: expected an integer >= 1")


_COMMON = {"experiment", "d", "seed", "output_dir"}

_SCHEMA_KEYS = {
    "simulate": _COMMON | {"N", "omega_spec", "field", "t_end", "dt", "record_every"},
    "ws-verify": _COMMON | {"N", "omega_spec", "field", "t_end", "dt", "checkpoints",
                            "tol_mismatch", "tol_conjugacy"},
    "functional": _COMMON | {"N", "omega_spec", "field", "t_end", "dt", "record_every",
                             "p_list", "k_list", "m", "drift_tuples", "drift_tol", "sampler"},
    "existence": _COMMON | {"p_list"},
    "kinetic": _COMMON | {"N", "kappa", "t_end", "dt", "record_every", "epsilon",
                          "initial", "delta"},
    "heterogeneous": _COMMON | {"groups", "kappa", "t_end", "dt", "record_every",
                                "p", "k", "m"},
}


def parse_config(path) -> dict:
    """Load, validate and default-fill an experiment configuration.

    Raises ConfigError naming the first offending key.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(cfg, dict), "config must be a JSON object")
    exp = cfg.get("experiment")
    _require(exp in EXPERIMENTS, f"experiment: expected one of {list(EXPERIMENTS)}")
    _check_keys(cfg, _SCHEMA_KEYS[exp])
    _common_checks(cfg)
    d = cfg["d"]

    if exp in ("simulate", "ws-verify", "functional"):
        _require(_is_int(cfg.get("N")) and cfg["N"] >= 1, "N: expected an integer >= 1")
        _run_params(cfg, 1e-3)
        cfg.setdefault("omega_spec", {"kind": "zero"})
        _validate_omega_spec(cfg["omega_spec"], "omega_spec", d)
        cfg.setdefault("field", {"variant": "mean_field", "kappa": 1.0})
        _validate_field(cfg["field"], "field", d, cfg["dt"])

    if exp == "ws-verify":
        _require(not cfg["field"]["variant"] == "time_delay",
                 "field.variant: time_delay is not replayable into the reduced system")
        cfg.setdefault("checkpoints", 10)
        _require(_is_int(cfg["checkpoints"]) and cfg["checkpoints"] >= 1,
                 "checkpoints: expected an integer >= 1")
        cfg.setdefault("tol_mismatch", 1e-5)
        cfg.setdefault("tol_conjugacy", 1e-4)
        _require(_is_num(cfg["tol_mismatch"]) and cfg["tol_mismatch"] > 0,
                 "tol_mismatch: expected a positive number")
        _require(_is_num(cfg["tol_conjugacy"]) and cfg["tol_conjugacy"] > 0,
                 "tol_conjugacy: expected a positive number")

    if exp == "functional":
        _require(isinstance(cfg.get("p_list"), list) and cfg["p_list"]
                 and all(_is_num(p) for p in cfg["p_list"]), "p_list: expected a list of numbers")
        cfg.setdefault("k_list", [2])
        _require(isinstance(cfg["k_list"], list) and cfg["k_list"]
                 and all(_is_int(k) and k >= 2 for k in cfg["k_list"]),
                 "k_list: expected a list of integers >= 2")
        cfg.setdefault("m", 10000)
        _require(_is_int(cfg["m"]) and cfg["m"] >= 1, "m: expected an integer >= 1")
        cfg.setdefault("drift_tuples", 100)
        _require(_is_int(cfg["drift_tuples"]) and cfg["drift_tuples"] >= 1,
                 "drift_tuples: expected an integer >= 1")
        cfg.setdefault("drift_tol", 1e-6)
        _require(_is_num(cfg["drift_tol"]) and cfg["drift_tol"] > 0,
                 "drift_tol: expected a positive number")
        cfg.setdefault("sampler", {"kind": "uniform"})
        _validate_initial(cfg["sampler"], "sampler")

    if exp == "existence":
        grid_max = d / 2.0 + 0.5
        default_grid = [round(-grid_max + 0.25 * i, 10) for i in range(int(round(8 * grid_max / 2)) + 1)]
        cfg.setdefault("p_list", default_grid)
        _require(isinstance(cfg["p_list"], list) and cfg["p_list"]
                 and all(_is_num(p) for p in cfg["p_list"]), "p_list: expected a list of numbers")

    if exp == "kinetic":
        _require(_is_int(cfg.get("N")) and cfg["N"] >= 1, "N: expected an integer >= 1")
        cfg.setdefault("kappa", 1.0)
        _require(_is_num(cfg["kappa"]) and cfg["kappa"] > 0, "kappa: expected a positive number")
        _run_params(cfg, 1e-2, 50.0)
        cfg.setdefault("epsilon", 0.5)
        _require(_is_num(cfg["epsilon"]) and 0 < cfg["epsilon"] < 2,
                 "epsilon: expected a number in (0, 2)")
        cfg.setdefault("initial", {"kind": "vmf", "concentration": 1.0})
        _validate_initial(cfg["initial"], "initial")
        if "delta" in cfg:
            _require(_is_num(cfg["delta"]) and cfg["delta"] > 0, "delta: expected a positive number")
            _require(cfg["N"] >= 4, "N: the instability experiment needs N >= 4")
            _require(cfg["N"] % 2 == 0, "N: the instability experiment needs an even N")

    if exp == "heterogeneous":
        groups = cfg.get("groups")
        _require(isinstance(groups, list) and len(groups) >= 1, "groups: expected a nonempty list")
        for gi, g in enumerate(groups):
            _require(isinstance(g, dict), f"groups[{gi}]: expected an object")
            _check_keys(g, {"count", "omega_spec"}, f"groups[{gi}].")
            _require(_is_int(g.get("count")) and g["count"] >= 1,
                     f"groups[{gi}].count: expected an integer >= 1")
            _validate_omega_spec(g.get("omega_spec", {}), f"groups[{gi}].omega_spec", d)
        cfg.setdefault("kappa", 1.0)
        _require(_is_num(cfg["kappa"]) and cfg["kappa"] > 0, "kappa: expected a positive number")
        _run_params(cfg, 1e-3, 5.0)
        cfg.setdefault("p", 0.3)
        _require(_is_num(cfg["p"]), "p: expected a number")
        cfg.setdefault("k", 2)
        _require(_is_int(cfg["k"]) and cfg["k"] >= 2, "k: expected an integer >= 2")
        cfg.setdefault("m", 50)
        _require(_is_int(cfg["m"]) and cfg["m"] >= 1, "m: expected an integer >= 1")
    return cfg


def _gate(value: float, threshold: float, kind: str = "max") -> dict:
    passed = bool(value <= threshold) if kind == "max" else bool(value >= threshold)
    return {"value": value, "threshold": threshold, "kind": kind, "passed": passed}


def _export_trajectory(traj, outdir: Path):
    rows = []
    dim = traj.d + 1
    for t, st in zip(traj.times, traj.states):
        for i in range(st.n):
            rows.append((t, i) + tuple(st.points[i]))
    header = ["t", "particle_index"] + [f"coordinate_{j}" for j in range(dim)]
    p1 = write_csv(outdir / "trajectory.csv", header, rows)
    header_x = ["t"] + [f"X_{j}" for j in range(dim)]
    p2 = write_csv(outdir / "field.csv", header_x,
                   [(t,) + tuple(x) for t, x in zip(traj.times, traj.field_samples)])
    return [p1, p2]


def _run_simulate(cfg: dict, outdir: Path):
    d = cfg["d"]
    omega = _build_omega(cfg["omega_spec"], d)
    ens0 = sample_uniform(d, cfg["N"], cfg["seed"]).with_omega(omega)
    field = _build_field(cfg["field"], d)
    traj = simulate(ens0, field, cfg["t_end"], cfg["dt"], cfg["record_every"])
    outputs = _export_trajectory(traj, outdir)
    worst_norm = max(float(np.max(np.abs(np.linalg.norm(st.points, axis=1) - 1.0)))
                     for st in traj.states)
    gates = {"unit_norm": _gate(worst_norm, 1e-9)}
    return outputs, gates, {"snapshots": len(traj.states)}


def _run_ws_verify(cfg: dict, outdir: Path):
    d = cfg["d"]
    omega = _build_omega(cfg["omega_spec"], d)
    ens0 = sample_uniform(d, cfg["N"], cfg["seed"]).with_omega(omega)
    field = _build_field(cfg["field"], d)
    traj = simulate(ens0, field, cfg["t_end"], cfg["dt"], record_every=1)
    replay = ReplayField.from_trajectory(traj)
    path = ws_evolve(omega, replay, cfg["t_end"], cfg["dt"])
    steps = len(path) - 1
    n_check = min(cfg["checkpoints"], max(steps, 1))
    mismatch = 0.0
    checkpoints = []
    for c in range(1, n_check + 1):
        idx = round(c * steps / n_check)
        pushed = push_forward(path[idx], ens0)
        diff = float(np.max(np.linalg.norm(pushed.points - traj.states[idx].points, axis=1)))
        checkpoints.append({"t": float(traj.times[idx]), "mismatch": diff})
        mismatch = max(mismatch, diff)
    conj = conjugacy_residual(path, replay, ens0) if steps >= 2 else 0.0
    ortho = max(float(np.linalg.norm(st.rotation.T @ st.rotation - np.eye(d + 1))) for st in path)
    header = ["t"] + [f"w_{j}" for j in range(d + 1)] + \
        [f"r_{i}{j}" for i in range(d + 1) for j in range(d + 1)]
    rows = [(st.time,) + tuple(st.w) + tuple(st.rotation.reshape(-1)) for st in path]
    out_states = write_csv(outdir / "ws_states.csv", header, rows)
    report = {
        "max_mismatch": mismatch,
        "checkpoints": checkpoints,
        "conjugacy_residual": conj,
        "orthogonality_defect": ortho,
        "ball_guard_events": path.guard_events,
        "final_w_norm": float(np.linalg.norm(path[-1].w)),
    }
    out_report = write_json(outdir / "report.json", report)
    gates = {
        "pushforward_mismatch": _gate(mismatch, cfg["tol_mismatch"]),
        "conjugacy_residual": _gate(conj, cfg["tol_conjugacy"]),
        "orthogonality": _gate(ortho, 1e-8),
    }
    return [out_states, out_report], gates, report


def _run_functional(cfg: dict, outdir: Path):
    d = cfg["d"]
    omega = _build_omega(cfg["omega_spec"], d)
    ens0 = sample_uniform(d, cfg["N"], cfg["seed"]).with_omega(omega)
    field = _build_field(cfg["field"], d)
    traj = simulate(ens0, field, cfg["t_end"], cfg["dt"], cfg["record_every"])
    if cfg["sampler"]["kind"] == "uniform":
        sampler = UniformSphereSampler(d)
    else:
        sampler = VmfSampler(np.eye(d + 1)[-1], float(cfg["sampler"].get("concentration", 1.0)))
    records = []
    outputs = []
    drift_max = 0.0
    estimates = {}
    for k in cfg["k_list"]:
        ests = estimate_cycle_moments(sampler, cfg["p_list"], k, cfg["m"], cfg["seed"])
        drifts = conservation_drifts(traj, cfg["p_list"], k, cfg["drift_tuples"], cfg["seed"])
        for p, est, drift in zip(cfg["p_list"], ests, drifts):
            if not est.existence_flag:
                print(f"warning: moment p={p} d={d} lies outside the existence range |p| < d/2",
                      file=sys.stderr)
            records.append(est.record())
            estimates[(p, k)] = est
            drift_max = max(drift_max, drift.max_relative_drift)
            name = f"drift_p{p:g}_k{k}.csv"
            outputs.append(write_csv(outdir / name, ["t", "estimate", "relative_drift"],
                                     drift.rows()))
    outputs.insert(0, write_json(outdir / "estimates.json", records))
    gates = {"drift": _gate(drift_max, cfg["drift_tol"])}
    zero_defect = max((abs(estimates[(p, k)].value - 1.0)
                       for k in cfg["k_list"] for p in cfg["p_list"] if p == 0), default=0.0)
    if any(p == 0 for p in cfg["p_list"]):
        gates["p_zero_exact"] = _gate(zero_defect, 0.0)
    sym_defect = 0.0
    has_pair = False
    for k in cfg["k_list"]:
        for p in cfg["p_list"]:
            if p > 0 and any(q == -p for q in cfg["p_list"]):
                has_pair = True
                a, b = estimates[(p, k)], estimates[(-p, k)]
                sigma = 3.0 * (a.std_error + b.std_error)
                sym_defect = max(sym_defect, abs(a.value - b.value) - sigma)
    if has_pair:
        gates["p_symmetry_3sigma"] = _gate(sym_defect, 0.0)
    return outputs, gates, {"estimates": len(records), "drift_max": drift_max}


def _run_existence(cfg: dict, outdir: Path):
    d = cfg["d"]
    rows = []
    probes = []
    matches = True
    for p in cfg["p_list"]:
        finite = existence_check(p, d)
        rep = divergence_probe(p, d)
        match = finite == (rep.classification == "convergent")
        matches &= match
        rows.append((p, finite, rep.classification, rep.exponent_estimate,
                     rep.fit_residual, match))
        probes.append({
            "p": p, "d": d, "existence": finite,
            "classification": rep.classification,
            "exponent_estimate": rep.exponent_estimate,
            "fit_residual": rep.fit_residual,
            "cutoffs": list(rep.cutoffs),
            "values": list(rep.values),
        })
    out_csv = write_csv(outdir / "existence.csv",
                        ["p", "existence", "classification", "exponent_estimate",
                         "fit_residual", "match"], rows)
    out_json = write_json(outdir / "probes.json", probes)
    gates = {"classification_matches_existence": _gate(0.0 if matches else 1.0, 0.0)}
    return [out_csv, out_json], gates, {"grid_size": len(cfg["p_list"])}


def _run_kinetic(cfg: dict, outdir: Path):
    d = cfg["d"]
    ens0 = _build_initial(cfg["initial"], d, cfg["N"], cfg["seed"])
    r2_0, _ = order_parameter(ens0)
    series, final = order_parameter_series(ens0, MeanField(cfg["kappa"]), cfg["t_end"],
                                           cfg["dt"], cfg["record_every"], cfg["epsilon"])
    out_csv = write_csv(outdir / "order_parameter.csv",
                        ["t", "R2", "dR2_analytic", "mass_plus", "mass_minus"], series.rows())
    increments = np.diff(series.R2)
    min_increment = float(np.min(increments)) if increments.size else 0.0
    fd_defect = 0.0
    if series.times.size >= 3:
        fd = (series.R2[2:] - series.R2[:-2]) / (series.times[2:] - series.times[:-2])
        fd_defect = float(np.max(np.abs(series.dR2_analytic[1:-1] - fd)))
    r_end = math.sqrt(float(series.R2[-1]))
    summary = {
        "R_initial": math.sqrt(r2_0),
        "R_infinity_estimate": r_end,
        "min_R2_increment": min_increment,
        "derivative_identity_defect": fd_defect,
        "mass_plus_end": float(series.mass_plus[-1]),
        "mass_minus_end": float(series.mass_minus[-1]),
    }
    gates = {
        "monotone_R2": _gate(-min_increment, 1e-10),
        "derivative_identity": _gate(fd_defect, 1e-4),
    }
    if math.sqrt(r2_0) >= 0.1:
        gates["synchronization"] = _gate(r_end, 0.99, kind="min")
        mass_defect = max(abs(float(series.mass_plus[-1]) - 0.5 * (1 + r_end)),
                          abs(float(series.mass_minus[-1]) - 0.5 * (1 - r_end)))
        gates["bipolar_masses"] = _gate(mass_defect, 0.05)
        summary["bipolar_mass_defect"] = mass_defect
    outputs = [out_csv]
    if "delta" in cfg:
        rep = instability_experiment(cfg["N"], d, cfg["kappa"], cfg["delta"], cfg["seed"],
                                     t_end=cfg["t_end"], dt=cfg["dt"])
        summary["instability"] = {
            "R_max_symmetric": rep.R_max_symmetric,
            "R_initial_perturbed": rep.R_initial_perturbed,
            "R_end_perturbed": rep.R_end_perturbed,
            "mixed_tuple_max": rep.mixed_tuple_max,
            "mixed_tuple_unbounded": rep.mixed_tuple_unbounded,
            "selection_time": rep.selection_time,
            "control_max_drift": rep.control_max_drift,
        }
        gates["instability_symmetric"] = _gate(rep.R_max_symmetric, 1e-6)
        gates["instability_perturbed"] = _gate(rep.R_end_perturbed, 0.99, kind="min")
        gates["instability_growth"] = _gate(rep.mixed_tuple_max, 1e3, kind="min")
        gates["instability_control"] = _gate(rep.control_max_drift, 1e-6)
    outputs.append(write_json(outdir / "kinetic_summary.json", summary))
    return outputs, gates, summary


def _run_heterogeneous(cfg: dict, outdir: Path):
    d = cfg["d"]
    counts = [g["count"] for g in cfg["groups"]]
    total = sum(counts)
    omegas = []
    for g in cfg["groups"]:
        om = _build_omega(g["omega_spec"], d)
        omegas.extend([om] * g["count"])
    ens0 = sample_uniform(d, total, cfg["seed"]).with_omega(tuple(omegas))
    traj = simulate(ens0, MeanField(cfg["kappa"]), cfg["t_end"], cfg["dt"], cfg["record_every"])
    rep = per_omega_conservation(traj, cfg["p"], cfg["k"], cfg["m"], cfg["seed"])
    outputs = []
    within_max = 0.0
    group_summaries = []
    for gi, size, drift in rep.groups:
        within_max = max(within_max, drift.per_tuple_max_drift)
        group_summaries.append({"group": gi, "size": size,
                                "max_relative_drift": drift.max_relative_drift,
                                "per_tuple_max_drift": drift.per_tuple_max_drift})
        outputs.append(write_csv(outdir / f"drift_group{gi}.csv",
                                 ["t", "estimate", "relative_drift"], drift.rows()))
    summary = {
        "groups": group_summaries,
        "skipped": [{"group": gi, "size": size} for gi, size in rep.skipped],
        "fractions": list(rep.fractions),
        "fractions_constant": rep.fractions_constant,
    }
    gates = {
        "within_group_drift": _gate(within_max, 1e-6),
        "mass_fractions_constant": _gate(0.0 if rep.fractions_constant else 1.0, 0.0),
    }
    if rep.mixed_drift is not None:
        outputs.append(write_csv(outdir / "drift_mixed.csv",
                                 ["t", "estimate", "relative_drift"], rep.mixed_drift.rows()))
        summary["mixed_per_tuple_drift"] = rep.mixed_drift.per_tuple_max_drift
        gates["mixed_tuple_drift"] = _gate(rep.mixed_drift.per_tuple_max_drift, 1e-2, kind="min")
    outputs.insert(0, write_json(outdir / "heterogeneous.json", summary))
    return outputs, gates, summary


_RUNNERS = {
    "simulate": _run_simulate,
    "ws-verify": _run_ws_verify,
    "functional": _run_functional,
    "existence": _run_existence,
    "kinetic": _run_kinetic,
    "heterogeneous": _run_heterogeneous,
}


def run_experiment(cfg: dict, outdir: Path, config_sha: str) -> int:
    """Execute one validated experiment and write its manifest; returns the
    process exit code."""
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    manifest = {
        "tool": "swarmsphere",
        "tool_version": __version__,
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "config_sha256": config_sha,
    }
    try:
        outputs, gates, summary = _RUNNERS[cfg["experiment"]](cfg, outdir)
    except Exception as exc:  # noqa: BLE001 - abort path must still leave a manifest
        manifest["aborted"] = f"{type(exc).__name__}: {exc}"
        manifest["wall_time_s"] = time.perf_counter() - t0
        write_json(outdir / "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest["wall_time_s"] = time.perf_counter() - t0
    manifest["outputs"] = [{"path": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
                           for p in outputs]
    manifest["gates"] = gates
    manifest["summary"] = summary
    write_json(outdir / "manifest.json", manifest)
    all_pass = all(g["passed"] for g in gates.values())
    for name, g in sorted(gates.items()):
        status = "pass" if g["passed"] else "FAIL"
        print(f"[{status}] {name}: value={g['value']:.6g} threshold={g['threshold']:.6g}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swarmsphere",
                                     description="sphere-coupled synchronization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    if args.seed_override is not None:
        if args.seed_override < 0:
            print("config error: seed override must be nonnegative", file=sys.stderr)
            return 2
        cfg["seed"] = args.seed_override
    outdir = Path(args.out or cfg.get("output_dir", "out"))
    config_sha = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    return run_experiment(cfg, outdir, config_sha)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

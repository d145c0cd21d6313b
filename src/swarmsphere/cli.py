"""Reproducible experiment harness.

One experiment per invocation, driven by a JSON config with a top-level
``experiment`` discriminator.  Configs are validated strictly (unknown keys
are rejected by name, numeric parameters are checked against the
preconditions of the operations they feed), artifacts are CSV/JSON written
deterministically, and a manifest recording the config hash, tool version,
wall time, output hashes and gate verdicts is written last.

Exit codes: 0 all gates pass, 1 a gate failed, 2 usage/config error (an
unreadable config included), an output directory that cannot be made, or an
aborted run.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (FrustratedField, MeanField, PrescribedField, ReplayField,
                       TimeDelayField, WinfreeField, _snapshot_blocks, _step_count)
from .functionals import (_MAX_PAIR_D, _DriftRecorder, divergence_probe,
                          estimate_cycle_moments, existence_check)
from .geometry import SkewMatrix, VmfSampler, sample_uniform, sample_vmf
from .io import sha256_file, write_csv, write_json
from .kinetic import _PerOmegaRecorder, _series_with_instability
from .ws import conjugacy_residual, push_forward, ws_evolve

__all__ = ["ConfigError", "main", "parse_config", "run_experiment"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# A key table maps each key, in checking order, to (default, test, phrase).
# The default is _REQUIRED (a missing key is tested as None, so it fails),
# _OPTIONAL (left absent; the kind's builder supplies the value), a value, or a
# function of the config.  test(value, cfg) sees the whole top-level config,
# which carries the cross-key rules; it returns False to reject with
# "<path><key>: expected <phrase>", or raises ConfigError with its own message.
# A _Kinds test checks a nested spec.
_REQUIRED, _OPTIONAL = object(), object()


def _check_keys(obj: dict, table: dict, prefix: str, cfg: dict, tag: str | None = None):
    """Reject keys outside ``table`` (``tag`` names the spec's kind), then test
    each key in table order.  Only the top-level config (empty prefix) is
    default-filled; nested specs keep what was written."""
    for key in obj:
        _require(key in table or key == tag, f"unknown key: {prefix}{key}")
    for key, (default, test, phrase) in table.items():
        if key in obj:
            value = obj[key]
        elif default is _OPTIONAL:
            continue
        elif default is _REQUIRED:
            value = None
        else:
            value = default(cfg) if callable(default) else copy.deepcopy(default)
            if not prefix:
                obj[key] = value
        if isinstance(test, _Kinds):
            test.check(value, prefix + key, cfg)
        else:
            _require(test(value, cfg), f"{prefix}{key}: expected {phrase}")


class _Kinds:
    """A spec whose ``tag`` key names its kind; each kind has a key table and
    the builder the runners call."""

    def __init__(self, tag: str, kinds: dict, phrase):
        self.tag, self.kinds, self.phrase = tag, kinds, phrase(list(kinds))

    def check(self, spec, path: str, cfg: dict):
        prefix = path + "." if path else ""
        _require(isinstance(spec, dict), f"{path}: expected an object")
        kind = spec.get(self.tag)
        _require(isinstance(kind, str) and kind in self.kinds,
                 f"{prefix}{self.tag}: expected {self.phrase}")
        _check_keys(spec, self.kinds[kind][0], prefix, cfg, self.tag)

    def build(self, spec: dict, *args):
        return self.kinds[spec[self.tag]][1](spec, *args)


def _int_at_least(lo: int):
    return (lambda v, cfg: _is_int(v) and v >= lo), f"an integer >= {lo}"


def _vector(v, cfg) -> bool:
    return isinstance(v, list) and len(v) == cfg["d"] + 1 and all(_is_num(x) for x in v)


_NUMBER = (lambda v, cfg: _is_num(v)), "a number"
_POSITIVE = (lambda v, cfg: _is_num(v) and v > 0), "a positive number"
_NUMBERS = (lambda v, cfg: isinstance(v, list) and v and all(_is_num(p) for p in v)), \
    "a list of numbers"
# rng_stream keys Philox with 64-bit words
_SEED = (lambda v, cfg: _is_int(v) and 0 <= v < 2**64), "a nonnegative 64-bit integer"
_PLANE = (lambda v, cfg: isinstance(v, list) and len(v) == 2 and all(_is_int(i) for i in v)
          and 0 <= v[0] <= cfg["d"] and 0 <= v[1] <= cfg["d"] and v[0] != v[1]), \
    "two distinct axis indices in range"

_OMEGA = _Kinds("kind", {
    "zero": ({}, lambda spec, d: SkewMatrix.zero(d)),
    "random": ({"seed": (_REQUIRED, *_SEED), "scale": (_OPTIONAL, *_NUMBER)},
               lambda spec, d: SkewMatrix.random(d, spec["seed"], float(spec.get("scale", 1.0)))),
    "planar": ({"rate": (_REQUIRED, *_NUMBER), "plane": (_OPTIONAL, *_PLANE)},
               lambda spec, d: SkewMatrix.planar(d, float(spec["rate"]),
                                                 tuple(spec.get("plane", [0, 1])))),
}, "|".join)


def _kappa(spec: dict) -> float:
    return float(spec.get("kappa", 1.0))


def _rotating_field(spec: dict, d: int):
    amp = float(spec["amplitude"])
    rate = float(spec["rate"])
    i, j = spec.get("plane", [0, 1])

    def rotating(t):
        x = np.zeros(d + 1)
        x[i] = amp * math.cos(rate * t)
        x[j] = amp * math.sin(rate * t)
        return x

    return PrescribedField(rotating)


def _constant_field(spec: dict, d: int):
    vec = np.array(spec["vector"], dtype=float)
    return PrescribedField(lambda t: vec)


_COUPLED = {"kappa": (_OPTIONAL, *_NUMBER)}
_FIELD = _Kinds("variant", {
    "mean_field": (_COUPLED, lambda spec, d: MeanField(_kappa(spec))),
    "frustrated": ({**_COUPLED, "matrix": (
        _REQUIRED, lambda v, cfg: isinstance(v, list) and len(v) == cfg["d"] + 1
        and all(_vector(r, cfg) for r in v),
        "a (d+1)x(d+1) numeric matrix")},
        lambda spec, d: FrustratedField(_kappa(spec), np.array(spec["matrix"], dtype=float))),
    "winfree": ({**_COUPLED, "pole": (
        _OPTIONAL, lambda v, cfg: _vector(v, cfg) and any(x != 0 for x in v),
        "a nonzero numeric vector of length d+1")},
        lambda spec, d: WinfreeField(_kappa(spec), np.array(spec["pole"], dtype=float)
                                     if "pole" in spec else np.eye(d + 1)[-1])),
    "time_delay": ({**_COUPLED, "tau": (
        _REQUIRED, lambda v, cfg: _is_num(v) and v >= cfg["dt"], "a number >= dt")},
        lambda spec, d: TimeDelayField(_kappa(spec), float(spec["tau"]))),
    "prescribed_constant": ({"vector": (_REQUIRED, _vector, "a numeric vector of length d+1")},
                            _constant_field),
    "prescribed_rotating": ({"amplitude": (_REQUIRED, *_NUMBER), "rate": (_REQUIRED, *_NUMBER),
                             "plane": (_OPTIONAL, *_PLANE)}, _rotating_field),
}, lambda names: f"one of {sorted(names)}")

# densities on S^d about the last axis; the builder gives the vMF
# concentration, and uniform is its zero
_DENSITY = _Kinds("kind", {
    "uniform": ({}, lambda spec: 0.0),
    "vmf": ({"concentration": (_OPTIONAL, lambda v, cfg: _is_num(v) and v >= 0,
                               "a nonnegative number")},
            lambda spec: float(spec.get("concentration", 1.0))),
}, "|".join)


def _replayable(spec, cfg: dict) -> bool:
    _FIELD.check(spec, "field", cfg)
    _require(spec["variant"] != "time_delay",
             "field.variant: time_delay is not replayable into the reduced system")
    return True


def _instability(delta, cfg: dict) -> bool:
    """delta turns on the instability experiment, which splits N into
    antipodal pairs and runs its control from seed + 1."""
    if not (_is_num(delta) and delta > 0):
        return False
    _require(cfg["N"] >= 4, "N: the instability experiment needs N >= 4")
    _require(cfg["N"] % 2 == 0, "N: the instability experiment needs an even N")
    _require(cfg["seed"] < 2**64 - 1,
             "seed: the instability experiment needs seed < 2**64 - 1 (its control uses seed + 1)")
    return True


def _groups(groups, cfg: dict) -> bool:
    if not (isinstance(groups, list) and groups):
        return False
    for gi, g in enumerate(groups):
        _require(isinstance(g, dict), f"groups[{gi}]: expected an object")
        _check_keys(g, _GROUP, f"groups[{gi}].", cfg)
    return True


_EXISTENCE_D = (lambda v, cfg: _is_int(v) and 1 <= v <= _MAX_PAIR_D), \
    f"an integer in [1, {_MAX_PAIR_D}] (the area of S^(d-1) underflows beyond)"


def _p_grid(cfg: dict) -> list:
    """Existence default: p from -(d + 1)/2 to 0 in steps of 1/4."""
    grid_max = cfg["d"] / 2.0 + 0.5
    return [round(-grid_max + 0.25 * i, 10) for i in range(int(round(8 * grid_max / 2)) + 1)]


def _span(t_end, dt, steps: int) -> dict:
    """t_end and dt of a run whose gates need ``steps`` (0 to 2) or more steps,
    round(t_end / dt) as the run counts them; checked with dt, reported on t_end."""

    def dt_test(v, cfg):
        if not (_is_num(v) and v > 0):
            return False
        count = cfg["t_end"] / v  # an overflowing count is refused by the run, by name
        if count != math.inf and round(count) < steps:
            raise ConfigError(f"t_end: expected at least {('one step', 'two steps')[steps - 1]} "
                              f"of dt = {v}, not {cfg['t_end']}")
        return True

    return {"t_end": (t_end, lambda v, cfg: _is_num(v) and v >= 0, "a number >= 0"),
            "dt": (dt, dt_test, "a positive number")}


def _distinct(values: list, key: str, names: list) -> bool:
    """Refuse a list with two equal entries, or two that give the files they write one name."""
    _require(len(set(values)) == len(set(names)) == len(values),
             f"{key}: expected distinct values that name distinct files, not {values}")
    return True


# nested entries carry no phrase: the spec check names the offending key itself
_GROUP = {"count": (_REQUIRED, *_int_at_least(1)), "omega_spec": ({}, _OMEGA, None)}
_COMMON = {"d": (_REQUIRED, *_int_at_least(1)), "seed": (_REQUIRED, *_SEED),
           "output_dir": (_OPTIONAL, lambda v, cfg: isinstance(v, str), "a string")}
_N = {"N": (_REQUIRED, *_int_at_least(1))}
_RECORD = {"record_every": (1, *_int_at_least(1))}
_KAPPA = {"kappa": (1.0, *_POSITIVE)}
_ENSEMBLE = {"omega_spec": ({"kind": "zero"}, _OMEGA, None),
             "field": ({"variant": "mean_field", "kappa": 1.0}, _FIELD, None)}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read as UTF-8 text: {exc}") from exc
    _require(isinstance(cfg, dict), "config must be a JSON object")
    _CONFIG.check(cfg, "", cfg)
    return cfg


def _gate(value: float, threshold: float, kind: str = "max") -> dict:
    passed = bool(value <= threshold) if kind == "max" else bool(value >= threshold)
    return {"value": value, "threshold": threshold, "kind": kind, "passed": passed}


def _ensemble(cfg: dict):
    """omega_spec's generator, N uniform points under it, and the field."""
    omega = _OMEGA.build(cfg["omega_spec"], cfg["d"])
    ens0 = sample_uniform(cfg["d"], cfg["N"], cfg["seed"]).with_omega(omega)
    return omega, ens0, _FIELD.build(cfg["field"], cfg["d"])


def _run_simulate(cfg: dict, outdir: Path):
    # no gates: each block of snapshots is checked by the Trajectory rules,
    # which refuse a point off the unit sphere, before its rows are written
    _, ens0, field = _ensemble(cfg)
    dim = cfg["d"] + 1
    kept = []  # each block's times and field samples, for field.csv

    def trajectory_rows():
        for ts, points, xs, _ in _snapshot_blocks(ens0, field, cfg["t_end"], cfg["dt"],
                                                  cfg["record_every"]):
            kept.append((ts.copy(), xs.copy()))
            for t, cols in zip(ts.tolist(), points):
                for i, row in enumerate(cols.T.tolist()):
                    yield (t, i, *row)

    header = ["t", "particle_index"] + [f"coordinate_{j}" for j in range(dim)]
    try:
        out_traj = write_csv(outdir / "trajectory.csv", header, trajectory_rows())
    except BaseException:
        # a run aborted by a refused block leaves no partial trajectory.csv
        (outdir / "trajectory.csv").unlink(missing_ok=True)
        raise
    times, samples = (np.concatenate(arrays) for arrays in zip(*kept))
    out_field = write_csv(outdir / "field.csv", ["t"] + [f"X_{j}" for j in range(dim)],
                          ((t, *x) for t, x in zip(times.tolist(), samples.tolist())))
    return [out_traj, out_field], {}, {"snapshots": len(times)}


def _run_ws_verify(cfg: dict, outdir: Path):
    d = cfg["d"]
    omega, ens0, field = _ensemble(cfg)
    # the run keeps its times, its field samples for the replay and the
    # states at ten checkpoints spread evenly over it (every step of a shorter run)
    steps = _step_count(cfg["t_end"], cfg["dt"], 1)
    n_check = min(10, steps)
    marks = [round(c * steps / n_check) for c in range(1, n_check + 1)]
    times, samples, states = np.empty(steps + 1), np.empty((steps + 1, d + 1)), {}
    at = slice(0, 0)
    for ts, points, xs, _ in _snapshot_blocks(ens0, field, cfg["t_end"], cfg["dt"], 1):
        at = slice(at.stop, at.stop + len(ts))
        times[at], samples[at] = ts, xs
        states.update((i, points[i - at.start].T.copy()) for i in marks if at.start <= i < at.stop)
    replay = ReplayField(times, samples)
    path = ws_evolve(omega, replay, cfg["t_end"], cfg["dt"])
    checkpoints = [{"t": float(times[idx]), "mismatch": float(np.max(np.linalg.norm(
        push_forward(path[idx], ens0).points - states[idx], axis=1)))} for idx in marks]
    mismatch = max(c["mismatch"] for c in checkpoints)
    conj = conjugacy_residual(path, replay, ens0)
    header = ["t"] + [f"w_{j}" for j in range(d + 1)] + \
        [f"r_{i}{j}" for i in range(d + 1) for j in range(d + 1)]
    table = np.column_stack((path.time, path.w, path.rotation.reshape(len(path), -1)))
    out_states = write_csv(outdir / "ws_states.csv", header, (row.tolist() for row in table))
    report = {
        "max_mismatch": mismatch,
        "checkpoints": checkpoints,
        "conjugacy_residual": conj,
        "ball_guard_events": path.guard_events,
        "final_w_norm": float(np.linalg.norm(path.w[-1])),
    }
    out_report = write_json(outdir / "report.json", report)
    # WsPath refuses a rotation whose R^T R - I exceeds 1e-8 (Frobenius)
    gates = {
        "pushforward_mismatch": _gate(mismatch, 1e-5),
        "conjugacy_residual": _gate(conj, 1e-4),
    }
    return [out_states, out_report], gates, report


def _write_drift(path: Path, drift) -> Path:
    return write_csv(path, ["t", "estimate", "relative_drift"],
                     zip(drift.times, drift.estimates, drift.relative_drift))


def _run_functional(cfg: dict, outdir: Path):
    d = cfg["d"]
    _, ens0, field = _ensemble(cfg)
    # conservation_drifts of the run for every k, one recorder over the sets of all k
    recorder = _DriftRecorder.drawn(ens0.points, cfg["p_list"], cfg["k_list"],
                                    cfg["drift_tuples"], cfg["seed"])
    for block in _snapshot_blocks(ens0, field, cfg["t_end"], cfg["dt"], 1):
        recorder.add(*block)
    sampler = VmfSampler(np.eye(d + 1)[-1], _DENSITY.build(cfg["sampler"]))
    p_list = cfg["p_list"]
    # the positions (i, j) of each p > 0 and its -p, whose estimates must agree within 3 sigma:
    # the gate reads the largest |a - b| / (sigma_a + sigma_b), 0 where a = b
    pairs = [(i, p_list.index(-p)) for i, p in enumerate(p_list) if p > 0 and -p in p_list]
    records = []
    outputs = []
    drift_max = sym_ratio = 0.0
    for k, drifts in zip(cfg["k_list"], recorder.finish()):
        ests = estimate_cycle_moments(sampler, p_list, k, cfg["m"], cfg["seed"])
        for p, est, drift in zip(p_list, ests, drifts):
            finite = existence_check(p, d)
            if not finite:
                print(f"warning: moment p={p} d={d} lies outside the existence range |p| < d/2",
                      file=sys.stderr)
            records.append({"p": float(p), "k": k, "d": d, "m": cfg["m"], "seed": cfg["seed"],
                            "value": est.value, "std_error": est.std_error,
                            "median_of_means": est.median_of_means, "existence_flag": finite})
            drift_max = max(drift_max, drift.max_relative_drift)
            outputs.append(_write_drift(outdir / f"drift_p{p:g}_k{k}.csv", drift))
        for a, b in ((ests[i], ests[j]) for i, j in pairs):
            gap, sigma = abs(a.value - b.value), a.std_error + b.std_error
            if gap:
                sym_ratio = max(sym_ratio, gap / sigma if sigma else math.inf)
    outputs.insert(0, write_json(outdir / "estimates.json", records))
    gates = {"drift": _gate(drift_max, 1e-6)}
    if pairs:
        gates["p_symmetry_3sigma"] = _gate(sym_ratio, 3.0)
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
    ens0 = sample_vmf(np.eye(d + 1)[-1], _DENSITY.build(cfg["initial"]), cfg["N"], cfg["seed"])
    series, _, rep = _series_with_instability(ens0, cfg["kappa"], cfg["t_end"], cfg["dt"],
                                              cfg["record_every"], cfg.get("delta"), cfg["seed"])
    out_csv = write_csv(outdir / "order_parameter.csv",
                        ["t", "R2", "dR2_analytic", "mass_plus", "mass_minus"],
                        zip(series.times, series.R2, series.dR2_analytic, series.mass_plus,
                            series.mass_minus))
    min_increment = series.min_R2_increment
    r2_0, r_end = float(series.R2[0]), math.sqrt(float(series.R2[-1]))
    summary = {
        "R_initial": math.sqrt(r2_0),
        "R_infinity_estimate": r_end,
        "min_R2_increment": min_increment,
        "derivative_identity_defect": series.derivative_defect,
        "mass_plus_end": float(series.mass_plus[-1]),
        "mass_minus_end": float(series.mass_minus[-1]),
    }
    gates = {
        "monotone_R2": _gate(-min_increment, 1e-10),
        "derivative_identity": _gate(series.derivative_defect, 1e-4),
    }
    if math.sqrt(r2_0) >= 0.1:
        gates["synchronization"] = _gate(r_end, 0.99, kind="min")
        mass_defect = max(abs(float(series.mass_plus[-1]) - 0.5 * (1 + r_end)),
                          abs(float(series.mass_minus[-1]) - 0.5 * (1 - r_end)))
        gates["bipolar_masses"] = _gate(mass_defect, 0.05)
        summary["bipolar_mass_defect"] = mass_defect
    outputs = [out_csv]
    if rep is not None:
        summary["instability"] = dataclasses.asdict(rep)
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
        om = _OMEGA.build(g["omega_spec"], d)
        omegas.extend([om] * g["count"])
    ens0 = sample_uniform(d, total, cfg["seed"]).with_omega(tuple(omegas))
    # per_omega_conservation of the run, fed a block of snapshots at a time
    recorder = _PerOmegaRecorder(ens0, cfg["p"], cfg["k"], cfg["m"], cfg["seed"])
    field = MeanField(cfg["kappa"])
    for block in _snapshot_blocks(ens0, field, cfg["t_end"], cfg["dt"], 1):
        recorder.add(*block)
    rep = recorder.finish()
    outputs = []
    within_max = 0.0
    summary = {"groups": [], "skipped": []}
    for gi, ((_, idx), drift) in enumerate(zip(ens0.omega_groups(), rep.groups, strict=True)):
        if drift is None:  # fewer than 2k members
            summary["skipped"].append({"group": gi, "size": idx.size})
            continue
        within_max = max(within_max, drift.per_tuple_max_drift)
        summary["groups"].append({"group": gi, "size": idx.size,
                                  "max_relative_drift": drift.max_relative_drift,
                                  "per_tuple_max_drift": drift.per_tuple_max_drift})
        outputs.append(_write_drift(outdir / f"drift_group{gi}.csv", drift))
    gates = {"within_group_drift": _gate(within_max, 1e-6)}
    if rep.mixed_drift is not None:
        outputs.append(_write_drift(outdir / "drift_mixed.csv", rep.mixed_drift))
        summary["mixed_per_tuple_drift"] = rep.mixed_drift.per_tuple_max_drift
        gates["mixed_tuple_drift"] = _gate(rep.mixed_drift.per_tuple_max_drift, 1e-2, kind="min")
    outputs.insert(0, write_json(outdir / "heterogeneous.json", summary))
    return outputs, gates, summary


# the experiments: each one's key table and runner
_CONFIG = _Kinds("experiment", {
    "simulate": ({**_COMMON, **_N, **_span(_REQUIRED, 1e-3, 0), **_RECORD, **_ENSEMBLE},
                 _run_simulate),
    "ws-verify": ({**_COMMON, **_N, **_span(_REQUIRED, 1e-3, 2), **_ENSEMBLE,
                   "field": (_ENSEMBLE["field"][0], _replayable, None)},
                  _run_ws_verify),
    "functional": ({**_COMMON, **_N, **_span(_REQUIRED, 1e-3, 1), **_ENSEMBLE,
                    # each (p, k) writes drift_p{p:g}_k{k}.csv
                    "p_list": (_REQUIRED, lambda v, cfg: _NUMBERS[0](v, cfg)
                               and _distinct(v, "p_list", [f"{p:g}" for p in v]), _NUMBERS[1]),
                    "k_list": ([2], lambda v, cfg: isinstance(v, list) and v
                               and all(_is_int(k) and k >= 2 for k in v)
                               and _distinct(v, "k_list", v), "a list of integers >= 2"),
                    "m": (10000, *_int_at_least(1)), "drift_tuples": (100, *_int_at_least(1)),
                    "sampler": ({"kind": "uniform"}, _DENSITY, None)},
                   _run_functional),
    "existence": ({**_COMMON, "d": (_REQUIRED, *_EXISTENCE_D), "p_list": (_p_grid, *_NUMBERS)},
                  _run_existence),
    "kinetic": ({**_COMMON, **_N, **_KAPPA, **_span(50.0, 1e-2, 2), **_RECORD,
                 "initial": ({"kind": "vmf", "concentration": 1.0}, _DENSITY, None),
                 "delta": (_OPTIONAL, _instability, "a positive number")},
                _run_kinetic),
    "heterogeneous": ({**_COMMON, "groups": (_REQUIRED, _groups, "a nonempty list"), **_KAPPA,
                       **_span(5.0, 1e-3, 1), "p": (0.3, *_NUMBER),
                       "k": (2, *_int_at_least(2)), "m": (50, *_int_at_least(1))},
                      _run_heterogeneous),
}, lambda names: f"one of {names}")


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
        outputs, gates, summary = _CONFIG.build(cfg, outdir)
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
        if args.command == "run" and args.seed_override is not None:
            cfg["seed"] = args.seed_override
            _CONFIG.check(cfg, "", cfg)  # the override obeys the rules of a written seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    outdir = Path(args.out or cfg.get("output_dir", "out"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make the output directory {outdir}: {exc}", file=sys.stderr)
        return 2
    config_sha = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    return run_experiment(cfg, outdir, config_sha)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

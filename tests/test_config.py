"""Exact rejection messages of the config parser.

Each case is a config and the full message it must be rejected with.  The
cases cover every message the parser produces, nested paths, the cross-key
rules and the order in which offending keys are reported (the first one in
table order wins).
"""

import json

import pytest

from swarmsphere.cli import ConfigError, parse_config

SIM = {"experiment": "simulate", "d": 2, "N": 4, "t_end": 0.1, "seed": 1}
WS = {**SIM, "experiment": "ws-verify"}
FUN = {**SIM, "experiment": "functional", "p_list": [0.3]}
EXI = {"experiment": "existence", "d": 2, "seed": 0}
KIN = {"experiment": "kinetic", "d": 2, "N": 8, "seed": 1}
HET = {"experiment": "heterogeneous", "d": 2, "seed": 1,
       "groups": [{"count": 2, "omega_spec": {"kind": "zero"}}]}

EXPERIMENT_LIST = "['simulate', 'ws-verify', 'functional', 'existence', 'kinetic', 'heterogeneous']"
VARIANT_LIST = ("['frustrated', 'mean_field', 'prescribed_constant', 'prescribed_rotating', "
                "'time_delay', 'winfree']")
PLANE = "expected two distinct axis indices in range"
MATRIX = "expected a (d+1)x(d+1) numeric matrix"
POLE = "expected a nonzero numeric vector of length d+1"
SEED = "expected a nonnegative 64-bit integer"


def drop(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def field(variant, **keys):
    return {**SIM, "field": {"variant": variant, **keys}}


def omega(kind, base=SIM, **keys):
    return {**base, "omega_spec": {"kind": kind, **keys}}


def group(spec, count=2):
    return {**HET, "groups": [{"count": 2, "omega_spec": {"kind": "zero"}},
                              {"count": count, "omega_spec": spec}]}


CASES = [
    # top level
    ([1, 2], "config must be a JSON object"),
    ({"experiment": "nope", "d": 2}, f"experiment: expected one of {EXPERIMENT_LIST}"),
    ({"d": 2}, f"experiment: expected one of {EXPERIMENT_LIST}"),
    ({**SIM, "dimenson": 3}, "unknown key: dimenson"),
    ({**SIM, "p_list": [0.3]}, "unknown key: p_list"),
    ({**WS, "record_every": 1}, "unknown key: record_every"),
    ({**EXI, "N": 4}, "unknown key: N"),
    ({**SIM, "d": 0, "bogus": 1}, "unknown key: bogus"),
    ({**SIM, "d": 0}, "d: expected an integer >= 1"),
    ({**SIM, "d": 2.5}, "d: expected an integer >= 1"),
    ({**SIM, "d": True}, "d: expected an integer >= 1"),
    (drop(SIM, "d"), "d: expected an integer >= 1"),
    ({**SIM, "d": 0, "seed": -1}, "d: expected an integer >= 1"),
    ({**SIM, "seed": -1}, f"seed: {SEED}"),
    ({**SIM, "seed": 1.0}, f"seed: {SEED}"),
    ({**SIM, "seed": 2**64}, f"seed: {SEED}"),
    (drop(EXI, "seed"), f"seed: {SEED}"),
    ({**SIM, "output_dir": 3}, "output_dir: expected a string"),
    ({**SIM, "N": 0}, "N: expected an integer >= 1"),
    (drop(WS, "N"), "N: expected an integer >= 1"),
    ({**KIN, "N": 0}, "N: expected an integer >= 1"),
    ({**SIM, "t_end": -1.0}, "t_end: expected a number >= 0"),
    ({**SIM, "t_end": float("nan")}, "t_end: expected a number >= 0"),
    (drop(FUN, "t_end"), "t_end: expected a number >= 0"),
    ({**KIN, "t_end": "long"}, "t_end: expected a number >= 0"),
    ({**SIM, "t_end": -1.0, "dt": 0}, "t_end: expected a number >= 0"),
    ({**SIM, "dt": 0}, "dt: expected a positive number"),
    ({**HET, "dt": float("inf")}, "dt: expected a positive number"),
    ({**SIM, "record_every": 0}, "record_every: expected an integer >= 1"),
    ({**HET, "record_every": 2.0}, "unknown key: record_every"),
    # omega_spec
    ({**SIM, "omega_spec": None}, "omega_spec: expected an object"),
    ({**SIM, "omega_spec": {"scale": 1.0}}, "omega_spec.kind: expected zero|random|planar"),
    (omega("spin", bogus=1), "omega_spec.kind: expected zero|random|planar"),
    (omega(["zero"]), "omega_spec.kind: expected zero|random|planar"),
    (omega("zero", seed=1), "unknown key: omega_spec.seed"),
    (omega("random", rate=1.0), "unknown key: omega_spec.rate"),
    (omega("random"), f"omega_spec.seed: {SEED}"),
    (omega("random", seed=-2, scale="x"), f"omega_spec.seed: {SEED}"),
    (omega("random", seed=2**64), f"omega_spec.seed: {SEED}"),
    (omega("random", seed=2, scale="x"), "omega_spec.scale: expected a number"),
    (omega("planar", base=WS), "omega_spec.rate: expected a number"),
    (omega("planar", base=FUN, rate=1.0, plane=[0, 0]), f"omega_spec.plane: {PLANE}"),
    (omega("planar", rate=1.0, plane=[0, 3]), f"omega_spec.plane: {PLANE}"),
    (omega("planar", rate=1.0, plane=[0, 1, 2]), f"omega_spec.plane: {PLANE}"),
    (omega("planar", rate=1.0, plane=[0.0, 1]), f"omega_spec.plane: {PLANE}"),
    # field
    ({**SIM, "field": "mean_field"}, "field: expected an object"),
    ({**SIM, "field": {"kappa": 1.0}}, f"field.variant: expected one of {VARIANT_LIST}"),
    (field("swarm", kapa=1.0), f"field.variant: expected one of {VARIANT_LIST}"),
    (field(["mean_field"]), f"field.variant: expected one of {VARIANT_LIST}"),
    (field("mean_field", kapa=1.0), "unknown key: field.kapa"),
    (field("prescribed_constant", kappa=1.0), "unknown key: field.kappa"),
    (field("mean_field", kappa="1"), "field.kappa: expected a number"),
    (field("time_delay", kappa=None, tau=0.1), "field.kappa: expected a number"),
    (field("frustrated"), f"field.matrix: {MATRIX}"),
    (field("frustrated", matrix=[[1, 0], [0, 1]]), f"field.matrix: {MATRIX}"),
    (field("frustrated", matrix=[[1, 0, 0], [0, 1, 0], [0, 0, "a"]]), f"field.matrix: {MATRIX}"),
    (field("winfree", pole=[0.0, 0.0]), f"field.pole: {POLE}"),
    (field("winfree", pole=[0.0, 0.0, 0.0]), f"field.pole: {POLE}"),
    (field("time_delay"), "field.tau: expected a number >= dt"),
    ({**field("time_delay", tau=0.05), "dt": 0.1}, "field.tau: expected a number >= dt"),
    (field("prescribed_constant", vector=[1.0, 0.0]),
     "field.vector: expected a numeric vector of length d+1"),
    (field("prescribed_rotating", rate=1.0), "field.amplitude: expected a number"),
    (field("prescribed_rotating", amplitude=1.0), "field.rate: expected a number"),
    (field("prescribed_rotating", amplitude=1.0, rate=1.0, plane=[2, 2]), f"field.plane: {PLANE}"),
    # ws-verify
    ({**WS, "field": {"variant": "time_delay", "tau": 0.1}},
     "field.variant: time_delay is not replayable into the reduced system"),
    ({**WS, "field": {"variant": "time_delay"}}, "field.tau: expected a number >= dt"),
    ({**WS, "checkpoints": 10}, "unknown key: checkpoints"),  # ten, a constant
    # gate thresholds are constants, not keys
    ({**WS, "tol_mismatch": 0.0}, "unknown key: tol_mismatch"),
    ({**WS, "tol_conjugacy": -1.0}, "unknown key: tol_conjugacy"),
    # functional
    (drop(FUN, "p_list"), "p_list: expected a list of numbers"),
    ({**FUN, "p_list": []}, "p_list: expected a list of numbers"),
    ({**FUN, "p_list": [0.3, "x"]}, "p_list: expected a list of numbers"),
    ({**FUN, "k_list": [1]}, "k_list: expected a list of integers >= 2"),
    ({**FUN, "k_list": []}, "k_list: expected a list of integers >= 2"),
    ({**FUN, "m": 0}, "m: expected an integer >= 1"),
    ({**FUN, "drift_tuples": 0}, "drift_tuples: expected an integer >= 1"),
    ({**FUN, "drift_tol": 0}, "unknown key: drift_tol"),
    ({**FUN, "sampler": []}, "sampler: expected an object"),
    ({**FUN, "sampler": {"kind": "gauss"}}, "sampler.kind: expected uniform|vmf"),
    ({**FUN, "sampler": {"kind": "uniform", "concentration": 1.0}},
     "unknown key: sampler.concentration"),
    ({**FUN, "sampler": {"kind": "vmf", "concentration": -1.0}},
     "sampler.concentration: expected a nonnegative number"),
    # existence
    ({**EXI, "p_list": []}, "p_list: expected a list of numbers"),
    ({**EXI, "p_list": [None]}, "p_list: expected a list of numbers"),
    # kinetic
    ({**KIN, "kappa": 0}, "kappa: expected a positive number"),
    ({**KIN, "epsilon": 0.5}, "unknown key: epsilon"),  # the ball radius, a constant
    ({**FUN, "record_every": 1}, "unknown key: record_every"),  # drift gates read every step
    ({**KIN, "initial": "vmf"}, "initial: expected an object"),
    ({**KIN, "initial": {}}, "initial.kind: expected uniform|vmf"),
    ({**KIN, "initial": {"kind": "vmf", "mu": [0, 0, 1]}}, "unknown key: initial.mu"),
    ({**KIN, "initial": {"kind": "vmf", "concentration": "high"}},
     "initial.concentration: expected a nonnegative number"),
    ({**KIN, "delta": 0}, "delta: expected a positive number"),
    ({**KIN, "delta": None}, "delta: expected a positive number"),
    ({**KIN, "N": 3, "delta": 1e-3}, "N: the instability experiment needs N >= 4"),
    ({**KIN, "N": 2, "delta": 1e-3}, "N: the instability experiment needs N >= 4"),
    ({**KIN, "N": 5, "delta": 1e-3}, "N: the instability experiment needs an even N"),
    ({**KIN, "N": 3, "delta": -1.0}, "delta: expected a positive number"),
    ({**KIN, "delta": 1e-3, "seed": 2**64 - 1},
     "seed: the instability experiment needs seed < 2**64 - 1 (its control uses seed + 1)"),
    # heterogeneous
    (drop(HET, "groups"), "groups: expected a nonempty list"),
    ({**HET, "groups": []}, "groups: expected a nonempty list"),
    ({**HET, "groups": [HET["groups"][0], 3]}, "groups[1]: expected an object"),
    ({**HET, "groups": [{"count": 2, "size": 3}]}, "unknown key: groups[0].size"),
    ({**HET, "groups": [{"count": 0}, 3]}, "groups[0].count: expected an integer >= 1"),
    ({**HET, "groups": [{"omega_spec": {"kind": "zero"}}]},
     "groups[0].count: expected an integer >= 1"),
    ({**HET, "groups": [HET["groups"][0], {"count": 2}]},
     "groups[1].omega_spec.kind: expected zero|random|planar"),
    (group(None), "groups[1].omega_spec: expected an object"),
    (group({"kind": "planar", "rate": 1.0, "plane": [1, 3]}),
     f"groups[1].omega_spec.plane: {PLANE}"),
    (group({"kind": "random", "seed": -1}), f"groups[1].omega_spec.seed: {SEED}"),
    (group({"kind": "random", "seed": 2**64}), f"groups[1].omega_spec.seed: {SEED}"),
    (group({"kind": "zero", "rate": 1.0}), "unknown key: groups[1].omega_spec.rate"),
    (group({"kind": "zero"}, count=0), "groups[1].count: expected an integer >= 1"),
    ({**HET, "groups": [], "kappa": 0}, "groups: expected a nonempty list"),
    ({**HET, "kappa": -1.0}, "kappa: expected a positive number"),
    ({**HET, "p": "0.3"}, "p: expected a number"),
    ({**HET, "k": 1}, "k: expected an integer >= 2"),
    ({**HET, "m": 0}, "m: expected an integer >= 1"),
    # a t_end that rounds to fewer steps than the gates need is refused before the run
    ({**WS, "t_end": 0}, "t_end: expected at least two steps of dt = 0.001, not 0"),
    ({**WS, "t_end": 0.05, "dt": 0.1}, "t_end: expected at least two steps of dt = 0.1, not 0.05"),
    ({**WS, "t_end": 0, "dt": 0}, "dt: expected a positive number"),
    ({**FUN, "t_end": 0.0}, "t_end: expected at least one step of dt = 0.001, not 0.0"),
    ({**FUN, "t_end": 0.0005}, "t_end: expected at least one step of dt = 0.001, not 0.0005"),
    ({**WS, "t_end": 0.0006}, "t_end: expected at least two steps of dt = 0.001, not 0.0006"),
    ({**HET, "t_end": 0.0}, "t_end: expected at least one step of dt = 0.001, not 0.0"),
    ({**KIN, "t_end": 0.01}, "t_end: expected at least two steps of dt = 0.01, not 0.01"),
    ({**KIN, "t_end": 0.0, "dt": 0.5}, "t_end: expected at least two steps of dt = 0.5, not 0.0"),
    # each functional (p, k) writes drift_p{p:g}_k{k}.csv, so no two may share a name
    ({**FUN, "p_list": [0.1234561, 0.1234562]},
     "p_list: expected distinct values that name distinct files, not [0.1234561, 0.1234562]"),
    ({**FUN, "p_list": [0.3, -0.3, 0.3]},
     "p_list: expected distinct values that name distinct files, not [0.3, -0.3, 0.3]"),
    ({**FUN, "p_list": [0.0, -0.0]},
     "p_list: expected distinct values that name distinct files, not [0.0, -0.0]"),
    ({**FUN, "p_list": [1, 1.0]},
     "p_list: expected distinct values that name distinct files, not [1, 1.0]"),
    ({**FUN, "k_list": [2, 3, 2]},
     "k_list: expected distinct values that name distinct files, not [2, 3, 2]"),
]


ACCEPTED = [
    field("mean_field"),
    field("frustrated", kappa=0.5, matrix=[[0, 1, 0], [-1, 0, 0], [0, 0, 0.5]]),
    field("winfree", kappa=2.0, pole=[0.0, 1.0, 0.0]),
    field("winfree"),
    field("time_delay", kappa=1.0, tau=0.001),
    field("prescribed_constant", vector=[1.0, 0, -1]),
    field("prescribed_rotating", amplitude=1.0, rate=2.0, plane=[2, 0]),
    omega("zero"),
    omega("random", seed=2**64 - 1, scale=0.5),
    omega("planar", rate=1.0),
    omega("planar", base=FUN, rate=-1, plane=[1, 2]),
    {**FUN, "sampler": {"kind": "uniform"}},
    {**FUN, "sampler": {"kind": "vmf", "concentration": 0}},
    {**KIN, "initial": {"kind": "uniform"}},
    {**KIN, "initial": {"kind": "vmf"}, "delta": 1e-3, "N": 4, "seed": 2**64 - 2},
    group({"kind": "random", "seed": 5}),
    {**SIM, "seed": 2**64 - 1, "output_dir": "runs/a"},
    # simulate may run zero steps; ws-verify and kinetic need two, the others one
    {**SIM, "t_end": 0},
    {**WS, "t_end": 0.0016},
    {**FUN, "t_end": 0.0006},
    {**HET, "t_end": 0.0006},
    {**KIN, "t_end": 0.016},
    # the existence grid writes no file per p
    {**EXI, "p_list": [0.5, 0.5]},
]


@pytest.mark.parametrize("cfg", ACCEPTED)
def test_accepted_config_keeps_nested_specs_as_written(tmp_path, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    parsed = parse_config(path)
    for key, value in cfg.items():
        assert parsed[key] == value


@pytest.mark.parametrize("cfg,message", CASES)
def test_rejection_message(tmp_path, cfg, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == message


def test_unreadable_config_messages(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError) as info:
        parse_config(missing)
    assert str(info.value) == f"config file not found: {missing}"
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert str(info.value) == ("config is not valid JSON: Expecting property name enclosed "
                               "in double quotes: line 1 column 2 (char 1)")


EXISTENCE_D = "d: expected an integer in [1, 343] (the area of S^(d-1) overflows a float beyond)"


@pytest.mark.parametrize("d", [0, 344, 2**64])
def test_existence_d_bound_rejected_before_the_default_grid(tmp_path, d):
    # no p_list: the default grid holds about 2d entries and is built after d is checked
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**EXI, "d": d}), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == EXISTENCE_D


def test_existence_d_bound_accepts_343(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**EXI, "d": 343}), encoding="utf-8")
    parsed = parse_config(path)
    assert parsed["p_list"][0] == -172.0 and parsed["p_list"][-1] == 0.0

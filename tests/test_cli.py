import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import swarmsphere
from swarmsphere.cli import ConfigError, main, parse_config
from swarmsphere.io import fmt_value, write_csv, write_json


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_parse_minimal_simulate(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 16, "t_end": 0.1, "seed": 1,
    })
    cfg = parse_config(path)
    assert cfg["dt"] == 1e-3
    assert cfg["field"]["variant"] == "mean_field"
    assert cfg["omega_spec"]["kind"] == "zero"


def test_parse_unknown_key_named(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 16, "t_end": 0.1, "seed": 1, "dimenson": 3,
    })
    with pytest.raises(ConfigError, match="unknown key: dimenson"):
        parse_config(path)


def test_parse_nested_unknown_key_path(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 16, "t_end": 0.1, "seed": 1,
        "field": {"variant": "mean_field", "kapa": 1.0},
    })
    with pytest.raises(ConfigError, match="unknown key: field.kapa"):
        parse_config(path)


def test_parse_winfree_pole(tmp_path):
    base = {"experiment": "simulate", "d": 2, "N": 8, "t_end": 0.05, "seed": 1}
    good = write_config(tmp_path, "g.json", {**base, "field": {
        "variant": "winfree", "kappa": 1.0, "pole": [1.0, 0.0, 0.0]}})
    assert parse_config(good)["field"]["pole"] == [1.0, 0.0, 0.0]
    bad = write_config(tmp_path, "b.json", {**base, "field": {
        "variant": "winfree", "pole": [0.0, 0.0]}})
    with pytest.raises(ConfigError, match="field.pole"):
        parse_config(bad)


def test_parse_rejects_bad_types(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2.5, "N": 16, "t_end": 0.1, "seed": 1,
    })
    with pytest.raises(ConfigError, match="d:"):
        parse_config(path)


def test_validate_command_round_trips(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"experiment": "existence", "d": 1, "seed": 0})
    assert main(["validate", "--config", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["p_list"][0] == -1.0
    # the echoed effective config is itself a valid config
    path2 = write_config(tmp_path, "c2.json", echoed)
    assert parse_config(path2)["p_list"] == echoed["p_list"]


ECHO_CONFIGS = {
    "simulate": {"experiment": "simulate", "d": 2, "N": 4, "t_end": 0.1, "seed": 1},
    "ws-verify": {"experiment": "ws-verify", "d": 2, "N": 4, "t_end": 0.1, "seed": 1},
    "functional": {"experiment": "functional", "d": 2, "N": 4, "t_end": 0.1, "seed": 1,
                   "p_list": [0.3], "sampler": {"kind": "vmf"}},
    "existence": {"experiment": "existence", "d": 3, "seed": 0},
    "kinetic": {"experiment": "kinetic", "d": 2, "N": 8, "seed": 1, "delta": 1e-3},
    "heterogeneous": {"experiment": "heterogeneous", "d": 2, "seed": 1,
                      "groups": [{"count": 2, "omega_spec": {"kind": "zero"}}]},
}


@pytest.mark.parametrize("experiment", sorted(ECHO_CONFIGS))
def test_validate_echo_round_trips_for_every_experiment(tmp_path, capsys, experiment):
    path = write_config(tmp_path, "c.json", ECHO_CONFIGS[experiment])
    assert main(["validate", "--config", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    path2 = write_config(tmp_path, "c2.json", echoed)
    assert parse_config(path2) == echoed


def test_seed_override_beyond_64_bits_rejected_before_the_run(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {
        "experiment": "kinetic", "d": 2, "N": 8, "t_end": 0.05, "seed": 1, "delta": 1e-3,
    })
    for override in (2**64, 2**64 - 1, -1):
        out = tmp_path / f"o{override}"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--seed-override", str(override)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert not out.exists()


def test_readme_command_line_configs_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    body = "\n".join(line for line in block.splitlines() if not line.lstrip().startswith("//"))
    configs = [json.loads(chunk) for chunk in body.split("\n\n") if chunk.strip()]
    assert sorted(c["experiment"] for c in configs) == sorted(ECHO_CONFIGS)
    for i, cfg in enumerate(configs):
        parse_config(write_config(tmp_path, f"c{i}.json", cfg))


def test_ws_verify_small_run_fast_and_accurate(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "ws-verify", "d": 2, "N": 4, "t_end": 0.1, "dt": 1e-3,
        "omega_spec": {"kind": "random", "seed": 3, "scale": 1.0}, "seed": 42,
    })
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["run", "--config", str(path), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0
    report = json.loads((out / "report.json").read_text())
    assert report["max_mismatch"] <= 1e-7
    header = (out / "ws_states.csv").read_text().splitlines()[0]
    assert header.startswith("t,w_0,w_1,w_2,r_00,r_01")
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(g["passed"] for g in manifest["gates"].values())
    for entry in manifest["outputs"]:
        assert (out / entry["path"]).is_file()


def test_run_outputs_byte_identical(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.2, "dt": 1e-3,
        "p_list": [0.0, 0.3, -0.3], "m": 5000, "seed": 9,
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name == "manifest.json":
            ma = json.loads((out_a / name).read_text())
            mb = json.loads((out_b / name).read_text())
            ma.pop("wall_time_s"), mb.pop("wall_time_s")
            assert ma == mb
        else:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 8, "t_end": 0.05, "seed": 1,
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b),
                 "--seed-override", "2"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


def test_kinetic_small_n_instability_precondition(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {
        "experiment": "kinetic", "d": 2, "N": 2, "seed": 1, "delta": 1e-3,
    })
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "N >= 4" in capsys.readouterr().err


def test_out_of_range_exponent_warns_but_runs(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.05, "dt": 1e-3,
        "p_list": [1.2], "m": 2000, "seed": 4,
    })
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "existence" in capsys.readouterr().err
    records = json.loads((tmp_path / "o" / "estimates.json").read_text())
    assert records[0]["existence_flag"] is False


def test_existence_run_classifies_a_large_exponent_as_power_divergent(tmp_path):
    # the integrand's power overflows near the cutoff at p = 60, d = 1
    path = write_config(tmp_path, "c.json", {
        "experiment": "existence", "d": 1, "seed": 0, "p_list": [0.25, 60]})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    probes = json.loads((tmp_path / "o" / "probes.json").read_text())
    assert [pr["classification"] for pr in probes] == ["convergent", "power-divergent"]


def test_functional_records_keep_k_outer_p_inner_order(tmp_path):
    from swarmsphere import VmfSampler, estimate_cycle_moment

    p_list, k_list = [0.3, 0, -0.3], [3, 2]  # an integer p is written as a float
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.05, "dt": 1e-2,
        "p_list": p_list, "k_list": k_list, "m": 3000, "drift_tuples": 20, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    records = json.loads((out / "estimates.json").read_text())
    assert [(r["k"], r["p"]) for r in records] == [(k, p) for k in k_list for p in p_list]
    for r in records:
        assert set(r) == {"p", "k", "d", "m", "seed", "value", "std_error",
                          "median_of_means", "existence_flag"}
        assert isinstance(r["p"], float) and (r["d"], r["m"], r["seed"]) == (2, 3000, 6)
        assert r["existence_flag"] is True  # every |p| < d/2
        est = estimate_cycle_moment(VmfSampler(np.eye(3)[-1], 0.0), r["p"], r["k"], 3000, 6)
        assert r["value"] == est.value and r["std_error"] == est.std_error
    for k in k_list:
        for p in p_list:
            assert (out / f"drift_p{p:g}_k{k}.csv").is_file()


def test_functional_symmetry_gate_shows_its_margin(tmp_path):
    # the largest |a - b| / (sigma_a + sigma_b) over the p and -p estimates, against 3
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.05, "dt": 1e-2,
        "p_list": [0.3, 0, -0.3], "k_list": [3, 2], "m": 3000, "drift_tuples": 20, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    est = {(r["k"], r["p"]): r for r in json.loads((out / "estimates.json").read_text())}
    want = max(abs(a["value"] - b["value"]) / (a["std_error"] + b["std_error"])
               for a, b in ((est[k, 0.3], est[k, -0.3]) for k in (3, 2)))
    gate = json.loads((out / "manifest.json").read_text())["gates"]["p_symmetry_3sigma"]
    assert gate == {"value": want, "threshold": 3.0, "kind": "max", "passed": True}
    assert 0.0 < want < 3.0


def test_functional_symmetry_gate_fails_estimates_that_differ_without_an_error(tmp_path):
    # one cycle per estimate: a standard error of 0, so any gap is an infinite ratio
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.01, "dt": 1e-2,
        "p_list": [0.3, -0.3], "k_list": [2], "m": 1, "drift_tuples": 5, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    gate = json.loads((out / "manifest.json").read_text())["gates"]["p_symmetry_3sigma"]
    assert gate == {"value": None, "threshold": 3.0, "kind": "max", "passed": False}


def test_gate_failure_exit_code(tmp_path):
    # three time units are too short for the population to synchronise
    path = write_config(tmp_path, "c.json", {
        "experiment": "kinetic", "d": 2, "N": 32, "t_end": 3.0, "seed": 5,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert sorted(name for name, g in gates.items() if not g["passed"]) == \
        ["bipolar_masses", "synchronization"]


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} cannot be read as UTF-8 text:")
    with pytest.raises(ConfigError, match="cannot be read"):
        parse_config(path)


def test_output_path_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 8, "t_end": 0.05, "dt": 0.01, "seed": 1})
    taken = tmp_path / "F"
    taken.write_text("kept")
    assert main(["run", "--config", str(path), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == "kept"


def test_aborted_run_leaves_partial_manifest(tmp_path):
    # a replay-incompatible field passes parse-time checks for simulate but
    # the ws-verify runner rejects time_delay at parse time; use a runtime
    # failure instead: an ensemble too small for the drift tuples
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 1, "t_end": 0.01, "dt": 1e-3,
        "p_list": [0.3], "m": 100, "seed": 4,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "aborted" in manifest


def test_vmf_sampler_too_concentrated_to_sample_aborts_naming_it(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 8, "t_end": 0.01, "dt": 1e-3, "p_list": [0.3],
        "m": 100, "seed": 4, "sampler": {"kind": "vmf", "concentration": 1e16},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "concentration 1e+16 is too large to sample at d = 2" in manifest["aborted"]


def test_blow_up_aborts_naming_non_finite_state(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 8, "t_end": 0.05, "dt": 1e-2, "seed": 1,
        "field": {"variant": "prescribed_constant", "vector": [1e308, 0, 0]},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "non-finite" in manifest["aborted"]


def test_heterogeneous_run_without_a_group_of_2k_members_aborts_naming_it(tmp_path, capsys):
    # both groups have 3 < 2k = 4 members: the within-group gate used to pass
    # at value 0 with no group checked
    path = write_config(tmp_path, "c.json", {
        "experiment": "heterogeneous", "d": 2, "t_end": 0.1, "seed": 8,
        "groups": [{"count": 3, "omega_spec": {"kind": "zero"}},
                   {"count": 3, "omega_spec": {"kind": "planar", "rate": 1.0}}],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"] == ("ValueError: no generator group has 2k = 4 members, "
                                   "so no within-group cycle can be drawn")
    assert "gates" not in manifest


def test_kinetic_csv_column_contract(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "kinetic", "d": 2, "N": 32, "t_end": 0.5, "dt": 1e-2,
        "record_every": 5, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) in (0, 1)
    header = (out / "order_parameter.csv").read_text().splitlines()[0]
    assert header == "t,R2,dR2_analytic,mass_plus,mass_minus"


KINETIC_SPACED = {"experiment": "kinetic", "d": 3, "N": 300, "dt": 0.01, "record_every": 5,
                  "t_end": 10, "seed": 5}


def test_derivative_identity_is_measured_at_the_step_spacing(tmp_path):
    # over the recorded spacing (5 dt) this correct run read 2.29e-4 against 1e-4
    path = write_config(tmp_path, "c.json", KINETIC_SPACED)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gates"]["derivative_identity"]["value"] <= 1e-5


def test_monotone_R2_is_measured_at_the_step_spacing(tmp_path):
    # the smallest increment over the recorded rows (5 dt apart) exceeds the
    # smallest step increment, as it would hide a dip between two records
    from swarmsphere import MeanField, order_parameter_series, sample_vmf

    path = write_config(tmp_path, "c.json", KINETIC_SPACED)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    ens0 = sample_vmf(np.eye(4)[-1], 1.0, 300, 5)
    every, _ = order_parameter_series(ens0, MeanField(1.0), 10, 0.01, record_every=1)
    want = float(np.min(np.diff(every.R2)))
    recorded = np.loadtxt(out / "order_parameter.csv", delimiter=",", skiprows=1)[:, 1]
    assert want < np.min(np.diff(recorded))
    assert json.loads((out / "kinetic_summary.json").read_text())["min_R2_increment"] == want
    gate = json.loads((out / "manifest.json").read_text())["gates"]["monotone_R2"]
    assert gate["value"] == -want and gate["passed"]


def kinetic_run_against_the_separate_calls(tmp_path, monkeypatch, delta):
    """Run a kinetic config as the CLI steps it, one stack holding the series
    population and the instability branches if any, and again through the
    separate library calls; returns both exit codes and the stacked summary
    after checking that both runs wrote the same bytes."""
    import swarmsphere.cli as cli
    from swarmsphere import MeanField, instability_experiment, order_parameter_series

    cfg = {"experiment": "kinetic", "d": 2, "N": 200, "t_end": 6, "dt": 1e-2, "seed": 3}
    path = write_config(tmp_path, "c.json", cfg if delta is None else {**cfg, "delta": delta})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "stacked")])

    def separate(ens0, kappa, t_end, dt, record_every, delta, seed):
        series, final = order_parameter_series(ens0, MeanField(kappa), t_end, dt, record_every)
        return series, final, None if delta is None else \
            instability_experiment(ens0.n, ens0.d, kappa, delta, seed, t_end, dt)

    monkeypatch.setattr(cli, "_series_with_instability", separate)
    separate_code = main(["run", "--config", str(path), "--out", str(tmp_path / "separate")])
    for name in ("order_parameter.csv", "kinetic_summary.json"):
        assert (tmp_path / "stacked" / name).read_bytes() == (tmp_path / "separate" / name).read_bytes()
    return code, separate_code, json.loads((tmp_path / "stacked" / "kinetic_summary.json").read_text())


def test_kinetic_run_with_delta_writes_the_bytes_of_the_separate_runs(tmp_path, monkeypatch):
    code, separate_code, summary = kinetic_run_against_the_separate_calls(tmp_path, monkeypatch, 1e-3)
    # six time units are too short for the instability gates to pass
    assert code == separate_code == 1
    assert summary["instability"]["R_max_symmetric"] == 0.0
    assert sorted(summary["instability"]) == [
        "R_end_perturbed", "R_initial_perturbed", "R_max_symmetric", "control_max_drift",
        "mixed_tuple_max", "mixed_tuple_unbounded", "selection_time"]


def test_kinetic_run_without_delta_writes_the_bytes_of_order_parameter_series(tmp_path, monkeypatch):
    # the series population alone steps as a stack of one
    code, separate_code, summary = kinetic_run_against_the_separate_calls(tmp_path, monkeypatch, None)
    assert code == separate_code == 0
    assert "instability" not in summary


@pytest.mark.parametrize("cfg, steps", [
    # within_group_drift would compare the initial snapshot with itself
    ({"experiment": "heterogeneous", "d": 2, "groups": [{"count": 8, "omega_spec": {"kind": "zero"}}],
      "t_end": 0.0, "seed": 8}, "one step of dt = 0.001, not 0.0"),
    # one step leaves the conjugacy residual no central difference
    ({"experiment": "ws-verify", "d": 2, "N": 8, "t_end": 0.001, "dt": 0.001, "seed": 3},
     "two steps of dt = 0.001, not 0.001"),
    # two states leave the derivative identity no central difference
    ({"experiment": "kinetic", "d": 2, "N": 4000, "t_end": 0.01, "initial": {"kind": "uniform"},
      "seed": 3}, "two steps of dt = 0.01, not 0.01"),
])
def test_a_run_too_short_for_its_gates_is_refused(tmp_path, capsys, cfg, steps):
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: t_end: expected at least {steps}\n"
    assert not (tmp_path / "o").exists()


def test_wrong_derivative_fails_the_identity_gate(tmp_path, monkeypatch):
    import swarmsphere.kinetic as kinetic

    # the series reads the derivative from each state's points and exact mean
    exact = kinetic._dR2_dt
    monkeypatch.setattr(kinetic, "_dR2_dt", lambda points, x_c: 1.01 * exact(points, x_c))
    path = write_config(tmp_path, "c.json", {**KINETIC_SPACED, "t_end": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert not gates["derivative_identity"]["passed"]
    assert gates["monotone_R2"]["passed"]


def test_trajectory_csv_column_contract(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 4, "t_end": 0.02, "seed": 5,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    traj_header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert traj_header == "t,particle_index,coordinate_0,coordinate_1,coordinate_2"
    field_header = (out / "field.csv").read_text().splitlines()[0]
    assert field_header == "t,X_0,X_1,X_2"


def read_field_csv(out):
    return np.loadtxt(out / "field.csv", delimiter=",", skiprows=1, ndmin=2)


ROTATING = {"variant": "prescribed_rotating", "amplitude": 0.7, "rate": 2.0, "plane": [2, 0]}


def test_rotating_field_turns_in_its_plane(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 4, "t_end": 0.5, "dt": 0.01, "seed": 5,
        "field": ROTATING})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    field = read_field_csv(out)
    t = field[:, 0]
    assert t.size == 51
    want = np.column_stack([0.7 * np.sin(2.0 * t), np.zeros_like(t), 0.7 * np.cos(2.0 * t)])
    np.testing.assert_allclose(field[:, 1:], want, rtol=0, atol=1e-15)


def test_ws_verify_replays_a_rotating_field(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "ws-verify", "d": 2, "N": 8, "t_end": 0.5, "dt": 1e-3,
        "omega_spec": {"kind": "random", "seed": 3, "scale": 1.0}, "field": ROTATING, "seed": 6})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert gates["pushforward_mismatch"]["value"] <= 1e-10
    assert gates["conjugacy_residual"]["value"] <= 1e-5


def test_winfree_field_points_along_its_pole(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 8, "t_end": 0.1, "dt": 0.01, "seed": 2,
        "field": {"variant": "winfree", "kappa": 1.5, "pole": [0.0, 3.0, 4.0]}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    x = read_field_csv(out)[:, 1:]
    pole = np.array([0.0, 0.6, 0.8])
    assert np.all(x[:, 0] == 0.0) and np.all(x[:, 1] > 0.0)
    np.testing.assert_allclose(x, np.outer(x @ pole, pole), rtol=1e-15, atol=0)


def test_write_csv_header_only_for_empty_series(tmp_path):
    p = write_csv(tmp_path / "empty.csv", ["a", "b"], [])
    assert p.read_text() == "a,b\n"


def test_float_formatting_17_digits(tmp_path):
    assert fmt_value(1.0 / 3.0) == "0.33333333333333331"
    assert fmt_value(5) == "5"
    assert fmt_value(True) == "true"
    p = write_csv(tmp_path / "f.csv", ["x"], [(np.float64(0.1),)])
    assert p.read_text().splitlines()[1] == "0.10000000000000001"


def _fmt_value_chain(x) -> str:
    """fmt_value as it was, each type tested in turn before a float."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def test_fmt_value_tests_float_first_with_the_strings_of_the_chain():
    values = [True, False, np.bool_(True), np.bool_(False), 7, -3, np.int64(-12), None, "",
              "text", 0.1, np.float64(1.0 / 3.0), np.float32(0.1), 0.0, -0.0, np.float64(-0.0),
              math.nan, np.float64(math.nan), math.inf, -math.inf, 1e-310, 2**70]
    for x in values:
        assert fmt_value(x) == _fmt_value_chain(x), repr(x)


def test_write_json_sorted_and_nan_safe(tmp_path):
    p = write_json(tmp_path / "x.json", {"b": float("nan"), "a": np.float64(1.5),
                                         "c": np.array([1, 2])})
    text = p.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"a": 1.5, "b": None, "c": [1, 2]}


def test_sha256_file_hashes_in_chunks_without_holding_the_file(tmp_path):
    import hashlib
    import tracemalloc

    from swarmsphere.io import sha256_file

    data = np.random.default_rng(0).bytes(40 * (1 << 16) + 123)  # forty 64 kB chunks and a bit
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < len(data) / 4, f"traced peak {peak / 1e6:.1f} MB"


def test_write_json_writes_numpy_nan_and_infinity_as_null(tmp_path):
    # a NumPy scalar used to come out as bare NaN or Infinity, which is not JSON
    p = write_json(tmp_path / "x.json", {"a": np.float64("nan"), "b": np.float32("-inf"),
                                         "c": [np.float64("inf"), np.float64(2.5)]})
    text = p.read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {"a": None, "b": None, "c": [None, 2.5]}


# Runs that must not load scipy, which only the existence integral imports
# (lazily): it costs every other run its import time and its memory.
SCIPY_RUNS = {
    "ws-verify": {"experiment": "ws-verify", "d": 2, "N": 8, "t_end": 0.05, "seed": 1},
    "functional": {"experiment": "functional", "d": 2, "N": 8, "t_end": 0.05, "p_list": [0.3],
                   "m": 1000, "drift_tuples": 10, "seed": 1},
    "kinetic": {"experiment": "kinetic", "d": 2, "N": 8, "t_end": 0.5, "delta": 1e-3, "seed": 1},
    "heterogeneous": {"experiment": "heterogeneous", "d": 2, "t_end": 0.05, "m": 10, "seed": 1,
                      "groups": [{"count": 4, "omega_spec": {"kind": "zero"}},
                                 {"count": 4, "omega_spec": {"kind": "planar", "rate": 1.0}}]},
    # the control: existence loads scipy, so the probe sees an import
    "existence": {"experiment": "existence", "d": 1, "p_list": [0.25], "seed": 1},
}

_SCIPY_PROBE = """
import sys
import swarmsphere.cli as cli
print("probe import", "scipy" in sys.modules)
for name in sys.argv[2:]:
    code = cli.main(["run", "--config", f"{sys.argv[1]}/{name}.json", "--out", f"{sys.argv[1]}/{name}"])
    print("probe", name, "scipy" in sys.modules, code)
"""


def test_import_and_runs_other_than_existence_leave_scipy_unloaded(tmp_path):
    for name, cfg in SCIPY_RUNS.items():
        write_config(tmp_path, f"{name}.json", cfg)
    src = str(Path(swarmsphere.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *SCIPY_RUNS],
                         env=env, capture_output=True, text=True, timeout=300, check=True).stdout
    # the runs print their gates too
    lines = [line.split()[1:] for line in out.splitlines() if line.startswith("probe ")]
    assert lines[0] == ["import", "False"]
    assert [(name, loaded) for name, loaded, _ in lines[1:]] == \
        [(name, str(name == "existence")) for name in SCIPY_RUNS]
    # every run got through its work (exit 1 is a failed gate, 2 an abort)
    assert all(code in ("0", "1") for _, _, code in lines[1:])


# The streamed runs against the library's Trajectory path: each CLI run
# reduces its snapshots a block at a time, and its artifacts must hold the
# values that a recorded Trajectory gives the public functions.

def read_csv_floats(path) -> np.ndarray:
    """A CSV of floats, parsed by ``float`` (17 significant digits round-trip)."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def drift_rows(drift) -> np.ndarray:
    return np.column_stack((drift.times, drift.estimates, drift.relative_drift))


def test_streamed_heterogeneous_run_writes_per_omega_conservation(tmp_path):
    from swarmsphere import MeanField, SkewMatrix, per_omega_conservation, sample_uniform, simulate

    groups = [(10, {"kind": "zero"}, SkewMatrix.zero(3)),
              (3, {"kind": "planar", "rate": 2.0}, SkewMatrix.planar(3, 2.0)),
              (12, {"kind": "random", "seed": 2}, SkewMatrix.random(3, 2, 1.0))]
    path = write_config(tmp_path, "c.json", {
        "experiment": "heterogeneous", "d": 3, "t_end": 0.4, "dt": 1e-2, "m": 20, "seed": 9,
        "groups": [{"count": c, "omega_spec": spec} for c, spec, _ in groups]})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    omegas = tuple(om for count, _, om in groups for _ in range(count))
    traj = simulate(sample_uniform(3, 25, 9).with_omega(omegas), MeanField(1.0), 0.4, 1e-2)
    rep = per_omega_conservation(traj, 0.3, 2, 20, 9)
    summary = json.loads((out / "heterogeneous.json").read_text())
    assert [drift is None for drift in rep.groups] == [False, True, False]
    assert [g["group"] for g in summary["groups"]] == [0, 2]
    assert [g["size"] for g in summary["groups"]] == [10, 12]
    assert summary["skipped"] == [{"group": 1, "size": 3}]
    for gi, written in zip([0, 2], summary["groups"], strict=True):
        drift = rep.groups[gi]
        assert read_csv_floats(out / f"drift_group{gi}.csv").tobytes() == drift_rows(drift).tobytes()
        assert written["per_tuple_max_drift"] == drift.per_tuple_max_drift
        assert written["max_relative_drift"] == drift.max_relative_drift
    assert read_csv_floats(out / "drift_mixed.csv").tobytes() == \
        drift_rows(rep.mixed_drift).tobytes()
    assert summary["mixed_per_tuple_drift"] == rep.mixed_drift.per_tuple_max_drift


def test_cycle_ratio_kernel_runs_once_per_stream_block_per_recorder(tmp_path, monkeypatch):
    from swarmsphere import functionals
    from swarmsphere.dynamics import _DRIFT_BLOCK_FLOATS, _record_count

    # CI's N = 2000 heterogeneous config: a stream block of 10 snapshots used to
    # split into 9 + 1 in the gather, which counted the block's points
    kernel, callers = functionals._cycle_ratios, []

    def counted(chords, width):
        callers.append(sys._getframe(1).f_code.co_name)
        return kernel(chords, width)

    monkeypatch.setattr(functionals, "_cycle_ratios", counted)
    groups = [{"count": 1000, "omega_spec": {"kind": "zero"}},
              {"count": 1000, "omega_spec": {"kind": "planar", "rate": 1.0}}]
    path = write_config(tmp_path, "c.json", {"experiment": "heterogeneous", "d": 2,
                                             "groups": groups, "t_end": 0.1, "dt": 1e-3,
                                             "seed": 8})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    blocks = -(-_record_count(0.1, 1e-3, 1) // (_DRIFT_BLOCK_FLOATS // (2000 * 3)))
    draws = callers.count("_draw_cycles")
    assert blocks == 11 and draws >= 3
    assert len(callers) == 3 * blocks + draws  # two groups and the mixed control


def test_streamed_functional_run_writes_conservation_drifts(tmp_path):
    from swarmsphere import MeanField, SkewMatrix, conservation_drifts, sample_uniform, simulate

    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 3, "N": 20, "t_end": 0.2, "dt": 1e-2,
        "omega_spec": {"kind": "random", "seed": 2}, "p_list": [0.5, -0.5], "k_list": [2, 3],
        "m": 100, "drift_tuples": 30, "seed": 5})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    ens0 = sample_uniform(3, 20, 5).with_omega(SkewMatrix.random(3, 2, 1.0))
    traj = simulate(ens0, MeanField(1.0), 0.2, 1e-2)
    drift_max = 0.0
    for k in (2, 3):
        for p, drift in zip([0.5, -0.5], conservation_drifts(traj, [0.5, -0.5], k, 30, 5)):
            written = read_csv_floats(out / f"drift_p{p:g}_k{k}.csv")
            assert written.tobytes() == drift_rows(drift).tobytes()
            drift_max = max(drift_max, drift.max_relative_drift)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["drift_max"] == manifest["gates"]["drift"]["value"] == drift_max


def test_streamed_ws_verify_run_writes_the_replay_of_the_trajectory(tmp_path):
    from swarmsphere import (MeanField, ReplayField, SkewMatrix, conjugacy_residual, push_forward,
                             sample_uniform, simulate, ws_evolve)

    path = write_config(tmp_path, "c.json", {
        "experiment": "ws-verify", "d": 2, "N": 12, "t_end": 0.05, "dt": 1e-3,
        "omega_spec": {"kind": "random", "seed": 7}, "seed": 3})
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    omega = SkewMatrix.random(2, 7, 1.0)
    ens0 = sample_uniform(2, 12, 3).with_omega(omega)
    traj = simulate(ens0, MeanField(1.0), 0.05, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    path = ws_evolve(omega, replay, 0.05, 1e-3)
    checkpoints = []
    for c in range(1, 11):
        idx = 5 * c  # ten checkpoints spread evenly over 50 steps
        pushed = push_forward(path[idx], ens0)
        checkpoints.append({"t": float(traj.times[idx]), "mismatch": float(
            np.max(np.linalg.norm(pushed.points - traj.points[idx], axis=1)))})
    report = json.loads((out / "report.json").read_text())
    assert report["checkpoints"] == checkpoints
    assert report["max_mismatch"] == max(c["mismatch"] for c in checkpoints)
    assert report["conjugacy_residual"] == conjugacy_residual(path, replay, ens0)
    states = np.column_stack((path.time, path.w, path.rotation.reshape(len(path), -1)))
    assert read_csv_floats(out / "ws_states.csv").tobytes() == states.tobytes()


def export_trajectory(traj, outdir):
    """trajectory.csv and field.csv of a recorded run, each row formatted as
    the simulate run formats it."""
    dim = traj.points.shape[2]
    write_csv(outdir / "trajectory.csv",
              ["t", "particle_index"] + [f"coordinate_{j}" for j in range(dim)],
              ((t, i, *row) for t, points in zip(traj.times, traj.points)
               for i, row in enumerate(points)))
    write_csv(outdir / "field.csv", ["t"] + [f"X_{j}" for j in range(dim)],
              ((t, *x) for t, x in zip(traj.times, traj.field_samples)))


@pytest.mark.parametrize("record_every", [1, 3])
def test_streamed_simulate_run_writes_the_export_of_simulate(tmp_path, monkeypatch, record_every):
    import swarmsphere.dynamics as dynamics
    from swarmsphere import SkewMatrix, WinfreeField, sample_uniform, simulate

    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 12, "t_end": 0.2, "dt": 1e-2,
        "record_every": record_every, "omega_spec": {"kind": "random", "seed": 4},
        "field": {"variant": "winfree", "kappa": 2.0}, "seed": 6})
    # blocks of five snapshots, so the rows are written across several blocks
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_FLOATS", 5 * 12 * 3)
    out, want = tmp_path / "o", tmp_path / "want"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    ens0 = sample_uniform(2, 12, 6).with_omega(SkewMatrix.random(2, 4, 1.0))
    traj = simulate(ens0, WinfreeField(2.0, np.eye(3)[-1]), 0.2, 1e-2, record_every)
    want.mkdir()
    export_trajectory(traj, want)
    for name in ("trajectory.csv", "field.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"] == {"snapshots": len(traj.times)}


# N = 256 on S^2: over 2,000 steps a recording of 2001 x 256 x 3 floats, about 12 MB;
# simulate runs 750 steps (4.6 MB), since writing its rows costs more than stepping them
_GROUPS_256 = [{"count": 128, "omega_spec": {"kind": "zero"}},
               {"count": 128, "omega_spec": {"kind": "planar", "rate": 1.0}}]


@pytest.mark.parametrize("cfg", [
    {"experiment": "simulate", "d": 2, "N": 256, "t_end": 0.75, "dt": 1e-3},
    {"experiment": "heterogeneous", "d": 2, "groups": _GROUPS_256, "t_end": 2.0, "dt": 1e-3},
    {"experiment": "ws-verify", "d": 2, "N": 256, "t_end": 2.0, "dt": 1e-3,
     "omega_spec": {"kind": "random", "seed": 7}},
], ids=lambda cfg: cfg["experiment"])
def test_streamed_runs_hold_less_than_half_their_recording(tmp_path, cfg):
    import tracemalloc

    path = write_config(tmp_path, "c.json", {**cfg, "seed": 8})
    recording = (round(cfg["t_end"] / cfg["dt"]) + 1) * 256 * 3 * 8
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < recording / 2, f"traced peak {peak / 1e6:.1f} MB"


# one config per experiment that steps a run; kinetic with its instability branches
_STEPPED = {
    "simulate": {"experiment": "simulate", "d": 2, "N": 12, "t_end": 0.2, "dt": 1e-2,
                 "record_every": 3, "omega_spec": {"kind": "random", "seed": 4}, "seed": 6},
    "ws-verify": {"experiment": "ws-verify", "d": 2, "N": 12, "t_end": 0.05, "dt": 1e-3,
                  "omega_spec": {"kind": "random", "seed": 7}, "seed": 3},
    "functional": {"experiment": "functional", "d": 2, "N": 16, "t_end": 0.1, "dt": 1e-2,
                   "p_list": [0.3, -0.3], "k_list": [2, 3], "m": 200, "drift_tuples": 20,
                   "seed": 5},
    "heterogeneous": {"experiment": "heterogeneous", "d": 2, "t_end": 0.1, "m": 10, "seed": 8,
                      "groups": [{"count": 8, "omega_spec": {"kind": "zero"}},
                                 {"count": 8, "omega_spec": {"kind": "planar", "rate": 1.0}}]},
    "kinetic": {"experiment": "kinetic", "d": 2, "N": 40, "kappa": 2.0, "t_end": 10.0,
                "record_every": 7, "delta": 1e-3, "seed": 7},
}


@pytest.mark.parametrize("experiment", sorted(_STEPPED))
def test_every_run_writes_its_bytes_fed_one_state_at_a_time(tmp_path, monkeypatch, experiment):
    # ws-verify's checkpoints, simulate's rows and every recorder read the
    # run's feed; none may keep a view of its reused block buffer
    import swarmsphere.dynamics as dynamics

    path = write_config(tmp_path, "c.json", _STEPPED[experiment])
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "default")]) == 0
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_FLOATS", 1)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
    names = sorted(f.name for f in (tmp_path / "default").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "one").iterdir()) and len(names) > 1
    for name in names:
        a, b = ((tmp_path / run / name).read_bytes() for run in ("default", "one"))
        if name == "manifest.json":
            a, b = ({**json.loads(m), "wall_time_s": None} for m in (a, b))
        assert a == b, name

import json
import time

import numpy as np
import pytest

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
        "record_every": 20, "p_list": [0.0, 0.3, -0.3], "m": 5000, "seed": 9,
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


def test_functional_records_keep_k_outer_p_inner_order(tmp_path):
    from swarmsphere import UniformSphereSampler, estimate_cycle_moment

    p_list, k_list = [0.3, 0.0, -0.3], [3, 2]
    path = write_config(tmp_path, "c.json", {
        "experiment": "functional", "d": 2, "N": 16, "t_end": 0.05, "dt": 1e-2,
        "p_list": p_list, "k_list": k_list, "m": 3000, "drift_tuples": 20, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    records = json.loads((out / "estimates.json").read_text())
    assert [(r["k"], r["p"]) for r in records] == [(k, p) for k in k_list for p in p_list]
    for r in records:
        est = estimate_cycle_moment(UniformSphereSampler(2), r["p"], r["k"], 3000, 6)
        assert r["value"] == est.value and r["std_error"] == est.std_error
    for k in k_list:
        for p in p_list:
            assert (out / f"drift_p{p:g}_k{k}.csv").is_file()


def test_gate_failure_exit_code(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "ws-verify", "d": 2, "N": 4, "t_end": 0.1, "dt": 1e-3,
        "seed": 42, "tol_mismatch": 1e-30,
    })
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


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


def test_blow_up_aborts_naming_non_finite_state(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "simulate", "d": 2, "N": 8, "t_end": 0.05, "dt": 1e-2, "seed": 1,
        "field": {"variant": "prescribed_constant", "vector": [1e308, 0, 0]},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "non-finite" in manifest["aborted"]


def test_kinetic_csv_column_contract(tmp_path):
    path = write_config(tmp_path, "c.json", {
        "experiment": "kinetic", "d": 2, "N": 32, "t_end": 0.5, "dt": 1e-2,
        "record_every": 5, "seed": 6,
    })
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) in (0, 1)
    header = (out / "order_parameter.csv").read_text().splitlines()[0]
    assert header == "t,R2,dR2_analytic,mass_plus,mass_minus"


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


def test_write_csv_header_only_for_empty_series(tmp_path):
    p = write_csv(tmp_path / "empty.csv", ["a", "b"], [])
    assert p.read_text() == "a,b\n"


def test_float_formatting_17_digits(tmp_path):
    assert fmt_value(1.0 / 3.0) == "0.33333333333333331"
    assert fmt_value(5) == "5"
    assert fmt_value(True) == "true"
    p = write_csv(tmp_path / "f.csv", ["x"], [(np.float64(0.1),)])
    assert p.read_text().splitlines()[1] == "0.10000000000000001"


def test_write_json_sorted_and_nan_safe(tmp_path):
    p = write_json(tmp_path / "x.json", {"b": float("nan"), "a": np.float64(1.5),
                                         "c": np.array([1, 2])})
    text = p.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"a": 1.5, "b": None, "c": [1, 2]}

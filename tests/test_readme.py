"""README.md against the program: the gates table, the result types and the
library quick tour.

The gates are the contract of the command line, so the table that states
them is checked against what every experiment writes into its manifest, each
gate of it is made to fail by one planted fault (a gate that no fault makes
fail checks nothing), and the quick tour runs as written.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import swarmsphere
from swarmsphere import cli, dynamics, functionals, kinetic, ws
from swarmsphere.cli import main
from swarmsphere.dynamics import MeanField
from swarmsphere.geometry import Ensemble

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def gate_table() -> dict:
    """{experiment: {gate: (kind, threshold, present)}} from the README's gates table;
    a row whose gate is "—" names an experiment without gates."""
    section = README.split("#### Gates", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    table, experiment = {}, None
    for cells in rows[2:]:  # after the header and the rule
        exp, gate, kind, threshold, present = (c.strip().strip("`") for c in cells[:5])
        experiment = exp or experiment
        gates = table.setdefault(experiment, {})
        if gate != "—":
            gates[gate] = (kind, float(threshold), present)
    return table


GROUP = {"count": 4, "omega_spec": {"kind": "zero"}}
PLANAR = {"count": 4, "omega_spec": {"kind": "planar", "rate": 1.0}}

# per experiment: a tiny config that has every gate of the table, and one
# that has only the gates present always
RUNS = {
    "simulate": [{"d": 2, "N": 4, "t_end": 0.01}] * 2,
    "ws-verify": [{"d": 2, "N": 4, "t_end": 0.01}] * 2,
    "functional": [{"d": 2, "N": 8, "t_end": 0.01, "p_list": [0.0, 0.3, -0.3], "m": 200,
                    "drift_tuples": 10},
                   {"d": 2, "N": 8, "t_end": 0.01, "p_list": [0.3], "m": 200, "drift_tuples": 10}],
    "existence": [{"d": 1, "p_list": [0.25]}] * 2,
    # a vMF start is polarised (initial R >= 0.1); a large uniform one is not
    "kinetic": [{"d": 2, "N": 8, "t_end": 0.05, "delta": 1e-3,
                 "initial": {"kind": "vmf", "concentration": 5.0}},
                {"d": 2, "N": 2000, "t_end": 0.02, "initial": {"kind": "uniform"}}],
    "heterogeneous": [{"d": 2, "groups": [GROUP, PLANAR], "t_end": 0.01, "m": 5},
                      {"d": 2, "groups": [GROUP], "t_end": 0.01, "m": 5}],
}


def run_manifest(tmp_path, experiment: str, cfg: dict) -> tuple[int, dict]:
    """The exit code and manifest of one run of ``cfg`` (seed 3 unless it names one)."""
    tmp_path.mkdir()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": experiment, "seed": 3, **cfg}), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    return code, json.loads((out / "manifest.json").read_text())


def run_gates(tmp_path, experiment: str, cfg: dict) -> dict:
    code, manifest = run_manifest(tmp_path, experiment, cfg)
    assert code in (0, 1)
    return manifest["gates"]


def test_gate_table_names_every_experiment():
    assert sorted(gate_table()) == sorted(RUNS)


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_gates_match_the_readme_table(tmp_path, experiment):
    table = gate_table()[experiment]
    full, bare = RUNS[experiment]
    gates = run_gates(tmp_path / "full", experiment, full)
    # an experiment without gates writes "gates": {}
    assert {name: (g["kind"], g["threshold"]) for name, g in gates.items()} == \
        {name: (kind, threshold) for name, (kind, threshold, _) in table.items()}
    bare_gates = run_gates(tmp_path / "bare", experiment, bare)
    assert sorted(bare_gates) == sorted(name for name, row in table.items() if row[2] == "always")


# Witnesses: per gate of the table, a config whose run passes every gate and
# a fault that, planted with monkeypatch, makes that gate fail.

WS = {"d": 2, "N": 4, "t_end": 0.05, "omega_spec": {"kind": "random", "seed": 7}}
FUNCTIONAL = {"d": 2, "N": 8, "t_end": 0.05, "p_list": [0.3, -0.3], "m": 2000, "drift_tuples": 10}
EXISTENCE = {"d": 1, "p_list": [0.25]}
# kappa = 2, so that a derivative without its kappa differs from the right one
KINETIC = {"d": 2, "N": 32, "kappa": 2.0, "t_end": 4.0, "seed": 5}
INSTABILITY = {"d": 2, "N": 40, "kappa": 2.0, "t_end": 10.0, "delta": 1e-3, "seed": 7}
HETEROGENEOUS = {"d": 2, "groups": [GROUP, PLANAR], "t_end": 0.5, "m": 5}
PASSING = {"ws-verify": [WS], "functional": [FUNCTIONAL], "existence": [EXISTENCE],
           "kinetic": [KINETIC, INSTABILITY], "heterogeneous": [HETEROGENEOUS]}


def uneven_speeds(mp):
    """Scale the particle velocities from 1 to 2 across the population: still
    tangent, so the points stay on the sphere, but no longer one Moebius flow."""
    velocities = dynamics._velocities

    def uneven(cols, x_field, groups=()):
        v = velocities(cols, x_field, groups)
        return v * np.linspace(1.0, 2.0, v.shape[-1])

    mp.setattr(dynamics, "_velocities", uneven)


def drop_omega_from_dw(mp):
    dw = ws._dw
    mp.setattr(ws, "_dw", lambda w, om_mat, x: dw(w, None, x))


def scale_cayley_steps(mp):
    # Q = cay(1.01 Theta) is still orthogonal, but turns R 1% too far
    factors = ws._cayley_factors
    mp.setattr(ws, "_cayley_factors", lambda w, x, om_mat, dt: factors(w, x, om_mat, 1.01 * dt))


def double_drawn_ratios(mp):
    draw = functionals._draw_cycles

    def doubled(*args):
        cycles, ratios, rejected = draw(*args)
        return cycles, 2.0 * ratios, rejected

    mp.setattr(functionals, "_draw_cycles", doubled)


def flip_existence_check(mp):
    check = cli.existence_check
    mp.setattr(cli, "existence_check", lambda p, d: not check(p, d))


def coupling_times(factor: float):
    def plant(mp):
        mp.setattr(kinetic, "MeanField", lambda kappa: MeanField(factor * kappa))
    return plant


def drop_kappa_from_derivative(mp):
    dr2 = kinetic._dR2_dt
    mp.setattr(kinetic, "_dR2_dt", lambda points, x_c: dr2(points, x_c) / KINETIC["kappa"])


def swap_ball_centers(mp):
    masses = kinetic._ball_masses
    mp.setattr(kinetic, "_ball_masses", lambda points, centers, eps: masses(points, -centers, eps))


def branch_start(member: int, source: int):
    """Start instability branch ``member`` (0 symmetric, 1 perturbed) from branch ``source``."""
    def plant(mp):
        init = kinetic._Branches.__init__

        def copied(self, *args):
            init(self, *args)
            self.start[member] = self.start[source]

        mp.setattr(kinetic._Branches, "__init__", copied)
    return plant


def farthest_pairs(mp):
    def farthest(points, idx, count):
        pairs = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]]
        pairs.sort(key=lambda ij: -float(np.sum((points[ij[0]] - points[ij[1]]) ** 2)))
        return [(int(i), int(j)) for i, j in pairs[:count]]

    mp.setattr(kinetic, "_closest_pairs", farthest)


def uneven_control_speeds(mp):
    blocks = kinetic._snapshot_blocks

    def control(start, *args):
        if not isinstance(start, Ensemble):  # the stack of the series and the branches
            yield from blocks(start, *args)
            return
        with mp.context() as inner:  # the control run, the one that starts from an Ensemble
            uneven_speeds(inner)
            yield from blocks(start, *args)

    mp.setattr(kinetic, "_snapshot_blocks", control)


def one_generator_for_all(mp):
    # every group moves under the last group's generator, while the labels still differ
    slices = Ensemble._omega_slices
    mp.setattr(Ensemble, "_omega_slices",
               lambda self: tuple((slices(self)[-1][0], idx) for _, idx in slices(self)))


WITNESSES = {
    ("ws-verify", "pushforward_mismatch"): (WS, drop_omega_from_dw),
    ("ws-verify", "conjugacy_residual"): (WS, scale_cayley_steps),
    ("functional", "drift"): (FUNCTIONAL, uneven_speeds),
    ("functional", "p_symmetry_3sigma"): (FUNCTIONAL, double_drawn_ratios),
    ("existence", "classification_matches_existence"): (EXISTENCE, flip_existence_check),
    ("kinetic", "monotone_R2"): (KINETIC, coupling_times(-1.0)),
    ("kinetic", "derivative_identity"): (KINETIC, drop_kappa_from_derivative),
    ("kinetic", "synchronization"): (KINETIC, coupling_times(0.1)),
    ("kinetic", "bipolar_masses"): (KINETIC, swap_ball_centers),
    ("kinetic", "instability_symmetric"): (INSTABILITY, branch_start(0, 1)),
    ("kinetic", "instability_perturbed"): (INSTABILITY, branch_start(1, 0)),
    ("kinetic", "instability_growth"): (INSTABILITY, farthest_pairs),
    ("kinetic", "instability_control"): (INSTABILITY, uneven_control_speeds),
    ("heterogeneous", "within_group_drift"): (HETEROGENEOUS, uneven_speeds),
    ("heterogeneous", "mixed_tuple_drift"): (HETEROGENEOUS, one_generator_for_all),
}


@pytest.mark.parametrize("experiment, i", [(e, i) for e, cfgs in PASSING.items()
                                           for i in range(len(cfgs))])
def test_witness_configs_pass_every_gate(tmp_path, experiment, i):
    code, manifest = run_manifest(tmp_path / "run", experiment, PASSING[experiment][i])
    assert code == 0 and all(g["passed"] for g in manifest["gates"].values())


@pytest.mark.parametrize("experiment, gate", [(e, g) for e, gates in gate_table().items()
                                              for g in gates])
def test_a_planted_fault_fails_each_gate(tmp_path, monkeypatch, experiment, gate):
    cfg, plant = WITNESSES[experiment, gate]
    plant(monkeypatch)
    code, manifest = run_manifest(tmp_path / "run", experiment, cfg)
    assert code == 1
    assert manifest["gates"][gate]["passed"] is False


def off_sphere(mp):
    renormalize = dynamics._renormalize_columns_in_place
    mp.setattr(dynamics, "_renormalize_columns_in_place", lambda a: renormalize(a) * (1 + 1e-6))


def non_orthogonal(mp):
    factors = ws._cayley_factors
    mp.setattr(ws, "_cayley_factors", lambda *args: factors(*args) * (1 + 1e-6))


@pytest.mark.parametrize("experiment, plant, refusal", [
    ("simulate", off_sphere, "trajectory points must lie on the unit sphere"),
    ("ws-verify", non_orthogonal, "rotation is not orthogonal within tolerance"),
    # the streamed runs check each block of snapshots by the Trajectory rules
    ("ws-verify", off_sphere, "trajectory points must lie on the unit sphere"),
    ("heterogeneous", off_sphere, "trajectory points must lie on the unit sphere"),
    ("kinetic", off_sphere, "trajectory points must lie on the unit sphere"),
])
def test_a_state_off_its_manifold_is_refused_by_its_constructor(tmp_path, monkeypatch,
                                                                experiment, plant, refusal):
    # no gate re-measures these: the run aborts before it has a state to measure
    plant(monkeypatch)
    cfg = {"heterogeneous": HETEROGENEOUS, "kinetic": KINETIC}.get(experiment, WS)
    code, manifest = run_manifest(tmp_path / "run", experiment, cfg)
    assert code == 2
    assert manifest["aborted"] == f"ValueError: {refusal}"
    # and leaves no partial artifact behind
    assert [f.name for f in (tmp_path / "run" / "o").iterdir()] == ["manifest.json"]


def test_library_quick_tour_runs_as_written():
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)  # noqa: S102 - the README's own code
    mismatch = float(np.max(np.linalg.norm(scope["pushed"].points - scope["traj"].points[-1],
                                           axis=1)))
    assert mismatch <= 1e-10


def top_level_names(cell: str) -> list[str]:
    """The backticked names of a table cell outside its parentheses."""
    depth, kept = 0, []
    for ch in cell:
        depth += ch == "("
        if not depth:
            kept.append(ch)
        depth -= ch == ")" and depth > 0
    return re.findall(r"`(\w+)`", "".join(kept))


def test_result_types_table_lists_each_types_fields():
    section = README.split("Results hold what was measured", 1)[1].split("\n\n", 2)[1]
    # cells split at the unescaped pipes
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    assert len(rows) == 6
    for name_cell, fields_cell in rows:
        cls = getattr(swarmsphere, name_cell.strip().strip("`"))
        assert top_level_names(fields_cell) == [f.name for f in dataclasses.fields(cls)], cls

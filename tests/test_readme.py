"""README.md against the program: the gates table and the library quick tour.

The gates are the contract of the command line, so the table that states
them is checked against what every experiment writes into its manifest, and
the quick tour runs as written.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from swarmsphere.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def gate_table() -> dict:
    """{experiment: {gate: (kind, threshold, present)}} from the README's gates table."""
    section = README.split("#### Gates", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    table, experiment = {}, None
    for cells in rows[2:]:  # after the header and the rule
        exp, gate, kind, threshold, present = (c.strip().strip("`") for c in cells[:5])
        experiment = exp or experiment
        table.setdefault(experiment, {})[gate] = (kind, float(threshold), present)
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


def run_gates(tmp_path, experiment: str, cfg: dict) -> dict:
    tmp_path.mkdir()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": experiment, "seed": 3, **cfg}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) in (0, 1)
    return json.loads((out / "manifest.json").read_text())["gates"]


def test_gate_table_names_every_experiment():
    assert sorted(gate_table()) == sorted(RUNS)


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_gates_match_the_readme_table(tmp_path, experiment):
    table = gate_table()[experiment]
    full, bare = RUNS[experiment]
    gates = run_gates(tmp_path / "full", experiment, full)
    assert {name: (g["kind"], g["threshold"]) for name, g in gates.items()} == \
        {name: (kind, threshold) for name, (kind, threshold, _) in table.items()}
    bare_gates = run_gates(tmp_path / "bare", experiment, bare)
    assert sorted(bare_gates) == sorted(name for name, row in table.items() if row[2] == "always")


def test_library_quick_tour_runs_as_written():
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)  # noqa: S102 - the README's own code
    mismatch = float(np.max(np.linalg.norm(scope["pushed"].points - scope["traj"].points[-1],
                                           axis=1)))
    assert mismatch <= 1e-10

"""swarmsphere benchmark: CLI experiments timed end to end, layers traced.

usage: python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                                [--trace 0|1] [--size full|small]

Run from the root of a source checkout; the program is imported from
``src/``.  Each measured invocation runs in a fresh process (child.py) that
imports ``swarmsphere.cli``, parses the workload's config and calls
``cli.run_experiment``, exactly the path of ``swarmsphere run``.

--trace 0 reports the end-to-end metrics:
  solve_s      median wall time of cli.run_experiment (integration, gates, artifacts)
  setup_s      median time from process start through import and parse_config
  peak_rss_mb  median peak resident set of a solving process (ru_maxrss via wait4)
Both times are scaled to a reference host speed (see SpeedProbe); the run
record keeps the unscaled wall times too.
--trace 1 runs untraced and traced processes in pairs and reports the
per-layer metrics (PER_LAYER) from the traced ones, plus trace.overhead.

Every solving process is checked: exit code 0, no ``aborted`` manifest, every
gate passed, the exact R = 0 of the instability experiment's symmetric branch,
and artifacts byte-identical to the set's first run (manifest wall time
aside).  A process failing any check counts in ``failed``; fail_ratio is
failed/attempted.  The last line of stdout is one JSON object; the run record
with seed, versions, commit and artifact hashes goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
SETUP_SAMPLES = 5  # set-up-only processes top up the solving ones to this many
REF_LOOP_S = 1.5e-3  # median CPU time of reference_loop() on the baseline host
PROBE_EVERY_S = 0.1
CPUS = sorted(os.sched_getaffinity(0))  # before any pinning below

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layers that run on every workload report their self time; exact counts are
# reported everywhere (0 where the layer does not run).  The trace record and
# the printed table hold every traced layer, including workload-specific ones.
_SELF_TIMED = ["geometry.exact_mean", "geometry.renormalize_rows", "geometry.Ensemble",
               "geometry.Ensemble.omega_groups", "dynamics.step", "dynamics.simulate",
               "dynamics.eval_field", "dynamics.MeanField.evaluate", "io.write_csv",
               "io.write_json", "io.sha256_file", "cli.parse_config", "cli.run_experiment"]
_CALLS = ["geometry.exact_mean", "geometry.renormalize_rows", "geometry.reorthonormalize",
          "geometry.Ensemble", "dynamics.step", "dynamics.MeanField.evaluate",
          "dynamics.ReplayField.evaluate", "ws.ws_rhs", "ws.WsState", "ws.push_forward",
          "functionals.estimate_cycle_moment", "functionals.conservation_drift", "io.write_csv"]
_COUNTS = [metric for _, _, counters in TRACED for metric in counters]
PER_LAYER = ({f"{n}.self_s": "s" for n in _SELF_TIMED}
             | {f"{n}.calls": "count" for n in _CALLS}
             | {n: "count" for n in _COUNTS}
             | {"cli.import_s": "s", "trace.overhead": "ratio"})


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def artifact_digest(outdir: Path) -> dict:
    """sha256 of every artifact; the manifest is hashed without its wall time."""
    digest = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest[path.name] = hashlib.sha256(data).hexdigest()
    return digest


def check_outputs(exit_code: int, outdir: Path) -> list[str]:
    """Reasons a solving run counts as failed, from its exit code and manifest."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return problems + ["no manifest written"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if "aborted" in manifest:
        problems.append(f"aborted: {manifest['aborted']}")
    failed = sorted(k for k, g in manifest.get("gates", {}).items() if not g["passed"])
    if failed:
        problems.append("gates failed: " + ", ".join(failed))
    # the CLI gate allows 1e-6; a mean that is not exact would still pass it
    instability = manifest.get("summary", {}).get("instability")
    if instability is not None and instability["R_max_symmetric"] != 0.0:
        problems.append(f"R_max_symmetric = {instability['R_max_symmetric']!r}, not exactly 0")
    return problems


def reference_loop() -> float:
    """CPU time of a fixed pure-Python loop; it grows while the host CPU is slow."""
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.thread_time() - start


class SpeedProbe:
    """Samples reference_loop on the CPUs of the measured process while it runs.

    On a shared host each CPU can run up to 1.6x slower for seconds to minutes
    at a time, independently of the program and of the other CPU.  Timings
    are therefore scaled by REF_LOOP_S over the median loop time sampled on
    the same CPUs over the same interval, which cancels most of that drift.
    The samples cost the measured process about 1% of its CPU.
    """

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        i = 0
        while True:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})  # this thread only
            self.samples.append((time.monotonic(), reference_loop()))
            i += 1
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REF_LOOP_S over the median loop time sampled in [start, end]."""
        inside = [x for t, x in self.samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return REF_LOOP_S / median(inside)


class Workload:
    """One workload's config on disk plus the child processes that run it."""

    def __init__(self, name: str, spec: dict, seed: int, size: str):
        self.name = name
        self.dir = WORK / name
        self.outdir = self.dir / "out"
        self.config = dict(spec["config"], **(spec["small"] if size == "small" else {}))
        self.config["seed"] = seed
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
        self.threads = str(spec["threads"])
        # a single-threaded process is pinned so that the probe samples its CPU
        self.cpus = CPUS[:1] if spec["threads"] == 1 else CPUS
        self.speed = SpeedProbe(self.cpus)
        self.env = dict(os.environ, SWARMSPHERE_THREADS=self.threads)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.reference = None  # artifact digest of the set's first solving run
        self.attempted = 0
        self.problems: list[str] = []

    def spawn(self, mode: str, deadline: float) -> dict:
        """Run child.py in ``mode``; returns its timings, exit code and peak RSS."""
        result_path = self.dir / f"{mode}.json"
        result_path.unlink(missing_ok=True)
        shutil.rmtree(self.outdir, ignore_errors=True)
        args = [sys.executable, str(BENCH / "child.py"), mode, str(self.config_path),
                str(self.outdir), str(result_path)]
        os.sched_setaffinity(0, self.cpus)  # inherited by the child
        with open(self.dir / f"{mode}.stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"mode": mode, "exit_code": proc.returncode,
                  "wall_s": time.monotonic() - t_spawn,
                  "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
        if result_path.is_file():
            child = json.loads(result_path.read_text(encoding="utf-8"))
            ready = child.pop("ready_monotonic")
            sample["setup_wall_s"] = ready - t_spawn
            sample["setup_s"] = sample["setup_wall_s"] * self.speed.scale(t_spawn, ready)
            if "solve_window" in child:
                start, end = child.pop("solve_window")
                sample["solve_wall_s"] = end - start
                sample["solve_s"] = sample["solve_wall_s"] * self.speed.scale(start, end)
            sample.update(child)
        return sample

    def probe(self, deadline: float) -> dict:
        sample = self.spawn("setup", deadline)
        if sample["exit_code"] != 0 or "setup_s" not in sample:
            self.problems.append(f"set-up process failed with exit code {sample['exit_code']}")
        return sample

    def solve(self, mode: str, deadline: float) -> dict:
        """One checked solving run; failures are counted, not raised."""
        sample = self.spawn(mode, deadline)
        self.attempted += 1
        problems = check_outputs(sample["exit_code"], self.outdir)
        if self.outdir.is_dir():
            digest = artifact_digest(self.outdir)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("artifacts differ from the first run of the set")
        if "solve_s" not in sample:
            problems.append("no timing recorded")
        sample["problems"] = problems
        self.problems += [f"{mode} run {self.attempted}: {p}" for p in problems]
        return sample


def _fill(seconds: float, started: float, walls: list[float], deadline: float) -> bool:
    """True while one more process, as long as the median so far, fits the run."""
    now = time.monotonic()
    return now + median(walls) <= min(started + seconds, deadline)


def measure(wl: Workload, seconds: float) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    with wl.speed:
        wl.probe(deadline)  # warm-up: byte-compilation and file cache, not timed
        started = time.monotonic()
        solves = [wl.solve("solve", deadline)]
        while _fill(seconds, started, [s["wall_s"] for s in solves], deadline):
            solves.append(wl.solve("solve", deadline))
        probes = [wl.probe(deadline) for _ in range(SETUP_SAMPLES - len(solves))]
    timed = [s for s in solves if "solve_s" in s]
    if not timed:
        raise BenchError(f"{wl.name}: no solving run produced a timing: {wl.problems}")
    setups = [s["setup_s"] for s in probes + solves if "setup_s" in s]
    metrics = {"solve_s": median([s["solve_s"] for s in timed]),
               "setup_s": median(setups),
               "peak_rss_mb": median([s["peak_rss_mb"] for s in timed])}
    counts = {"solve_s": len(timed), "setup_s": len(setups), "peak_rss_mb": len(timed)}
    report = {m: {"value": v, "unit": END_TO_END[m], "samples": counts[m]} for m, v in metrics.items()}
    return report, probes + solves


def _exact_counts(traced: dict) -> dict:
    """Call counts and count metrics of one traced process; they must repeat exactly."""
    calls = {f"{name}.calls": stats["calls"] for name, stats in traced["layers"].items()}
    return calls | traced["counts"]


def measure_traced(wl: Workload, seconds: float) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    plain, traced = [], []
    with wl.speed:
        wl.probe(deadline)
        started = time.monotonic()
        while not plain or _fill(seconds, started, [a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced)],
                                 deadline):
            plain.append(wl.solve("solve", deadline))
            traced.append(wl.solve("trace", deadline))
    plain = [s for s in plain if "solve_s" in s]
    traced = [s for s in traced if "layers" in s]
    if not plain or not traced:
        raise BenchError(f"{wl.name}: no traced pair produced timings: {wl.problems}")
    exact = [_exact_counts(s) for s in traced]
    if any(c != exact[0] for c in exact[1:]):
        wl.problems.append("exact counts differ between traced runs")
    values = {}
    for metric, unit in PER_LAYER.items():
        if unit == "count":
            values[metric] = exact[0].get(metric, 0)
        elif metric.endswith(".self_s"):
            layer = metric.removesuffix(".self_s")
            values[metric] = median([s["layers"].get(layer, {}).get("self_s", 0.0) for s in traced])
    values["cli.import_s"] = median([s["import_s"] for s in traced])
    values["trace.overhead"] = (median([s["solve_s"] for s in traced])
                                / median([s["solve_s"] for s in plain]))
    report = {m: {"value": values[m], "unit": u, "samples": len(traced)} for m, u in PER_LAYER.items()}
    return report, plain + traced


def _print_layers(samples: list[dict]) -> None:
    traced = [s for s in samples if "layers" in s]
    times = {name: {k: median([s["layers"].get(name, {}).get(k, 0.0) for s in traced])
                    for k in ("self_s", "total_s")}
             for name in traced[0]["layers"]}
    print(f"  {'layer':<40} {'calls':>9} {'self_s':>10} {'total_s':>10}   (times: median of {len(traced)})")
    for name in sorted(times, key=lambda n: -times[n]["self_s"]):
        calls = traced[0]["layers"][name]["calls"]
        print(f"  {name:<40} {calls:>9} {times[name]['self_s']:>10.4f} {times[name]['total_s']:>10.4f}")
    for metric, value in sorted(traced[0]["counts"].items()):
        print(f"  {metric:<40} {value:>9}")


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool, size: str) -> dict:
    wl = Workload(name, spec, seed, size)
    report, samples = (measure_traced if trace else measure)(wl, seconds)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "config": wl.config, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "SWARMSPHERE_THREADS": wl.threads, "commit": _commit(),
        "artifacts_sha256": wl.reference, "attempted": wl.attempted,
        "failed": sum(1 for s in samples if s.get("problems")), "problems": wl.problems,
        "metrics": report, "samples": samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    info = {k: record[k] for k in ("workload", "seed", "nproc", "python", "numpy", "scipy",
                                   "SWARMSPHERE_THREADS", "commit", "artifacts_sha256")}
    print("info " + json.dumps(info, sort_keys=True))
    for metric, m in report.items():
        if m["unit"] == "count":
            print(f"{name} {metric} = {m['value']} count (exact, {m['samples']} traced)")
        else:
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']} (median of {m['samples']})")
    print(f"{name} fail_ratio = {record['failed']}/{record['attempted']}")
    if trace:
        _print_layers(samples)
    for problem in wl.problems:
        print(f"{name} FAILED {problem}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="config seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "swarmsphere" / "cli.py").is_file():
        print(f"error: no swarmsphere sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            print(f"error: unknown workload {name!r}; expected one of {list(workloads)} or all",
                  file=sys.stderr)
            return 2
    records = []
    try:
        for name in names:
            seed = workloads[name]["config"]["seed"] if args.seed is None else args.seed
            records.append(run_workload(name, workloads[name], seed, args.seconds,
                                        bool(args.trace), args.size))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = {m: {"value": v["value"], "unit": v["unit"]} for m, v in records[0]["metrics"].items()}
    else:
        metrics = {}
        for r in records:
            for m, v in r["metrics"].items():
                metrics[f"{r['workload']}.{m}"] = {"value": v["value"], "unit": v["unit"]}
            metrics[f"{r['workload']}.fail_ratio"] = {"value": r["failed"] / r["attempted"],
                                                      "unit": "failed/attempted"}
    print(json.dumps({"correct": failed == 0 and not any(r["problems"] for r in records),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured swarmsphere invocation, run by run.py in a fresh process.

usage: python3 perfbench/child.py MODE CONFIG OUTDIR RESULT

MODE is ``setup`` (import swarmsphere.cli and parse the config), ``solve``
(then run the experiment) or ``trace`` (solve with spans around every traced
layer, see tracer.py).  The timings go to RESULT as JSON; a traced run also
writes its spans next to it.  The exit code is the experiment's, as the
``swarmsphere run`` command would return it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path


def main(mode: str, config: str, outdir: str, result_path: str) -> int:
    result = {}
    t0 = time.perf_counter()
    import swarmsphere.cli as cli
    result["import_s"] = time.perf_counter() - t0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = cli.parse_config(config)
    config_sha = hashlib.sha256(Path(config).read_bytes()).hexdigest()
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract its
    # own stamp taken just before it started this process and match these
    # stamps against its host-speed samples
    result["ready_monotonic"] = time.monotonic()
    exit_code = 0
    if mode != "setup":
        start = time.monotonic()
        exit_code = cli.run_experiment(cfg, Path(outdir), config_sha)
        result["solve_window"] = [start, time.monotonic()]
    if tracer is not None:
        result.update(tracer.summary())
        tracer.write_spans(Path(result_path).with_suffix(".spans.json"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

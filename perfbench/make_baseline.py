"""Run the benchmark repeatedly and write the baseline.

    python3 perfbench/make_baseline.py

Runs ``run.py`` RUNS times per workload, each time with its own seed (1,
2, ...), and TRACED_RUNS more times with ``--trace 1``.  For every metric
on every workload this prints the sample count, median, quartiles and the
quartile spread as a share of the median, next to a third of the metric's
bound, and writes them, the host and the map from layer metrics to
end-to-end metrics to ``baseline.json``.  Exits 1 if a run is not correct.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from common import BENCH, ROOT
from run import WORKLOADS

RUNS = 10
TRACED_RUNS = 3

# which end-to-end metric each per-layer metric should move, and where
LAYER_MAP = [
    {"layer": "engine", "metric": "engine.us_per_newton_iter", "moves": "wall_s",
     "on": ["digit_stream", "compare"], "note": "most on digit_stream"},
    {"layer": "engine", "metric": "engine.steps", "moves": "wall_s",
     "on": ["compare"],
     "note": "hardly at all on digit_stream; the *_err_pct metrics no worse"},
    {"layer": "engine", "metric": "engine.to_csv_s", "moves": "wall_s",
     "on": ["compare"], "note": "once the solve shrinks"},
    {"layer": "devices", "metric": "devices.fet_eval_calls", "moves": "wall_s",
     "on": ["compare", "sweep_load", "digit_stream"],
     "note": "0 once FET evaluation is vectorized: a call that moved"},
    {"layer": "devices", "metric": "devices.cap_companion_calls", "moves": "wall_s",
     "on": ["compare", "sweep_load", "digit_stream"], "note": ""},
    {"layer": "cells", "metric": "cells.build_s", "moves": "wall_s",
     "on": ["sweep_load"], "note": ""},
    {"layer": "netlist", "metric": "netlist.parse_s", "moves": "wall_s",
     "on": ["digit_stream"], "note": ""},
    {"layer": "mvl", "metric": "mvl.quantize_s", "moves": "wall_s",
     "on": ["sweep_load"], "note": ""},
    {"layer": "measure", "metric": "measure.s", "moves": "wall_s",
     "on": ["sweep_load"], "note": "the *_err_pct metrics are computed here too"},
    {"layer": "cli", "metric": "cli.self_s", "moves": "wall_s and setup_s",
     "on": ["compare", "sweep_load", "digit_stream"], "note": ""},
    {"layer": "trace", "metric": "trace.overhead_s", "moves": "nothing",
     "on": [], "note": "should stay small"},
]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    import numpy as np
    doc = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
           "run_seconds": bench["run_seconds"], "runs": RUNS,
           "traced_runs": TRACED_RUNS, "layer_map": LAYER_MAP,
           "workloads": {}}
    ok = True
    for wl in WORKLOADS:
        entry = {}
        for trace, count in ((0, RUNS), (1, TRACED_RUNS)):
            samples: dict[str, list[float]] = {}
            for i in range(count):
                res = one_run(wl, 1 + i, bench["run_seconds"], trace)
                ok &= res["correct"] and res["failed"] == 0
                for name, m in res["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
            entry["per_layer" if trace else "end_to_end"] = {
                name: summarize(vals) for name, vals in samples.items()}
        doc["workloads"][wl] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{wl:13s} {name:24s} n={s['n']:2d} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound/3={bounds[name] / 3:.4f}",
                  flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

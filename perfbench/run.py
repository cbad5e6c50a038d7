"""The mvlsim benchmark: time CLI workloads, check their outputs, score
their figures of merit against a fine-step reference.

    python3 perfbench/run.py --workload compare|sweep_load|digit_stream|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each timed repetition runs one ``mvlsim`` CLI call in a fresh interpreter
with BLAS pinned to one thread; repetitions and workloads run one after
another.  A workload repeats until ``--seconds`` have passed, and at least
twice, so that the artifacts of two runs can be compared byte for byte.
With ``--trace 1`` one more repetition runs with spans around the calls
between the package's modules and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count circuits.
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import (BENCH, CARDS, FIGURES, REPORT_FIELD, SRC, import_mvlsim,
                    reference_figures)

WORKLOADS = ("compare", "sweep_load", "digit_stream")
SWEEP_ARGS = ["sweep", "--param", "load", "--start", "1e-15",
              "--stop", "5e-15", "--count", "5"]
SWEEP_CSV = "sweep_load.csv"
SETUP_SAMPLES = 9
NUMPY_REF_S = 0.15  # seconds a fresh interpreter takes to import numpy
MIN_REPS = 2
REPORT_KEYS = ("max_power", "avg_power", "rise_time", "fall_time",
               "prop_delay", "pdp", "edp")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed string hash layout, so the dict and set layouts, and the
    # speed that follows from them, are the same in every run
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env) -> list[float]:
    """Seconds from spawning a fresh interpreter until mvlsim is imported,
    at a reference machine speed, SETUP_SAMPLES times.

    Each sample pairs the import of mvlsim with the import of numpy alone
    in another fresh interpreter, started just before it, and scales
    NUMPY_REF_S by the ratio of the two.  One untimed pair fills the
    bytecode cache first."""
    def spawn(module: str) -> float:
        code = f"import time, {module}; print(time.perf_counter())"
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return float(proc.stdout) - t0

    out = []
    for i in range(SETUP_SAMPLES + 1):
        ref = spawn("numpy")
        own = spawn("mvlsim")
        if i:
            out.append(own / ref * NUMPY_REF_S)
    return out


class Workload:
    """One workload: its CLI arguments, its circuits and their checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.digits: list[int] = []
        if name == "compare":
            self.args, self.circuits = ["compare"], 2
        elif name == "sweep_load":
            self.args, self.circuits = list(SWEEP_ARGS), 5
        else:
            import digit_stream
            text, self.digits = digit_stream.netlist_text(seed)
            path = work / "digit_stream.sp"
            path.write_text(text)
            self.args, self.circuits = ["run", str(path)], 1

    def check(self, out: Path) -> int:
        """Circuits of one repetition that fail a check."""
        if self.name == "compare":
            return check_compare(out)
        if self.name == "sweep_load":
            rows = sweep_rows(out / SWEEP_CSV)
            return sum(not sweep_ok(rows.get(i, {}))
                       for i in range(self.circuits))
        return int(not self.stream_ok(out))

    def stream_ok(self, out: Path) -> bool:
        import numpy as np
        from digit_stream import VDD, sample_times
        from mvlsim import Digit, LevelMap, Waveform, ideal_decode, quantize
        doc = json.loads((out / "digit_stream.json").read_text())
        if not (all(map(finite, doc["measures"].values()))
                and report_ok(doc["report"])):
            return False
        with open(out / "digit_stream.csv") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        times = data[:, header.index("time")]
        bits = LevelMap(2, VDD)
        at = sample_times(len(self.digits))
        observed = list(zip(
            quantize(Waveform(times, data[:, header.index("b1")]), bits, at),
            quantize(Waveform(times, data[:, header.index("b0")]), bits, at)))
        return observed == [ideal_decode(Digit(d, 4)) for d in self.digits]

    def figures(self, out: Path, probe: Path | None) -> dict[str, dict]:
        """rise/fall/delay/pdp per card for the accuracy metrics, from
        compare.json: the workload's own on ``compare``, else the probe's."""
        doc = json.loads(((probe or out) / "compare.json").read_text())
        return {card: {f: run["report"][REPORT_FIELD[f]] for f in FIGURES}
                for card, run in doc["runs"].items()}


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def report_ok(report) -> bool:
    return report is not None and all(finite(report.get(k)) for k in REPORT_KEYS)


def decoder_ok(run: dict) -> bool:
    """Every decoded digit matches ideal_decode and every figure is finite."""
    from mvlsim import Digit, ideal_decode
    ideal = [list(ideal_decode(Digit(x, 4))) for x in range(4)]
    return (run["observed"] == ideal and run["expected"] == ideal
            and run["logic_ok"] is True and report_ok(run["report"]))


def check_compare(out: Path) -> int:
    doc = json.loads((out / "compare.json").read_text())
    improvements = doc["improvements_pct"] or {}
    if len(improvements) != 4 or not all(map(finite, improvements.values())):
        return len(CARDS)
    return sum(not decoder_ok(doc["runs"][card]) for card in CARDS)


def sweep_rows(path: Path) -> dict[int, dict[str, float]]:
    rows: dict[int, dict[str, float]] = {}
    with open(path) as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(int(rec["run"]), {})[rec["metric"]] = float(rec["value"])
    return rows


def sweep_ok(row: dict[str, float]) -> bool:
    return row.get("logic_ok") == 1.0 and all(finite(row.get(k)) for k in REPORT_KEYS)


def digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_worker(args: list[str], out: Path, env, spans: Path | None = None):
    """One CLI call in a fresh interpreter; its result dict, or None if the
    worker itself failed."""
    out.mkdir(parents=True)
    result = out.parent / f"{out.name}.result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--"] + args + ["--out", str(out)]
    with open(out.parent / f"{out.name}.stdout", "w") as log:
        proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, workload: Workload, out: Path, res, ref_digest=None,
            circuits: int | None = None, check=None) -> None:
        n = workload.circuits if circuits is None else circuits
        self.attempted += n
        if res is None or res["exit"] != 0:
            self.failed += n
            return
        if ref_digest is not None and digest(out) != ref_digest:
            self.failed += n
            return
        try:
            self.failed += (check or workload.check)(out)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            print(f"check failed in {out}: {exc!r}", file=sys.stderr)
            self.failed += n


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work = BENCH / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = setup_seconds(env)
    wl = Workload(name, seed, work)
    tally = Tally()
    results = []
    first = None
    start = perf_counter()
    while len(results) < MIN_REPS or perf_counter() - start < seconds:
        out = work / f"rep{len(results)}"
        res = run_worker(wl.args, out, env)
        tally.add(wl, out, res, ref_digest=first)
        if first is None:
            first = digest(out)
        results.append(res)
    ok = [r for r in results if r is not None]
    metrics: dict[str, float] = {}
    if trace:
        spans_file = work / "spans.json"
        out = work / "traced"
        res = run_worker(wl.args, out, env, spans=spans_file)
        tally.add(wl, out, res, ref_digest=first)
        if res is not None:
            import tracing
            traced = json.loads(spans_file.read_text())
            metrics = tracing.layer_metrics(
                traced["spans"], traced["totals"], CARDS, traced["scale"],
                traced["aggregated_cost_s"])
    else:
        probe_dir = None
        if name != "compare":
            # an untimed, checked compare run supplies the staircase figures
            probe_dir = work / "probe"
            res = run_worker(["compare"], probe_dir, env)
            tally.add(wl, probe_dir, res, circuits=len(CARDS), check=check_compare)
        metrics["wall_s"] = statistics.median(r["norm_s"] for r in ok) if ok else math.nan
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in ok)
                                  if ok else math.nan)
        metrics["pass_frac"] = 1.0 - tally.failed / tally.attempted
        try:
            figs = wl.figures(work / "rep0", probe_dir)
            ref = reference_figures()
            for card in CARDS:
                for fig in FIGURES:
                    metrics[f"{fig}_err_pct.{card}"] = (
                        abs(figs[card][fig] - ref[card][fig]) / ref[card][fig] * 100.0)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            print(f"accuracy scoring failed: {exc!r}", file=sys.stderr)
            tally.failed = tally.attempted
    return {"metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed, "reps": len(results),
            "raw_wall_s": [round(r["wall_s"], 3) for r in ok]}


def table(name: str, result: dict, units: dict[str, str]) -> str:
    lines = [f"{name}: {result['reps']} timed runs, "
             f"{result['failed']}/{result['attempted']} circuits failed, "
             f"raw main() seconds {result['raw_wall_s']}"]
    for key, val in result["metrics"].items():
        lines.append(f"  {key:32s} {val:14.6g} {units.get(key, '')}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description="mvlsim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="digit_stream seed (default digit_stream.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_mvlsim()
    import digit_stream
    seed = digit_stream.DEFAULT_SEED if args.seed is None else args.seed
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, seed, args.seconds, bool(args.trace))
        missing = set(units) - set(result["metrics"])
        if missing:
            print(f"{name}: no value for {sorted(missing)}", file=sys.stderr)
            result["failed"] = result["attempted"]
        print(table(name, result, units), flush=True)
        prefix = f"{name}." if args.workload == "all" else ""
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key in units:
            val = result["metrics"].get(key, math.nan)
            merged["metrics"][prefix + key] = {
                "value": val if math.isfinite(val) else None, "unit": units[key]}
    merged["correct"] = merged["failed"] == 0 and all(
        m["value"] is not None for m in merged["metrics"].values())
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands:

  run         parse a netlist file, run its analyses, evaluate .measure
              directives, and write waveform/report artifacts
  cell        emit the netlist text of one generated cell
  decoder     build the quaternary decoder testbench for one technology,
              run it, check the sampled digits against the ideal map
  compare     run the decoder under both built-in technologies with an
              identical stimulus and report relative figures of merit
  sweep       repeat the decoder run while stepping one parameter
  dump-models model cards in netlist .model syntax

Exit codes: 0 success, 1 parse or configuration error, 2 solver failure
(no convergence or singular matrix), 3 file I/O error, 4 decoder logic
mismatch.  All file output is byte deterministic for a given input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from .characterize import (
    CELL_NAMES,
    SWEEP_PARAMS,
    DecoderRun,
    RunConfig,
    assemble_report,
    build_cell,
    evaluate_measures,
    improvement_pct,
    resolve_tech,
    run_decoder,
    run_decoders,
    sweep_configs,
)
from .devices import preset_names
from .engine import (
    ConvergenceError,
    RunStats,
    SingularMatrixError,
    WaveformSet,
    dc_operating_point,
    transient,
)
from .measure import report_table
from .netlist import NetlistError, OperatingPoint, Transient, emit, model_line, parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_LOGIC = 4

_FORMATS = ("table", "json", "csv")

# An output is a waveform set (its CSV, streamed by WaveformSet.to_csv), a
# JSON document or text.  A command returns its exit code, the artifacts to
# write under the output directory by file name, and its output per stdout
# format; main writes the one and prints the other.  A command that runs a
# batch of decoders first sets args.runs, a label per member (card or swept
# value), so main's solver-failure line names the failing run.
Output = WaveformSet | dict | str
Result = tuple[int, dict[str, Output], dict[str, Output]]


def _put(output: Output, fh: TextIO) -> None:
    if isinstance(output, WaveformSet):
        output.to_csv(fh)
    elif isinstance(output, dict):
        fh.write(json.dumps(output, indent=2, sort_keys=True) + "\n")
    else:
        fh.write(output)


def _lines(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _solver_dict(stats: RunStats) -> dict[str, int | float]:
    """The deterministic solver counters of one transient."""
    return {
        "steps": stats.steps,
        "rejected_lte": stats.rejected_lte,
        "rejected_newton": stats.rejected_newton,
        "newton_iterations": stats.newton_iterations,
        "kcl_excess_max": float(stats.kcl_excess.max()),
    }


def _sha256(text: str) -> str:
    # imported here: hashlib loads OpenSSL, which only decoder and compare need
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out if args.out is not None else os.environ.get("MVLSIM_OUT") or ".")


# ---------------------------------------------------------------------------
# decoder artifacts shared by decoder / compare


def _run_doc(run: DecoderRun) -> dict:
    return {
        "technology": run.tech.name,
        "logic_ok": run.logic_ok,
        "expected": [list(pair) for pair in run.expected],
        "observed": [list(pair) for pair in run.observed],
        "measures": run.measures,
        "report": None if run.report is None else dataclasses.asdict(run.report),
        "stimulus": run.stimulus,
        "stimulus_sha256": _sha256(run.stimulus),
        "solver": _solver_dict(run.wset.stats),
    }


def _decoder_files(cfg: RunConfig, run: DecoderRun) -> dict[str, Output]:
    """decoder_<tech>.json and decoder_<tech>.csv of one run."""
    stem = f"decoder_{run.tech.name}"
    doc = {"command": "decoder", "config": dataclasses.asdict(cfg), **_run_doc(run)}
    return {f"{stem}.json": doc, f"{stem}.csv": run.wset}


# ---------------------------------------------------------------------------
# subcommand bodies


def _cfg_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig)})


def cmd_run(args: argparse.Namespace) -> Result:
    path = Path(args.netlist)
    net = parse(path.read_text())
    kinds = {type(a) for a in net.analyses}
    wset = transient(net) if Transient in kinds else None
    op: dict[str, float] | None = None
    if OperatingPoint in kinds:
        # a transient starts from the operating point: read it there
        op = (dc_operating_point(net) if wset is None else
              {name: float(w.values[0]) for name, w in wset.voltages.items()})
    results = evaluate_measures(net, wset)
    report = assemble_report(path.stem, net.measures, results)
    doc = {
        "command": "run",
        "netlist": path.name,
        "title": net.title,
        "op": op,
        "measures": results,
        "report": None if report is None else dataclasses.asdict(report),
        "solver": None if wset is None else _solver_dict(wset.stats),
    }
    table = [] if op is None else [f"v({node}) = {op[node]!r}" for node in net.nodes[1:]]
    table += [f"{name} = {results[name]}" for name in sorted(results)]
    if report is not None:
        table.append(report_table([report]))
    files: dict[str, Output] = {f"{path.stem}.json": doc}
    shown: dict[str, Output] = {"table": _lines(table), "json": doc}
    if wset is not None:
        files[f"{path.stem}.csv"] = shown["csv"] = wset
    return EXIT_OK, files, shown


def cmd_cell(args: argparse.Namespace) -> Result:
    cfg = _cfg_from_args(args)
    tech = resolve_tech(cfg.tech)
    text = emit(build_cell(args.cell, cfg, tech))
    return EXIT_OK, {f"{args.cell}_{tech.name}.sp": text}, {"table": text}


def cmd_decoder(args: argparse.Namespace) -> Result:
    cfg = _cfg_from_args(args)
    args.runs = [cfg.tech]
    run = run_decoder(cfg)
    files = _decoder_files(cfg, run)
    table = [f"x={x} expected b1b0={exp[0]}{exp[1]} observed={obs[0]}{obs[1]}"
             for x, (exp, obs) in enumerate(zip(run.expected, run.observed))]
    table.append(f"logic {'ok' if run.logic_ok else 'MISMATCH'}")
    if run.report is not None:
        table.append(report_table([run.report]))
    else:
        table += [f"{name} = {run.measures[name]}" for name in sorted(run.measures)]
    shown = {"table": _lines(table), "json": files[f"decoder_{run.tech.name}.json"],
             "csv": run.wset}
    return EXIT_OK if run.logic_ok else EXIT_LOGIC, files, shown


# compare's improvement lines, in order: each figure and its wording
_IMPROVEMENTS = {"avg_power": "decrease in power", "rise_time": "improvement in rise time",
                 "fall_time": "improvement in fall time", "pdp": "decrease in PDP"}


def cmd_compare(args: argparse.Namespace) -> Result:
    base = _cfg_from_args(args)
    names = ["cmos32", "gnrfet32"]
    cfgs = [dataclasses.replace(base, tech=name) for name in names]
    args.runs = names
    batch = run_decoders(cfgs)
    cm, gn = batch
    improvements: dict[str, float] | None = None
    if cm.report is not None and gn.report is not None:
        improvements = {name: improvement_pct(getattr(cm.report, name),
                                              getattr(gn.report, name))
                        for name in _IMPROVEMENTS}
    doc = {
        "command": "compare",
        "config": dataclasses.asdict(base),
        "runs": {name: _run_doc(run) for name, run in zip(names, batch)},
        "improvements_pct": improvements,
        "stimulus_sha256": _sha256(cm.stimulus),
    }
    files: dict[str, Output] = {}
    for cfg, run in zip(cfgs, batch):
        files.update(_decoder_files(cfg, run))
    files["compare.json"] = doc
    reports = [r.report for r in (cm, gn) if r.report is not None]
    table = [report_table(reports, include_delay=False)] if reports else []
    if improvements is not None:
        table += [f"{improvements[name]:.2f}% {wording}"
                  for name, wording in _IMPROVEMENTS.items()]
    code = EXIT_OK if cm.logic_ok and gn.logic_ok else EXIT_LOGIC
    return code, files, {"table": _lines(table), "json": doc}


def cmd_sweep(args: argparse.Namespace) -> Result:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError("start and stop must be finite")
    values = [float(v) for v in np.linspace(args.start, args.stop, args.count)]
    cfgs, techs = sweep_configs(_cfg_from_args(args), args.param, values)
    args.runs = [f"{args.param}={value!r}" for value in values]
    batch = run_decoders(cfgs, techs)
    lines = [f"{args.param},run,metric,value"]
    for idx, (value, run) in enumerate(zip(values, batch)):
        rows = [("logic_ok", 1.0 if run.logic_ok else 0.0)]
        rows += [(name, run.measures[name]) for name in sorted(run.measures)
                 if run.measures[name] is not None]
        if run.report is not None:
            rows += [(f.name, getattr(run.report, f.name))
                     for f in dataclasses.fields(run.report)[1:]]  # the figures
        lines += [f"{value!r},{idx},{metric},{val!r}" for metric, val in rows]
    # the long-format CSV is the table too
    text = _lines(lines)
    return EXIT_OK, {f"sweep_{args.param}.csv": text}, {"table": text, "csv": text}


def cmd_dump_models(args: argparse.Namespace) -> Result:
    names = [args.tech] if args.tech else list(preset_names())
    lines = []
    for name in names:
        tech = resolve_tech(name)
        lines += [f"* {tech.name}: {tech.note}" if tech.note else f"* {tech.name}",
                  model_line("nfet", tech.nfet), model_line("pfet", tech.pfet)]
    return EXIT_OK, {}, {"table": _lines(lines)}


def _solver_failure(exc: ConvergenceError | SingularMatrixError,
                    runs: list[str] | None) -> int:
    """Print a solver error and its fields; a command that runs a batch of
    decoders names the failing one from its runs, a label per member."""
    print(f"error: {exc}", file=sys.stderr)
    fields = ["t dc" if exc.t is None else f"t {exc.t!r} s"]
    if isinstance(exc, SingularMatrixError):
        fields.append(f"unknowns {', '.join(exc.unknowns)}")
    else:
        fields.append(f"test {exc.test}")
        if exc.unknown is not None:
            fields += [f"unknown {exc.unknown!r}", f"dx {exc.dx!r}"]
        fields += [f"node {exc.node!r}", f"KCL excess {exc.excess!r} A",
                   f"iteration {exc.iteration}"]
    where = "" if runs is None else f"run {runs[exc.member]}: "
    print(f"error: {where}{', '.join(fields)}", file=sys.stderr)
    return EXIT_SOLVER


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...],
                with_tech: bool = True) -> None:
    default = RunConfig()
    if with_tech:
        p.add_argument("--tech", default=default.tech,
                       help=f"preset name or .model file (default {default.tech})")
    p.add_argument("--vdd", type=float, default=default.vdd, help="supply voltage")
    p.add_argument("--hold", type=float, default=default.hold,
                   help="time spent at each input level")
    p.add_argument("--slew", type=float, default=default.slew,
                   help="input ramp time between levels")
    p.add_argument("--load", type=float, default=default.load,
                   help="output load capacitance")
    p.add_argument("--dt", type=float, default=default.dt,
                   help="override the .tran dt, the finest transient step")
    _add_out(p, formats)


def _add_out(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """--out, and --format with the formats the command prints."""
    p.add_argument("--out", default=None,
                   help="output directory (default $MVLSIM_OUT or .)")
    p.add_argument("--format", action="append", choices=formats, default=None,
                   help="stdout format, repeatable (default table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlsim",
        description="voltage-mode multi-valued-logic circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a netlist file")
    p_run.add_argument("netlist", help="path to a netlist file")
    _add_out(p_run, _FORMATS)
    p_run.set_defaults(func=cmd_run)

    p_cel = sub.add_parser("cell", help="emit a generated cell netlist")
    p_cel.add_argument("cell", choices=CELL_NAMES)
    _add_common(p_cel, ("table",))
    p_cel.set_defaults(func=cmd_cell)

    p_dec = sub.add_parser("decoder", help="run the quaternary decoder")
    _add_common(p_dec, _FORMATS)
    p_dec.set_defaults(func=cmd_decoder)

    p_cmp = sub.add_parser("compare",
                           help="decoder under cmos32 and gnrfet32")
    _add_common(p_cmp, ("table", "json"), with_tech=False)
    p_cmp.set_defaults(func=cmd_compare, tech=RunConfig().tech)

    p_swp = sub.add_parser("sweep", help="step one decoder parameter")
    p_swp.add_argument("--param", required=True,
                       help=f"one of: {', '.join(SWEEP_PARAMS)}")
    p_swp.add_argument("--start", type=float, required=True)
    p_swp.add_argument("--stop", type=float, required=True)
    p_swp.add_argument("--count", type=int, required=True)
    _add_common(p_swp, ("table", "csv"))
    p_swp.set_defaults(func=cmd_sweep)

    p_dmp = sub.add_parser("dump-models", help="print model cards")
    p_dmp.add_argument("--tech", default=None)
    p_dmp.set_defaults(func=cmd_dump_models)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into our exit-1 class
        # so 2 stays reserved for solver failures.
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    formats = getattr(args, "format", None) or ("table",)
    try:
        code, files, shown = args.func(args)
        # refused before anything is written
        missing = [f for f in formats if f not in shown]
        if missing:
            print(f"error: {args.command} has no {', '.join(missing)} output "
                  "for this input", file=sys.stderr)
            return EXIT_USAGE
        for name, output in files.items():
            path = _out_dir(args) / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as fh:
                _put(output, fh)
        # in the order table, json, csv; one output shown twice (sweep's
        # table is its CSV) prints once
        printed = {id(shown[f]): shown[f] for f in _FORMATS if f in formats and f in shown}
        for output in printed.values():
            _put(output, sys.stdout)
        return code
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, SingularMatrixError) as exc:
        return _solver_failure(exc, getattr(args, "runs", None))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

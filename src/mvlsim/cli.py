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
import hashlib
import json
import os
import sys
from pathlib import Path

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
from .measure import MeasureReport, report_table
from .netlist import NetlistError, OperatingPoint, emit, model_line, parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_LOGIC = 4

_FORMATS = ("table", "json", "csv")


def _report_dict(report: MeasureReport | None) -> dict[str, float | str] | None:
    if report is None:
        return None
    return dataclasses.asdict(report)


def _solver_dict(stats: RunStats) -> dict[str, int | float]:
    """The deterministic solver counters of one transient."""
    return {
        "steps": stats.steps,
        "rejected_lte": stats.rejected_lte,
        "rejected_newton": stats.rejected_newton,
        "newton_iterations": stats.newton_iterations,
        "kcl_excess_max": float(stats.kcl_excess.max()),
    }


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("MVLSIM_OUT")
    if env:
        return Path(env)
    return Path(".")


# ---------------------------------------------------------------------------
# decoder artifacts shared by decoder / compare / sweep


def _run_doc(run: DecoderRun) -> dict:
    return {
        "technology": run.tech.name,
        "logic_ok": run.logic_ok,
        "expected": [list(pair) for pair in run.expected],
        "observed": [list(pair) for pair in run.observed],
        "measures": run.measures,
        "report": _report_dict(run.report),
        "stimulus": run.stimulus,
        "stimulus_sha256": hashlib.sha256(run.stimulus.encode()).hexdigest(),
        "solver": _solver_dict(run.wset.stats),
    }


def _write_decoder_artifacts(outdir: Path, cfg: RunConfig, run: DecoderRun) -> None:
    doc = {"command": "decoder", "config": dataclasses.asdict(cfg)}
    doc.update(_run_doc(run))
    _write_text(outdir / f"decoder_{run.tech.name}.json", _json_text(doc))
    _write_text(outdir / f"decoder_{run.tech.name}.csv", run.wset.to_csv())


def _print_decoder(run: DecoderRun, formats: tuple[str, ...]) -> None:
    if "table" in formats:
        for x, (exp, obs) in enumerate(zip(run.expected, run.observed)):
            print(f"x={x} expected b1b0={exp[0]}{exp[1]} observed={obs[0]}{obs[1]}")
        print(f"logic {'ok' if run.logic_ok else 'MISMATCH'}")
        if run.report is not None:
            print(report_table([run.report]))
        else:
            for name in sorted(run.measures):
                print(f"{name} = {run.measures[name]}")
    if "json" in formats:
        doc = {"command": "decoder"}
        doc.update(_run_doc(run))
        sys.stdout.write(_json_text(doc))
    if "csv" in formats:
        sys.stdout.write(run.wset.to_csv())


# ---------------------------------------------------------------------------
# subcommand bodies


def _cfg_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig)})


def cmd_run(args: argparse.Namespace) -> int:
    text = Path(args.netlist).read_text()
    net = parse(text)
    outdir = _out_dir(args)
    op: dict[str, float] | None = None
    wset: WaveformSet | None = None
    for analysis in net.analyses:
        if isinstance(analysis, OperatingPoint):
            op = dc_operating_point(net)
        else:
            wset = transient(net, analysis)
    results: dict[str, float | None] = {}
    report = None
    if wset is not None:
        results = evaluate_measures(net, wset)
        report = assemble_report(Path(args.netlist).stem, net.measures, results)
    doc = {
        "command": "run",
        "netlist": Path(args.netlist).name,
        "title": net.title,
        "op": op,
        "measures": results,
        "report": _report_dict(report),
        "solver": None if wset is None else _solver_dict(wset.stats),
    }
    stem = Path(args.netlist).stem
    _write_text(outdir / f"{stem}.json", _json_text(doc))
    if wset is not None:
        _write_text(outdir / f"{stem}.csv", wset.to_csv())
    if "table" in args.format:
        if op is not None:
            for node in net.nodes:
                if node != "0":
                    print(f"v({node}) = {op[node]!r}")
        for name in sorted(results):
            print(f"{name} = {results[name]}")
        if report is not None:
            print(report_table([report]))
    if "json" in args.format:
        sys.stdout.write(_json_text(doc))
    if "csv" in args.format and wset is not None:
        sys.stdout.write(wset.to_csv())
    return EXIT_OK


def cmd_cell(args: argparse.Namespace) -> int:
    cfg = _cfg_from_args(args)
    tech = resolve_tech(cfg.tech)
    text = emit(build_cell(args.cell, cfg, tech))
    _write_text(_out_dir(args) / f"{args.cell}_{tech.name}.sp", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_decoder(args: argparse.Namespace) -> int:
    cfg = _cfg_from_args(args)
    run = run_decoder(cfg)
    _write_decoder_artifacts(_out_dir(args), cfg, run)
    _print_decoder(run, tuple(args.format))
    return EXIT_OK if run.logic_ok else EXIT_LOGIC


def cmd_compare(args: argparse.Namespace) -> int:
    base = _cfg_from_args(args)
    outdir = _out_dir(args)
    names = ("cmos32", "gnrfet32")
    cfgs = [dataclasses.replace(base, tech=name) for name in names]
    try:
        batch = run_decoders(cfgs)
    except (ConvergenceError, SingularMatrixError) as exc:
        return _solver_failure(exc, names[exc.member])
    runs = dict(zip(names, batch))
    for cfg, run in zip(cfgs, batch):
        _write_decoder_artifacts(outdir, cfg, run)
    cm, gn = runs["cmos32"], runs["gnrfet32"]
    if cm.stimulus != gn.stimulus:
        raise ValueError("stimulus mismatch between technology runs")
    improvements: dict[str, float] | None = None
    if cm.report is not None and gn.report is not None:
        improvements = {
            "avg_power": improvement_pct(cm.report.avg_power, gn.report.avg_power),
            "rise_time": improvement_pct(cm.report.rise_time, gn.report.rise_time),
            "fall_time": improvement_pct(cm.report.fall_time, gn.report.fall_time),
            "pdp": improvement_pct(cm.report.pdp, gn.report.pdp),
        }
    doc = {
        "command": "compare",
        "config": dataclasses.asdict(base),
        "runs": {name: _run_doc(runs[name]) for name in runs},
        "improvements_pct": improvements,
        "stimulus_sha256": hashlib.sha256(cm.stimulus.encode()).hexdigest(),
    }
    _write_text(outdir / "compare.json", _json_text(doc))
    if "table" in args.format:
        reports = [r.report for r in (cm, gn) if r.report is not None]
        if reports:
            print(report_table(reports, include_delay=False))
        if improvements is not None:
            print(f"{improvements['avg_power']:.2f}% decrease in power")
            print(f"{improvements['rise_time']:.2f}% improvement in rise time")
            print(f"{improvements['fall_time']:.2f}% improvement in fall time")
            print(f"{improvements['pdp']:.2f}% decrease in PDP")
    if "json" in args.format:
        sys.stdout.write(_json_text(doc))
    if not (cm.logic_ok and gn.logic_ok):
        return EXIT_LOGIC
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    values = [float(v) for v in np.linspace(args.start, args.stop, args.count)]
    cfgs, techs = sweep_configs(_cfg_from_args(args), args.param, values)
    try:
        batch = run_decoders(cfgs, techs)
    except (ConvergenceError, SingularMatrixError) as exc:
        return _solver_failure(exc, f"{args.param}={values[exc.member]!r}")
    rows: list[tuple[float, int, str, float]] = []
    for idx, (value, run) in enumerate(zip(values, batch)):
        rows.append((value, idx, "logic_ok", 1.0 if run.logic_ok else 0.0))
        for name in sorted(run.measures):
            val = run.measures[name]
            if val is not None:
                rows.append((value, idx, name, val))
        if run.report is not None:
            for field in ("max_power", "avg_power", "rise_time",
                          "fall_time", "prop_delay", "pdp", "edp"):
                rows.append((value, idx, field, getattr(run.report, field)))
    lines = [f"{args.param},run,metric,value"]
    for value, idx, metric, val in rows:
        lines.append(f"{value!r},{idx},{metric},{val!r}")
    text = "\n".join(lines) + "\n"
    _write_text(_out_dir(args) / f"sweep_{args.param}.csv", text)
    if "csv" in args.format or "table" in args.format:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dump_models(args: argparse.Namespace) -> int:
    names = [args.tech] if args.tech else list(preset_names())
    for name in names:
        tech = resolve_tech(name)
        print(f"* {tech.name}: {tech.note}" if tech.note else f"* {tech.name}")
        print(model_line("nfet", tech.nfet))
        print(model_line("pfet", tech.pfet))
    return EXIT_OK


def _solver_failure(exc: ConvergenceError | SingularMatrixError,
                    run: str | None = None) -> int:
    """Print a solver error and its fields, naming the failing run if known."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, SingularMatrixError):
        fields = [f"pivot {exc.pivot}"]
    else:
        fields = ["t dc" if exc.t is None else f"t {exc.t!r} s",
                  f"node {exc.node!r}", f"KCL excess {exc.excess!r} A",
                  f"iteration {exc.iteration}"]
    where = "" if run is None else f"run {run}: "
    print(f"error: {where}{', '.join(fields)}", file=sys.stderr)
    return EXIT_SOLVER


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, with_tech: bool = True) -> None:
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
    _add_out(p)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory (default $MVLSIM_OUT or .)")
    p.add_argument("--format", action="append", choices=_FORMATS, default=None,
                   help="stdout format, repeatable (default table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlsim",
        description="voltage-mode multi-valued-logic circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a netlist file")
    p_run.add_argument("netlist", help="path to a netlist file")
    _add_out(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cel = sub.add_parser("cell", help="emit a generated cell netlist")
    p_cel.add_argument("cell", choices=CELL_NAMES)
    _add_common(p_cel)
    p_cel.set_defaults(func=cmd_cell)

    p_dec = sub.add_parser("decoder", help="run the quaternary decoder")
    _add_common(p_dec)
    p_dec.set_defaults(func=cmd_decoder)

    p_cmp = sub.add_parser("compare",
                           help="decoder under cmos32 and gnrfet32")
    _add_common(p_cmp, with_tech=False)
    p_cmp.set_defaults(func=cmd_compare, tech=RunConfig().tech)

    p_swp = sub.add_parser("sweep", help="step one decoder parameter")
    p_swp.add_argument("--param", required=True,
                       help=f"one of: {', '.join(SWEEP_PARAMS)}")
    p_swp.add_argument("--start", type=float, required=True)
    p_swp.add_argument("--stop", type=float, required=True)
    p_swp.add_argument("--count", type=int, required=True)
    _add_common(p_swp)
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
    if getattr(args, "format", None) is not None:
        args.format = tuple(dict.fromkeys(args.format))
    elif hasattr(args, "format"):
        args.format = ("table",)
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, SingularMatrixError) as exc:
        return _solver_failure(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Decoder characterization: run configs, batched decoder runs, measures.

The library behind the ``decoder``, ``compare`` and ``sweep`` commands.  A
``RunConfig`` names a technology card and the staircase testbench's
settings; ``run_decoders`` builds one testbench per config, simulates them
as one batch (``engine.transient_batch``), checks the sampled output digits
against the ideal decoder and evaluates the testbench's ``.measure``
directives into a ``MeasureReport`` of worst-case figures of merit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cells import (
    CellSpec,
    build_decoder,
    build_inverter,
    build_staircase_testbench,
    build_vlc,
    build_xor2,
    staircase_sample_times,
)
from .devices import TechnologyCard, preset, preset_names
from .engine import WaveformSet, transient_batch
from .measure import (
    MeasureError,
    MeasureReport,
    Waveform,
    fall_time,
    prop_delay,
    rise_time,
    supply_power,
)
from .mvl import Digit, LevelMap, ideal_decode, quantize
from .netlist import MeasureDirective, Netlist, device_line, parse

CELL_NAMES = ("vlc1", "vlc2", "vlc3", "inverter", "xor2", "decoder",
              "testbench")

SWEEP_PARAMS = ("vdd", "load", "hold", "vth_scale")


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the decoder-style subcommands."""

    tech: str = "cmos32"
    vdd: float = 1.2
    hold: float = 5e-9
    slew: float = 1e-10
    load: float = 1e-15
    dt: float | None = None

    def __post_init__(self) -> None:
        for name in ("vdd", "hold", "slew", "load", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if self.slew <= 0.0 or self.hold <= self.slew:
            raise ValueError("need hold > slew > 0")
        if self.load < 0.0:
            raise ValueError("load must be >= 0")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")


def resolve_tech(name: str) -> TechnologyCard:
    """A built-in preset name, or a path to a file of two .model lines."""
    if name in preset_names():
        return preset(name)
    path = Path(name)
    if not path.is_file():
        raise ValueError(
            f"unknown technology {name!r}: not a preset "
            f"({', '.join(preset_names())}) and not a file"
        )
    net = parse(path.read_text())
    nfets = [c for c in net.models.values() if c.polarity == "n"]
    pfets = [c for c in net.models.values() if c.polarity == "p"]
    if len(nfets) != 1 or len(pfets) != 1:
        raise ValueError(
            f"technology file {name!r} must define exactly one NFET "
            f"and one PFET model"
        )
    return TechnologyCard(name=path.stem, nfet=nfets[0], pfet=pfets[0])


def build_cell(name: str, cfg: RunConfig, tech: TechnologyCard) -> Netlist:
    """One generated cell by CLI name, with cfg's supply and load and, for
    the testbench, its hold, slew and dt; vlc indices are 1-based here."""
    spec = CellSpec(tech=tech, levels=LevelMap(4, cfg.vdd), load=cfg.load)
    if name.startswith("vlc"):
        return build_vlc(int(name[3:]) - 1, spec)
    if name == "inverter":
        return build_inverter(spec)
    if name == "xor2":
        return build_xor2(spec)
    if name == "decoder":
        return build_decoder(spec)
    if name == "testbench":
        return build_staircase_testbench(spec, hold=cfg.hold, slew=cfg.slew, dt=cfg.dt)
    raise ValueError(f"unknown cell {name!r}; one of: {', '.join(CELL_NAMES)}")


# ---------------------------------------------------------------------------
# .measure evaluation


def _node_waveform(wset: WaveformSet, node: str) -> Waveform:
    if node == "0":
        return Waveform(wset.times, np.zeros_like(wset.times))
    return wset.voltage(node)


def evaluate_measures(net: Netlist, wset: WaveformSet | None) -> dict[str, float | None]:
    """Evaluate every .measure directive on wset; unmeasurable ones, and all
    of them without a waveform (wset None), map to None."""
    out: dict[str, float | None] = {}
    for m in net.measures:
        try:
            out[m.name] = None if wset is None else _evaluate_one(net, wset, m)
        except MeasureError:
            out[m.name] = None
    return out


def _evaluate_one(net: Netlist, wset: WaveformSet, m: MeasureDirective) -> float:
    if m.kind in ("rise", "fall"):
        wf = _node_waveform(wset, m.targets[0])
        lo = float(np.min(wf.values))
        hi = float(np.max(wf.values))
        if hi <= lo:
            raise MeasureError(f"{m.name}: waveform has no swing")
        if m.kind == "rise":
            return rise_time(wf, lo, hi)
        return fall_time(wf, lo, hi)
    if m.kind == "delay":
        win = _node_waveform(wset, m.targets[0])
        wout = _node_waveform(wset, m.targets[1])
        mid_in = 0.5 * (float(np.min(win.values)) + float(np.max(win.values)))
        mid_out = 0.5 * (float(np.min(wout.values)) + float(np.max(wout.values)))
        return prop_delay(win, wout, mid_in, mid_out)
    # avgpower / peakpower measure the power delivered by a voltage source
    src = net.device(m.targets[0])
    v_wf = Waveform(
        wset.times,
        _node_waveform(wset, src.terminals[0]).values
        - _node_waveform(wset, src.terminals[1]).values,
    )
    i_wf = wset.current(src.name)
    avg, peak = supply_power(v_wf, i_wf)
    return avg if m.kind == "avgpower" else peak


# the MeasureReport field that the worst case of each .measure kind fills
_REPORT_FIELDS = {"peakpower": "max_power", "avgpower": "avg_power",
                  "rise": "rise_time", "fall": "fall_time", "delay": "prop_delay"}


def assemble_report(
    label: str,
    directives: tuple[MeasureDirective, ...],
    results: dict[str, float | None],
) -> MeasureReport | None:
    """Worst case per measure kind; None unless every kind is represented."""
    worst: dict[str, float] = {}
    for m in directives:
        val = results.get(m.name)
        if val is None:
            continue
        if m.kind not in worst or val > worst[m.kind]:
            worst[m.kind] = val
    if any(kind not in worst for kind in _REPORT_FIELDS):
        return None
    return MeasureReport(label, **{name: worst[kind]
                                   for kind, name in _REPORT_FIELDS.items()})


def improvement_pct(reference: float, other: float) -> float:
    """Reduction of ``other`` relative to ``reference``, in percent."""
    if reference == 0.0:
        raise ValueError("reference figure is zero")
    return (reference - other) / reference * 100.0


# ---------------------------------------------------------------------------
# decoder staircase runs


@dataclass
class DecoderRun:
    tech: TechnologyCard
    net: Netlist
    wset: WaveformSet
    observed: list[tuple[int | None, int | None]]
    expected: list[tuple[int, int]]
    logic_ok: bool
    measures: dict[str, float | None]
    report: MeasureReport | None
    stimulus: str


def run_decoders(cfgs: list[RunConfig],
                 techs: list[TechnologyCard] | None = None) -> list[DecoderRun]:
    """Decoder staircase runs of several configs, simulated as one batch.

    techs, if given, replaces the cards the cfgs name.  A solver error
    names the failing run by its index in ``member``.
    """
    techs = techs or [resolve_tech(cfg.tech) for cfg in cfgs]
    nets = [build_cell("testbench", cfg, tech)
            for cfg, tech in zip(cfgs, techs, strict=True)]
    wsets = transient_batch(nets)
    return [_decoder_run(*args) for args in zip(cfgs, techs, nets, wsets)]


def run_decoder(cfg: RunConfig, tech: TechnologyCard | None = None) -> DecoderRun:
    return run_decoders([cfg], None if tech is None else [tech])[0]


def _decoder_run(cfg: RunConfig, tech: TechnologyCard, net: Netlist,
                 wset: WaveformSet) -> DecoderRun:
    levels = LevelMap(4, cfg.vdd)
    sample_times = staircase_sample_times(levels, hold=cfg.hold, slew=cfg.slew)
    bits = LevelMap(2, cfg.vdd)
    b1 = quantize(wset.voltage("b1"), bits, sample_times)
    b0 = quantize(wset.voltage("b0"), bits, sample_times)
    observed = list(zip(b1, b0))
    expected = [ideal_decode(Digit(x, 4)) for x in range(4)]
    logic_ok = observed == expected
    results = evaluate_measures(net, wset)
    report = assemble_report(tech.name, net.measures, results)
    return DecoderRun(
        tech=tech,
        net=net,
        wset=wset,
        observed=observed,
        expected=expected,
        logic_ok=logic_ok,
        measures=results,
        report=report,
        stimulus=device_line(net.device("vin")),
    )


def sweep_configs(base: RunConfig, param: str, values: list[float]
                  ) -> tuple[list[RunConfig], list[TechnologyCard]]:
    """The configs and cards of a sweep of ``param`` over ``values``, for
    run_decoders.  vth_scale scales both cards' thresholds."""
    if param not in SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}; "
            f"choose from {', '.join(SWEEP_PARAMS)}"
        )
    tech = resolve_tech(base.tech)
    if param != "vth_scale":
        return ([dataclasses.replace(base, **{param: value}) for value in values],
                [tech] * len(values))
    cards = [
        TechnologyCard(
            name=tech.name,
            nfet=dataclasses.replace(tech.nfet, vth=tech.nfet.vth * value),
            pfet=dataclasses.replace(tech.pfet, vth=tech.pfet.vth * value),
            note=tech.note,
        )
        for value in values
    ]
    return [base] * len(values), cards

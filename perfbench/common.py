"""Helpers shared by the benchmark scripts: where the package lives, the
staircase circuits of ``mvlsim compare`` and the reference figures."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
CARDS = ("cmos32", "gnrfet32")
FIGURES = ("rise", "fall", "delay", "pdp")
# report fields behind each figure, as written by compare.json
REPORT_FIELD = {"rise": "rise_time", "fall": "fall_time",
                "delay": "prop_delay", "pdp": "pdp"}
# waveforms the staircase measures read: npz key -> (kind, name)
SIGNALS = {"v_in": ("v", "in"), "v_b0": ("v", "b0"), "v_b1": ("v", "b1"),
           "v_vdd": ("v", "vdd"), "i_vsup": ("i", "vsup")}


def import_mvlsim():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mvlsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no mvlsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mvlsim
    if Path(mvlsim.__file__).resolve().parent != SRC / "mvlsim":
        raise SystemExit(f"error: mvlsim imported from {mvlsim.__file__}")
    return mvlsim


def staircase_net(card: str):
    """The testbench ``mvlsim compare`` builds for ``card`` at its defaults."""
    from mvlsim import CellSpec, LevelMap, RunConfig, resolve_tech
    from mvlsim.cells import build_staircase_testbench
    cfg = RunConfig(tech=card)
    spec = CellSpec(tech=resolve_tech(card), levels=LevelMap(4, cfg.vdd),
                    load=cfg.load)
    return build_staircase_testbench(spec, hold=cfg.hold, slew=cfg.slew)


def figures_of(net, wset) -> dict[str, float]:
    """rise/fall/delay/pdp of one waveform set through the CLI's measure path."""
    from mvlsim.cli import assemble_report, evaluate_measures
    report = assemble_report("ref", net.measures, evaluate_measures(net, wset))
    if report is None:
        raise ValueError("reference waveforms lack a measurable figure")
    return {f: getattr(report, REPORT_FIELD[f]) for f in FIGURES}


def restrict(wset):
    """Arrays of the signals the staircase measures read."""
    out = {"time": wset.times}
    for key, (kind, name) in SIGNALS.items():
        wf = wset.voltage(name) if kind == "v" else wset.current(name)
        out[key] = wf.values
    return out


def load_waveforms(arrays):
    """A WaveformSet holding only the committed reference signals."""
    from mvlsim import RunStats, Waveform, WaveformSet
    t = arrays["time"]
    volts = {name: Waveform(t, arrays[k])
             for k, (kind, name) in SIGNALS.items() if kind == "v"}
    amps = {name: Waveform(t, arrays[k])
            for k, (kind, name) in SIGNALS.items() if kind == "i"}
    return WaveformSet(times=t, voltages=volts, currents=amps, stats=RunStats())


def reference_figures() -> dict[str, dict[str, float]]:
    """Figures of merit of the committed fine-step waveforms, per card."""
    import numpy as np
    out = {}
    for card in CARDS:
        with np.load(REFERENCE / f"{card}.npz") as data:
            arrays = {k: data[k] for k in data.files}
        out[card] = figures_of(staircase_net(card), load_waveforms(arrays))
    return out

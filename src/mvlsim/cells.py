"""Transistor-level cell generators for the quaternary-to-binary decoder.

Every generator returns a validated Netlist that already contains its vdd
supply source; the input node(s) are left undriven so a testbench can
attach a stimulus.

A voltage level converter VLC(i) is a complementary pair whose thresholds
are shifted so the pair inverts "late": the output stays at the top rail
while the input digit is <= i and drops to ground for digits >= i+1.  The
shifts follow a single linear rule in both devices,

    vth_n = (0.2 + 1.0*i) * (vdd / 3)
    vth_p = -(2.2 - 1.0*i) * (vdd / 3)

so one design scales across supply voltages.

The decoder wires VLC(0..2) to input x, inverts each VLC output, takes
b1 directly from the second inverter and b0 = xor(xor(n1, n2), n3) through
two XOR gates.  Each XOR is a static complementary 8-transistor network;
inside the decoder the complement of its second input is already available
as the corresponding VLC output, so only the first input's complement is
generated locally (one inverter per XOR, 10 FETs each, 32 FETs total).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .devices import FetModelCard, TechnologyCard
from .mvl import LevelMap
from .netlist import (DcStimulus, Device, MeasureDirective, Netlist,
                      PwlStimulus, Transient)


@dataclass(frozen=True)
class CellSpec:
    """Shared parameters for cell generation."""

    tech: TechnologyCard
    levels: LevelMap
    load: float = 1e-15  # F on each cell output

    def __post_init__(self):
        if self.load < 0.0:
            raise ValueError("load must be >= 0")


def vlc_thresholds(i: int, levels: LevelMap) -> tuple[float, float]:
    """(vth_n, vth_p) for VLC(i), scaled linearly with vdd."""
    if not 0 <= i <= levels.radix - 2:
        raise ValueError(f"vlc index {i} out of range for radix {levels.radix}")
    scale = levels.vdd / 3.0
    return (0.2 + 1.0 * i) * scale, -(2.2 - 1.0 * i) * scale


def _pair(prefix: str, inp: str, out: str, nmodel: str = "nfet",
          pmodel: str = "pfet") -> list[Device]:
    """A complementary pair: an inverter, or on a VLC's shifted cards a VLC."""
    return [Device(f"{prefix}p", (out, inp, "vdd", "vdd"), 1.0, pmodel),
            Device(f"{prefix}n", (out, inp, "0", "0"), 1.0, nmodel)]


def _xor(tag: str, a: str, a_bar: str, b: str, b_bar: str, out: str) -> list[Device]:
    """The 8-FET XOR network on both inputs and their complements."""
    pu1, pu2, pd1, pd2 = (f"{tag}_{node}" for node in ("pu1", "pu2", "pd1", "pd2"))
    return [
        # pull-up: (a and not b) or (not a and b) conducts to vdd
        Device(f"m{tag}p1", (pu1, a_bar, "vdd", "vdd"), 1.0, "pfet"),
        Device(f"m{tag}p2", (out, b, pu1, "vdd"), 1.0, "pfet"),
        Device(f"m{tag}p3", (pu2, a, "vdd", "vdd"), 1.0, "pfet"),
        Device(f"m{tag}p4", (out, b_bar, pu2, "vdd"), 1.0, "pfet"),
        # pull-down: (a and b) or (not a and not b) conducts to ground
        Device(f"m{tag}n1", (out, a, pd1, "0"), 1.0, "nfet"),
        Device(f"m{tag}n2", (pd1, b, "0", "0"), 1.0, "nfet"),
        Device(f"m{tag}n3", (out, a_bar, pd2, "0"), 1.0, "nfet"),
        Device(f"m{tag}n4", (pd2, b_bar, "0", "0"), 1.0, "nfet"),
    ]


def _vlc_models(i: int, spec: CellSpec, suffix: str = "") -> dict[str, FetModelCard]:
    """VLC(i)'s shifted cards by name, the NFET's first."""
    vth_n, vth_p = vlc_thresholds(i, spec.levels)
    return {f"nvlc{suffix}": replace(spec.tech.nfet, vth=vth_n),
            f"pvlc{suffix}": replace(spec.tech.pfet, vth=vth_p)}


def _cell(title: str, spec: CellSpec, models: dict[str, FetModelCard],
          devices: list[Device], loads: dict[str, str]) -> Netlist:
    """The validated cell: its devices, a spec.load capacitor on each output
    (loads maps capacitor to node) and the vdd supply."""
    devices += [Device(name, (node, "0"), spec.load) for name, node in loads.items()]
    devices.append(Device("vsup", ("vdd", "0"), stimulus=DcStimulus(spec.levels.vdd)))
    net = Netlist(title, devices, models)
    net.validate()
    return net


def build_vlc(i: int, spec: CellSpec) -> Netlist:
    """VLC(i) cell: complementary pair with shifted thresholds, input 'in',
    output 'out' loaded with spec.load."""
    models = _vlc_models(i, spec)
    return _cell(f"vlc{i + 1} cell", spec, models, _pair("mvlc", "in", "out", *models),
                 {"cload": "out"})


def build_inverter(spec: CellSpec) -> Netlist:
    """Minimum complementary inverter, input 'in', loaded output 'out'."""
    return _cell("inverter cell", spec, {"nfet": spec.tech.nfet, "pfet": spec.tech.pfet},
                 _pair("minv", "in", "out"), {"cload": "out"})


def build_xor2(spec: CellSpec) -> Netlist:
    """Static complementary XOR, inputs 'a'/'b', loaded output 'out'.

    Standalone form generates both input complements locally (two internal
    inverters plus the 8-transistor network).
    """
    devices = [*_pair("minva", "a", "a_bar"), *_pair("minvb", "b", "b_bar"),
               *_xor("x", "a", "a_bar", "b", "b_bar", "out")]
    return _cell("xor2 cell", spec, {"nfet": spec.tech.nfet, "pfet": spec.tech.pfet},
                 devices, {"cload": "out"})


def build_decoder(spec: CellSpec) -> Netlist:
    """Quaternary-to-binary decoder: input 'in', outputs 'b1' and 'b0'.

    Three VLCs, an inverter per VLC output, and two XORs; 32 FETs.  The
    XORs reuse the full-swing VLC outputs as the complements of their
    second inputs.
    """
    if spec.levels.radix != 4:
        raise ValueError("decoder is defined for radix 4")
    models = {"nfet": spec.tech.nfet, "pfet": spec.tech.pfet}
    devices = []
    for i in range(3):
        cards = _vlc_models(i, spec, str(i + 1))
        models.update(cards)
        devices += _pair(f"mvlc{i + 1}", "in", f"v{i + 1}", *cards)
    devices += [
        *_pair("minv1", "v1", "i1"),
        *_pair("minv2", "v2", "b1"),   # b1 output is the second inverter
        *_pair("minv3", "v3", "i3"),
        *_pair("mxainv", "i1", "xa_ab"),
        *_xor("xa", "i1", "xa_ab", "b1", "v2", "x1"),
        *_pair("mxbinv", "x1", "xb_ab"),
        *_xor("xb", "x1", "xb_ab", "i3", "v3", "b0"),
    ]
    return _cell(f"quaternary decoder ({spec.tech.name})", spec, models, devices,
                 {"cb1": "b1", "cb0": "b0"})


def staircase_points(levels: LevelMap, hold: float, slew: float):
    """PWL corner points stepping through every digit, level(0) first."""
    if not (hold > slew > 0.0):
        raise ValueError("need hold > slew > 0")
    pts = [(0.0, levels.level(0))]
    t = 0.0
    for d in range(1, levels.radix):
        t += hold
        pts.append((t, levels.level(d - 1)))
        pts.append((t + slew, levels.level(d)))
    pts.append((t + hold, levels.level(levels.radix - 1)))
    return tuple(pts)


def staircase_sample_times(levels: LevelMap, hold: float, slew: float):
    """One settled sample per digit, 90% of the way through each held step."""
    out = [0.9 * hold]
    for d in range(1, levels.radix):
        start = d * hold + slew
        out.append(start + 0.9 * (hold - slew))
    return out


def build_staircase_testbench(spec: CellSpec, *, hold: float, slew: float,
                              dt: float | None = None) -> Netlist:
    """Decoder plus a staircase PWL input visiting every digit.

    Includes a .tran card (dt as given, by default the smaller of tstop/1000
    and slew/10; dtmax hold/20, so that the step can grow through the
    settled part of each hold) and measure directives for the output edges,
    the in->output delays and the supply power.
    """
    net = build_decoder(spec)
    pts = staircase_points(spec.levels, hold, slew)
    net.devices.append(Device("vin", ("in", "0"), stimulus=PwlStimulus(pts)))
    tstop = spec.levels.radix * hold
    if dt is None:
        dt = min(tstop / 1000.0, slew / 10.0)
    net.analyses.append(Transient(dt=dt, tstop=tstop, dtmax=hold / 20.0))
    for out in ("b0", "b1"):
        net.measures.append(MeasureDirective(f"{out}_rise", "rise", (out,)))
        net.measures.append(MeasureDirective(f"{out}_fall", "fall", (out,)))
        net.measures.append(MeasureDirective(f"{out}_delay", "delay", ("in", out)))
    net.measures.append(MeasureDirective("supply_avg", "avgpower", ("vsup",)))
    net.measures.append(MeasureDirective("supply_peak", "peakpower", ("vsup",)))
    net.validate()
    return net


"""Transistor-level cell generators for the quaternary-to-binary decoder.

Every generator returns a validated Netlist that already contains its vdd
supply source; the input node(s) are left undriven so a testbench (or
``with_dc_input``) can attach a stimulus.

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

import copy
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


class _NetBuilder:
    def __init__(self, title: str, spec: CellSpec):
        self.net = Netlist(title=title)
        self.spec = spec

    def model(self, name: str, card: FetModelCard) -> str:
        self.net.models[name] = card
        return name

    def fet(self, name, nd, ng, ns, nb, model):
        self.net.devices.append(Device(name, (nd, ng, ns, nb), 1.0, model))

    def cap(self, name, a, b, farads):
        self.net.devices.append(Device(name, (a, b), farads))

    def vsource(self, name, p, n, stim):
        self.net.devices.append(Device(name, (p, n), stimulus=stim))

    def supply(self):
        self.vsource("vsup", "vdd", "0", DcStimulus(self.spec.levels.vdd))

    def inverter(self, prefix, inp, out):
        self.fet(f"{prefix}p", out, inp, "vdd", "vdd", "pfet")
        self.fet(f"{prefix}n", out, inp, "0", "0", "nfet")

    def nominal_models(self):
        self.model("nfet", self.spec.tech.nfet)
        self.model("pfet", self.spec.tech.pfet)

    def vlc_models(self, i: int, suffix: str = "") -> tuple[str, str]:
        vth_n, vth_p = vlc_thresholds(i, self.spec.levels)
        nname = self.model(f"nvlc{suffix}", replace(self.spec.tech.nfet, vth=vth_n))
        pname = self.model(f"pvlc{suffix}", replace(self.spec.tech.pfet, vth=vth_p))
        return nname, pname

    def vlc(self, prefix, i, inp, out, suffix=""):
        nname, pname = self.vlc_models(i, suffix)
        self.fet(f"{prefix}p", out, inp, "vdd", "vdd", pname)
        self.fet(f"{prefix}n", out, inp, "0", "0", nname)

    def xor_core(self, tag, a, a_bar, b, b_bar, out):
        # pull-up: (a and not b) or (not a and b) conducts to vdd
        self.fet(f"m{tag}p1", f"{tag}_pu1", a_bar, "vdd", "vdd", "pfet")
        self.fet(f"m{tag}p2", out, b, f"{tag}_pu1", "vdd", "pfet")
        self.fet(f"m{tag}p3", f"{tag}_pu2", a, "vdd", "vdd", "pfet")
        self.fet(f"m{tag}p4", out, b_bar, f"{tag}_pu2", "vdd", "pfet")
        # pull-down: (a and b) or (not a and not b) conducts to ground
        self.fet(f"m{tag}n1", out, a, f"{tag}_pd1", "0", "nfet")
        self.fet(f"m{tag}n2", f"{tag}_pd1", b, "0", "0", "nfet")
        self.fet(f"m{tag}n3", out, a_bar, f"{tag}_pd2", "0", "nfet")
        self.fet(f"m{tag}n4", f"{tag}_pd2", b_bar, "0", "0", "nfet")

    def build(self) -> Netlist:
        self.net.validate()
        return self.net


def build_vlc(i: int, spec: CellSpec) -> Netlist:
    """VLC(i) cell: complementary pair with shifted thresholds, input 'in',
    output 'out' loaded with spec.load."""
    b = _NetBuilder(f"vlc{i + 1} cell", spec)
    b.vlc("mvlc", i, "in", "out")
    b.cap("cload", "out", "0", spec.load)
    b.supply()
    return b.build()


def build_inverter(spec: CellSpec) -> Netlist:
    """Minimum complementary inverter, input 'in', loaded output 'out'."""
    b = _NetBuilder("inverter cell", spec)
    b.nominal_models()
    b.inverter("minv", "in", "out")
    b.cap("cload", "out", "0", spec.load)
    b.supply()
    return b.build()


def build_xor2(spec: CellSpec) -> Netlist:
    """Static complementary XOR, inputs 'a'/'b', loaded output 'out'.

    Standalone form generates both input complements locally (two internal
    inverters plus the 8-transistor network).
    """
    b = _NetBuilder("xor2 cell", spec)
    b.nominal_models()
    b.inverter("minva", "a", "a_bar")
    b.inverter("minvb", "b", "b_bar")
    b.xor_core("x", "a", "a_bar", "b", "b_bar", "out")
    b.cap("cload", "out", "0", spec.load)
    b.supply()
    return b.build()


def build_decoder(spec: CellSpec) -> Netlist:
    """Quaternary-to-binary decoder: input 'in', outputs 'b1' and 'b0'.

    Three VLCs, an inverter per VLC output, and two XORs; 32 FETs.  The
    XORs reuse the full-swing VLC outputs as the complements of their
    second inputs.
    """
    if spec.levels.radix != 4:
        raise ValueError("decoder is defined for radix 4")
    b = _NetBuilder(f"quaternary decoder ({spec.tech.name})", spec)
    b.nominal_models()
    for i in range(3):
        b.vlc(f"mvlc{i + 1}", i, "in", f"v{i + 1}", suffix=str(i + 1))
    b.inverter("minv1", "v1", "i1")
    b.inverter("minv2", "v2", "b1")   # b1 output is the second inverter
    b.inverter("minv3", "v3", "i3")
    b.inverter("mxainv", "i1", "xa_ab")
    b.xor_core("xa", "i1", "xa_ab", "b1", "v2", "x1")
    b.inverter("mxbinv", "x1", "xb_ab")
    b.xor_core("xb", "x1", "xb_ab", "i3", "v3", "b0")
    b.cap("cb1", "b1", "0", spec.load)
    b.cap("cb0", "b0", "0", spec.load)
    b.supply()
    return b.build()


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


def with_dc_input(net: Netlist, volts: float, node: str = "in",
                  name: str = "vin") -> Netlist:
    """Copy of a cell netlist with a DC source driving one of its nodes."""
    out = copy.deepcopy(net)
    out.devices.append(Device(name, (node, "0"), stimulus=DcStimulus(volts)))
    out.validate()
    return out

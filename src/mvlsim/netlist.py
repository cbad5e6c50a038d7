"""SPICE-subset netlist types, parser and emitter.

Supported text format (line oriented, case-insensitive):

    * title text                      first line; a bare title line also
                                      works if it does not start with a
                                      device letter or '.'
    * comment
    + continuation of the previous statement
    Vname n+ n- DC <volts>
    Vname n+ n- PWL(t1 v1 t2 v2 ...)
    Vname n+ n- PULSE(v1 v2 tdelay trise tfall twidth tperiod)
    Rname n1 n2 <ohms>
    Cname n1 n2 <farads>
    Mname nd ng ns nb <model> [m=<mult>]
    .model <name> NFET|PFET vth=<v> k=<a_per_v2> lambda=<per_v> cg=<f> [cd=<f>]
    .tran <dt> <tstop> [<dtmax>]
    .op
    .measure <name> rise|fall v(<node>)
    .measure <name> delay v(<node>) v(<node>)
    .measure <name> avgpower|peakpower <vsource>
    .end

Numbers accept the engineering suffixes f p n u m k meg g.  Node and device
names are case-insensitive and are stored lowercased; ``gnd`` is an alias
for the ground node ``0``.  Anything outside this grammar raises
NetlistError with the offending line (and column where it is meaningful).

``emit`` produces canonical text that ``parse`` maps back to an equal
Netlist: names lowercased, numbers in full repr precision, the title on a
leading ``*`` line.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field

from .devices import FetModelCard


class NetlistError(Exception):
    """Syntax or semantic error in a netlist."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)


_SUFFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6,
    "m": 1e-3, "k": 1e3, "meg": 1e6, "g": 1e9,
}
_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|[fpnumkg])?$",
    re.IGNORECASE,
)
_NAME_RE = re.compile(r"^[a-z0-9_]+$")


def parse_value(token: str) -> float:
    """Parse a number with an optional engineering suffix.

    Expansion is exact in the sense that the result is the IEEE double
    product of the parsed mantissa and the suffix multiplier.
    """
    m = _NUMBER_RE.match(token)
    if not m:
        raise ValueError(f"malformed number {token!r}")
    v = float(m.group(1))
    if m.group(2):
        v *= _SUFFIXES[m.group(2).lower()]
    return v


# --------------------------------------------------------------------------
# source stimuli


@dataclass(frozen=True)
class DcStimulus:
    level: float

    def value_at(self, t: float) -> float:
        return self.level

    def breakpoints(self, tstop: float) -> tuple[float, ...]:
        return ()

    def min_edge(self) -> float | None:
        return None


@dataclass(frozen=True)
class PwlStimulus:
    points: tuple[tuple[float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("PWL needs at least one (time, value) pair")
        if self.points[0][0] < 0.0:
            raise ValueError("PWL times must start at t >= 0")
        for (t0, _), (t1, _) in zip(self.points, self.points[1:]):
            if not t1 > t0:
                raise ValueError("PWL times must be strictly increasing")
        object.__setattr__(self, "times", tuple(t for t, _ in self.points))

    def value_at(self, t: float) -> float:
        pts = self.points
        i = bisect.bisect_left(self.times, t)  # the first corner at or after t
        if i == 0:
            return pts[0][1]
        if i == len(pts):
            return pts[-1][1]
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def breakpoints(self, tstop: float) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points if 0.0 < t < tstop)

    def min_edge(self) -> float | None:
        edges = [t1 - t0 for (t0, v0), (t1, v1) in zip(self.points, self.points[1:])
                 if v1 != v0]
        return min(edges) if edges else None


# A PULSE train with more corners than this before tstop is refused.
_MAX_BREAKPOINTS = 100000


@dataclass(frozen=True)
class PulseStimulus:
    v1: float
    v2: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        if self.delay < 0.0:
            raise ValueError("PULSE delay must be >= 0")
        for name in ("rise", "fall", "width", "period"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"PULSE {name} must be > 0")
        if self.rise + self.width + self.fall > self.period:
            raise ValueError("PULSE rise + width + fall must fit in the period")

    def value_at(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tc = math.fmod(t - self.delay, self.period)
        if tc < self.rise:
            return self.v1 + (self.v2 - self.v1) * tc / self.rise
        tc -= self.rise
        if tc < self.width:
            return self.v2
        tc -= self.width
        if tc < self.fall:
            return self.v2 + (self.v1 - self.v2) * tc / self.fall
        return self.v1

    def breakpoints(self, tstop: float) -> tuple[float, ...]:
        out = []
        base = self.delay
        while base < tstop:
            for off in (0.0, self.rise, self.rise + self.width,
                        self.rise + self.width + self.fall):
                t = base + off
                if 0.0 < t < tstop:
                    out.append(t)
            base += self.period
            if len(out) > _MAX_BREAKPOINTS:
                raise NetlistError(
                    f"PULSE period {self.period:g} s gives more than "
                    f"{_MAX_BREAKPOINTS} breakpoints before tstop {tstop:g} s")
        return tuple(out)

    def min_edge(self) -> float | None:
        return min(self.rise, self.fall)


Stimulus = DcStimulus | PwlStimulus | PulseStimulus


# --------------------------------------------------------------------------
# analyses and measures


@dataclass(frozen=True)
class OperatingPoint:
    pass


@dataclass(frozen=True)
class Transient:
    dt: float
    tstop: float
    dtmax: float | None = None

    def __post_init__(self):
        if not self.tstop > 0.0:
            raise ValueError("tstop must be > 0")
        if not 0.0 < self.dt <= self.tstop:
            raise ValueError("dt must satisfy 0 < dt <= tstop")
        if self.dtmax is not None and self.dtmax <= 0.0:
            raise ValueError("dtmax must be > 0")


Analysis = OperatingPoint | Transient

_MEASURE_KINDS = ("rise", "fall", "delay", "avgpower", "peakpower")


@dataclass(frozen=True)
class MeasureDirective:
    name: str
    kind: str
    targets: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in _MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        want = 2 if self.kind == "delay" else 1
        if len(self.targets) != want:
            raise ValueError(f"measure {self.kind} takes {want} target(s)")


# --------------------------------------------------------------------------
# devices and the netlist container

_TERMINAL_COUNT = {"resistor": 2, "capacitor": 2, "vsource": 2, "fet": 4}


@dataclass
class Device:
    name: str
    kind: str  # "resistor" | "capacitor" | "vsource" | "fet"
    terminals: tuple[str, ...]
    params: dict[str, float] = field(default_factory=dict)
    model: str | None = None
    stimulus: Stimulus | None = None


@dataclass
class Netlist:
    title: str = ""
    devices: list[Device] = field(default_factory=list)
    models: dict[str, FetModelCard] = field(default_factory=dict)
    analyses: list[Analysis] = field(default_factory=list)
    measures: list[MeasureDirective] = field(default_factory=list)

    @property
    def nodes(self) -> list[str]:
        """Node names in first-appearance order, ground '0' always first."""
        out = ["0"]
        seen = {"0"}
        for d in self.devices:
            for t in d.terminals:
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return out

    def device(self, name: str) -> Device:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)

    def validate(self) -> None:
        """Check structural invariants; raises NetlistError."""
        seen_names: set[str] = set()
        for d in self.devices:
            if not _NAME_RE.match(d.name):
                raise NetlistError(f"bad device name {d.name!r}")
            if d.name in seen_names:
                raise NetlistError(f"duplicate device name {d.name!r}")
            seen_names.add(d.name)
            if d.kind not in _TERMINAL_COUNT:
                raise NetlistError(f"unknown device kind {d.kind!r}")
            if len(d.terminals) != _TERMINAL_COUNT[d.kind]:
                raise NetlistError(
                    f"{d.name}: {d.kind} needs {_TERMINAL_COUNT[d.kind]} terminals")
            for t in d.terminals:
                if not _NAME_RE.match(t):
                    raise NetlistError(f"{d.name}: bad node name {t!r}")
            if d.kind == "resistor":
                if not d.params.get("resistance", 0.0) > 0.0:
                    raise NetlistError(f"{d.name}: resistance must be > 0")
            elif d.kind == "capacitor":
                if d.params.get("capacitance", -1.0) < 0.0:
                    raise NetlistError(f"{d.name}: capacitance must be >= 0")
            elif d.kind == "vsource":
                if d.stimulus is None:
                    raise NetlistError(f"{d.name}: voltage source needs a stimulus")
            elif d.kind == "fet":
                if not d.params.get("m", 1.0) > 0.0:
                    raise NetlistError(f"{d.name}: multiplier m must be > 0")
                if d.model is None or d.model not in self.models:
                    raise NetlistError(f"{d.name}: undeclared model {d.model!r}")
        nodes = set(self.nodes)
        vsources = {d.name for d in self.devices if d.kind == "vsource"}
        for m in self.measures:
            if m.kind in ("rise", "fall", "delay"):
                for t in m.targets:
                    if t not in nodes:
                        raise NetlistError(
                            f"measure {m.name}: undeclared node {t!r}")
            else:
                if m.targets[0] not in vsources:
                    raise NetlistError(
                        f"measure {m.name}: {m.targets[0]!r} is not a voltage source")


# --------------------------------------------------------------------------
# parser


def _node(token: str, lineno: int, col: int) -> str:
    low = token.lower()
    if low == "gnd":
        return "0"
    if not _NAME_RE.match(low):
        raise NetlistError(f"bad node name {token!r}", lineno, col)
    return low


def _value(token: str, lineno: int, col: int) -> float:
    try:
        return parse_value(token)
    except ValueError as e:
        raise NetlistError(str(e), lineno, col) from None


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _split_title(raw: list[str]) -> tuple[str, int]:
    for i, line in enumerate(raw):
        s = line.strip()
        if not s:
            continue
        if s.startswith("*"):
            return s[1:].strip(), i + 1
        if s[0].lower() in "vrcm.+":
            return "", i
        return s, i + 1
    return "", len(raw)


def _logical_lines(raw: list[str], start: int) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for i in range(start, len(raw)):
        s = raw[i].strip()
        if not s or s.startswith("*"):
            continue
        if s.startswith("+"):
            if not out:
                raise NetlistError("continuation with nothing to continue", i + 1)
            out[-1] = (out[-1][0], out[-1][1] + " " + s[1:].strip())
        else:
            out.append((i + 1, s))
    return out


def _parse_vsource(name, toks, line, lineno) -> Device:
    if len(toks) < 4:
        raise NetlistError("voltage source needs: Vname n+ n- <spec>", lineno)
    p = _node(toks[1][0], lineno, toks[1][1])
    n = _node(toks[2][0], lineno, toks[2][1])
    tail = line[toks[3][1] - 1:]
    tcol = toks[3][1]
    try:
        m = re.fullmatch(r"(?is)dc\s+(\S+)", tail)
        if m:
            stim: Stimulus = DcStimulus(_value(m.group(1), lineno, tcol))
            return Device(name, "vsource", (p, n), stimulus=stim)
        m = re.fullmatch(r"(?is)pwl\s*\((.*)\)", tail)
        if m:
            nums = [_value(t, lineno, tcol) for t in m.group(1).split()]
            if len(nums) < 2 or len(nums) % 2:
                raise NetlistError("PWL needs an even number of values", lineno, tcol)
            pts = tuple(zip(nums[0::2], nums[1::2]))
            return Device(name, "vsource", (p, n), stimulus=PwlStimulus(pts))
        m = re.fullmatch(r"(?is)pulse\s*\((.*)\)", tail)
        if m:
            nums = [_value(t, lineno, tcol) for t in m.group(1).split()]
            if len(nums) != 7:
                raise NetlistError("PULSE needs exactly 7 values", lineno, tcol)
            return Device(name, "vsource", (p, n), stimulus=PulseStimulus(*nums))
    except ValueError as e:  # stimulus invariant violations
        raise NetlistError(str(e), lineno, tcol) from None
    raise NetlistError("expected DC <v>, PWL(...) or PULSE(...)", lineno, tcol)


def _parse_device(lineno: int, line: str) -> Device:
    toks = _tokens(line)
    name = toks[0][0].lower()
    if not _NAME_RE.match(name):
        raise NetlistError(f"bad device name {toks[0][0]!r}", lineno, 1)
    letter = name[0]
    if letter == "v":
        return _parse_vsource(name, toks, line, lineno)
    if letter in "rc":
        if len(toks) != 4:
            raise NetlistError(f"{name}: expected two nodes and a value", lineno)
        a = _node(toks[1][0], lineno, toks[1][1])
        b = _node(toks[2][0], lineno, toks[2][1])
        v = _value(toks[3][0], lineno, toks[3][1])
        if letter == "r":
            if not v > 0.0:
                raise NetlistError(f"{name}: resistance must be > 0",
                                   lineno, toks[3][1])
            return Device(name, "resistor", (a, b), {"resistance": v})
        if v < 0.0:
            raise NetlistError(f"{name}: capacitance must be >= 0",
                               lineno, toks[3][1])
        return Device(name, "capacitor", (a, b), {"capacitance": v})
    if letter == "m":
        if len(toks) not in (6, 7):
            raise NetlistError(
                f"{name}: expected Mname nd ng ns nb <model> [m=<mult>]", lineno)
        terms = tuple(_node(t, lineno, c) for t, c in toks[1:5])
        model = toks[5][0].lower()
        if not _NAME_RE.match(model):
            raise NetlistError(f"bad model name {toks[5][0]!r}", lineno, toks[5][1])
        mult = 1.0
        if len(toks) == 7:
            mm = re.fullmatch(r"(?i)m=(\S+)", toks[6][0])
            if not mm:
                raise NetlistError(f"{name}: expected m=<mult>", lineno, toks[6][1])
            mult = _value(mm.group(1), lineno, toks[6][1])
            if not mult > 0.0:
                raise NetlistError(f"{name}: multiplier m must be > 0",
                                   lineno, toks[6][1])
        return Device(name, "fet", terms, {"m": mult}, model=model)
    raise NetlistError(f"unknown element {toks[0][0]!r}", lineno, 1)


_MODEL_KEYS = ("vth", "k", "lambda", "cg", "cd")


def _parse_model(toks, lineno) -> tuple[str, FetModelCard]:
    if len(toks) < 3:
        raise NetlistError(".model needs a name and NFET|PFET", lineno)
    name = toks[1][0].lower()
    if not _NAME_RE.match(name):
        raise NetlistError(f"bad model name {toks[1][0]!r}", lineno, toks[1][1])
    kind = toks[2][0].lower()
    if kind not in ("nfet", "pfet"):
        raise NetlistError(f"model type must be NFET or PFET, got {toks[2][0]!r}",
                           lineno, toks[2][1])
    params: dict[str, float] = {}
    for tok, col in toks[3:]:
        m = re.fullmatch(r"(?i)(\w+)=(\S+)", tok)
        if not m or m.group(1).lower() not in _MODEL_KEYS:
            raise NetlistError(f"unknown model parameter {tok!r}", lineno, col)
        key = m.group(1).lower()
        if key in params:
            raise NetlistError(f"duplicate model parameter {key!r}", lineno, col)
        params[key] = _value(m.group(2), lineno, col)
    for key in ("vth", "k", "lambda", "cg"):
        if key not in params:
            raise NetlistError(f".model {name}: missing {key}=", lineno)
    try:
        card = FetModelCard(
            polarity="n" if kind == "nfet" else "p",
            vth=params["vth"], k=params["k"], lam=params["lambda"],
            cg=params["cg"], cd=params.get("cd", 0.0),
        )
    except ValueError as e:
        raise NetlistError(f".model {name}: {e}", lineno) from None
    return name, card


def _parse_measure(toks, lineno) -> MeasureDirective:
    if len(toks) < 4:
        raise NetlistError(".measure needs a name, a kind and target(s)", lineno)
    name = toks[1][0].lower()
    if not _NAME_RE.match(name):
        raise NetlistError(f"bad measure name {toks[1][0]!r}", lineno, toks[1][1])
    kind = toks[2][0].lower()
    if kind not in _MEASURE_KINDS:
        raise NetlistError(f"unknown measure kind {toks[2][0]!r}", lineno, toks[2][1])
    targets = []
    for tok, col in toks[3:]:
        if kind in ("rise", "fall", "delay"):
            m = re.fullmatch(r"(?i)v\((\w+)\)", tok)
            if not m:
                raise NetlistError(f"expected v(<node>), got {tok!r}", lineno, col)
            targets.append(_node(m.group(1), lineno, col))
        else:
            targets.append(tok.lower())
    try:
        return MeasureDirective(name, kind, tuple(targets))
    except ValueError as e:
        raise NetlistError(str(e), lineno) from None


def parse(text: str) -> Netlist:
    """Parse netlist text into a validated Netlist.

    Raises NetlistError (never anything else) on malformed input.
    """
    if not isinstance(text, str):
        raise NetlistError("netlist text must be a string")
    raw = text.splitlines()
    title, start = _split_title(raw)
    net = Netlist(title=title)
    seen_devices: set[str] = set()
    fet_lines: list[tuple[Device, int]] = []
    for lineno, line in _logical_lines(raw, start):
        if line.startswith("."):
            toks = _tokens(line)
            card = toks[0][0].lower()
            if card == ".end":
                break
            if card == ".model":
                name, model = _parse_model(toks, lineno)
                if name in net.models:
                    raise NetlistError(f"duplicate model {name!r}", lineno)
                net.models[name] = model
            elif card == ".tran":
                if len(toks) not in (3, 4):
                    raise NetlistError(".tran needs <dt> <tstop> [<dtmax>]", lineno)
                vals = [_value(t, lineno, c) for t, c in toks[1:]]
                try:
                    net.analyses.append(Transient(vals[0], vals[1],
                                                  vals[2] if len(vals) > 2 else None))
                except ValueError as e:
                    raise NetlistError(str(e), lineno) from None
            elif card == ".op":
                if len(toks) != 1:
                    raise NetlistError(".op takes no arguments", lineno)
                net.analyses.append(OperatingPoint())
            elif card == ".measure":
                net.measures.append(_parse_measure(toks, lineno))
            else:
                raise NetlistError(f"unknown card {toks[0][0]!r}", lineno, 1)
        else:
            dev = _parse_device(lineno, line)
            if dev.name in seen_devices:
                raise NetlistError(f"duplicate device name {dev.name!r}", lineno)
            seen_devices.add(dev.name)
            net.devices.append(dev)
            if dev.kind == "fet":
                fet_lines.append((dev, lineno))
    for dev, lineno in fet_lines:
        if dev.model not in net.models:
            raise NetlistError(f"{dev.name}: undeclared model {dev.model!r}", lineno)
    net.validate()
    return net


# --------------------------------------------------------------------------
# emitter


def _fmt(x: float) -> str:
    return repr(float(x))


def model_line(name: str, card: FetModelCard) -> str:
    kind = "NFET" if card.polarity == "n" else "PFET"
    return (f".model {name} {kind} vth={_fmt(card.vth)} k={_fmt(card.k)} "
            f"lambda={_fmt(card.lam)} cg={_fmt(card.cg)} cd={_fmt(card.cd)}")


def _stimulus_text(stim: Stimulus) -> str:
    if isinstance(stim, DcStimulus):
        return f"DC {_fmt(stim.level)}"
    if isinstance(stim, PwlStimulus):
        inner = " ".join(f"{_fmt(t)} {_fmt(v)}" for t, v in stim.points)
        return f"PWL({inner})"
    vals = (stim.v1, stim.v2, stim.delay, stim.rise, stim.fall,
            stim.width, stim.period)
    return "PULSE(" + " ".join(_fmt(v) for v in vals) + ")"


def device_line(d: Device) -> str:
    """Canonical single-line form of one device."""
    if d.kind == "vsource":
        return f"{d.name} {d.terminals[0]} {d.terminals[1]} {_stimulus_text(d.stimulus)}"
    if d.kind == "resistor":
        return f"{d.name} {d.terminals[0]} {d.terminals[1]} {_fmt(d.params['resistance'])}"
    if d.kind == "capacitor":
        return f"{d.name} {d.terminals[0]} {d.terminals[1]} {_fmt(d.params['capacitance'])}"
    terms = " ".join(d.terminals)
    return f"{d.name} {terms} {d.model} m={_fmt(d.params.get('m', 1.0))}"


def _measure_line(m: MeasureDirective) -> str:
    if m.kind in ("rise", "fall", "delay"):
        targets = " ".join(f"v({t})" for t in m.targets)
    else:
        targets = m.targets[0]
    return f".measure {m.name} {m.kind} {targets}"


def emit(net: Netlist) -> str:
    """Serialize a Netlist to canonical text (parse(emit(n)) == n)."""
    lines = [f"* {net.title}".rstrip()]
    for name, card in net.models.items():
        lines.append(model_line(name, card))
    for d in net.devices:
        lines.append(device_line(d))
    for a in net.analyses:
        if isinstance(a, Transient):
            tail = f" {_fmt(a.dtmax)}" if a.dtmax is not None else ""
            lines.append(f".tran {_fmt(a.dt)} {_fmt(a.tstop)}{tail}")
        else:
            lines.append(".op")
    for m in net.measures:
        lines.append(_measure_line(m))
    lines.append(".end")
    return "\n".join(lines) + "\n"

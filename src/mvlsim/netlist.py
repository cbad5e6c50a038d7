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

``.tran``: dt is the step at every breakpoint (every source's PWL corner
inside the run; a PULSE is its corners up to tstop) and the finest step;
dtmax (default dt) is the largest step the engine's step controller may
grow to.  See ``engine`` for the clamps on dt.  A netlist has at most one
``.tran``.

Each stimulus gives its waveform up to tstop as ``pwl(tstop)``, a
PwlStimulus, the one class that evaluates a waveform: a DC level is one
corner, a PULSE the corners of every period that starts before tstop.  A
PwlStimulus is its corners and their values; the engine alone turns the
corners into breakpoints and a floor step.

Numbers accept the engineering suffixes f p n u m k meg g.  Node and device
names are case-insensitive and are stored lowercased; ``gnd`` is an alias
for the ground node ``0``, so no stored node is named ``gnd``.  A device's
first letter fixes its kind, and a Device carries one number, its
``value``: a resistor's ohms, a capacitor's farads or a FET's multiplier m.
Anything outside this grammar, a number that overflows a double included,
raises NetlistError: a syntax error with its line (and column where it is
meaningful); once the whole text has parsed, the first broken structural
rule (names, the fields each kind sets, values, no node named ``gnd``,
duplicates, models, measure targets, one ``.tran``, a one-line title: all
stated in ``Netlist.validate`` alone) with the line of the statement at
fault.  So syntax errors come first.

``emit`` produces canonical text that ``parse`` maps back to an equal
Netlist, for every Netlist that validates, parsed or built in code: names
lowercased, numbers in full repr precision, the title on a leading ``*``
line.
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
_NAME_RE = re.compile(r"[a-z0-9_]+\Z")  # with match(); $ would pass a trailing newline


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
    if not math.isfinite(v):
        raise ValueError(f"number out of range {token!r}")
    return v


# --------------------------------------------------------------------------
# source stimuli


@dataclass(frozen=True)
class DcStimulus:
    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ValueError(f"DC level must be finite, got {self.level!r}")

    def pwl(self, tstop: float) -> PwlStimulus:
        return PwlStimulus(((0.0, self.level),))


@dataclass(frozen=True)
class PwlStimulus:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # lists given in code become the tuples parse gives back
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) < 1:
            raise ValueError("PWL needs at least one (time, value) pair")
        for t, v in self.points:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"PWL time and value must be finite, got {t!r} {v!r}")
        if self.points[0][0] < 0.0:
            raise ValueError("PWL times must start at t >= 0")
        for (t0, _), (t1, _) in zip(self.points, self.points[1:]):
            if not t1 > t0:
                raise ValueError("PWL times must be strictly increasing")

    def value_at(self, t: float) -> float:
        pts = self.points
        # (t_i, v_i) sorts before (t,) exactly when t_i < t, so i is the
        # first corner at or after t
        i = bisect.bisect_left(pts, (t,))
        if i == 0:
            return pts[0][1]
        if i == len(pts):
            return pts[-1][1]
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def pwl(self, tstop: float) -> PwlStimulus:
        return self


# A PULSE train with more corners than this up to tstop is refused.
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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"PULSE {name} must be finite, got {value!r}")
        if self.delay < 0.0:
            raise ValueError("PULSE delay must be >= 0")
        for name in ("rise", "fall", "width", "period"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"PULSE {name} must be > 0")
        if self.rise + self.width + self.fall > self.period:
            raise ValueError("PULSE rise + width + fall must fit in the period")

    def pwl(self, tstop: float) -> PwlStimulus:
        """Its corners: (0, v1), then the four of every period that starts
        before tstop, so a run that ends within a period's edges still
        follows them; a corner not strictly after the one before is dropped.
        More than _MAX_BREAKPOINTS corners, or a period lost in rounding
        before tstop, raise NetlistError."""
        points = [(0.0, self.v1)]
        corners = ((0.0, self.v1), (self.rise, self.v2),
                   (self.rise + self.width, self.v2),
                   (self.rise + self.width + self.fall, self.v1))
        base = self.delay
        while base < tstop:
            for off, v in corners:
                if base + off > points[-1][0]:
                    points.append((base + off, v))
            if not base + self.period > base:  # the train would stall here
                raise NetlistError(f"PULSE period {self.period:g} s stalls at t={base:g} s")
            base += self.period
            if len(points) > _MAX_BREAKPOINTS:
                raise NetlistError(
                    f"PULSE period {self.period:g} s gives more than "
                    f"{_MAX_BREAKPOINTS} breakpoints before tstop {tstop:g} s")
        return PwlStimulus(tuple(points))


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
        if not 0.0 < self.tstop < math.inf:
            raise ValueError("tstop must be finite and > 0")
        if not 0.0 < self.dt <= self.tstop:
            raise ValueError("dt must satisfy 0 < dt <= tstop")
        if self.dtmax is not None and not 0.0 < self.dtmax < math.inf:
            raise ValueError("dtmax must be finite and > 0")


Analysis = OperatingPoint | Transient

# the kinds measured on node voltages, then those on a voltage source
_NODE_KINDS = ("rise", "fall", "delay")
_MEASURE_KINDS = _NODE_KINDS + ("avgpower", "peakpower")


@dataclass(frozen=True)
class MeasureDirective:
    name: str
    kind: str
    targets: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind not in _MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        want = 2 if self.kind == "delay" else 1
        if len(self.targets) != want:
            raise ValueError(f"measure {self.kind} takes {want} target(s)")


# --------------------------------------------------------------------------
# devices and the netlist container

# A device's name's first letter fixes, as in SPICE, its kind, its terminal
# count, which of value, model and stimulus it sets and what its value is.
_ELEMENTS = {
    "r": ("resistor", 2, ("value",), "resistance"),
    "c": ("capacitor", 2, ("value",), "capacitance"),
    "v": ("vsource", 2, ("stimulus",), None),
    "m": ("fet", 4, ("value", "model"), "multiplier m"),
}


@dataclass
class Device:
    name: str
    terminals: tuple[str, ...]
    value: float | None = None  # ohms, farads or a FET's multiplier m
    model: str | None = None
    stimulus: Stimulus | None = None

    def __post_init__(self):
        self.terminals = tuple(self.terminals)

    @property
    def kind(self) -> str | None:
        """resistor, capacitor, vsource or fet; None for another letter."""
        return _ELEMENTS.get(self.name[:1], (None,))[0]


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
        if problem := self._first_problem():
            raise NetlistError(problem[1])

    def _first_problem(self) -> tuple[Netlist | Device | Analysis | MeasureDirective,
                                      str] | None:
        """The first broken structural rule as (statement at fault, message),
        or None.  Of two devices or measures with one name, or two .tran
        cards, the later is at fault.  The title and the model names, which
        parse never gets wrong, blame the netlist itself."""
        if len(self.title.splitlines()) > 1 or self.title != self.title.strip():
            return self, f"title {self.title!r} must be one line, unpadded"
        for name in self.models:
            if not _NAME_RE.match(name):
                return self, f"bad model name {name!r}"
        seen_names: set[str] = set()
        for d in self.devices:
            if not _NAME_RE.match(d.name):
                return d, f"bad device name {d.name!r}"
            if d.name in seen_names:
                return d, f"duplicate device name {d.name!r}"
            seen_names.add(d.name)
            if d.name[0] not in _ELEMENTS:
                return d, f"unknown element {d.name!r}"
            kind, count, fields, what = _ELEMENTS[d.name[0]]
            if len(d.terminals) != count:
                return d, f"{d.name}: {kind} needs {count} terminals"
            for t in d.terminals:
                if not _NAME_RE.match(t) or t == "gnd":
                    return d, f"{d.name}: bad node name {t!r}"
            for name in ("value", "model", "stimulus"):
                if (getattr(d, name) is None) == (name in fields):
                    need = "needs a" if name in fields else "takes no"
                    return d, f"{d.name}: {kind} {need} {name}"
            if d.value is not None and not (
                    0.0 <= d.value < math.inf and (d.value > 0.0 or kind == "capacitor")):
                least = ">= 0" if kind == "capacitor" else "> 0"
                return d, f"{d.name}: {what} must be finite and {least}"
            if d.model is not None and d.model not in self.models:
                return d, f"{d.name}: undeclared model {d.model!r}"
        trans = [a for a in self.analyses if isinstance(a, Transient)]
        if len(trans) > 1:
            return trans[1], "only one .tran is allowed"
        if len(self.nodes) == 1 and (self.devices or self.analyses):
            # nothing to solve for: blamed on the first device, else analysis
            return (self.devices or self.analyses)[0], "netlist has no node but ground"
        nodes = set(self.nodes)
        vsources = {d.name for d in self.devices if d.kind == "vsource"}
        measure_names: set[str] = set()
        for m in self.measures:
            if not _NAME_RE.match(m.name):
                return m, f"bad measure name {m.name!r}"
            if m.name in measure_names:
                return m, f"duplicate measure name {m.name!r}"
            measure_names.add(m.name)
            if m.kind in _NODE_KINDS:
                for t in m.targets:
                    if t not in nodes:
                        return m, f"measure {m.name}: undeclared node {t!r}"
            elif m.targets[0] not in vsources:
                return m, f"measure {m.name}: {m.targets[0]!r} is not a voltage source"
        return None


# --------------------------------------------------------------------------
# parser


def _node(token: str) -> str:
    low = token.lower()
    return "0" if low == "gnd" else low


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
        if s[0].lower() in ".+" or s[0].lower() in _ELEMENTS:
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
    p, n = _node(toks[1][0]), _node(toks[2][0])
    tail = line[toks[3][1] - 1:]
    tcol = toks[3][1]
    try:
        m = re.fullmatch(r"(?is)dc\s+(\S+)", tail)
        if m:
            stim: Stimulus = DcStimulus(_value(m.group(1), lineno, tcol))
            return Device(name, (p, n), stimulus=stim)
        m = re.fullmatch(r"(?is)pwl\s*\((.*)\)", tail)
        if m:
            nums = [_value(t, lineno, tcol) for t in m.group(1).split()]
            if len(nums) < 2 or len(nums) % 2:
                raise NetlistError("PWL needs an even number of values", lineno, tcol)
            pts = tuple(zip(nums[0::2], nums[1::2]))
            return Device(name, (p, n), stimulus=PwlStimulus(pts))
        m = re.fullmatch(r"(?is)pulse\s*\((.*)\)", tail)
        if m:
            nums = [_value(t, lineno, tcol) for t in m.group(1).split()]
            if len(nums) != 7:
                raise NetlistError("PULSE needs exactly 7 values", lineno, tcol)
            return Device(name, (p, n), stimulus=PulseStimulus(*nums))
    except ValueError as e:  # stimulus invariant violations
        raise NetlistError(str(e), lineno, tcol) from None
    raise NetlistError("expected DC <v>, PWL(...) or PULSE(...)", lineno, tcol)


def _parse_device(lineno: int, line: str) -> Device:
    toks = _tokens(line)
    name = toks[0][0].lower()
    letter = name[0]
    if letter == "v":
        return _parse_vsource(name, toks, line, lineno)
    if letter in "rc":
        if len(toks) != 4:
            raise NetlistError(f"{name}: expected two nodes and a value", lineno)
        a, b = _node(toks[1][0]), _node(toks[2][0])
        return Device(name, (a, b), _value(toks[3][0], lineno, toks[3][1]))
    if letter == "m":
        if len(toks) not in (6, 7):
            raise NetlistError(
                f"{name}: expected Mname nd ng ns nb <model> [m=<mult>]", lineno)
        terms = tuple(_node(t) for t, _ in toks[1:5])
        model = toks[5][0].lower()
        if not _NAME_RE.match(model):
            raise NetlistError(f"bad model name {toks[5][0]!r}", lineno, toks[5][1])
        mult = 1.0
        if len(toks) == 7:
            mm = re.fullmatch(r"(?i)m=(\S+)", toks[6][0])
            if not mm:
                raise NetlistError(f"{name}: expected m=<mult>", lineno, toks[6][1])
            mult = _value(mm.group(1), lineno, toks[6][1])
        return Device(name, terms, mult, model)
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
    given: dict[str, float] = {}
    for tok, col in toks[3:]:
        m = re.fullmatch(r"(?i)(\w+)=(\S+)", tok)
        if not m or m.group(1).lower() not in _MODEL_KEYS:
            raise NetlistError(f"unknown model parameter {tok!r}", lineno, col)
        key = m.group(1).lower()
        if key in given:
            raise NetlistError(f"duplicate model parameter {key!r}", lineno, col)
        given[key] = _value(m.group(2), lineno, col)
    for key in ("vth", "k", "lambda", "cg"):
        if key not in given:
            raise NetlistError(f".model {name}: missing {key}=", lineno)
    try:
        card = FetModelCard(
            polarity="n" if kind == "nfet" else "p",
            vth=given["vth"], k=given["k"], lam=given["lambda"],
            cg=given["cg"], cd=given.get("cd", 0.0),
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
    targets = []
    for tok, col in toks[3:]:
        if kind in _NODE_KINDS:
            m = re.fullmatch(r"(?i)v\((\w+)\)", tok)
            if not m:
                raise NetlistError(f"expected v(<node>), got {tok!r}", lineno, col)
            targets.append(_node(m.group(1)))
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
    lines: dict[int, int] = {}  # id of each statement -> its line
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
                continue
            if card == ".tran":
                if len(toks) not in (3, 4):
                    raise NetlistError(".tran needs <dt> <tstop> [<dtmax>]", lineno)
                vals = [_value(t, lineno, c) for t, c in toks[1:]]
                try:
                    stmt = Transient(*vals)
                except ValueError as e:
                    raise NetlistError(str(e), lineno) from None
                net.analyses.append(stmt)
            elif card == ".op":
                if len(toks) != 1:
                    raise NetlistError(".op takes no arguments", lineno)
                stmt = OperatingPoint()
                net.analyses.append(stmt)
            elif card == ".measure":
                stmt = _parse_measure(toks, lineno)
                net.measures.append(stmt)
            else:
                raise NetlistError(f"unknown card {toks[0][0]!r}", lineno, 1)
        else:
            stmt = _parse_device(lineno, line)
            net.devices.append(stmt)
        lines[id(stmt)] = lineno
    if problem := net._first_problem():
        raise NetlistError(problem[1], lines[id(problem[0])])
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
    head = " ".join((d.name, *d.terminals))
    if d.kind == "vsource":
        return f"{head} {_stimulus_text(d.stimulus)}"
    if d.kind == "fet":
        return f"{head} {d.model} m={_fmt(d.value)}"
    return f"{head} {_fmt(d.value)}"


def _measure_line(m: MeasureDirective) -> str:
    if m.kind in _NODE_KINDS:
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

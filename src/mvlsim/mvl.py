"""Multi-valued logic semantics: digits, voltage level maps, ideal references.

A radix-r signal uses r evenly spaced voltage levels from 0 to vdd.  A
voltage level converter VLC(i) is a threshold detector: it outputs the top
level (digit r-1) while the input digit x satisfies x <= i and the bottom
level (digit 0) once x >= i+1.  The quaternary-to-binary decoder is built
from VLC(0..2), an inverter on each VLC output, and two XORs:

    b1 = NOT vlc2_out
    b0 = XOR(XOR(NOT vlc1_out, NOT vlc2_out), NOT vlc3_out)

which reproduces b1 = x // 2 and b0 = x % 2 for x in 0..3.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .measure import Waveform


@dataclass(frozen=True)
class Digit:
    value: int
    radix: int

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if not 0 <= self.value < self.radix:
            raise ValueError(f"digit {self.value} out of range for radix {self.radix}")


@dataclass(frozen=True)
class LevelMap:
    """Evenly spaced voltage levels with a symmetric guard band."""

    radix: int
    vdd: float
    guard: float | None = None  # defaults to a quarter of the level spacing

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if not self.vdd > 0.0:
            raise ValueError("vdd must be > 0")
        if self.guard is None:
            object.__setattr__(self, "guard", self.spacing / 4.0)
        if not 0.0 < self.guard < self.spacing / 2.0:
            raise ValueError("guard band must satisfy 0 < guard < spacing/2")

    @property
    def spacing(self) -> float:
        return self.vdd / (self.radix - 1)

    def level(self, d: int) -> float:
        if not 0 <= d < self.radix:
            raise ValueError(f"digit {d} out of range for radix {self.radix}")
        return d * self.vdd / (self.radix - 1)

    def digit_of(self, v: float) -> int | None:
        """Classify a voltage; None when outside every guard band."""
        matches = [d for d in range(self.radix)
                   if abs(v - self.level(d)) <= self.guard]
        return matches[0] if len(matches) == 1 else None


def ideal_vlc(i: int, x: Digit) -> Digit:
    """Ideal level converter: digit r-1 while x <= i, else digit 0."""
    r = x.radix
    if not 0 <= i <= r - 2:
        raise ValueError(f"vlc index {i} out of range for radix {r}")
    return Digit(r - 1 if x.value <= i else 0, r)


def ideal_decode(x: Digit) -> tuple[int, int]:
    """Quaternary digit to (b1, b0) binary pair."""
    if x.radix != 4:
        raise ValueError("ideal_decode is defined for radix-4 digits")
    return x.value // 2, x.value % 2


def gate_level_decode(x: Digit) -> tuple[int, int]:
    """Decoder output computed through the gate network, not arithmetic."""
    if x.radix != 4:
        raise ValueError("gate_level_decode is defined for radix-4 digits")
    r = x.radix
    n = [int(ideal_vlc(i, x).value != r - 1) for i in range(3)]  # inverted VLCs
    b1 = n[1]
    b0 = (n[0] ^ n[1]) ^ n[2]
    return b1, b0


def quantize(wf: Waveform, levels: LevelMap, sample_times) -> list[int | None]:
    """Sample a waveform and classify each sample against the level map.

    Sample times must lie inside the waveform span; values outside every
    guard band classify as None.
    """
    out = []
    for t in sample_times:
        v = wf.value_at(float(t))
        out.append(levels.digit_of(v))
    return out


def truth_table_csv() -> str:
    """Ideal decoder truth table as CSV: x, the three VLC digits, b1, b0."""
    buf = io.StringIO()
    buf.write("x,vlc1,vlc2,vlc3,b1,b0\n")
    for xv in range(4):
        x = Digit(xv, 4)
        vlcs = [ideal_vlc(i, x).value for i in range(3)]
        b1, b0 = ideal_decode(x)
        buf.write(f"{xv},{vlcs[0]},{vlcs[1]},{vlcs[2]},{b1},{b0}\n")
    return buf.getvalue()

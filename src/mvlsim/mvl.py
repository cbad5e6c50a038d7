"""Multi-valued logic semantics: digits, voltage level maps, the ideal decode.

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
    """Evenly spaced voltage levels with a guard band of spacing/4."""

    radix: int
    vdd: float

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if not self.vdd > 0.0:
            raise ValueError("vdd must be > 0")

    @property
    def spacing(self) -> float:
        return self.vdd / (self.radix - 1)

    @property
    def guard(self) -> float:
        return self.spacing / 4.0

    def level(self, d: int) -> float:
        if not 0 <= d < self.radix:
            raise ValueError(f"digit {d} out of range for radix {self.radix}")
        return d * self.vdd / (self.radix - 1)

    def digit_of(self, v: float) -> int | None:
        """Classify a voltage; None when outside every guard band."""
        matches = [d for d in range(self.radix)
                   if abs(v - self.level(d)) <= self.guard]
        return matches[0] if len(matches) == 1 else None


def ideal_decode(x: Digit) -> tuple[int, int]:
    """Quaternary digit to (b1, b0) binary pair."""
    if x.radix != 4:
        raise ValueError("ideal_decode is defined for radix-4 digits")
    return x.value // 2, x.value % 2


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


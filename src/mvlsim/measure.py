"""Waveform container and the standard timing/power measures.

All measures interpolate linearly between samples.  Rise and fall times are
10-90% of the supplied swing and use the first complete transition;
propagation delay is 50%-to-50%, pairing each input crossing with the first
output crossing at or after it and returning the worst pair.  Supply power
uses p(t) = -v(t)*i(t) with the MNA branch-current convention (current into
the + terminal), so a delivering source has positive power and one that
absorbs energy negative power.  A MeasureReport derives its PDP
(avg_power * prop_delay) and EDP (PDP * prop_delay) from the measured
figures, so they are negative for an absorbing source too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


class MeasureError(ValueError):
    """A measure could not be evaluated on the given waveform(s)."""


@dataclass
class Waveform:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(self.times) < 2:
            raise ValueError("waveform needs at least two samples")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise ValueError("waveform samples must be finite")

    def value_at(self, t: float) -> float:
        if not (self.times[0] <= t <= self.times[-1]):
            raise ValueError(f"sample time {t} outside waveform span "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(t, self.times, self.values))


def _crossings(wf: Waveform, level: float, rising: bool) -> np.ndarray:
    a = wf.values[:-1]
    b = wf.values[1:]
    if rising:
        mask = (a < level) & (b >= level)
    else:
        mask = (a > level) & (b <= level)
    idx = np.nonzero(mask)[0]
    t0 = wf.times[idx]
    dt = wf.times[idx + 1] - t0
    return t0 + (level - a[idx]) * dt / (b[idx] - a[idx])


def _edge_time(wf: Waveform, v_lo: float, v_hi: float, rising: bool) -> float:
    """10-90% time of the first complete edge in one direction: from the
    latest crossing of the 10% (rising) or 90% (falling) level before the
    first crossing of the other level that has one."""
    name, edge = ("rise_time", "rising") if rising else ("fall_time", "falling")
    if not v_hi > v_lo:
        raise MeasureError(f"{name} needs v_hi > v_lo")
    swing = v_hi - v_lo
    lo = v_lo + 0.1 * swing
    hi = v_lo + 0.9 * swing
    start, end = (lo, hi) if rising else (hi, lo)
    t_end = _crossings(wf, end, rising)
    t_start = _crossings(wf, start, rising)
    for te in t_end:
        before = t_start[t_start <= te]
        if len(before):
            return float(te - before[-1])
    raise MeasureError(f"no complete {edge} transition found")


def rise_time(wf: Waveform, v_lo: float, v_hi: float) -> float:
    """10-90% rise time of the first complete rising transition."""
    return _edge_time(wf, v_lo, v_hi, rising=True)


def fall_time(wf: Waveform, v_lo: float, v_hi: float) -> float:
    """90-10% fall time of the first complete falling transition."""
    return _edge_time(wf, v_lo, v_hi, rising=False)


def prop_delay(in_wf: Waveform, out_wf: Waveform,
               v_mid_in: float, v_mid_out: float) -> float:
    """Worst 50-50% delay over all input crossings."""
    tin = np.sort(np.concatenate([_crossings(in_wf, v_mid_in, True),
                                  _crossings(in_wf, v_mid_in, False)]))
    tout = np.sort(np.concatenate([_crossings(out_wf, v_mid_out, True),
                                   _crossings(out_wf, v_mid_out, False)]))
    if not len(tin):
        raise MeasureError("input waveform never crosses its midpoint")
    if not len(tout):
        raise MeasureError("output waveform never crosses its midpoint")
    later = np.searchsorted(tout, tin)  # first output crossing at or after each
    if later[-1] == len(tout):
        ti = tin[later == len(tout)][0]
        raise MeasureError(f"no output crossing after input crossing at t={ti}")
    return float(np.max(tout[later] - tin))


def supply_power(v_wf: Waveform, i_wf: Waveform) -> tuple[float, float]:
    """Average and peak of p(t) = -v(t)*i(t) over the shared time axis."""
    if len(v_wf.times) != len(i_wf.times) or not np.array_equal(v_wf.times, i_wf.times):
        raise MeasureError("voltage and current waveforms have mismatched time axes")
    p = -(v_wf.values * i_wf.values)
    duration = v_wf.times[-1] - v_wf.times[0]
    avg = float(np.trapezoid(p, v_wf.times) / duration)
    return avg, float(p.max())


@dataclass
class MeasureReport:
    """The figures of merit of one run, one per field after technology;
    pdp and edp are derived from avg_power and prop_delay.  The times are
    non-negative; the power figures, and so pdp and edp, are signed."""

    technology: str
    max_power: float
    avg_power: float
    rise_time: float
    fall_time: float
    prop_delay: float
    pdp: float = field(init=False)
    edp: float = field(init=False)

    def __post_init__(self):
        self.pdp = self.avg_power * self.prop_delay
        self.edp = self.pdp * self.prop_delay
        for name in ("rise_time", "fall_time", "prop_delay"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


REPORT_COLUMNS = ("Technology", "Max power (W)", "Avg power (W)", "Rise (s)",
                  "Fall (s)", "Delay (s)", "PDP (J)", "EDP (J*s)")


def report_table(reports: list[MeasureReport], include_delay: bool = True) -> str:
    """Aligned text table, one row per report.

    ``include_delay=False`` drops the propagation-delay column for
    side-by-side technology tables where only edge figures are compared.
    """
    header = list(REPORT_COLUMNS)
    names = [f.name for f in fields(MeasureReport)[1:]]
    if not include_delay:
        header.remove("Delay (s)")
        names.remove("prop_delay")
    rows = [header]
    for r in reports:
        rows.append([r.technology] + ["%.6g" % getattr(r, name) for name in names])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)

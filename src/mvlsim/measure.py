"""Waveform container and the standard timing/power measures.

All measures interpolate linearly between samples.  Rise and fall times are
10-90% of the supplied swing and use the first complete transition;
propagation delay is 50%-to-50%, pairing each input crossing with the first
output crossing at or after it and returning the worst pair.  Supply power
uses p(t) = -v(t)*i(t) with the MNA branch-current convention (current into
the + terminal), so a delivering source has positive power.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def from_samples(cls, samples) -> "Waveform":
        arr = np.asarray(list(samples), dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    def value_at(self, t: float, strict: bool = True) -> float:
        if strict and not (self.times[0] <= t <= self.times[-1]):
            raise ValueError(f"sample time {t} outside waveform span "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(t, self.times, self.values))

    def shifted(self, dt: float) -> "Waveform":
        return Waveform(self.times + dt, self.values.copy())


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


def rise_time(wf: Waveform, v_lo: float, v_hi: float) -> float:
    """10-90% rise time of the first complete rising transition."""
    if not v_hi > v_lo:
        raise MeasureError("rise_time needs v_hi > v_lo")
    swing = v_hi - v_lo
    lo = v_lo + 0.1 * swing
    hi = v_lo + 0.9 * swing
    t_hi = _crossings(wf, hi, rising=True)
    t_lo = _crossings(wf, lo, rising=True)
    for th in t_hi:
        before = t_lo[t_lo <= th]
        if len(before):
            return float(th - before[-1])
    raise MeasureError("no complete rising transition found")


def fall_time(wf: Waveform, v_lo: float, v_hi: float) -> float:
    """90-10% fall time of the first complete falling transition."""
    if not v_hi > v_lo:
        raise MeasureError("fall_time needs v_hi > v_lo")
    swing = v_hi - v_lo
    lo = v_lo + 0.1 * swing
    hi = v_lo + 0.9 * swing
    t_lo = _crossings(wf, lo, rising=False)
    t_hi = _crossings(wf, hi, rising=False)
    for tl in t_lo:
        before = t_hi[t_hi <= tl]
        if len(before):
            return float(tl - before[-1])
    raise MeasureError("no complete falling transition found")


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
    worst = None
    for ti in tin:
        later = tout[tout >= ti]
        if not len(later):
            raise MeasureError(f"no output crossing after input crossing at t={ti}")
        d = float(later[0] - ti)
        worst = d if worst is None else max(worst, d)
    return worst


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
    technology: str
    max_power: float
    avg_power: float
    rise_time: float
    fall_time: float
    prop_delay: float
    pdp: float
    edp: float

    def __post_init__(self):
        for name in ("max_power", "avg_power", "rise_time", "fall_time",
                     "prop_delay", "pdp", "edp"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if abs(self.pdp - self.avg_power * self.prop_delay) > 1e-12 * abs(self.pdp) + 1e-30:
            raise ValueError("pdp must equal avg_power * prop_delay")
        if abs(self.edp - self.pdp * self.prop_delay) > 1e-12 * abs(self.edp) + 1e-40:
            raise ValueError("edp must equal pdp * prop_delay")


def figures(technology: str, max_power: float, avg_power: float,
            rise: float, fall: float, delay: float) -> MeasureReport:
    """Assemble the derived figures of merit from one run's measures."""
    pdp = avg_power * delay
    return MeasureReport(
        technology=technology,
        max_power=max_power,
        avg_power=avg_power,
        rise_time=rise,
        fall_time=fall,
        prop_delay=delay,
        pdp=pdp,
        edp=pdp * delay,
    )


REPORT_COLUMNS = ("Technology", "Max power (W)", "Avg power (W)", "Rise (s)",
                  "Fall (s)", "Delay (s)", "PDP (J)", "EDP (J*s)")


def report_table(reports: list[MeasureReport], include_delay: bool = True) -> str:
    """Aligned text table, one row per report.

    ``include_delay=False`` drops the propagation-delay column for
    side-by-side technology tables where only edge figures are compared.
    """
    header = list(REPORT_COLUMNS)
    if not include_delay:
        header.remove("Delay (s)")
    rows = [header]
    for r in reports:
        vals = [r.max_power, r.avg_power, r.rise_time, r.fall_time,
                r.prop_delay, r.pdp, r.edp]
        if not include_delay:
            del vals[4]
        rows.append([r.technology] + ["%.6g" % v for v in vals])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)

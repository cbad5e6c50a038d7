"""Pick the cmos32 transconductance constant.

The built-in cmos32 card is a behavioral stand-in for a 32 nm flow, not a
foundry model.  The one free knob worth tuning is the square-law k: device
capacitances and thresholds are set from plausible magnitudes, and k is
then chosen so that, at vdd = 1.2 V with 1 fF output loads,

  * a minimum inverter edge and
  * the slowest decoder output edge

both land inside a factor of two of the 174.38 ps anchor the decoder is
characterized against.  The window is a factor of four wide end to end, so
this script centers the geometric mean of the two times on the anchor,
which maximizes margin on both sides.

Run it after changing anything in the device or cell generators, then copy
the printed k into devices.py (_CMOS32_K).  It exits 1 if an edge lies
outside the window or if k had to move off the preset's value, so that a
check run catches a stale preset.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvlsim.cells import CellSpec, build_inverter  # noqa: E402
from mvlsim.characterize import RunConfig, run_decoder  # noqa: E402
from mvlsim.devices import preset  # noqa: E402
from mvlsim.engine import transient  # noqa: E402
from mvlsim.measure import fall_time, rise_time  # noqa: E402
from mvlsim.mvl import LevelMap  # noqa: E402
from mvlsim.netlist import Device, PwlStimulus, Transient  # noqa: E402

ANCHOR = 174.38e-12
VDD = 1.2
LOAD = 1e-15


def scaled_tech(k: float):
    base = preset("cmos32")
    return dataclasses.replace(
        base,
        nfet=dataclasses.replace(base.nfet, k=k),
        pfet=dataclasses.replace(base.pfet, k=k),
    )


def inverter_edges(k: float) -> tuple[float, float]:
    """(rise, fall) of a minimum inverter driving 1 fF."""
    tech = scaled_tech(k)
    spec = CellSpec(tech=tech, levels=LevelMap(2, VDD), load=LOAD)
    net = build_inverter(spec)
    # drive in: high for 5 ns (out low), drop to 0 (out rises), back up
    stim = PwlStimulus(points=(
        (0.0, VDD), (5e-9, VDD), (5.01e-9, 0.0),
        (10e-9, 0.0), (10.01e-9, VDD), (15e-9, VDD),
    ))
    net.devices.append(Device("vin", ("in", "0"), stimulus=stim))
    net.analyses.append(Transient(dt=2e-12, tstop=15e-9))
    ws = transient(net)
    out = ws.voltage("out")
    return rise_time(out, 0.0, VDD), fall_time(out, 0.0, VDD)


def decoder_worst_rise(k: float) -> float:
    run = run_decoder(RunConfig(tech="cmos32"), tech=scaled_tech(k))
    if not run.logic_ok:
        raise RuntimeError(f"decoder logic broke at k={k}")
    rises = [v for n, v in run.measures.items() if n.endswith("_rise") and v]
    return max(rises)


def main() -> int:
    k0 = k = preset("cmos32").nfet.k
    for it in range(6):
        inv_r, inv_f = inverter_edges(k)
        dec_r = decoder_worst_rise(k)
        inv = max(inv_r, inv_f)
        gmean = (inv * dec_r) ** 0.5
        print(f"k={k:.6e}  inv rise/fall={inv_r*1e12:.2f}/{inv_f*1e12:.2f} ps"
              f"  decoder rise={dec_r*1e12:.2f} ps  gmean={gmean*1e12:.2f} ps")
        if abs(gmean - ANCHOR) / ANCHOR < 0.01:
            break
        # edge times scale close to 1/k; correct k by the gmean ratio
        k *= gmean / ANCHOR
    lo, hi = ANCHOR / 2, ANCHOR * 2
    ok = lo <= inv_r <= hi and lo <= inv_f <= hi and lo <= dec_r <= hi
    print(f"window [{lo*1e12:.2f}, {hi*1e12:.2f}] ps: "
          f"{'all inside' if ok else 'OUT OF WINDOW'}")
    print(f"_CMOS32_K = {k:.6e}")
    if k != k0:
        print(f"k moved off the preset's {k0:.6e}: update _CMOS32_K")
    return 0 if ok and k == k0 else 1


if __name__ == "__main__":
    sys.exit(main())

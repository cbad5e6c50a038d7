"""Helpers that several test modules share: the pinned solver work of the
characterization runs, a DC drive for cell netlists, the ideal level
converter that their DC digit tables are scored against, the source values
the engine sets at a time point and the square law into buffers of its
own."""

import copy

import numpy as np

from mvlsim.devices import square_law
from mvlsim.mvl import Digit
from mvlsim.netlist import DcStimulus, Device, Netlist

# Steps and Newton iterations of the default decoder runs, and of the same
# runs on the fixed dt grid (dtmax=None).  A change that only makes each
# iteration cheaper leaves them as they are; a change to time stepping or
# convergence control updates them on purpose.
NEWTON_WORK = {"cmos32": (414, 756), "gnrfet32": (107, 237)}
FIXED_GRID_WORK = {"cmos32": (2000, 2336), "gnrfet32": (2000, 2121)}
# Steps, Newton iterations and rejected steps of the benchmark's
# digit_stream netlist at its default seed
DIGIT_STREAM_WORK = (2000, 5086, 0)
# Steps, Newton iterations and LTE rejections of the default decoder runs
# under the trapezoidal rule, whose capacitor history carries each
# accepted point's currents to the next step
TRAP_WORK = {"cmos32": (424, 761, 3), "gnrfet32": (1511, 3255, 1)}


def with_dc_input(net: Netlist, volts: float, node: str = "in",
                  name: str = "vin") -> Netlist:
    """Copy of a cell netlist with a DC source driving one of its nodes."""
    out = copy.deepcopy(net)
    out.devices.append(Device(name, (node, "0"), stimulus=DcStimulus(volts)))
    out.validate()
    return out


def ideal_vlc(i: int, x: Digit) -> Digit:
    """Ideal level converter: digit r-1 while x <= i, else digit 0."""
    r = x.radix
    if not 0 <= i <= r - 2:
        raise ValueError(f"vlc index {i} out of range for radix {r}")
    return Digit(r - 1 if x.value <= i else 0, r)


def source_values(nets: list[Netlist], ts: list[float]) -> np.ndarray:
    """Each netlist's voltage-source values at its own time ts[b], batch x
    nsrc, as the engine evaluates them: on each stimulus's PWL corners."""
    return np.array([[d.stimulus.pwl(t).value_at(t) for d in net.devices
                      if d.kind == "vsource"] for net, t in zip(nets, ts)])


def square_law_alloc(vth, k, lam, vgs, vds):
    """devices.square_law into three new arrays of the inputs' broadcast
    shape: (id, gm, gds), numpy scalars for scalar inputs."""
    shape = np.broadcast(vth, k, lam, vgs, vds).shape
    out = tuple(np.empty(shape) for _ in range(3))
    return tuple(a[()] for a in square_law(vth, k, lam, vgs, vds, out))

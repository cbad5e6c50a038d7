"""Helpers that several test modules share: a DC drive for cell netlists,
the ideal level converter that their DC digit tables are scored against,
the source values the engine sets at a time point and the square law into
buffers of its own."""

import copy

import numpy as np

from mvlsim.devices import square_law
from mvlsim.mvl import Digit
from mvlsim.netlist import DcStimulus, Device, Netlist


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

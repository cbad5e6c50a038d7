"""Helpers that several test modules share: a DC drive for cell netlists
and the ideal level converter that their DC digit tables are scored
against."""

import copy

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

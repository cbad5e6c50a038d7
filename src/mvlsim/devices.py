"""Device evaluation: square-law FETs and their technology cards.

The FET model is a symmetric SPICE level-1 square law.  A model card carries
a signed threshold voltage, a transconductance factor k (A/V^2), a
channel-length modulation term lambda (1/V) and two lumped capacitances:
cg from gate to source and cd from drain to ground.  ``square_law`` is the
N-channel law, element-wise over every FET of a circuit; for vds < 0 the
drain and source roles swap, which keeps the current continuous through
vds = 0.  The engine evaluates P-channel devices on the same law by sign
symmetry: it takes vgs = vs - vg and vds = vs - vd, flips the threshold
and swaps the device's ends, so its current runs source -> drain and
needs no sign.

No minimum off-conductance is added here; the solver applies gmin shunts
externally (see engine._GMIN).

Two built-in technology cards are shipped, ``cmos32`` and ``gnrfet32``.
Their numbers are calibrated behavioural values, not foundry extractions;
see ``preset`` and tools/calibrate_presets.py for how they were chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FetModelCard:
    """Level-1 FET card. vth is signed: >= 0 for N devices, <= 0 for P."""

    polarity: str  # "n" or "p"
    vth: float     # V
    k: float       # A/V^2
    lam: float     # 1/V, channel-length modulation
    cg: float      # F, lumped gate-source capacitance
    cd: float = 0.0  # F, lumped drain-ground capacitance

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        for name in ("vth", "k", "lam", "cg", "cd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.k > 0.0:
            raise ValueError("k must be > 0")
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.cg < 0.0 or self.cd < 0.0:
            raise ValueError("cg and cd must be >= 0")
        if self.polarity == "n" and self.vth < 0.0:
            raise ValueError("N-type card requires vth >= 0")
        if self.polarity == "p" and self.vth > 0.0:
            raise ValueError("P-type card requires vth <= 0")


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float array."""
    c = np.array(value)
    c.flags.writeable = False
    return c


# square_law's constant operands: numpy converts a Python float operand on
# every call, a 0-d array it reads as it is
_ZERO, _HALF, _ONE = _constant(0.0), _constant(0.5), _constant(1.0)


def square_law(vth, k, lam, vgs, vds, out):
    """N-channel square law, element-wise over numpy arrays.

    Returns (id, gm, gds): the drain current (positive drain-to-source) and
    its exact partial derivatives with respect to vgs and vds.  Regions:
    cutoff for vgs <= vth, triode for vds < vgs - vth, saturation otherwise,
    all scaled by (1 + lambda*vds).  For vds < 0 the drain and source roles
    swap and the gate is measured from the original drain:
    id = -f(vgs - vds, -vds), differentiated exactly.

    One clamped formula covers the three regions: with vov = max(vgs - vth, 0)
    and ve = min(vds, vov), id = k*ve*(vov - ve/2)*(1 + lambda*vds); ve = vds
    in triode, vov in saturation and 0 in cutoff.  The reversal needs no
    select: vgs - min(vds, 0) is the gate voltage either way; id and gm take
    the factor (1 + lambda*vds) with the sign of vds + 0 (which is +0 for
    vds = -0), so negated where vds < 0; gm is then <= 0 exactly there, as
    k > 0 and lambda >= 0 on every card, and gds - min(gm, 0) adds the
    reversed device's gm to its gds.  All of it is exact.

    out is a tuple of three float arrays of the inputs' broadcast shape
    that receive id, gm and gds and are returned: the engine passes slices
    of its own buffers, so its Newton updates copy no device output.  The
    constants 0, 1/2 and 1 are the read-only 0-d float64 arrays _ZERO,
    _HALF and _ONE: float64 arithmetic as with Python floats, without
    their conversion on every call.
    """
    sign = vds + _ZERO
    vgs = vgs - np.minimum(vds, _ZERO)
    vds = np.abs(vds)
    vov = np.maximum(vgs - vth, _ZERO)
    ve = np.minimum(vds, vov)
    cl = _ONE + lam * vds
    signed = np.copysign(cl, sign)
    kq = k * (ve * (vov - _HALF * ve))
    i, gm, gds = out
    np.multiply(kq, signed, i)
    np.multiply(k * ve, signed, gm)
    np.multiply(k * (vov - ve), cl, gds)
    gds += kq * lam
    gds -= np.minimum(gm, _ZERO)
    return out


@dataclass(frozen=True)
class TechnologyCard:
    """A named pair of N/P cards plus a free-text provenance note."""

    name: str
    nfet: FetModelCard
    pfet: FetModelCard
    note: str = ""

    def __post_init__(self):
        if self.nfet.polarity != "n" or self.pfet.polarity != "p":
            raise ValueError("technology card needs one N and one P device")


# Behavioural 32 nm-class cards.  cmos32 k is calibrated so that a minimum
# inverter driving 1 fF at vdd = 1.2 V shows a 10-90% rise time within 2x of
# 174 ps (tools/calibrate_presets.py, which also checks the decoder-level
# rise window).  gnrfet32 keeps the same thresholds with ~30x the drive and
# 4x smaller parasitics, which is the modelled advantage of the graphene
# nanoribbon devices.
_CMOS32_NOTE = (
    "behavioural 32 nm CMOS card; k calibrated with tools/calibrate_presets.py "
    "so a minimum inverter driving 1 fF at 1.2 V rises (10-90%) within 2x of "
    "174 ps; lambda and caps are representative, not extracted"
)
_GNRFET32_NOTE = (
    "behavioural 32 nm GNRFET card derived from cmos32 by fixed "
    "ratios: same thresholds, k = 30x cmos32, cg/cd = cmos32/4"
)

_CMOS32_K = 3.35e-05
_CMOS32_CG = 8e-17
_CMOS32_CD = 6e-17

_PRESETS = {
    "cmos32": TechnologyCard(
        name="cmos32",
        nfet=FetModelCard("n", 0.3, _CMOS32_K, 0.05, _CMOS32_CG, _CMOS32_CD),
        pfet=FetModelCard("p", -0.3, _CMOS32_K, 0.05, _CMOS32_CG, _CMOS32_CD),
        note=_CMOS32_NOTE,
    ),
    "gnrfet32": TechnologyCard(
        name="gnrfet32",
        nfet=FetModelCard("n", 0.3, 30.0 * _CMOS32_K, 0.05, _CMOS32_CG / 4.0,
                          _CMOS32_CD / 4.0),
        pfet=FetModelCard("p", -0.3, 30.0 * _CMOS32_K, 0.05, _CMOS32_CG / 4.0,
                          _CMOS32_CD / 4.0),
        note=_GNRFET32_NOTE,
    ),
}


def preset(name: str) -> TechnologyCard:
    """Look up a built-in technology card by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown technology preset {name!r}; available: "
            + ", ".join(sorted(_PRESETS))
        ) from None


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)

"""Fixtures shared by the device, engine and acceptance tests."""

import numpy as np
import pytest

from mvlsim.engine import _Circuit
from mvlsim.netlist import model_line, parse


@pytest.fixture
def one_fet():
    """Factory: one_fet(card) gives a function (vgs, vds) -> (F, J), the KCL
    residual and Jacobian that _Circuit.residual computes for
    one FET of that card, its gate and drain held by sources and its source
    and bulk at ground.  Unknowns: v(g), v(d), i(vg), i(vd); row 1 of F is
    the drain current plus the drain's gmin shunt current."""
    def make(card):
        net = parse(f"* one fet\n{model_line('q', card)}\nvg g 0 dc 0\n"
                    "vd d 0 dc 0\nm1 d g 0 0 q\n.end\n")
        ckt = _Circuit([net])
        assert ckt.node_names == ["g", "d"]
        open_caps = np.zeros(len(ckt.cap_c))
        ckt.set_conductances(open_caps, 0.0)

        def at(vgs, vds):
            x = np.array([[vgs, vds, 0.0, 0.0, 0.0]])
            ckt.set_sources(open_caps, np.array([[vgs, vds]]))
            f = ckt.residual(x)
            return f[0], ckt.jac_blocks[0]
        return at
    return make

"""The step controller against an exact oracle: linear RC ladders driven by
PWL ramps, solved in closed form.

A ladder's node voltages v obey C dv/dt = -G v + B u(t), with C diagonal, G
the conductances among the nodes (with those to the two sources on its
diagonal) and u the source voltages.  So y = C^(1/2) v obeys
dy/dt = -A y + C^(-1/2) B u with A = C^(-1/2) G C^(-1/2) symmetric, and in
the eigenbasis of A (numpy's eigh; Golub and Van Loan, Matrix Computations,
sec. 8.1) each mode z_k = (Q^T y)_k obeys dz/dt = -lam z + b(t), which
integrates exactly over a step on which b is linear:

    z(t0 + h) = e^(-lam h) z0 + phi1 b(t0) + phi2 b',
    phi1 = (1 - e^(-lam h)) / lam,  phi2 = (lam h - (1 - e^(-lam h))) / lam^2.

The engine forces a time point at every corner of its sources, so every
step it takes is such a step.  The local error of a step is the distance
from the engine's point at the step's end to the exact solution from the
engine's own point at its start; the global error is the distance to the
exact solution from the DC point (Hairer, Norsett and Wanner, Solving ODEs
I, sec. II.3).
"""

import numpy as np
import pytest

from mvlsim import engine
from mvlsim.engine import SolveOptions, _Member, transient_batch
from mvlsim.netlist import parse

NODES = 4
RULES = ("backward_euler", "trapezoidal")


def ladders(count, seed=19):
    """count random ladders, a NODES-node chain from source va through a
    resistor to n1, ..., nNODES and through a resistor to source vb, a
    capacitor from each node to ground; as (R, C, va corners, vb corners)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        r = rng.uniform(500.0, 2000.0, NODES + 1).tolist()
        c = rng.uniform(0.3e-12, 2e-12, NODES).tolist()
        ramps = []
        for _ in range(2):
            # three holds, each ended by a ramp, with corners on a 40 ps
            # grid, so that each falls on the fixed grids below
            edges = (np.sort(rng.choice(np.arange(5, 190), 6, replace=False)) * 40e-12).tolist()
            levels = rng.uniform(0.0, 1.2, 4).tolist()
            ramps.append([(0.0, levels[0])] + [(t, levels[(i + 1) // 2])
                                               for i, t in enumerate(edges)])
        out.append((r, c, *ramps))
    return out


def netlist(ladder, tran):
    r, c, va, vb = ladder
    names = ["a"] + [f"n{i + 1}" for i in range(NODES)] + ["b"]
    lines = ["* rc ladder"]
    for name, corners in (("va", va), ("vb", vb)):
        pwl = " ".join(f"{t!r} {v!r}" for t, v in corners)
        lines.append(f"{name} {name[1]} 0 pwl({pwl})")
    lines += [f"r{i} {names[i]} {names[i + 1]} {r[i]!r}" for i in range(NODES + 1)]
    lines += [f"c{i + 1} n{i + 1} 0 {c[i]!r}" for i in range(NODES)]
    return parse("\n".join(lines + [tran, ".end"]) + "\n")


class Oracle:
    """The exact solution of one ladder, in the modes z = Q^T C^(1/2) v."""

    def __init__(self, ladder, net):
        r, c, _, _ = ladder
        g = np.zeros((NODES, NODES))
        for i in range(NODES + 1):  # resistor i joins node i-1 and node i
            for j in (i - 1, i):
                if 0 <= j < NODES:
                    g[j, j] += 1.0 / r[i]
            if 0 < i < NODES:
                g[i - 1, i] = g[i, i - 1] = -1.0 / r[i]
        b = np.zeros((NODES, 2))
        b[0, 0], b[-1, 1] = 1.0 / r[0], 1.0 / r[-1]
        sources = [d.stimulus for d in net.devices if d.kind == "vsource"]
        self.u = lambda t: np.array([s.value_at(t) for s in sources])
        self.v_dc = np.linalg.solve(g, b @ self.u(0.0))
        self.s = 1.0 / np.sqrt(c)  # C^(-1/2)
        self.lam, self.q = np.linalg.eigh(self.s[:, None] * g * self.s[None, :])
        self.p = self.q.T @ (self.s[:, None] * b)

    def to_modes(self, v):
        return (v / self.s) @ self.q

    def to_nodes(self, z):
        return (z @ self.q.T) * self.s

    def steps(self, t):
        """e and c such that z(t[k+1]) = e[k] * z(t[k]) + c[k] exactly, for
        each step k."""
        h = np.diff(t)[:, None]
        lh = self.lam * h
        em1 = np.expm1(-lh)
        b = np.array([self.u(tk) for tk in t]) @ self.p.T
        phi1, phi2 = -em1 / self.lam, (lh + em1) / self.lam ** 2
        return em1 + 1.0, phi1 * b[:-1] + phi2 * (b[1:] - b[:-1]) / h


def errors(ladder, net, wset):
    """The local error of each step and the global error at each point, the
    largest over the ladder's nodes."""
    oracle = Oracle(ladder, net)
    v = np.column_stack([wset.voltage(f"n{i + 1}").values for i in range(NODES)])
    e, c = oracle.steps(wset.times)
    local = oracle.to_nodes(e * oracle.to_modes(v[:-1]) + c)
    exact = [oracle.to_modes(oracle.v_dc)]
    for ek, ck in zip(e, c):
        exact.append(ek * exact[-1] + ck)
    return (np.max(np.abs(v[1:] - local), axis=1),
            np.max(np.abs(v - oracle.to_nodes(np.array(exact))), axis=1))


@pytest.fixture(scope="module", params=RULES)
def runs(request):
    """One batch per rule: three drawn ladders under step control, then the
    first on the fixed grids of dt = tstop/1000 and half that.  Returns the
    rule and, per member, its netlist, WaveformSet and errors."""
    drawn = ladders(3)
    members = [(ladder, ".tran 1p 8n 1n") for ladder in drawn]
    members += [(drawn[0], f".tran {dt} 8n") for dt in ("8p", "4p")]
    nets = [netlist(ladder, tran) for ladder, tran in members]
    wsets = transient_batch(nets, opts=SolveOptions(integration=request.param))
    return request.param, [(net, wset, *errors(ladder, net, wset))
                           for (ladder, _), net, wset in zip(members, nets, wsets)]


def test_free_steps_keep_their_local_error_within_the_tolerance(runs):
    rule, members = runs
    worst_free = worst_floor = worst_global = 0.0
    for net, wset, local, glob in members[:3]:
        sources = [d.stimulus for d in net.devices if d.kind == "vsource"]
        floor = _Member(sources, net.analyses[0]).floor
        free = np.diff(wset.times) > floor * (1.0 + 1e-9)
        assert free.any() and not free.all()
        worst_free = max(worst_free, local[free].max())
        worst_floor = max(worst_floor, local[~free].max())
        worst_global = max(worst_global, glob.max())
    print(f"{rule}: largest local error {worst_free * 1e3:.3g} mV on a free step, "
          f"{worst_floor * 1e3:.3g} mV on a floor step; largest global error "
          f"{worst_global * 1e3:.3g} mV")
    assert worst_free <= engine._LTE_TOL


# the global error's ratio over a halving of the fixed step, about 2**p for
# a rule of order p; measured 1.996 (backward Euler) and 4.00 (trapezoidal)
HALVING = {"backward_euler": (1.95, 2.05), "trapezoidal": (3.9, 4.1)}


def test_halving_the_fixed_step_divides_the_global_error_by_two_to_the_order(runs):
    rule, members = runs
    (_, coarse, _, e1), (_, fine, _, e2) = members[3:]
    assert (len(coarse.times), len(fine.times)) == (1001, 2001)
    print(f"{rule}: largest global error {e1.max() * 1e3:.4g} mV at 8 ps and "
          f"{e2.max() * 1e3:.4g} mV at 4 ps, ratio {e1.max() / e2.max():.4f}")
    low, high = HALVING[rule]
    assert low < e1.max() / e2.max() < high

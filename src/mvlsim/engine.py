"""Modified nodal analysis: Newton DC operating point and fixed-step transient.

Unknowns are the non-ground node voltages followed by one branch current per
voltage source (current into the + terminal).  Each circuit is compiled once
into index arrays over three kinds of branch:

  * linear branches a -> b carrying i = g*(v[a] - v[b]) + i0: resistors,
    capacitor companions, a constant gmin shunt on every FET drain/source
    node (so that fully cut-off stacks keep a DC path to ground) and the
    gmin-stepping shunts from every node to ground;
  * FET branches drain -> source, all evaluated by one element-wise
    square-law pass (devices.square_law);
  * voltage-source branches, whose currents are unknowns.

Ground is index n, one past the last unknown: every solution vector carries
a trailing 0 there, so no stamp tests for ground, and row and column n are
sliced off the scattered sums.  ``_Circuit.linearize`` computes the branch
currents once and scatters them into the KCL residual F, the largest branch
current at each node and, with the branch derivatives, the Jacobian dF/dx
(Ho, Ruehli and Brennan, IEEE TCAS 1975).  Newton solves J dx = -F and
converges when both a small update step and a small true KCL residual hold
at every node:

    |sum of branch currents| <= abstol + reltol * max |branch current|
    |dx| <= vtol for every unknown

Each Newton step is one LAPACK solve (np.linalg.solve) of J dx = -F together
with a fixed probe right-hand side.  When LAPACK fails, dx is not finite or
the probe's solution shows a near-zero pivot, the dense LU with partial
pivoting (_lu_solve) solves the step instead: it decides whether the matrix
is singular and names the pivot in SingularMatrixError.

If the plain DC solve fails, it is retried with gmin stepping: shunts of
gmin * 10**(gmin_steps - s) from every node to ground for s = 0..gmin_steps,
each solution seeding the next.  A DC solve sets the capacitor companions
to zero, which leaves the capacitors open.

Transient analysis marches a fixed step with forced breakpoints at PWL
corners and PULSE edges; breakpoints closer together than a millionth of
the step are merged.  The step is clamped to tstop/1000 and to a tenth of
the shortest stimulus edge.  Every capacitor, the FETs' lumped cg and cd
included, becomes a companion conductance/history-current pair; backward
Euler is the default rule, trapezoidal is selectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devices import cap_companion, square_law
from .measure import Waveform
from .netlist import Netlist, Transient


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"singular matrix (zero pivot at index {pivot})")


class ConvergenceError(RuntimeError):
    """Newton failed.  t is the time point (None for a DC solve), node the
    worst KCL node at the last iterate evaluated, excess its KCL excess in A
    and iteration the number of Newton updates taken."""

    def __init__(self, message: str, t: float | None = None,
                 node: str | None = None, excess: float | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.t, self.node, self.excess, self.iteration = t, node, excess, iteration


@dataclass
class SolveOptions:
    abstol: float = 1e-9        # A, KCL residual floor
    reltol: float = 1e-4        # scales the largest branch current per node
    vtol: float = 1e-6          # V, Newton update tolerance
    max_newton_iters: int = 100
    gmin: float = 1e-12         # S
    gmin_steps: int = 10
    integration: str = "backward_euler"  # or "trapezoidal"
    enable_gmin: bool = True

    def __post_init__(self):
        for name in ("abstol", "reltol", "vtol", "gmin"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.max_newton_iters < 1 or self.gmin_steps < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.integration not in ("backward_euler", "trapezoidal"):
            raise ValueError(f"unknown integration rule {self.integration!r}")


@dataclass
class MnaSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    index: dict[str, int]  # unknown name -> row; nodes then "i(<source>)"

    @property
    def dimension(self) -> int:
        return len(self.rhs)


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense LU with partial pivoting; raises SingularMatrixError."""
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = a.shape[0]
    if n == 0:
        return x
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    thresh = 1e-14 * norm
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= thresh:
            raise SingularMatrixError(k)
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        mult = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(mult, a[k, k + 1:])
        x[k + 1:] -= mult * x[k]
    for i in range(n - 1, -1, -1):
        if abs(a[i, i]) <= thresh:
            raise SingularMatrixError(i)
        x[i] = (x[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


# Partial pivoting keeps |l_ij| <= 1, so a pivot d of _lu_solve bounds the
# smallest singular value by n*d, and a pivot at its threshold of
# 1e-14*|A|inf drives |z|inf*|A|inf/|p|inf for the probe p towards 1e14,
# less a factor n**1.5 and the probe's share along the near-null direction.
# Falling back from 1e8 leaves six decades for those two factors.  The
# decoder's transient Jacobians stay below 1e6; its DC Jacobians, whose
# cut-off nodes hang on gmin alone, exceed 1e12 and take the fallback.
_PROBE_KAPPA = 1e8


def _probe_rhs(n: int) -> np.ndarray:
    """An n x 2 right-hand side buffer; column 1 holds the probe cos(1..n)."""
    rhs = np.empty((n, 2))
    rhs[:, 1] = np.cos(np.arange(1.0, n + 1.0))
    return rhs


def _solve(a: np.ndarray, b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by one LAPACK call; _lu_solve decides doubtful systems.

    b is copied into column 0 of rhs (from _probe_rhs) and solved together
    with the probe.  If LAPACK fails, x is not finite or the probe's solution
    is as large as a pivot near _lu_solve's threshold would make it, the
    system is solved again by _lu_solve, which raises SingularMatrixError on
    every system it would reject on its own.
    """
    rhs[:, 0] = b
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        pass
    else:
        xmax, zmax = np.abs(sol).max(axis=0, initial=0.0).tolist()
        norm = np.abs(a).sum(axis=1).max(initial=0.0)
        if xmax < math.inf and zmax * norm < _PROBE_KAPPA:  # |probe|inf <= 1
            return sol[:, 0]
    return _lu_solve(a, b)


def solve_linear(system: MnaSystem) -> np.ndarray:
    """Solve system.matrix @ x = system.rhs.

    LAPACK solves; singular and near-singular systems go to a dense LU with
    partial pivoting, which raises SingularMatrixError naming the pivot.
    """
    return _solve(system.matrix, system.rhs, _probe_rhs(len(system.rhs)))


@dataclass
class RunStats:
    steps: int = 0
    newton_iterations: int = 0
    kcl_excess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # kcl_excess[i] = max over nodes of (|residual| - reltol*scale) at point i;
    # every accepted point satisfies kcl_excess[i] <= abstol.


@dataclass
class WaveformSet:
    times: np.ndarray
    voltages: dict[str, Waveform]
    currents: dict[str, Waveform]
    stats: RunStats

    def voltage(self, node: str) -> Waveform:
        return self.voltages[node.lower()]

    def current(self, source: str) -> Waveform:
        return self.currents[source.lower()]

    def to_csv(self) -> str:
        cols = ["time"] + list(self.voltages) + [f"i({n})" for n in self.currents]
        series = ([self.times] + [w.values for w in self.voltages.values()]
                  + [w.values for w in self.currents.values()])
        lines = [",".join(cols)]
        for i in range(len(self.times)):
            lines.append(",".join(repr(float(s[i])) for s in series))
        return "\n".join(lines) + "\n"


# Breakpoints closer together than this fraction of the step are merged, so
# that no step is so short that the c/h companions swamp the matrix.
_MIN_SEPARATION = 1e-6


def _column(rows, i, dtype=float) -> np.ndarray:
    return np.array([r[i] for r in rows], dtype=dtype)


class _Circuit:
    """A netlist compiled once into branch index arrays; ground is index n."""

    def __init__(self, net: Netlist, opts: SolveOptions):
        net.validate()
        self.opts = opts
        nodes = net.nodes
        self.node_names = nodes[1:]  # non-ground
        self.nv = nv = len(nodes) - 1
        self.vsources = [d for d in net.devices if d.kind == "vsource"]
        self.stimuli = [d.stimulus for d in self.vsources]
        self.n = n = nv + len(self.vsources)
        node_of = {name: i - 1 for i, name in enumerate(nodes)}
        node_of["0"] = n
        res, caps, fets = [], [], []
        for d in net.devices:
            t = [node_of[name] for name in d.terminals]
            if d.kind == "resistor":
                res.append((t[0], t[1], 1.0 / d.params["resistance"]))
            elif d.kind == "capacitor":
                caps.append((t[0], t[1], d.params["capacitance"]))
            elif d.kind == "fet":
                card = net.models[d.model]
                m = d.params.get("m", 1.0)
                sign = 1.0 if card.polarity == "n" else -1.0
                fets.append((t[0], t[1], t[2], sign, sign * card.vth,
                             card.k * m, card.lam))
                caps += [(t[1], t[2], card.cg * m), (t[0], n, card.cd * m)]
        caps = [cap for cap in caps if cap[2] > 0.0]
        gmin_nodes = sorted({i for f in fets for i in (f[0], f[2])} - {n})
        idx = np.intp

        self.cap_a, self.cap_b = _column(caps, 0, idx), _column(caps, 1, idx)
        self.cap_c = _column(caps, 2)
        self.cap_branches = slice(len(res), len(res) + len(caps))
        # linear branches: resistors, capacitors, gmin shunts, stepping shunts
        self.g_res = _column(res, 2)
        self.g_gmin = np.full(len(gmin_nodes),
                              opts.gmin if opts.enable_gmin else 0.0)
        la = np.concatenate((_column(res, 0, idx), self.cap_a,
                             np.array(gmin_nodes, idx), np.arange(nv)))
        lb = np.concatenate((_column(res, 1, idx), self.cap_b,
                             np.full(len(gmin_nodes) + nv, n)))
        fd, fg, fs = (_column(fets, i, idx) for i in range(3))
        self.sign, self.vth, self.k, self.lam = (_column(fets, i)
                                                 for i in range(3, 7))
        sp = np.array([node_of[d.terminals[0]] for d in self.vsources], idx)
        sm = np.array([node_of[d.terminals[1]] for d in self.vsources], idx)
        rows = np.arange(nv, n)
        self.la, self.lb, self.fd, self.fg, self.fs = la, lb, fd, fg, fs
        self.sp, self.sm = sp, sm
        # branch currents run from these nodes (first half) to these (second)
        self.ends = np.concatenate((la, fd, sp, lb, fs, sm))
        # flat COO indices of the Jacobian entries, in linearize's order
        jr = np.concatenate((la, la, lb, lb, fd, fd, fd, fs, fs, fs,
                             sp, sm, rows, rows))
        jc = np.concatenate((la, lb, la, lb, fg, fd, fs, fg, fd, fs,
                             rows, rows, sp, sm))
        self.flat = jr * (n + 1) + jc
        ones = np.ones(len(sp))
        self.src_w = np.concatenate((ones, -ones, ones, -ones))
        self.rhs = _probe_rhs(n)

    def source_values(self, times) -> np.ndarray:
        """Source values, one row per time point."""
        return np.array([[s.value_at(t) for s in self.stimuli] for t in times])

    def linearize(self, x, svals, geq, ihist, shunt):
        """KCL residual F, per-node current scale and Jacobian dF/dx at x.

        x carries the ground 0 at index n.  geq and ihist are the capacitor
        companions (zeros for DC) and shunt the gmin-stepping conductance
        from every node to ground.  The scale of a node is its largest
        |branch current|; F's source rows hold the source constraints.
        """
        n, nv = self.n, self.nv
        g = np.concatenate((self.g_res, geq, self.g_gmin, np.full(nv, shunt)))
        i_lin = g * (x[self.la] - x[self.lb])
        i_lin[self.cap_branches] += ihist
        s = self.sign
        i_fet, gm, gds = square_law(self.vth, self.k, self.lam,
                                    s * (x[self.fg] - x[self.fs]),
                                    s * (x[self.fd] - x[self.fs]))
        cur = np.concatenate((i_lin, s * i_fet, x[nv:n]))
        cur = np.concatenate((cur, -cur))
        f = np.bincount(self.ends, cur, minlength=n + 1)[:n]
        f[nv:] = x[self.sp] - x[self.sm] - svals
        scale = np.zeros(n + 1)
        np.maximum.at(scale, self.ends, np.abs(cur))
        gms = gm + gds
        w = np.concatenate((g, -g, -g, g, gm, gds, -gms, -gm, -gds, gms,
                            self.src_w))
        jac = np.bincount(self.flat, w, minlength=(n + 1) ** 2)
        return f, scale[:nv], jac.reshape(n + 1, n + 1)[:n, :n]

    def newton(self, x, svals, geq, ihist, shunt, t=None, label=""):
        """Newton-Raphson on J dx = -F to the dual (residual + step) criterion.

        t is the time point, None for a DC solve; label (DC only) names the
        solve in error messages.
        """
        opts = self.opts
        n, nv = self.n, self.nv
        vlimit = max(1.0, 2.0 * np.max(np.abs(svals), initial=0.0))
        last_dx = math.inf
        diverged = False
        for it in range(opts.max_newton_iters + 1):
            f, scale, jac = self.linearize(x, svals, geq, ihist, shunt)
            excess = np.abs(f[:nv]) - opts.reltol * scale
            worst = int(np.argmax(excess)) if nv else -1
            err = float(excess[worst]) if nv else 0.0
            if err <= opts.abstol and last_dx <= opts.vtol:
                return x, it, err
            if it == opts.max_newton_iters:
                break
            dx = _solve(jac, -f, self.rhs)
            np.clip(dx[:nv], -vlimit, vlimit, out=dx[:nv])
            x = np.append(x[:n] + dx, 0.0)
            diverged = not np.all(np.isfinite(x))
            if diverged:
                break
            last_dx = float(np.max(np.abs(dx), initial=0.0))
        where = label if t is None else f" at t={t:.6g}s"
        name = self.node_names[worst] if worst >= 0 else "?"
        if diverged:
            raise ConvergenceError(f"solution diverged{where}", t=t, node=name,
                                   excess=err, iteration=it + 1)
        raise ConvergenceError(
            f"Newton failed after {opts.max_newton_iters} iterations"
            f"{where}; worst node {name!r} (KCL excess {err:.3e} A)",
            t=t, node=name, excess=err, iteration=it)

    def solve_dc(self, svals):
        """DC solution with gmin-stepping fallback; caps are open."""
        opts = self.opts
        zeros = np.zeros(len(self.cap_c))
        x0 = np.zeros(self.n + 1)
        try:
            return self.newton(x0, svals, zeros, zeros, 0.0, label=" (dc)")
        except (ConvergenceError, SingularMatrixError):
            if not opts.enable_gmin:
                raise
        x = x0
        for s in range(opts.gmin_steps + 1):
            shunt = opts.gmin * 10.0 ** (opts.gmin_steps - s)
            x, iters, excess = self.newton(x, svals, zeros, zeros, shunt,
                                           label=f" (gmin step {s})")
        return x, iters, excess


def mna_system(net: Netlist, t: float = 0.0, x: np.ndarray | None = None,
               opts: SolveOptions | None = None) -> MnaSystem:
    """The linearized MNA system at operating point x (zeros by default).

    The matrix is the Jacobian J and the rhs is J x - F, so the solution is
    the next Newton iterate.  For passive circuits this is the exact system;
    for FET circuits it is one Newton iterate's matrix.  Useful for
    inspection and tests.
    """
    opts = opts or SolveOptions()
    ckt = _Circuit(net, opts)
    xv = np.zeros(ckt.n) if x is None else np.asarray(x, dtype=float)
    zeros = np.zeros(len(ckt.cap_c))
    f, _scale, jac = ckt.linearize(np.append(xv, 0.0),
                                   ckt.source_values([t])[0], zeros, zeros, 0.0)
    index = {name: i for i, name in enumerate(ckt.node_names)}
    for j, d in enumerate(ckt.vsources):
        index[f"i({d.name})"] = ckt.nv + j
    return MnaSystem(matrix=jac, rhs=jac @ xv - f, index=index)


def dc_operating_point(net: Netlist, opts: SolveOptions | None = None) -> dict[str, float]:
    """Node voltages of the DC operating point (sources at their t=0 values)."""
    opts = opts or SolveOptions()
    ckt = _Circuit(net, opts)
    x, _iters, _excess = ckt.solve_dc(ckt.source_values([0.0])[0])
    return {name: float(x[i]) for i, name in enumerate(ckt.node_names)}


def _segment_times(ckt: _Circuit, analysis: Transient) -> tuple[list[float], list[float]]:
    """Time points from 0 to tstop and the steps between them.

    Breakpoints closer together than _MIN_SEPARATION * dt are merged first;
    each segment between breakpoints is then cut into equal steps <= dt.
    """
    tstop = analysis.tstop
    dt = min(analysis.dt, tstop / 1000.0)
    if analysis.dtmax is not None:
        dt = min(dt, analysis.dtmax)
    edges = [e for stim in ckt.stimuli if (e := stim.min_edge()) is not None]
    if edges:
        dt = min(dt, min(edges) / 10.0)
    bps = {0.0, tstop}
    for stim in ckt.stimuli:
        bps.update(stim.breakpoints(tstop))
    merged = [0.0]
    for t in sorted(bps)[1:]:
        if t - merged[-1] >= _MIN_SEPARATION * dt:
            merged.append(t)
    merged[-1] = tstop
    times, steps = [0.0], []
    for t0, t1 in zip(merged, merged[1:]):
        nsub = max(1, int(math.ceil((t1 - t0) / dt - 1e-9)))
        h = (t1 - t0) / nsub
        times += [t0 + j * h for j in range(1, nsub)] + [t1]
        steps += [h] * nsub
    return times, steps


def transient(net: Netlist, analysis: Transient | None = None,
              opts: SolveOptions | None = None) -> WaveformSet:
    """Fixed-step transient from the t=0 operating point.

    Stimulus breakpoints, merged where closer together than a millionth of
    the step, are forced onto the time grid; each segment between
    breakpoints is subdivided uniformly with steps no larger than the
    clamped dt.  Identical inputs produce bit-identical WaveformSets.
    """
    opts = opts or SolveOptions()
    if analysis is None:
        trans = [a for a in net.analyses if isinstance(a, Transient)]
        if not trans:
            raise ValueError("netlist has no .tran analysis")
        analysis = trans[0]
    ckt = _Circuit(net, opts)
    times, steps = _segment_times(ckt, analysis)
    svals = ckt.source_values(times)
    ca, cb, c = ckt.cap_a, ckt.cap_b, ckt.cap_c

    x, total_iters, excess = ckt.solve_dc(svals[0])
    cap_v, cap_i = x[ca] - x[cb], np.zeros(len(c))
    solutions = [x]
    excesses = [excess]
    for t, h, sv in zip(times[1:], steps, svals[1:]):
        geq, ihist = cap_companion(c, cap_v, cap_i, h, opts.integration)
        x, iters, excess = ckt.newton(x, sv, geq, ihist, 0.0, t=t)
        total_iters += iters
        cap_v = x[ca] - x[cb]
        cap_i = geq * cap_v + ihist
        solutions.append(x)
        excesses.append(excess)

    tarr = np.array(times)
    sol = np.array(solutions)
    voltages = {name: Waveform(tarr, sol[:, i])
                for i, name in enumerate(ckt.node_names)}
    currents = {d.name: Waveform(tarr, sol[:, ckt.nv + j])
                for j, d in enumerate(ckt.vsources)}
    stats = RunStats(steps=len(times) - 1, newton_iterations=total_iters,
                     kcl_excess=np.array(excesses))
    return WaveformSet(times=tarr, voltages=voltages, currents=currents,
                       stats=stats)

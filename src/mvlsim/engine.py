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
sliced off the scattered sums.  The branch currents are computed once and
scattered (np.bincount) into the KCL residual F, the largest branch current
at each node and, with the branch derivatives, the Jacobian dF/dx (Ho,
Ruehli and Brennan, IEEE TCAS 1975).  Newton solves J dx = -F and converges
when both a small update step and a small true KCL residual hold at every
node:

    |sum of branch currents| <= abstol + reltol * max |branch current|
    |dx| <= vtol for every unknown

A batch of B netlists with the same nodes and sources is compiled as the
disjoint union of its members' branches: member b's unknowns and its own
ground slot sit at offset b*(n+1) of one flat vector, so one scatter serves
the whole batch and the Jacobian reshapes to B blocks of n x n.  Newton runs
the members in lockstep: each keeps its own convergence test, update clip
and divergence check, and a member that has converged is frozen, so its
solution, iteration count and KCL excess are exactly those of a run alone.
The members still iterating are solved together.  A member that fails drops
out, and so do the members after it; the batch then raises the failure of
its lowest-index failing member.  ``transient_batch`` groups its netlists by
time grid and runs each group in lockstep; ``transient`` is a batch of one.

Each Newton step is one LAPACK solve (np.linalg.solve) of the stacked
J dx = -F together with a fixed probe right-hand side.  For a member where
LAPACK fails, dx is not finite or the probe's solution shows a near-zero
pivot, the dense LU with partial pivoting (_lu_solve) solves the step
instead: it decides whether the matrix is singular and names the pivot in
SingularMatrixError.

If the plain DC solve fails, it is retried with gmin stepping: shunts of
gmin * 10**(gmin_steps - s) from every node to ground for s = 0..gmin_steps,
each solution seeding the next.  A DC solve sets the capacitor companions
to zero, which leaves the capacitors open.

Transient analysis marches a fixed step with forced breakpoints at PWL
corners and PULSE edges; breakpoints closer together than a millionth of
the step are merged.  The step is clamped to tstop/1000 and to a tenth of
the shortest stimulus edge.  Every capacitor, the FETs' lumped cg and cd
included, becomes a companion conductance/history-current pair; backward
Euler is the default rule, trapezoidal is selectable.  The conductances and
the Jacobian of the linear branches depend on the step alone and are built
again only when it changes.

Newton at each time point starts from a linear predictor through the last
two accepted points (Nagel, SPICE2, UCB/ERL M520, 1975):

    x0 = x[k-1] + (h[k] / h[k-1]) * (x[k-1] - x[k-2])

with h[k] the step to point k; the first step after the DC point starts
from the DC solution.  Where the waveform is locally linear the first
update already meets the step test, so a step costs one solve, not two.
The predictor is element-wise per member, so batching stays bitwise exact.
Compared with the corrected solution, it is also the building block of a
local truncation error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devices import cap_companion, square_law
from .measure import Waveform
from .netlist import Netlist, Transient


class SingularMatrixError(RuntimeError):
    """A linear solve met a zero pivot.  member is set by transient_batch to
    the index of the failing netlist."""

    member: int | None = None

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"singular matrix (zero pivot at index {pivot})")


class ConvergenceError(RuntimeError):
    """Newton failed.  t is the time point (None for a DC solve), node the
    worst KCL node at the last iterate evaluated, excess its KCL excess in A
    and iteration the number of Newton updates taken; member is set by
    transient_batch to the index of the failing netlist."""

    member: int | None = None

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


def _probe_rhs(batch: int, n: int) -> np.ndarray:
    """A batch x n x 2 right-hand side buffer; column 1 of each system holds
    the probe cos(1..n)."""
    rhs = np.empty((batch, n, 2))
    rhs[:, :, 1] = np.cos(np.arange(1.0, n + 1.0))
    return rhs


def _solve(a: np.ndarray, b: np.ndarray,
           rhs: np.ndarray) -> tuple[np.ndarray, dict[int, SingularMatrixError]]:
    """Solve the stack a[j] @ x[j] = b[j] by one LAPACK call; _lu_solve
    decides doubtful systems.

    b is copied into column 0 of rhs (from _probe_rhs) and solved together
    with the probes.  Where LAPACK fails, x is not finite or the probe's
    solution is as large as a pivot near _lu_solve's threshold would make
    it, the system is solved again by _lu_solve, which rejects every system
    it would reject on its own.  Returns x and the SingularMatrixError of
    each rejected system j; x[j] is then undefined.
    """
    rhs[:, :, 0] = b
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # one singular system fails a whole stack
        if len(a) == 1:
            sol = np.full(rhs.shape, math.nan)
        else:
            each = [_solve(a[j:j + 1], b[j:j + 1], rhs[j:j + 1]) for j in range(len(a))]
            return (np.concatenate([x for x, _ in each]),
                    {j: e for j, (_, err) in enumerate(each) for e in err.values()})
    top = np.maximum.reduce(np.abs(sol), axis=1, initial=0.0)
    norm = np.maximum.reduce(np.add.reduce(np.abs(a), axis=2), axis=1, initial=0.0)
    good = (top[:, 0] < math.inf) & (top[:, 1] * norm < _PROBE_KAPPA)  # |probe|inf <= 1
    x, errors = sol[:, :, 0], {}
    for j in (~good).nonzero()[0].tolist():
        try:
            x[j] = _lu_solve(a[j], b[j])
        except SingularMatrixError as err:
            errors[j] = err
    return x, errors


def solve_linear(system: MnaSystem) -> np.ndarray:
    """Solve system.matrix @ x = system.rhs.

    LAPACK solves; singular and near-singular systems go to a dense LU with
    partial pivoting, which raises SingularMatrixError naming the pivot.
    """
    n = len(system.rhs)
    x, errors = _solve(np.asarray(system.matrix, dtype=float)[None],
                       np.asarray(system.rhs, dtype=float)[None],
                       _probe_rhs(1, n))
    if errors:
        raise errors[0]
    return x[0]


@dataclass
class RunStats:
    steps: int = 0
    newton_iterations: int = 0
    kcl_excess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # kcl_excess[i] = max over nodes of (|residual| - reltol*scale) at point i;
    # every accepted point satisfies kcl_excess[i] <= abstol.
    newton_per_point: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # Newton updates taken at point i (0: the DC solve); they sum to
    # newton_iterations.


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


def _vsources(net: Netlist) -> list:
    return [d for d in net.devices if d.kind == "vsource"]


def _vlimit(svals: np.ndarray) -> np.ndarray:
    """Newton's clip on node-voltage updates: twice the largest |source
    value| of each member (source values on the last axis), at least 1 V."""
    return np.maximum(1.0, 2.0 * np.maximum.reduce(np.abs(svals), axis=-1, initial=0.0))


class _Circuit:
    """Netlists with the same nodes and sources, compiled once into branch
    index arrays over one flat unknown vector.

    Member b's unknowns sit at b*(n+1) .. b*(n+1) + n-1 and its ground at
    b*(n+1) + n.  Compiled from one Netlist, the circuit has no batch axis:
    linearize, solve_dc and source_values take and return the arrays of a
    single circuit.  Compiled from a list, every such array gains a leading
    batch axis.
    """

    def __init__(self, nets: Netlist | list[Netlist], opts: SolveOptions):
        self.opts = opts
        self.shape = () if isinstance(nets, Netlist) else (len(nets),)
        nets = [nets] if isinstance(nets, Netlist) else list(nets)
        self.batch = len(nets)
        self.node_names = nets[0].nodes[1:]  # non-ground
        self.nv = nv = len(self.node_names)
        self.vsources = _vsources(nets[0])
        self.n = n = nv + len(self.vsources)
        self.n1 = n1 = n + 1
        src_names = [d.name for d in self.vsources]
        gmin = opts.gmin if opts.enable_gmin else 0.0
        res, caps, fets, shunts, gmins, srcs, self.stimuli = ([] for _ in range(7))
        for b, net in enumerate(nets):
            net.validate()
            sources = _vsources(net)
            if (net.nodes[1:] != self.node_names
                    or [d.name for d in sources] != src_names):
                raise ValueError("batched netlists need the same nodes and sources")
            self.stimuli.append([d.stimulus for d in sources])
            ground = b * n1 + n
            node_of = {name: b * n1 + i - 1 for i, name in enumerate(net.nodes)}
            node_of["0"] = ground
            fet_nodes = set()
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
                    caps += [(t[1], t[2], card.cg * m), (t[0], ground, card.cd * m)]
                    fet_nodes.update((t[0], t[2]))
            gmins += [(i, ground) for i in sorted(fet_nodes - {ground})]
            shunts += [(b * n1 + i, ground) for i in range(nv)]
            srcs += [(node_of[d.terminals[0]], node_of[d.terminals[1]],
                      b * n1 + nv + j) for j, d in enumerate(sources)]
        caps = [cap for cap in caps if cap[2] > 0.0]
        idx = np.intp
        self.cap_a, self.cap_b = _column(caps, 0, idx), _column(caps, 1, idx)
        self.cap_c = _column(caps, 2)
        self.cap_branches = slice(len(res), len(res) + len(caps))
        # linear branches: resistors, capacitors, gmin shunts, stepping shunts
        self.g_res = _column(res, 2)
        self.g_gmin = np.full(len(gmins), gmin)
        self.n_shunt = len(shunts)
        lin = res + caps + gmins + shunts
        self.n_lin = len(lin)
        la, lb = _column(lin, 0, idx), _column(lin, 1, idx)
        fd, fg, fs = (_column(fets, i, idx) for i in range(3))
        self.sign, self.vth, self.k, self.lam = (_column(fets, i)
                                                 for i in range(3, 7))
        sp, sm, rows = (_column(srcs, i, idx) for i in range(3))
        # one gather of x serves every branch; these slices cut it apart
        parts = (la, lb, fg, fd, fs, rows, sp, sm)
        self.gather = np.concatenate(parts)
        cuts = np.cumsum([0] + [len(p) for p in parts]).tolist()
        self.parts = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        # branch currents run from these nodes (first half) to these (second)
        self.ends = np.concatenate((la, fd, sp, lb, fs, sm))

        def flat(r, c):  # entry (r, c) of member r // n1's (n+1)^2 block
            return r * n1 + c % n1

        # Jacobian entries: linear branches and sources are fixed per step,
        # the FETs' change every iteration
        self.flat_lin = flat(np.concatenate((la, la, lb, lb, sp, sm, rows, rows)),
                             np.concatenate((la, lb, la, lb, rows, rows, sp, sm)))
        self.flat_fet = flat(np.concatenate((fd, fd, fd, fs, fs, fs)),
                             np.concatenate((fg, fd, fs, fg, fd, fs)))
        self.src_w = np.repeat([1.0, -1.0, 1.0, -1.0], len(sp))
        self.rhs = _probe_rhs(self.batch, n)

    def source_values(self, times) -> np.ndarray:
        """Source values, one row per time point, then the batch axis."""
        vals = np.empty((len(times), self.batch, self.n - self.nv))
        for b, stims in enumerate(self.stimuli):
            for j, stim in enumerate(stims):
                vals[:, b, j] = [stim.value_at(t) for t in times]
        return vals.reshape((len(times),) + self.shape + vals.shape[2:])

    def linear_part(self, geq, shunt):
        """What stays fixed while the step size does: the linear-branch
        conductances and the flat Jacobian of the linear branches and the
        sources.  geq are the capacitor companion conductances (zeros for
        DC), shunt the gmin-stepping conductance from every node to ground."""
        g = np.concatenate((self.g_res, geq, self.g_gmin,
                            np.full(self.n_shunt, shunt)))
        jac = np.bincount(self.flat_lin, np.concatenate((g, -g, -g, g, self.src_w)),
                          minlength=self.batch * self.n1 ** 2)
        return g, jac

    def offsets(self, ihist):
        """The linear branches' offset currents i0: the capacitor history
        currents ihist, zero elsewhere."""
        i0 = np.zeros(self.n_lin)
        i0[self.cap_branches] = ihist
        return i0

    def residual(self, x, lin, svals):
        """KCL residual F (batch x n) and per-node current scale (batch x nv)
        at x (batch x n+1, ground 0 last), and the FETs' gm and gds.

        The scale of a node is its largest |branch current|; F's source rows
        hold the source constraints.
        """
        n, nv, n1 = self.n, self.nv, self.n1
        g, _jac, i0 = lin
        xg = x.reshape(-1)[self.gather]
        va, vb, vg, vd, vs, i_src, vp, vm = (xg[p] for p in self.parts)
        s = self.sign
        i_fet, gm, gds = square_law(self.vth, self.k, self.lam,
                                    s * (vg - vs), s * (vd - vs))
        cur = np.concatenate((g * (va - vb) + i0, s * i_fet, i_src))
        cur = np.concatenate((cur, -cur))
        f = np.bincount(self.ends, cur, minlength=self.batch * n1).reshape(-1, n1)
        f[:, nv:n] = (vp - vm).reshape(self.batch, n - nv) - svals
        scale = np.zeros(self.batch * n1)
        np.maximum.at(scale, self.ends, np.abs(cur))
        return f[:, :n], scale.reshape(-1, n1)[:, :nv], gm, gds

    def jacobian(self, lin, gm, gds):
        """dF/dx, batch x n x n: linear_part's Jacobian plus the FETs'."""
        gms = gm + gds
        jac = lin[1].copy()
        np.add.at(jac, self.flat_fet,
                  np.concatenate((gm, gds, -gms, -gm, -gds, gms)))
        return jac.reshape(-1, self.n1, self.n1)[:, :self.n, :self.n]

    def linearize(self, x, svals, geq, ihist, shunt):
        """KCL residual F, per-node current scale and Jacobian dF/dx at x.

        x carries the ground 0 at index n; geq and shunt are as in
        linear_part, ihist as in offsets.
        """
        lin = (*self.linear_part(geq, shunt), self.offsets(ihist))
        f, scale, gm, gds = self.residual(np.reshape(x, (self.batch, self.n1)),
                                          lin, np.reshape(svals, (self.batch, -1)))
        jac = self.jacobian(lin, gm, gds)
        return (f.reshape(self.shape + f.shape[1:]),
                scale.reshape(self.shape + scale.shape[1:]),
                jac.reshape(self.shape + jac.shape[1:]))

    def newton(self, x, svals, vlimit, lin, live, t=None, label=""):
        """Lockstep Newton-Raphson on J dx = -F to the dual (residual + step)
        criterion for the members where live is True.

        x (batch x n+1) holds the initial guess and is updated in place;
        svals holds each member's source values and vlimit their _vlimit;
        lin is linear_part's (g, jac) followed by offsets' i0.  t is the
        time point, None for a DC solve; label (DC only) names the solve in
        error messages.
        Returns each member's Newton update count and KCL excess at its
        solution and the error of each member that failed.
        """
        opts = self.opts
        n, nv = self.n, self.nv
        batch = self.batch
        members = live.nonzero()[0]
        iters = np.zeros(batch, dtype=int)
        excess = np.zeros(batch)
        last_dx = np.full(batch, math.inf)
        failed: dict[int, Exception] = {}

        def fail(b, diverged):
            where = label if t is None else f" at t={t:.6g}s"
            name = self.node_names[int(np.argmax(over[b]))] if nv else "?"
            message = (f"solution diverged{where}" if diverged else
                       f"Newton failed after {opts.max_newton_iters} iterations"
                       f"{where}; worst node {name!r} (KCL excess {err[b]:.3e} A)")
            failed[b] = ConvergenceError(message, t=t, node=name, excess=float(err[b]),
                                         iteration=it + diverged)

        for it in range(opts.max_newton_iters + 1):
            if not len(members):
                break
            f, scale, gm, gds = self.residual(x, lin, svals)
            over = np.abs(f[:, :nv]) - opts.reltol * scale
            err = np.maximum.reduce(over, axis=1) if nv else np.zeros(batch)
            pick = slice(None) if len(members) == batch else members
            done = (err[pick] <= opts.abstol) & (last_dx[pick] <= opts.vtol)
            if done.any():
                iters[members[done]] = it
                excess[members[done]] = err[members[done]]
                members = members[~done]
                if not len(members):
                    break
                pick = members
            if it == opts.max_newton_iters:
                for b in members.tolist():
                    fail(b, diverged=False)
                break
            jac = self.jacobian(lin, gm, gds)
            dx, singular = _solve(jac[pick], -f[pick], self.rhs[:len(members)])
            lim = vlimit[pick][:, None]
            np.minimum(dx[:, :nv], lim, out=dx[:, :nv])
            np.maximum(dx[:, :nv], -lim, out=dx[:, :nv])
            xn = x[pick, :n] + dx
            if singular or not np.isfinite(xn).all():
                ok = np.isfinite(xn).all(axis=1)
                ok[list(singular)] = False
                failed.update((int(members[j]), e) for j, e in singular.items())
                for b in members[~ok].tolist():
                    if b not in failed:
                        fail(b, diverged=True)
                members = pick = members[ok]
                dx, xn = dx[ok], xn[ok]
            x[pick, :n] = xn
            last_dx[pick] = np.maximum.reduce(np.abs(dx), axis=1, initial=0.0)
        return iters, excess, failed

    def solve_dc(self, svals, failed=None):
        """DC solution with gmin-stepping fallback; caps are open.

        Returns the solutions (with ground 0), the Newton update counts of
        the last solve and the KCL excesses.  The failure of each member
        goes into the failed dict; without one, the lowest-index member's
        failure is raised.
        """
        opts = self.opts
        raising = failed is None
        failed = {} if raising else failed
        svals = np.reshape(svals, (self.batch, -1))
        vlimit = _vlimit(svals)
        geq, i0 = np.zeros(len(self.cap_c)), np.zeros(self.n_lin)
        x = np.zeros((self.batch, self.n1))
        iters, excess, bad = self.newton(x, svals, vlimit,
                                         (*self.linear_part(geq, 0.0), i0),
                                         np.ones(self.batch, dtype=bool), label=" (dc)")
        if bad and opts.enable_gmin:
            retry = np.zeros(self.batch, dtype=bool)
            retry[list(bad)] = True
            x[retry] = 0.0
            bad = {}
            for s in range(opts.gmin_steps + 1):
                shunt = opts.gmin * 10.0 ** (opts.gmin_steps - s)
                it, exc, step_bad = self.newton(
                    x, svals, vlimit, (*self.linear_part(geq, shunt), i0), retry,
                    label=f" (gmin step {s})")
                bad.update(step_bad)
                retry[list(step_bad)] = False
                iters[retry], excess[retry] = it[retry], exc[retry]
        failed.update(bad)
        if raising and failed:
            raise failed[min(failed)]
        return (x.reshape(self.shape + (self.n1,)), iters.reshape(self.shape),
                excess.reshape(self.shape))


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


def _segment_times(stimuli, analysis: Transient) -> tuple[list[float], list[float]]:
    """Time points from 0 to tstop and the steps between them.

    Breakpoints closer together than _MIN_SEPARATION * dt are merged first;
    each segment between breakpoints is then cut into equal steps <= dt.
    """
    tstop = analysis.tstop
    dt = min(analysis.dt, tstop / 1000.0)
    if analysis.dtmax is not None:
        dt = min(dt, analysis.dtmax)
    edges = [e for stim in stimuli if (e := stim.min_edge()) is not None]
    if edges:
        dt = min(dt, min(edges) / 10.0)
    bps = {0.0, tstop}
    for stim in stimuli:
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


def _lockstep(nets: list[Netlist], times: list[float], steps: list[float],
              opts: SolveOptions) -> tuple[list[WaveformSet], dict[int, Exception]]:
    """Transients of netlists that share one time grid, in lockstep."""
    ckt = _Circuit(nets, opts)
    batch, nv = ckt.batch, ckt.nv
    svals = ckt.source_values(times)
    vlimits = _vlimit(svals)
    ca, cb, c = ckt.cap_a, ckt.cap_b, ckt.cap_c
    # every accepted point of every member, written in place step by step;
    # the waveforms are views into it
    sol = np.empty((len(times), batch, ckt.n1))
    excess = np.empty((batch, len(times)))
    iters = np.empty((batch, len(times)), dtype=int)
    failed: dict[int, Exception] = {}
    live = np.ones(batch, dtype=bool)

    x, iters[:, 0], excess[:, 0] = ckt.solve_dc(svals[0], failed)
    sol[0] = x
    flat = x.reshape(-1)
    cap_v, cap_i = flat[ca] - flat[cb], np.zeros(len(c))
    h_lin = None
    for k in range(1, len(times)):
        if failed:  # members after the lowest failed one no longer matter
            live[min(failed):] = False
            if not live.any():
                break
        if k > 1:  # predictor: the line through the last two accepted points
            last, prev = sol[k - 1, live], sol[k - 2, live]
            x[live] = last + (steps[k - 1] / steps[k - 2]) * (last - prev)
        h = steps[k - 1]
        geq, ihist = cap_companion(c, cap_v, cap_i, h, opts.integration)
        if h != h_lin:  # geq, and so g and the linear Jacobian, depend on h alone
            h_lin, (g, jac) = h, ckt.linear_part(geq, 0.0)
        iters[:, k], excess[:, k], bad = ckt.newton(
            x, svals[k], vlimits[k], (g, jac, ckt.offsets(ihist)), live, t=times[k])
        failed.update(bad)
        cap_v = flat[ca] - flat[cb]
        cap_i = geq * cap_v + ihist
        sol[k] = x
    if failed:
        return [], failed

    tarr = np.array(times)
    wsets = []
    for b in range(batch):
        voltages = {name: Waveform(tarr, sol[:, b, i])
                    for i, name in enumerate(ckt.node_names)}
        currents = {d.name: Waveform(tarr, sol[:, b, nv + j])
                    for j, d in enumerate(ckt.vsources)}
        stats = RunStats(steps=len(times) - 1, newton_iterations=int(iters[b].sum()),
                         kcl_excess=excess[b], newton_per_point=iters[b])
        wsets.append(WaveformSet(times=tarr, voltages=voltages,
                                 currents=currents, stats=stats))
    return wsets, failed


def transient_batch(nets: list[Netlist], analyses: list[Transient | None] | None = None,
                    opts: SolveOptions | None = None) -> list[WaveformSet]:
    """Fixed-step transients of several netlists, each from its t=0
    operating point.

    analyses[i] (default: the first .tran card of nets[i]) sets the time
    grid of nets[i]; netlists with the same nodes, sources and grid run in
    lockstep as one batch.  Every WaveformSet is bitwise the one the netlist
    gives alone.  If any netlist fails, the error of the lowest-index one is
    raised, with that index in its ``member``.
    """
    opts = opts or SolveOptions()
    nets = list(nets)
    analyses = [None] * len(nets) if analyses is None else list(analyses)
    groups: dict[tuple, tuple[tuple, list[int]]] = {}
    for b, (net, analysis) in enumerate(zip(nets, analyses, strict=True)):
        if analysis is None:
            trans = [a for a in net.analyses if isinstance(a, Transient)]
            if not trans:
                raise ValueError("netlist has no .tran analysis")
            analysis = trans[0]
        net.validate()
        sources = _vsources(net)
        grid = _segment_times([d.stimulus for d in sources], analysis)
        key = (tuple(net.nodes), tuple(d.name for d in sources),
               tuple(grid[0]), tuple(grid[1]))
        groups.setdefault(key, (grid, []))[1].append(b)
    wsets: list[WaveformSet] = [None] * len(nets)
    first: tuple[int, Exception] | None = None
    for (times, steps), members in groups.values():
        out, failed = _lockstep([nets[b] for b in members], times, steps, opts)
        if failed:
            j = min(failed)
            if first is None or members[j] < first[0]:
                first = (members[j], failed[j])
        for b, wset in zip(members, out):
            wsets[b] = wset
    if first is not None:
        first[1].member = first[0]
        raise first[1]
    return wsets


def transient(net: Netlist, analysis: Transient | None = None,
              opts: SolveOptions | None = None) -> WaveformSet:
    """Fixed-step transient from the t=0 operating point: a batch of one.

    Stimulus breakpoints, merged where closer together than a millionth of
    the step, are forced onto the time grid; each segment between
    breakpoints is subdivided uniformly with steps no larger than the
    clamped dt.  Identical inputs produce bit-identical WaveformSets.
    """
    return transient_batch([net], [analysis], opts)[0]

"""Modified nodal analysis: Newton DC operating point and step-controlled
transient.

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
a trailing 0 there, so no stamp tests for ground; row n is sliced off the
residual and the Jacobian's row and column n go to one spare slot.  Every
branch voltage (FET vgs and vds included) and source current is one
x[hi] - x[lo]; a P device's N-law voltages -(vg - vs) and -(vd - vs) are
exactly vs - vg and vs - vd, so its hi and lo swap.  The branch currents
are computed once and scattered (np.bincount) into the KCL residual F, the
largest branch current at each node and, with the branch derivatives, the
Jacobian dF/dx (Ho, Ruehli and Brennan, IEEE TCAS 1975).  Newton solves
J dx = -F and converges when both a small update step and a small true KCL
residual hold at every node:

    |sum of branch currents| <= _ABSTOL + _RELTOL * max |branch current|
    |dx| <= _VTOL for every unknown

and fails if it has not converged after _MAX_NEWTON_ITERS updates.

A batch of B netlists with the same nodes and sources is compiled as the
disjoint union of its members' branches: member b's unknowns and its own
ground slot sit at offset b*(n+1) of one flat vector, so one scatter serves
the whole batch and the Jacobian reshapes to B blocks of n x n.  Newton runs
the members in lockstep: each keeps its own convergence test, update clip
and divergence check, and a member that has converged is frozen, so its
solution, iteration count and KCL excess are exactly those of a run alone.
The members still iterating are solved together.  A member that fails drops
out, and so do the members after it; the batch then raises the failure of
its lowest-index failing member.  ``transient_batch`` runs netlists with the
same nodes and sources as one batch, in lockstep rounds that try the next
step of every member still running; each member keeps its own time, step,
predictor and capacitor history and accept/reject decision, so its run is
bitwise the one it gives alone.  ``transient`` is a batch of one.

Each Newton step is one LAPACK solve (np.linalg.solve) of the stacked
J dx = -F together with a fixed probe right-hand side.  For a member where
LAPACK fails, dx is not finite or the probe's solution shows a near-zero
pivot, the dense LU with partial pivoting (_lu_solve) solves the step
instead: it decides whether the matrix is singular and names the pivot in
SingularMatrixError.

If the plain DC solve fails, it is retried with gmin stepping: shunts of
_GMIN * 10**(_GMIN_STEPS - s) from every node to ground for s = 0.._GMIN_STEPS,
each solution seeding the next.  A DC solve sets the capacitor companions
to zero, which leaves the capacitors open.

Transient analysis forces a time point at every breakpoint: PWL corners
and PULSE edges, merged where closer together than a millionth of the floor
step.  The floor is the .tran dt clamped to tstop/1000, to dtmax and to a
tenth of the shortest stimulus edge; the ceiling is the .tran dtmax if that
exceeds dt, else the floor.  One rule sets every step.  Each segment
between two breakpoints starts at the floor.  The step asked for is held
between the floor and the ceiling; it takes the rest of the segment if
that is no longer than the step up to rounding (1e-9 relative), and half of
it if the step would leave a remainder below the floor.  So a step below
the floor is one of the last two of its segment, and with the ceiling at
the floor the steps are the floor's.  After each accepted point the step
asked for is h * min(2, 0.9 * (tol / err)**(1/(p+1))), p the order of the
rule, tol the fixed _LTE_TOL (0.1 mV) and err the local truncation error
estimate (Nagel, SPICE2, UCB/ERL M520, 1975)

    err = max over the node voltages of |x_corrected - x_predicted|

with the predictor below.  A step above the floor (beyond rounding) is
rejected when err > tol or Newton fails there, and retried shorter: by the
same formula, or by 8x after a Newton failure.  A step at or below the
floor is never rejected; a Newton failure there fails the run.  So the
settled stretches of a card with a dtmax above dt cost a few steps each,
and a card without one never rejects a step.

Every capacitor, the FETs' lumped cg and cd included, becomes a companion
conductance/history-current pair; backward Euler is the default rule,
trapezoidal is selectable.  The conductances and the Jacobian of the linear
branches depend on the steps alone and are built again only when one
changes.

Newton at each time point starts from a linear predictor through the last
two accepted points (Nagel, SPICE2, UCB/ERL M520, 1975):

    x0 = x[k-1] + (h[k] / h[k-1]) * (x[k-1] - x[k-2])

with h[k] the step to point k; the first step after the DC point starts
from the DC solution.  Where the waveform is locally linear the first
update already meets the step test, so a step costs one solve, not two.
The predictor is element-wise per member, so batching stays bitwise exact;
compared with the corrected solution, it gives the error estimate above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devices import cap_conductance, cap_history, square_law
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
    """A transient's integration rule; Newton's tolerances and gmin are the
    module constants _ABSTOL to _GMIN_STEPS."""

    integration: str = "backward_euler"  # or "trapezoidal"

    def __post_init__(self):
        if self.integration not in ("backward_euler", "trapezoidal"):
            raise ValueError(f"unknown integration rule {self.integration!r}")


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
    top = np.maximum.reduce(np.abs(sol), axis=1, initial=0.0).tolist()
    norm = np.maximum.reduce(np.add.reduce(np.abs(a), axis=2), axis=1, initial=0.0)
    x, errors = sol[:, :, 0], {}
    for j, ((top_x, top_probe), a_norm) in enumerate(zip(top, norm.tolist())):
        if top_x < math.inf and top_probe * a_norm < _PROBE_KAPPA:  # |probe|inf <= 1
            continue
        try:
            x[j] = _lu_solve(a[j], b[j])
        except SingularMatrixError as err:
            errors[j] = err
    return x, errors


@dataclass
class RunStats:
    steps: int = 0              # accepted steps
    newton_iterations: int = 0
    rejected_lte: int = 0       # steps above the floor rejected by the LTE test
    rejected_newton: int = 0    # ... and by a Newton failure
    kcl_excess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # kcl_excess[i] = max over nodes of (|residual| - _RELTOL*scale) at point
    # i; every accepted point satisfies kcl_excess[i] <= _ABSTOL.
    newton_per_point: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # Newton updates taken at point i (0: the DC solve, with a failed plain
    # solve and every gmin step; else those of the accepted attempt and of
    # every rejected attempt before it); they sum to newton_iterations.


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
        for i in range(0, len(self.times), 256):  # blocks keep the peak memory down
            block = np.column_stack([s[i:i + 256] for s in series])
            lines += [",".join(map(repr, r.tolist())) for r in block]
        return "\n".join(lines) + "\n"


# Breakpoints closer together than this fraction of the floor step are
# merged, so that no step is so short that the c/h companions swamp the
# matrix.
_MIN_SEPARATION = 1e-6

# V, the largest local truncation error estimate (max |corrected - predicted|
# over the node voltages) that a step above the floor may leave; the step
# grows while the estimate stays below it.
_LTE_TOL = 1e-4

# Newton's convergence test (module docstring): A, the KCL residual floor;
# the share of a node's largest branch current added to it; V, the update
# tolerance; and the updates allowed per solve
_ABSTOL = 1e-9
_RELTOL = 1e-4
_VTOL = 1e-6
_MAX_NEWTON_ITERS = 100

# S, the FET drain/source shunt and the last gmin-stepping shunt, and the
# decades that gmin stepping starts above it
_GMIN = 1e-12
_GMIN_STEPS = 10


def _column(rows, i, dtype=float) -> np.ndarray:
    return np.array([r[i] for r in rows], dtype=dtype)


def _vsources(net: Netlist) -> list:
    return [d for d in net.devices if d.kind == "vsource"]


def _vlimit(svals: np.ndarray) -> np.ndarray:
    """Newton's clip on node-voltage updates: twice the largest |source
    value| of each member (batch x nsrc), at least 1 V."""
    return 2.0 * np.maximum.reduce(np.abs(svals), axis=1, initial=0.5)


class _Circuit:
    """Netlists with the same nodes and sources, compiled once into branch
    index arrays over one flat unknown vector.

    Member b's unknowns sit at b*(n+1) .. b*(n+1) + n-1 and its ground at
    b*(n+1) + n.  A single circuit is a batch of one.
    """

    def __init__(self, nets: list[Netlist]):
        self.batch = len(nets)
        self.node_names = nets[0].nodes[1:]  # non-ground
        self.nv = nv = len(self.node_names)
        self.vsources = _vsources(nets[0])
        self.n = n = nv + len(self.vsources)
        self.n1 = n1 = n + 1
        src_names = [d.name for d in self.vsources]
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
                    drain, gate, src = t[:3]
                    # (vgs, vds) = x[hi] - x[lo], swapped for a P device
                    hi, lo = (gate, drain), (src, src)
                    if sign < 0.0:
                        hi, lo = lo, hi
                    fets.append((drain, gate, src, *hi, *lo, sign, sign * card.vth,
                                 card.k * m, card.lam))
                    caps += [(gate, src, card.cg * m), (drain, ground, card.cd * m)]
                    fet_nodes.update((drain, src))
            gmins += [(i, ground) for i in sorted(fet_nodes - {ground})]
            shunts += [(b * n1 + i, ground) for i in range(nv)]
            srcs += [(node_of[d.terminals[0]], node_of[d.terminals[1]],
                      b * n1 + nv + j, ground) for j, d in enumerate(sources)]
        caps = [cap for cap in caps if cap[2] > 0.0]
        idx = np.intp
        # ascending: each member's capacitors in a row
        self.cap_member = _column(caps, 0, idx) // n1
        self.cap_c = _column(caps, 2)
        self.cap_branches = slice(len(res), len(res) + len(caps))
        # linear branches: resistors, capacitors, gmin shunts, stepping shunts
        self.g_res = _column(res, 2)
        self.g_gmin = np.full(len(gmins), _GMIN)
        self.n_shunt = len(shunts)
        lin = res + caps + gmins + shunts
        self.n_lin = len(lin)
        la, lb = _column(lin, 0, idx), _column(lin, 1, idx)
        fd, fg, fs, gs_hi, ds_hi, gs_lo, ds_lo = (_column(fets, i, idx)
                                                  for i in range(7))
        self.sign, self.vth, self.k, self.lam = (_column(fets, i)
                                                 for i in range(7, 11))
        sp, sm, rows, grounds = (_column(srcs, i, idx) for i in range(4))
        # one x[hi] - x[lo] serves every branch; these slices cut it apart
        parts = ((la, lb), (gs_hi, gs_lo), (ds_hi, ds_lo), (sp, sm), (rows, grounds))
        self.hi = np.concatenate([a for a, _ in parts])
        self.lo = np.concatenate([b for _, b in parts])
        cuts = np.cumsum([0] + [len(a) for a, _ in parts]).tolist()
        self.parts = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        # branch currents run from these nodes (first half) to these (second)
        self.ends = np.concatenate((la, fd, sp, lb, fs, sm))

        def flat(r, c):
            """Entry (r, c) of member r // n1's n x n block; entries in a
            ground row or column all go to one spare slot past the blocks."""
            b, r, c = r // n1, r % n1, c % n1
            return np.where((r == n) | (c == n), self.batch * n * n, (b * n + r) * n + c)

        # Jacobian entries: linear branches and sources are fixed per step,
        # the FETs' change every iteration
        self.flat_lin = flat(np.concatenate((la, la, lb, lb, sp, sm, rows, rows)),
                             np.concatenate((la, lb, la, lb, rows, rows, sp, sm)))
        self.flat_fet = flat(np.concatenate((fd, fd, fd, fs, fs, fs)),
                             np.concatenate((fg, fd, fs, fg, fd, fs)))
        self.src_w = np.repeat([1.0, -1.0, 1.0, -1.0], len(sp))
        # the weights of (gm, gds, gm + gds) repeated twice in flat_fet
        self.fet_w = np.repeat([1.0, 1.0, -1.0, -1.0, -1.0, 1.0], len(fd))
        self.rhs = _probe_rhs(self.batch, n)
        self.i0 = np.zeros(self.n_lin)

    def source_values(self, ts) -> np.ndarray:
        """Source values of each member b at its own time ts[b], batch x
        nsrc."""
        return np.array([stim.value_at(t) for stims, t in zip(self.stimuli, ts)
                         for stim in stims]).reshape(self.batch, self.n - self.nv)

    def linear_part(self, geq, shunt):
        """What stays fixed while the step size does: the linear-branch
        conductances and the flat Jacobian of the linear branches and the
        sources.  geq are the capacitor companion conductances (zeros for
        DC), shunt the gmin-stepping conductance from every node to ground."""
        g = np.concatenate((self.g_res, geq, self.g_gmin,
                            np.full(self.n_shunt, shunt)))
        jac = np.bincount(self.flat_lin, np.concatenate((g, -g, -g, g, self.src_w)),
                          minlength=self.batch * self.n ** 2 + 1)
        return g, jac

    def offsets(self, ihist):
        """The linear branches' offset currents i0: the capacitor history
        currents ihist, zero elsewhere.  The array is the circuit's own,
        which the next call overwrites."""
        self.i0[self.cap_branches] = ihist
        return self.i0

    def residual(self, x, lin, svals):
        """KCL residual F (batch x n) and per-node current scale (batch x nv)
        at x (batch x n+1, ground 0 last), and the FETs' gm and gds.

        The scale of a node is its largest |branch current|; F's source rows
        hold the source constraints.  The linear branches' voltages and
        currents stay in branch_v and branch_i until the next call.
        """
        n, nv, n1 = self.n, self.nv, self.n1
        g, _jac, i0 = lin
        flat = x.reshape(-1)
        dv = flat[self.hi] - flat[self.lo]
        v_lin, vgs, vds, v_src, i_src = (dv[p] for p in self.parts)
        i_fet, gm, gds = square_law(self.vth, self.k, self.lam, vgs, vds)
        self.branch_v, self.branch_i = v_lin, g * v_lin + i0
        cur = np.concatenate((self.branch_i, self.sign * i_fet, i_src))
        cur = np.concatenate((cur, -cur))
        f = np.bincount(self.ends, cur, minlength=self.batch * n1).reshape(-1, n1)
        f[:, nv:n] = v_src.reshape(self.batch, n - nv) - svals
        scale = np.zeros(self.batch * n1)
        np.maximum.at(scale, self.ends, np.abs(cur))
        return f[:, :n], scale.reshape(-1, n1)[:, :nv], gm, gds

    def jacobian(self, lin, gm, gds):
        """dF/dx, batch x n x n: linear_part's Jacobian plus the FETs'."""
        gms = gm + gds
        jac = lin[1].copy()
        np.add.at(jac, self.flat_fet,
                  np.concatenate((gm, gds, gms, gm, gds, gms)) * self.fet_w)
        return jac[:-1].reshape(-1, self.n, self.n)

    def newton(self, x, svals, vlimit, lin, live, t=None, label=""):
        """Lockstep Newton-Raphson on J dx = -F to the dual (residual + step)
        criterion for the members where live is True.

        x (batch x n+1) holds the initial guess and is updated in place;
        svals holds each member's source values and vlimit their _vlimit;
        lin is linear_part's (g, jac) followed by offsets' i0.  t holds
        each member's time point, None for a DC solve; label (DC only) names
        the solve in error messages.
        Returns each member's Newton update count (the linear solves made
        for it, the failing one included), its KCL excess at its solution
        and the error of each member that failed.
        """
        n, nv = self.n, self.nv
        batch = self.batch
        members = live.nonzero()[0].tolist()
        iters, excess = [0] * batch, [0.0] * batch
        last_dx = [math.inf] * batch
        failed: dict[int, Exception] = {}

        def fail(b, diverged):
            tb = None if t is None else float(t[b])
            where = label if tb is None else f" at t={tb:.6g}s"
            name = self.node_names[int(np.argmax(over[b]))] if nv else "?"
            message = (f"solution diverged{where}" if diverged else
                       f"Newton failed after {_MAX_NEWTON_ITERS} iterations"
                       f"{where}; worst node {name!r} (KCL excess {err[b]:.3e} A)")
            failed[b] = ConvergenceError(message, t=tb, node=name, excess=err[b],
                                         iteration=it + diverged)

        # the rows of the members still iterating
        pick = slice(None) if len(members) == batch else np.array(members, dtype=np.intp)
        clip_hi, clip_lo = vlimit[:, None], -vlimit[:, None]
        for it in range(_MAX_NEWTON_ITERS + 1):
            if not members:
                break
            f, scale, gm, gds = self.residual(x, lin, svals)
            over = np.abs(f[:, :nv]) - _RELTOL * scale
            err = np.maximum.reduce(over, axis=1).tolist() if nv else [0.0] * batch
            going = []
            for b in members:
                if err[b] <= _ABSTOL and last_dx[b] <= _VTOL:
                    iters[b], excess[b] = it, err[b]
                else:
                    going.append(b)
            if len(going) < len(members):
                members, pick = going, np.array(going, dtype=np.intp)
                if not members:
                    break
            if it == _MAX_NEWTON_ITERS:
                for b in members:
                    iters[b] = it
                    fail(b, diverged=False)
                break
            jac = self.jacobian(lin, gm, gds)
            dx, singular = _solve(jac[pick], -f[pick], self.rhs[:len(members)])
            dx_v = dx[:, :nv]
            np.minimum(dx_v, clip_hi[pick], out=dx_v)
            np.maximum(dx_v, clip_lo[pick], out=dx_v)
            xn = x[pick, :n] + dx
            if singular or not np.isfinite(xn).all():
                ok = np.isfinite(xn).all(axis=1)
                ok[list(singular)] = False
                for j in (~ok).nonzero()[0].tolist():
                    b = members[j]
                    iters[b] = it + 1
                    if j in singular:
                        failed[b] = singular[j]
                    else:
                        fail(b, diverged=True)
                members = [b for b, keep in zip(members, ok.tolist()) if keep]
                pick = np.array(members, dtype=np.intp)
                dx, xn = dx[ok], xn[ok]
            x[pick, :n] = xn
            step = np.maximum.reduce(np.abs(dx), axis=1, initial=0.0).tolist()
            for b, s in zip(members, step):
                last_dx[b] = s
        return iters, excess, failed

    def solve_dc(self, svals):
        """DC solution with gmin-stepping fallback; caps are open.

        Returns the solutions (with ground 0), the Newton update counts of
        every solve made (a failed plain solve and each gmin step included),
        the KCL excesses and the error of each member that failed.
        """
        vlimit = _vlimit(svals)
        geq, i0 = np.zeros(len(self.cap_c)), np.zeros(self.n_lin)
        x = np.zeros((self.batch, self.n1))
        iters, excess, failed = self.newton(x, svals, vlimit,
                                            (*self.linear_part(geq, 0.0), i0),
                                            np.ones(self.batch, dtype=bool), label=" (dc)")
        if failed:
            retry = np.zeros(self.batch, dtype=bool)
            retry[list(failed)] = True
            x[retry] = 0.0
            failed = {}
            for s in range(_GMIN_STEPS + 1):
                shunt = _GMIN * 10.0 ** (_GMIN_STEPS - s)
                it, exc, bad = self.newton(
                    x, svals, vlimit, (*self.linear_part(geq, shunt), i0), retry,
                    label=f" (gmin step {s})")
                failed.update(bad)
                retry[list(bad)] = False
                for b in retry.nonzero()[0].tolist():
                    excess[b] = exc[b]
                iters = [i + j for i, j in zip(iters, it)]
        return x, iters, excess, failed


def dc_operating_point(net: Netlist) -> dict[str, float]:
    """Node voltages of the DC operating point (sources at their t=0 values)."""
    ckt = _Circuit([net])
    x, _iters, _excess, failed = ckt.solve_dc(ckt.source_values([0.0]))
    if failed:
        raise failed[min(failed)]
    return {name: float(x[0, i]) for i, name in enumerate(ckt.node_names)}


class _Clock:
    """Where one batch member is in time, and the step it tries next.

    bps are the merged breakpoints from 0 to tstop; the member is in the
    segment from bps[seg] to bps[seg + 1], its last accepted point at t.
    The next attempt is a step of h to the time point next; it may be
    rejected only if free, that is if h is above the floor.
    """

    def __init__(self, stimuli, analysis: Transient):
        tstop = analysis.tstop
        floor = min(analysis.dt, tstop / 1000.0)
        if analysis.dtmax is not None:
            floor = min(floor, analysis.dtmax)
        edges = [e for stim in stimuli if (e := stim.min_edge()) is not None]
        if edges:
            floor = min(floor, min(edges) / 10.0)
        bps = {0.0, tstop}
        for stim in stimuli:
            bps.update(stim.breakpoints(tstop))
        merged = [0.0]
        for t in sorted(bps)[1:]:
            if t - merged[-1] >= _MIN_SEPARATION * floor:
                merged.append(t)
        merged[-1] = tstop
        grows = analysis.dtmax is not None and analysis.dtmax > analysis.dt
        self.floor, self.ceiling = floor, analysis.dtmax if grows else floor
        self.bps, self.seg, self.t, self.done = merged, 0, 0.0, False
        self._plan(floor)

    def _plan(self, h: float) -> None:
        """Make the next attempt a step of h, held between the floor and
        the ceiling: the rest of the segment if h covers it up to rounding,
        half of it if a step of h would leave a remainder below the floor."""
        h = min(max(h, self.floor), self.ceiling)
        t1 = self.bps[self.seg + 1]
        rest = t1 - self.t
        if rest <= h * (1.0 + 1e-9):
            self.h, self.next = rest, t1
        else:
            if rest < h + self.floor:
                h = 0.5 * rest
            self.h, self.next = h, self.t + h
        self.free = self.h > self.floor * (1.0 + 1e-9)

    def accept(self, grow: float) -> None:
        """Move to the attempted point; the controller asks the step to
        grow by the factor grow.  At a breakpoint it restarts at the floor."""
        self.t = self.next
        if self.t == self.bps[self.seg + 1]:
            self.seg += 1
            self.done = self.seg == len(self.bps) - 1
            if not self.done:
                self._plan(self.floor)
            return
        self._plan(self.h * grow)

    def reject(self, shrink: float) -> None:
        """Retry from t with the step shrunk by the factor shrink."""
        self._plan(self.h * shrink)


def _lockstep(nets: list[Netlist], analyses: list[Transient],
              rule: str) -> tuple[list[WaveformSet], dict[int, Exception]]:
    """Transients of netlists with the same nodes and sources, in lockstep
    rounds: each round, every member still running tries its next step by
    the integration rule rule."""
    ckt = _Circuit(nets)
    batch, nv = ckt.batch, ckt.nv
    clocks = [_Clock(stims, a) for stims, a in zip(ckt.stimuli, analyses)]
    c, caps, cap_member = ckt.cap_c, ckt.cap_branches, ckt.cap_member
    bounds = np.searchsorted(cap_member, np.arange(batch + 1)).tolist()
    cap_rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    order = 1 if rule == "backward_euler" else 2

    def grow(err):
        if err == 0.0:
            return 2.0
        return min(2.0, 0.9 * (_LTE_TOL / err) ** (1.0 / (order + 1)))

    t = [0.0] * batch
    x, iters, excess, failed = ckt.solve_dc(ckt.source_values(t))
    # every accepted point of every member, its Newton updates and excess;
    # the first len(times[b]) rows of sols[b] are in use, and it doubles
    # when full
    times = [[0.0] for _ in range(batch)]
    sols = [np.empty((256, ckt.n1)) for _ in range(batch)]
    for b in range(batch):
        sols[b][0] = x[b]
    per_iters = [[i] for i in iters]
    per_excess = [[e] for e in excess]
    h = [0.0] * batch  # the step each member tries
    h_last = [math.inf] * batch  # the step to its last accepted point; inf at DC
    # the capacitors' voltages and currents at each member's last point; a
    # solve's last residual was evaluated at every member's solution
    cap_v, cap_i = ckt.branch_v[caps].copy(), np.zeros(len(c))
    pending = [0] * batch  # Newton updates of rejected attempts
    rejected = [[0, 0] for _ in range(batch)]  # by LTE, by Newton failure
    running = np.ones(batch, dtype=bool)
    regroup = True
    while True:
        if regroup:  # members after the lowest failed one no longer matter
            running[min(failed, default=batch):] = False
            members = running.nonzero()[0].tolist()
            if not members:
                break
            regroup = False
        new_h = False
        for b in members:
            clk = clocks[b]
            if clk.h != h[b]:
                h[b], new_h = clk.h, True
            t[b] = clk.next
            # predictor: the line through the last two accepted points; at
            # the DC point, last = prev and h/h_last = 0
            k = len(times[b])
            last, prev = sols[b][k - 1], sols[b][max(k - 2, 0)]
            x[b] = last + (clk.h / h_last[b]) * (last - prev)
        svals = ckt.source_values(t)
        predicted = x[:, :nv].copy()
        if new_h:  # geq, and so g and the linear Jacobian, depend on h alone
            geq = cap_conductance(c, np.array(h)[cap_member], rule)
            g, jac = ckt.linear_part(geq, 0.0)
        i0 = ckt.offsets(cap_history(geq, cap_v, cap_i, rule))
        it, exc, bad = ckt.newton(x, svals, _vlimit(svals), (g, jac, i0), running, t=t)
        err = np.maximum.reduce(np.abs(x[:, :nv] - predicted), axis=1,
                                initial=0.0).tolist()
        v_now, i_now = ckt.branch_v[caps], ckt.branch_i[caps]
        for b in members:
            clk = clocks[b]
            pending[b] += it[b]
            if b in bad or (clk.free and err[b] > _LTE_TOL):
                if not clk.free:
                    failed[b], regroup = bad[b], True
                elif b in bad:
                    rejected[b][1] += 1
                    clk.reject(0.125)
                else:
                    rejected[b][0] += 1
                    clk.reject(grow(err[b]))
                continue
            if len(times[b]) == len(sols[b]):
                sols[b] = np.concatenate((sols[b], np.empty_like(sols[b])))
            sols[b][len(times[b])] = x[b]
            times[b].append(clk.next)
            per_iters[b].append(pending[b])
            per_excess[b].append(exc[b])
            pending[b], h_last[b] = 0, clk.h
            rows = cap_rows[b]
            cap_v[rows], cap_i[rows] = v_now[rows], i_now[rows]
            clk.accept(grow(err[b]))
            if clk.done:
                running[b], regroup = False, True
    if failed:
        return [], failed

    wsets = []
    for b in range(batch):
        tarr = np.array(times[b])
        sol = sols[b][:len(tarr)]
        voltages = {name: Waveform(tarr, sol[:, i])
                    for i, name in enumerate(ckt.node_names)}
        currents = {d.name: Waveform(tarr, sol[:, nv + j])
                    for j, d in enumerate(ckt.vsources)}
        stats = RunStats(steps=len(tarr) - 1, newton_iterations=sum(per_iters[b]),
                         rejected_lte=rejected[b][0], rejected_newton=rejected[b][1],
                         kcl_excess=np.array(per_excess[b]),
                         newton_per_point=np.array(per_iters[b]))
        wsets.append(WaveformSet(times=tarr, voltages=voltages,
                                 currents=currents, stats=stats))
    return wsets, failed


def transient_batch(nets: list[Netlist], analyses: list[Transient | None] | None = None,
                    opts: SolveOptions | None = None) -> list[WaveformSet]:
    """Transients of netlists with the same nodes and sources, each from its
    t=0 operating point, run in lockstep as one batch.

    analyses[i] (default: the .tran card of nets[i]) sets the steps of
    nets[i], and each member keeps its own time points.  Every WaveformSet
    is bitwise the one the netlist gives alone.  Netlists whose nodes or
    sources differ raise ValueError.  If any netlist fails, the error of
    the lowest-index one is raised, with that index in its ``member``.
    """
    opts = opts or SolveOptions()
    nets = list(nets)
    if analyses is None:
        analyses = [None] * len(nets)
    analyses = [_tran_card(net) if a is None else a
                for net, a in zip(nets, analyses, strict=True)]
    if not nets:
        return []
    wsets, failed = _lockstep(nets, analyses, opts.integration)
    if failed:
        b = min(failed)
        failed[b].member = b
        raise failed[b]
    return wsets


def _tran_card(net: Netlist) -> Transient:
    for a in net.analyses:
        if isinstance(a, Transient):
            return a
    raise ValueError("netlist has no .tran analysis")


def transient(net: Netlist, analysis: Transient | None = None,
              opts: SolveOptions | None = None) -> WaveformSet:
    """Transient from the t=0 operating point: a batch of one.

    Every stimulus breakpoint is a time point, and each segment between two
    breakpoints starts at the floor step (dt, clamped as the module
    docstring says).  The step then grows up to the .tran dtmax while the
    local truncation error estimate stays within _LTE_TOL; without a dtmax
    above dt it stays at the floor.  Identical inputs produce bit-identical
    WaveformSets.
    """
    return transient_batch([net], [analysis], opts)[0]

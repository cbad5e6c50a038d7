"""Modified nodal analysis: Newton DC operating point and step-controlled
transient.

Unknowns are the non-ground node voltages followed by one branch current per
voltage source (current into the + terminal).  Each circuit is compiled once
into index arrays over two forms of branch, both a current from end p to q:

  * linear branches, g*(x[c] - x[d]) + i0: resistors, capacitor companions,
    a constant gmin shunt on every FET drain/source node (so that fully
    cut-off stacks keep a DC path to ground) and the gmin-stepping shunts
    from every node to ground, all with (c, d) = (p, q).  A voltage source
    is two with g = 1: its current x[row] from + to -, and its constraint
    x[+] - x[-] - value into its own row;
  * FET branches drain -> source, the N-channel square law of
    vgs = x[gate] - x[source] and vds = x[p] - x[q], evaluated in one
    element-wise pass (devices.square_law).  A P device's N-law voltages
    -(vg - vs) and -(vd - vs) are exactly vs - vg and vs - vd, so it swaps
    its ends and its gate pair, and its current needs no sign.

Ground is index n, one past the last unknown: every solution vector carries
a trailing 0 there, and F and each Jacobian block carry its row and column
n, which nothing reads, so no stamp tests for ground.  One stamp gives every
Jacobian entry: a derivative w by x[c] - x[d] adds w, -w, -w, w at (p, c),
(p, d), (q, c), (q, d), once per linear branch and per FET once for gm and
once for gds (Ho, Ruehli and Brennan, IEEE TCAS 1975).  So one table, a
column (p, q, c, d) per derivative, gives every control voltage, branch
current end and Jacobian slot.

At n = 22 an update's arithmetic is small next to numpy's fixed cost per
call, so one Newton update is a fixed, short sequence of calls on buffers
that the compile step allocates, the same for a batch of one as of many:

  1. one gather of x[hi], then x[lo], into one buffer and one subtraction
     give every control voltage;
  2. the linear branches' currents g*v + i0 go to the front of one value
     buffer, and one square_law pass over the FETs writes their currents,
     then their gm and gds, after them, reversing the devices with vds < 0;
     g is one buffer too, whose capacitor slice takes the companions' geq
     when the step changes and whose shunt slice changes with the shunt;
  3. one negation fills the buffer's mirror half, and one copy appends
     w = (gm, gds) negated and as it is, so the buffer holds the weights of
     one scatter: each branch current, for its two ends, and the FETs'
     Jacobian weights w, -w, -w, w;
  4. one np.bincount sums the currents into the KCL residual F and the
     weights into the FETs' Jacobian, in the slots after F's (each slot
     adds the same terms in the same order as a scatter of F or of the
     Jacobian alone), and one addition of the FETs' Jacobian and the
     linear branches' writes J into the Jacobian buffer;
  5. one LAPACK call solves J dx = -F with the probe below into the
     solution buffer, and one np.abs into a buffer and one reduction along
     its rows give each member's |dx|inf and |z|inf.

_Circuit also owns the buffers of the solve (_SolveBuffers): the right-hand
sides, |J| and its row sums, the solutions and their magnitudes, with the
probe vector and the ones.  A solve of the m members still iterating uses
the first m rows of each.  So dx, J and the KCL scale are views of buffers:
each stays valid until the next update, or the next call that wrote it.

The KCL test's per-node scale, when Newton needs it, is one np.maximum.at
of the branch currents' magnitudes over their ends.  Max and negation are
exact, so no order of the branches changes a result.  Newton solves
J dx = -F and converges when both a small update step and a small true KCL
residual hold at every node:

    |sum of branch currents| <= _ABSTOL + _RELTOL * max |branch current|
    |dx| <= _VTOL for every unknown

and fails if it has not converged after _MAX_NEWTON_ITERS updates.  The
update test is 100 uV, ten times tighter than SPICE2's 1e-3*|v| + 1 uV at
1 V (Nagel, UCB/ERL M520, 1975).  That suffices because Newton converges
quadratically: an update below 100 uV leaves an error far below it.  On
the decoder's fixed grid a run at a hundredth of it keeps the same time
points and moves no node by more than 0.5 uV; at 1 mV nodes move 14 uV.

Each iteration evaluates one residual, at the iterate x_k, and solves for
x_k+1 = x_k + dx.  x_k+1 is accepted when dx meets the update test and the
KCL test held at x_k, as SPICE3 accepts an iterate on its update and the
last device load, with no device evaluated at the accepted point.  If dx
meets the update test but KCL failed at x_k, the next iteration tests KCL
at x_k+1 before it solves, and accepts x_k+1 if it holds.  The recorded
KCL excess is that of the iterate the test ran on, x_k or x_k+1, at most
_ABSTOL either way.  The KCL test, with its per-node scale, is evaluated
only when a member's update has met the update test, at the last iteration
allowed and for a member that fails.  A member still iterating after the
last update allowed failed the KCL test if that update met the update
test, else the update test; its ConvergenceError names the test, for the
update test the unknown of the largest |dx|, and its worst KCL node.

A batch of B netlists with the same nodes and sources is compiled as the
disjoint union of its members' branches: member b's unknowns and its own
ground slot sit at offset b*(n+1) of one flat vector, so one scatter serves
the whole batch and the Jacobian reshapes to B blocks of n+1 x n+1, whose
leading n x n LAPACK solves.  Newton runs the members in lockstep: each
keeps its own convergence test, update clip and divergence check, and a
member that has converged is frozen, so its solution, iteration count and
KCL excess are exactly those of a run alone.  The members still iterating
are solved together.  A member that fails drops out, and so do the members
after it; the batch then raises the failure of its lowest-index failing
member.  ``transient_batch`` runs netlists with the same nodes and sources
as one batch, in lockstep rounds that try the next step of every member
still live.  Each member keeps its clock (time, step and accept/reject
decision), its accepted points and its counters in one record, and its row
of the round's last two solutions, so its run is bitwise the one it gives
alone.  A member that is done, or dropped after a failure, leaves the
compiled batch: the batch is compiled again for the live members (a netlist
is validated once, before the first compile), which carry their rows (and
under the trapezoidal rule their capacitor currents) over, so no round
assembles or solves a member that is not live.  Each member's branches
compile in the same order in any batch, and its Jacobian and residual slots
and its LAPACK system are its own, so its arithmetic does not change.
``transient`` is a batch of one.

Each Newton step is one call of numpy's LAPACK gufunc (the one behind
np.linalg.solve, without that wrapper's checks) on the stacked
J dx = -F together with a probe right-hand side D p, p fixed and D = diag(r),
r_i the sum of |J_ij| over row i, taken as the product |J| @ ones.  The two
right-hand sides are the rows of one batch x 2 x n buffer, which the
gufunc reads transposed, as its columns, and it writes the two solutions
dx and z transposed too, as the rows of a second such buffer: dx and z
are contiguous rows, and their norms a reduction along them.  np.errstate
wraps the gufunc's call alone, so that no warning of the residual or its
scatter is hidden.  LAPACK sees J unchanged; the probe's solution z is that
of the row-equilibrated D^-1 J z = p (Golub and Van Loan, Matrix Computations,
sec. 3.5), and |D^-1 J|inf = 1, so |z|inf estimates the condition of
D^-1 J.  A product sums a row in another order than a row reduction, so r
and z may move in their last bits with the way r is taken, but dx does
not: LAPACK factors J alone, no column's values enter another's solution,
and z feeds only the test against _PROBE_KAPPA.  But dx is this two-column
solve's, not a one-column solve's (up to 2e-16 of the largest entry apart):
dropping the probe moves the decoder's waveforms.  LAPACK factors each
system of the stack on its own, and the gufunc returns NaN for a system it
cannot factor, leaving the others as they are alone.  A system is doubtful
where its dx is not finite (NaN included) or |z|inf reaches _PROBE_KAPPA,
and the doubtful ones go to one stacked SVD of D^-1 J (Golub and Van Loan,
sec. 2.4).  A smallest singular value of at most 1e-14 times the largest
makes the matrix singular: _solve returns the indices of the unknowns
that its null vector moves, and Newton's SingularMatrixError names them,
node names and i(<source>) as in the CSV header.  Otherwise the SVD gives
dx.

If the plain DC solve fails, it is retried with gmin stepping: shunts of
_GMIN * 10**(_GMIN_STEPS - s) from every node to ground for s = 0.._GMIN_STEPS,
each solution seeding the next.  A DC solve sets the capacitor companions
to zero, which leaves the capacitors open.

Each member converts its sources' stimuli once, to their pwl(tstop), and
evaluates those at each time point it tries, and at t = 0 for the DC point.
From those corners _Member alone derives its breakpoints and its floor.
Transient analysis forces a time point at every breakpoint (every source's
corner strictly inside (0, tstop)), merged where closer together than a
millionth of the floor step.  The floor is the .tran dt clamped to
tstop/1000, to dtmax and to a tenth of the shortest edge between two
corners of different value that starts before tstop; the ceiling is the
.tran dtmax if that exceeds dt, else the floor.  One rule sets every step.
Each segment between two breakpoints starts at the floor.  The step asked
for is held between the floor and the ceiling; it takes the rest of the
segment if that is no longer than the step up to rounding (1e-9 relative),
and half of it if the step would leave a remainder below the floor.  So a
step below the floor is one of the last two of its segment, and with the
ceiling at the floor the steps are the floor's.  After each accepted point
the step asked for is h * min(2, 0.9 * (tol / err)**(1/(p+1))), p the order
of the rule, tol the fixed _LTE_TOL (0.1 mV) and err the local truncation
error estimate (Nagel, SPICE2, UCB/ERL M520, 1975)

    err = max over the node voltages of |x_corrected - x_predicted|

with the predictor below.  A step above the floor (beyond rounding) is
rejected when err > tol or Newton fails there, and retried shorter: by the
same formula, or by 8x after a Newton failure.  A step at or below the
floor is never rejected; a Newton failure there fails the run, and so
does a retry that is not shorter than the step rejected; _Member.settle
alone applies this rule.  So the settled stretches of a card with a dtmax
above dt cost a few steps each, and a card without one never rejects a step.

Every capacitor C, the FETs' lumped cg and cd included, becomes the
companion i = geq*v + ihist of its branch voltage v over a step h, in
SPICE2's forms (Nagel, UCB/ERL M520, 1975).  transient_batch reads the rule
once from SolveOptions:

    backward Euler (the default, p = 1):  geq = C/h,   ihist = -geq*v_prev
    trapezoidal (p = 2):                  geq = 2C/h,  ihist = -geq*v_prev - i_prev

with v_prev and i_prev the capacitor's voltage and current at the last
accepted point.  The conductances, -geq and the Jacobian of the linear
branches depend on the steps alone and are built again only when one
changes, the fixed branches' part of that Jacobian once per circuit.  The
last two accepted solutions of every member are two batch x n+1 arrays,
last and prev, both the DC solution at first; a mask of the members
accepted updates them, and one gather from last gives v_prev.  Only the
trapezoidal rule keeps i_prev, as geq * v + ihist with v gathered from the
accepted solution (Newton's last residual is at the iterate before it).

Newton at each time point starts from a linear predictor through the last
two accepted points (Nagel, SPICE2, UCB/ERL M520, 1975):

    x0 = last + (h / h_last) * (last - prev)

with h the step tried and h_last the step to last, inf at the DC point, so
the first step starts from the DC solution.  Where the waveform is locally
linear the first update already meets the step test, so a step costs one
solve, not two.  The predictor is element-wise per member, so batching stays
bitwise exact; compared with the corrected solution, it gives the error
estimate above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np
from numpy.linalg import _umath_linalg

from .devices import square_law
from .measure import Waveform
from .netlist import Netlist, Transient


class SingularMatrixError(RuntimeError):
    """A Newton update's matrix is singular.  unknowns names those its null
    vector moves as the waveform CSV header does, node names and
    i(<source>); t is the time point (None for a DC solve) and member is
    set by transient_batch to the index of the failing netlist."""

    member: int | None = None

    def __init__(self, unknowns, t: float | None = None):
        self.unknowns, self.t = tuple(unknowns), t
        super().__init__("singular matrix (undetermined: "
                         f"{', '.join(map(str, self.unknowns))})")


class ConvergenceError(RuntimeError):
    """Newton failed.  t is the time point (None for a DC solve) and test
    the test that failed: "update" if the last update exceeded _VTOL (or
    was not finite: the solution diverged), "kcl" if it met _VTOL and KCL
    failed.  After an update failure, unknown names the unknown of that
    update's largest |dx| as the waveform CSV header does, and dx is its
    update.  node is the worst KCL node at the last iterate evaluated,
    excess its KCL excess in A and iteration the number of Newton updates
    taken; member is set by transient_batch to the index of the failing
    netlist."""

    member: int | None = None

    def __init__(self, message: str, t: float | None = None,
                 node: str | None = None, excess: float | None = None,
                 iteration: int | None = None, test: str | None = None,
                 unknown: str | None = None, dx: float | None = None):
        super().__init__(message)
        self.t, self.node, self.excess, self.iteration = t, node, excess, iteration
        self.test, self.unknown, self.dx = test, unknown, dx


@dataclass
class SolveOptions:
    """A transient's integration rule; Newton's tolerances and gmin are the
    module constants _ABSTOL to _GMIN_STEPS."""

    integration: str = "backward_euler"  # or "trapezoidal"

    def __post_init__(self):
        if self.integration not in ("backward_euler", "trapezoidal"):
            raise ValueError(f"unknown integration rule {self.integration!r}")


# The row-equilibrated B = D^-1 A has |B|inf = 1, so sigma_max <= sqrt(n).
# If the SVD rejects B, sigma_min <= 1e-14 * sigma_max, the probe's solution
# z = B^-1 p has a component (u_min . p) / sigma_min along the null vector,
# and |z|inf >= |z|2 / sqrt(n) >= 1e14 * |u_min . p| / n.  At 1e8 the probe
# sends B to the SVD whenever |u_min . p| >= 1e-6 * n, 2.2e-5 at n = 22 with
# |p|2 = 3.3: five decades for the probe's share along the null direction.
# The decoder's cut-off nodes hang on gmin alone at DC, which row scaling
# makes a row like any other: its |z|inf reach 2.1e7 at DC and 1.2e3 in a
# transient.
_PROBE_KAPPA = 1e8


# numpy's LAPACK gufunc (m,m),(m,n)->(m,n) behind np.linalg.solve
_lapack_solve = _umath_linalg.solve


# np.linalg.solve ignores the same flags, but calls "invalid", the flag of
# a failed system, to raise LinAlgError for the whole stack
@np.errstate(all="ignore")
def _lapack(a, b, out):
    return _lapack_solve(a, b, out=out)


class _SolveBuffers:
    """What _solve writes, for stacks of up to batch systems of n unknowns.
    Each system's two right-hand sides -F and D p are its rows of one
    batch x 2 x n buffer, and their solutions dx and z its rows of another,
    sol: LAPACK reads the first and writes sol transposed, as columns.
    Three more buffers take |sol|, |J| and the row sums r of |J|; the probe
    p = cos(1..n) in each row and ones, n ones, are read-only.  views[m]
    holds the views of the first m rows of each that a solve of m systems
    works in, made once."""

    def __init__(self, batch: int, n: int):
        rhs, self.sol, mag = (np.empty((batch, 2, n)) for _ in range(3))
        abs_a, r = np.empty((batch, n, n)), np.empty((batch, n))
        probe = np.tile(np.cos(np.arange(1.0, n + 1.0)), (batch, 1))
        self.ones = np.ones(n)
        probe.flags.writeable = self.ones.flags.writeable = False
        self.views = [(rhs[:m, 0], rhs[:m, 1], rhs[:m].transpose(0, 2, 1),
                       self.sol[:m].transpose(0, 2, 1), self.sol[:m, 0], self.sol[:m],
                       mag[:m], abs_a[:m], r[:m], probe[:m]) for m in range(batch + 1)]


def _solve(a: np.ndarray, f: np.ndarray, buf: _SolveBuffers
           ) -> tuple[np.ndarray, list[float], dict[int, list[int]]]:
    """Newton's updates dx[j] = -a[j]^-1 f[j] for the stack of systems a
    (m x n x n, maybe a strided view) and residuals f (m x n), with the
    probe and the SVD of the module docstring, worked in the first m rows
    of buf.

    Returns dx, each |dx[j]|inf as a float (NaN if dx[j] holds a NaN), and
    for each system j the SVD rejects, whose dx[j] is then undefined, the
    indices of the unknowns whose null-vector entries reach a tenth of the
    largest.  A zero row of a is scaled by 1 for the SVD.  dx is a view of
    buf.sol (dx[j] is sol[j, 0]): it stays valid until the next solve in
    buf.
    """
    neg_f, dp, rhs_t, sol_t, dx, sol, mag, abs_a, r, probe = buf.views[len(f)]
    np.negative(f, neg_f)
    np.matmul(np.abs(a, out=abs_a), buf.ones, out=r)
    np.multiply(probe, r, dp)
    _lapack(a, rhs_t, sol_t)
    # dx and z are the contiguous rows of sol: one reduction along them
    step, z = np.maximum.reduce(np.abs(sol, out=mag), axis=2).T.tolist()
    singular = {}
    # NaN, which np.maximum propagates, fails both tests
    doubt = [j for j, (dj, zj) in enumerate(zip(step, z))
             if not (dj < math.inf and zj < _PROBE_KAPPA)]
    if not doubt:
        return dx, step, singular
    d = r[doubt]
    d[d == 0.0] = 1.0
    u, s, vt = np.linalg.svd(a[doubt] / d[:, :, None])
    for k, j in enumerate(doubt):
        if s[k, -1] <= 1e-14 * s[k, 0]:
            null = np.abs(vt[k, -1])
            singular[j] = np.flatnonzero(null >= 0.1 * null.max()).tolist()
            continue
        dx[j] = vt[k].T @ ((u[k].T @ (-f[j] / d[k])) / s[k])
        step[j] = float(np.max(np.abs(dx[j])))
    return dx, step, singular


@dataclass
class RunStats:
    steps: int = 0              # accepted steps
    newton_iterations: int = 0
    rejected_lte: int = 0       # steps above the floor rejected by the LTE test
    rejected_newton: int = 0    # ... and by a Newton failure
    kcl_excess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # kcl_excess[i] = max over nodes of (|residual| - _RELTOL*scale) at the
    # iterate whose KCL test accepted point i: the solution itself, or the
    # iterate one update (of at most _VTOL) before it.  Every accepted point
    # satisfies kcl_excess[i] <= _ABSTOL.
    newton_per_point: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # Newton updates taken at point i (0: the DC solve, with a failed plain
    # solve and every gmin step; else those of the accepted attempt and of
    # every rejected attempt before it); they sum to newton_iterations.


# rows per block: of the waveform rows to_csv gathers into one array at a
# time, and of the accepted solutions a _Member keeps in one array
_BLOCK = 256


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

    def to_csv(self, out: TextIO) -> None:
        """Write the waveforms as CSV to the text stream out: a header
        (time, each node, i(<source>) for each source), then one row per
        time point with the repr of every value.  The rows are gathered
        _BLOCK at a time into one array, then formatted and written one by
        one, so the memory taken grows with the number of columns, not with
        the points, and a long run's peak memory is the solver's, not its
        artifact's."""
        series = ([self.times] + [w.values for w in self.voltages.values()]
                  + [w.values for w in self.currents.values()])
        cols = ["time"] + list(self.voltages) + [f"i({n})" for n in self.currents]
        out.write(",".join(cols) + "\n")
        for i in range(0, len(self.times), _BLOCK):
            for r in np.column_stack([s[i:i + _BLOCK] for s in series]):
                out.write(",".join(map(repr, r.tolist())) + "\n")


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
# tolerance, which a tighter value would only spend confirmation solves
# on; and the updates allowed per solve
_ABSTOL = 1e-9
_RELTOL = 1e-4
_VTOL = 1e-4
_MAX_NEWTON_ITERS = 100

# S, the FET drain/source shunt and the last gmin-stepping shunt, and the
# decades that gmin stepping starts above it
_GMIN = 1e-12
_GMIN_STEPS = 10


def _column(rows, i, dtype=float) -> np.ndarray:
    return np.array([r[i] for r in rows], dtype=dtype)


def _stamped(w, out):
    """Branch derivatives w as the weights w, -w, -w, w of the Jacobian
    slots (p, c), (p, d), (q, c), (q, d) that _Circuit's slot table lists,
    written into the rows of out (4 x len(w)) and returned flat."""
    out[::3] = w
    np.negative(w, out[1:3])
    return out.reshape(-1)


class _Circuit:
    """Netlists with the same nodes and sources, compiled once into branch
    index arrays over one flat unknown vector, and the linearization Newton
    iterates on: the linear branches' conductances g and their Jacobian
    (set_conductances), their offset currents i0 and Newton's update clip
    (set_sources).

    Member b's unknowns sit at b*(n+1) .. b*(n+1) + n-1, its ground at
    b*(n+1) + n and its Jacobian in the n+1 x n+1 block b of one buffer.
    A single circuit is a batch of one.  The netlists are valid:
    dc_operating_point and transient_batch validate each once.
    """

    def __init__(self, nets: list[Netlist]):
        self.batch = len(nets)
        self.node_names = nets[0].nodes[1:]  # non-ground
        self.nv = nv = len(self.node_names)
        self.vsources = [d for d in nets[0].devices if d.kind == "vsource"]
        self.n = n = nv + len(self.vsources)
        self.n1 = n1 = n + 1
        src_names = [d.name for d in self.vsources]
        # as in the waveform CSV header
        self.unknown_names = self.node_names + [f"i({name})" for name in src_names]
        res, caps, fets, gmins, shunts, src_i, src_v = ([] for _ in range(7))
        for b, net in enumerate(nets):
            ground = b * n1 + n
            node_of = {name: b * n1 + i - 1 for i, name in enumerate(net.nodes)}
            node_of["0"] = ground
            fet_nodes, names = set(), []
            for d in net.devices:
                t = [node_of[name] for name in d.terminals]
                if d.kind == "resistor":
                    res.append((*t, *t, 1.0 / d.value))
                elif d.kind == "vsource":
                    row = b * n1 + nv + len(names)
                    src_i.append((*t, row, ground, 1.0))  # the current x[row]
                    src_v.append((row, ground, *t, 1.0))  # x[p] - x[q] - value
                    names.append(d.name)
                elif d.kind == "capacitor":
                    caps.append((t[0], t[1], d.value))
                elif d.kind == "fet":
                    card = net.models[d.model]
                    m = d.value
                    drain, gate, src = t[:3]
                    ends, ctrl, vth = (drain, src), (gate, src), card.vth
                    if card.polarity == "p":  # the N law with both pairs swapped
                        ends, ctrl, vth = ends[::-1], ctrl[::-1], -vth
                    fets.append((*ends, *ctrl, vth, card.k * m, card.lam))
                    caps += [(gate, src, card.cg * m), (drain, ground, card.cd * m)]
                    fet_nodes.update((drain, src))
            if net.nodes[1:] != self.node_names or names != src_names:
                raise ValueError("batched netlists need the same nodes and sources")
            gmins += [(i, ground, i, ground, _GMIN) for i in sorted(fet_nodes - {ground})]
            shunts += [(b * n1 + i, ground, b * n1 + i, ground) for i in range(nv)]
        caps = [(p, q, p, q, c) for p, q, c in caps if c > 0.0]
        idx = np.intp
        # ascending: each member's capacitors in a row
        self.cap_member = _column(caps, 0, idx) // n1
        self.cap_c = _column(caps, 4)
        # linear branches: fixed conductances, capacitors, stepping shunts
        fixed = res + src_v + src_i + gmins
        src_branches = slice(len(res), len(res) + len(src_v))
        self.cap_branches = slice(len(fixed), len(fixed) + len(caps))
        lin = fixed + caps + shunts
        nl, nf, nfix = len(lin), len(fets), len(fixed)
        self.vth, self.k, self.lam = (_column(fets, i) for i in range(4, 7))
        # the one table: a column (p, q, c, d) per derivative by x[c] - x[d]
        # of a current from p to q, each linear branch's, then each FET's gm
        # on vgs, then its gds on vds = x[p] - x[q]
        cols = lin + fets + [(p, q, p, q) for p, q, *_ in fets]
        p, q, c, d = (_column(cols, i, idx) for i in range(4))
        # one gather of x[c] then x[d] into pair, and one subtraction into
        # dv, give every control voltage
        nb, nc = nl + nf, nl + 2 * nf
        self.hilo = np.concatenate((c, d))
        self.pair = np.empty(2 * nc)
        self.x_hi, self.x_lo = self.pair[:nc], self.pair[nc:]
        self.dv = np.empty(nc)
        self.v_lin, self.vgs, self.vds = self.dv[:nl], self.dv[nl:nl + nf], self.dv[nl + nf:]
        # branch currents run from these nodes (first half) to these (second)
        self.ends = np.concatenate((p[:nb], q[:nb]))
        # each column's slots (p, c), (p, d), (q, c), (q, d) in the n+1 x n+1
        # blocks of the flat Jacobian, whose ground rows and columns nothing reads
        self.size = self.batch * n1 * n1
        slots = (np.concatenate((p, p, q, q)) * n1
                 + np.concatenate((c, d, c, d)) % n1).reshape(4, -1)
        # g: the fixed branches' conductances, then the capacitors' and the
        # shunts', which set_conductances writes.  The fixed branches'
        # Jacobian is built here (as floats: a netlist of capacitors alone
        # has none, and np.bincount of none gives int64), the capacitors' and
        # shunts' when the step or the shunt changes, the FETs' every iteration
        self.g = np.zeros(nl)
        self.g[:nfix] = g_fixed = _column(fixed, 4)
        self.g_cap = self.g[self.cap_branches]
        self.g_shunt = self.g[self.cap_branches.stop:]
        self.jac_fixed = np.bincount(slots[:, :nfix].reshape(-1), _stamped(
            g_fixed, np.empty((4, nfix))), minlength=self.size).astype(float)
        self.cap_w, self.shunt_w = np.empty((4, len(caps))), np.empty((4, len(shunts)))
        self.jac_lin, self.jac = np.empty(self.size), np.empty(self.size)
        self.jac_blocks = self.jac.reshape(self.batch, n1, n1)[:, :n, :n]
        self.flat_cap, self.flat_shunt = (slots[:, part].reshape(-1) for part in (
            self.cap_branches, slice(self.cap_branches.stop, nl)))
        self.i0 = np.zeros(nl)
        self.i0_cap = self.i0[self.cap_branches]
        self.i0_src = self.i0[src_branches].reshape(self.batch, -1)
        # the weights of one scatter, in the order of bins: val (the linear
        # branch currents, then the FETs' currents, gm and gds, which
        # square_law writes in place), its negation mirror, then fet_w,
        # w = (gm, gds) negated and as it is, so that the FETs' Jacobian
        # weights run w, -w, -w, w; cur is each branch current for its
        # first end and, negated, for its second
        nw = nl + 3 * nf
        self.weights = np.zeros(2 * nw + 4 * nf)
        halves = self.weights[:2 * nw].reshape(2, nw)
        self.val, self.mirror = halves
        self.cur, self.fet_w_from = halves[:, :nb], halves[::-1, nb:]
        self.fet_w = self.weights[2 * nw:].reshape(2, 2 * nf)
        self.lin_i = self.val[:nl]
        self.fet_out = (self.val[nl:nb], self.val[nb:nb + nf], self.val[nb + nf:])
        # one np.bincount over bins sums the currents into F's n_f slots
        # and the FET weights into the FETs' Jacobian, size slots after them
        self.n_f = self.batch * n1
        pc, pd, qc, qd = self.n_f + slots[:, nl:]
        self.bins = np.concatenate((self.ends[:nb], pc, self.ends[nb:], pd, qc, qd))
        self.n_bins = self.n_f + self.size
        # scale's |branch currents| and its maxima over each end's slots
        self.cur_mag, self.mags = np.empty((2, nb)), np.empty(self.n_f)
        self.node_mags = self.mags.reshape(-1, n1)[:, :nv]
        self.solve_buf = _SolveBuffers(self.batch, n)

    def set_conductances(self, geq, shunt):
        """Set what stays fixed while the step size does: the linear-branch
        conductances g and their flat Jacobian, both written in place.  geq
        are the capacitor companion conductances (zeros for DC), shunt the
        gmin-stepping conductance from every node to ground."""
        self.g_cap[:] = geq
        self.g_shunt.fill(shunt)
        np.add(self.jac_fixed, np.bincount(self.flat_cap, _stamped(geq, self.cap_w),
                                           minlength=self.size), out=self.jac_lin)
        if shunt:
            self.jac_lin += np.bincount(self.flat_shunt, _stamped(self.g_shunt, self.shunt_w),
                                        minlength=self.size)

    def set_sources(self, ihist, svals):
        """Set the linear branches' offset currents i0: the capacitor
        history currents ihist, minus the source values svals (batch x
        nsrc, rows of floats or an array) on the source constraints, zero
        elsewhere; and Newton's clip on node-voltage updates: vlimit, twice
        each member's largest |source value|, at least 1 V, and clip, the
        smallest of them, as floats, so that Newton compares its update
        sizes with one number."""
        self.i0_cap[:] = ihist
        np.negative(svals, self.i0_src)
        self.vlimit = [2.0 * max([0.5, *map(abs, row)]) for row in svals]
        self.clip = min(self.vlimit)

    def residual(self, x):
        """KCL residual F (batch x n) at x (batch x n+1, ground 0 last).

        F stays in f, the branch currents in cur and the FETs' Jacobian in
        fet_jac until the next call: kcl, scale and jacobian read them.
        """
        # the indices are in range by construction; mode="raise" would
        # gather into a temporary and copy it to out
        x.take(self.hilo, out=self.pair, mode="clip")
        np.subtract(self.x_hi, self.x_lo, self.dv)
        np.multiply(self.g, self.v_lin, self.lin_i)
        self.lin_i += self.i0
        square_law(self.vth, self.k, self.lam, self.vgs, self.vds, self.fet_out)
        np.negative(self.val, self.mirror)
        np.copyto(self.fet_w, self.fet_w_from)
        sums = np.bincount(self.bins, self.weights, minlength=self.n_bins)
        self.f, self.kcl_test = sums[:self.n_f].reshape(-1, self.n1)[:, :self.n], None
        self.fet_jac = sums[self.n_f:]
        return self.f

    def scale(self):
        """Each node's largest |branch current| at residual's last x, batch
        x nv: the current scale of its KCL test, one np.maximum.at of the
        magnitudes over the branch ends from zero; max is exact, so the
        order of the branches does not matter.  A view of a buffer, valid
        until the next call."""
        self.mags.fill(0.0)
        np.maximum.at(self.mags, self.ends, np.abs(self.cur, out=self.cur_mag).reshape(-1))
        return self.node_mags

    def jacobian(self):
        """dF/dx at residual's last x, batch x n x n: the linear branches'
        Jacobian plus the FETs'.  A strided view of the leading n x n of
        each block of a buffer, valid until the next call."""
        np.add(self.jac_lin, self.fet_jac, out=self.jac)
        return self.jac_blocks

    def cap_voltages(self, x):
        """The capacitor branches' voltages x[c] - x[d] at x (batch x n+1),
        by residual's gather and subtraction: a view of a buffer, valid until
        the next residual or cap_voltages call.  F, cur, the FETs' Jacobian
        and the KCL test are left as they were."""
        x.take(self.hilo, out=self.pair, mode="clip")
        np.subtract(self.x_hi, self.x_lo, self.dv)
        return self.v_lin[self.cap_branches]

    def newton(self, x, live, t=None, label=""):
        """Lockstep Newton-Raphson on J dx = -F to the dual (residual + step)
        criterion for the members listed, ascending, in live, on the
        linearization that set_conductances and set_sources last set.

        x (batch x n+1) holds the initial guess and is updated in place.
        t holds each member's time point, None for a DC solve, which errors
        carry; label (DC only) names the solve in error messages.
        Returns each member's Newton update count (the linear solves made
        for it, the failing one included), its KCL excess at the iterate
        its test ran on and the error of each member that failed.
        """
        batch, xs = self.batch, x[:, :self.n]
        members = list(live)
        iters, excess = [0] * batch, [0.0] * batch
        failed: dict[int, Exception] = {}
        times = [None] * batch if t is None else t
        # the members whose last update met _VTOL while KCL failed at the
        # iterate it started from
        met = []
        solved = []  # the members of the last solve, dx's rows
        for it in range(_MAX_NEWTON_ITERS + 1):
            if not members:
                break
            f = self.residual(x)
            if met:  # x_k-1 + dx met _VTOL but KCL failed at x_k-1: test it at x_k
                members, met = self._retire(members, met, it, iters, excess)
                if not members:
                    break
            if it == _MAX_NEWTON_ITERS:
                for b in members:  # in met: its update met _VTOL, so KCL failed
                    iters[b] = it
                    last = None if b in met else dx[solved.index(b)]
                    failed[b] = self._failure(b, times[b], label, it, last)
                break
            # the rows of the members still iterating
            solved = members
            pick = slice(None) if len(members) == batch else np.array(members, dtype=np.intp)
            dx, step, singular = _solve(self.jacobian()[pick], f[pick], self.solve_buf)
            # NaN propagates through np.maximum and fails every test of a
            # step: a non-finite update has a step that is not below inf.
            # The steps are >= 0, so a sum within the clip keeps each within
            # it, and a NaN or inf among them makes the sum fail the test
            if singular or not sum(step) <= self.clip:
                if any(s > self.clip for s in step):  # clip the node-voltage updates
                    lim = np.array(self.vlimit)[pick, None]
                    dx_v = dx[:, :self.nv]
                    np.minimum(dx_v, lim, out=dx_v)
                    np.maximum(dx_v, -lim, out=dx_v)
                    step = np.maximum.reduce(np.abs(dx), axis=1).tolist()
                for j, b in enumerate(members):
                    if j in singular:
                        failed[b] = SingularMatrixError(
                            [self.unknown_names[i] for i in singular[j]], times[b])
                    elif not step[j] < math.inf:
                        failed[b] = self._failure(b, times[b], label, it + 1, dx[j])
                    else:
                        continue
                    iters[b] = it + 1
                    dx[j], step[j] = 0.0, math.nan  # x[b] stays; NaN meets no test
            xs[pick] += dx
            # x_k + dx is accepted when dx met _VTOL and KCL held at x_k
            met = [b for b, s in zip(members, step) if s <= _VTOL]
            if failed:
                members = [b for b in members if b not in failed]
            if met:
                members, met = self._retire(members, met, it + 1, iters, excess)
        return iters, excess, failed

    def _retire(self, members, met, count, iters, excess):
        """Retire the members of met whose KCL test holds at residual's last
        x, with count Newton updates and their KCL excess written to iters
        and excess.  Returns the members still iterating and those of met
        among them."""
        err = self.kcl()[1]
        done = {b for b in met if err[b] <= _ABSTOL}
        for b in done:
            iters[b], excess[b] = count, err[b]
        return [b for b in members if b not in done], [b for b in met if b not in done]

    def kcl(self):
        """The KCL test at residual's last x, evaluated once per residual:
        each node's excess |F| - _RELTOL * scale, batch x nv, and each
        member's largest as a list of floats."""
        if self.kcl_test is None:
            over = np.abs(self.f[:, :self.nv]) - _RELTOL * self.scale()
            self.kcl_test = over, np.maximum.reduce(over, axis=1).tolist()
        return self.kcl_test

    def _failure(self, b, tb, label, iteration, dx):
        """The ConvergenceError of member b at time tb (None for a DC solve,
        which label names) after iteration updates.  dx is its last update
        if that failed the update test (not finite: it diverged), None if it
        met it and the KCL test failed.  The error names the test, the
        unknown of dx's largest |dx| (the first NaN, if any) and the worst
        KCL node at residual's last x."""
        over, err = self.kcl()
        where = label if tb is None else f" at t={tb:.6g}s"
        node = self.node_names[int(np.argmax(over[b]))]
        fields = dict(t=tb, node=node, excess=err[b], iteration=iteration, test="kcl")
        head = f"Newton failed after {_MAX_NEWTON_ITERS} iterations"
        reason = "KCL test failed"
        if dx is not None:
            i = int(np.argmax(np.abs(dx)))
            fields.update(test="update", unknown=self.unknown_names[i], dx=float(dx[i]))
            reason = f"update test failed: dx {dx[i]:.3e} on {self.unknown_names[i]!r}"
            if not math.isfinite(dx[i]):
                head = "solution diverged"
        return ConvergenceError(f"{head}{where}; {reason}; worst node {node!r} "
                                f"(KCL excess {err[b]:.3e} A)", **fields)

    def solve_dc(self, svals):
        """DC solution with gmin-stepping fallback; caps are open.

        Returns the solutions (with ground 0), the Newton update counts of
        every solve made (a failed plain solve and each gmin step included),
        the KCL excesses and the error of each member that failed.
        """
        geq = np.zeros(len(self.cap_c))
        self.set_conductances(geq, 0.0)
        self.set_sources(geq, svals)  # no capacitor history either
        x = np.zeros((self.batch, self.n1))
        iters, excess, failed = self.newton(x, range(self.batch), label=" (dc)")
        if failed:
            retry = sorted(failed)
            x[retry] = 0.0
            failed = {}
            for s in range(_GMIN_STEPS + 1):
                self.set_conductances(geq, _GMIN * 10.0 ** (_GMIN_STEPS - s))
                it, exc, bad = self.newton(x, retry, label=f" (gmin step {s})")
                failed.update(bad)
                retry = [b for b in retry if b not in bad]
                for b in retry:
                    excess[b] = exc[b]
                iters = [i + j for i, j in zip(iters, it)]
        return x, iters, excess, failed


def _source_values(sources, ts) -> list[list[float]]:
    """The values of each member's sources (PwlStimulus) at its own time
    ts[b], batch x nsrc as rows of floats."""
    return [[s.value_at(t) for s in row] for row, t in zip(sources, ts)]


def dc_operating_point(net: Netlist) -> dict[str, float]:
    """Node voltages of the DC operating point (sources at their t=0 values)."""
    net.validate()
    ckt = _Circuit([net])
    sources = [d.stimulus.pwl(0.0) for d in ckt.vsources]
    x, _iters, _excess, failed = ckt.solve_dc(_source_values([sources], [0.0]))
    if failed:
        raise failed[min(failed)]
    return {name: float(x[0, i]) for i, name in enumerate(ckt.node_names)}


class _Member:
    """One batch member: its sources, where it is in time, the step it
    tries next, and its accepted points and counters.

    sources are the PwlStimulus of each voltage source up to tstop; bps
    are the merged breakpoints from 0 to tstop; the member is in the
    segment from bps[seg] to bps[seg + 1], its last accepted point at t,
    reached by a step of h_last (inf at the DC point).  The next attempt is
    a step of h to the time point next; it may be rejected only if free,
    that is if h is above the floor.  times, iters (Newton updates) and
    excess (KCL excess) hold one entry per accepted point, and blocks its
    solutions (ground 0 last), _BLOCK rows to an array rather than one
    array each; pending counts the updates since the last one, and error
    holds the error that ends the member's run, if any.
    """

    def __init__(self, stimuli, analysis: Transient):
        tstop = analysis.tstop
        self.sources = [stim.pwl(tstop) for stim in stimuli]
        floor = min(analysis.dt, tstop / 1000.0)
        if analysis.dtmax is not None:
            floor = min(floor, analysis.dtmax)
        bps = {0.0, tstop}
        for s in self.sources:
            pts = s.points
            bps.update(t for t, _ in pts if 0.0 < t < tstop)
            for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
                if v1 != v0 and t0 < tstop:
                    floor = min(floor, (t1 - t0) / 10.0)
        merged = [0.0]
        for t in sorted(bps)[1:]:
            if t - merged[-1] >= _MIN_SEPARATION * floor:
                merged.append(t)
        merged[-1] = tstop
        grows = analysis.dtmax is not None and analysis.dtmax > analysis.dt
        self.floor, self.ceiling = floor, analysis.dtmax if grows else floor
        self.bps, self.seg, self.t, self.done = merged, 0, 0.0, False
        self.h_last = math.inf
        self.times, self.iters, self.excess = [], [], []
        self.blocks: list[np.ndarray] = []
        self.pending = self.rejected_lte = self.rejected_newton = 0
        self.error: Exception | None = None
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

    def settle(self, x: np.ndarray, iters: int, excess: float, err: float,
               failure: Exception | None, expo: float) -> bool:
        """Take the step just tried or retry it shorter, by the module
        docstring's step rule with exponent expo = 1/(p+1): its attempt made
        iters Newton updates and converged to x, with KCL excess excess and
        error estimate err, or failed with failure.  Returns whether the step
        was taken; one it can neither take nor retry shorter sets error."""
        factor = (0.125 if failure is not None else 2.0 if err == 0.0
                  else min(2.0, 0.9 * (_LTE_TOL / err) ** expo))
        if failure is None and not (self.free and err > _LTE_TOL):
            self.h_last, self.t = self.h, self.next
            self.record(x, excess, iters)
            if self.t == self.bps[self.seg + 1]:  # a breakpoint: restart at the floor
                self.seg += 1
                self.done = self.seg == len(self.bps) - 1
                if not self.done:
                    self._plan(self.floor)
            else:
                self._plan(self.h * factor)
            return True
        self.pending += iters
        if not self.free:
            self.error = failure
            return False
        if failure is None:
            self.rejected_lte += 1
        else:
            self.rejected_newton += 1
        rejected = self.h
        self._plan(rejected * factor)
        if not self.h < rejected:  # a step rule defect: it would loop here
            self.error = ConvergenceError(
                f"rejected step of {rejected:.6g}s at t={self.t:.6g}s was not "
                "shortened", t=self.t)
        return False

    def record(self, x: np.ndarray, excess: float, iters: int) -> None:
        """Keep the solution x at t, the point just accepted, with its KCL
        excess and its Newton updates, iters plus those pending."""
        k = len(self.times)
        if k % _BLOCK == 0:
            self.blocks.append(np.empty((_BLOCK, len(x))))
        self.blocks[-1][k % _BLOCK] = x
        self.times.append(self.t)
        self.iters.append(self.pending + iters)
        self.excess.append(excess)
        self.pending = 0

    def waveforms(self, ckt: _Circuit) -> WaveformSet:
        """The accepted points as waveforms of ckt's nodes and sources; the
        blocks are dropped."""
        times = np.array(self.times)
        sol = np.concatenate(self.blocks)[:len(times)]
        self.blocks = []
        voltages = {name: Waveform(times, sol[:, i])
                    for i, name in enumerate(ckt.node_names)}
        currents = {d.name: Waveform(times, sol[:, ckt.nv + j])
                    for j, d in enumerate(ckt.vsources)}
        stats = RunStats(steps=len(times) - 1, newton_iterations=sum(self.iters),
                         rejected_lte=self.rejected_lte,
                         rejected_newton=self.rejected_newton,
                         kcl_excess=np.array(self.excess),
                         newton_per_point=np.array(self.iters))
        return WaveformSet(times=times, voltages=voltages, currents=currents,
                           stats=stats)


def transient_batch(nets: list[Netlist], *,
                    opts: SolveOptions | None = None) -> list[WaveformSet]:
    """Transients of netlists with the same nodes and sources, each from its
    t=0 operating point, run in lockstep as one batch: each round, every
    member still live tries its next step.  A member is live until it is
    done, or until it or a member before it fails; the batch is then
    compiled again for the members still live.

    Each netlist's .tran card plans its steps, and each member keeps its
    own time points.  Every WaveformSet is bitwise the one the netlist
    gives alone.  Netlists whose nodes or sources differ raise ValueError.
    If any netlist fails, the error of the lowest-index one is raised,
    with that index in its ``member``.
    """
    # the rule's one flag: the companion forms and the order p of the
    # step controller's exponent 1/(p+1) (module docstring)
    trap = (opts or SolveOptions()).integration == "trapezoidal"
    expo = 1.0 / 3.0 if trap else 0.5
    nets = list(nets)
    if not nets:
        return []
    for net in nets:  # once: compiling again for the live members skips it
        net.validate()
    ckt = _Circuit(nets)
    nv = ckt.nv
    members = [_Member([d.stimulus for d in net.devices if d.kind == "vsource"],
                       _tran_card(net)) for net in nets]

    x, iters, excess, failed = ckt.solve_dc(
        _source_values([m.sources for m in members], [0.0] * len(nets)))
    for m, xb, it, e in zip(members, x, iters, excess):
        m.record(xb, e, it)
    # the last two accepted solutions (module docstring) and, under the
    # trapezoidal rule alone, the capacitors' currents at the last: a row,
    # or a slice, for each member of ckt; ids[j] is the index in nets of
    # ckt's member j, and batch[j] its _Member
    last, prev = x, x.copy()
    cap_i = np.zeros(len(ckt.cap_c)) if trap else None
    ids, batch = list(range(len(nets))), members
    steps = None  # the steps the conductances were set for
    narrow = bool(failed)  # whether a member finished or failed last round
    while True:
        if narrow:  # to the live members, always fewer than ckt's
            # members after the lowest failed one no longer matter
            stop = min(failed, default=len(nets))
            live = [b for b in ids if b < stop and not members[b].done]
            if not live:
                break
            rows = [ids.index(b) for b in live]
            if trap:
                cap_i = cap_i[np.isin(ckt.cap_member, rows)]
            ckt = _Circuit([nets[b] for b in live])
            ids, last, prev = live, last[rows], prev[rows]
            batch = [members[b] for b in ids]
            steps = None
            narrow = False
        # Newton's start, last + ratio * (last - prev), and its iterate x
        predicted = last - prev
        predicted *= np.array([[m.h / m.h_last] for m in batch])
        predicted += last
        x = predicted.copy()
        t = [m.next for m in batch]
        h = [m.h for m in batch]
        if h != steps:  # geq, and so g and the linear Jacobian, depend on h alone
            steps = h
            geq = (2.0 if trap else 1.0) * ckt.cap_c / np.array(h)[ckt.cap_member]
            ckt.set_conductances(geq, 0.0)
            neg_geq = -geq
        ihist = neg_geq * ckt.cap_voltages(last)
        if trap:
            ihist -= cap_i
        ckt.set_sources(ihist, _source_values([m.sources for m in batch], t))
        it, exc, bad = ckt.newton(x, range(len(batch)), t=t)
        diff = x[:, :nv] - predicted[:, :nv]
        err = np.maximum.reduce(np.abs(diff, out=diff), axis=1, initial=0.0).tolist()
        accepted = np.zeros((len(batch), 1), dtype=bool)
        for j, (b, m) in enumerate(zip(ids, batch)):
            accepted[j] = m.settle(x[j], it[j], exc[j], err[j], bad.get(j), expo)
            if m.error is not None:
                failed[b] = m.error
            narrow = narrow or m.done or m.error is not None
        # Newton's last residual was at the iterate before its solution
        if trap:
            np.copyto(cap_i, geq * ckt.cap_voltages(x) + ihist,
                      where=accepted[ckt.cap_member, 0])
        np.copyto(prev, last, where=accepted)
        np.copyto(last, x, where=accepted)
    if failed:
        b = min(failed)
        failed[b].member = b
        raise failed[b]
    return [m.waveforms(ckt) for m in members]


def _tran_card(net: Netlist) -> Transient:
    for a in net.analyses:
        if isinstance(a, Transient):
            return a
    raise ValueError("netlist has no .tran analysis")


def transient(net: Netlist, analysis: Transient | None = None,
              opts: SolveOptions | None = None) -> WaveformSet:
    """Transient from the t=0 operating point: a batch of one, of a copy
    of net whose one analysis is analysis, if given; net is left as it was.

    Every stimulus breakpoint is a time point, and each segment between two
    breakpoints starts at the floor step (dt, clamped as the module
    docstring says).  The step then grows up to the .tran dtmax while the
    local truncation error estimate stays within _LTE_TOL; without a dtmax
    above dt it stays at the floor.  Identical inputs produce bit-identical
    WaveformSets.
    """
    net = net if analysis is None else replace(net, analyses=[analysis])
    return transient_batch([net], opts=opts)[0]

"""Solver tests: linear algebra, DC, and transient integration accuracy.

Analytic oracles used here:
  * divider v1=2 V across two equal 1k resistors: v(mid) = 1 V and the
    branch current into the + terminal is -1 mA
  * series RC driven by a 10 ps ramp to 1 V: for t past the ramp end,
    v_out(t) = 1 - (tau/te)*(exp(te/tau) - 1)*exp(-t/tau) with te the ramp
    time and tau = RC
"""

import dataclasses
import math

import numpy as np
import pytest

from mvlsim import engine
from mvlsim.cells import CellSpec, build_staircase_testbench
from mvlsim.devices import preset, square_law
from mvlsim.engine import (
    ConvergenceError,
    SingularMatrixError,
    SolveOptions,
    _Circuit,
    _lu_solve,
    _probe_rhs,
    _solve,
    dc_operating_point,
    transient,
    transient_batch,
)
from mvlsim.mvl import LevelMap
from mvlsim.netlist import Transient, parse

DIVIDER = """* divider
v1 in 0 dc 2.0
r1 in mid 1k
r2 mid 0 1k
.op
.end
"""

INVERTER = """* inverter
.model nfet NFET vth=0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17
.model pfet PFET vth=-0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17
vsup vdd 0 dc 1.2
vin in 0 dc {vin}
mp out in vdd vdd pfet
mn out in 0 0 nfet
cl out 0 1f
.end
"""

RC = """* rc lowpass
v1 in 0 pwl(0 0 10p 1)
r1 in out 1k
c1 out 0 1p
.tran 3p 3n
.end
"""


def alternating_pwl(corners, hold=2.5e-10, slew=1e-10):
    """RC netlist driven by a 0/1 PWL whose k-th step starts at corners[k-1];
    tstop is 80 holds."""
    pts = [(0.0, 0.0)]
    for k, t in enumerate(corners, 1):
        pts += [(t, float((k - 1) % 2)), (t + slew, float(k % 2))]
    pts.append((corners[-1] + hold, pts[-1][1]))
    pwl = " ".join(f"{t!r} {v!r}" for t, v in pts)
    return (f"* alternating pwl\nv1 in 0 pwl({pwl})\nr1 in out 1k\n"
            f"c1 out 0 10f\n.tran 10p {80 * hold!r}\n.end\n")


def solve(a, b):
    """x with a @ x = b, through the solver Newton uses; raises its
    SingularMatrixError."""
    x, errors = _solve(a[None], b[None], _probe_rhs(1, len(b)))
    if errors:
        raise errors[0]
    return x[0]


def linearize(ckt, x, svals, geq, ihist, shunt):
    """KCL residual F, per-node current scale and Jacobian dF/dx of a batch
    of one at x (ground 0 last), as a Newton iteration computes them; geq
    and shunt as in linear_part, ihist as in offsets."""
    lin = (*ckt.linear_part(geq, shunt), ckt.offsets(ihist))
    f, scale, gm, gds = ckt.residual(x[None], lin, svals[None])
    return f[0], scale[0], ckt.jacobian(lin, gm, gds)[0]


def gnrfet32_linearization():
    """The gnrfet32 decoder testbench at a random point in mid-transient:
    the circuit and linearize's arguments."""
    spec = CellSpec(tech=preset("gnrfet32"), levels=LevelMap(4, 1.2))
    ckt = _Circuit([build_staircase_testbench(spec)])
    rng = np.random.default_rng(7)
    x = np.append(np.concatenate((rng.uniform(-0.2, 1.4, ckt.nv),
                                  rng.uniform(-1e-4, 1e-4, ckt.n - ckt.nv))),
                  0.0)
    svals = ckt.source_values([3e-9])[0]
    geq = ckt.cap_c / 1e-12
    ihist = rng.uniform(-1e-5, 1e-5, len(geq))
    return ckt, (x, svals, geq, ihist, 1e-9)


def divider_system():
    """Jacobian J and residual F of the divider at x = 0 and t = 0, so that
    J x = -F is its exact MNA system; unknowns in, mid, i(v1)."""
    ckt = _Circuit([parse(DIVIDER)])
    assert ckt.node_names == ["in", "mid"] and [d.name for d in ckt.vsources] == ["v1"]
    open_caps = np.zeros(len(ckt.cap_c))
    f, _scale, jac = linearize(ckt, np.zeros(ckt.n1), ckt.source_values([0.0])[0],
                               open_caps, open_caps, 0.0)
    return jac, f


def staircase(tech="cmos32", hold=1e-9, vdd=1.2, load=1e-15, vth_scale=1.0):
    """The decoder staircase testbench as ``mvlsim sweep`` builds it."""
    card = preset(tech)
    card = dataclasses.replace(
        card, nfet=dataclasses.replace(card.nfet, vth=card.nfet.vth * vth_scale),
        pfet=dataclasses.replace(card.pfet, vth=card.pfet.vth * vth_scale))
    spec = CellSpec(tech=card, levels=LevelMap(4, vdd), load=load)
    return build_staircase_testbench(spec, hold=hold)


def assert_same_run(a, b):
    """Bitwise equal waveforms and solver statistics."""
    assert np.array_equal(a.times, b.times)
    assert list(a.voltages) == list(b.voltages)
    assert list(a.currents) == list(b.currents)
    for wa, wb in zip([*a.voltages.values(), *a.currents.values()],
                      [*b.voltages.values(), *b.currents.values()]):
        assert np.array_equal(wa.values, wb.values)
    assert a.stats.steps == b.stats.steps
    assert a.stats.newton_iterations == b.stats.newton_iterations
    assert np.array_equal(a.stats.kcl_excess, b.stats.kcl_excess)
    assert np.array_equal(a.stats.newton_per_point, b.stats.newton_per_point)


def step_at(early):
    """RC driven by a 1 V step at 1 ns if early, else at 2 ns; both have the
    same breakpoints and so the same time grid."""
    v1, v2 = (1, 1) if early else (0, 1)
    return parse(f"* step\nv1 in 0 pwl(0 0 1n 0 1.01n {v1} 2n {v1} 2.01n {v2} 3n {v2})\n"
                 f"r1 in out 1k\nc1 out 0 1p\n.tran 10p 3n\n.end\n")


def rc_exact(t, te=10e-12, tau=1e-9):
    if t <= 0.0:
        return 0.0
    if t <= te:
        return t / te - (tau / te) * (1.0 - math.exp(-t / tau))
    return 1.0 - (tau / te) * (math.exp(te / tau) - 1.0) * math.exp(-t / tau)


class TestSolveLinear:
    def test_identity(self):
        assert np.array_equal(solve(np.eye(3), np.arange(1.0, 4.0)),
                              np.arange(1.0, 4.0))

    def test_two_by_two_oracle(self):
        x = solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
        assert x == pytest.approx([0.8, 1.4], rel=1e-14)

    def test_pivoting_handles_zero_diagonal(self):
        x = solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([7.0, 9.0]))
        assert x == pytest.approx([9.0, 7.0])

    def test_random_dense_residual(self):
        rng = np.random.default_rng(42)
        n = 50
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = solve(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-9 * np.max(np.abs(b))

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as ei:
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))
        assert ei.value.pivot == 1

    def test_tiny_nonzero_pivot_reports_pivot(self):
        # LAPACK solves this one cleanly to [1, 0]; the second pivot,
        # about 2e-15, is below the LU threshold of 1e-14 * |A|inf
        with pytest.raises(SingularMatrixError) as ei:
            solve(np.array([[1.0, 2.0], [2.0, 4.0 * (1.0 + 1e-15)]]),
                  np.array([1.0, 2.0]))
        assert ei.value.pivot == 1

    def test_decoder_jacobian_matches_pivoting_lu(self, monkeypatch):
        ckt, args = gnrfet32_linearization()
        f, _scale, jac = linearize(ckt, *args)
        expect = _lu_solve(jac, -f)

        def no_fallback(a, b):
            raise AssertionError("well-conditioned system left LAPACK")

        monkeypatch.setattr(engine, "_lu_solve", no_fallback)
        np.testing.assert_allclose(solve(jac, -f), expect, rtol=1e-12, atol=0)


class TestMnaSystem:
    def test_divider_stamps(self):
        jac, f = divider_system()
        g = 1.0 / 1e3
        expect = np.array([
            [g, -g, 1.0],
            [-g, 2.0 * g, 0.0],
            [1.0, 0.0, 0.0],
        ])
        assert np.array_equal(jac, expect)
        assert np.array_equal(-f, np.array([0.0, 0.0, 2.0]))

    def test_resistive_block_is_symmetric(self):
        block = divider_system()[0][:2, :2]
        assert np.array_equal(block, block.T)

    def test_divider_solution(self):
        jac, f = divider_system()
        x_in, x_mid, i_v1 = solve(jac, -f)
        assert x_in == pytest.approx(2.0, rel=1e-14)
        assert x_mid == pytest.approx(1.0, rel=1e-14)
        assert i_v1 == pytest.approx(-1e-3, rel=1e-12)


class TestDc:
    def test_divider(self):
        op = dc_operating_point(parse(DIVIDER))
        assert op["mid"] == pytest.approx(1.0, rel=1e-12)
        assert op["in"] == pytest.approx(2.0, rel=1e-12)

    def test_inverter_rails(self):
        lo = dc_operating_point(parse(INVERTER.format(vin=1.2)))
        hi = dc_operating_point(parse(INVERTER.format(vin=0.0)))
        assert abs(lo["out"]) < 1e-6
        assert abs(hi["out"] - 1.2) < 1e-6

    def test_inverter_midpoint_is_intermediate(self):
        op = dc_operating_point(parse(INVERTER.format(vin=0.6)))
        assert 0.1 < op["out"] < 1.1

    def test_floating_node_needs_gmin(self):
        net = parse("* t\nv1 a 0 dc 1\nr1 a 0 1k\nc1 x 0 1p\n.end\n")
        op = dc_operating_point(net)  # gmin stepping pulls x to ground
        assert op["x"] == pytest.approx(0.0, abs=1e-9)

    def test_conflicting_sources_stay_singular(self):
        net = parse("* t\nv1 a 0 dc 1\nv2 a 0 dc 2\nr1 a 0 1k\n.end\n")
        with pytest.raises(SingularMatrixError):
            dc_operating_point(net)

    def test_iteration_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as ei:
            dc_operating_point(parse(INVERTER.format(vin=0.6)))
        err = ei.value
        assert err.t is None and err.iteration == 1
        assert err.node and f"worst node {err.node!r}" in str(err)
        assert err.excess > engine._ABSTOL

    def test_options_validated(self):
        with pytest.raises(ValueError):
            SolveOptions(integration="euler")


class TestTransient:
    def test_rc_tracks_exact_solution_to_one_percent(self):
        ws = transient(parse(RC))
        out = ws.voltage("out")
        for t in (1e-9, 2e-9, 3e-9):
            assert out.value_at(t) == pytest.approx(rc_exact(t), abs=0.01)

    def test_trapezoidal_beats_backward_euler(self):
        net = parse(RC)
        be = transient(net, opts=SolveOptions(integration="backward_euler"))
        tr = transient(net, opts=SolveOptions(integration="trapezoidal"))
        t_probe = 1e-9
        be_err = abs(be.voltage("out").value_at(t_probe) - rc_exact(t_probe))
        tr_err = abs(tr.voltage("out").value_at(t_probe) - rc_exact(t_probe))
        assert tr_err < be_err

    def test_backward_euler_halving_shrinks_error(self):
        # steps below the stimulus-edge clamp so dt is what actually runs
        net = parse(RC)
        coarse = transient(net, Transient(dt=1e-12, tstop=3e-9))
        fine = transient(net, Transient(dt=5e-13, tstop=3e-9))
        t_probe = 1e-9
        e1 = abs(coarse.voltage("out").value_at(t_probe) - rc_exact(t_probe))
        e2 = abs(fine.voltage("out").value_at(t_probe) - rc_exact(t_probe))
        assert 1.4 < e1 / e2 < 2.8  # first-order integrator

    def test_charge_balance_via_source_current(self):
        # the series branch current integrates to the charge on the cap
        ws = transient(parse(RC), opts=SolveOptions(integration="trapezoidal"))
        i_cap = -ws.current("v1").values
        q = float(np.trapezoid(i_cap, ws.times))
        dv = float(ws.voltage("out").values[-1] - ws.voltage("out").values[0])
        assert q == pytest.approx(1e-12 * dv, rel=1e-2)

    def test_stimulus_breakpoints_land_on_grid(self):
        net = parse(RC)
        ws = transient(net)
        corner = net.device("v1").stimulus.points[1][0]
        assert corner in ws.times
        assert ws.times[0] == 0.0
        assert ws.times[-1] == net.analyses[0].tstop

    def test_axis_strictly_increasing_and_step_clamped(self):
        ws = transient(parse(RC))
        steps = np.diff(ws.times)
        assert np.all(steps > 0.0)
        # dt clamp: min(card 3p, tstop/1000 = 3p, min edge 10p / 10 = 1p)
        assert np.max(steps) <= 1e-12 * (1.0 + 1e-9)

    def test_static_circuit_stays_at_dc(self):
        net = parse("* t\nv1 a 0 dc 1\nr1 a b 1k\nr2 b 0 1k\n.tran 10p 1n\n.end\n")
        ws = transient(net)
        assert np.max(np.abs(ws.voltage("b").values - 0.5)) < 1e-9
        assert np.max(np.abs(ws.current("v1").values + 0.5e-3)) < 1e-9

    def test_every_accepted_point_meets_kcl_budget(self):
        ws = transient(parse(RC))
        assert len(ws.stats.kcl_excess) == len(ws.times)
        assert np.max(ws.stats.kcl_excess) <= engine._ABSTOL
        assert ws.stats.steps == len(ws.times) - 1
        assert ws.stats.newton_iterations >= ws.stats.steps

    def test_ramp_takes_one_newton_update_per_step(self):
        # on a ramp the line through the last two points is the next point,
        # so the first update already meets both tests; started from the
        # previous point, each 0.5-1 mV move costs a second update
        net = parse("* ramp\nv1 a 0 pwl(0 0 1n 1)\nr1 a b 1k\nr2 b 0 1k\n"
                    ".tran 1p 1n\n.end\n")
        stats = transient(net).stats
        per = stats.newton_per_point
        assert len(per) == stats.steps + 1 == 1001
        assert per.sum() == stats.newton_iterations
        assert per[1] == 2 and np.all(per[2:] == 1)

    def test_newton_count_is_the_linear_solves_made(self, monkeypatch):
        # node c floats at DC (the caps are open), so the plain DC solve is
        # singular and gmin stepping takes over: the failed solve and every
        # gmin step count towards newton_per_point[0]
        solved = []
        solve_stack = engine._solve

        def counting(a, b, rhs):
            solved.append(len(a))
            return solve_stack(a, b, rhs)

        monkeypatch.setattr(engine, "_solve", counting)
        net = parse("* t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b c 1p\nc2 c 0 1p\n"
                    ".tran 10p 100p\n.end\n")
        stats = transient(net).stats
        assert stats.newton_iterations == sum(solved) == 1020
        assert stats.newton_per_point.sum() == stats.newton_iterations
        assert stats.newton_per_point[0] == 20  # the singular solve + 19 in gmin steps

    def test_convergence_error_carries_time_point(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as ei:
            transient(parse(RC))
        err = ei.value
        assert err.t > 0.0 and f" at t={err.t:.6g}s;" in str(err)
        assert err.iteration == 1 and err.node in ("in", "out")

    def test_bit_identical_reruns(self):
        a = transient(parse(RC))
        b = transient(parse(RC))
        assert np.array_equal(a.times, b.times)
        for node in ("in", "out"):
            assert np.array_equal(a.voltage(node).values,
                                  b.voltage(node).values)
        assert np.array_equal(a.current("v1").values, b.current("v1").values)

    def test_accumulated_pwl_corner_near_tstop_is_merged(self):
        # summing 80 holds of 0.25 ns puts the last PWL corner ~7e-24 s
        # before tstop; that corner must not force a ~1e-23 s final step
        hold, corners, t = 2.5e-10, [], 0.0
        for _ in range(79):
            t += hold
            corners.append(t)
        assert 0.0 < 80 * hold - (corners[-1] + hold) < 1e-20
        ws = transient(parse(alternating_pwl(corners)))
        exact = transient(parse(alternating_pwl([k * hold for k in range(1, 80)])))
        assert ws.times[-1] == 80 * hold
        assert np.min(np.diff(ws.times)) > 1e-13
        assert len(ws.times) == len(exact.times)
        assert np.max(np.abs(ws.voltage("out").values
                             - exact.voltage("out").values)) < 1e-9

    def test_requires_a_tran_card(self):
        with pytest.raises(ValueError):
            transient(parse(DIVIDER))

    def test_lookup_is_case_insensitive(self):
        ws = transient(parse(RC))
        assert ws.voltage("OUT") is ws.voltage("out")
        assert ws.current("V1") is ws.current("v1")

    def test_csv_layout(self):
        ws = transient(parse("* t\nv1 a 0 dc 1\nr1 a 0 1k\n.tran 1n 10n\n.end\n"))
        lines = ws.to_csv().splitlines()
        assert lines[0] == "time,a,i(v1)"
        assert len(lines) == len(ws.times) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, -1e-3]

    def test_csv_is_repr_of_every_value(self):
        # reference: the row loop, one repr(float) per value
        ws = transient(parse(RC))
        series = ([ws.times] + [w.values for w in ws.voltages.values()]
                  + [w.values for w in ws.currents.values()])
        rows = [",".join(repr(float(s[i])) for s in series) for i in range(len(ws.times))]
        assert ws.to_csv() == "\n".join(["time,in,out,i(v1)"] + rows) + "\n"


class TestBatch:
    @pytest.mark.parametrize("members", [
        [{"load": 1e-15}, {"load": 3e-15}, {"load": 5e-15}],
        [{"vdd": 1.0}, {"vdd": 1.2}],
        [{"vth_scale": 0.9}, {"vth_scale": 1.1}],
        [{"tech": "cmos32"}, {"tech": "gnrfet32"}],
    ], ids=["load", "vdd", "vth_scale", "compare"])
    def test_members_match_batches_of_one(self, members):
        nets = [staircase(**kw) for kw in members]
        batch = transient_batch(nets)
        for net, wset in zip(nets, batch):
            assert_same_run(wset, transient(net))

    def test_hold_sweep_runs_as_one_batch(self):
        nets = [staircase(hold=h) for h in (1e-9, 1.5e-9, 1e-9)]
        batch = transient_batch(nets)
        for net, wset in zip(nets, batch):
            assert_same_run(wset, transient(net))

    def test_members_with_own_holds_and_dtmax_match_runs_alone(self):
        # a grown step, a fixed grid and a different card side by side, so
        # the members' time points part after the first point
        nets = [staircase(hold=1e-9), staircase(hold=1.5e-9),
                staircase(tech="gnrfet32", hold=1.2e-9)]
        trans = [net.analyses[0] for net in nets]
        analyses = [trans[0], dataclasses.replace(trans[1], dtmax=None),
                    dataclasses.replace(trans[2], dtmax=3e-11)]
        batch = transient_batch(nets, analyses)
        assert len({len(wset.times) for wset in batch}) == 3
        for net, analysis, wset in zip(nets, analyses, batch):
            assert_same_run(wset, transient(net, analysis))

    def test_members_need_the_same_nodes(self):
        other = parse(RC.replace("out", "mid"))
        with pytest.raises(ValueError, match="same nodes and sources"):
            transient_batch([parse(RC), other])

    def test_singular_member_reports_its_pivot(self):
        good = "* pair\nv1 a 0 dc 1\nv2 b 0 dc 1\nr1 a 0 1k\nr2 b 0 1k\n.tran 1p 1n\n.end\n"
        bad = "* pair\nv1 a b dc 1\nv2 b a dc 1\nr1 a 0 1k\nr2 b 0 1k\n.tran 1p 1n\n.end\n"
        with pytest.raises(SingularMatrixError) as alone:
            transient(parse(bad))
        with pytest.raises(SingularMatrixError) as batched:
            transient_batch([parse(good), parse(bad)])
        assert batched.value.pivot == alone.value.pivot
        assert (alone.value.member, batched.value.member) == (0, 1)

    @pytest.mark.parametrize("order", [(False, True), (True, False)])
    def test_lowest_index_failure_is_raised(self, order, monkeypatch):
        # with one Newton update allowed, a member fails at the first step
        # of its input edge; member 0's failure is raised even when member
        # 1 fails earlier in time
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
        nets = [step_at(early) for early in order]
        with pytest.raises(ConvergenceError) as alone:
            transient(nets[0])
        with pytest.raises(ConvergenceError) as batched:
            transient_batch(nets)
        a, b = alone.value, batched.value
        edge = 1e-9 if order[0] else 2e-9
        assert b.member == 0 and edge < b.t < edge + 2e-11
        assert (str(b), b.t, b.node, b.excess, b.iteration) == (
            str(a), a.t, a.node, a.excess, a.iteration)


def segment_steps(times, bps):
    """The steps between each pair of adjacent breakpoints, every one of
    which must be a time point."""
    steps = np.diff(times)
    at = [times.index(t) for t in bps]
    return [steps[i:j] for i, j in zip(at, at[1:])]


def assert_steps_start_and_end_at_the_floor(times, bps, floor):
    """Each segment between breakpoints starts with a step of at most the
    floor; a step below the floor is one of its last two, and no shorter
    than half the floor unless the segment is."""
    for seg in segment_steps(times, bps):
        assert seg[0] <= floor * (1.0 + 1e-9)
        short = (seg < floor * (1.0 - 1e-9)).nonzero()[0]
        assert all(k >= len(seg) - 2 for k in short)
        assert seg.min() >= min(0.5 * floor, seg.sum()) * (1.0 - 1e-9)


def attempts_failing_once_after(monkeypatch, t_fail):
    """Record the time point of every transient Newton solve of a batch of
    one; report the first one past t_fail as a Newton failure."""
    attempts = []
    newton = _Circuit.newton

    def spy(self, x, svals, vlimit, lin, live, t=None, label=""):
        iters, excess, failed = newton(self, x, svals, vlimit, lin, live, t, label)
        if t is not None:
            attempts.append(float(t[0]))
            if t[0] > t_fail and sum(a > t_fail for a in attempts) == 1:
                failed = {0: ConvergenceError("injected failure", t=float(t[0]))}
        return iters, excess, failed

    monkeypatch.setattr(_Circuit, "newton", spy)
    return attempts


class TestStepControl:
    # the staircase at hold 1 ns: dt 4 ps (tstop/1000), dtmax 50 ps (hold/20)
    def test_controlled_steps(self, monkeypatch):
        net = staircase(hold=1e-9)
        tran = net.analyses[0]
        assert (tran.dt, tran.dtmax) == (4e-12, 5e-11)
        attempts = attempts_failing_once_after(monkeypatch, 0.5e-9)
        ws = transient(net)
        times, steps, stats = ws.times.tolist(), np.diff(ws.times), ws.stats
        bps = sorted({t for t, _ in net.device("vin").stimulus.points} | {tran.tstop})
        assert_steps_start_and_end_at_the_floor(times, bps, tran.dt)
        assert np.max(steps) <= tran.dtmax * (1.0 + 1e-9)  # times round
        # the step grew: fewer steps than the floor alone would take
        assert stats.steps < sum(math.ceil((t1 - t0) / tran.dt - 1e-9)
                                 for t0, t1 in zip(bps, bps[1:]))
        # a rejected attempt is retried shorter from the same point; those
        # are exactly the attempts the next one does not pass, and they
        # leave no point
        assert stats.rejected_newton == 1 and stats.rejected_lte > 0
        kept = [a for a, b in zip(attempts, attempts[1:] + [math.inf]) if b > a]
        assert kept == times[1:]
        assert len(attempts) - len(kept) == stats.rejected_lte + stats.rejected_newton

    # the last case: dt = dtmax = 20 ps, above the floor the 100 ps edge sets
    @pytest.mark.parametrize("dt, dtmax, floor", [
        (7e-12, None, 7e-12), (7e-12, 7e-12, 7e-12), (7e-12, 5e-12, 5e-12),
        (2e-11, 2e-11, 1e-11)])
    def test_no_dtmax_above_dt_keeps_the_uniform_grid(self, dt, dtmax, floor):
        # the ceiling is the floor: steps of the floor, the last two of a
        # segment shorter where its length is no multiple of the floor
        net = parse("* t\nv1 in 0 pwl(0 0 100p 1 1n 1 1.2n 0)\nr1 in out 1k\n"
                    "c1 out 0 1p\n.end\n")
        ws = transient(net, Transient(dt=dt, tstop=1e-8, dtmax=dtmax))
        times, bps = ws.times.tolist(), [0.0, 1e-10, 1e-9, 1.2e-9, 1e-8]
        assert ws.stats.rejected_lte == ws.stats.rejected_newton == 0
        for t0, t1, seg in zip(bps, bps[1:], segment_steps(times, bps)):
            assert len(seg) == math.ceil((t1 - t0) / floor - 1e-9)
            assert np.all(seg <= floor * (1.0 + 1e-9))
        assert_steps_start_and_end_at_the_floor(times, bps, floor)

    def test_step_within_rounding_of_the_floor_is_not_rejected(self):
        # retried at the floor, a step that rounding left a hair above it
        # would be the same step again, so it must not be rejectable
        stim = parse(RC).device("v1").stimulus
        clk = engine._Clock([stim], Transient(dt=1e-12, tstop=1e-9, dtmax=5e-11))
        floor, t1 = clk.floor, clk.bps[1]
        clk.t = t1 - floor * (1.0 + 1e-12)
        clk.reject(0.125)
        assert (clk.next, clk.free) == (t1, False)
        clk.t = t1 - 5.0 * floor
        clk.reject(0.125)
        assert clk.h == floor and not clk.free
        clk.accept(2.0)
        assert clk.h == 2.0 * floor and clk.free

    def test_tighter_tolerance_takes_more_steps(self, monkeypatch):
        net = staircase(hold=1e-9)
        steps = []
        for tol in (1e-3, engine._LTE_TOL, 1e-5):
            monkeypatch.setattr(engine, "_LTE_TOL", tol)
            steps.append(transient(net).stats.steps)
        assert steps == sorted(set(steps))


class TestFetTransient:
    def test_inverter_switches_under_pulse(self):
        text = (
            "* pulsed inverter\n"
            ".model nfet NFET vth=0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17\n"
            ".model pfet PFET vth=-0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17\n"
            "vsup vdd 0 dc 1.2\n"
            "vin in 0 pulse(0 1.2 1n 50p 50p 2n 5n)\n"
            "mp out in vdd vdd pfet\n"
            "mn out in 0 0 nfet\n"
            "cl out 0 1f\n"
            ".tran 10p 5n\n"
            ".end\n")
        ws = transient(parse(text))
        out = ws.voltage("out")
        assert out.value_at(0.9e-9) > 1.1  # input low, output high
        assert out.value_at(2.5e-9) < 0.1  # input high, output low
        assert out.value_at(4.9e-9) > 1.1  # recovered after the pulse
        assert np.max(ws.stats.kcl_excess) <= engine._ABSTOL


class TestLinearize:
    def test_jacobian_matches_finite_difference_of_residual(self):
        ckt, (x, svals, geq, ihist, shunt) = gnrfet32_linearization()
        f0, scale, jac = linearize(ckt, x, svals, geq, ihist, shunt)
        assert jac.shape == (ckt.n, ckt.n) and scale.shape == (ckt.nv,)
        assert np.all(scale > 0.0)
        h = 1e-7
        fd = np.empty_like(jac)
        for j in range(ckt.n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (linearize(ckt, xp, svals, geq, ihist, shunt)[0]
                        - linearize(ckt, xm, svals, geq, ihist, shunt)[0]) / (2 * h)
        np.testing.assert_allclose(fd, jac, rtol=1e-6, atol=1e-12)

    def test_dc_residual_matches_per_device_loop(self):
        # reference: stamp every branch current device by device
        spec = CellSpec(tech=preset("cmos32"), levels=LevelMap(4, 1.2))
        net = build_staircase_testbench(spec)
        ckt = _Circuit([net])
        rng = np.random.default_rng(3)
        x = np.append(rng.uniform(-0.2, 1.4, ckt.n), 0.0)
        svals = ckt.source_values([3e-9])[0]
        zeros = np.zeros(len(ckt.cap_c))
        f, scale, _jac = linearize(ckt, x, svals, zeros, zeros, 0.0)
        v = {name: x[i] for i, name in enumerate(ckt.node_names)} | {"0": 0.0}
        res = dict.fromkeys(ckt.node_names, 0.0)
        big = dict.fromkeys(ckt.node_names, 0.0)
        shunted = set()

        def add(node, cur):
            if node != "0":
                res[node] += cur
                big[node] = max(big[node], abs(cur))

        for d in net.devices:
            t = d.terminals
            if d.kind == "resistor":
                cur = (v[t[0]] - v[t[1]]) / d.params["resistance"]
            elif d.kind == "vsource":
                cur = x[ckt.n - len(ckt.vsources) + ckt.vsources.index(d)]
            elif d.kind == "fet":
                card = net.models[d.model]
                sign = 1.0 if card.polarity == "n" else -1.0
                cur = sign * square_law(sign * card.vth, card.k * d.params.get("m", 1.0),
                                        card.lam, sign * (v[t[1]] - v[t[2]]),
                                        sign * (v[t[0]] - v[t[2]]))[0]
                shunted.update((t[0], t[2]))
            else:
                continue
            add(t[0], cur)
            add(t[2] if d.kind == "fet" else t[1], -cur)
        for node in shunted:
            add(node, engine._GMIN * v[node])
        expect = np.array([res[name] for name in ckt.node_names])
        assert f[:ckt.nv] == pytest.approx(expect, rel=1e-12, abs=1e-18)
        assert scale == pytest.approx([big[name] for name in ckt.node_names],
                                      rel=1e-12)
        for j, d in enumerate(ckt.vsources):
            vp, vm = (v[name] for name in d.terminals)
            assert f[ckt.nv + j] == vp - vm - d.stimulus.value_at(3e-9)

    def test_mna_system_at_operating_point_is_a_fixed_point(self):
        # at a converged x the next Newton iterate x - J^-1 F is x again
        net = parse(INVERTER.format(vin=0.6))
        ckt = _Circuit([net])
        svals = ckt.source_values([0.0])
        x = ckt.solve_dc(svals)[0][0]
        open_caps = np.zeros(len(ckt.cap_c))
        f, _scale, jac = linearize(ckt, x, svals[0], open_caps, open_caps, 0.0)
        assert x[:ckt.n] + solve(jac, -f) == pytest.approx(x[:ckt.n], rel=1e-9, abs=1e-15)

"""Solver tests: linear algebra, DC, and transient integration accuracy.

Analytic oracles used here:
  * divider v1=2 V across two equal 1k resistors: v(mid) = 1 V and the
    branch current into the + terminal is -1 mA
  * series RC driven by a 10 ps ramp to 1 V: for t past the ramp end,
    v_out(t) = 1 - (tau/te)*(exp(te/tau) - 1)*exp(-t/tau) with te the ramp
    time and tau = RC
"""

import copy
import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from mvlsim import engine
from mvlsim.cells import CellSpec, build_staircase_testbench
from mvlsim.characterize import RunConfig, run_decoder
from mvlsim.devices import preset
from mvlsim.engine import (
    ConvergenceError,
    RunStats,
    SingularMatrixError,
    SolveOptions,
    WaveformSet,
    _Circuit,
    _Member,
    _solve,
    _SolveBuffers,
    dc_operating_point,
    transient,
    transient_batch,
)
from mvlsim.measure import Waveform
from mvlsim.mvl import LevelMap
from mvlsim.netlist import Device, Netlist, NetlistError, PwlStimulus, Transient, parse

from helpers import NEWTON_WORK, source_values, square_law_alloc

# the testbench settings the decoder commands default to
DEFAULT = RunConfig()

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

# x, the cut-off FET's drain, hangs on gmin (1e-12 S) alone in a matrix
# whose largest entries are the 1 mOhm resistor's 1e3 S
GMIN_NODE = """* gmin node beside a 1 mOhm resistor
.model nfet NFET vth=0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17
v1 in 0 dc 1.0
r1 in out 1m
r2 out 0 1k
rg g 0 1k
mn x g 0 0 nfet
.op
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
    """x with a @ x = b, through the solver Newton uses; a rejected system
    raises SingularMatrixError with the unknown indices that _solve names."""
    f = -b[None]
    x, _step, singular = _solve(a[None], f, _SolveBuffers(*f.shape))
    if singular:
        raise SingularMatrixError(singular[0])
    return x[0]


def refined_lstsq(a, b, rounds=3):
    """x with a @ x = b: np.linalg.lstsq's solution, refined rounds times by
    lstsq's correction for the residual b - a @ x, each element of which is
    summed exactly in fractions and rounded once (Wilkinson's iterative
    refinement).  A solution oracle whose error is not lstsq's own."""
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    exact_a, exact_b = ([[Fraction(v) for v in row] for row in a],
                        [Fraction(v) for v in b])
    for _ in range(rounds):
        exact_x = [Fraction(v) for v in x]
        r = [float(bi - sum(aij * xj for aij, xj in zip(row, exact_x)))
             for row, bi in zip(exact_a, exact_b)]
        x = x + np.linalg.lstsq(a, np.array(r), rcond=None)[0]
    return x


def csv_text(ws):
    """The waveform CSV that WaveformSet.to_csv writes, as a string."""
    buf = io.StringIO()
    ws.to_csv(buf)
    return buf.getvalue()


def forbid_svd(monkeypatch):
    """Make every solve that leaves LAPACK for the SVD fail the test."""
    def no_svd(a):
        raise AssertionError("a solve left LAPACK for the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)


def linearize(ckt, x, svals, geq, ihist, shunt):
    """KCL residual F, per-node current scale and Jacobian dF/dx of a batch
    of one at x (ground 0 last), as a Newton iteration computes them; geq
    and shunt as in set_conductances, ihist as in set_sources.  The scale
    and the Jacobian are copied out of the buffers that the next call
    overwrites."""
    ckt.set_conductances(geq, shunt)
    ckt.set_sources(ihist, svals[None])
    f = ckt.residual(x[None])
    return f[0], ckt.scale()[0].copy(), ckt.jac_blocks[0].copy()


def gnrfet32_linearization():
    """The gnrfet32 decoder testbench at a random point in mid-transient:
    the circuit and linearize's arguments."""
    spec = CellSpec(tech=preset("gnrfet32"), levels=LevelMap(4, 1.2))
    net = build_staircase_testbench(spec, hold=DEFAULT.hold, slew=DEFAULT.slew)
    ckt = _Circuit([net])
    rng = np.random.default_rng(7)
    x = np.append(np.concatenate((rng.uniform(-0.2, 1.4, ckt.nv),
                                  rng.uniform(-1e-4, 1e-4, ckt.n - ckt.nv))),
                  0.0)
    svals = source_values([net], [3e-9])[0]
    geq = ckt.cap_c / 1e-12
    ihist = rng.uniform(-1e-5, 1e-5, len(geq))
    return ckt, (x, svals, geq, ihist, 1e-9)


def divider_system():
    """Jacobian J and residual F of the divider at x = 0 and t = 0, so that
    J x = -F is its exact MNA system; unknowns in, mid, i(v1)."""
    net = parse(DIVIDER)
    ckt = _Circuit([net])
    assert ckt.node_names == ["in", "mid"] and [d.name for d in ckt.vsources] == ["v1"]
    open_caps = np.zeros(len(ckt.cap_c))
    f, _scale, jac = linearize(ckt, np.zeros(ckt.n1), source_values([net], [0.0])[0],
                               open_caps, open_caps, 0.0)
    return jac, f


def staircase(tech="cmos32", hold=1e-9, vdd=1.2, load=1e-15, vth_scale=1.0):
    """The decoder staircase testbench as ``mvlsim sweep`` builds it."""
    card = preset(tech)
    card = dataclasses.replace(
        card, nfet=dataclasses.replace(card.nfet, vth=card.nfet.vth * vth_scale),
        pfet=dataclasses.replace(card.pfet, vth=card.pfet.vth * vth_scale))
    spec = CellSpec(tech=card, levels=LevelMap(4, vdd), load=load)
    return build_staircase_testbench(spec, hold=hold, slew=DEFAULT.slew)


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


def spy_on_compiles(monkeypatch):
    """The batch size of every _Circuit the engine compiles from now on."""
    compiled, circuit = [], _Circuit

    def spy(nets):
        compiled.append(len(nets))
        return circuit(nets)

    monkeypatch.setattr(engine, "_Circuit", spy)
    return compiled


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
        # the null vector (2, -1)/sqrt(5) moves both unknowns
        with pytest.raises(SingularMatrixError) as ei:
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))
        assert ei.value.unknowns == (0, 1)

    def test_tiny_nonzero_pivot_reports_pivot(self):
        # LAPACK alone solves this one cleanly to [1, 0]; the probe sends
        # it to the SVD, whose sigma_min/sigma_max, about 1e-16, is below
        # the threshold of 1e-14
        with pytest.raises(SingularMatrixError) as ei:
            solve(np.array([[1.0, 2.0], [2.0, 4.0 * (1.0 + 1e-15)]]),
                  np.array([1.0, 2.0]))
        assert ei.value.unknowns == (0, 1)

    def test_ill_conditioned_is_solved_through_the_svd(self, monkeypatch):
        # sigma_min/sigma_max is about 2e-13: the probe reaches
        # _PROBE_KAPPA, and the SVD solves the system rather than reject it
        svd, calls = np.linalg.svd, []

        def spy(m):
            calls.append(m.shape)
            return svd(m)

        monkeypatch.setattr(np.linalg, "svd", spy)
        a = np.array([[1.0, 2.0], [2.0, 4.0 * (1.0 + 1e-12)]])
        b = np.array([1.0, 2.0])
        x = solve(a, b)
        assert calls == [(1, 2, 2)]
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 8 * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(x))

    def test_singular_system_leaves_its_stack_mate_alone(self):
        # LAPACK fails the stack; the well-conditioned system is solved
        # again alone, bitwise, and the singular one is named
        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = np.array([[-3.0, -5.0], [-1.0, -2.0]])
        alone, _step, singular = _solve(good[None], f[:1], _SolveBuffers(1, 2))
        assert not singular
        dx, step, singular = _solve(np.stack((good, bad)), f, _SolveBuffers(*f.shape))
        assert np.array_equal(dx[0], alone[0]) and step[0] == np.max(np.abs(alone[0]))
        assert singular == {1: [0, 1]}

    def test_singular_member_costs_no_second_lapack_call(self, monkeypatch):
        # LAPACK fills the singular system's slot with NaN and solves its
        # stack-mate in the same call; the SVD alone names the singular one
        calls, lapack = [], engine._lapack_solve

        def spy(a, b, out):
            calls.append(a.shape)
            return lapack(a, b, out=out)

        monkeypatch.setattr(engine, "_lapack_solve", spy)
        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = np.ones((2, 2))
        _dx, step, singular = _solve(np.stack((good, bad)), f, _SolveBuffers(*f.shape))
        assert calls == [(2, 2, 2)]
        assert math.isfinite(step[0]) and singular == {1: [0, 1]}

    def test_circuit_buffers_serve_any_leading_rows(self):
        # three members of the load sweep at a point mid-transient, solved
        # as the first 2 rows, all 3, then the first 1 in the circuit's
        # buffers, whose other rows hold the solves before: each system's
        # dx and step are bitwise those of its solve alone
        nets = [staircase(load=c) for c in (1e-15, 2e-15, 3e-15)]
        ckt = _Circuit(nets)
        rng = np.random.default_rng(5)
        x = np.zeros((3, ckt.n1))
        x[:, :ckt.nv] = rng.uniform(-0.2, 1.4, (3, ckt.nv))
        x[:, ckt.nv:ckt.n] = rng.uniform(-1e-4, 1e-4, (3, ckt.n - ckt.nv))
        ckt.set_conductances(ckt.cap_c / 1e-12, 0.0)
        ckt.set_sources(rng.uniform(-1e-5, 1e-5, len(ckt.cap_c)),
                        source_values(nets, [3e-9, 4e-9, 5e-9]))
        f = ckt.residual(x).copy()
        jac = ckt.jac_blocks.copy()
        for m in (2, 3, 1):
            dx, step, singular = _solve(jac[:m], f[:m], ckt.solve_buf)
            assert not singular and len(dx) == len(step) == m
            assert np.shares_memory(dx, ckt.solve_buf.sol)
            for j in range(m):
                alone, alone_step, _ = _solve(jac[j:j + 1], f[j:j + 1],
                                              _SolveBuffers(1, ckt.n))
                assert np.array_equal(dx[j], alone[0]) and step[j] == alone_step[0]
                # LAPACK's one right-hand side may round otherwise than two
                expect = np.linalg.solve(jac[j], -f[j])
                np.testing.assert_allclose(dx[j], expect, rtol=0,
                                           atol=1e-13 * np.max(np.abs(expect)))

    def test_no_stale_nan_after_a_singular_member(self):
        # the singular member's row of the solution holds NaN after its
        # solve; the next solve in the same buffers writes every row again
        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = np.array([[-3.0, -5.0], [-1.0, -2.0]])
        buf = _SolveBuffers(2, 2)
        _dx, _step, singular = _solve(np.stack((good, bad)), f, buf)
        assert singular == {1: [0, 1]} and np.isnan(buf.sol[1]).any()
        dx, step, singular = _solve(np.stack((good, 2.0 * good)), f, buf)
        assert not singular and np.isfinite(dx).all()
        assert all(math.isfinite(s) for s in step)
        for j, a in enumerate((good, 2.0 * good)):
            alone, alone_step, _ = _solve(a[None], f[j:j + 1], _SolveBuffers(1, 2))
            assert np.array_equal(dx[j], alone[0]) and step[j] == alone_step[0]

    def test_lapack_ignores_flags_for_its_call_alone(self):
        # the singular system's failure warns nothing, the caller's error
        # state is the same after the call, and a caller's "raise" still
        # raises on the next numpy operation
        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        a, b, out = np.stack((good, bad)), np.ones((2, 2, 1)), np.empty((2, 2, 1))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine._lapack(a, b, out)
        assert np.isfinite(out[0]).all() and np.isnan(out[1]).all()
        assert np.geterr() == before
        with np.errstate(invalid="raise"):
            engine._lapack(a, b, out)
            assert np.geterr() == before | {"invalid": "raise"}
            with pytest.raises(FloatingPointError):
                np.sqrt(np.array(-1.0))
        assert np.geterr() == before

    def test_lapack_gufunc_is_numpys_solve(self):
        # _solve calls numpy's private gufunc behind np.linalg.solve; a numpy
        # that moves it fails the engine's import, one that changes it here
        ckt, args = gnrfet32_linearization()
        f, _scale, jac = linearize(ckt, *args)
        rhs = np.stack((-f, np.cos(np.arange(1.0, ckt.n + 1.0))), axis=1)[None]
        expect = np.linalg.solve(jac[None], rhs)
        assert np.array_equal(engine._lapack_solve(jac[None], rhs), expect)
        # as _solve calls it: both right-hand sides and both solutions are
        # the rows of (batch, 2, n) buffers, read and written transposed
        rows, sol = np.ascontiguousarray(rhs.transpose(0, 2, 1)), np.empty((1, 2, ckt.n))
        engine._lapack_solve(jac[None], rows.transpose(0, 2, 1), out=sol.transpose(0, 2, 1))
        assert np.array_equal(sol.transpose(0, 2, 1), expect)

    def test_decoder_jacobian_matches_pivoting_lu(self, monkeypatch):
        # with the gmin-stepping shunt and at shunt 0, the state every
        # transient runs in.  Plain lstsq is up to 4.6e-12 off on i(vin);
        # refined, the oracle is within 1.3e-15 of the engine's solve on
        # every element at both shunts
        ckt, (*args, _shunt) = gnrfet32_linearization()
        forbid_svd(monkeypatch)
        for shunt in (1e-9, 0.0):
            f, _scale, jac = linearize(ckt, *args, shunt)
            expect = refined_lstsq(jac, -f)
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

    def test_source_between_two_nodes(self):
        # a 1 V source from a to b across 1k (a to ground) and 3k (b to
        # ground): 0.25 mA flows from b through both resistors into a
        net = parse("* floating source\nv1 a b dc 1\nr1 a 0 1k\nr2 b 0 3k\n"
                    ".tran 10p 100p\n.end\n")
        op = dc_operating_point(net)
        assert op["a"] == pytest.approx(0.25, rel=1e-12)
        assert op["b"] == pytest.approx(-0.75, rel=1e-12)
        ws = transient(net)
        assert ws.current("v1").values == pytest.approx(-0.25e-3, rel=1e-12)
        assert ws.voltage("a").values - ws.voltage("b").values == pytest.approx(1.0)

    def test_gmin_node_beside_milliohm_resistor(self, monkeypatch):
        # the row-equilibrated probe sees the gmin row as any other: the
        # plain DC solve stays in LAPACK and needs no gmin stepping
        solves = []
        newton = _Circuit.newton

        def spy(self, x, live, t=None, label=""):
            solves.append(label)
            return newton(self, x, live, t, label)

        monkeypatch.setattr(_Circuit, "newton", spy)
        forbid_svd(monkeypatch)
        op = dc_operating_point(parse(GMIN_NODE))
        assert solves == [" (dc)"]
        assert op["out"] == pytest.approx(1.0 / (1.0 + 1e-6), rel=0, abs=1e-12)
        assert op["x"] == 0.0

    def test_decoder_stays_in_lapack(self, monkeypatch):
        # both cards' staircases at the compare defaults: every DC and
        # transient Jacobian passes the probe
        forbid_svd(monkeypatch)
        nets = [staircase(tech, hold=DEFAULT.hold) for tech in ("cmos32", "gnrfet32")]
        for net in nets:
            dc_operating_point(net)
        transient_batch(nets)

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

    def test_divergence_is_reported(self, monkeypatch):
        # every update is NaN: the plain solve and gmin step 0 diverge at
        # their first update, reported at the iterate it started from
        def nan_update(a, f, buf):
            return np.full(f.shape, math.nan), [math.nan] * len(f), {}

        monkeypatch.setattr(engine, "_solve", nan_update)
        net = parse(INVERTER.format(vin=0.6))
        with pytest.raises(ConvergenceError) as ei:
            dc_operating_point(net)
        err = ei.value
        assert str(err).startswith("solution diverged")
        assert err.t is None and err.iteration == 1
        assert err.node in net.nodes and math.isfinite(err.excess)

    def test_update_failure_names_the_largest_update(self, monkeypatch):
        # three updates leave the gnrfet32 staircase's DC solve with KCL
        # held at every node and an update above _VTOL: the error blames
        # the update's largest entry, not the node of the largest excess
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
        updates, solve_stack = [], engine._solve

        def spy(a, f, buf):
            out = solve_stack(a, f, buf)
            updates.append(out[0])  # newton clips it in place
            return out

        monkeypatch.setattr(engine, "_solve", spy)
        net = staircase("gnrfet32", hold=1e-9)
        with pytest.raises(ConvergenceError) as ei:
            dc_operating_point(net)
        err, last = ei.value, updates[-1][0]
        i = int(np.argmax(np.abs(last)))
        assert err.test == "update" and err.iteration == 3
        assert (err.unknown, err.dx) == (_Circuit([net]).unknown_names[i], last[i])
        assert abs(err.dx) > engine._VTOL and err.excess <= engine._ABSTOL
        assert f"; update test failed: dx {err.dx:.3e} on {err.unknown!r};" in str(err)

    def test_kcl_failure_is_named(self, monkeypatch):
        # below a negative floor no KCL test holds: the divider's updates
        # meet _VTOL, and the error names the KCL test and no unknown
        monkeypatch.setattr(engine, "_ABSTOL", -1.0)
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 5)
        with pytest.raises(ConvergenceError) as ei:
            dc_operating_point(parse(DIVIDER))
        err = ei.value
        assert err.test == "kcl" and err.iteration == 5
        assert err.unknown is None and err.dx is None
        assert f"; KCL test failed; worst node {err.node!r}" in str(err)

    def test_update_clip_is_each_members_own(self, monkeypatch):
        # a first update of +100 on every unknown moves each divider's node
        # voltages by its own clip, twice its largest |source value|, and
        # its source current by the full 100 A; Newton then converges
        nets = [parse(DIVIDER.replace("dc 2.0", f"dc {v}")) for v in (1.0, 3.0)]
        ckt = _Circuit(nets)
        iterates, residual, solve_stack = [], _Circuit.residual, engine._solve

        def spy(self, x):
            iterates.append(x.copy())
            return residual(self, x)

        def jump_first(a, f, buf):
            if len(iterates) == 1:
                return np.full(f.shape, 100.0), [100.0] * len(f), {}
            return solve_stack(a, f, buf)

        monkeypatch.setattr(_Circuit, "residual", spy)
        monkeypatch.setattr(engine, "_solve", jump_first)
        x, _iters, _excess, failed = ckt.solve_dc(source_values(nets, [0.0, 0.0]))
        assert not failed
        assert ckt.node_names == ["in", "mid"] and ckt.vlimit == [2.0, 6.0]
        moved = iterates[1] - iterates[0]
        assert moved[:, :ckt.nv].tolist() == [[2.0, 2.0], [6.0, 6.0]]
        assert moved[:, ckt.nv:ckt.n].tolist() == [[100.0], [100.0]]
        for xb, v in zip(x, (1.0, 3.0)):
            assert xb[:ckt.n] == pytest.approx([v, v / 2, -v / 2e3], rel=1e-9)

    def test_invalid_netlist_raises_netlist_error(self):
        # each entry point validates its netlists before it compiles them
        net = parse(RC)
        net.devices.append(Device("r9", ("out",), 1.0))
        with pytest.raises(NetlistError) as want:
            net.validate()
        for run in (transient, dc_operating_point, lambda n: transient_batch([n])):
            with pytest.raises(NetlistError) as ei:
                run(net)
            assert str(ei.value) == str(want.value)

    def test_options_validated(self):
        with pytest.raises(ValueError):
            SolveOptions(integration="euler")


# an RC driven by a PWL ramp, with a 0 F capacitor across its resistor
RC_RAMP = """* rc ramp
v1 in 0 pwl(0 0 1n 1 3n 1)
r1 in out 1k
c1 out 0 1p
c0 in out 0
.tran 10p 3n 200p
.end
"""


class TestCompanions:
    @pytest.mark.parametrize("rule", ["backward_euler", "trapezoidal"])
    def test_zero_capacitance_is_open(self, rule):
        opts = SolveOptions(integration=rule)
        without = RC_RAMP.replace("c0 in out 0\n", "")
        assert_same_run(transient(parse(RC_RAMP), opts=opts),
                        transient(parse(without), opts=opts))


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

    def test_analysis_runs_a_copy_that_carries_it(self):
        # a grown step on a netlist whose own .tran has none: the run is
        # that of the netlist written with the given .tran, and the netlist
        # passed in keeps its own card
        net = parse(RC)
        cards, before = net.analyses, list(net.analyses)
        wset = transient(net, Transient(dt=3e-12, tstop=2e-9, dtmax=1e-10))
        assert net.analyses is cards and cards == before
        assert_same_run(wset, transient(parse(RC.replace(".tran 3p 3n", ".tran 3p 2n 100p"))))
        assert len(wset.times) < len(transient(net).times)

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

    def test_update_tolerance_is_tight_enough(self, monkeypatch):
        # Newton converges quadratically, so a hundredfold tighter update
        # test moves no node of the decoder by more than 1 uV
        vtol = engine._VTOL
        for tech in ("cmos32", "gnrfet32"):
            net = staircase(tech, hold=1e-9)
            grid = dataclasses.replace(net.analyses[0], dtmax=None)
            runs = []
            for tol in (vtol, vtol / 100.0):
                monkeypatch.setattr(engine, "_VTOL", tol)
                runs.append(transient(net, grid))
            a, b = runs
            assert np.array_equal(a.times, b.times), tech
            for name in a.voltages:
                assert np.max(np.abs(a.voltage(name).values
                                     - b.voltage(name).values)) < 1e-6, (tech, name)

    def test_newton_count_is_the_linear_solves_made(self, monkeypatch):
        # node c floats at DC (the caps are open), so the plain DC solve is
        # singular and gmin stepping takes over: the failed solve and every
        # gmin step count towards newton_per_point[0]
        solved = []
        solve_stack = engine._solve

        def counting(a, b, buf):
            solved.append(len(a))
            return solve_stack(a, b, buf)

        monkeypatch.setattr(engine, "_solve", counting)
        net = parse("* t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b c 1p\nc2 c 0 1p\n"
                    ".tran 10p 100p\n.end\n")
        stats = transient(net).stats
        assert stats.newton_iterations == sum(solved) == 1018
        assert stats.newton_per_point.sum() == stats.newton_iterations
        assert stats.newton_per_point[0] == 18  # the singular solve + 17 in gmin steps

    def test_one_residual_per_solve(self, monkeypatch):
        # an update that meets _VTOL after KCL held at the iterate it
        # started from is accepted without a residual at the new point, so
        # there are fewer residuals than updates plus accepted points
        residuals, solved = [], []
        residual, solve_stack = _Circuit.residual, engine._solve

        def count_residual(self, x):
            residuals.append(len(x))
            return residual(self, x)

        def count_solve(a, b, buf):
            solved.append(len(a))
            return solve_stack(a, b, buf)

        monkeypatch.setattr(_Circuit, "residual", count_residual)
        monkeypatch.setattr(engine, "_solve", count_solve)
        ws = transient(staircase("cmos32", hold=DEFAULT.hold))
        updates = ws.stats.newton_iterations
        assert (ws.stats.steps, updates) == NEWTON_WORK["cmos32"]
        assert sum(solved) == updates
        assert updates <= len(residuals) < updates + len(ws.times)

    def test_convergence_error_carries_time_point(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as ei:
            transient(parse(RC))
        err = ei.value
        assert err.t > 0.0 and f" at t={err.t:.6g}s;" in str(err)
        assert err.iteration == 1 and err.node in ("in", "out")

    def test_singular_matrix_carries_time_point(self, monkeypatch):
        # every step of RC is a floor step, so a singular matrix at the
        # third time point is retried once from the second, at an eighth of
        # the step, and the run fails at that fourth attempt
        attempts = []
        newton, solve_stack = _Circuit.newton, engine._solve

        def spy(self, x, live, t=None, label=""):
            if t is not None:
                attempts.append(float(t[0]))
            return newton(self, x, live, t, label)

        def singular_at_third_point(a, f, buf):
            if len(attempts) < 3:
                return solve_stack(a, f, buf)
            return np.zeros(f.shape), [0.0], {0: [1]}

        monkeypatch.setattr(_Circuit, "newton", spy)
        monkeypatch.setattr(engine, "_solve", singular_at_third_point)
        with pytest.raises(SingularMatrixError) as ei:
            transient(parse(RC))
        assert len(attempts) == 4 and attempts[2] > attempts[3] > attempts[1] > 0.0
        assert attempts[3] - attempts[1] == pytest.approx((attempts[2] - attempts[1]) / 8)
        assert ei.value.t == attempts[3] and ei.value.member == 0
        assert ei.value.unknowns == ("out",)  # index 1 of in, out, i(v1)

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
        lines = csv_text(ws).splitlines()
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
        assert csv_text(ws) == "\n".join(["time,in,out,i(v1)"] + rows) + "\n"

    def test_csv_to_a_stream_keeps_memory_flat(self, tmp_path):
        # 20001 points of 23 columns, about 8.7 MB of text: written in
        # blocks of rows, it never sits in memory whole
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 2e-8, 20001)
        voltages = {f"n{i}": Waveform(times, rng.uniform(0.0, 1.2, len(times)))
                    for i in range(21)}
        currents = {"v1": Waveform(times, rng.uniform(-1e-4, 1e-4, len(times)))}
        ws = WaveformSet(times, voltages, currents, RunStats())
        path = tmp_path / "big.csv"
        with path.open("w") as fh:
            tracemalloc.start()
            try:
                assert ws.to_csv(fh) is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1e6
        assert path.stat().st_size > 8e6
        assert path.read_text() == csv_text(ws)


BATCH_LOADS = [{"load": 1e-15}, {"load": 3e-15}, {"load": 5e-15}]
# the compile drops a 0 F load: members with different capacitor counts
BATCH_UNEVEN_CAPS = [{"load": 0.0}, {"load": 2e-15}]
BATCH_TECHS = [{"tech": "cmos32"}, {"tech": "gnrfet32"}]


class TestBatch:
    @pytest.mark.parametrize("members, integration", [
        (BATCH_LOADS, "backward_euler"),
        ([{"vdd": 1.0}, {"vdd": 1.2}], "backward_euler"),
        ([{"vth_scale": 0.9}, {"vth_scale": 1.1}], "backward_euler"),
        (BATCH_TECHS, "backward_euler"),
        (BATCH_UNEVEN_CAPS, "backward_euler"),
        (BATCH_LOADS, "trapezoidal"),
        (BATCH_TECHS, "trapezoidal"),
        (BATCH_UNEVEN_CAPS, "trapezoidal"),
    ], ids=["load", "vdd", "vth_scale", "compare", "uneven_caps",
            "load-trapezoidal", "compare-trapezoidal", "uneven_caps-trapezoidal"])
    def test_members_match_batches_of_one(self, members, integration, monkeypatch):
        # every case has members of different point counts (181 to 1524),
        # all but backward-Euler compare's gnrfet32 past a block of
        # engine._BLOCK rows, so the batch is compiled again each time one
        # is done and carries the others' last solutions over; under the
        # trapezoidal rule each member must also carry its own capacitors'
        # currents, and only at its accepted points; the uneven_caps members
        # differ in their capacitor count too
        compiled = spy_on_compiles(monkeypatch)
        opts = SolveOptions(integration=integration)
        nets = [staircase(**kw) for kw in members]
        batch = transient_batch(nets, opts=opts)
        assert compiled == list(range(len(nets), 0, -1))
        for net, wset in zip(nets, batch):
            assert_same_run(wset, transient(net, opts=opts))

    def test_member_rows_cross_blocks(self):
        # waveforms() returns every row record() kept, across the boundaries
        # of the blocks that hold them; a batch run alone could not tell a
        # wrong row from a right one
        rng = np.random.default_rng(1)
        m = _Member([], Transient(1e-12, 1e-9))
        rows = [rng.uniform(size=3)]
        m.record(rows[0], 0.0, 0)
        for _ in range(2 * engine._BLOCK + 5):
            rows.append(rng.uniform(size=3))
            assert m.settle(rows[-1], 1, 0.0, 0.0, None, 0.5)
        ckt = SimpleNamespace(node_names=["a", "b"], nv=2,
                              vsources=[SimpleNamespace(name="v1")])
        wset = m.waveforms(ckt)
        sol = np.array(rows)
        assert np.array_equal(wset.times, m.times)
        assert np.array_equal(wset.voltage("b").values, sol[:, 1])
        assert np.array_equal(wset.current("v1").values, sol[:, 2])

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
        batch = transient_batch([dataclasses.replace(net, analyses=[a])
                                 for net, a in zip(nets, analyses)])
        assert len({len(wset.times) for wset in batch}) == 3
        for net, analysis, wset in zip(nets, analyses, batch):
            assert_same_run(wset, transient(net, analysis))

    def test_empty_batch(self):
        assert transient_batch([]) == []

    def test_each_netlist_is_validated_once(self, monkeypatch):
        # the README's load sweep: its five members finish at five
        # different times, and compiling the batch again for the live
        # members validates nothing again
        calls, validate = [], Netlist.validate

        def spy(self):
            calls.append(self)
            return validate(self)

        nets = [staircase(load=c) for c in np.linspace(1e-15, 5e-15, 5)]
        compiled = spy_on_compiles(monkeypatch)
        monkeypatch.setattr(Netlist, "validate", spy)
        transient_batch(nets)
        assert compiled == [5, 4, 3, 2, 1]
        assert len(calls) == 5 and all(a is b for a, b in zip(calls, nets))

    def test_members_need_the_same_nodes(self):
        other = parse(RC.replace("out", "mid"))
        with pytest.raises(ValueError, match="same nodes and sources"):
            transient_batch([parse(RC), other])

    PAIR = "* pair\nr1 a b 1k\n{}\n{}\nr2 b 0 1k\n.tran 1p 1n\n.end\n"

    @pytest.mark.parametrize("other", [
        PAIR.format("vx a 0 dc 1", "v2 b 0 dc 2"),
        PAIR.format("v2 b 0 dc 2", "v1 a 0 dc 1"),
    ], ids=["renamed", "swapped"])
    def test_members_need_the_same_sources(self, other):
        first, other = parse(self.PAIR.format("v1 a 0 dc 1", "v2 b 0 dc 2")), parse(other)
        assert first.nodes == other.nodes
        with pytest.raises(ValueError, match="same nodes and sources"):
            transient_batch([first, other])

    def test_singular_member_reports_its_pivot(self):
        good = "* pair\nv1 a 0 dc 1\nv2 b 0 dc 1\nr1 a 0 1k\nr2 b 0 1k\n.tran 1p 1n\n.end\n"
        bad = "* pair\nv1 a b dc 1\nv2 b a dc 1\nr1 a 0 1k\nr2 b 0 1k\n.tran 1p 1n\n.end\n"
        with pytest.raises(SingularMatrixError) as alone:
            transient(parse(bad))
        with pytest.raises(SingularMatrixError) as batched:
            transient_batch([parse(good), parse(bad)])
        assert batched.value.unknowns == alone.value.unknowns == ("i(v1)", "i(v2)")
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

    def test_member_failing_after_the_batch_narrows_is_named(self, monkeypatch):
        # with one Newton update allowed, member 1 fails at its edge at 2 ns;
        # member 0 is done in a few grown steps before its own edge, so the
        # batch has been compiled again for member 1 alone, its row 0, when
        # it fails
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
        nets = [step_at(True), step_at(False)]
        with pytest.raises(ConvergenceError) as alone:
            transient(nets[1])
        nets[0] = dataclasses.replace(nets[0], analyses=[Transient(1e-11, 5e-10, 1e-10)])
        compiled = spy_on_compiles(monkeypatch)
        with pytest.raises(ConvergenceError) as batched:
            transient_batch(nets)
        a, b = alone.value, batched.value
        assert compiled == [2, 1]
        assert b.member == 1 and 2e-9 < b.t < 2e-9 + 2e-11
        assert (str(b), b.t, b.test, b.node, b.excess, b.iteration) == (
            str(a), a.t, a.test, a.node, a.excess, a.iteration)


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

    def spy(self, x, live, t=None, label=""):
        iters, excess, failed = newton(self, x, live, t, label)
        if t is not None:
            attempts.append(float(t[0]))
            if t[0] > t_fail and sum(a > t_fail for a in attempts) == 1:
                failed = {0: ConvergenceError("injected failure", t=float(t[0]))}
        return iters, excess, failed

    monkeypatch.setattr(_Circuit, "newton", spy)
    return attempts


class TestStepControl:
    # the staircase at hold 1 ns: dt 4 ps (tstop/1000), dtmax 200 ps (hold/5)
    def test_controlled_steps(self, monkeypatch):
        net = staircase(hold=1e-9)
        tran = net.analyses[0]
        assert (tran.dt, tran.dtmax) == (4e-12, 2e-10)
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
        clk = engine._Member([stim], Transient(dt=1e-12, tstop=1e-9, dtmax=5e-11))
        floor, t1 = clk.floor, clk.bps[1]
        clk.t = t1 - floor * (1.0 + 1e-12)
        clk._plan(clk.h * 0.125)  # the plan of a retry after a Newton failure
        assert (clk.next, clk.free) == (t1, False)
        clk.t = t1 - 5.0 * floor
        clk._plan(clk.h * 0.125)
        assert clk.h == floor and not clk.free
        assert clk.settle(np.zeros(3), 1, 0.0, 0.0, None, 0.5)  # err 0: grow 2x
        assert clk.h == 2.0 * floor and clk.free

    def test_rejected_step_that_is_not_shortened_fails(self, monkeypatch):
        calls = []
        plan = engine._Member._plan

        def keep_step(self, h):  # a step rule defect: retry the same step
            # a plan from t while the step to next was not taken is a retry
            if hasattr(self, "next") and self.next > self.t:
                calls.append(self.t)
                if len(calls) > 1000:
                    raise AssertionError("the same step was retried 1000 times")
                h = self.h
            plan(self, h)

        monkeypatch.setattr(engine._Member, "_plan", keep_step)
        with pytest.raises(ConvergenceError) as ei:
            transient(staircase(hold=1e-9))
        assert len(calls) == 1 and ei.value.t == calls[0] > 0.0

    # settle's member: floor F, ceiling CEIL, no breakpoint before 1 ns
    F, CEIL, TOL = 1e-12, 5e-11, engine._LTE_TOL

    @pytest.mark.parametrize("h, err, fails, outcome, h_next", [
        # at the floor: taken whatever err, and a Newton failure retried
        # once, 8x shorter, below the floor; a failed retry fails the run
        (F, 0.0, False, "taken", 2 * F),
        (F, TOL, False, "taken", F),
        (F, 4 * TOL, False, "taken", F),
        (F, 0.0, True, "rejected_newton", F / 8),
        (F / 8, 0.0, True, "failed", F / 8),
        (F / 8, 4 * TOL, False, "taken", F),
        # free: taken within TOL, else retried shorter
        (16 * F, 0.0, False, "taken", 32 * F),
        (16 * F, TOL / 4, False, "taken", 16 * F * (0.9 * (TOL / (TOL / 4)) ** 0.5)),
        (40 * F, 0.0, False, "taken", CEIL),
        (16 * F, 4 * TOL, False, "rejected_lte", 16 * F * (0.9 * (TOL / (4 * TOL)) ** 0.5)),
        (16 * F, 0.0, True, "rejected_newton", 16 * F / 8),
        (4 * F, 0.0, True, "rejected_newton", F),
    ])
    def test_settle_decision_table(self, h, err, fails, outcome, h_next):
        m = _Member([], Transient(dt=self.F, tstop=1e-9, dtmax=self.CEIL))
        m.record(np.zeros(2), 0.0, 1)  # the DC point
        m._plan(h)
        retry = h < self.F  # the retry of a floor step that Newton failed
        if retry:
            m._plan(self.F)
            m.settle(np.ones(2), 3, 0.0, 0.0, ConvergenceError("no convergence"), 0.5)
        assert (m.h, m.free, m.retry) == (h, h > self.F, retry)
        failure = ConvergenceError("no convergence", t=m.next) if fails else None
        tried = m.next
        taken = m.settle(np.ones(2), 3, 0.0, err, failure, 0.5)
        assert taken == (outcome == "taken")
        moved = {"taken": len(m.times) - 1, "rejected_lte": m.rejected_lte,
                 "rejected_newton": m.rejected_newton - retry}
        assert moved == {k: int(k == outcome) for k in moved}
        assert m.h == h_next and not (taken and m.retry)
        if taken:
            assert (m.t, m.times, m.iters, m.pending) == (tried, [0.0, tried], [1, 3 + 3 * retry], 0)
        else:
            assert (m.t, m.next, m.times, m.pending) == (0.0, h_next, [0.0], 3 + 3 * retry)
        assert m.error is failure if outcome == "failed" else m.error is None

    # an input edge at 1 ns, of 1 ulp or of 1e-20 s, under .tran 1p 2n with
    # or without a dtmax above dt: without one, the floor that a tenth of the
    # edge sets is also the ceiling
    EDGE_RC = "* edge\nv1 in 0 pwl(0 0 1n 0 {})\nr1 in out 1k\nc1 out 0 1p\n.tran 1p 2n{}\n.end\n"

    @pytest.mark.parametrize("corner, steps, ceiling", [
        ("1.0000000000000002n 1", "9.67e+16", "2.07e-26"),
        ("1.00000000001n 1", "2e+12", "1e-21")], ids=["ulp", "edge"])
    def test_run_that_cannot_finish_is_refused(self, corner, steps, ceiling):
        net = parse(self.EDGE_RC.format(corner, ""))
        tran = net.analyses[0]
        message = re.escape(f"the run needs at least {steps} steps of at most {ceiling}s, "
                            "over the cap of 1e+08 steps; a .tran dtmax above dt lets "
                            "the step grow")
        # the plan alone first, so that a missing guard fails here rather
        # than run for days
        with pytest.raises(ValueError, match=message):
            _Member([net.device("v1").stimulus], tran)
        with pytest.raises(ValueError, match=message):
            transient(net)

    def test_floor_step_that_newton_fails_is_retried_shorter(self):
        # at hold 1 ns and load 3 fF, Newton fails a gnrfet32 step at the
        # floor near 2.06 ns after 100 updates; its retry at an eighth of
        # the step converges and the run completes
        run = run_decoder(RunConfig(tech="gnrfet32", hold=1e-9, load=3e-15))
        assert run.logic_ok and run.wset.stats.rejected_newton == 1

    def test_steep_edge_with_a_dtmax_runs(self):
        # the 1e-20 s edge's floor is 1e-21 s, but the step grows to 100 ps
        ws = transient(parse(self.EDGE_RC.format("1.00000000001n 1", " 100p")))
        assert ws.stats.steps == 172 and ws.times[-1] == 2e-9

    def test_tighter_tolerance_takes_more_steps(self, monkeypatch):
        net = staircase(hold=1e-9)
        steps = []
        for tol in (1e-3, engine._LTE_TOL, 1e-5):
            monkeypatch.setattr(engine, "_LTE_TOL", tol)
            steps.append(transient(net).stats.steps)
        assert steps == sorted(set(steps))


class TestPulseSources:
    # a PULSE with a 1 ps rise into an RC; a tenth of an edge of the run
    # would set a 0.1 ps floor below the 10 ps dt
    PULSE_RC = ("* pulse rc\nv1 in 0 pulse({})\nr1 in out 1k\nc1 out 0 1p\n"
                ".tran 10p 10n 1n\n.end\n")

    @pytest.mark.parametrize("spec", [
        "0 1.2 0.3n 1p 80p 1n 2.2n", "0 1.2 0.3n 50p 80p 1n 2.87n",
        "1 1 0 1p 1p 1n 3n", "0 1 20n 1p 1p 1n 3n"],
        ids=["edges", "tstop_mid_fall", "flat", "delayed_past_tstop"])
    def test_pulse_runs_as_its_corners(self, spec):
        net = parse(self.PULSE_RC.format(spec))
        corners = copy.deepcopy(net)
        v1 = corners.device("v1")
        v1.stimulus = PwlStimulus(v1.stimulus.pwl(net.analyses[0].tstop).points)
        assert_same_run(transient(net), transient(corners))

    @pytest.mark.parametrize("spec", ["1 1 0 1p 1p 1n 3n", "0 1 20n 1p 1p 1n 3n"],
                             ids=["flat", "delayed_past_tstop"])
    def test_pulse_without_an_edge_in_the_run_keeps_the_floor(self, spec):
        # v1 == v2, or no period starts before tstop: the floor stays dt
        net = parse(self.PULSE_RC.format(spec))
        tran = net.analyses[0]
        assert _Member([net.device("v1").stimulus], tran).floor == tran.dt

    def test_pulse_delayed_past_tstop_runs_as_its_level(self):
        late = parse(self.PULSE_RC.format("0 1 20n 1p 1p 1n 3n"))
        dc = parse(self.PULSE_RC.replace("pulse({})", "dc 0"))
        assert_same_run(transient(late), transient(dc))

    # a PWL whose only edge starts at 20 ns runs as its level; a PULSE whose
    # 5 ps rise starts 10 ps before tstop runs as if its 1 ps fall, which
    # starts after tstop, were as slow as the rise
    @pytest.mark.parametrize("source, twin", [
        ("pwl(0 0 20n 0 20.001n 1)", "dc 0"),
        ("pulse(0 1 9.99n 5p 1p 1n 3n)", "pulse(0 1 9.99n 5p 5p 1n 3n)")],
        ids=["pwl", "pulse_fall"])
    def test_edge_past_tstop_leaves_the_floor(self, source, twin):
        net, other = (parse(self.PULSE_RC.replace("pulse({})", s)) for s in (source, twin))
        assert_same_run(transient(net), transient(other))


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
        net = build_staircase_testbench(spec, hold=DEFAULT.hold, slew=DEFAULT.slew)
        ckt = _Circuit([net])
        rng = np.random.default_rng(3)
        x = np.append(rng.uniform(-0.2, 1.4, ckt.n), 0.0)
        svals = source_values([net], [3e-9])[0]
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
                cur = (v[t[0]] - v[t[1]]) / d.value
            elif d.kind == "vsource":
                cur = x[ckt.n - len(ckt.vsources) + ckt.vsources.index(d)]
            elif d.kind == "fet":
                card = net.models[d.model]
                sign = 1.0 if card.polarity == "n" else -1.0
                cur = sign * square_law_alloc(sign * card.vth, card.k * d.value,
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
            assert f[ckt.nv + j] == vp - vm - svals[j]

    def test_batch_linearization_matches_per_device_loop(self):
        # two members of different cards at different x, each with its own
        # capacitor companions, and a gmin-stepping shunt: each member's F,
        # KCL scale and J against branch currents and stamps made device by
        # device from its own netlist
        nets = [staircase(tech) for tech in ("cmos32", "gnrfet32")]
        ckt = _Circuit(nets)
        nv, n, ns = ckt.nv, ckt.n, ckt.n - ckt.nv
        rng = np.random.default_rng(11)
        x = np.zeros((2, ckt.n1))
        x[:, :nv] = rng.uniform(-0.2, 1.4, (2, nv))
        x[:, nv:n] = rng.uniform(-1e-4, 1e-4, (2, ns))
        svals = source_values(nets, [3e-9, 7e-9])
        steps, shunt = (1e-12, 3e-12), 1e-9
        caps = [[] for _ in nets]  # (end, end, C), in the order of ckt.cap_c
        for net, member in zip(nets, caps):
            for d in net.devices:
                if d.kind == "capacitor":
                    member.append((*d.terminals, d.value))
                elif d.kind == "fet":
                    card, m = net.models[d.model], d.value
                    drain, gate, src = d.terminals[:3]
                    member += [(gate, src, card.cg * m), (drain, "0", card.cd * m)]
            member[:] = [cap for cap in member if cap[2] > 0.0]
        assert [c for member in caps for _, _, c in member] == ckt.cap_c.tolist()
        geq = [[c / h for _, _, c in member] for member, h in zip(caps, steps)]
        ihist = [rng.uniform(-1e-5, 1e-5, len(member)) for member in caps]
        ckt.set_conductances(np.concatenate(geq), shunt)
        ckt.set_sources(np.concatenate(ihist), svals)
        f = ckt.residual(x)
        scale, jac = ckt.scale(), ckt.jac_blocks
        assert f.shape == (2, n) and scale.shape == (2, nv) and jac.shape == (2, n, n)
        for b, net in enumerate(nets):
            idx = {name: i for i, name in enumerate(ckt.node_names)}
            idx |= {d.name: nv + j for j, d in enumerate(ckt.vsources)}
            v = {name: x[b, i] for name, i in idx.items() if i < nv} | {"0": 0.0}
            res, big, ref = np.zeros(n), np.zeros(nv), np.zeros((n, n))

            def branch(p, q, cur, *derivs):
                """Current cur from p to q, with derivative w by x[c] - x[d]
                for each (c, d, w) in derivs."""
                for end, sign in ((p, 1.0), (q, -1.0)):
                    if end == "0":
                        continue
                    res[idx[end]] += sign * cur
                    big[idx[end]] = max(big[idx[end]], abs(cur))
                    for c, d, w in derivs:
                        for ctrl, side in ((c, 1.0), (d, -1.0)):
                            if ctrl != "0":
                                ref[idx[end], idx[ctrl]] += sign * side * w

            shunted = set()
            for d in net.devices:
                t = d.terminals
                if d.kind == "resistor":
                    g = 1.0 / d.value
                    branch(t[0], t[1], g * (v[t[0]] - v[t[1]]), (t[0], t[1], g))
                elif d.kind == "vsource":
                    # its current x[row], and its constraint in its own row
                    row = idx[d.name]
                    branch(t[0], t[1], x[b, row], (d.name, "0", 1.0))
                    res[row] = v[t[0]] - v[t[1]] - svals[b, row - nv]
                    for end, sign in ((t[0], 1.0), (t[1], -1.0)):
                        if end != "0":
                            ref[row, idx[end]] += sign
                elif d.kind == "fet":
                    card = net.models[d.model]
                    sign = 1.0 if card.polarity == "n" else -1.0
                    drain, gate, src = t[:3]
                    cur, gm, gds = square_law_alloc(
                        sign * card.vth, card.k * d.value, card.lam,
                        sign * (v[gate] - v[src]), sign * (v[drain] - v[src]))
                    branch(drain, src, sign * cur, (gate, src, gm), (drain, src, gds))
                    shunted.update({drain, src} - {"0"})
            for (p, q, _c), g, i0 in zip(caps[b], geq[b], ihist[b]):
                branch(p, q, g * (v[p] - v[q]) + i0, (p, q, g))
            for node in shunted:
                branch(node, "0", engine._GMIN * v[node], (node, "0", engine._GMIN))
            for node in ckt.node_names:
                branch(node, "0", shunt * v[node], (node, "0", shunt))
            assert f[b] == pytest.approx(res, rel=1e-12, abs=1e-18)
            assert scale[b] == pytest.approx(big, rel=1e-12)
            assert jac[b] == pytest.approx(ref, rel=1e-12, abs=1e-18)

    def test_cap_voltages_are_each_capacitors_end_difference(self):
        # members with different capacitor counts: x[c] - x[d] of every
        # capacitor, in the order of ckt.cap_c, worked out from each netlist
        nets = [staircase(**kw) for kw in BATCH_UNEVEN_CAPS]
        ckt = _Circuit(nets)
        rng = np.random.default_rng(5)
        x = np.zeros((2, ckt.n1))
        x[:, :ckt.n] = rng.uniform(-0.2, 1.4, (2, ckt.n))
        caps, expect = [], []
        for b, net in enumerate(nets):
            v = {name: x[b, i] for i, name in enumerate(ckt.node_names)} | {"0": 0.0}
            for d in net.devices:
                ends = []
                if d.kind == "capacitor":
                    ends = [(*d.terminals, d.value)]
                elif d.kind == "fet":
                    card, m = net.models[d.model], d.value
                    drain, gate, src = d.terminals[:3]
                    ends = [(gate, src, card.cg * m), (drain, "0", card.cd * m)]
                for p, q, c in ends:
                    if c > 0.0:
                        caps.append(c)
                        expect.append(v[p] - v[q])
        counts = np.bincount(ckt.cap_member)
        assert caps == ckt.cap_c.tolist() and counts[0] != counts[1]
        assert ckt.cap_voltages(x).tolist() == expect

    def test_cap_voltages_leave_the_linearization_as_it_was(self):
        # a cap_voltages call at another x between residual and the reads
        # of J, the scale and the KCL test changes none of F, J, the scale
        # or the test
        nets = [staircase(**kw) for kw in BATCH_UNEVEN_CAPS]
        ckt = _Circuit(nets)
        rng = np.random.default_rng(13)
        x, other = np.zeros((2, 2, ckt.n1))
        x[:, :ckt.n], other[:, :ckt.n] = rng.uniform(-0.2, 1.4, (2, 2, ckt.n))
        ckt.set_conductances(ckt.cap_c / 1e-12, 0.0)
        ckt.set_sources(rng.uniform(-1e-5, 1e-5, len(ckt.cap_c)),
                        source_values(nets, [3e-9, 7e-9]))

        def linearization(probe):
            f = ckt.residual(x)
            if probe is not None:
                ckt.cap_voltages(probe)
            jac, scale = ckt.jac_blocks.copy(), ckt.scale().copy()
            over, err = ckt.kcl()
            return f.copy(), jac, scale, over.copy(), err

        plain, probed = linearization(None), linearization(other)
        for a, b in zip(plain, probed):
            assert np.array_equal(a, b)

    def test_ground_rows_and_columns_of_the_jacobian_are_never_read(self):
        # every stamp on ground's row or column goes to the scatter's one
        # spare slot, past the contiguous n x n blocks; NaN written there
        # after each residual call leaves J and a Newton solve bitwise
        # those of a circuit without it
        nets = [staircase(**kw) for kw in BATCH_UNEVEN_CAPS]
        ckt = _Circuit(nets)
        rng = np.random.default_rng(17)
        x = np.zeros((2, ckt.n1))
        x[:, :ckt.n] = rng.uniform(-0.2, 1.4, (2, ckt.n))
        ihist = rng.uniform(-1e-5, 1e-5, len(ckt.cap_c))

        def linearization(ckt, poison):
            if poison:
                residual = ckt.residual

                def poisoned(x):
                    f = residual(x)
                    sums = ckt.jac_blocks.base  # the whole scatter
                    assert sums.shape == (ckt.n_bins,)
                    sums[-1] = np.nan
                    return f
                ckt.residual = poisoned
            ckt.set_conductances(ckt.cap_c / 1e-12, 0.0)
            ckt.set_sources(ihist, source_values(nets, [3e-9, 7e-9]))
            ckt.residual(x)
            jac, xn = ckt.jac_blocks.copy(), x.copy()
            assert ckt.jac_blocks.flags.c_contiguous and jac.shape == (2, ckt.n, ckt.n)
            iters, excess, failed = ckt.newton(xn, [0, 1], t=[3e-9, 7e-9])
            assert not failed and np.isfinite(jac).all()
            assert np.isnan(ckt.jac_blocks.base[-1]) == poison
            return jac, xn, iters, excess

        assert np.count_nonzero(ckt.bins == ckt.n_bins - 1) > 0  # ground's stamps
        plain, poisoned = linearization(ckt, False), linearization(_Circuit(nets), True)
        for a, b in zip(plain, poisoned):
            assert np.array_equal(a, b)

    def test_mna_system_at_operating_point_is_a_fixed_point(self):
        # at a converged x the next Newton iterate x - J^-1 F is x again
        net = parse(INVERTER.format(vin=0.6))
        ckt = _Circuit([net])
        svals = source_values([net], [0.0])
        x = ckt.solve_dc(svals)[0][0]
        open_caps = np.zeros(len(ckt.cap_c))
        f, _scale, jac = linearize(ckt, x, svals[0], open_caps, open_caps, 0.0)
        assert x[:ckt.n] + solve(jac, -f) == pytest.approx(x[:ckt.n], rel=1e-9, abs=1e-15)

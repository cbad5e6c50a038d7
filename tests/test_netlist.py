"""Netlist parsing, validation and round-trip tests."""

import math
import random
import sys
from pathlib import Path

import pytest

from mvlsim.characterize import CELL_NAMES, RunConfig, build_cell
from mvlsim.devices import FetModelCard, preset
from mvlsim.engine import _Member
from mvlsim.netlist import (
    DcStimulus,
    Device,
    MeasureDirective,
    NetlistError,
    OperatingPoint,
    PulseStimulus,
    PwlStimulus,
    Transient,
    device_line,
    emit,
    model_line,
    parse,
    parse_value,
)

DIVIDER = """* resistive divider
v1 in 0 dc 2.0
r1 in mid 1k
r2 mid 0 1k
.op
.end
"""


class TestValues:
    def test_plain_numbers(self):
        assert parse_value("3") == 3.0
        assert parse_value("-2.5") == -2.5
        assert parse_value(".5") == 0.5
        assert parse_value("1e-3") == 1e-3
        assert parse_value("+4E2") == 400.0

    def test_suffix_products_are_definitional(self):
        # the result is exactly mantissa * multiplier in IEEE doubles
        assert parse_value("10f") == 10.0 * 1e-15
        assert parse_value("2.5p") == 2.5 * 1e-12
        assert parse_value("3n") == 3.0 * 1e-9
        assert parse_value("7u") == 7.0 * 1e-6
        assert parse_value("1.5m") == 1.5 * 1e-3
        assert parse_value("2k") == 2.0 * 1e3
        assert parse_value("4meg") == 4.0 * 1e6
        assert parse_value("0.5g") == 0.5 * 1e9

    def test_suffixes_case_insensitive(self):
        assert parse_value("1K") == 1e3
        assert parse_value("1MEG") == 1e6
        assert parse_value("1Meg") == 1e6
        # single m is always milli
        assert parse_value("1m") == 1e-3

    def test_malformed(self):
        for bad in ("", "k", "1.2.3", "1kk", "1 k", "--1", "1e", "x5",
                    "1e400", "1e308k"):
            with pytest.raises(ValueError):
                parse_value(bad)


def pulse_value(s: PulseStimulus, t: float) -> float:
    """A PULSE's waveform at t, phase by phase: the reference its PWL
    corners are checked against."""
    if t < s.delay:
        return s.v1
    tc = math.fmod(t - s.delay, s.period)
    if tc < s.rise:
        return s.v1 + (s.v2 - s.v1) * tc / s.rise
    tc -= s.rise
    if tc < s.width:
        return s.v2
    tc -= s.width
    if tc < s.fall:
        return s.v2 + (s.v1 - s.v2) * tc / s.fall
    return s.v1


def plan(stimulus, tstop):
    """The engine's step plan for one source over .tran tstop tstop: its
    merged breakpoints bps, 0 and tstop included, and its floor step."""
    return _Member([stimulus], Transient(tstop, tstop))


class TestStimuli:
    def test_dc(self):
        dc = DcStimulus(1.2)
        s = dc.pwl(1.0)
        assert s == PwlStimulus(((0.0, 1.2),))
        assert s.value_at(0.0) == 1.2
        assert s.value_at(1e9) == 1.2
        # no breakpoint inside the run, and no edge to clamp the floor
        m = plan(dc, 1.0)
        assert (m.bps, m.floor) == ([0.0, 1.0], 1.0 / 1000.0)

    def test_pwl_is_its_own_corners(self):
        s = PwlStimulus(((0.0, 0.0), (1.0, 1.0)))
        assert s.pwl(0.5) is s

    def test_pwl_interpolation(self):
        s = PwlStimulus(((0.0, 0.0), (1.0, 0.0), (2.0, 4.0)))
        assert s.value_at(-1.0) == 0.0
        assert s.value_at(0.5) == 0.0
        assert s.value_at(1.5) == 2.0
        assert s.value_at(2.0) == 4.0
        assert s.value_at(9.0) == 4.0

    def test_pwl_first_point_holds_before(self):
        s = PwlStimulus(((1.0, 3.0), (2.0, 5.0)))
        assert s.value_at(0.0) == 3.0

    def test_pwl_bisection_matches_linear_scan(self):
        def scan(pts, t):  # reference: the first corner at or after t
            if t <= pts[0][0]:
                return pts[0][1]
            for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
                if t <= t1:
                    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            return pts[-1][1]

        rng = random.Random(7)
        times = sorted(rng.sample(range(1, 10**6), 200))
        pts = tuple((t * 1e-15, rng.uniform(-1.5, 1.5)) for t in times)
        probes = ([0.0, pts[0][0] * 0.5, pts[-1][0] * 2.0]
                  + [t for t, _ in pts]
                  + [rng.uniform(pts[0][0], pts[-1][0]) for _ in range(500)])
        for stim in (PwlStimulus(pts), PwlStimulus(pts[:1]), PwlStimulus(pts[:2])):
            for t in probes:
                assert stim.value_at(t) == scan(stim.points, t)

    def test_pwl_breakpoints_interior_only(self):
        s = PwlStimulus(((0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.0)))
        assert plan(s, 2.5).bps == [0.0, 1.0, 2.0, 2.5]
        assert plan(s, 10.0).bps == [0.0, 1.0, 2.0, 3.0, 10.0]

    def test_pwl_floor_ignores_flat_segments(self):
        # tstop/1000 = 0.1 lies above a tenth of the 0.1 edge
        s = PwlStimulus(((0.0, 0.0), (5.0, 0.0), (5.1, 1.0), (9.0, 1.0)))
        assert plan(s, 100.0).floor == pytest.approx(0.01, rel=1e-12)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PwlStimulus(((1.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PwlStimulus(((2.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PwlStimulus(((-0.5, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PwlStimulus(())

    def test_pulse_phases(self):
        s = PulseStimulus(v1=0.0, v2=1.0, delay=1.0, rise=1.0, fall=1.0,
                          width=2.0, period=10.0).pwl(13.0)
        assert s.value_at(0.5) == 0.0
        assert s.value_at(1.5) == pytest.approx(0.5)
        assert s.value_at(2.5) == 1.0
        assert s.value_at(4.5) == pytest.approx(0.5)
        assert s.value_at(6.0) == 0.0
        # second period
        assert s.value_at(12.5) == 1.0

    def test_pulse_breakpoints_repeat_with_period(self):
        s = PulseStimulus(0.0, 1.0, delay=1.0, rise=1.0, fall=1.0,
                          width=2.0, period=10.0)
        assert plan(s, 12.0).bps == [0.0, 1.0, 2.0, 4.0, 5.0, 11.0, 12.0]
        # tstop/1000 = 1 lies above a tenth of the 1.0 edges
        assert plan(s, 1000.0).floor == 0.1

    def test_pulse_breakpoint_overflow_raises(self):
        s = PulseStimulus(0.0, 1.0, delay=0.0, rise=1e-12, fall=1e-12,
                          width=1e-12, period=4e-12)
        assert len(plan(s, 1e-8).bps) > 9000
        with pytest.raises(NetlistError, match="breakpoints"):
            s.pwl(1e-6)

    def test_pulse_whose_period_cannot_advance_raises(self):
        # 1 + 1e-29 == 1: the train would stay at its 1 s delay, adding no
        # corner, so the breakpoint bound would never be reached
        s = PulseStimulus(0.0, 1.0, delay=1.0, rise=1e-30, fall=1e-30,
                          width=1e-30, period=1e-29)
        with pytest.raises(NetlistError, match="stalls at t=1 s"):
            s.pwl(2.0)

    @pytest.mark.parametrize("pulse, tstop", [
        (PulseStimulus(0.0, 1.2, 0.3e-9, 50e-12, 80e-12, 1e-9, 2.2e-9), 7.3e-9),
        # tstop 10 ps into the fourth period's rise
        (PulseStimulus(1.2, -0.4, 0.0, 37e-12, 23e-12, 0.41e-9, 0.7e-9), 2.11e-9),
        (PulseStimulus(0.0, 1.0, 0.1e-9, 0.1e-9, 0.2e-9, 0.3e-9, 0.6e-9), 3.05e-9),
    ], ids=["delayed", "mid_rise", "edges_fill_period"])
    def test_pulse_corners_follow_the_analytic_waveform(self, pulse, tstop):
        s = pulse.pwl(tstop)
        rng = random.Random(3)
        probes = ([0.0, tstop, pulse.delay] + [t for t, _ in s.points if t <= tstop]
                  + [rng.uniform(0.0, tstop) for _ in range(2000)])
        # several periods, and the run's last point within an edge
        assert tstop > pulse.delay + 3 * pulse.period
        swing = max(abs(pulse.v1), abs(pulse.v2))
        for t in probes:
            assert s.value_at(t) == pytest.approx(pulse_value(pulse, t), rel=1e-12,
                                                  abs=1e-12 * swing)

    def test_pulse_corners_strictly_increase_when_edges_fill_the_period(self):
        # rise + width + fall == period and no delay: each period's last
        # corner is the next one's first, and the first is (0, v1)
        for pulse in (PulseStimulus(0.0, 1.0, 0.0, 1.0, 1.0, 2.0, 4.0),
                      PulseStimulus(0.0, 1.2, 0.0, 0.1e-9, 0.2e-9, 0.3e-9, 0.6e-9)):
            s = pulse.pwl(20 * pulse.period)
            times = [t for t, _ in s.points]
            assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
            assert times[0] == 0.0 and len(times) == 1 + 3 * 20
            # tstop/1000 is one period, above a tenth of either edge
            assert plan(pulse, 1000 * pulse.period).floor == pytest.approx(
                min(pulse.rise, pulse.fall) / 10.0, rel=1e-9)

    def test_pulse_edges_past_tstop_are_kept_from_started_periods(self):
        s = PulseStimulus(0.0, 1.0, delay=1.0, rise=1.0, fall=1.0,
                          width=2.0, period=10.0)
        assert s.pwl(1.5).points == ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0),
                                     (4.0, 1.0), (5.0, 0.0))
        assert plan(s, 1.5).bps == [0.0, 1.0, 1.5]
        # no period starts before tstop: the level v1 alone
        assert s.pwl(1.0).points == ((0.0, 0.0),)
        # of those corners only the rise starts before tstop, so only the
        # rise clamps the floor, and not the shorter fall past tstop
        fast = PulseStimulus(0.0, 1.0, delay=1.0, rise=1e-3, fall=1e-4,
                             width=2.0, period=10.0)
        assert fast.pwl(1.5).points[-1] == pytest.approx((3.0011, 0.0))
        assert plan(fast, 1.5).floor == pytest.approx(1e-4, rel=1e-9)
        # a rise that tstop cuts short clamps it too
        assert plan(fast, 1.0005).floor == pytest.approx(1e-4, rel=1e-9)

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            PulseStimulus(0, 1, delay=-1, rise=1, fall=1, width=1, period=10)
        with pytest.raises(ValueError):
            PulseStimulus(0, 1, delay=0, rise=0, fall=1, width=1, period=10)
        with pytest.raises(ValueError):
            PulseStimulus(0, 1, delay=0, rise=4, fall=4, width=4, period=10)


class TestAnalyses:
    def test_transient_validation(self):
        Transient(1e-12, 1e-9)
        with pytest.raises(ValueError):
            Transient(0.0, 1e-9)
        with pytest.raises(ValueError):
            Transient(2e-9, 1e-9)
        with pytest.raises(ValueError):
            Transient(1e-12, 0.0)
        with pytest.raises(ValueError):
            Transient(1e-12, math.inf)
        with pytest.raises(ValueError):
            Transient(1e-12, 1e-9, dtmax=0.0)

    def test_measure_directive_validation(self):
        MeasureDirective("m1", "rise", ("out",))
        MeasureDirective("m2", "delay", ("a", "b"))
        with pytest.raises(ValueError):
            MeasureDirective("m3", "slew", ("out",))
        with pytest.raises(ValueError):
            MeasureDirective("m4", "delay", ("a",))
        with pytest.raises(ValueError):
            MeasureDirective("m5", "rise", ("a", "b"))


class TestParse:
    def test_divider(self):
        net = parse(DIVIDER)
        assert net.title == "resistive divider"
        assert [d.name for d in net.devices] == ["v1", "r1", "r2"]
        assert net.nodes == ["0", "in", "mid"]
        r1 = net.device("r1")
        assert r1.kind == "resistor"
        assert r1.value == 1e3
        assert net.device("v1").stimulus == DcStimulus(2.0)
        assert net.analyses == [OperatingPoint()]

    def test_bare_title_line(self):
        # bare titles work when they do not start with a device letter or '.'
        net = parse("simple circuit\nr1 a 0 1k\n.end\n")
        assert net.title == "simple circuit"
        assert len(net.devices) == 1

    def test_device_first_line_means_no_title(self):
        net = parse("r1 a 0 1k\n.end\n")
        assert net.title == ""
        assert net.device("r1").value == 1e3

    def test_names_lowercased_and_gnd_alias(self):
        net = parse("* t\nR1 A GND 1k\nV1 A 0 DC 1\n.end\n")
        assert net.device("r1").terminals == ("a", "0")
        assert net.device("v1").terminals == ("a", "0")

    def test_continuation_lines(self):
        net = parse("* t\nv1 in 0 pwl(0 0\n+ 1n 0 1.1n 1)\n.end\n")
        stim = net.device("v1").stimulus
        assert stim.points == ((0.0, 0.0), (1e-9, 0.0), (1.1 * 1e-9, 1.0))

    def test_comments_between_statements(self):
        net = parse("* t\n* a comment\nr1 a 0 1k\n* another\n.op\n.end\n")
        assert len(net.devices) == 1
        assert net.analyses == [OperatingPoint()]

    def test_end_stops_parsing(self):
        net = parse("* t\nr1 a 0 1k\n.end\nthis is not a netlist statement\n")
        assert len(net.devices) == 1

    def test_pulse_source(self):
        net = parse("* t\nv1 a 0 pulse(0 1.2 1n 10p 10p 2n 5n)\n.end\n")
        s = net.device("v1").stimulus
        assert s == PulseStimulus(0.0, 1.2, 1e-9, 1e-11, 1e-11, 2e-9, 5e-9)

    def test_fet_with_model_and_multiplier(self):
        net = parse(
            "* t\n"
            ".model nfet NFET vth=0.3 k=1e-4 lambda=0.05 cg=8f cd=6f\n"
            "m1 d g 0 0 nfet m=2\n"
            "v1 d 0 dc 1\nv2 g 0 dc 1\n"
            ".end\n")
        m1 = net.device("m1")
        assert m1.kind == "fet"
        assert m1.model == "nfet"
        assert m1.value == 2.0
        card = net.models["nfet"]
        assert card == FetModelCard("n", 0.3, 1e-4, 0.05, 8.0 * 1e-15, 6.0 * 1e-15)

    def test_model_cd_defaults_to_zero(self):
        net = parse("* t\n.model nn NFET vth=0.1 k=1e-4 lambda=0 cg=1f\n"
                    "m1 d g 0 0 nn\nv1 d 0 dc 1\nv2 g 0 dc 1\n.end\n")
        assert net.models["nn"].cd == 0.0

    def test_tran_with_dtmax(self):
        net = parse("* t\nr1 a 0 1k\n.tran 1p 1n 10p\n.end\n")
        assert net.analyses == [Transient(1e-12, 1e-9, 1e-11)]

    def test_measures(self):
        net = parse(
            "* t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b 0 1p\n"
            ".measure tr rise v(b)\n"
            ".measure tf fall v(b)\n"
            ".measure td delay v(a) v(b)\n"
            ".measure pa avgpower v1\n"
            ".measure pp peakpower v1\n"
            ".end\n")
        kinds = [(m.name, m.kind, m.targets) for m in net.measures]
        assert kinds == [
            ("tr", "rise", ("b",)),
            ("tf", "fall", ("b",)),
            ("td", "delay", ("a", "b")),
            ("pa", "avgpower", ("v1",)),
            ("pp", "peakpower", ("v1",)),
        ]


class TestParseErrors:
    def check(self, text, line=None):
        with pytest.raises(NetlistError) as ei:
            parse(text)
        if line is not None:
            assert ei.value.line == line
        return ei.value

    def test_malformed_number_has_location(self):
        err = self.check("* t\nr1 a 0 1x\n.end\n", line=2)
        assert err.column == 8

    def test_overflowing_number_has_location(self):
        err = self.check("* t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b 0 1p\n"
                         ".tran 1p 1e400\n.end\n", line=5)
        assert err.column == 10

    def test_syntax_error_comes_before_structural_error(self):
        self.check("* t\nr1 a 0 1k\nr1 b 0 1k\nr2 a 0 1x\n.end\n", line=4)

    def test_duplicate_device(self):
        self.check("* t\nr1 a 0 1k\nr1 b 0 1k\n.end\n", line=3)

    def test_duplicate_model(self):
        self.check("* t\n.model x NFET vth=0 k=1 lambda=0 cg=0\n"
                   ".model x NFET vth=0 k=1 lambda=0 cg=0\n.end\n", line=3)

    def test_bad_node_name(self):
        self.check("* t\nr1 a-b 0 1k\n.end\n", line=2)

    def test_unknown_element(self):
        self.check("* t\nq1 a b c 1k\n.end\n", line=2)

    def test_second_tran(self):
        err = self.check("* t\nr1 a 0 1k\n.tran 1p 1n\n.op\n.tran 1p 3n\n.end\n",
                         line=5)
        assert ".tran" in str(err)

    def test_unknown_card(self):
        self.check("* t\nr1 a 0 1k\n.noise\n.end\n", line=3)

    def test_negative_resistance(self):
        self.check("* t\nr1 a 0 -5\n.end\n", line=2)
        self.check("* t\nr1 a 0 0\n.end\n", line=2)

    def test_negative_capacitance(self):
        self.check("* t\nc1 a 0 -1p\n.end\n", line=2)

    def test_vsource_without_spec(self):
        self.check("* t\nv1 a 0\n.end\n")
        self.check("* t\nv1 a 0 sin(0 1 1k)\n.end\n")

    def test_pwl_odd_values(self):
        self.check("* t\nv1 a 0 pwl(0 0 1)\n.end\n")

    def test_pwl_decreasing_times(self):
        self.check("* t\nv1 a 0 pwl(1 0 0.5 1)\n.end\n")

    def test_pulse_wrong_arity(self):
        self.check("* t\nv1 a 0 pulse(0 1 0 1p 1p 1n)\n.end\n")

    def test_fet_undeclared_model(self):
        self.check("* t\nm1 d g 0 0 ghost\nv1 d 0 dc 1\n.end\n", line=2)

    def test_model_missing_required_key(self):
        self.check("* t\n.model nn NFET vth=0.1 k=1e-4 lambda=0\n.end\n")

    def test_model_duplicate_key(self):
        self.check("* t\n.model nn NFET vth=0.1 vth=0.2 k=1 lambda=0 cg=0\n.end\n")

    def test_model_unknown_key(self):
        self.check("* t\n.model nn NFET vth=0.1 k=1 lambda=0 cg=0 beta=2\n.end\n")

    def test_model_sign_convention_enforced(self):
        self.check("* t\n.model nn NFET vth=-0.1 k=1 lambda=0 cg=0\n.end\n")
        self.check("* t\n.model pp PFET vth=0.1 k=1 lambda=0 cg=0\n.end\n")

    def test_duplicate_measure_name(self):
        # the later statement is at fault; with both, evaluate_measures
        # would keep only the fall time under m
        err = self.check("* t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b 0 1p\n"
                         ".measure m rise v(b)\n.measure m fall v(b)\n.end\n", line=6)
        assert "duplicate measure name 'm'" in str(err)

    def test_model_needs_a_type(self):
        self.check("* t\n.model nn\n.end\n", line=2)

    def test_measure_needs_a_target(self):
        self.check("* t\nr1 a 0 1k\n.measure tr rise\n.end\n", line=3)

    def test_bad_measure_name(self):
        err = self.check("* t\nr1 a 0 1k\n.measure t-r rise v(a)\n.end\n", line=3)
        assert err.column == 10

    def test_measure_unknown_node(self):
        self.check("* t\nr1 a 0 1k\n.measure tr rise v(zz)\n.end\n", line=3)

    def test_measure_power_needs_vsource(self):
        self.check("* t\nr1 a 0 1k\n.measure pa avgpower r1\n.end\n", line=3)

    def test_tran_bad_args(self):
        self.check("* t\nr1 a 0 1k\n.tran 1p\n.end\n")
        self.check("* t\nr1 a 0 1k\n.tran 2n 1n\n.end\n")

    def test_op_takes_no_args(self):
        self.check("* t\nr1 a 0 1k\n.op now\n.end\n")

    def test_continuation_without_statement(self):
        self.check("* t\n+ 1n 0\n.end\n")

    def test_fet_bad_multiplier(self):
        self.check("* t\n.model nn NFET vth=0.1 k=1 lambda=0 cg=0\n"
                   "m1 d g 0 0 nn m=0\nv1 d 0 dc 1\n.end\n", line=3)

    @pytest.mark.parametrize("text, line", [
        ("* t\nr1 0 0 1k\n.op\n.end\n", 2),
        ("* t\n.tran 1p 1n\nr1 0 gnd 1k\n.end\n", 3),
        ("* t\n* nothing to solve for\n.op\n.end\n", 3),
    ], ids=["device", "device_after_tran", "analysis_alone"])
    def test_no_node_but_ground(self, text, line):
        # at the first device, else at the first analysis
        err = self.check(text, line=line)
        assert "no node but ground" in str(err)

    def test_text_with_nothing_to_simulate_is_valid(self):
        net = parse("* t\n.end\n")
        assert net.devices == net.analyses == []

    def test_nonstring_input(self):
        with pytest.raises(NetlistError):
            parse(None)


class TestEmitRoundTrip:
    def test_divider_round_trip(self):
        net = parse(DIVIDER)
        text = emit(net)
        again = parse(text)
        assert again.title == net.title
        assert again.devices == net.devices
        assert again.models == net.models
        assert again.analyses == net.analyses
        assert again.measures == net.measures
        # canonical text is a fixed point
        assert emit(again) == text

    def test_emit_writes_title_line(self):
        net = parse("r1 a 0 1k\n.end\n")
        assert emit(net).splitlines()[0] == "*"
        net2 = parse("* hello\nr1 a 0 1k\n.end\n")
        assert emit(net2).splitlines()[0] == "* hello"

    def test_model_line_format(self):
        card = FetModelCard("p", -0.3, 3.35e-5, 0.05, 8e-17, 6e-17)
        assert model_line("pfet", card) == (
            ".model pfet PFET vth=-0.3 k=3.35e-05 lambda=0.05 "
            "cg=8e-17 cd=6e-17")

    def test_device_line_fet_always_writes_multiplier(self):
        d = Device("m1", ("d", "g", "0", "0"), 1.0, "nfet")
        assert device_line(d) == "m1 d g 0 0 nfet m=1.0"

    def test_random_round_trips(self):
        rng = random.Random(7)
        for trial in range(25):
            lines = ["* generated"]
            lines.append(".model nn NFET vth=%r k=%r lambda=%r cg=%r cd=%r" % (
                rng.uniform(0, 0.5), rng.uniform(1e-5, 1e-3),
                rng.uniform(0, 0.1), rng.uniform(0, 1e-16), rng.uniform(0, 1e-16)))
            nodes = ["0", "a", "b", "c"]
            for i in range(rng.randrange(1, 5)):
                a, b = rng.sample(nodes, 2)
                lines.append(f"r{i} {a} {b} {rng.uniform(1, 1e6)!r}")
            for i in range(rng.randrange(0, 3)):
                a, b = rng.sample(nodes, 2)
                lines.append(f"c{i} {a} {b} {rng.uniform(0, 1e-12)!r}")
            lines.append("v0 a 0 dc %r" % rng.uniform(-5, 5))
            t0 = rng.uniform(0, 1e-9)
            t1 = t0 + rng.uniform(1e-12, 1e-9)
            lines.append(f"v1 b 0 pwl({t0!r} 0.0 {t1!r} 1.0)")
            lines.append("m0 c b 0 0 nn m=%r" % rng.uniform(0.5, 4))
            lines.append(".tran 1p 1n")
            lines.append(".measure tr rise v(c)")
            lines.append(".end")
            net = parse("\n".join(lines))
            text = emit(net)
            again = parse(text)
            assert again.devices == net.devices, f"trial {trial}"
            assert again.models == net.models
            assert again.analyses == net.analyses
            assert again.measures == net.measures
            assert emit(again) == text

    @pytest.mark.parametrize("extra", [
        Device("r9", ["mid", "0"], 1e3),
        MeasureDirective("m9", "rise", ["mid"]),
        Device("v9", ("top", "0"), stimulus=PwlStimulus([[0.0, 0.0], (1e-9, 1.0)])),
    ], ids=["device_terminals", "measure_targets", "pwl_points"])
    def test_lists_built_in_code_round_trip(self, extra):
        # the dialect's sequences are tuples; a list passed in becomes one
        net = parse(DIVIDER)
        if isinstance(extra, Device):
            net.devices.append(extra)
        else:
            net.measures.append(extra)
        net.validate()
        assert parse(emit(net)) == net

    @pytest.mark.parametrize("tech", ["cmos32", "gnrfet32"])
    @pytest.mark.parametrize("name", CELL_NAMES)
    def test_generated_cells_round_trip(self, name, tech):
        net = build_cell(name, RunConfig(tech=tech), preset(tech))
        text = emit(net)
        assert parse(text) == net
        assert emit(parse(text)) == text

    def test_digit_stream_netlist_round_trips(self, monkeypatch):
        # perfbench/digit_stream.py writes the netlist; it is imported, not run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import digit_stream
            net = parse(digit_stream.netlist_text(1)[0])
        finally:
            for name in ("common", "digit_stream"):
                sys.modules.pop(name, None)
        text = emit(net)
        assert parse(text) == net
        assert emit(parse(text)) == text

    def test_fuzz_never_raises_anything_but_netlist_error(self):
        rng = random.Random(99)
        alphabet = "vrcm.()=+-*_ \t01profile9kxnueg\n"
        for _ in range(500):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, 120)))
            try:
                parse(text)
            except NetlistError:
                pass

    def test_mutation_fuzz_of_valid_netlist(self):
        rng = random.Random(3)
        base = DIVIDER
        for _ in range(300):
            chars = list(base)
            for _ in range(rng.randrange(1, 6)):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars))
                ch = rng.choice("vrcm.()= 019xk\n")
                if op == 0:
                    chars[pos] = ch
                elif op == 1:
                    chars.insert(pos, ch)
                elif chars:
                    del chars[pos]
            try:
                parse("".join(chars))
            except NetlistError:
                pass


class TestValidate:
    def test_device_lookup_raises_keyerror(self):
        net = parse(DIVIDER)
        with pytest.raises(KeyError):
            net.device("nope")

    def test_validate_catches_handbuilt_mistakes(self):
        net = parse(DIVIDER)
        net.devices.append(Device("r9", ("a",), 1.0))
        with pytest.raises(NetlistError):
            net.validate()

    def test_validate_allows_one_tran(self):
        net = parse(DIVIDER)
        net.analyses += [Transient(1e-12, 1e-9), OperatingPoint()]
        net.validate()
        net.analyses.append(Transient(1e-12, 3e-9))
        with pytest.raises(NetlistError, match=".tran"):
            net.validate()

    @pytest.mark.parametrize("name, field, value", [
        ("c9", "capacitance", math.nan),
        ("c9", "capacitance", math.inf),
        ("r9", "resistance", math.inf),
        ("m9", "multiplier m", math.inf),
    ], ids=["nan_capacitance", "inf_capacitance", "inf_resistance", "inf_m"])
    def test_validate_rejects_non_finite_values(self, name, field, value):
        net = parse(DIVIDER)
        net.models["nn"] = FetModelCard("n", 0.1, 1e-4, 0.0, 0.0)
        fet = name.startswith("m")
        ends = ("mid", "in", "0", "0") if fet else ("mid", "0")
        net.devices.append(Device(name, ends, value, "nn" if fet else None))
        with pytest.raises(NetlistError, match=f"^{name}: {field} must be finite"):
            net.validate()

    @pytest.mark.parametrize("build, field", [
        (lambda: DcStimulus(math.nan), "DC level"),
        (lambda: DcStimulus(math.inf), "DC level"),
        (lambda: PwlStimulus(((0.0, 0.0), (1e-9, math.nan))), "PWL time and value"),
        (lambda: PwlStimulus(((0.0, 0.0), (math.inf, 1.0))), "PWL time and value"),
        (lambda: PulseStimulus(0.0, 1.0, 0.0, 1e-12, 1e-12, 1e-9, math.inf),
         "PULSE period"),
        (lambda: Transient(1e-12, 1e-9, dtmax=math.nan), "dtmax"),
        (lambda: Transient(1e-12, 1e-9, dtmax=math.inf), "dtmax"),
    ], ids=["nan_dc", "inf_dc", "nan_pwl_value", "inf_pwl_time", "inf_pulse_period",
            "nan_dtmax", "inf_dtmax"])
    def test_constructors_reject_non_finite_numbers(self, build, field):
        # the dialect cannot write nan or inf, so emit's text would not parse;
        # a DC level of nan also reached the solver, which diverged
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()

    @pytest.mark.parametrize("change, message", [
        ({"devices": [Device("x9", ("mid", "0"), 1.0)]},
         "unknown element 'x9'"),
        ({"devices": [Device("v9", ("mid", "0"))]},
         "v9: vsource needs a stimulus"),
        ({"title": "a\nr9 x 0 1k"}, "title .* must be one line, unpadded"),
        ({"title": " a"}, "title .* must be one line, unpadded"),
        ({"models": {"bad model": FetModelCard("n", 0.1, 1e-4, 0.0, 0.0)},
          "devices": [Device("m9", ("mid", "in", "0", "0"), 1.0, "bad model")]},
         "bad model name 'bad model'"),
        ({"measures": [MeasureDirective("Bad Name", "rise", ("mid",))]},
         "bad measure name 'Bad Name'"),
        ({"devices": [Device("r9\n", ("mid", "0"), 1.0)]},
         "bad device name 'r9\\\\n'"),
    ], ids=["unknown_kind", "vsource_without_stimulus", "two_line_title",
            "padded_title", "model_name", "measure_name", "device_name_newline"])
    def test_validate_names_the_broken_rule(self, change, message):
        # without their rules the last five would validate and then fail
        # parse(emit(net)) == net: the title's second line parses as a
        # device, the model line as a model "bad" of type "model", the
        # measure line as one named "bad", and the device line splits
        net = parse(DIVIDER)
        net.title = change.get("title", net.title)
        net.models.update(change.get("models", {}))
        net.devices += change.get("devices", [])
        net.measures += change.get("measures", [])
        with pytest.raises(NetlistError, match=f"^{message}$"):
            net.validate()

    def test_validate_checks_terminal_names(self):
        net = parse(DIVIDER)
        net.devices.append(Device("r9", ("a", "B AD"), 1.0))
        with pytest.raises(NetlistError):
            net.validate()

    @pytest.mark.parametrize("device, message", [
        (Device("m9", ("mid", "in", "0", "0"), model="nn"), "m9: fet needs a value"),
        (Device("x1", ("mid", "0"), 1e3), "unknown element 'x1'"),
        (Device("v9", ("mid", "0"), 1e3), "v9: vsource takes no value"),
        (Device("m3", ("mid", "0"), 1e3), "m3: fet needs 4 terminals"),
        (Device("r9", ("mid", "0"), 1e3, model="nn"), "r9: resistor takes no model"),
        (Device("r9", ("mid", "0"), 1e3, stimulus=DcStimulus(1.0)),
         "r9: resistor takes no stimulus"),
        (Device("r9", ("mid", "gnd"), 1e3), "r9: bad node name 'gnd'"),
    ], ids=["fet_without_multiplier", "resistor_named_x1", "resistor_named_v9",
            "resistor_named_m3", "resistor_with_model", "resistor_with_stimulus",
            "node_named_gnd"])
    def test_devices_that_would_not_round_trip_are_rejected(self, device, message):
        # each would be emitted as text that parses to another device, or
        # does not parse: m=1.0 written for the missing multiplier, the
        # model or stimulus dropped, gnd read back as 0
        net = parse(DIVIDER)
        net.models["nn"] = FetModelCard("n", 0.1, 1e-4, 0.0, 0.0)
        net.devices.append(device)
        with pytest.raises(NetlistError, match=f"^{message}$"):
            net.validate()

    def test_kind_is_the_name_letter(self):
        # a device holds one value and no kind of its own: it cannot carry
        # a parameter its line does not write, nor a kind its name denies
        kinds = [Device(name, ("a", "0")).kind for name in ("r1", "c1", "v1", "m1", "x1")]
        assert kinds == ["resistor", "capacitor", "vsource", "fet", None]
        with pytest.raises(TypeError):
            Device("r9", ("mid", "0"), params={"resistance": 1e3, "x": 1})
        with pytest.raises(AttributeError):
            Device("c1", ("mid", "0"), 1e3).kind = "resistor"
        net = parse(DIVIDER)
        net.devices.append(Device("c1", ("mid", "0"), 1e3))
        net.validate()
        assert parse(emit(net)) == net
        assert net.device("c1").kind == "capacitor"

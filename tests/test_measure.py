"""Measurement routine tests.

Oracles: a linear 0-1 ramp has a 10-90% time of exactly 0.8 of its span;
a first-order RC step response has a 10-90% time of ln(9)*tau; a source
holding v across a load drawing i delivers p = v*i with the branch current
flowing out of the + terminal (so the MNA branch current is -i).
"""

import math

import numpy as np
import pytest

from mvlsim.measure import (
    REPORT_COLUMNS,
    MeasureError,
    MeasureReport,
    Waveform,
    _crossings,
    fall_time,
    prop_delay,
    report_table,
    rise_time,
    supply_power,
)


def ramp(t0=0.0, t1=1.0, v0=0.0, v1=1.0, n=11):
    t = np.linspace(t0, t1, n)
    v = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return Waveform(t, v)


EDGE_TIME = {"rise": rise_time, "fall": fall_time}


def mirrored(edge, times, values):
    """The waveform of a rising-edge case, or for "fall" its mirror 1 - v,
    whose fall time is the rise time of the original."""
    v = np.array(values)
    return Waveform(np.array(times), v if edge == "rise" else 1.0 - v)


class TestWaveform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    def test_value_at_strict_span(self):
        wf = ramp()
        assert wf.value_at(0.25) == pytest.approx(0.25, rel=1e-12)
        with pytest.raises(ValueError):
            wf.value_at(1.5)
        with pytest.raises(ValueError):
            wf.value_at(-0.1)


class TestEdgeTimes:
    def test_linear_ramp_rise_is_point_eight(self):
        assert rise_time(ramp(), 0.0, 1.0) == pytest.approx(0.8, rel=1e-12)

    def test_linear_ramp_fall(self):
        wf = ramp(v0=1.0, v1=0.0)
        assert fall_time(wf, 0.0, 1.0) == pytest.approx(0.8, rel=1e-12)

    def test_rc_step_rise_is_ln9_tau(self):
        tau = 1e-9
        t = np.linspace(0.0, 10.0 * tau, 2001)
        wf = Waveform(t, 1.0 - np.exp(-t / tau))
        assert rise_time(wf, 0.0, 1.0) == pytest.approx(math.log(9.0) * tau,
                                                        rel=5e-3)

    def test_shift_invariance(self):
        wf = ramp(n=37)
        shifted = Waveform(wf.times + 4.5, wf.values)
        assert rise_time(shifted, 0.0, 1.0) == pytest.approx(
            rise_time(wf, 0.0, 1.0), rel=1e-9)

    def test_affine_invariance(self):
        wf = ramp(n=23)
        scaled = Waveform(wf.times, 3.0 * wf.values - 1.0)
        assert rise_time(scaled, -1.0, 2.0) == pytest.approx(
            rise_time(wf, 0.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("edge", ["rise", "fall"])
    def test_first_complete_transition_skips_partial_start(self, edge):
        # starts mid-swing: the early 90% crossing has no matching 10%
        # crossing before it and must be ignored
        wf = mirrored(edge, [0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 0.0, 0.0, 1.0])
        assert EDGE_TIME[edge](wf, 0.0, 1.0) == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("edge", ["rise", "fall"])
    def test_latest_lo_crossing_before_hi_is_used(self, edge):
        # slow partial rise, dip, then the real edge: time is measured from
        # the 10% crossing belonging to the final edge
        wf = mirrored(edge, [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.05, 1.0])
        t_hi = 2.0 + 0.9 / 0.95 * 1.0 - 0.05 / 0.95  # interpolated crossings
        t_lo = 2.0 + 0.05 / 0.95
        assert EDGE_TIME[edge](wf, 0.0, 1.0) == pytest.approx(t_hi - t_lo, rel=1e-9)

    def test_monotone_fall_has_no_rise(self):
        wf = ramp(v0=1.0, v1=0.0)
        with pytest.raises(MeasureError):
            rise_time(wf, 0.0, 1.0)
        with pytest.raises(MeasureError):
            fall_time(ramp(), 0.0, 1.0)

    def test_bounds_order_checked(self):
        with pytest.raises(MeasureError):
            rise_time(ramp(), 1.0, 0.0)
        with pytest.raises(MeasureError):
            fall_time(ramp(), 1.0, 1.0)


class TestPropDelay:
    @staticmethod
    def pulse(shift=0.0):
        t = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 10.0]) + shift
        v = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        return Waveform(t, v)

    def test_pure_shift_is_the_delay(self):
        d = prop_delay(self.pulse(), self.pulse(0.3), 0.5, 0.5)
        assert d == pytest.approx(0.3, rel=1e-9)

    def test_identity_is_zero(self):
        assert prop_delay(self.pulse(), self.pulse(), 0.5, 0.5) == 0.0

    def test_worst_pair_is_returned(self):
        # output: rising edge lags 0.2, falling edge lags 0.7
        t_out = np.array([0.0, 1.2, 2.2, 5.7, 6.7, 10.0])
        out = Waveform(t_out, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))
        d = prop_delay(self.pulse(), out, 0.5, 0.5)
        assert d == pytest.approx(0.7, rel=1e-9)

    def test_inverting_output_pairs_with_next_crossing(self):
        inv = Waveform(self.pulse().times, 1.0 - self.pulse().values)
        d = prop_delay(self.pulse(), inv, 0.5, 0.5)
        assert d == 0.0

    def test_unmatched_input_crossing_raises(self):
        out = Waveform(np.array([0.0, 0.5, 1.0, 10.0]),
                       np.array([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(MeasureError, match=r"t=1\.5\b"):
            prop_delay(self.pulse(), out, 0.5, 0.5)

    def test_worst_pair_is_the_loops_over_the_input_crossings(self):
        # many crossings each way: bitwise the worst of each input crossing
        # against its first output crossing at or after it, found by a loop
        rng = np.random.default_rng(3)
        vin = Waveform(np.cumsum(rng.uniform(0.1, 1.0, 200)), rng.uniform(0.0, 1.0, 200))
        out = Waveform(np.cumsum(rng.uniform(0.1, 1.0, 400)), rng.uniform(0.0, 1.0, 400))

        def crossings(wf):
            return np.sort(np.concatenate([_crossings(wf, 0.5, r) for r in (True, False)]))

        tin, tout = crossings(vin), crossings(out)
        assert len(tin) > 50 and tout[-1] > tin[-1]
        expect = max(float(tout[tout >= ti][0] - ti) for ti in tin)
        assert prop_delay(vin, out, 0.5, 0.5) == expect

    def test_no_crossings_raise(self):
        flat = Waveform(np.array([0.0, 10.0]), np.array([0.0, 0.0]))
        with pytest.raises(MeasureError):
            prop_delay(flat, self.pulse(), 0.5, 0.5)
        with pytest.raises(MeasureError):
            prop_delay(self.pulse(), flat, 0.5, 0.5)


class TestSupplyPower:
    def test_dc_delivery(self):
        t = np.linspace(0.0, 1.0, 5)
        v = Waveform(t, np.full(5, 1.2))
        i = Waveform(t, np.full(5, -1e-3))  # 1 mA out of the + terminal
        avg, peak = supply_power(v, i)
        assert avg == pytest.approx(1.2e-3, rel=1e-12)
        assert peak == pytest.approx(1.2e-3, rel=1e-12)

    def test_triangle_pulse_average(self):
        t = np.array([0.0, 1.0, 2.0])
        v = Waveform(t, np.array([1.0, 1.0, 1.0]))
        i = Waveform(t, np.array([0.0, -1.0, 0.0]))
        avg, peak = supply_power(v, i)
        assert avg == pytest.approx(0.5, rel=1e-12)
        assert peak == pytest.approx(1.0, rel=1e-12)

    def test_trapezoid_on_smooth_periodic_signal(self):
        t = np.linspace(0.0, 1.0, 1001)
        v = Waveform(t, np.ones_like(t))
        i = Waveform(t, -np.sin(np.pi * t) ** 2)
        avg, _ = supply_power(v, i)
        assert avg == pytest.approx(0.5, rel=1e-6)

    def test_mismatched_axes_raise(self):
        a = Waveform(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        b = Waveform(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(MeasureError):
            supply_power(a, b)


class TestReport:
    def test_figures_products(self):
        r = MeasureReport("cmos32", max_power=2e-6, avg_power=1e-6,
                          rise_time=2e-10, fall_time=3e-10, prop_delay=5e-10)
        assert r.pdp == 1e-6 * 5e-10
        assert r.edp == r.pdp * 5e-10

    def test_negative_figures_rejected(self):
        # only the times; the power figures are signed
        with pytest.raises(ValueError, match="^fall_time must be non-negative$"):
            MeasureReport("t", max_power=1.0, avg_power=1.0,
                          rise_time=1.0, fall_time=-1.0, prop_delay=1.0)

    def test_absorbed_power_is_negative(self):
        # under p = -v*i a source that absorbs energy reports negative power
        r = MeasureReport("t", max_power=-1e-6, avg_power=-2e-6,
                          rise_time=1.0, fall_time=1.0, prop_delay=3.0)
        assert (r.pdp, r.edp) == (-6e-6, -1.8e-5)

    def test_table_layout(self):
        r = MeasureReport("cmos32", 2e-6, 1e-6, 2e-10, 3e-10, 5e-10)
        text = report_table([r])
        lines = text.splitlines()
        assert len(lines) == 2
        for col in REPORT_COLUMNS:
            assert col in lines[0]
        assert lines[1].startswith("cmos32")
        assert "5e-10" in lines[1]

    def test_table_without_delay_column(self):
        r = MeasureReport("x", 2e-6, 1e-6, 2e-10, 3e-10, 5e-10)
        text = report_table([r], include_delay=False)
        assert "Delay (s)" not in text
        assert "PDP (J)" in text

    def test_columns_frozen(self):
        assert REPORT_COLUMNS == (
            "Technology", "Max power (W)", "Avg power (W)", "Rise (s)",
            "Fall (s)", "Delay (s)", "PDP (J)", "EDP (J*s)")

"""Multi-valued-logic helper tests.

The decoder truth table used as the oracle here is the arithmetic one:
b1 = x // 2 and b0 = x % 2 for the quaternary digit x.  The gate-level
path must reproduce it bit for bit.
"""

import numpy as np
import pytest

from mvlsim.measure import Waveform
from mvlsim.mvl import (
    Digit,
    LevelMap,
    gate_level_decode,
    ideal_decode,
    ideal_vlc,
    quantize,
    truth_table_csv,
)


class TestDigit:
    def test_valid_range(self):
        for r in range(2, 6):
            for v in range(r):
                assert Digit(v, r).value == v

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Digit(4, 4)
        with pytest.raises(ValueError):
            Digit(-1, 4)
        with pytest.raises(ValueError):
            Digit(0, 1)


class TestLevelMap:
    def test_quaternary_levels_at_3v(self):
        lm = LevelMap(4, 3.0)
        assert lm.spacing == 1.0
        assert [lm.level(d) for d in range(4)] == [0.0, 1.0, 2.0, 3.0]

    def test_binary_levels(self):
        lm = LevelMap(2, 1.2)
        assert lm.spacing == 1.2
        assert lm.level(0) == 0.0
        assert lm.level(1) == 1.2

    def test_level_range_checked(self):
        lm = LevelMap(4, 3.0)
        with pytest.raises(ValueError):
            lm.level(4)
        with pytest.raises(ValueError):
            lm.level(-1)

    def test_default_guard_is_quarter_spacing(self):
        lm = LevelMap(4, 3.0)
        assert lm.guard == 0.25
        lm2 = LevelMap(2, 1.2)
        assert lm2.guard == 0.3

    def test_guard_bounds(self):
        LevelMap(4, 3.0, guard=0.49)
        with pytest.raises(ValueError):
            LevelMap(4, 3.0, guard=0.0)
        with pytest.raises(ValueError):
            LevelMap(4, 3.0, guard=0.5)

    def test_radix_at_least_two(self):
        with pytest.raises(ValueError, match="radix must be >= 2"):
            LevelMap(1, 1.2)

    def test_vdd_positive(self):
        with pytest.raises(ValueError):
            LevelMap(4, 0.0)

    def test_digit_of_inside_band(self):
        lm = LevelMap(4, 3.0)  # guard 0.25
        assert lm.digit_of(0.0) == 0
        assert lm.digit_of(0.2) == 0
        assert lm.digit_of(1.1) == 1
        assert lm.digit_of(2.95) == 3
        assert lm.digit_of(3.2) == 3

    def test_digit_of_band_edges_inclusive(self):
        lm = LevelMap(4, 3.0)
        assert lm.digit_of(0.25) == 0
        assert lm.digit_of(0.75) == 1

    def test_digit_of_outside_band(self):
        lm = LevelMap(4, 3.0)
        assert lm.digit_of(0.5) is None
        assert lm.digit_of(1.6) is None
        assert lm.digit_of(-0.3) is None
        assert lm.digit_of(3.3) is None


class TestIdealVlc:
    @pytest.mark.parametrize("radix", [2, 3, 4, 5])
    def test_exhaustive_threshold_behavior(self, radix):
        for i in range(radix - 1):
            for xv in range(radix):
                out = ideal_vlc(i, Digit(xv, radix))
                assert out.radix == radix
                assert out.value == (radix - 1 if xv <= i else 0)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            ideal_vlc(3, Digit(0, 4))
        with pytest.raises(ValueError):
            ideal_vlc(-1, Digit(0, 4))


class TestDecode:
    def test_ideal_decode_table(self):
        table = [ideal_decode(Digit(x, 4)) for x in range(4)]
        assert table == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_radix_checked(self):
        with pytest.raises(ValueError):
            ideal_decode(Digit(1, 3))
        with pytest.raises(ValueError):
            gate_level_decode(Digit(1, 3))

    def test_gate_level_matches_ideal(self):
        for x in range(4):
            assert gate_level_decode(Digit(x, 4)) == ideal_decode(Digit(x, 4))


class TestQuantize:
    def test_staircase_samples(self):
        lm = LevelMap(4, 3.0)
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([0.0, 1.05, 1.95, 3.0, 1.5])
        wf = Waveform(times, values)
        assert quantize(wf, lm, [0.0, 1.0, 2.0, 3.0]) == [0, 1, 2, 3]

    def test_out_of_band_sample_is_none(self):
        lm = LevelMap(4, 3.0)
        wf = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.5]))
        assert quantize(wf, lm, [1.0]) == [None]

    def test_sampling_outside_span_raises(self):
        lm = LevelMap(2, 1.0)
        wf = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            quantize(wf, lm, [2.0])

    def test_interpolates_between_samples(self):
        lm = LevelMap(2, 1.0, guard=0.1)
        wf = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert quantize(wf, lm, [0.05, 0.95]) == [0, 1]
        assert quantize(wf, lm, [0.5]) == [None]


class TestTruthTableCsv:
    def test_full_content(self):
        assert truth_table_csv() == (
            "x,vlc1,vlc2,vlc3,b1,b0\n"
            "0,3,3,3,0,0\n"
            "1,0,3,3,0,1\n"
            "2,0,0,3,1,0\n"
            "3,0,0,0,1,1\n"
        )

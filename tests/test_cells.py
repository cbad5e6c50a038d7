"""Cell generator tests.

The level-converter threshold rule, the decoder's 32-transistor budget and
the staircase stimulus shape are all locked down here, plus DC and
transient checks that the generated circuits actually compute the intended
logic under both built-in technologies and under randomly drawn cards.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mvlsim.cells import (
    CellSpec,
    build_decoder,
    build_inverter,
    build_staircase_testbench,
    build_vlc,
    build_xor2,
    staircase_points,
    staircase_sample_times,
    vlc_thresholds,
)
from mvlsim.characterize import CELL_NAMES, RunConfig, build_cell
from mvlsim.devices import FetModelCard, TechnologyCard, preset
from mvlsim.engine import dc_operating_point, transient
from mvlsim.mvl import Digit, LevelMap, ideal_decode, quantize
from mvlsim.netlist import PwlStimulus, Transient, emit, parse

from helpers import with_dc_input


def spec_for(tech_name="cmos32", vdd=1.2, radix=4, load=1e-15):
    return CellSpec(tech=preset(tech_name), levels=LevelMap(radix, vdd),
                    load=load)


def fets_of(net):
    return [d for d in net.devices if d.kind == "fet"]


class TestThresholds:
    def test_values_at_3v_follow_the_rule(self):
        # vth_n = (0.2 + i) * vdd/3, vth_p = -(2.2 - i) * vdd/3, exactly as
        # IEEE expressions (0.2 + i and 2.2 - i carry the usual ulp noise)
        lm = LevelMap(4, 3.0)
        for i in range(3):
            expect = ((0.2 + 1.0 * i) * 1.0, -(2.2 - 1.0 * i) * 1.0)
            assert vlc_thresholds(i, lm) == expect
        assert vlc_thresholds(0, lm) == (0.2, -2.2)
        assert vlc_thresholds(1, lm)[0] == pytest.approx(1.2, rel=1e-15)
        assert vlc_thresholds(2, lm)[1] == pytest.approx(-0.2, rel=1e-14)

    def test_values_scale_with_vdd(self):
        lm = LevelMap(4, 1.2)
        for i, (vn, vp) in enumerate([(0.08, -0.88), (0.48, -0.48),
                                      (0.88, -0.08)]):
            got = vlc_thresholds(i, lm)
            assert got[0] == pytest.approx(vn, rel=1e-12)
            assert got[1] == pytest.approx(vp, rel=1e-12)

    def test_thresholds_interleave_the_levels(self):
        # vth_n of vlc(i) sits between level(i) and level(i+1); the pair is
        # complementary: vth_n - vth_p spans a constant 2.4 * vdd/3
        lm = LevelMap(4, 3.0)
        for i in range(3):
            vn, vp = vlc_thresholds(i, lm)
            assert lm.level(i) < vn < lm.level(i + 1)
            assert vp < 0.0
            assert vn - vp == pytest.approx(2.4, rel=1e-12)

    def test_index_range(self):
        lm = LevelMap(4, 3.0)
        with pytest.raises(ValueError):
            vlc_thresholds(3, lm)
        with pytest.raises(ValueError):
            vlc_thresholds(-1, lm)

    def test_spec_load_validated(self):
        with pytest.raises(ValueError):
            CellSpec(tech=preset("cmos32"), levels=LevelMap(4, 1.2),
                     load=-1e-15)


class TestVlcCell:
    def test_structure(self):
        spec = spec_for(vdd=3.0)
        net = build_vlc(1, spec)
        assert len(fets_of(net)) == 2
        assert net.models["nvlc"].vth == vlc_thresholds(1, spec.levels)[0]
        assert net.models["pvlc"].vth == vlc_thresholds(1, spec.levels)[1]
        assert net.device("cload").value == spec.load
        assert net.device("vsup").stimulus.level == 3.0

    def test_cells_differ_only_in_thresholds(self):
        spec = spec_for()
        a, b = build_vlc(0, spec), build_vlc(2, spec)
        assert a.devices == b.devices
        for name in ("nvlc", "pvlc"):
            assert dataclasses.replace(a.models[name], vth=0.0) == \
                dataclasses.replace(b.models[name], vth=0.0)
        assert a.models["nvlc"].vth != b.models["nvlc"].vth

    @pytest.mark.parametrize("tech,vdd", [("cmos32", 3.0), ("gnrfet32", 1.2)])
    def test_dc_digit_table(self, tech, vdd):
        spec = spec_for(tech, vdd)
        lm = spec.levels
        for i in range(3):
            net = build_vlc(i, spec)
            digits = []
            for x in range(4):
                op = dc_operating_point(with_dc_input(net, lm.level(x)))
                digits.append(lm.digit_of(op["out"]))
            assert digits == [3 if x <= i else 0 for x in range(4)], \
                f"vlc{i + 1} at {tech}/{vdd}"

    def test_output_swings_to_the_rails(self):
        spec = spec_for(vdd=1.2)
        net = build_vlc(0, spec)
        hi = dc_operating_point(with_dc_input(net, 0.0))["out"]
        lo = dc_operating_point(with_dc_input(net, 1.2))["out"]
        assert abs(hi - 1.2) < 1e-6
        assert abs(lo) < 1e-6


class TestInverterCell:
    def test_structure_and_rails(self):
        spec = spec_for()
        net = build_inverter(spec)
        assert len(fets_of(net)) == 2
        out0 = dc_operating_point(with_dc_input(net, 1.2))["out"]
        out1 = dc_operating_point(with_dc_input(net, 0.0))["out"]
        assert abs(out0) < 1e-6
        assert abs(out1 - 1.2) < 1e-6


class TestXorCell:
    def test_transistor_count(self):
        assert len(fets_of(build_xor2(spec_for()))) == 12

    def test_dc_truth_table(self):
        spec = spec_for()
        net = build_xor2(spec)
        lm = LevelMap(2, spec.levels.vdd)
        for a in (0, 1):
            for b in (0, 1):
                driven = with_dc_input(net, lm.level(a), "a", "vina")
                driven = with_dc_input(driven, lm.level(b), "b", "vinb")
                op = dc_operating_point(driven)
                assert lm.digit_of(op["out"]) == a ^ b, f"a={a} b={b}"


class TestDecoderCell:
    def test_transistor_budget_is_32(self):
        net = build_decoder(spec_for())
        fets = fets_of(net)
        assert len(fets) == 32
        p = [d for d in fets if net.models[d.model].polarity == "p"]
        n = [d for d in fets if net.models[d.model].polarity == "n"]
        assert len(p) == 16 and len(n) == 16

    def test_model_set(self):
        net = build_decoder(spec_for())
        assert sorted(net.models) == [
            "nfet", "nvlc1", "nvlc2", "nvlc3",
            "pfet", "pvlc1", "pvlc2", "pvlc3"]
        spec = spec_for()
        for i in range(3):
            vn, vp = vlc_thresholds(i, spec.levels)
            assert net.models[f"nvlc{i + 1}"] == dataclasses.replace(
                spec.tech.nfet, vth=vn)
            assert net.models[f"pvlc{i + 1}"] == dataclasses.replace(
                spec.tech.pfet, vth=vp)

    def test_radix_must_be_four(self):
        with pytest.raises(ValueError):
            build_decoder(spec_for(radix=3))

    def test_round_trips_through_text(self):
        net = build_decoder(spec_for())
        again = parse(emit(net))
        assert again.devices == net.devices
        assert again.models == net.models

    @pytest.mark.parametrize("tech", ["cmos32", "gnrfet32"])
    def test_dc_logic(self, tech):
        spec = spec_for(tech)
        net = build_decoder(spec)
        lm = spec.levels
        bits = LevelMap(2, lm.vdd)
        for x in range(4):
            op = dc_operating_point(with_dc_input(net, lm.level(x)))
            got = (bits.digit_of(op["b1"]), bits.digit_of(op["b0"]))
            assert got == ideal_decode(Digit(x, 4)), f"x={x} ({tech})"


# sha256 of emit(build_cell(name, ...)) per (cell, card, load): the cell
# text, its device and model order included, is pinned byte for byte
CELL_TEXT_SHA256 = {
    ('vlc1', 'cmos32', 1e-15): "443d6d134af1c39389b4dc46c7f7bfb30618dd12107e1289478b12922cfb0c17",
    ('vlc2', 'cmos32', 1e-15): "f66234fd7d3ba8ff362924c7162678866b5a6bacaeb3fc72f3dd493dfc8d46b7",
    ('vlc3', 'cmos32', 1e-15): "09b981eca5cda95b21156a379021faa5f616296b00d124a1b7dfb4305d0c91e3",
    ('inverter', 'cmos32', 1e-15): "cdc67cb676f6a1d8b5ff715b083f60ccd3bf4d2a0c9b79d5d6cf7d4d363d7d8d",
    ('xor2', 'cmos32', 1e-15): "5b5980dbc7490b8ed199a96c9794df25fc2446253bc0bf038fc9e2d07ecf090d",
    ('decoder', 'cmos32', 1e-15): "7887c516f6c947dfb180550cb4dd05377077a52ce7e23e52138723d796a56a45",
    ('testbench', 'cmos32', 1e-15): "29c7ca3ddceedc94c7dbe4eb6afd9835d2797e8f4892ab0e5479f2e6a5b45d01",
    ('vlc1', 'gnrfet32', 1e-15): "c2063e790de8006a0b4be86f858e5deb38923c436a299b29bb67f683fb08dfed",
    ('vlc2', 'gnrfet32', 1e-15): "d1b70776d33ea4a0c84746678457a6ef2dbd23e166085a6a8716223c8717fe14",
    ('vlc3', 'gnrfet32', 1e-15): "c3ce8b9ea1b549961c59c06b42f2c4587798b1262704121af92a25fe792676b9",
    ('inverter', 'gnrfet32', 1e-15): "30e94ac06525bd8c64c358fa46c2f6e8796a2ff6a4a961cb37a9638cb38eee41",
    ('xor2', 'gnrfet32', 1e-15): "a13a46d61fc493ccbc0caad6ece489682eaec02f886ec99094487821c340f436",
    ('decoder', 'gnrfet32', 1e-15): "a4a1d51b234a0344b9665578169cd52c2a4c3960d02591f224bb1dcea0ef9853",
    ('testbench', 'gnrfet32', 1e-15): "2ba1da84b1329cf4711160a4f8c90975f702f6fe403f548ddeb2cb9b95d51f31",
    ('vlc1', 'cmos32', 0.0): "054cadf2f2c4ce8724757dc2a92688748e073f74efa9d3f508524514ef60376d",
    ('vlc2', 'cmos32', 0.0): "4f67ac4ee155483f4e1a71b6df8d4fe7e549d4791c168e699cdc7da2ead84dbb",
    ('vlc3', 'cmos32', 0.0): "730ad6d3dd81e741e810c78db4d5e78d368e96a9cda3a61858ce27cc5928325c",
    ('inverter', 'cmos32', 0.0): "a7c46c8f3a209af6e34ab7a98f0161bbe5546eed1770cdc0dfa354da6f80bb45",
    ('xor2', 'cmos32', 0.0): "1de347ff1e1a0dbf78078cf49a34efd755e508a8b10447b64d452aa3147a2499",
    ('decoder', 'cmos32', 0.0): "35ce33cb40d7d68053700aa33ee9eb5cf78f11a69e0dcf9a1e08d6ad8896bcca",
    ('testbench', 'cmos32', 0.0): "aabbe05080edd6d5f7c422f85d8d80d47b2e387891081f440919ef4af790a09d",
    ('vlc1', 'gnrfet32', 0.0): "8961237a33ea09b69b4563092f8a36fc1745b9a5e8e8787019d90378cacad043",
    ('vlc2', 'gnrfet32', 0.0): "8d8dd606630a84b408283b07a7c600dc4f53ad2c2dd895a5eb49f153d78fc628",
    ('vlc3', 'gnrfet32', 0.0): "30d775a951aa84acd595f69ea9e8c292de6f7f719f5b2e5a1cd36458901b2832",
    ('inverter', 'gnrfet32', 0.0): "8c4f3213712a097fd0782a5efa5a85d8005845f59ae15b278224eb546f2984fd",
    ('xor2', 'gnrfet32', 0.0): "8355733b3086d828988221f8af6468f607a867d4acaa514e937577bc116bf0dc",
    ('decoder', 'gnrfet32', 0.0): "2037f0f7a8756e8d27c9016044658587e9dda32b2487f5e483a59321950c67ed",
    ('testbench', 'gnrfet32', 0.0): "072b554b674fd47659939531c4a6d56c2ab0028457857051eced31a6df8547df",
}


class TestCellText:
    @pytest.mark.parametrize("load", [1e-15, 0.0])
    @pytest.mark.parametrize("tech", ["cmos32", "gnrfet32"])
    @pytest.mark.parametrize("name", CELL_NAMES)
    def test_emitted_text_is_pinned(self, name, tech, load):
        text = emit(build_cell(name, RunConfig(tech=tech, load=load), preset(tech)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            CELL_TEXT_SHA256[name, tech, load]


class TestStaircase:
    def test_point_structure(self):
        lm = LevelMap(4, 3.0)
        pts = staircase_points(lm, hold=5.0, slew=0.5)
        assert pts == (
            (0.0, 0.0),
            (5.0, 0.0), (5.5, 1.0),
            (10.0, 1.0), (10.5, 2.0),
            (15.0, 2.0), (15.5, 3.0),
            (20.0, 3.0),
        )

    def test_points_feed_pwl(self):
        lm = LevelMap(4, 1.2)
        PwlStimulus(staircase_points(lm, 5e-9, 1e-10))

    def test_hold_slew_validation(self):
        lm = LevelMap(4, 1.2)
        with pytest.raises(ValueError):
            staircase_points(lm, hold=1.0, slew=1.0)
        with pytest.raises(ValueError):
            staircase_points(lm, hold=1.0, slew=0.0)

    def test_sample_times_sit_inside_held_steps(self):
        lm = LevelMap(4, 1.2)
        hold, slew = 5e-9, 1e-10
        ts = staircase_sample_times(lm, hold, slew)
        assert len(ts) == 4
        pts = staircase_points(lm, hold, slew)
        stim = PwlStimulus(pts)
        for d, t in enumerate(ts):
            assert stim.value_at(t) == pytest.approx(lm.level(d), abs=1e-12)

    def test_testbench_contents(self):
        spec = spec_for()
        net = build_staircase_testbench(spec, hold=5e-9, slew=1e-10)
        vin = net.device("vin")
        assert vin.stimulus == PwlStimulus(
            staircase_points(spec.levels, 5e-9, 1e-10))
        (tran,) = net.analyses
        assert isinstance(tran, Transient)
        assert tran.tstop == 4 * 5e-9
        assert tran.dt == min(tran.tstop / 1000.0, 1e-10 / 10.0)
        assert tran.dtmax == 5e-9 / 20.0  # the step grows through each hold
        got = {(m.name, m.kind, m.targets) for m in net.measures}
        assert got == {
            ("b0_rise", "rise", ("b0",)),
            ("b0_fall", "fall", ("b0",)),
            ("b0_delay", "delay", ("in", "b0")),
            ("b1_rise", "rise", ("b1",)),
            ("b1_fall", "fall", ("b1",)),
            ("b1_delay", "delay", ("in", "b1")),
            ("supply_avg", "avgpower", ("vsup",)),
            ("supply_peak", "peakpower", ("vsup",)),
        }

    def test_with_dc_input_does_not_mutate_original(self):
        net = build_inverter(spec_for())
        n_dev = len(net.devices)
        driven = with_dc_input(net, 0.6)
        assert len(net.devices) == n_dev
        assert len(driven.devices) == n_dev + 1


class TestDecoderTransient:
    def sampled_bits(self, spec, hold=2e-9, slew=1e-10):
        net = build_staircase_testbench(spec, hold=hold, slew=slew)
        ws = transient(net)
        bits = LevelMap(2, spec.levels.vdd)
        ts = staircase_sample_times(spec.levels, hold, slew)
        return (quantize(ws.voltage("b1"), bits, ts),
                quantize(ws.voltage("b0"), bits, ts))

    def test_cmos_staircase_decodes(self):
        b1, b0 = self.sampled_bits(spec_for("cmos32"))
        assert b1 == [0, 0, 1, 1]
        assert b0 == [0, 1, 0, 1]

    def test_random_technology_cards_decode(self):
        rng = np.random.default_rng(8)
        for trial in range(2):
            k = float(rng.uniform(3e-5, 3e-4))
            vth = float(rng.uniform(0.15, 0.45))
            cg = float(rng.uniform(1e-17, 1e-16))
            cd = float(rng.uniform(1e-17, 1e-16))
            tech = TechnologyCard(
                name=f"random{trial}",
                nfet=FetModelCard("n", vth, k, 0.05, cg, cd),
                pfet=FetModelCard("p", -vth, k, 0.05, cg, cd),
            )
            spec = CellSpec(tech=tech, levels=LevelMap(4, 1.2), load=1e-15)
            b1, b0 = self.sampled_bits(spec)
            assert b1 == [0, 0, 1, 1], f"trial {trial}: k={k} vth={vth}"
            assert b0 == [0, 1, 0, 1], f"trial {trial}: k={k} vth={vth}"

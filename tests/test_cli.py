"""Command line interface tests.

These drive cli.main in-process.  Exit codes: 0 ok, 1 usage/parse, 2 solver
failure, 3 I/O failure, 4 decoder logic mismatch.  All artifacts must be
byte deterministic, so reruns are compared as raw file contents.
"""

import collections
import io
import json
import re

import pytest

from mvlsim import cli, engine
from mvlsim.cells import vlc_thresholds
from mvlsim.characterize import (
    RunConfig,
    build_cell,
    improvement_pct,
    resolve_tech,
    run_decoder,
)
from mvlsim.cli import _cfg_from_args, build_parser, main
from mvlsim.devices import preset
from mvlsim.mvl import LevelMap
from mvlsim.netlist import parse

RC = """* rc lowpass
v1 in 0 pwl(0 0 10p 1)
r1 in out 1k
c1 out 0 1p
.tran 10p 10n
.measure tr rise v(out)
.measure td delay v(in) v(out)
.end
"""

# the second exit-2 line: the failing run (batched commands) and the fields
# of a ConvergenceError; an update failure names the unknown of the largest
# |dx| and its dx
FAILED_RUN = re.compile(r"^error: run (?P<run>\S+): t (dc|\S+ s), test (?P<test>update|kcl), "
                        r"(?:unknown '[\w()]+', dx \S+, )?node '\w+', "
                        r"KCL excess \S+ A, iteration (?P<iteration>\d+)$", re.M)

REPORT_KEYS = {"technology", "max_power", "avg_power", "rise_time",
               "fall_time", "prop_delay", "pdp", "edp"}
SOLVER_KEYS = {"steps", "rejected_lte", "rejected_newton", "newton_iterations",
               "kcl_excess_max"}


def read_json(path):
    return json.loads(path.read_text())


class TestRun:
    def test_rc_run_writes_artifacts(self, tmp_path, capsys):
        src = tmp_path / "rc.sp"
        src.write_text(RC)
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out)]) == 0
        doc = read_json(out / "rc.json")
        assert doc["command"] == "run"
        assert doc["title"] == "rc lowpass"
        assert doc["measures"]["tr"] == pytest.approx(2.197e-9, rel=0.02)
        assert doc["measures"]["td"] == pytest.approx(0.688e-9, rel=0.02)
        csv = (out / "rc.csv").read_text().splitlines()
        assert csv[0] == "time,in,out,i(v1)"
        assert doc["solver"]["steps"] == len(csv) - 2
        assert doc["solver"]["rejected_lte"] == doc["solver"]["rejected_newton"] == 0
        assert "tr = " in capsys.readouterr().out

    def test_absorbing_source_reports_negative_power(self, tmp_path, capsys):
        # v2 takes 1 mA in while x is at 2 V and gives 1 mA out while x is
        # at 0 V: 1 mW absorbed for 7.5 ns and delivered for 6.5 ns
        src = tmp_path / "absorb.sp"
        src.write_text("* absorbing source\n"
                       "v1 x 0 pwl(0 0 0.5n 0 0.6n 2 8n 2 8.1n 0 14n 0)\n"
                       "r1 x y 1k\nc1 y 0 1p\nv2 z 0 dc 1\nr2 x z 1k\n.tran 10p 14n\n"
                       ".measure tr rise v(y)\n.measure tf fall v(y)\n"
                       ".measure td delay v(x) v(y)\n"
                       ".measure pa avgpower v2\n.measure pp peakpower v2\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["avg_power"] == pytest.approx(-1e-3 / 14, rel=1e-9)
        assert report["pdp"] == report["avg_power"] * report["prop_delay"] < 0.0
        assert report["edp"] < 0.0

    def test_op_only_netlist(self, tmp_path, capsys):
        src = tmp_path / "div.sp"
        src.write_text("* d\nv1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n.op\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "div.json")
        assert doc["op"]["b"] == pytest.approx(1.0, rel=1e-9)
        assert doc["solver"] is None
        assert "v(b) = " in capsys.readouterr().out

    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        src = tmp_path / "bad.sp"
        src.write_text("* bad\nr1 a 0 zz\n.end\n")
        assert main(["run", str(src)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_second_tran_is_exit_1(self, tmp_path, capsys):
        src = tmp_path / "rc2.sp"
        src.write_text(RC.replace(".tran 10p 10n\n", ".tran 10p 10n\n.tran 10p 30n\n"))
        assert main(["run", str(src), "--out", str(tmp_path)]) == 1
        assert "(line 6)" in capsys.readouterr().err
        assert not (tmp_path / "rc2.json").exists()

    def test_pulse_breakpoint_overflow_is_exit_1(self, tmp_path, capsys):
        src = tmp_path / "fast.sp"
        src.write_text("* fast pulse\nv1 a 0 pulse(0 1 0 1p 1p 1p 4p)\n"
                       "r1 a 0 1k\n.tran 1p 1u\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 1
        assert "breakpoints" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["r1 0 0 1k\n.op\n", "r1 0 0 1k\n.tran 1p 1n\n",
                                      ".op\n"], ids=["op", "tran", "op_alone"])
    def test_no_node_but_ground_is_exit_1(self, tmp_path, capsys, body):
        src = tmp_path / "ground.sp"
        src.write_text(f"* ground alone\n{body}.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: netlist has no node but ground (line 2)\n"

    def test_csv_artifact_stdout_and_to_csv_agree(self, tmp_path, capsys):
        src = tmp_path / "rc.sp"
        src.write_text(RC)
        assert main(["run", str(src), "--out", str(tmp_path), "--format", "csv"]) == 0
        buf = io.StringIO()
        engine.transient(parse(RC)).to_csv(buf)
        text = buf.getvalue()
        assert len(text.splitlines()) > 3 * engine._BLOCK
        assert (tmp_path / "rc.csv").read_bytes() == text.encode()
        assert capsys.readouterr().out == text

    def test_missing_file_is_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.sp")]) == 3

    def test_solver_failure_is_exit_2(self, tmp_path, capsys):
        src = tmp_path / "sing.sp"
        src.write_text("* s\nv1 a 0 dc 1\nv2 a 0 dc 2\nr1 a 0 1k\n.op\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith("\nerror: t dc, unknowns i(v1), i(v2)\n")

    def test_source_loop_names_its_currents(self, tmp_path, capsys):
        # the loop fixes a - b twice: only the two source currents are free
        src = tmp_path / "loop.sp"
        src.write_text("* loop\nv1 a b dc 1\nv2 b a dc 1\nr1 a 0 1k\nr2 b 0 1k\n"
                       ".tran 1p 1n\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith("\nerror: t dc, unknowns i(v1), i(v2)\n")

    def test_gmin_node_beside_milliohm_resistor_is_exit_0(self, tmp_path, capsys):
        # node x hangs on gmin alone beside 1e3 S: not a singular matrix
        src = tmp_path / "gmin.sp"
        src.write_text("* gmin node\n"
                       ".model nfet NFET vth=0.3 k=3.35e-5 lambda=0.05 cg=8e-17 cd=6e-17\n"
                       "v1 in 0 dc 1.0\nr1 in out 1m\nr2 out 0 1k\nrg g 0 1k\n"
                       "mn x g 0 0 nfet\n.op\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 0
        assert "v(out) = 0.999999" in capsys.readouterr().out

    def test_op_is_the_transient_start(self, tmp_path, monkeypatch):
        # one DC solve serves both .op and .tran, bitwise
        solved = []
        solve_dc = engine._Circuit.solve_dc

        def counting(self, svals):
            solved.append(svals)
            return solve_dc(self, svals)

        monkeypatch.setattr(engine._Circuit, "solve_dc", counting)
        src = tmp_path / "rc.sp"
        src.write_text(RC.replace("pwl(0 0 ", "pwl(0 0.5 ").replace(".end", ".op\n.end"))
        assert main(["run", str(src), "--out", str(tmp_path)]) == 0
        assert len(solved) == 1
        op = read_json(tmp_path / "rc.json")["op"]
        assert op == engine.dc_operating_point(parse(src.read_text()))

    def test_unwritable_out_is_exit_3(self, tmp_path):
        src = tmp_path / "rc.sp"
        src.write_text(RC)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["run", str(src), "--out", str(blocker / "sub")]) == 3

    def test_calls_the_names_the_benchmark_traces(self, tmp_path, monkeypatch):
        # perfbench/tracing.py times these calls by wrapping mvlsim.cli's
        # names and WaveformSet.to_csv; a call moved off them reads 0 there
        calls = collections.Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("parse", "transient", "dc_operating_point"):
            count(cli, name)
        count(engine.WaveformSet, "to_csv")
        tran, op = tmp_path / "rc.sp", tmp_path / "div.sp"
        tran.write_text(RC)
        op.write_text("* d\nv1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n.op\n.end\n")
        assert main(["run", str(tran), "--out", str(tmp_path)]) == 0
        assert calls == {"parse": 1, "transient": 1, "to_csv": 1}
        calls.clear()
        assert main(["run", str(op), "--out", str(tmp_path)]) == 0
        assert calls == {"parse": 1, "dc_operating_point": 1}


class TestCell:
    def test_decoder_netlist_emitted(self, tmp_path, capsys):
        assert main(["cell", "decoder", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "decoder_cmos32.sp").read_text()
        assert capsys.readouterr().out == text
        net = parse(text)
        fets = [d for d in net.devices if d.kind == "fet"]
        assert len(fets) == 32

    def test_vlc_netlist_has_shifted_thresholds(self, tmp_path, capsys):
        assert main(["cell", "vlc1", "--out", str(tmp_path)]) == 0
        net = parse(capsys.readouterr().out)
        vn, vp = vlc_thresholds(0, LevelMap(4, 1.2))
        assert net.models["nvlc"].vth == vn
        assert net.models["pvlc"].vth == vp

    def test_testbench_feeds_run(self, tmp_path, capsys):
        assert main(["cell", "testbench", "--hold", "1e-9",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        src = tmp_path / "testbench_cmos32.sp"
        assert main(["run", str(src), "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "testbench_cmos32.json")
        assert set(doc["report"]) == REPORT_KEYS
        assert doc["measures"]["b0_rise"] > 0.0

    def test_testbench_dt_matches_decoder(self, tmp_path, capsys):
        flags = ["--hold", "1e-9", "--dt", "2e-12", "--out", str(tmp_path)]
        assert main(["cell", "testbench", *flags]) == 0
        assert ".tran 2e-12 4e-09 5e-11" in capsys.readouterr().out
        assert main(["run", str(tmp_path / "testbench_cmos32.sp"), *flags[-2:]]) == 0
        assert main(["decoder", *flags]) == 0
        ran = read_json(tmp_path / "testbench_cmos32.json")
        decoded = read_json(tmp_path / "decoder_cmos32.json")
        assert ran["measures"] == decoded["measures"]
        assert ran["solver"] == decoded["solver"]

    @pytest.mark.parametrize("name, fets", [("inverter", 2), ("xor2", 12)])
    def test_gate_netlist_emitted(self, tmp_path, capsys, name, fets):
        assert main(["cell", name, "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{name}_cmos32.sp").read_text()
        assert capsys.readouterr().out == text
        assert sum(d.kind == "fet" for d in parse(text).devices) == fets

    def test_unknown_cell_is_exit_1(self, capsys):
        assert main(["cell", "nand3"]) == 1
        with pytest.raises(ValueError, match="^unknown cell 'nand3'; one of: "):
            build_cell("nand3", RunConfig(), preset("cmos32"))

    def test_usage_errors_are_exit_1(self, capsys):
        assert main(["decoder", "--vdd", "notanumber"]) == 1
        assert main(["bogus-subcommand"]) == 1

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "cell" in capsys.readouterr().out


class TestDecoder:
    def test_parser_defaults_are_run_config_defaults(self):
        assert _cfg_from_args(build_parser().parse_args(["decoder"])) == RunConfig()

    def test_json_schema_and_logic(self, tmp_path, capsys):
        code = main(["decoder", "--hold", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "decoder_cmos32.json")
        assert doc["command"] == "decoder"
        assert doc["technology"] == "cmos32"
        assert doc["logic_ok"] is True
        assert doc["expected"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["observed"] == doc["expected"]
        assert set(doc["report"]) == REPORT_KEYS
        assert doc["config"]["hold"] == 1e-9
        assert doc["stimulus"].startswith("vin in 0 PWL(")
        assert len(doc["stimulus_sha256"]) == 64
        assert doc["measures"]["b1_fall"] is None  # b1 never falls: 0,0,1,1
        csv = (tmp_path / "decoder_cmos32.csv").read_text()
        assert csv.startswith("time,")
        solver = doc["solver"]
        assert set(solver) == SOLVER_KEYS
        assert solver["steps"] == len(csv.splitlines()) - 2  # header, DC row
        assert solver["newton_iterations"] >= solver["steps"]
        assert 0.0 <= solver["kcl_excess_max"] <= engine._ABSTOL
        out = capsys.readouterr().out
        assert "logic ok" in out
        assert "Technology" in out

    def test_csv_artifact_stdout_and_to_csv_agree(self, tmp_path, capsys):
        code = main(["decoder", "--hold", "1e-9", "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        buf = io.StringIO()
        run_decoder(RunConfig(hold=1e-9)).wset.to_csv(buf)
        text = buf.getvalue()
        assert (tmp_path / "decoder_cmos32.csv").read_bytes() == text.encode()
        assert capsys.readouterr().out == text

    def test_solver_failure_names_the_card(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
        assert main(["decoder", "--tech", "gnrfet32", "--hold", "1e-9",
                     "--out", str(tmp_path)]) == 2
        match = FAILED_RUN.search(capsys.readouterr().err)
        assert match and match["run"] == "gnrfet32" and match["iteration"] == "3"
        # the update test failed; KCL held at every node
        assert match["test"] == "update" and ", unknown 'i3', dx " in match[0]
        assert not list(tmp_path.iterdir())

    def test_low_vdd_mismatch_is_exit_4(self, tmp_path):
        code = main(["decoder", "--vdd", "0.3", "--hold", "1e-9",
                     "--out", str(tmp_path)])
        assert code == 4
        doc = read_json(tmp_path / "decoder_cmos32.json")
        assert doc["logic_ok"] is False
        assert doc["report"] is None  # outputs never switch

    def test_bad_config_is_exit_1(self, tmp_path):
        assert main(["decoder", "--vdd", "-1", "--out", str(tmp_path)]) == 1
        assert main(["decoder", "--tech", "sige90",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fields, message", [
        ({"hold": 1e-10, "slew": 1e-10}, "need hold > slew > 0"),
        ({"load": -1e-15}, "load must be >= 0"),
        ({"dt": 0.0}, "dt must be positive"),
    ], ids=["hold_not_above_slew", "negative_load", "zero_dt"])
    def test_config_rules_are_checked(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(**fields)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", ["vdd", "hold", "slew", "load", "dt"])
    def test_non_finite_config_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RunConfig(**{field: float(value)})

    @pytest.mark.parametrize("argv", [
        ["decoder", "--load", "nan"],
        ["decoder", "--load", "inf"],
        ["cell", "testbench", "--load", "nan"],
        ["sweep", "--param", "load", "--start", "nan", "--stop", "2e-15", "--count", "2"],
        ["sweep", "--param", "vth_scale", "--start", "1", "--stop", "inf", "--count", "2"],
    ], ids=["decoder_nan", "decoder_inf", "cell_nan", "sweep_load_nan", "sweep_vth_inf"])
    def test_non_finite_flag_is_exit_1(self, tmp_path, capsys, argv):
        assert main([*argv, "--hold", "1e-9", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(r"^error: (load|start and stop) must be finite", err)
        assert not list(tmp_path.iterdir())

    def test_dt_override_recorded(self, tmp_path):
        code = main(["decoder", "--hold", "1e-9", "--dt", "5e-12",
                     "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "decoder_cmos32.json")["config"]["dt"] == 5e-12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["decoder", "--hold", "1e-9", "--out", str(a)]) == 0
        assert main(["decoder", "--hold", "1e-9", "--out", str(b)]) == 0
        for name in ("decoder_cmos32.json", "decoder_cmos32.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVLSIM_OUT", str(tmp_path / "envout"))
        assert main(["decoder", "--hold", "1e-9"]) == 0
        assert (tmp_path / "envout" / "decoder_cmos32.json").exists()


class TestCompare:
    def test_table_percent_lines_and_artifacts(self, tmp_path, capsys):
        code = main(["compare", "--hold", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("Technology")
        assert "Delay" not in header
        doc = read_json(tmp_path / "compare.json")
        assert set(doc["improvements_pct"]) == {
            "avg_power", "rise_time", "fall_time", "pdp"}
        pct = doc["improvements_pct"]
        assert out.splitlines()[-4:] == [
            f"{pct['avg_power']:.2f}% decrease in power",
            f"{pct['rise_time']:.2f}% improvement in rise time",
            f"{pct['fall_time']:.2f}% improvement in fall time",
            f"{pct['pdp']:.2f}% decrease in PDP"]
        assert all(v > 0.0 for v in doc["improvements_pct"].values())
        runs = doc["runs"]
        assert runs["cmos32"]["stimulus"] == runs["gnrfet32"]["stimulus"]
        assert runs["cmos32"]["stimulus_sha256"] == doc["stimulus_sha256"]
        for tech in ("cmos32", "gnrfet32"):
            assert (tmp_path / f"decoder_{tech}.json").exists()
            assert (tmp_path / f"decoder_{tech}.csv").exists()
            assert runs[tech]["solver"] == read_json(
                tmp_path / f"decoder_{tech}.json")["solver"]

    def test_solver_failure_names_the_card(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
        assert main(["compare", "--hold", "1e-9", "--out", str(tmp_path)]) == 2
        match = FAILED_RUN.search(capsys.readouterr().err)
        assert match and match["run"] == "cmos32" and match["iteration"] == "3"
        assert not list(tmp_path.iterdir())

    def test_improvement_pct(self):
        assert improvement_pct(2.0, 1.0) == 50.0
        assert improvement_pct(1.0, 2.0) == -100.0
        with pytest.raises(ValueError):
            improvement_pct(0.0, 1.0)


class TestSweep:
    def test_load_sweep_rise_times_grow(self, tmp_path):
        code = main(["sweep", "--param", "load", "--start", "1e-15",
                     "--stop", "4e-15", "--count", "3", "--hold", "2e-9",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep_load.csv").read_text().splitlines()
        assert lines[0] == "load,run,metric,value"
        rises = [float(l.split(",")[3]) for l in lines
                 if l.split(",")[2] == "b0_rise"]
        assert len(rises) == 3
        assert rises[0] < rises[1] < rises[2]

    def test_single_point_matches_decoder_measures(self, tmp_path):
        assert main(["decoder", "--hold", "1e-9", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "decoder_cmos32.json")
        assert main(["sweep", "--param", "vdd", "--start", "1.2", "--stop",
                     "1.2", "--count", "1", "--hold", "1e-9",
                     "--out", str(tmp_path)]) == 0
        rows = {}
        for line in (tmp_path / "sweep_vdd.csv").read_text().splitlines()[1:]:
            _, _, metric, value = line.split(",")
            rows[metric] = float(value)
        assert rows["logic_ok"] == 1.0
        for name, val in doc["measures"].items():
            if val is not None:
                assert rows[name] == val
        measured = sorted(name for name, val in doc["measures"].items()
                          if val is not None)
        assert list(rows) == ["logic_ok", *measured, "max_power", "avg_power",
                              "rise_time", "fall_time", "prop_delay", "pdp", "edp"]

    def test_solver_failure_names_the_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
        assert main(["sweep", "--param", "vdd", "--start", "1.2", "--stop",
                     "1.0", "--count", "2", "--hold", "1e-9",
                     "--out", str(tmp_path)]) == 2
        match = FAILED_RUN.search(capsys.readouterr().err)
        assert match and match["run"] == "vdd=1.2"

    def test_zero_count_is_exit_1(self, tmp_path, capsys):
        assert main(["sweep", "--param", "load", "--start", "1e-15", "--stop",
                     "2e-15", "--count", "0", "--out", str(tmp_path)]) == 1
        assert "count must be >= 1" in capsys.readouterr().err

    def test_unknown_param_is_exit_1(self, tmp_path):
        assert main(["sweep", "--param", "beta", "--start", "0", "--stop",
                     "1", "--count", "2", "--out", str(tmp_path)]) == 1

    def test_vth_scale_runs(self, tmp_path):
        code = main(["sweep", "--param", "vth_scale", "--start", "1.0",
                     "--stop", "1.0", "--count", "1", "--hold", "1e-9",
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "sweep_vth_scale.csv").read_text()
        assert "logic_ok,1.0" in text


class TestFormats:
    @pytest.mark.parametrize("argv", [
        ["compare", "--format", "csv"],
        ["sweep", "--param", "load", "--start", "1e-15", "--stop", "2e-15",
         "--count", "2", "--format", "json"],
        ["cell", "decoder", "--format", "json"],
        ["cell", "decoder", "--format", "csv"],
    ], ids=["compare_csv", "sweep_json", "cell_json", "cell_csv"])
    def test_format_not_printed_is_exit_1(self, tmp_path, capsys, argv):
        assert main([*argv, "--hold", "1e-9", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--format: invalid choice" in err
        assert not list(tmp_path.iterdir())

    OP_ONLY = "* op only\nv1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n.op\n.end\n"

    def test_format_with_no_output_is_exit_1(self, tmp_path, capsys):
        # .op without .tran gives no waveforms, so no csv
        src = tmp_path / "op.sp"
        src.write_text(self.OP_ONLY)
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out), "--format", "csv"]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and "csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_op_only_run_prints_table_and_json(self, tmp_path, capsys, fmt):
        src = tmp_path / "op.sp"
        src.write_text(self.OP_ONLY)
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out), "--format", fmt]) == 0
        stdout = capsys.readouterr().out
        if fmt == "table":
            assert stdout == "v(a) = 2.0\nv(b) = 1.0\n"
        else:
            assert json.loads(stdout)["op"] == {"a": 2.0, "b": 1.0}
        assert (out / "op.json").is_file()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_op_only_run_keeps_its_measures(self, tmp_path, capsys, fmt):
        # without .tran there is no waveform to measure: each directive
        # maps to None, as an unmeasurable one does under .tran
        src = tmp_path / "op.sp"
        src.write_text(self.OP_ONLY.replace(".end", ".measure m1 rise v(b)\n.end"))
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out), "--format", fmt]) == 0
        stdout = capsys.readouterr().out
        if fmt == "table":
            assert stdout == "v(a) = 2.0\nv(b) = 1.0\nm1 = None\n"
        else:
            assert json.loads(stdout)["measures"] == {"m1": None}
        assert json.loads((out / "op.json").read_text())["measures"] == {"m1": None}

    SWEEP = ["sweep", "--param", "load", "--start", "1e-15", "--stop", "2e-15",
             "--count", "2", "--hold", "1e-9"]

    @pytest.mark.parametrize("argv, artifact", [
        (["run", "{rc}", "--format", "json"], "rc.json"),
        (["run", "{rc}", "--format", "csv"], "rc.csv"),
        (["decoder", "--hold", "1e-9", "--format", "json"], "decoder_cmos32.json"),
        (["compare", "--hold", "1e-9", "--format", "json"], "compare.json"),
        (SWEEP, "sweep_load.csv"),
        (SWEEP + ["--format", "csv"], "sweep_load.csv"),
        (SWEEP + ["--format", "csv", "--format", "table"], "sweep_load.csv"),
        (["cell", "testbench"], "testbench_cmos32.sp"),
    ], ids=["run_json", "run_csv", "decoder_json", "compare_json", "sweep_table",
            "sweep_csv", "sweep_both", "cell"])
    def test_stdout_is_the_artifact(self, tmp_path, capsys, argv, artifact):
        src = tmp_path / "rc.sp"
        src.write_text(RC)
        out = tmp_path / "out"
        argv = [arg.format(rc=src) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == (out / artifact).read_bytes()


class TestDumpModels:
    def test_single_tech_output_parses_back(self, capsys):
        assert main(["dump-models", "--tech", "gnrfet32"]) == 0
        out = capsys.readouterr().out
        net = parse(out + ".end\n")
        assert net.models["nfet"] == preset("gnrfet32").nfet
        assert net.models["pfet"] == preset("gnrfet32").pfet

    def test_all_presets_listed(self, capsys):
        assert main(["dump-models"]) == 0
        out = capsys.readouterr().out
        assert "cmos32" in out and "gnrfet32" in out
        assert out.count(".model") == 4


class TestResolveTech:
    def test_presets(self):
        assert resolve_tech("cmos32") is preset("cmos32")

    def test_model_file(self, tmp_path):
        f = tmp_path / "mytech.sp"
        f.write_text(
            "* cards\n"
            ".model nfet NFET vth=0.2 k=1e-4 lambda=0.02 cg=5e-17 cd=4e-17\n"
            ".model pfet PFET vth=-0.2 k=1e-4 lambda=0.02 cg=5e-17 cd=4e-17\n"
            ".end\n")
        tech = resolve_tech(str(f))
        assert tech.name == "mytech"
        assert tech.nfet.vth == 0.2
        assert tech.pfet.polarity == "p"

    def test_incomplete_model_file(self, tmp_path):
        f = tmp_path / "half.sp"
        f.write_text("* c\n.model nfet NFET vth=0.2 k=1e-4 lambda=0 cg=0\n.end\n")
        with pytest.raises(ValueError):
            resolve_tech(str(f))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="preset"):
            resolve_tech("does-not-exist")

    @pytest.mark.parametrize("name", ["", "{tmp}"], ids=["empty", "directory"])
    def test_empty_name_or_directory_is_exit_1(self, tmp_path, capsys, name):
        # Path("") is ".": neither it nor any directory is a technology file
        assert main(["decoder", "--tech", name.format(tmp=tmp_path), "--out",
                     str(tmp_path / "out")]) == 1
        assert "not a preset (cmos32, gnrfet32) and not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

"""Command line interface tests.

These drive cli.main in-process.  Exit codes: 0 ok, 1 usage/parse, 2 solver
failure, 3 I/O failure, 4 decoder logic mismatch.  All artifacts must be
byte deterministic, so reruns are compared as raw file contents.
"""

import json
import re

import pytest

from mvlsim import engine
from mvlsim.cells import vlc_thresholds
from mvlsim.characterize import RunConfig, improvement_pct, resolve_tech
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
# of a ConvergenceError
FAILED_RUN = re.compile(r"^error: run (\S+): t (dc|\S+ s), node '\w+', "
                        r"KCL excess \S+ A, iteration (\d+)$", re.M)

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

    def test_missing_file_is_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.sp")]) == 3

    def test_solver_failure_is_exit_2(self, tmp_path, capsys):
        src = tmp_path / "sing.sp"
        src.write_text("* s\nv1 a 0 dc 1\nv2 a 0 dc 2\nr1 a 0 1k\n.op\n.end\n")
        assert main(["run", str(src), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith("\nerror: pivot 2\n")

    def test_unwritable_out_is_exit_3(self, tmp_path):
        src = tmp_path / "rc.sp"
        src.write_text(RC)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["run", str(src), "--out", str(blocker / "sub")]) == 3


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

    def test_unknown_cell_is_exit_1(self, capsys):
        assert main(["cell", "nand3"]) == 1

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
        for phrase in ("% decrease in power", "% improvement in rise time",
                       "% improvement in fall time", "% decrease in PDP"):
            assert phrase in out
        doc = read_json(tmp_path / "compare.json")
        assert set(doc["improvements_pct"]) == {
            "avg_power", "rise_time", "fall_time", "pdp"}
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
        assert match and match[1] == "cmos32" and match[3] == "3"
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

    def test_solver_failure_names_the_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
        assert main(["sweep", "--param", "vdd", "--start", "1.2", "--stop",
                     "1.0", "--count", "2", "--hold", "1e-9",
                     "--out", str(tmp_path)]) == 2
        match = FAILED_RUN.search(capsys.readouterr().err)
        assert match and match[1] == "vdd=1.2"

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

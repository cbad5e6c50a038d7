"""Module boundaries: what importing the package loads, and the scripts
that import it."""

import ast
import importlib.util
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import mvlsim
from mvlsim import characterize

from helpers import TRAP_WORK

SRC = Path(mvlsim.__file__).resolve().parents[1]
ROOT = SRC.parent


def test_import_leaves_the_cli_out():
    # the library is usable without the command-line front end or argparse
    code = ("import sys, mvlsim; "
            "print(sorted(m for m in ('argparse', 'mvlsim.cli') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_import_leaves_openssl_out():
    # hashlib loads OpenSSL (about 3 MB resident); the CLI imports it only
    # where decoder and compare hash their stimulus
    code = "import sys, mvlsim.cli; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_cli_module_runs_as_a_script(monkeypatch, capsys):
    # python -m mvlsim.cli: the command line without an installed script;
    # out of sys.modules, the module runs as __main__ without a warning
    monkeypatch.setattr(sys, "argv", ["mvlsim", "dump-models", "--tech", "cmos32"])
    monkeypatch.delitem(sys.modules, "mvlsim.cli", raising=False)
    with pytest.raises(SystemExit) as ei:
        runpy.run_module("mvlsim.cli", run_name="__main__")
    assert ei.value.code == 0 and capsys.readouterr().out.count(".model") == 2


def test_calibration_tool_imports(monkeypatch):
    # imported as a module, without running main, so its imports are checked
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "calibrate_presets", ROOT / "tools" / "calibrate_presets.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.run_decoder is characterize.run_decoder
    assert callable(tool.main)


def test_calibration_tool_finds_src_from_any_directory(tmp_path):
    # the tool puts this checkout's src on sys.path from its own location,
    # so it runs from any working directory with no installed package
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('calibrate_presets', sys.argv[1]); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print(sys.modules['mvlsim'].__file__)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools" / "calibrate_presets.py")],
                         cwd=tmp_path, env=env, check=True, capture_output=True,
                         text=True).stdout
    assert Path(out.strip()).resolve() == SRC / "mvlsim" / "__init__.py"


def test_src_line_counts_add_up(capsys):
    # CI reports each change's src/ lines as code, docstring, comment and
    # blank; the four counts of each module add up to its line count
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sample = '"""doc\n\nmore"""\n\nx = 1  # code\n# comment\ns = """a\n\nb"""\n'
    assert tool.count(sample) == {"code": 4, "docstring": 3, "comment": 1, "blank": 1}
    lines = 0
    for path in sorted((SRC / "mvlsim").glob("*.py")):
        text = path.read_text()
        assert sum(tool.count(text).values()) == len(text.splitlines()), path.name
        lines += len(text.splitlines())
    assert tool.main([str(SRC)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == str(lines)


def test_scripts_import_names_that_exist():
    # the benchmark and the tools import these names; CI runs only some of
    # the scripts, so a name the package drops would otherwise go unnoticed
    missing = []
    for script in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]):
        for node in ast.walk(ast.parse(script.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "mvlsim"):
                module = importlib.import_module(node.module)
                missing += [f"{script.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing


def test_reference_generator_runs_the_trapezoidal_rule(monkeypatch):
    # perfbench/reference.py is the one caller of the trapezoidal rule and
    # of transient(net, analysis, opts); run_at writes nothing.  At 10 ps
    # its figures sit within 0.2% of the committed 0.5 ps reference, where
    # backward Euler's are 3% off.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        import common
        import reference
        net, wset, cost = reference.run_at("cmos32", 1e-11, "trapezoidal")
        figures = common.figures_of(net, wset)
        committed = common.reference_figures()["cmos32"]
    finally:
        for name in ("common", "reference"):
            sys.modules.pop(name, None)
    assert (cost["steps"], cost["newton_iters"]) == TRAP_WORK["cmos32"][:2]
    assert figures == pytest.approx(committed, rel=2e-3)


README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_blocks_run(block, capsys):
    # a block whose first print carries a comment shows the line it prints
    exec(compile(block, "README.md", "exec"), {})
    first_print = next(line for line in block.splitlines() if line.startswith("print("))
    shown = first_print.partition("# ")[2]
    assert not shown or capsys.readouterr().out.splitlines()[0] == shown

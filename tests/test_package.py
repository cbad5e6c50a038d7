"""Module boundaries: what importing the package loads, and the scripts
that import it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mvlsim
from mvlsim import characterize

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


def test_calibration_tool_imports(monkeypatch):
    # imported as a module, without running main, so its imports are checked
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "calibrate_presets", ROOT / "tools" / "calibrate_presets.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.run_decoder is characterize.run_decoder
    assert callable(tool.main)

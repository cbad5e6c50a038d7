"""Voltage-mode simulator for multi-valued-logic circuits.

The package bundles a small SPICE-like netlist dialect, a nonlinear
DC / transient solver built on modified nodal analysis, a square-law
FET model with two built-in technology cards, multi-valued-logic
helpers, generators for the voltage-level-converter, XOR, and
quaternary-decoder cells the simulator is meant to characterize, and the
characterization runs of the decoder (``mvlsim.characterize``).  The
command-line front end, ``mvlsim.cli``, is not imported here.
"""

from .cells import (
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
from .characterize import (
    DecoderRun,
    RunConfig,
    improvement_pct,
    resolve_tech,
    run_decoder,
    run_decoders,
)
from .devices import (
    FetModelCard,
    TechnologyCard,
    preset,
    preset_names,
)
from .engine import (
    ConvergenceError,
    RunStats,
    SingularMatrixError,
    SolveOptions,
    WaveformSet,
    dc_operating_point,
    transient,
    transient_batch,
)
from .measure import (
    MeasureError,
    MeasureReport,
    Waveform,
    fall_time,
    prop_delay,
    report_table,
    rise_time,
    supply_power,
)
from .mvl import (
    Digit,
    LevelMap,
    ideal_decode,
    quantize,
)
from .netlist import (
    DcStimulus,
    Device,
    MeasureDirective,
    Netlist,
    NetlistError,
    OperatingPoint,
    PulseStimulus,
    PwlStimulus,
    Transient,
    emit,
    parse,
    parse_value,
)

__version__ = "0.1.0"

__all__ = [
    "CellSpec",
    "ConvergenceError",
    "DcStimulus",
    "DecoderRun",
    "Device",
    "Digit",
    "FetModelCard",
    "LevelMap",
    "MeasureDirective",
    "MeasureError",
    "MeasureReport",
    "Netlist",
    "NetlistError",
    "OperatingPoint",
    "PulseStimulus",
    "PwlStimulus",
    "RunConfig",
    "RunStats",
    "SingularMatrixError",
    "SolveOptions",
    "TechnologyCard",
    "Transient",
    "Waveform",
    "WaveformSet",
    "build_decoder",
    "build_inverter",
    "build_staircase_testbench",
    "build_vlc",
    "build_xor2",
    "dc_operating_point",
    "emit",
    "fall_time",
    "ideal_decode",
    "improvement_pct",
    "parse",
    "parse_value",
    "preset",
    "preset_names",
    "prop_delay",
    "quantize",
    "report_table",
    "resolve_tech",
    "rise_time",
    "run_decoder",
    "run_decoders",
    "staircase_points",
    "staircase_sample_times",
    "supply_power",
    "transient",
    "transient_batch",
    "vlc_thresholds",
    "__version__",
]

"""Spans around the calls one mvlsim module makes into another.

``install`` replaces module attributes with timing wrappers, so that every
call the CLI makes into ``cells``, ``netlist``, ``engine``, ``mvl`` and
``measure``, and every call the engine makes into ``devices``, is recorded
without touching the package's sources.  Ordinary spans keep their own
record (name, start, end, parent, attributes).  The per-FET and
per-capacitor device calls happen hundreds of thousands of times per run,
so they only add to a call count and a total time; only the engine makes
them, so that time lies inside the engine spans.  ``layer_metrics`` turns
the records into per-layer numbers, in seconds at the reference machine
speed of ``speed.py``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

CALIBRATION_ROUNDS = 7
CALIBRATION_CALLS = 50_000

# (module, attribute, span name) of the wrapped cross-module calls
SPANNED = (
    ("mvlsim.cli", "parse", "netlist.parse"),
    ("mvlsim.cli", "build_staircase_testbench", "cells.build"),
    ("mvlsim.cli", "transient", "engine.transient"),
    ("mvlsim.cli", "dc_operating_point", "engine.dc_op"),
    ("mvlsim.cli", "quantize", "mvl.quantize"),
    ("mvlsim.cli", "rise_time", "measure.rise_time"),
    ("mvlsim.cli", "fall_time", "measure.fall_time"),
    ("mvlsim.cli", "prop_delay", "measure.prop_delay"),
    ("mvlsim.cli", "supply_power", "measure.supply_power"),
)
AGGREGATED = (
    ("mvlsim.engine", "fet_eval", "devices.fet_eval"),
    ("mvlsim.engine", "cap_companion", "devices.cap_companion"),
)
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # aggregated name -> [calls, seconds]
        self._stack: list[dict] = []

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        may add fields to the record."""
        def wrapper(*args, **kwargs):
            rec = {"name": name,
                   "parent": self._stack[-1]["id"] if self._stack else -1,
                   "id": len(self.spans)}
            self.spans.append(rec)
            self._stack.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(args, result))
            return result
        return wrapper

    def aggregated(self, name, fn):
        """Wrap ``fn`` so its calls add to a count and a total time."""
        tot = self.totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            tot[1] += perf_counter() - t0
            tot[0] += 1
            return result
        return wrapper


def aggregated_cost() -> float:
    """Normalized seconds an aggregated wrapper adds to one call: the time
    of CALIBRATION_CALLS calls of a wrapped no-op minus that of the bare
    no-op, per call, the median of CALIBRATION_ROUNDS rounds taken under
    the speed sampler."""
    import speed

    def noop(*args):
        return None

    wrapped = Tracer().aggregated("calibration", noop)
    diffs = []
    with speed.SpeedSampler() as sampler:
        start = perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop(1, 2, 3)
            t1 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped(1, 2, 3)
            diffs.append((perf_counter() - t1) - (t1 - t0))
        total = perf_counter() - start
    scale = sampler.normalize(total) / total
    return statistics.median(diffs) * scale / CALIBRATION_CALLS


def _card_of(net) -> str:
    from mvlsim import preset, preset_names
    for name in preset_names():
        if net.models.get("nfet") == preset(name).nfet:
            return name
    return "other"


def _transient_attrs(args, wset) -> dict:
    stats = wset.stats
    return {"card": _card_of(args[0]), "steps": stats.steps,
            "newton_iters": stats.newton_iterations,
            "kcl_excess_max": float(stats.kcl_excess.max())}


def install(tracer: Tracer) -> None:
    """Wrap the cross-module calls of the imported package in place.

    A call that no longer exists is skipped, so its metrics read 0."""
    import importlib

    from mvlsim.engine import WaveformSet
    for module, attr, name in SPANNED + AGGREGATED:
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):
            continue
        if (module, attr, name) in AGGREGATED:
            wrapper = tracer.aggregated(name, getattr(mod, attr))
        else:
            attrs = _transient_attrs if name == "engine.transient" else None
            wrapper = tracer.span(name, getattr(mod, attr), attrs)
        setattr(mod, attr, wrapper)
    WaveformSet.to_csv = tracer.span("engine.to_csv", WaveformSet.to_csv)


def layer_metrics(spans: list[dict], totals: dict[str, list],
                  cards: tuple[str, ...], scale: float,
                  aggregated_cost_s: float) -> dict[str, float]:
    """Per-layer totals of one traced workload run.  Host seconds are
    multiplied by ``scale``, the run's normalized over raw seconds; the
    sampler interrupts on CPU time, so its own time falls into each span
    in proportion to the span's length.  The tracing overhead is the
    aggregated calls times ``aggregated_cost_s``; the spans are too few
    (under a hundred a run) to add to it."""
    def dur(s):
        return (s["end"] - s["start"]) * scale

    def total(prefix):
        hit = [s for s in spans if s["name"].startswith(prefix)]
        return len(hit), sum(dur(s) for s in hit)

    fet_n, fet_s = totals.get("devices.fet_eval", (0, 0.0))
    cap_n, cap_s = totals.get("devices.cap_companion", (0, 0.0))
    fet_s, cap_s = fet_s * scale, cap_s * scale
    trans = [s for s in spans if s["name"] == "engine.transient"]
    _, trans_s = total("engine.transient")
    _, dc_s = total("engine.dc_op")
    steps = sum(s["steps"] for s in trans)
    iters = sum(s["newton_iters"] for s in trans)
    (root,) = [s for s in spans if s["name"] == ROOT_SPAN]
    children = sum(dur(s) for s in spans if s["parent"] == root["id"])
    out = {
        "engine.transient_s": trans_s,
        "engine.self_s": trans_s + dc_s - fet_s - cap_s,
        "engine.steps": steps,
        "engine.newton_iters": iters,
        "engine.iters_per_step": iters / steps if steps else 0.0,
        "engine.us_per_newton_iter": trans_s / iters * 1e6 if iters else 0.0,
        "engine.us_per_step": trans_s / steps * 1e6 if steps else 0.0,
        "engine.dc_op_s": dc_s,
        "engine.to_csv_s": total("engine.to_csv")[1],
        "engine.kcl_excess_max": max((s["kcl_excess_max"] for s in trans),
                                     default=0.0),
        "devices.fet_eval_calls": fet_n,
        "devices.fet_eval_s": fet_s,
        "devices.cap_companion_calls": cap_n,
        "devices.cap_companion_s": cap_s,
    }
    for card in cards:
        mine = [s for s in trans if s["card"] == card]
        out[f"engine.steps.{card}"] = sum(s["steps"] for s in mine)
        out[f"engine.newton_iters.{card}"] = sum(s["newton_iters"] for s in mine)
        out[f"engine.transient_s.{card}"] = sum(dur(s) for s in mine)
    for prefix, calls, secs in (
            ("cells.build", "cells.build_calls", "cells.build_s"),
            ("netlist.parse", "netlist.parse_calls", "netlist.parse_s"),
            ("mvl.quantize", "mvl.quantize_calls", "mvl.quantize_s"),
            ("measure.", "measure.calls", "measure.s")):
        out[calls], out[secs] = total(prefix)
    out["cli.self_s"] = dur(root) - children
    out["trace.overhead_s"] = (fet_n + cap_n) * aggregated_cost_s
    return out

"""Acceptance gate.

Eight end-to-end criteria, one test each, pins of the solver's work on
the characterization runs, on the same runs on the fixed dt grid and on
the benchmark's digit_stream netlist (the pins live in helpers.py), and
two guards: the step growth of the characterization runs leaves every
figure where the fixed grid puts it, and a finer step cap moves none of
them.  Every test prints a single verdict line
(run with ``pytest -s`` to see them) before asserting, so the printed
PASS/FAIL always matches the pytest outcome.  Tolerances are pinned here;
nothing is derived from the code under test.
"""

import dataclasses
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from mvlsim import engine
from mvlsim.cells import CellSpec, build_vlc, staircase_sample_times
from mvlsim.characterize import (
    RunConfig,
    assemble_report,
    evaluate_measures,
    improvement_pct,
    run_decoder,
)
from mvlsim.devices import FetModelCard, preset, preset_names
from mvlsim.engine import SolveOptions, dc_operating_point, transient
from mvlsim.measure import Waveform, rise_time
from mvlsim.mvl import Digit, LevelMap, ideal_decode
from mvlsim.netlist import NetlistError, Transient, emit, parse, parse_value

from helpers import (
    DIGIT_STREAM_WORK,
    FIXED_GRID_WORK,
    NEWTON_WORK,
    TRAP_WORK,
    ideal_vlc,
    square_law_alloc,
    with_dc_input,
)

RISE_WINDOW = (87.19e-12, 348.76e-12)  # 4x span centred on 174.38 ps


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def characterization():
    """One decoder staircase run per built-in technology, defaults."""
    cfg = RunConfig()
    return {
        name: run_decoder(dataclasses.replace(cfg, tech=name))
        for name in preset_names()
    }


def test_c1_vlc_dc_digit_tables():
    hits = total = 0
    for tech_name in preset_names():
        for vdd in (1.2, 3.0):
            lm = LevelMap(4, vdd)
            spec = CellSpec(tech=preset(tech_name), levels=lm)
            for i in range(3):
                net = build_vlc(i, spec)
                for x in range(4):
                    op = dc_operating_point(with_dc_input(net, lm.level(x)))
                    total += 1
                    hits += lm.digit_of(op["out"]) == ideal_vlc(i, Digit(x, 4)).value
    ok = hits == total == 48
    assert verdict(
        "C1 level-converter DC digit tables", ok,
        f"{hits}/{total} digits match the ideal pattern "
        "(both technologies, vdd 1.2 V and 3.0 V)")


def test_c2_decoder_truth_table(characterization):
    details = []
    ok = True
    for name, run in characterization.items():
        good = run.logic_ok and run.observed == [(0, 0), (0, 1), (1, 0), (1, 1)]
        ok = ok and good
        details.append(f"{name} {'4/4' if good else 'MISMATCH ' + str(run.observed)}")
    assert verdict(
        "C2 quaternary-to-binary decoder truth table", ok,
        "sampled b1b0 equals x//2,x%2 for " + "; ".join(details))


def test_c3_technology_comparison(characterization):
    cm = characterization["cmos32"].report
    gn = characterization["gnrfet32"].report
    assert cm is not None and gn is not None
    checks = {
        "avg power": gn.avg_power < cm.avg_power,
        "rise": gn.rise_time < cm.rise_time,
        "fall": gn.fall_time < cm.fall_time,
        "pdp": gn.pdp < cm.pdp,
        "rise window": RISE_WINDOW[0] <= cm.rise_time <= RISE_WINDOW[1],
    }
    pcts = [improvement_pct(getattr(cm, f), getattr(gn, f))
            for f in ("avg_power", "rise_time", "fall_time", "pdp")]
    ok = all(checks.values()) and all(0.0 < p < 100.0 for p in pcts)
    failed = [k for k, v in checks.items() if not v]
    assert verdict(
        "C3 cmos32 vs gnrfet32 figures of merit", ok,
        (f"gnrfet improves power {pcts[0]:.2f}%, rise {pcts[1]:.2f}%, "
         f"fall {pcts[2]:.2f}%, pdp {pcts[3]:.2f}%; "
         f"cmos rise {cm.rise_time * 1e12:.2f} ps in "
         f"[{RISE_WINDOW[0] * 1e12:.2f}, {RISE_WINDOW[1] * 1e12:.2f}] ps")
        + (f"; FAILED {failed}" if failed else ""))


@pytest.fixture(scope="module")
def fixed_grid(characterization):
    """The characterization runs again on the fixed dt grid."""
    out = {}
    for name, run in characterization.items():
        (tran,) = [a for a in run.net.analyses if isinstance(a, Transient)]
        out[name] = transient(run.net, dataclasses.replace(tran, dtmax=None))
    return out


def test_newton_work_pinned(characterization):
    work = {name: (run.wset.stats.steps, run.wset.stats.newton_iterations)
            for name, run in characterization.items()}
    assert verdict(
        "Newton work of the characterization runs", work == NEWTON_WORK,
        "; ".join(f"{name} {steps} steps, {iters} Newton iterations "
                  f"(pinned {NEWTON_WORK.get(name)})"
                  for name, (steps, iters) in work.items()))


def test_fixed_grid_newton_work_pinned(fixed_grid):
    work = {name: (wset.stats.steps, wset.stats.newton_iterations)
            for name, wset in fixed_grid.items()}
    assert verdict(
        "Newton work on the fixed dt grid", work == FIXED_GRID_WORK,
        "; ".join(f"{name} {steps} steps, {iters} Newton iterations "
                  f"(pinned {FIXED_GRID_WORK.get(name)})"
                  for name, (steps, iters) in work.items()))


def test_trapezoidal_newton_work_pinned(characterization):
    trap = SolveOptions(integration="trapezoidal")
    work = {}
    for name, run in characterization.items():
        stats = transient(run.net, opts=trap).stats
        work[name] = (stats.steps, stats.newton_iterations, stats.rejected_lte)
    assert verdict(
        "Newton work of the characterization runs, trapezoidal", work == TRAP_WORK,
        "; ".join(f"{name} {steps} steps, {iters} Newton iterations, {lte} "
                  f"LTE rejections (pinned {TRAP_WORK.get(name)})"
                  for name, (steps, iters, lte) in work.items()))


def test_digit_stream_newton_work_pinned(monkeypatch):
    # perfbench/digit_stream.py writes the netlist; it is imported, not run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import digit_stream
        text, _digits = digit_stream.netlist_text(digit_stream.DEFAULT_SEED)
    finally:
        for name in ("common", "digit_stream"):
            sys.modules.pop(name, None)
    stats = transient(parse(text)).stats
    work = (stats.steps, stats.newton_iterations,
            stats.rejected_lte + stats.rejected_newton)
    assert verdict(
        "Newton work of the digit_stream benchmark", work == DIGIT_STREAM_WORK,
        f"{work[0]} steps, {work[1]} Newton iterations, {work[2]} rejected steps "
        f"(pinned {DIGIT_STREAM_WORK})")


def test_step_growth_keeps_the_figures(characterization, fixed_grid):
    # the testbench lets the step grow to dtmax through each settled hold;
    # every figure must stay within 0.1% of the run on the fixed dt grid
    worst = {}
    for name, run in characterization.items():
        ref = assemble_report(name, run.net.measures,
                              evaluate_measures(run.net, fixed_grid[name]))
        for field in ("rise_time", "fall_time", "prop_delay", "avg_power",
                      "max_power", "pdp"):
            shift = abs(getattr(run.report, field) / getattr(ref, field) - 1.0)
            worst[f"{name} {field}"] = shift
    key = max(worst, key=worst.get)
    assert verdict(
        "Figures with a grown step", worst[key] <= 1e-3,
        f"worst shift from the fixed dt grid {worst[key] * 100:.4f}% ({key}) <= 0.1%")


def test_hold_cap_keeps_the_figures(characterization):
    # the step cap dtmax (hold/5) bounds how far the step grows through a
    # settled hold; a cap four times finer must leave every figure within
    # 1e-4 of the default run's
    nets = []
    for run in characterization.values():
        (tran,) = [a for a in run.net.analyses if isinstance(a, Transient)]
        fine = dataclasses.replace(tran, dtmax=tran.dtmax / 4.0)
        nets.append(dataclasses.replace(run.net, analyses=[fine]))
    worst = {}
    for (name, run), net, wset in zip(characterization.items(), nets,
                                      engine.transient_batch(nets)):
        ref = assemble_report(name, net.measures, evaluate_measures(net, wset))
        for f in dataclasses.fields(ref):
            if f.name != "technology":
                worst[f"{name} {f.name}"] = abs(
                    getattr(run.report, f.name) / getattr(ref, f.name) - 1.0)
    key = max(worst, key=worst.get)
    assert verdict(
        "Figures with the hold cap", worst[key] <= 1e-4,
        f"largest move against dtmax/4 {worst[key]:.2e} ({key}) <= 1e-4")


def test_c4_solver_accuracy(characterization):
    # (a) resistive divider: exact nodal solution
    div = parse("* divider\nv1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n.op\n.end\n")
    err_dc = abs(dc_operating_point(div)["b"] - 1.0)

    # (b) transient RC step versus the closed-form ramp response
    rc = parse("* rc\nv1 in 0 pwl(0 0 10p 1)\nr1 in out 1k\nc1 out 0 1p\n"
               ".tran 1p 3n\n.end\n")
    ws = transient(rc)
    te, tau = 10e-12, 1e-9
    exact = lambda t: 1.0 - (tau / te) * (math.e ** (te / tau) - 1.0) * math.exp(-t / tau)
    err_rc = max(abs(ws.voltage("out").value_at(t) / exact(t) - 1.0)
                 for t in (1e-9, 2e-9, 3e-9))

    # (c) every accepted decoder time point satisfies the KCL criterion
    abstol = engine._ABSTOL
    worst_kcl = max(float(run.wset.stats.kcl_excess.max())
                    for run in characterization.values())

    # (d) halving the decoder time step moves sampled outputs < 2 mV: the
    # fine run has no dtmax, so its step stays at half the floor (dt)
    # everywhere and so halves the grown steps as well
    cfg = RunConfig(hold=1e-9)
    coarse = run_decoder(cfg)
    tran = next(a for a in coarse.net.analyses if isinstance(a, Transient))
    assert tran.dt == 4e-12
    fine_tran = dataclasses.replace(tran, dt=tran.dt / 2, dtmax=None)
    fine = transient(coarse.net, fine_tran)
    sample_times = staircase_sample_times(
        LevelMap(4, cfg.vdd), hold=cfg.hold, slew=cfg.slew)
    dv = max(abs(coarse.wset.voltage(n).value_at(t) - fine.voltage(n).value_at(t))
             for n in ("b1", "b0") for t in sample_times)

    ok = err_dc <= 1e-9 and err_rc <= 0.01 and worst_kcl <= abstol and dv <= 2e-3
    assert verdict(
        "C4 solver accuracy", ok,
        f"divider |err| {err_dc:.1e} <= 1e-9; RC vs closed form {err_rc * 100:.3f}% "
        f"<= 1%; KCL excess {worst_kcl:.2e} <= {abstol:.0e}; "
        f"step-halving shift {dv * 1e3:.3f} mV <= 2 mV")


def test_c5_fet_model_fidelity(one_fet):
    card = FetModelCard("n", 0.3, 1e-4, 0.05, 0.0, 0.0)

    def law(vgs, vds):
        return square_law_alloc(card.vth, card.k, card.lam, vgs, vds)

    rng = random.Random(20260814)
    h, worst_fd = 1e-6, 0.0
    for _ in range(400):
        vgs = rng.uniform(-0.5, 1.5)
        vds = rng.uniform(-1.5, 1.5)
        if min(abs(vgs - card.vth), abs(vds), abs(vgs - card.vth - vds)) < 1e-3:
            continue
        i0, gm, gds = law(vgs, vds)
        fd_gm = (law(vgs + h, vds)[0] - law(vgs - h, vds)[0]) / (2 * h)
        fd_gds = (law(vgs, vds + h)[0] - law(vgs, vds - h)[0]) / (2 * h)
        scale = max(abs(gm), abs(gds), 1e-9)
        worst_fd = max(worst_fd, abs(fd_gm - gm) / scale, abs(fd_gds - gds) / scale)

    # continuity of i at region boundaries
    vov = 0.9 - card.vth
    jumps = [
        abs(law(0.9, vov - 1e-12)[0] - law(0.9, vov + 1e-12)[0]),
        abs(law(0.9, -1e-12)[0] - law(0.9, 1e-12)[0]),
        abs(law(card.vth - 1e-12, 0.5)[0]),
    ]

    # the engine's p device: minus the n current, the same gm and gds
    pcard = FetModelCard("p", -0.3, 1e-4, 0.05, 0.0, 0.0)
    p_fet, n_fet = one_fet(pcard), one_fet(card)
    mirror_ok = all(
        np.array_equal(p_fet(-vgs, -vds)[0], -n_fet(vgs, vds)[0])
        and np.array_equal(p_fet(-vgs, -vds)[1], n_fet(vgs, vds)[1])
        for vgs in (0.0, 0.5, 1.0, 1.25) for vds in (0.25, 0.75, 1.25))

    ok = worst_fd <= 1e-6 and max(jumps) <= 1e-10 and mirror_ok
    assert verdict(
        "C5 square-law FET model", ok,
        f"finite-difference gm/gds error {worst_fd:.2e} <= 1e-6; boundary current "
        f"jump {max(jumps):.1e} <= 1e-10; p-type mirrors n-type exactly: {mirror_ok}")


def test_c6_measurement_functions():
    t = np.linspace(0.0, 1.0, 1001)
    ramp = Waveform(t, t.copy())
    r0 = rise_time(ramp, 0.0, 1.0)
    err_ramp = abs(r0 - 0.8)

    tau = 1e-9
    tt = np.linspace(0.0, 10e-9, 20001)
    rc = Waveform(tt, 1.0 - np.exp(-tt / tau))
    err_rc = abs(rise_time(rc, 0.0, 1.0) / (math.log(9.0) * tau) - 1.0)

    shifted = rise_time(Waveform(ramp.times + 3.0, ramp.values), 0.0, 1.0)
    affine = rise_time(Waveform(t, 5.0 * t - 2.0), -2.0, 3.0)
    err_inv = max(abs(shifted - r0), abs(affine - r0))

    ok = err_ramp <= 1e-12 and err_rc <= 5e-3 and err_inv <= 1e-12
    assert verdict(
        "C6 waveform measurements", ok,
        f"unit ramp 10-90% rise err {err_ramp:.1e}; RC rise vs ln(9)*tau err "
        f"{err_rc * 100:.3f}% <= 0.5%; shift/affine invariance err {err_inv:.1e}")


def test_c7_logic_layer():
    vlc_ok = all(
        ideal_vlc(i, Digit(x, r)).value == (r - 1 if x <= i else 0)
        for r in range(2, 6) for i in range(r - 1) for x in range(r))
    # the decoder's gates on the inverted converter outputs n (mvl's
    # docstring): b1 = n2, b0 = n1 ^ n2 ^ n3
    gate_ok = True
    for x in range(4):
        n = [int(ideal_vlc(i, Digit(x, 4)).value != 3) for i in range(3)]
        gate_ok &= (n[1], n[0] ^ n[1] ^ n[2]) == ideal_decode(Digit(x, 4)) == (x // 2, x % 2)
    levels = LevelMap(4, 1.2)
    levels_ok = [levels.digit_of(levels.level(d)) for d in range(4)] == [0, 1, 2, 3]
    ok = vlc_ok and gate_ok and levels_ok
    assert verdict(
        "C7 multi-valued logic layer", ok,
        f"ideal converters radix 2-5: {vlc_ok}; gate-level decode equals "
        f"arithmetic decode: {gate_ok}; levels classify as their digits: {levels_ok}")


def test_c8_netlist_robustness():
    corpus = [
        "* divider\nv1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n.op\n.end\n",
        "* rc\nv1 in 0 pulse(0 1 1n 10p 10p 2n 5n)\nr1 in out 1k\n"
        "c1 out 0 1p\n.tran 1p 3n\n.measure tr rise v(out)\n.end\n",
        "* fets\n.model mn NFET vth=0.3 k=1e-4 lambda=0.05 cg=8e-17 cd=6e-17\n"
        ".model mp PFET vth=-0.3 k=1e-4 lambda=0.05 cg=8e-17 cd=6e-17\n"
        "vdd vdd 0 dc 1.2\nvin in 0 pwl(0 0\n+ 1n 1.2)\nmp1 out in vdd vdd mp\n"
        "mn1 out in 0 0 mn m=2\n.tran 1p 2n\n.measure d delay v(in) v(out)\n.end\n",
    ]
    gen = random.Random(11)
    for _ in range(25):
        lines = ["* generated",
                 ".model nn NFET vth=%r k=%r lambda=%r cg=%r cd=%r" % (
                     gen.uniform(0, 0.5), gen.uniform(1e-5, 1e-3),
                     gen.uniform(0, 0.1), gen.uniform(0, 1e-16),
                     gen.uniform(0, 1e-16))]
        nodes = ["0", "a", "b", "c"]
        for i in range(gen.randrange(1, 5)):
            n1, n2 = gen.sample(nodes, 2)
            lines.append(f"r{i} {n1} {n2} {gen.uniform(1, 1e6)!r}")
        lines.append("v0 a 0 dc %r" % gen.uniform(-5, 5))
        lines.append("m0 c b 0 0 nn m=%r" % gen.uniform(0.5, 4))
        lines.append(".tran 1p 1n")
        lines.append(".end")
        corpus.append("\n".join(lines))
    rt_ok = True
    for text in corpus:
        once = parse(text)
        twice = parse(emit(once))
        rt_ok = rt_ok and twice == once and emit(twice) == emit(once)

    rng = random.Random(99)
    alphabet = "vrcm.01 ()=+-\nenp*kx"
    crashes = 0
    for _ in range(10_000):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 120)))
        try:
            parse(junk)
        except NetlistError:
            pass
        except Exception:
            crashes += 1
    base = corpus[2]
    for _ in range(300):
        pos = rng.randrange(len(base))
        mutated = base[:pos] + rng.choice(alphabet) + base[pos + 1:]
        try:
            parse(mutated)
        except NetlistError:
            pass
        except Exception:
            crashes += 1

    vals_ok = (parse_value("1.1n") == 1.1 * 1e-9 and parse_value("2meg") == 2.0 * 1e6
               and parse_value("5f") == 5.0 * 1e-15 and parse_value("3k") == 3.0 * 1e3)
    ok = rt_ok and crashes == 0 and vals_ok
    assert verdict(
        "C8 netlist grammar robustness", ok,
        f"emit/parse fixed point on {len(corpus)} netlists: {rt_ok}; 10300 fuzz "
        f"inputs raised only the netlist error type ({crashes} crashes); "
        f"suffix arithmetic exact: {vals_ok}")

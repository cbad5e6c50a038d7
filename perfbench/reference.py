"""Generate the fine-step reference for the accuracy metrics.

Runs the two staircase circuits of ``mvlsim compare`` at a fixed fine step
with the trapezoidal rule, and again at half that step.  Writes the
waveforms the staircase measures read (in, b0, b1, vdd and the supply
current) of the fine-step run to ``reference/<card>.npz`` and the figures,
the halving check and the generation cost to ``reference/reference.json``.
Exits 1 if halving the step moves any figure by BOUND_PCT or more.

    python3 perfbench/reference.py

Takes several minutes on one core.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time

import numpy as np

from common import (CARDS, FIGURES, REFERENCE, figures_of, import_mvlsim,
                    load_waveforms, restrict, staircase_net)

STEP = 5e-13        # s, 1/20 of the default 10 ps step
RULE = "trapezoidal"
BOUND_PCT = 1.0     # largest move of any figure allowed when STEP halves


def run_at(card: str, step: float, rule: str):
    from mvlsim import SolveOptions, Transient, transient
    net = staircase_net(card)
    (tran,) = [a for a in net.analyses if isinstance(a, Transient)]
    t0 = time.perf_counter()
    wset = transient(net, dataclasses.replace(tran, dt=step),
                     SolveOptions(integration=rule))
    cost = {"step_s": step, "host_s": round(time.perf_counter() - t0, 2),
            "steps": wset.stats.steps,
            "newton_iters": wset.stats.newton_iterations}
    return net, wset, cost


def main() -> int:
    mvlsim = import_mvlsim()
    REFERENCE.mkdir(exist_ok=True)
    doc = {"step_s": STEP, "check_step_s": STEP / 2,
           "integration": RULE, "halving_bound_pct": BOUND_PCT,
           "host": {"python": platform.python_version(),
                    "numpy": np.__version__, "mvlsim": mvlsim.__version__,
                    "machine": platform.machine()},
           "cards": {}}
    ok = True
    for card in CARDS:
        net, fine, cost = run_at(card, STEP, RULE)
        arrays = restrict(fine)
        np.savez_compressed(REFERENCE / f"{card}.npz", **arrays)
        # score the arrays as stored, the way the benchmark reads them
        ref = figures_of(net, load_waveforms(arrays))
        _, half, half_cost = run_at(card, STEP / 2, RULE)
        check = figures_of(net, half)
        moves = {f: abs(check[f] - ref[f]) / ref[f] * 100.0 for f in FIGURES}
        ok &= all(m < BOUND_PCT for m in moves.values())
        doc["cards"][card] = {"figures": ref, "half_step_figures": check,
                              "halving_move_pct": moves,
                              "cost": [cost, half_cost]}
        print(card, json.dumps(doc["cards"][card]), flush=True)
    doc["halving_check_passed"] = ok
    (REFERENCE / "reference.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Netlist of the digit_stream workload.

The gnrfet32 decoder, driven by a PWL of random quaternary digits with
0.25 ns holds and 100 ps slews, with ``.op``, ``.tran`` and the staircase
testbench's ``.measure`` set.  The same seed always gives the same text.

    python3 perfbench/digit_stream.py [--seed N] [--out FILE]

Corner k of the PWL sits at ``k * HOLD``, never at a running sum of holds:
summing 80 holds of 0.25 ns lands the last corner about 6e-24 s before
``tstop = 80 * HOLD``, the transient then takes a final step of about
1e-23 s, and its c/h companion conductances make the matrix singular.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from common import import_mvlsim

DEFAULT_SEED = 1
CARD = "gnrfet32"
DIGITS = 80
HOLD = 2.5e-10
SLEW = 1e-10
VDD = 1.2


def draw_digits(seed: int) -> list[int]:
    """Random digits with a fixed mix of steps between them.

    The digits are the first DIGITS of a random closed walk that takes each
    of the 16 digit-to-digit steps (staying put included) DIGITS/16 times.
    The work per step depends mostly on which step it is, so fixing the mix
    keeps the cost of the run nearly the same for every seed, while the
    order, and so the state each step starts from, changes with the seed.

    ``prop_delay`` pairs each crossing of the input's midpoint with a later
    b0/b1 crossing, and rise/fall need a full edge of each output.  A walk
    that would leave one undefined is discarded; the next walk drawn from
    the same generator replaces it.
    """
    rng = random.Random(seed)
    while True:
        digits = _closed_walk(rng)[:DIGITS]
        if _measurable(digits):
            return digits


def _closed_walk(rng: random.Random) -> list[int]:
    """Hierholzer's algorithm over shuffled out-edges: an Euler circuit of
    the 4-digit multigraph with every ordered pair DIGITS/16 times."""
    out = {}
    for d in range(4):
        out[d] = [e for e in range(4) for _ in range(DIGITS // 16)]
        rng.shuffle(out[d])
    stack, walk = [rng.randrange(4)], []
    while stack:
        if out[stack[-1]]:
            stack.append(out[stack[-1]].pop())
        else:
            walk.append(stack.pop())
    return walk[::-1]


def _measurable(digits: list[int]) -> bool:
    b1 = [d // 2 for d in digits]
    b0 = [d % 2 for d in digits]
    for bits in (b0, b1):
        steps = list(zip(bits, bits[1:]))
        if (0, 1) not in steps or (1, 0) not in steps:
            return False
    last_b0 = max(k for k in range(1, DIGITS) if b0[k] != b0[k - 1])
    last_in = max(k for k in range(1, DIGITS) if b1[k] != b1[k - 1])
    return last_b0 >= last_in


def pwl_points(digits: list[int], levels) -> tuple[tuple[float, float], ...]:
    pts = [(0.0, levels.level(digits[0]))]
    for k in range(1, len(digits)):
        pts.append((k * HOLD, levels.level(digits[k - 1])))
        pts.append((k * HOLD + SLEW, levels.level(digits[k])))
    pts.append((len(digits) * HOLD, levels.level(digits[-1])))
    return tuple(pts)


def sample_times(n: int) -> list[float]:
    """One settled sample per digit, 90% of the way through its flat part."""
    return [0.9 * HOLD] + [k * HOLD + SLEW + 0.9 * (HOLD - SLEW)
                           for k in range(1, n)]


def netlist_text(seed: int) -> tuple[str, list[int]]:
    import_mvlsim()
    from mvlsim import CellSpec, LevelMap, OperatingPoint, PwlStimulus, Transient
    from mvlsim import build_staircase_testbench, emit, preset
    digits = draw_digits(seed)
    levels = LevelMap(4, VDD)
    net = build_staircase_testbench(CellSpec(tech=preset(CARD), levels=levels),
                                    hold=HOLD, slew=SLEW)
    tstop = DIGITS * HOLD
    net.title = f"quaternary decoder ({CARD}), {DIGITS}-digit stream, seed {seed}"
    net.devices = [dataclasses.replace(d, stimulus=PwlStimulus(pwl_points(digits, levels)))
                   if d.name == "vin" else d for d in net.devices]
    # the step rule build_staircase_testbench uses
    net.analyses = [OperatingPoint(),
                    Transient(dt=min(tstop / 1000.0, SLEW / 10.0), tstop=tstop)]
    net.validate()
    return emit(net), digits


def main() -> int:
    ap = argparse.ArgumentParser(description="write the digit_stream netlist")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None, help="file (default stdout)")
    args = ap.parse_args()
    text, _ = netlist_text(args.seed)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Write the artifacts whose bytes CI compares, running mvlsim from the
# sources under SRC, into the directory OUT:
#
#     tools/ci_artifacts.sh SRC OUT
#
# OUT/in gets four netlists: a PULSE into an RC (a PULSE reaches the
# engine as its PWL corners), an .op-only divider whose node x floats at DC
# (the DC solve alone: a singular plain solve, then gmin stepping) and the
# benchmark's seed-1 and seed-7 digit streams (160-corner PWL inputs, written
# by this checkout's perfbench/digit_stream.py).  Then each run writes its
# files to OUT/<name> and its stdout to OUT/<name>.stdout: compare, the
# README load sweep, a hold sweep (its members stop at 4, 8 and 12 ns, so
# the batch narrows at three rounds), a vth_scale sweep, the gnrfet32
# decoder in its json and csv formats, the gnrfet32 testbench netlist
# (written to OUT/in, its stdout to OUT/in.stdout) and run of each netlist.
# Every run is made; a run that exits non-zero is named on stderr, and the
# script then exits 1.
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$1
out=$2
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out/in"
printf '%s\n' '* pulse into an rc' 'v1 in 0 pulse(0 1.2 0.3n 50p 80p 1n 2.2n)' \
    'r1 in out 1k' 'c1 out 0 1p' '.tran 10p 5.35n 100p' \
    '.measure tr rise v(out)' '.end' > "$out/in/pulse.cir"
printf '%s\n' '* divider, x floats at dc' 'v1 in 0 dc 2' 'r1 in mid 1k' \
    'r2 mid 0 3k' 'c1 mid x 1p' 'c2 x 0 1p' '.op' '.end' > "$out/in/op.cir"
python3 "$root/perfbench/digit_stream.py" --out "$out/in/stream.sp" || exit 1
python3 "$root/perfbench/digit_stream.py" --seed 7 --out "$out/in/stream7.sp" || exit 1

status=0
artifact() {  # artifact NAME ARGS...: mvlsim ARGS --out OUT/NAME > OUT/NAME.stdout
    local name=$1
    shift
    PYTHONPATH="$src" python3 -m mvlsim.cli "$@" --out "$out/$name" > "$out/$name.stdout"
    local code=$?
    if [ $code -ne 0 ]; then
        echo "$name: exit $code" >&2
        status=1
    fi
}
artifact compare compare --format table --format json
artifact sweep sweep --param load --start 1e-15 --stop 5e-15 --count 5
artifact hold sweep --param hold --start 1e-9 --stop 3e-9 --count 3
artifact vth sweep --param vth_scale --start 0.9 --stop 1.1 --count 3
artifact decoder decoder --tech gnrfet32 --format json --format csv
artifact in cell testbench --tech gnrfet32
artifact testbench run "$out/in/testbench_gnrfet32.sp"
artifact pulse run "$out/in/pulse.cir"
artifact op run "$out/in/op.cir"
artifact stream run "$out/in/stream.sp"
artifact stream7 run "$out/in/stream7.sp"
exit $status

#!/bin/sh
# Write the canned runs of the nltraffic commands into OUT, one directory per
# run, using the source tree this script sits in.  Two checkouts give
# byte-identical trees when their results agree:
#
#     tools/canned.sh A; (other checkout)/tools/canned.sh B
#     diff -r -I '^wall_time_s' A B
#
# Where results move by roundoff, tools/cmpcanned.py A B prints the largest
# deviation of each CSV and exits 1 only on a structural difference.
#
# Usage: tools/canned.sh OUT
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

nl() {
    PYTHONPATH="$root/src" python3 -m nltraffic.cli "$@"
}

nl simulate --dyadic-j 4 --tau 0.1,0.3 --out "$out/simulate-blowup" >/dev/null
nl simulate --datum step --scheme lax-friedrichs --dyadic-j 3 --tau 0.1,0.17 \
    --out "$out/simulate-step-lxf" >/dev/null
nl simulate --datum riemann:1,0 --scheme godunov-local --out "$out/simulate-riemann-local" >/dev/null
# the local limit of the blowup datum, whose vacuum and jam tails both hold still
nl simulate --scheme godunov-local --tau 0.1,0.3 --out "$out/simulate-blowup-local" >/dev/null
nl simulate --datum riemann:0.2,0.8 --dyadic-j 4 --tau 0.1 --out "$out/simulate-riemann" >/dev/null
# vacuum tail only, jam tail only, and tails that meet so nothing moves
nl simulate --datum riemann:0,0.5 --dyadic-j 4 --tau 0.1 --out "$out/simulate-riemann-vacuum" >/dev/null
nl simulate --datum riemann:0.5,1 --dyadic-j 4 --tau 0.1 --out "$out/simulate-riemann-jam" >/dev/null
nl simulate --datum riemann:0,1 --dyadic-j 4 --tau 0.1 --out "$out/simulate-riemann-still" >/dev/null

starts=-0.75,-0.5,-0.25,-0.1,-0.05
nl characteristics --dyadic-j 4 --start=$starts --out "$out/characteristics" >/dev/null
nl characteristics --dyadic-j 4 --start=$starts --t-final 0.3 \
    --out "$out/characteristics-t0.3" >/dev/null
nl characteristics --dyadic-j 4 --start=$starts --t-final 0.2 \
    --out "$out/characteristics-t0.2" >/dev/null
# the same paths through a run whose snapshots fall inside the trace
nl characteristics --dyadic-j 4 --start=$starts --tau 0.1,0.3 \
    --out "$out/characteristics-taus" >/dev/null
# paths that leave the grid at x = 1, and Lax-Friedrichs paths through a run to 0.33
nl characteristics --datum riemann:0.2,0.8 --dyadic-j 4 --start=-1.5,0.5,0.99,1.0 \
    --out "$out/characteristics-riemann" >/dev/null
nl characteristics --datum step --scheme lax-friedrichs --dyadic-j 3 \
    --start=-1.5,-0.5,0,0.9 --t-final 0.33 --out "$out/characteristics-step-lxf" >/dev/null
# sixteen starts from -1.5 to 0, traced as one batch
many=-1.5,-1.4,-1.3,-1.2,-1.1,-1,-0.9,-0.8,-0.7,-0.6,-0.5,-0.4,-0.3,-0.2,-0.1,0
nl characteristics --dyadic-j 4 --start=$many --t-final 0.25 \
    --out "$out/characteristics-16" >/dev/null

nl sweep --tau 0.1,0.2 --j 2,3,4,5,6,7 --out "$out/sweep" >"$out/sweep.txt"
nl sweep --tau 0,0.05,0.1,0.2 --j 5,6 --out "$out/sweep-taus" >"$out/sweep-taus.txt"
nl mechanism --out "$out/mechanism" >"$out/mechanism.txt"
# a second platoon, whose growth rate is read on another grid
nl mechanism --h 0.05 --epsilon 0.2 --tau 0.05 --out "$out/mechanism-narrow" \
    >"$out/mechanism-narrow.txt"
nl bounds --tau 0.1,0.2,0.4 --dyadic-j 4 --out "$out/bounds" >"$out/bounds.txt"
nl verify >"$out/verify.txt"

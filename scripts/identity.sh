#!/usr/bin/env bash
# identity.sh EXP [flags...] — prove one morpheusbench experiment's
# artifacts do not depend on the worker count.
#
# Builds morpheusbench once, runs `-exp EXP flags...` at -parallel 1 and
# -parallel 8, and writes, for each worker count N,
#
#   table_pN.txt  metrics_pN.json  series_pN.json  trace_pN.json
#
# into $OUT (default ./identity-EXP). It then cmps the four pairs and
# prints the four SHA-256s. A flag set without -metrics-window gets
# -metrics-window 100us, so every run writes a series.
#
#   scripts/identity.sh apps -scale 0.01 -batch-depth 16
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 EXP [flags...]" >&2
	exit 2
fi
exp=$1
shift

bench=("$@") window=no
for a in "$@"; do
	case $a in -metrics-window | -metrics-window=*) window=yes ;; esac
done
if [ $window = no ]; then
	bench+=(-metrics-window 100us)
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
out=${OUT:-identity-$exp}
mkdir -p "$out"
out=$(cd "$out" && pwd)

(cd "$repo" && go build -o "$out/morpheusbench" ./cmd/morpheusbench)

for n in 1 8; do
	"$out/morpheusbench" -exp "$exp" "${bench[@]}" -parallel "$n" \
		-metrics-out "$out/metrics_p$n.json" \
		-timeseries-out "$out/series_p$n.json" \
		-trace-out "$out/trace_p$n.json" >"$out/table_p$n.txt"
done

for a in table metrics series trace; do
	ext=json
	[ $a = table ] && ext=txt
	cmp "$out/${a}_p1.$ext" "$out/${a}_p8.$ext"
done

cd "$out"
sha256sum table_p1.txt metrics_p1.json series_p1.json trace_p1.json

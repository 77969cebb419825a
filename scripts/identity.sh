#!/usr/bin/env bash
# identity.sh EXP [flags...] — prove one morpheusbench experiment's
# artifacts do not depend on the worker count.
#
# Builds morpheusbench and morpheuscheck once, runs `-exp EXP flags...`
# at -parallel 1 and -parallel 8, and writes, for each worker count N,
#
#   table_pN.txt  metrics_pN.json  series_pN.json  trace_pN.json
#
# into $OUT (default ./identity-EXP). It then cmps the four pairs, gates
# the metrics pair with morpheuscheck, and prints the four SHA-256s.
# `-rule VALUE` and `-default-tol VALUE` arguments go to morpheuscheck,
# everything else to morpheusbench. A flag set without -metrics-window
# gets -metrics-window 100us, so every run writes a series.
#
#   scripts/identity.sh fig8 -scale 0.01 -batch-depth 16
#   scripts/identity.sh serve -scale 0.01 -rule 'histograms.host.submit.overhead_ps.*:0.05:up'
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 EXP [flags...]" >&2
	exit 2
fi
exp=$1
shift

bench=() check=() window=no
while [ $# -gt 0 ]; do
	case $1 in
	-rule | -default-tol)
		check+=("$1" "$2")
		shift 2
		;;
	*)
		case $1 in -metrics-window | -metrics-window=*) window=yes ;; esac
		bench+=("$1")
		shift
		;;
	esac
done
if [ $window = no ]; then
	bench+=(-metrics-window 100us)
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
out=${OUT:-identity-$exp}
mkdir -p "$out"
out=$(cd "$out" && pwd)

(cd "$repo" && go build -o "$out/morpheusbench" ./cmd/morpheusbench &&
	go build -o "$out/morpheuscheck" ./cmd/morpheuscheck)

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
"$out/morpheuscheck" -q "${check[@]}" "$out/metrics_p1.json" "$out/metrics_p8.json"

cd "$out"
sha256sum table_p1.txt metrics_p1.json series_p1.json trace_p1.json

#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the Go build cache,
# temporary files and, with --trace 1, the spans and CPU profiles all stay
# under .bench_build/ there. The last line of output is the one-line
# summary bench/README.md describes.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters here
# too, instead of under $HOME.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/morpheus-bench" .

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | --seed | --seconds)
		args+=("-${1#--}" "$2")
		shift 2
		;;
	--trace)
		if [ "$2" = 1 ]; then
			args+=(-trace "$out/trace")
		fi
		shift 2
		;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
done
exec "$out/morpheus-bench" "${args[@]}"

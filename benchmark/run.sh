#!/usr/bin/env bash
# Builds the benchmark from source and runs it. With --workload it is
# the command of BENCHMARK.json: one workload, one seed, one result line.
# Without, it runs every workload with tracing off and then on, one
# process each so that heap and peak RSS cannot leak between them:
#   bash benchmark/run.sh --seed 1 --out a.json
#   bash benchmark/run.sh -compare a.json b.json
# Everything the build leaves behind stays in .bench_build at the root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# The go command keeps its cache and its telemetry counters under these.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C benchmark -buildvcs=false -o "$build/eplace-benchmark" .

case " $* " in
*" -workload "* | *" --workload "* | *" -compare "* | *" --compare "* | *" -h "* | *" --help "*)
	exec "$build/eplace-benchmark" "$@"
	;;
esac
status=0
for workload in flat_std_5k ml_std_20k mixed_mms_4k eco_warm_5k; do
	for trace in 0 1; do
		"$build/eplace-benchmark" --workload "$workload" --trace "$trace" "$@" || status=1
	done
done
exit "$status"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload fig5|soc|campaign --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

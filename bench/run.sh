#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (bench/e2e) against the tree
# this script sits in. Every build product, Go cache and scratch file
# goes under .bench_build/ at the repository root; nothing is downloaded.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|FILE]
#
# Flags pass through to the harness; see bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The harness imports the repository's packages through the replace
# directive in bench/go.mod, so it fails to build where the tree is absent.
(cd "$root/bench" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" -root "$root" "$@"

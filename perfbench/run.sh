#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload wire_get --seed 1 --seconds 60 --trace 0
#
# Every build artefact (Go build cache, binary) stays under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec timeout -k 5 170 "$out/perfbench" "$@"

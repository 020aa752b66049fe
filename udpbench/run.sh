#!/usr/bin/env bash
# Builds udpbench from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash udpbench/run.sh --workload fig13-frontend --seed 0 --seconds 20 --trace 0
#   bash udpbench/run.sh steady --workload daemon-mixed --runs 5
#
# Everything the build and the run write stays in the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the binary, the Go build
# cache and configuration, scratch stores and the traced run's CPU
# profile.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export CARGO_TARGET_DIR=$out

(cd "$root/udpbench" && go build -o "$out/udpbench" .)
exec "$out/udpbench" "$@"

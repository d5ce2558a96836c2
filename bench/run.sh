#!/usr/bin/env bash
# Builds the clusterq benchmark from source and runs it. Run it from the
# repository root, e.g.
#
#   bash bench/run.sh -workload validate -seed 1
#   bash bench/run.sh -workload autoscale -seed 1 -trace 1
#   bash bench/run.sh compare a1.out a2.out -- b1.out b2.out
#
# Everything the go command writes — build cache, module cache, its config
# and telemetry — goes to .bench_build/ under the current directory, the
# toolchain is pinned to the local one and the module proxy is off, so a run
# never touches the network or files outside the tree.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/clusterqbench" ./cmd/clusterqbench
exec "$out/clusterqbench" "$@"

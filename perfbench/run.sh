#!/usr/bin/env bash
# Builds the benchmark program and cmd/ftserve from source, then runs the
# program on one CPU; every argument passes through. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload route-small --seed 1 --seconds 40 --trace 0
#
# Every build artifact, cache and trace file stays under .bench_build/ in the
# current directory, so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/ftserve" ./cmd/ftserve

# The client, ftserve or the sim-implicit child, and every thread of each
# share one CPU, the last this shell may use (the first is the likeliest to
# take the machine's interrupts); each Go runtime sizes GOMAXPROCS to it.
# On a two-vCPU virtual machine a request ping-ponging between two vCPUs
# paid the hypervisor's wake-up of an idle vCPU twice per request, and that
# cost followed the host's load: route-small moved 4300-5900 requests/s
# between sessions of one run, against 5900-6900/s on one CPU.
cpus=$(taskset -pc $$)
cpu=${cpus##*[ ,-]}
exec taskset -c "$cpu" "$out/perfbench" -out "$out" "$@"

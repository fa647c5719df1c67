#!/usr/bin/env bash
# Sample where host time goes on one benchmark workload:
#
#   bash scripts/profile.sh quick_figs          # 20 s run
#   bash scripts/profile.sh paper_scale 30
#
# Builds the benchmark offline, runs
# `agp-benchmark --workload WORKLOAD --trace 0 --seconds SECONDS` under
# gprofng clock profiling (`gprofng collect app -p hi`) with the
# allocator settings of simbench/run.sh, then prints the 30 functions
# with the most exclusive time, the call tree and the 30 hottest source
# lines, which split a function's samples among the code inlined into
# it. A run yields a few hundred samples, so compare shares between
# runs, not seconds. The experiment directory is kept (its path is
# printed last) for further `gprofng display text` queries. The build's
# additions to simbench/Cargo.lock are undone on exit.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 WORKLOAD [SECONDS]" >&2
    exit 2
fi
workload="$1"
seconds="${2:-20}"

if ! command -v gprofng > /dev/null; then
    echo "profile.sh: gprofng not found; it ships with GNU binutils 2.39 or later" >&2
    exit 1
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# The build appends `[[patch.unused]]` tables to simbench's tracked lock
# file (its crates.io stand-ins are unused); put the file back on exit.
lock="$(mktemp)"
cp "$root/simbench/Cargo.lock" "$lock"
trap 'cp "$lock" "$root/simbench/Cargo.lock"; rm -f "$lock"' EXIT
cargo build --release --offline --quiet --manifest-path "$root/simbench/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$root/simbench/target}/release/agp-benchmark"

exp="$(mktemp -d "${TMPDIR:-/tmp}/agp-profile.XXXXXX")/$workload.er"
# Same allocator tunables as simbench/run.sh: freed memory stays in the
# process, as in the measured runs.
GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296 \
    gprofng collect app -p hi -o "$exp" \
    "$bin" --workload "$workload" --trace 0 --seconds "$seconds" > /dev/null

gprofng display text -limit 30 -metrics e.%totalcpu:i.%totalcpu:name \
    -sort e.%totalcpu -functions "$exp"
gprofng display text -metrics i.%totalcpu:name -calltree "$exp"
gprofng display text -limit 30 -metrics e.%totalcpu:name \
    -sort e.%totalcpu -lines "$exp"
echo "experiment: $exp"

#!/usr/bin/env bash
# Tier-1 gate: everything CI (and a reviewer) requires before merge.
# Run from the workspace root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Building simbench appends `[[patch.unused]]` tables to its tracked
# Cargo.lock (its crates.io stand-ins are unused): put the file back on
# exit, so a gate run leaves the tree as it found it.
lock="$(mktemp)"
cp simbench/Cargo.lock "$lock"
trap 'cp "$lock" simbench/Cargo.lock; rm -f "$lock"' EXIT

# Benchmark digest gate, the quickest byte-identity check, so it runs
# first: one pass of every workload must reproduce its golden digest
# ("correct":true). Each workload's result line goes to the log, so every
# run shows its peak_rss_mib and setup_s.
cargo test --offline --manifest-path simbench/Cargo.toml
for w in quick_figs paper_scale global_lru resident; do
  line="$(bash simbench/run.sh --workload "$w" --seconds 1 --trace 0 | tail -n 1)"
  echo "$line"
  if ! grep -qF '"correct":true' <<< "$line"; then
    echo "check.sh: simbench workload $w does not reproduce its digest" >&2
    exit 1
  fi
done

cargo build --release
# Zero registry dependencies: every package in the lock file is a path
# package, so the gate builds with no network. A `source =` line means a
# crates.io or git dependency crept in.
if grep -n '^source = ' Cargo.lock; then
  echo "check.sh: Cargo.lock names a registry or git package" >&2
  exit 1
fi
cargo test -q
cargo fmt --check
# Lints every workspace crate, binaries included, against the root
# clippy.toml and [workspace.lints]: hash containers, the host clock, host
# entropy, thread-local and interior-mutable state, panics in library
# code and unsafe code (DESIGN.md §8).
cargo clippy --workspace -- -D warnings
# Tests and examples too, without -D warnings: their
# unwrap/expect warnings stay warnings, and deny-level lints (an
# always-true comparison, say) fail the gate.
cargo clippy --workspace --all-targets
# Rustdoc with warnings denied: a doc link to an item that was renamed or
# deleted, or a public doc linking a private item, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The rules must stay able to fire: the hazard fixture seeds one site per
# hazard class, and clippy must reject exactly the marked lines.
bash tests/hazards/check.sh
# Parity gate + wall-clock regression gate: fails when an experiment runs
# past the band of the committed BENCH_agp.json baseline. After a real
# speedup (or on a new reference machine), refresh the baseline by
# committing the rewritten BENCH_agp.json from a quiet run; to refresh
# the parity golden itself, rerun with --update-golden (which also skips
# the wall gate for that run).
cargo run --release -p agp-cli -- report --check
# BENCH_agp.json must stay on bench schema v2 (run metadata + per-span
# host-time aggregates). The report step above regenerates it, so drift
# here means the writer and the committed shape disagree.
grep -q '"schema_version": 2' BENCH_agp.json
# Not just the key: the spans object must carry real per-span cells. A
# bare `"spans": {}` (what a stale or profiler-bypassing writer emits)
# has the opening brace but no aggregates, so pin a cell field too.
grep -q '"spans": {' BENCH_agp.json
grep -q '"total_ns":' BENCH_agp.json
grep -q '"self_ns":' BENCH_agp.json
# Fan-out determinism gate: the registry sharded over 2 workers must
# produce a byte-identical parity manifest. The sharded pass records its
# sweep wall under registry.jobs2 next to the serial pass's
# registry.jobs1, and --check holds both to the same one-sided
# wall-clock band as every per-experiment row.
cargo run --release -p agp-cli -- report --check --jobs 2 --out report.jobs2.json
diff report.json report.jobs2.json
grep -q '"registry.jobs1"' BENCH_agp.json
grep -q '"registry.jobs2"' BENCH_agp.json
# Self-profiler smoke: span table, JSON profile, flamegraph export.
cargo run --release -p agp-cli -- perf fig6 \
  --json perf.json --collapsed perf.collapsed
cargo run --release -p agp-cli -- explain fig9 --policy so --against orig \
  --json explain.json --bench-out BENCH_agp.json
cargo run --release -p agp-cli -- chaos --plan plans/smoke.json --verify \
  --check-invariants --events chaos.jsonl --bench-out BENCH_agp.json
# Flight-recorder transparency: arming the black box on a fault-free run
# must not perturb the simulation — the event stream stays byte-identical
# to the unarmed baseline, and a clean run writes no incident dump.
rm -f clean-incident.json incident.json
cargo run --release -p agp-cli -- chaos --plan plans/smoke.json \
  --check-invariants --flight-recorder --incident-out clean-incident.json \
  --events chaos.armed.jsonl
diff chaos.jsonl chaos.armed.jsonl
test ! -e clean-incident.json
# Incident pipeline smoke: the committed trip plan exhausts I/O recovery,
# the watchdog freezes the ring, the run fails (so the unnegated exit is
# asserted), the dump lands at --incident-out, and `agp postmortem`
# renders it — the JSON report is uploaded by CI as an artifact.
if cargo run --release -p agp-cli -- chaos --plan plans/trip.json \
  --flight-recorder --incident-out incident.json; then
  echo "trip plan must abort the run" >&2; exit 1
fi
test -s incident.json
cargo run --release -p agp-cli -- postmortem incident.json --json postmortem.json
grep -q '"kind": "postmortem"' postmortem.json
grep -q '"rule": "recovery_exhausted"' postmortem.json
# Chaos fuzzing smoke: a fixed-seed, small-budget fuzz pass must (a) find
# the known seed-42 hang and exit 2, (b) be byte-deterministic — a second
# same-seed pass writes an identical findings manifest (same digest) —
# and (c) the committed regression corpus must replay with every pinned
# verdict intact. Findings and their postmortems are uploaded by CI.
rm -rf findings.fuzz findings.fuzz2
set +e
cargo run --release -p agp-cli -- chaos --fuzz --seed 42 --iters 4 \
  --findings findings.fuzz --bench-out BENCH_agp.json
fuzz_code=$?
set -e
test "$fuzz_code" -eq 2
set +e
cargo run --release -p agp-cli -- chaos --fuzz --seed 42 --iters 4 \
  --findings findings.fuzz2 > /dev/null 2>&1
set -e
diff findings.fuzz/findings.json findings.fuzz2/findings.json
grep -q '"verdict":"hang"' findings.fuzz/findings.json
cargo run --release -p agp-cli -- chaos --replay-corpus plans/corpus

#!/usr/bin/env bash
# Compare two revisions on the benchmark workloads in alternating pairs
# on one host:
#
#   bash scripts/abpairs.sh HEAD~1 .                        # every workload, 5 pairs of 6 s runs
#   bash scripts/abpairs.sh -n 8 -s 6 main . global_lru     # one workload, 8 pairs
#   bash scripts/abpairs.sh -S 7 HEAD . resident             # both sides at seed 7
#   bash scripts/abpairs.sh -p 1 HEAD . resident             # both sides pinned to CPU 1
#
# REV_A and REV_B are git revisions; `.` is the working tree (tracked
# and untracked files that git does not ignore). Each side is copied into
# its own temporary directory and its simbench is built offline with its
# own CARGO_TARGET_DIR, so each binary checks its own golden digests.
# Every round runs each workload once per side through that side's
# `simbench/run.sh --workload W --trace 0 --seconds SECONDS`, A first in
# odd rounds and B first in even ones; with `-S SEED` both sides also get
# `--seed SEED` (a claim should hold at a seed it was not tuned on). With
# `-p CPU` both sides run under `taskset -c CPU`, so that neither moves
# between CPUs mid-run: on a small shared host unpinned runs can fall into
# two speed modes, which hides a change inside the spread between them.
# The summary gives, per workload
# and end-to-end metric of BENCHMARK.json, the median and minimum of
# each side, the distance between A's quartiles, B/A of the medians, and
# in how many pairs B was better.
# Exits 1 if any run reports "correct":false. Needs git and jq.
set -euo pipefail

usage() {
    echo "usage: $0 [-n ROUNDS] [-s SECONDS] [-S SEED] [-p CPU] REV_A REV_B [WORKLOAD...]" >&2
    exit 2
}

rounds=5
seconds=6
seed_args=()
pin=()
while getopts "n:s:S:p:" opt; do
    case "$opt" in
        n) rounds="$OPTARG" ;;
        s) seconds="$OPTARG" ;;
        S) seed_args=(--seed "$OPTARG") ;;
        p) pin=(taskset -c "$OPTARG") ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[[ $# -ge 2 ]] || usage
revs=("$1" "$2")
shift 2

if ! command -v jq > /dev/null; then
    echo "abpairs.sh: jq not found" >&2
    exit 1
fi
if [[ ${#pin[@]} -gt 0 ]] && ! command -v taskset > /dev/null; then
    echo "abpairs.sh: -p needs taskset" >&2
    exit 1
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/agp-abpairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# Copy revision $1 into directory $2.
checkout() {
    mkdir -p "$2"
    if [[ "$1" == "." ]]; then
        (cd "$root" && git ls-files -z --cached --others --exclude-standard) \
            | while IFS= read -r -d '' f; do
                # A tracked file deleted in the working tree is not copied.
                if [[ -e "$root/$f" ]]; then printf '%s\0' "$f"; fi
            done \
            | tar -C "$root" --null -T - -cf - | tar -C "$2" -xf -
    else
        git -C "$root" archive "$1" | tar -C "$2" -xf -
    fi
}

names=(A B)
for side in 0 1; do
    echo "abpairs.sh: building ${names[$side]} = ${revs[$side]}" >&2
    checkout "${revs[$side]}" "$tmp/$side/src"
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/src/simbench/Cargo.toml"
done

failed=0
wall=()
# Run workload $2 on side $1, append its result line to its log and keep
# its wall_s in wall[$1].
run() {
    local line
    line="$(CARGO_TARGET_DIR="$tmp/$1/target" \
        "${pin[@]}" bash "$tmp/$1/src/simbench/run.sh" --workload "$2" --trace 0 \
        --seconds "$seconds" "${seed_args[@]}" | tail -n 1)"
    echo "$line" >> "$tmp/$1.$2.jsonl"
    if ! jq -e '.correct == true' <<< "$line" > /dev/null; then
        echo "abpairs.sh: ${revs[$1]} $2: \"correct\" is not true" >&2
        failed=1
    fi
    wall[$1]="$(jq -r '.metrics.wall_s.value' <<< "$line")"
}

for ((r = 1; r <= rounds; r++)); do
    for w in "${workloads[@]}"; do
        if ((r % 2)); then
            run 0 "$w"
            run 1 "$w"
        else
            run 1 "$w"
            run 0 "$w"
        fi
        printf 'round %d/%d %-12s wall_s A %.4f B %.4f\n' \
            "$r" "$rounds" "$w" "${wall[0]}" "${wall[1]}" >&2
    done
done

echo "A = ${revs[0]}, B = ${revs[1]}: $rounds alternating pairs of $seconds s runs ${seed_args[*]} ${pin[*]}"
printf '%-12s %-17s %11s %11s %11s %11s %11s %7s %6s\n' \
    workload metric A_median A_min A_IQR B_median B_min B/A B_wins
for w in "${workloads[@]}"; do
    jq -n -r --arg w "$w" \
        --slurpfile a "$tmp/0.$w.jsonl" --slurpfile b "$tmp/1.$w.jsonl" \
        --slurpfile bench "$root/BENCHMARK.json" '
        # Linear interpolation between the closest ranks.
        def quantile($q): sort as $s | ((($s | length) - 1) * $q) as $i
            | ($i | floor) as $lo | ([$lo + 1, ($s | length) - 1] | min) as $hi
            | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
        def median: quantile(0.5);
        $bench[0].end_to_end[]
        | .name as $m | .better as $better
        | [$a[].metrics[$m].value] as $va
        | [$b[].metrics[$m].value] as $vb
        | select($va | all(. != null))
        | [range($va | length)
            | select(if $better == "lower" then $vb[.] < $va[.] else $vb[.] > $va[.] end)]
            as $wins
        | [$w, $m, ($va | median), ($va | min), ($va | quantile(0.75) - quantile(0.25)),
            ($vb | median), ($vb | min), (($vb | median) / ($va | median)),
            "\($wins | length)/\($va | length)"]
        | @tsv' \
        | awk -F'\t' '{ printf "%-12s %-17s %11.5g %11.5g %11.5g %11.5g %11.5g %7.3f %6s\n",
            $1, $2, $3, $4, $5, $6, $7, $8, $9 }'
done
exit "$failed"

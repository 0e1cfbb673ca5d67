#!/usr/bin/env bash
# Alternated A/B pairs of the benchmark: two revisions, one session.
#
# Snapshots A and B (git revisions or directories) under an output
# directory, builds each one's own `bench/` unedited with its own
# CARGO_TARGET_DIR, and runs the benchmark driver in ABBA order (pair 1
# runs A then B, pair 2 B then A, ...). Every run's stdout is kept as
# RUNS/A-<pair>.out and RUNS/B-<pair>.out. Then, for each metric of
# BENCHMARK.json the result lines report (the end-to-end ones; under
# --trace 1, the per-layer ones), it prints A's and B's medians, how many pairs
# B wins, A's interquartile range, the per-pair ratios B/A, and the same
# figures over the pairs whose two runs saw the host in one speed state
# (read from the driver's `host speed X of the reference` line; a run is
# "fast" within 10% of the session's fastest run, else "slow").
#
# A verdict is "better" or "worse" only when the gap between the medians
# exceeds A's interquartile range and B wins (or loses) at least 9 in 10
# of the pairs; anything else is "no change". `--claim METRIC:+X%` (or
# `-X%`) is met when METRIC reads "better" and B's median moved by at
# least X% in that direction.
#
# Usage:
#   scripts/ab.sh A B --workload W --pairs N [--seed S]... [--trace 0|1]
#                 [--claim METRIC:+X%] [--out DIR]
#   scripts/ab.sh --from-dir RUNS [--claim METRIC:+X%]
#
# --seed may repeat: pair i runs the (i mod count)-th seed (default 7).
# Every run lasts A's BENCHMARK.json `run_seconds`.
# --out keeps the runs there (default: a fresh directory under $TMPDIR);
# the checkouts and builds under it are removed on exit. --from-dir
# skips the builds and the runs and reads RUNS as written above
# (BENCHMARK.json there if present, else this repository's).
#
# Exit status: 0; 1 when a --claim is not met; 2 on a usage error; 3
# when a build or a run fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)

usage() {
    sed -n '/^# Usage:/,/^# Exit status/p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

sides=() seeds=() workload="" pairs="" trace=0 claim="" out="" from=""
while (($#)); do
    case "$1" in
        --workload) workload=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --seed) seeds+=("${2:?}"); shift 2 ;;
        --trace) trace=${2:?}; shift 2 ;;
        --claim) claim=${2:?}; shift 2 ;;
        --out) out=${2:?}; shift 2 ;;
        --from-dir) from=${2:?}; shift 2 ;;
        -h | --help) usage ;;
        --*) echo "ab: unknown option $1" >&2; usage ;;
        *) sides+=("$1"); shift ;;
    esac
done
if [[ -n "$claim" && ! "$claim" =~ ^[a-z0-9_]+:[-+][0-9.]+%$ ]]; then
    echo "ab: --claim wants METRIC:+X% or METRIC:-X%, got $claim" >&2
    exit 2
fi

# analyse RUNS SPEC: the per-metric table over RUNS/{A,B}-<pair>.out.
analyse() {
    local runs=$1 spec=$2 n=0 files=()
    while [[ -f "$runs/A-$((n + 1)).out" && -f "$runs/B-$((n + 1)).out" ]]; do
        n=$((n + 1))
        files+=("$runs/A-$n.out" "$runs/B-$n.out")
    done
    if ((n == 0)); then
        echo "ab: no A-1.out / B-1.out pair in $runs" >&2
        exit 2
    fi
    awk -v spec="$spec" -v pairs="$n" -v claim="$claim" '
        function sortn(x, k,    i, j, t) {
            for (i = 2; i <= k; i++) {
                t = x[i]
                for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]
                x[j + 1] = t
            }
        }
        # Exclusive quantile (the benchmark driver`s quartile rule):
        # position p * (k + 1) on a 1-based axis, clamped to the ends.
        function quant(x, k, p,    pos, j) {
            if (k == 1) return x[1]
            pos = p * (k + 1); j = int(pos)
            if (j < 1) j = 1
            if (j > k - 1) j = k - 1
            return x[j] + (x[j + 1] - x[j]) * (pos - j)
        }
        function median(x, k) {
            return k % 2 ? x[(k + 1) / 2] : (x[k / 2] + x[k / 2 + 1]) / 2
        }
        function pct(v) { return sprintf("%+.1f%%", 100 * v) }
        # Fills the globals medA, medB, iqr, wins, losses, ratios over
        # the pairs whose index is listed in sel[1..k], for metric m.
        function stats(m, sel, k,    i, p, a, b, sa, sb) {
            wins = losses = 0; ratios = ""
            for (i = 1; i <= k; i++) {
                p = sel[i]; a = val["A", p, m]; b = val["B", p, m]
                sa[i] = a; sb[i] = b
                if ((higher[m] && b > a) || (!higher[m] && b < a)) wins++
                if ((higher[m] && b < a) || (!higher[m] && b > a)) losses++
                ratios = ratios sprintf(" %.3f", a != 0 ? b / a : 0)
            }
            sortn(sa, k); sortn(sb, k)
            medA = median(sa, k); medB = median(sb, k)
            iqr = quant(sa, k, 0.75) - quant(sa, k, 0.25)
        }
        function verdict(m, k,    gap, need, good) {
            gap = medB - medA; if (gap < 0) gap = -gap
            need = int((9 * k + 9) / 10)
            good = higher[m] ? medB > medA : medB < medA
            if (gap > iqr && good && wins >= need) return "better"
            if (gap > iqr && !good && losses >= need) return "worse"
            return "no change"
        }
        BEGIN {
            # Every metric from "end_to_end" on: the per-layer list follows it.
            while ((getline line < spec) > 0) {
                if (line ~ /"end_to_end"/) on = 1
                if (!on) continue
                if (match(line, /"name": *"[^"]*"/)) {
                    m = substr(line, RSTART, RLENGTH); sub(/^"name": *"/, "", m); sub(/"$/, "", m)
                    names[++nm] = m
                }
                if (line ~ /"better": *"higher"/) higher[m] = 1
                if (match(line, /"bound": *[0-9.]+/)) {
                    b = substr(line, RSTART, RLENGTH); sub(/^"bound": */, "", b); bound[m] = b + 0
                }
            }
            if (!nm) { print "ab: no metric in " spec > "/dev/stderr"; exit 2 }
        }
        FNR == 1 {
            f = FILENAME; sub(/.*\//, "", f); side = substr(f, 1, 1)
            p = substr(f, 3); sub(/\.out$/, "", p); p += 0
        }
        /^host[ \t]+speed / { speed[side, p] = $3 + 0 }
        /^\{"correct":/ {
            for (i = 1; i <= nm; i++) {
                m = names[i]
                if (match($0, "\"" m "\":\\{\"value\":[-+0-9.eE]+")) {
                    v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
                    val[side, p, m] = v + 0; seen[side, p, m] = 1
                }
            }
            if (match($0, /"attempted":[0-9.eE+]+/)) att[side] += substr($0, RSTART + 12, RLENGTH - 12)
            if (match($0, /"failed":[0-9.eE+]+/)) fail[side] += substr($0, RSTART + 9, RLENGTH - 9)
            result[side, p] = 1
        }
        END {
            if (!nm) exit 2
            for (p = 1; p <= pairs; p++)
                for (s = 0; s < 2; s++) {
                    side = s ? "B" : "A"
                    if (!result[side, p]) {
                        printf "ab: %s-%d.out has no result line\n", side, p > "/dev/stderr"; exit 3
                    }
                    if ((side, p) in speed && speed[side, p] > top) top = speed[side, p]
                }
            states = ""; same = 0
            for (p = 1; p <= pairs; p++) {
                for (s = 0; s < 2; s++) {
                    side = s ? "B" : "A"
                    st[side] = !((side, p) in speed) ? "?" : speed[side, p] >= 0.9 * top ? "fast" : "slow"
                }
                states = states sprintf(" %s/%s", st["A"], st["B"])
                all[p] = p
                if (st["A"] != "?" && st["A"] == st["B"]) { pick[++same] = p; kind[st["A"]]++ }
            }
            printf "pairs %d; host state per pair (A/B):%s\n", pairs, states
            printf "same-state pairs %d (fast %d, slow %d)\n", same, kind["fast"], kind["slow"]
            printf "failed operations: A %d of %d, B %d of %d\n", fail["A"], att["A"], fail["B"], att["B"]
            if (pairs < 10) print "fewer than 10 pairs: a verdict is a hint, not a claim"
            print ""
            # A metric no run reports is not listed; one some runs miss is.
            w = 17
            for (i = 1; i <= nm; i++) {
                m = names[i]; runs = 0
                for (p = 1; p <= pairs; p++) runs += seen["A", p, m] + seen["B", p, m]
                every[m] = runs == 2 * pairs
                if (runs && length(m) > w) w = length(m)
            }
            col = "%-" w "s"
            printf col " %14s %14s %8s %7s %12s  %-10s %s\n", "metric", "median A", "median B", "change", "B wins", "IQR A", "verdict", "bound"
            for (i = 1; i <= nm; i++) {
                m = names[i]
                if (!every[m]) {
                    for (p = 1; p <= pairs; p++) if (seen["A", p, m] || seen["B", p, m]) { printf col " (not in every result line)\n", m; break }
                    continue
                }
                stats(m, all, pairs)
                change = medA != 0 ? (medB - medA) / medA : 0
                v = verdict(m, pairs); verdicts[m] = v; changes[m] = change
                worse = higher[m] ? -change : change
                printf col " %14.6g %14.6g %8s %4d/%-2d %12.6g  %-10s %s\n", m, medA, medB, pct(change), wins, pairs, iqr, v, \
                    (m in bound) ? (worse > bound[m] ? "beyond " : "within ") sprintf("%g%%", 100 * bound[m]) : "-"
                printf "  ratios B/A:%s\n", ratios
                if (same > 0 && same < pairs) {
                    stats(m, pick, same)
                    printf "  same-state: median A %.6g, B %.6g (%s), B wins %d/%d, IQR A %.6g, %s; ratios:%s\n", \
                        medA, medB, pct(medA != 0 ? (medB - medA) / medA : 0), wins, same, iqr, verdict(m, same), ratios
                }
            }
            if (claim != "") {
                split(claim, c, ":"); m = c[1]; want = c[2]; sub(/%$/, "", want); want = want / 100
                if (!(m in verdicts)) { printf "\nclaim %s: no such metric in every run\n", claim; exit 1 }
                met = verdicts[m] == "better" && (want >= 0 ? changes[m] >= want : changes[m] <= want)
                printf "\nclaim %s: %s (median change %s, verdict %s)\n", claim, met ? "met" : "not met", pct(changes[m]), verdicts[m]
                exit met ? 0 : 1
            }
        }' "${files[@]}"
}

if [[ -n "$from" ]]; then
    ((${#sides[@]} == 0)) || usage
    spec="$from/BENCHMARK.json"
    [[ -f "$spec" ]] || spec="$root/BENCHMARK.json"
    analyse "$from" "$spec"
    exit
fi

((${#sides[@]} == 2)) && [[ -n "$workload" && "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
((${#seeds[@]})) || seeds=(7)
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$out/runs"
out=$(cd "$out" && pwd)
trap 'rm -rf "$out/src-A" "$out/src-B" "$out/target-A" "$out/target-B"' EXIT

# Snapshot each side: a revision's committed tree, or a directory's files
# without its build outputs and git metadata. The build then rewrites
# only the snapshot's bench/Cargo.lock, never the caller's.
for i in 0 1; do
    side=$([[ $i == 0 ]] && echo A || echo B)
    src="$out/src-$side"
    rm -rf "$src" && mkdir -p "$src"
    if [[ -d "${sides[i]}" ]]; then
        tar -C "${sides[i]}" --exclude=./target --exclude=./bench/target --exclude=./bench/out \
            --exclude=./.git -cf - . | tar -C "$src" -xf -
        desc="directory ${sides[i]}"
    else
        rev=$(git -C "$root" rev-parse --verify --quiet "${sides[i]}^{commit}") ||
            { echo "ab: ${sides[i]} is neither a directory nor a revision" >&2; exit 2; }
        git -C "$root" archive "$rev" | tar -C "$src" -xf -
        desc="$(git -C "$root" log -1 --format='%h %s' "$rev")"
    fi
    echo "$side = $desc" | tee -a "$out/runs/sides.txt"
    echo "ab: building $side's bench/" >&2
    CARGO_TARGET_DIR="$out/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$src/bench/Cargo.toml" || { echo "ab: $side's build failed" >&2; exit 3; }
done
cp "$out/src-A/BENCHMARK.json" "$out/runs/BENCHMARK.json"
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$out/runs/BENCHMARK.json")

for ((p = 1; p <= pairs; p++)); do
    seed=${seeds[$(((p - 1) % ${#seeds[@]}))]}
    order=$( ((p % 2)) && echo "A B" || echo "B A")
    for side in $order; do
        echo "ab: pair $p/$pairs, $side, seed $seed" >&2
        (cd "$out/src-$side" && "$out/target-$side/release/bench" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace "$trace") >"$out/runs/$side-$p.out" 2>&1 ||
            { echo "ab: run $side-$p failed, see $out/runs/$side-$p.out" >&2; exit 3; }
    done
done

echo "workload $workload, $pairs pairs in ABBA order, seeds ${seeds[*]}, ${seconds}s, trace $trace; runs in $out/runs"
analyse "$out/runs" "$out/runs/BENCHMARK.json"

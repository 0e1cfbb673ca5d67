#!/usr/bin/env bash
# Checks scripts/ab.sh's verdicts on synthetic result files (no build,
# no run): 10 pairs whose A side spreads 1% a step around each metric,
# against
#   - A itself: every metric reads "no change";
#   - A shifted up by 2x its interquartile range: a higher-is-better
#     metric reads "better", a lower-is-better one "worse";
#   - A shifted up by half its interquartile range: "no change".
#
# Usage: scripts/ab_test.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_test.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# write DIR SHIFT: A-<p>.out and B-<p>.out, B = A + SHIFT x A's IQR
# (the exclusive quartiles of 1..10 are 2.75 and 8.25, so the IQR of
# base * (1 + k/100) is 0.055 base). Pairs 3 and 4 see a slow host.
write() {
    mkdir -p "$1"
    awk -v dir="$1" -v shift="$2" 'BEGIN {
        split("setup_s frames_per_s cpu_ns_per_frame latency_p50_us peak_rss_mb rec_c relay_share", names, " ")
        split("0.25 2.5e7 40 3000 11.5 0.9 0.45", base, " ")
        split("3 7 1 9 5 10 2 8 4 6", k, " ")
        for (p = 1; p <= 10; p++)
            for (s = 0; s < 2; s++) {
                f = dir "/" (s ? "B" : "A") "-" p ".out"
                printf "host             speed %.3f of the reference\n", (p == 3 || p == 4) && s ? 0.8 : 1.0 > f
                line = "{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{"
                for (i = 1; i <= 7; i++) {
                    v = base[i] * (1 + k[p] / 100) + s * shift * 0.055 * base[i]
                    line = line (i > 1 ? "," : "") sprintf("\"%s\":{\"value\":%.10g,\"unit\":\"u\"}", names[i], v)
                }
                print line "}}" > f
                close(f)
            }
    }'
}

fail=0
# expect DIR METRIC VERDICT: the row of METRIC reads VERDICT.
expect() {
    if ! grep -qE "^$2 .* $3 +(within|beyond)" "$1/report"; then
        echo "ab_test: $(basename "$1"): $2 should read \"$3\":" >&2
        cat "$1/report" >&2
        fail=1
    fi
}
# claim DIR CLAIM STATUS: ab.sh --claim CLAIM exits with STATUS.
claim() {
    local got=0
    scripts/ab.sh --from-dir "$1" --claim "$2" >/dev/null || got=$?
    if [[ $got != "$3" ]]; then
        echo "ab_test: $(basename "$1"): --claim $2 exited $got, want $3" >&2
        fail=1
    fi
}

for case in self:0 shifted:2 inside:0.5; do
    dir="$tmp/${case%%:*}"
    write "$dir" "${case#*:}"
    scripts/ab.sh --from-dir "$dir" >"$dir/report"
done

for m in setup_s frames_per_s cpu_ns_per_frame latency_p50_us peak_rss_mb rec_c relay_share; do
    expect "$tmp/self" "$m" "no change"
    expect "$tmp/inside" "$m" "no change"
done
for m in frames_per_s rec_c; do expect "$tmp/shifted" "$m" better; done
for m in setup_s cpu_ns_per_frame latency_p50_us peak_rss_mb relay_share; do
    expect "$tmp/shifted" "$m" worse
done
grep -q '^same-state pairs 8 (fast 8, slow 0)' "$tmp/shifted/report" ||
    { echo "ab_test: pairs 3 and 4 should not count as same-state" >&2; fail=1; }

claim "$tmp/self" frames_per_s:+1% 1
claim "$tmp/shifted" frames_per_s:+10% 0
claim "$tmp/shifted" frames_per_s:+20% 1
claim "$tmp/shifted" cpu_ns_per_frame:-5% 1
claim "$tmp/inside" frames_per_s:+1% 1

((fail == 0)) && echo "ab_test: OK"
exit "$fail"

#!/bin/bash
# Regenerates every table and figure of the paper (results/*.tsv).
# Full run takes ~20-30 minutes on a laptop-class machine.
set -e
cd "$(dirname "$0")"
SCALE=${SCALE:-0.5}
TRIALS=${TRIALS:-2}
BIN="cargo run --release -q -p eventhit-bench --bin"
mkdir -p results
$BIN table1 -- --scale 1.0            | tee results/table1.tsv
$BIN table2                           | tee results/table2.tsv
$BIN fig4 -- --scale $SCALE --trials $TRIALS | tee results/fig4.tsv
$BIN fig5 -- --scale $SCALE --trials $TRIALS | tee results/fig5.tsv
$BIN fig6 -- --scale $SCALE --trials $TRIALS | tee results/fig6.tsv
$BIN fig7 -- --scale 0.4 --trials 1   | tee results/fig7.tsv
$BIN fig8 -- --scale 1.0 --trials 1   | tee results/fig8.tsv
$BIN fig9 -- --scale $SCALE --trials $TRIALS | tee results/fig9.tsv
$BIN fig10 -- --scale $SCALE --trials $TRIALS | tee results/fig10.tsv
$BIN coverage -- --scale $SCALE --trials $TRIALS | tee results/coverage.tsv
$BIN ablation -- --scale 0.35         | tee results/ablation.tsv
$BIN resources -- --scale $SCALE      | tee results/resources.tsv
$BIN multi_instance -- --scale $SCALE | tee results/multi_instance.tsv
$BIN latency -- --scale $SCALE        | tee results/latency.tsv
$BIN per_event -- --scale $SCALE      | tee results/per_event.tsv
cargo run --release -q --bin eventhit-cli -- sweep-sampling --task TA10 --seed 7 --scale 1.0 \
                                      | tee results/sampling_frontier.tsv
echo "all experiments complete"

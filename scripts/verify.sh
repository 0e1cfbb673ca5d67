#!/usr/bin/env bash
# Tier-1 verification: release build + the root test suite, fully offline.
#
# The workspace is std-only (no crates.io dependencies — see DESIGN.md §6),
# so --offline must always succeed; if it ever fails, a registry dependency
# has crept back in.
#
# Usage: scripts/verify.sh [--workspace]
#   --workspace   also run every crate's unit and property tests
#                 (slower; tier-1 proper is the root suite).
set -euo pipefail
cd "$(dirname "$0")/.."

extra=()
if [[ "${1:-}" == "--workspace" ]]; then
    extra=(--workspace)
fi

cargo build --release --offline
cargo test -q --offline "${extra[@]}"
echo "verify: OK"

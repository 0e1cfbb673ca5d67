#!/usr/bin/env bash
# Count the library code under crates/: non-blank lines not starting with
# `//` in crates/*/src/**/*.rs, skipping every `#[cfg(test)]` item (the
# attribute, the item it gates and that item's body).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skip = 0 }
    {
        line = $0
        sub(/^[[:space:]]+/, "", line)
        if (!skip && line ~ /^#\[cfg\(test\)\]/) {
            skip = 1; depth = 0; opened = 0
            line = substr(line, 13)
            sub(/^[[:space:]]+/, "", line)
            if (line == "") next
        }
        if (skip) {
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        if (line == "" || line ~ /^\/\//) next
        total++
    }
    END { print total, "non-test lines in crates/*/src" }'

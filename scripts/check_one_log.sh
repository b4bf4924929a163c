#!/usr/bin/env bash
# One-log-path gate: a tenant's log belongs to its facade, which appends
# its own inputs, and to `tdb_storage`, which creates, reads and reopens
# the directory, so the server names none of it. Fails when
# `crates/server/src`
#   * names the segment format anywhere — its writer, its reader, its file
#     names or its header; or
#   * names `read_log`, `FileStorage` or `WalSink` outside a `#[cfg(test)]`
#     item (a test module may still read a log back to count its records).
# An item runs from its `#[cfg(test)]` line to the line that closes its
# braces, or to its terminating `;` / `,` when it has none, as in
# `scripts/loc_report.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=$(grep -rnwE 'WalWriter|read_segment|segment_file_name|WAL_HEADER' crates/server/src || true)
[ -z "$bad" ] || { printf 'the segment format named outside tdb_storage:\n%s\n' "$bad" >&2; exit 1; }
bad=$(find crates/server/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0 }
    skip {
        line = $0
        depth += gsub(/\{/, "", line) - gsub(/\}/, "", line)
        if (index($0, "{")) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /[;,][[:space:]]*$/)) skip = 0
        next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    { print FILENAME ":" FNR ":" $0 }' | grep -wE 'read_log|FileStorage|WalSink' || true)
[ -z "$bad" ] || { printf 'a tenant log handled outside its facade and tdb_storage:\n%s\n' "$bad" >&2; exit 1; }
echo "one-log: ok (crates/server/src names no segment-format item, and its non-test code no read_log, FileStorage or WalSink)"

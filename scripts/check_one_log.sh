#!/usr/bin/env bash
# One-log-path gate: the server reads and writes every tenant's log
# through `tdb_storage`'s `FileStorage` and `read_log`, so the segment
# format — its writer, its reader, its file names and its header — stays
# known to that crate alone. Fails when `crates/server/src` names any of
# them.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=$(grep -rnwE 'WalWriter|read_segment|segment_file_name|WAL_HEADER' crates/server/src || true)
[ -z "$bad" ] || { printf 'the segment format named outside tdb_storage:\n%s\n' "$bad" >&2; exit 1; }
echo "one-log: ok (crates/server/src names no WalWriter, read_segment, segment_file_name or WAL_HEADER)"

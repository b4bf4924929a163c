#!/usr/bin/env bash
# Non-test source lines per crate: for every src/**/*.rs, every line that is
# not part of a `#[cfg(test)]` item (a test module, a test-only field, use or
# fn), plus a total. An item runs from its `#[cfg(test)]` line to the line
# that closes its braces, or to its terminating `;` / `,` when it has none.
# `-v` also lists each file. ROADMAP aim 2 is judged by these numbers.
set -euo pipefail
cd "$(dirname "$0")/.."
verbose=0
[ "${1:-}" = "-v" ] && verbose=1
{
    find src -name '*.rs' | sed 's|^|temporal-adb |'
    for c in crates/* crates/shims/*; do
        [ -d "$c/src" ] && find "$c/src" -name '*.rs' | sed "s|^|${c#crates/} |"
    done
} | sort | while read -r crate file; do
    n=$(awk '
        skip {
            line = $0
            depth += gsub(/\{/, "", line) - gsub(/\}/, "", line)
            if (index($0, "{")) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /[;,][[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        { n++ }
        END { print n + 0 }' "$file")
    echo "$crate $file $n"
done | awk -v verbose="$verbose" '
    { per[$1] += $3; total += $3; if (verbose) printf "  %6d  %s\n", $3, $2 }
    END {
        for (c in per) printf "%6d  %s\n", per[c], c | "sort -k2"
        close("sort -k2")
        printf "%6d  total\n", total
    }'

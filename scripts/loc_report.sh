#!/usr/bin/env bash
# Non-test source lines per crate: for every src/**/*.rs, the lines before
# its first `#[cfg(test)]` (the whole file when it has none), plus a total.
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
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    echo "$crate $file $n"
done | awk -v verbose="$verbose" '
    { per[$1] += $3; total += $3; if (verbose) printf "  %6d  %s\n", $3, $2 }
    END {
        for (c in per) printf "%6d  %s\n", per[c], c | "sort -k2"
        close("sort -k2")
        printf "%6d  total\n", total
    }'

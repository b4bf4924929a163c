#!/usr/bin/env bash
# Share-nothing gate: production code of the evaluation crates may declare
# no `static` whose type mentions Mutex, RwLock or Atomic — everything the
# evaluator interns, memoises or counts belongs to a tenant's EvalContext.
# What remains legal by construction: `OnceLock<Counter…>` registry-handle
# getters and the `OnceLock<bool|usize>` host probes.
# Nor may it start a thread: a tenant evaluates on the one thread that owns
# it, and the server spreads tenants over workers. Threads inside a tenant
# were measured (EXPERIMENTS.md E13) and removed; they come back with a
# benchmark workload that needs them, not before.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=$(find crates/{core,engine,relation,ptl,analysis}/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /thread::(spawn|scope)/ { print f ":" NR ": " $0 }
        /^[[:space:]]*(pub(\([a-z]+\))? +)?static +[A-Z_0-9]+ *:/ { decl = ""; open = 1 }
        open { decl = decl $0; if ($0 ~ /[=;]/) { open = 0; if (decl ~ /Mutex|RwLock|Atomic/) print f ":" NR ": " decl } }
    ' "$f"
done)
[ -z "$bad" ] || { printf 'process-global mutable state or a thread on the evaluation path:\n%s\n' "$bad" >&2; exit 1; }
echo "share-nothing: ok (no Mutex/RwLock/Atomic statics, no thread::spawn/scope in crates/{core,engine,relation,ptl,analysis}/src)"

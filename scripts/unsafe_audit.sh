#!/bin/sh
# Every `unsafe` states why it is sound. Fails when an `unsafe` block or
# `unsafe impl` has no `// SAFETY:` comment on its line or in the 8 lines
# above it, or when an `unsafe fn` has no `# Safety` section in its doc
# comment. Prints each site and a total. Usage: scripts/unsafe_audit.sh
# [<file-or-dir>...] (default: crates/*/src).
[ $# -gt 0 ] || set -- crates/*/src
find "$@" -type f -name '*.rs' | sort | xargs awk '
    FNR == 1 { doc = ""; for (i = 0; i < 8; i++) prev[i] = "" }
    {
        code = $0
        sub(/\/\/.*/, "", code)
        if (code ~ /(^|[^[:alnum:]_])unsafe[[:space:]]+fn[[:space:]]/) {
            sites++
            ok = doc ~ /# Safety/
            printf "%s %s:%d: unsafe fn\n", ok ? "ok     " : "MISSING", FILENAME, FNR
            if (!ok) missing++
        } else if (code ~ /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|impl[[:space:]])/) {
            sites++
            ok = $0 ~ /\/\/ SAFETY:/
            for (i = 0; i < 8; i++) if (prev[i] ~ /\/\/ SAFETY:/) ok = 1
            printf "%s %s:%d: unsafe %s\n", ok ? "ok     " : "MISSING", FILENAME, FNR,
                code ~ /unsafe[[:space:]]+impl/ ? "impl" : "block"
            if (!ok) missing++
        }
        # The doc comment (and attributes) directly above the current item.
        if ($0 ~ /^[[:space:]]*(\/\/\/|#\[)/) doc = doc "\n" $0
        else doc = ""
        prev[FNR % 8] = $0
    }
    END {
        printf "%d unsafe sites, %d without a safety argument\n", sites, missing
        exit (missing > 0)
    }
'

#!/bin/sh
# Honest line counts for simplicity PRs. Per Rust file (directories are
# searched for *.rs): total lines, lines above the first `#[cfg(test)]`
# (the shipped region), and code-only lines there (non-blank, not a `//`
# comment). Usage: scripts/loc.sh <file-or-dir>...
[ $# -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }
find "$@" -type f -name '*.rs' | sort | xargs awk '
    function flush() {
        if (file != "") printf "%7d %7d %7d  %s\n", total, above, code, file
        sum_total += total; sum_above += above; sum_code += code
    }
    FNR == 1 { flush(); file = FILENAME; total = above = code = 0; shipped = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { shipped = 0 }
    { total++ }
    shipped { above++; if ($0 !~ /^[[:space:]]*($|\/\/)/) code++ }
    BEGIN { printf "%7s %7s %7s  %s\n", "total", "shipped", "code", "file" }
    END { flush(); printf "%7d %7d %7d  %s\n", sum_total, sum_above, sum_code, "(sum)" }
'

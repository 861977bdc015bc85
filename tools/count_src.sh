#!/bin/sh
# Source lines a simplicity PR reports: for every *.rs under crates/*/src
# (bar the overlay runtime's two test-only files), the lines strictly above
# the first `#[cfg(test)]` that is directly followed by an inline
# `mod name {`. A `#[cfg(test)] mod tests;` declaration or a `#[cfg(test)]`
# helper does not cut the file.
#
#   tools/count_src.sh [-v] [ROOT]     -v: one line per file; ROOT: a checkout (default: this one)
#   tools/count_src.sh -d BASE [ROOT]  each file whose count differs from checkout BASE's
#                                      (old -> new, delta), then the totals and their delta
mode=total
case "$1" in
-v) mode=verbose; shift ;;
-d)
    [ $# -ge 2 ] || { echo "usage: $0 -d BASE [ROOT]" >&2; exit 2; }
    mode=diff; base=$2; shift 2 ;;
esac
root=${1:-$(dirname "$0")/..}

# One "count file" line per file, sorted by file, then "count total".
counts() (
    cd "$1" || exit 1
    find crates/*/src -name '*.rs' \
        ! -path 'crates/overlay/src/runtime/tests.rs' \
        ! -path 'crates/overlay/src/runtime/reopt_equivalence.rs' | LC_ALL=C sort |
        xargs awk '
            function flush() {
                if (file != "") {
                    n = cut ? cut - 1 : lines
                    total += n
                    printf "%6d %s\n", n, file
                }
            }
            FNR == 1 { flush(); file = FILENAME; cut = 0; armed = 0 }
            {
                lines = FNR
                if (!cut && armed && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) cut = FNR - 1
                armed = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/)
            }
            END { flush(); printf "%6d total\n", total }'
)

case $mode in
total) counts "$root" | tail -n 1 ;;
verbose) counts "$root" ;;
diff)
    # Both lists are sorted by file: merge them, a missing file counting 0.
    { counts "$base" | sed 's/^/old /'; counts "$root" | sed 's/^/new /'; } | LC_ALL=C awk '
        $3 == "total" { next }
        $1 == "old" { of[++on] = $3; oc[$3] = $2 }
        $1 == "new" { nf[++nn] = $3; nc[$3] = $2 }
        END {
            i = j = 1
            while (i <= on || j <= nn) {
                if (j > nn || (i <= on && of[i] < nf[j])) f = of[i++]
                else { if (i <= on && of[i] == nf[j]) i++; f = nf[j++] }
                if (oc[f] != nc[f]) printf "%6d -> %6d %+6d %s\n", oc[f], nc[f], nc[f] - oc[f], f
                old += oc[f]; new += nc[f]
            }
            printf "%6d -> %6d %+6d total\n", old, new, new - old
        }'
    ;;
esac

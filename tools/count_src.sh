#!/bin/sh
# Source lines a simplicity PR reports: for every *.rs under crates/*/src
# (bar the overlay runtime's two test-only files), the lines strictly above
# the first `#[cfg(test)]` that is directly followed by an inline
# `mod name {`. A `#[cfg(test)] mod tests;` declaration or a `#[cfg(test)]`
# helper does not cut the file.
#
#   tools/count_src.sh [-v] [ROOT]     -v: one line per file; ROOT: a checkout (default: this one)
verbose=0
if [ "$1" = "-v" ]; then
    verbose=1
    shift
fi
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' \
    ! -path 'crates/overlay/src/runtime/tests.rs' \
    ! -path 'crates/overlay/src/runtime/reopt_equivalence.rs' | LC_ALL=C sort |
    xargs awk -v verbose="$verbose" '
        function flush() {
            if (file != "") {
                n = cut ? cut - 1 : lines
                total += n
                if (verbose) printf "%6d %s\n", n, file
            }
        }
        FNR == 1 { flush(); file = FILENAME; cut = 0; armed = 0 }
        {
            lines = FNR
            if (!cut && armed && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) cut = FNR - 1
            armed = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/)
        }
        END { flush(); printf "%6d total\n", total }'

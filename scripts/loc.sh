#!/usr/bin/env bash
# Go line counts as CHANGES.md reports them: raw `wc -l` over every .go
# file, split into non-test and _test.go lines, perfbench excluded.
#
#   ./scripts/loc.sh          counts for the working tree
#   ./scripts/loc.sh <rev>    the same, then the counts at git revision
#                             <rev> and the working tree's difference
#                             from them
set -euo pipefail
cd "$(dirname "$0")/.."

# count prints "<non-test> <test>" for the .go files under directory $1.
count() {
    (cd "$1" && find . -name '*.go' -not -path './perfbench/*' -not -path './.*' -print0 |
        xargs -0 -r wc -l --) |
        awk '$2 == "total" { next } $2 ~ /_test\.go$/ { t += $1; next } { n += $1 } END { print n + 0, t + 0 }'
}

read -r tree_n tree_t < <(count .)
echo "working tree: non-test ${tree_n}, test ${tree_t}"
if [ $# -ge 1 ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" | tar -x -C "$tmp"
    read -r rev_n rev_t < <(count "$tmp")
    echo "$1: non-test ${rev_n}, test ${rev_t}"
    printf 'difference: non-test %+d, test %+d\n' $((tree_n - rev_n)) $((tree_t - rev_t))
fi

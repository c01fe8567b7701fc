#!/usr/bin/env bash
# Alternating parent/change pairs of the serving benchmark, the evidence
# every performance claim reports:
#
#   ./scripts/benchpairs.sh <rev> <workload> [pairs] [seconds]
#
# It copies git revision <rev> (`git archive`) and the working tree (its
# tracked and untracked, not ignored, files) into a temporary directory
# and runs perfbench/run.sh in each copy, with a build directory of its
# own per side, so the first run of a side builds its binary and the
# later ones reuse it. Nothing is written in the checkout. Pair i runs
# seed i (pairs defaults to 10, seconds to 20, as in BENCHMARK.json) on
# both sides, the parent first on odd seeds and the change first on even
# ones, so drift on the host falls on both sides alike.
#
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median [Q1, Q3], the change in the median, the pairs in which the
# change was better in the metric's `better` direction, and a verdict:
# "better" or "worse" when at least nine in ten pairs agree and the
# medians differ by more than the parent's interquartile range, else
# "unresolved". The last column is the no-regression check a change
# that claims no gain must pass: how much worse the change's median is
# than the parent's (negative when better), against the metric's
# `bound`, e.g. "+2.6% ≤ 25%". Then each side's attempted, failed
# (with the failed share) and incorrect counts. It exits non-zero if any
# run answered incorrectly. Progress and every raw result line go to
# standard error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -f "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -x -C "$tmp/change"

# run <side> <seed> appends the run's result line to $tmp/<side>.results.
run() {
    local out
    if ! out=$(cd "$tmp/$1" && CARGO_TARGET_DIR="$tmp/build-$1" bash perfbench/run.sh \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1); then
        echo "benchpairs: $1 run at seed $2 failed" >&2
        exit 1
    fi
    echo "seed $2 $1 $out" >&2
    echo "$out" >>"$tmp/$1.results"
}

for ((seed = 1; seed <= pairs; seed++)); do
    if ((seed % 2 == 1)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

# The end-to-end metrics as "name better bound" lines, in BENCHMARK.json
# order (each metric's "bound" follows its "better").
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
    on && /"better"/ { gsub(/.*"better": *"|".*/, ""); better = $0 }
    on && /"bound"/ { gsub(/.*"bound": *|[ ,]*$/, ""); print name, better, $0 }' BENCHMARK.json)

echo "$workload: $pairs pairs, $seconds s per run, parent $rev, change the working tree"
echo
echo "| metric | parent | change | Δ median | change won | verdict | worse by (bound) |"
echo "|---|---|---|---:|---:|---|---|"
echo "$metrics" | while read -r name better bound; do
    awk -v name="$name" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
        # value extracts the metric from a result line.
        function value(line,   m) {
            if (!match(line, "\"" name "\":\\{\"value\":[-0-9.eE+]+")) return "nan"
            m = substr(line, RSTART, RLENGTH)
            sub(/.*"value":/, "", m)
            return m + 0
        }
        # quantile interpolates linearly between the closest ranks of the
        # n sorted values in s.
        function quantile(s, n, q,   pos, lo) {
            pos = q * (n - 1) + 1
            lo = int(pos)
            if (lo >= n) return s[n]
            return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
        }
        function sort(s, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        }
        FNR == NR { p[FNR] = value($0); ps[FNR] = p[FNR]; next }
        { c[FNR] = value($0); cs[FNR] = c[FNR] }
        END {
            for (i = 1; i <= pairs; i++) {
                if ((better == "lower" && c[i] < p[i]) || (better == "higher" && c[i] > p[i])) won++
                if ((better == "lower" && c[i] > p[i]) || (better == "higher" && c[i] < p[i])) lost++
            }
            sort(ps, pairs); sort(cs, pairs)
            pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
            iqr = quantile(ps, pairs, 0.75) - quantile(ps, pairs, 0.25)
            diff = cm - pm
            gain = better == "lower" ? -diff : diff
            verdict = "unresolved"
            if (won >= 0.9 * pairs && gain > iqr) verdict = "better"
            if (lost >= 0.9 * pairs && -gain > iqr) verdict = "worse"
            worse = pm != 0 ? -100 * gain / pm : 0
            printf "| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %d/%d | %s | %+.1f%% %s %g%% |\n",
                name, pm, quantile(ps, pairs, 0.25), quantile(ps, pairs, 0.75),
                cm, quantile(cs, pairs, 0.25), quantile(cs, pairs, 0.75),
                pm != 0 ? 100 * diff / pm : 0, won, pairs, verdict,
                worse, worse <= 100 * bound ? "≤" : ">", 100 * bound
        }' "$tmp/parent.results" "$tmp/change.results"
done

echo
status=0
for side in parent change; do
    read -r attempted failed incorrect < <(awk '
        { match($0, /"attempted":[0-9]+/); a += substr($0, RSTART + 12, RLENGTH - 12)
          match($0, /"failed":[0-9]+/); f += substr($0, RSTART + 9, RLENGTH - 9)
          if ($0 !~ /"correct":true/) bad++ }
        END { print a + 0, f + 0, bad + 0 }' "$tmp/$side.results")
    echo "$side: attempted $attempted, failed $failed ($(awk -v a="$attempted" -v f="$failed" \
        'BEGIN { printf "%.2f%%", a ? 100 * f / a : 0 }')), incorrect runs $incorrect"
    if [ "$incorrect" -ne 0 ]; then
        status=1
    fi
done
exit "$status"

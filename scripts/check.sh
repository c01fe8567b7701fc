#!/usr/bin/env bash
# Pre-merge gate: run from anywhere; fails fast on the first problem.
#
#   ./scripts/check.sh
#
# What it checks (referenced from README.md "Measuring performance"):
#   1. go vet over every package
#   2. gofmt cleanliness (no files would be rewritten)
#   3. race-detector tests for the concurrency-heavy packages
#      (internal/obs metrics registry, internal/par shared helper pool,
#      internal/tensor scratch sets, internal/core parallel trainer and
#      tiled inference, internal/sparse parallel SpMM, internal/fault
#      bit-parallel sim, internal/opi parallel impact ranking,
#      internal/coarsen projection, internal/netlist cone scratch
#      shared by the ranking's par helpers), plus the coarsening and
#      dense-forward-oracle suites in internal/refcheck under the race
#      detector
#   4. the full test suite
#   5. per-package coverage floors for the numerically critical packages
#      (set ~5 points under their measured coverage so real erosion
#      fails, incidental churn doesn't; see docs/TESTING.md)
#   6. a short-budget fuzz smoke pass over every committed fuzz target
#      (parser, SpMM, GEMM kernel, fault sim, inference forward, coarsening, the
#      /v1/score, /v1/score/delta and /v1/opi request paths, the score
#      text writer against encoding/json), so the
#      seed corpora keep executing and shallow crashers are caught
#      pre-merge (FUZZTIME=0 skips, e.g. on slow CI)
#   7. documentation hygiene: every relative markdown link resolves, and
#      every package carries a doc comment
#   8. the bench-regression gate: cmd/benchcmp diffs the two most recent
#      committed BENCH_NNNN.json artifacts and fails on a regression
#      beyond tolerance (generous, because artifacts may come from
#      different machines; the float32 kernels get extra headroom via
#      -tol-for since their throughput tracks the recording host's SIMD
#      width; see docs/OBSERVABILITY.md)
#   9. metric-key documentation: every prefix.name metric key (whatever
#      the prefix) registered in non-test Go sources appears in
#      docs/OBSERVABILITY.md
#  10. bench artifact completeness: the newest committed BENCH_NNNN.json
#      contains at least one result row recorded at 1 < gomaxprocs <=
#      the artifact's num_cpu, so the worker-scaling matrix can never
#      silently degrade to an all-single-core recording, nor pass off
#      time-slicing on fewer cores as parallelism
# Last, for information only and never as a gate, it prints the Go line
# counts CHANGES.md reports (scripts/loc.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race ./internal/obs ./internal/par ./internal/tensor ./internal/core ./internal/sparse ./internal/fault ./internal/opi ./internal/serve ./internal/coarsen ./internal/netlist"
go test -race ./internal/obs ./internal/par ./internal/tensor ./internal/core ./internal/sparse ./internal/fault ./internal/opi ./internal/serve ./internal/coarsen ./internal/netlist

echo "== go test -race -run 'Coarsen|DenseOracle' ./internal/refcheck (coarsening equivalence and the dense forward oracle under race)"
go test -race -run 'Coarsen|DenseOracle' ./internal/refcheck

echo "== go build ./... && go test ./..."
go build ./...
go test ./...

echo "== coverage floors"
# Floors sit ~5 points below measured coverage at the time the gate was
# added; raise them as coverage grows, never lower them to merge.
check_cover() {
    pkg="$1" floor="$2"
    pct=$(go test -cover "./internal/$pkg" | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+')
    if [ -z "$pct" ]; then
        echo "coverage: could not measure internal/$pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage: internal/$pkg at ${pct}% — below the ${floor}% floor" >&2
        exit 1
    fi
    echo "   internal/$pkg ${pct}% (floor ${floor}%)"
}
check_cover fault 90
check_cover sparse 80
check_cover core 85
check_cover nn 90
check_cover serve 80
check_cover coarsen 85

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke (${FUZZTIME} per target; FUZZTIME=0 to skip)"
    go test -run='^$' -fuzz='^FuzzNetlistParse$' -fuzztime="$FUZZTIME" ./internal/netlist
    go test -run='^$' -fuzz='^FuzzSparseMul$'    -fuzztime="$FUZZTIME" ./internal/sparse
    go test -run='^$' -fuzz='^FuzzAffine$'       -fuzztime="$FUZZTIME" ./internal/tensor
    go test -run='^$' -fuzz='^FuzzBatchSim$'     -fuzztime="$FUZZTIME" ./internal/fault
    go test -run='^$' -fuzz='^FuzzForward$'      -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz='^FuzzCoarsen$'      -fuzztime="$FUZZTIME" ./internal/coarsen
    go test -run='^$' -fuzz='^FuzzScoreRequest$' -fuzztime="$FUZZTIME" ./internal/serve
    go test -run='^$' -fuzz='^FuzzDeltaRequest$' -fuzztime="$FUZZTIME" ./internal/serve
    go test -run='^$' -fuzz='^FuzzOPIRequest$'   -fuzztime="$FUZZTIME" ./internal/serve
    go test -run='^$' -fuzz='^FuzzScoreText$'    -fuzztime="$FUZZTIME" ./internal/serve
else
    echo "== fuzz smoke skipped (FUZZTIME=0)"
fi

echo "== doc links (every relative markdown link resolves)"
broken=0
while IFS=: read -r file target; do
    # Resolve the link relative to the markdown file's directory.
    resolved="$(dirname "$file")/${target%%#*}"
    if [ ! -e "$resolved" ]; then
        echo "broken link in $file: $target" >&2
        broken=1
    fi
done < <(
    git ls-files '*.md' | while read -r f; do
        grep -oE '\]\(([^)]+)\)' "$f" | sed -E 's/^\]\(//; s/\)$//' |
        grep -vE '^(https?:|mailto:|#)' | sed "s|^|$f:|"
    done
)
[ "$broken" -eq 0 ] || exit 1
echo "   all relative links resolve"

echo "== package doc comments (godoc coverage)"
missing=0
for dir in internal/* cmd/*; do
    [ -d "$dir" ] || continue
    # A package doc comment is a comment group immediately preceding a
    # package clause in at least one file of the package.
    if ! awk 'prev ~ /^(\/\/|\*\/|.*\*\/)/ && /^package / { found=1 } { prev=$0 } END { exit !found }' "$dir"/*.go 2>/dev/null; then
        echo "missing package doc comment: $dir" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1
echo "   every internal/* and cmd/* package documented"

echo "== metric keys documented (docs/OBSERVABILITY.md)"
undocumented=0
while read -r key; do
    if ! grep -qF "\`$key\`" docs/OBSERVABILITY.md; then
        echo "metric key $key is emitted in code but not documented in docs/OBSERVABILITY.md" >&2
        undocumented=1
    fi
done < <(
    git ls-files 'internal/*.go' 'cmd/*.go' | grep -v '_test\.go$' |
    xargs grep -hoE 'Get(Counter|Gauge|Histogram)\("[a-z0-9_]+\.[a-z0-9_.]+"' |
    sed -E 's/^Get(Counter|Gauge|Histogram)\("//; s/"$//' | sort -u
)
[ "$undocumented" -eq 0 ] || exit 1
echo "   every metric key documented"

echo "== benchcmp (recorded performance trajectory)"
benches=$(ls BENCH_*.json 2>/dev/null | sort | tail -2)
if [ "$(echo "$benches" | wc -w)" -ge 2 ]; then
    # The float32 kernels (F32 / CSRMul32 suffixes) get wider headroom:
    # their ns/op tracks the recording host's SIMD width and cache line
    # behavior more than the float64 paths, so cross-machine artifacts
    # swing harder without any code change.
    # shellcheck disable=SC2086
    go run ./cmd/benchcmp -tol 0.5 -tol-for 'F32|Mul32=0.75' $benches
else
    echo "(fewer than two BENCH_*.json artifacts; skipping)"
fi

echo "== bench artifact multi-core matrix (a row with 1 < gomaxprocs <= num_cpu)"
newest=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
if [ -n "$newest" ]; then
    # Only result rows count, not the header's process-start value.
    real=$(awk '
        /"num_cpu":/ { gsub(/[^0-9]/, ""); ncpu = $0 + 0 }
        /"benchmarks":/ { rows = 1 }
        rows && /"gomaxprocs":/ { gsub(/[^0-9]/, ""); p = $0 + 0; if (p > 1 && p <= ncpu) n++ }
        END { print n + 0 }' "$newest")
    if [ "$real" -eq 0 ]; then
        echo "newest bench artifact $newest has no result row recorded at 1 < gomaxprocs <= num_cpu;" >&2
        echo "re-record with cmd/benchjson on a multi-core host" >&2
        exit 1
    fi
    echo "   $newest contains $real multi-core result rows"
else
    echo "(no BENCH_*.json artifacts; skipping)"
fi

echo "== Go line counts (scripts/loc.sh; information, not a gate)"
./scripts/loc.sh || echo "   (line counts unavailable)"

echo "check.sh: all gates passed"

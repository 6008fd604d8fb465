#!/usr/bin/env bash
# ci.sh — the repository's full verification gate. Run it locally before
# pushing; .github/workflows/ci.yml runs this script as its gate step.
#
#   build  — go build ./...
#   vet    — go vet ./...
#   gofmt  — gofmt -l over every tracked Go file; any listed file fails
#   lint   — go run ./cmd/lvalint ./...   (project invariants, see DESIGN.md)
#   test   — go test ./...
#   race   — go test -race ./...
#   bench module — go vet ./... && go test ./... inside lvabench/ (a nested
#            module, so the root ./... never reaches it)
#
# `./ci.sh overhead` checks the observability layer's cost: it runs the
# hot-path micro-benchmarks with the obs registry disabled and enabled and
# bounds the on/off ratio. The disabled path carries no instrumentation at
# all (nil seam pointer), so a blown bound means someone put work on the
# wrong side of the seam.
#
# Wall time, CPU time and allocations are measured by the repository
# benchmark, lvabench (`bash lvabench/run.sh --workload W`, see
# lvabench/README.md), on a change and on its parent; the micro-benchmarks
# in bench_test.go are developer tools and gate nothing beyond the overhead
# check.
#
# Tier-1 (the minimum every PR must keep green) is build + test; the other
# steps are the determinism/validation gate this repo's results depend on.
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" == "overhead" ]]; then
    echo "==> metrics overhead check (hot-path benchmarks, obs registry off vs on)"
    out="$(go test -run '^$' -bench '^Benchmark(SimulatorLoadHit|ApproximatorOnMiss)(Obs)?$' -benchtime=2000000x -count=3 .)"
    echo "${out}"
    awk '
        function check(base, bound,    on, off, ratio) {
            off = best[base]; on = best[base "Obs"]
            if (off == "" || on == "") {
                printf "overhead: missing benchmark %s\n", base
                return 1
            }
            ratio = on / off
            printf "overhead: %s enabled/disabled = %.3f (bound %.2f)\n", base, ratio, bound
            return ratio > bound ? 1 : 0
        }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3 + 0
            if (!(name in best) || ns < best[name]) best[name] = ns
        }
        END {
            status = 0
            # The hit path never touches the seam, so on/off should be ~1;
            # the bound only absorbs scheduler noise at ns scale.
            if (check("BenchmarkSimulatorLoadHit", 1.30)) status = 1
            # The miss path pays a few atomics and a bucket search per
            # training when enabled.
            if (check("BenchmarkApproximatorOnMiss", 2.50)) status = 1
            exit status
        }
    ' <<<"${out}"
    echo "ci.sh: metrics overhead within bounds"
    exit 0
fi

# The full gate takes no arguments; refuse any (a retired `bench` mode
# included) rather than quietly running the whole gate instead.
if [[ $# -gt 0 ]]; then
    echo "ci.sh: unknown mode '$1' (run ./ci.sh or ./ci.sh overhead)" >&2
    exit 2
fi

step go build ./...
step go vet ./...
echo "==> gofmt -l (tracked Go files)"
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [[ -n "${unformatted}" ]]; then
    echo "ci.sh: gofmt would reformat:" >&2
    echo "${unformatted}" >&2
    exit 1
fi
# The lint step runs the whole dataflow suite (call graph + taint + a
# compile per hot-path package for allocbudget), so its wall time gets its
# own line. Under GitHub Actions, findings additionally surface as ::error
# annotations on the offending lines. LVALINT_SKIP=allocbudget is the
# escape hatch for toolchains the committed budget was not recorded under.
lint_flags=()
if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    lint_flags+=(-gha)
fi
lint_start=${SECONDS}
step go run ./cmd/lvalint "${lint_flags[@]}" ./...
echo "ci.sh: lvalint finished in $((SECONDS - lint_start))s"
step go test ./...
# The race pass needs headroom past go test's default 10m per-package
# timeout: single-core CI boxes run the experiment regenerations under the
# detector's 5-10x slowdown.
step go test -race -timeout 20m ./...
# lvabench has its own go.mod, so the root ./... above skips it; its tests
# check the golden-cell, count-ledger and metric-table logic.
(cd lvabench && step go vet ./... && step go test ./...)
echo "ci.sh: all checks passed"

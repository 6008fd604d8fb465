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
# `./ci.sh bench [-baseline FILE]` instead runs the benchmark suite once
# (-benchtime=1x), writes the machine-readable go-test event stream to
# BENCH_<stamp>.json, and regenerates every figure with `lvaexp -metrics
# -timeline -manifest -phase` so the deterministic metrics snapshot
# (METRICS_<stamp>.json), the Perfetto-loadable run timeline
# (TIMELINE_<stamp>.json), the provenance manifest (PROV_<stamp>.json),
# and the phase-observatory snapshot (PHASE_<stamp>.json) are archived
# next to it; the manifest is then schema-validated and route-reconciled
# via `lvareport -provenance`, which fails the run on any drift. It then
# compares the fresh snapshot against a baseline via cmd/benchdiff —
# FILE when -baseline is given, else the newest committed BENCH_*.json
# (benchdiff auto-selects and says which; a repo with no prior snapshot
# skips the compare) — and FAILS on a >15% wall-time regression in any
# benchmark slower than 1 ms — the perf gate. CI runs this blocking; set
# BENCHDIFF_FLAGS=-warn-only to demote the compare to advisory (the
# manual escape hatch for noisy machines).
#
# `./ci.sh overhead` checks the observability layer's cost: it runs the
# hot-path micro-benchmarks with the obs registry disabled and enabled and
# bounds the on/off ratio. The disabled path carries no instrumentation at
# all (nil seam pointer), so a blown bound means someone put work on the
# wrong side of the seam.
#
# Tier-1 (the minimum every PR must keep green) is build + test; the other
# steps are the determinism/validation gate this repo's results depend on.
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" == "bench" ]]; then
    baseline=""
    if [[ "${2:-}" == "-baseline" ]]; then
        baseline="${3:?ci.sh bench -baseline requires a BENCH_*.json path}"
        [[ -f "${baseline}" ]] || { echo "ci.sh: baseline ${baseline} not found" >&2; exit 2; }
    fi
    stamp="$(date -u +%Y%m%dT%H%M%SZ)"
    out="BENCH_${stamp}.json"
    echo "==> go test -bench (single iteration) -> ${out}"
    go test -json -run '^$' -bench . -benchtime=1x -benchmem ./... > "${out}"
    echo "ci.sh: benchmark snapshot written to ${out}"
    metrics="METRICS_${stamp}.json"
    tl="TIMELINE_${stamp}.json"
    prov="PROV_${stamp}.json"
    phase="PHASE_${stamp}.json"
    echo "==> lvaexp -metrics -timeline -manifest -phase (registry + timeline + provenance + phases) -> ${metrics}, ${tl}, ${prov}, ${phase}"
    go run ./cmd/lvaexp -metrics "${metrics}" -timeline "${tl}" -manifest "${prov}" -phase "${phase}" all > /dev/null
    echo "ci.sh: metrics snapshot written to ${metrics}"
    echo "ci.sh: run timeline written to ${tl} (open at https://ui.perfetto.dev)"
    echo "ci.sh: provenance manifest written to ${prov}"
    echo "ci.sh: phase-observatory snapshot written to ${phase}"
    # Blocking audit gate: the manifest must parse against the schema and
    # its per-route record counts must reconcile exactly with the embedded
    # trace-store counters. A failure means an engine path evaluated a
    # design point without emitting (or mis-attributing) its provenance.
    step go run ./cmd/lvareport -provenance "${prov}"
    # BENCHDIFF_FLAGS=-warn-only turns the gate advisory (escape hatch).
    if [[ -n "${baseline}" ]]; then
        echo "==> benchdiff ${baseline} -> ${out}"
        # shellcheck disable=SC2086
        go run ./cmd/benchdiff ${BENCHDIFF_FLAGS:-} "${baseline}" "${out}"
    else
        # No explicit baseline: benchdiff picks the newest committed
        # BENCH_*.json itself (and skips cleanly when none exists yet).
        echo "==> benchdiff <auto> -> ${out}"
        # shellcheck disable=SC2086
        go run ./cmd/benchdiff ${BENCHDIFF_FLAGS:-} "${out}"
    fi
    exit 0
fi

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

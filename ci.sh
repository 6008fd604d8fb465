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
#   leftovers — test and race run with TMPDIR pointed at a fresh directory;
#            any lva-grid-* trace store or lva-cli-* build directory left in
#            it afterwards fails the gate
#   bench module — go vet ./... && go test ./... inside lvabench/ (a nested
#            module, so the root ./... never reaches it)
#
# Wall time, CPU time and allocations are measured by the repository
# benchmark, lvabench (`bash lvabench/run.sh --workload W`, see
# lvabench/README.md), on a change and on its parent; the micro-benchmarks
# in bench_test.go are developer tools and gate nothing.
#
# Tier-1 (the minimum every PR must keep green) is build + test; the other
# steps are the determinism/validation gate this repo's results depend on.
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo "==> $*"
    "$@"
}

# The full gate takes no arguments; refuse any (a retired `bench` mode
# included) rather than quietly running the whole gate instead.
if [[ $# -gt 0 ]]; then
    echo "ci.sh: unknown argument '$1' (./ci.sh takes none)" >&2
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
# The tests run with a private TMPDIR so that anything a test or a CLI it
# drives leaves behind there can be seen: trace stores (lva-grid-*) and CLI
# build directories (lva-cli-*) must be removed by whoever made them.
test_tmp="$(mktemp -d)"
step env TMPDIR="${test_tmp}" go test ./...
# The race pass needs headroom past go test's default 10m per-package
# timeout: single-core CI boxes run the experiment regenerations under the
# detector's 5-10x slowdown.
step env TMPDIR="${test_tmp}" go test -race -timeout 20m ./...
echo "==> leftovers in the tests' TMPDIR"
leftovers="$(find "${test_tmp}" -mindepth 1 -maxdepth 1 \( -name 'lva-grid-*' -o -name 'lva-cli-*' \))"
if [[ -n "${leftovers}" ]]; then
    echo "ci.sh: tests left these behind in ${test_tmp}:" >&2
    echo "${leftovers}" >&2
    exit 1
fi
rm -rf "${test_tmp}"
# lvabench has its own go.mod, so the root ./... above skips it; its tests
# check the golden-cell, count-ledger and metric-table logic.
(cd lvabench && step go vet ./... && step go test ./...)
echo "ci.sh: all checks passed"

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// obshooksAnalyzer guards how the simulator hot paths are observed. The
// packages on the per-load/per-miss path (memsim, cache, core) must stay
// deterministic and carry no observation cost of their own, so inside them:
//
//   - time.Now is forbidden: wall-clock reads do not belong on a simulated
//     path (timing metrics live in the experiment engine's volatile
//     histograms), and a stray one is usually a debugging leftover.
//   - mutating a package-level variable is forbidden: a simulator counts
//     its events in its own Stats, which the experiment engine adds to
//     its engine metrics once per run; an ad-hoc global races under the
//     cross-figure scheduler.
//
// The attribution flight recorder (lva/internal/obs/attr) is itself wired
// into the annotated-load path through a nil-pointer seam, so it obeys the
// same rules plus one more: no calls into package fmt anywhere in it —
// formatting boxes operands and its snapshot layer must stay encoding/json
// + strconv only.
//
// Test files are exempt, as is anything acknowledged with //lint:ignore.
var obshooksAnalyzer = &Analyzer{
	Name: "obshooks",
	Doc:  "forbid time.Now and package-level counter mutation in simulator hot-path packages; count events in per-simulator Stats",
	Run:  runObshooks,
}

// hotPathPkgs are the packages on the per-load simulation path. The trace
// package is here for its grid capture sink: (*GridWriter).Access runs on
// every access of a recording run. prefetch runs on every miss of a
// prefetch-attached memsim. fullsys, noc and coherence are the phase-2
// per-access path.
var hotPathPkgs = map[string]bool{
	"lva/internal/memsim":    true,
	"lva/internal/cache":     true,
	"lva/internal/core":      true,
	"lva/internal/prefetch":  true,
	"lva/internal/obs/attr":  true,
	"lva/internal/obs/prov":  true,
	"lva/internal/trace":     true,
	"lva/internal/fullsys":   true,
	"lva/internal/noc":       true,
	"lva/internal/coherence": true,
}

// attrSeamPkgs additionally ban fmt outright (not just in hot-named
// functions, as hotpath does): the flight recorder is linked into every
// simulator build and must never grow a formatting dependency.
var attrSeamPkgs = map[string]bool{
	"lva/internal/obs/attr": true,
	"lva/internal/obs/prov": true,
}

func runObshooks(p *Pass) {
	// Unlike the repo-wide analyzers, obshooks targets a few named
	// packages, so only its own fixtures opt in (the shared fixtures
	// legitimately use time.Now for other analyzers).
	if !hotPathPkgs[p.Pkg.Path] &&
		!(isFixturePath(p.Pkg.Path) && strings.Contains(p.Pkg.Path, "obshooks")) {
		return
	}
	banFmt := attrSeamPkgs[p.Pkg.Path] ||
		(isFixturePath(p.Pkg.Path) && strings.Contains(p.Pkg.Path, "obshooks_attr"))
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if p.InTestFile(n.Pos()) {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if isTimeNow(p, n) {
					p.Reportf(n.Pos(), "time.Now on a simulator hot path: wall-clock timing belongs in the experiment engine's volatile obs histograms")
				}
				if banFmt && isFmtCall(p, n) {
					p.Reportf(n.Pos(), "call into package fmt in the attribution seam: the flight recorder rides the annotated-load path; render with encoding/json or strconv instead")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportGlobalMutation(p, n.Pos(), lhs)
				}
			case *ast.IncDecStmt:
				reportGlobalMutation(p, n.Pos(), n.X)
			}
			return true
		})
	}
}

// reportGlobalMutation flags writes whose root identifier is a
// package-level variable of the package under analysis.
func reportGlobalMutation(p *Pass, pos token.Pos, e ast.Expr) {
	id, ok := unwrapIdentExpr(e)
	if !ok {
		return
	}
	v, ok := p.Pkg.Info.ObjectOf(id).(*types.Var)
	if !ok || v.Parent() != p.Pkg.Types.Scope() {
		return
	}
	p.Reportf(pos, "mutation of package-level %s in a hot-path package: count events in the simulator's own Stats, which the experiment engine adds to its engine metrics once per run", v.Name())
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// libraryPkgs are the reusable model packages where a stray panic takes
// down a whole sweep: new code there should return errors. Driver-style
// packages (experiments, cmd, examples) are exempt.
var libraryPkgs = map[string]bool{
	"lva/internal/cache":     true,
	"lva/internal/coherence": true,
	"lva/internal/core":      true,
	"lva/internal/dram":      true,
	"lva/internal/energy":    true,
	"lva/internal/fullsys":   true,
	"lva/internal/isa":       true,
	"lva/internal/memsim":    true,
	"lva/internal/noc":       true,
	"lva/internal/obs/attr":  true,
	"lva/internal/obs/prov":  true,
	"lva/internal/prefetch":  true,
	"lva/internal/stats":     true,
	"lva/internal/trace":     true,
	"lva/internal/value":     true,
	"lva/internal/workloads": true,
}

// nopanicAnalyzer flags panic calls in library packages unless the
// enclosing function's doc comment documents the panic contract (the
// constructors validate fixed experiment parameters and deliberately panic;
// everything else should return an error). The allowlist is therefore
// anchored to documented, tested contracts rather than reviewer memory.
var nopanicAnalyzer = &Analyzer{
	Name: "nopanic",
	Doc:  "library packages must not panic unless the function documents the panic contract",
	Run:  runNopanic,
}

func runNopanic(p *Pass) {
	if !libraryPkgs[p.Pkg.Path] && !isFixturePath(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			documented := fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
			if documented {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); !builtin {
					return true
				}
				p.Reportf(call.Pos(), "panic in library code path %s: return an error, or document the panic contract in the function comment", fd.Name.Name)
				return true
			})
		}
	}
}

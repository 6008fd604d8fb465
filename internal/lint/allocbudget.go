package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// allocbudgetAnalyzer asserts the compiler-verified hot-path budgets: the
// per-load functions PR-4 flattened (Probe, Touch, OnMiss, OnLoad, record,
// the attr hooks) must remain inlinable within a committed cost ceiling
// and must not acquire heap allocations or heap-escaping parameters. The
// analyzer shells out to `go build -gcflags='-m -m'` for each budgeted
// package, parses the compiler's own inlining and escape diagnostics, and
// diffs them against internal/lint/testdata/hotpath_budget.json — so a
// refactor that quietly pushes Probe past the inliner's budget, or adds a
// fmt call that makes a receiver escape, fails lint with the compiler's
// reason attached instead of surfacing weeks later as a Table 1 slowdown.
//
// The build cache replays -m diagnostics, so repeat runs cost milliseconds.
// The budget is stamped with the Go release that produced it; on any other
// toolchain the analyzer skips (costs shift between releases), and
// LVALINT_SKIP=allocbudget turns it off outright. Regenerate the budget
// after an intentional hot-path change with `go run ./cmd/lvalint
// -regen-budget` (see EXPERIMENTS.md).
var allocbudgetAnalyzer = &Analyzer{
	Name: "allocbudget",
	Doc:  "hot-path functions must match the committed inlining/escape budget (compiler-verified via -gcflags='-m -m')",
	Run:  runAllocbudget,
}

// budgetRelPath locates the committed budget below the module root.
const budgetRelPath = "internal/lint/testdata/hotpath_budget.json"

// funcBudget is the committed contract for one function.
type funcBudget struct {
	// Inline requires the compiler to report the function inlinable.
	Inline bool `json:"inline,omitempty"`
	// MaxCost caps the reported inline cost; 0 means "any cost the
	// inliner accepts". The inliner's own ceiling is 80, so MaxCost is
	// headroom *below* that: tripping it warns before inlining is lost.
	MaxCost int `json:"maxCost,omitempty"`
	// NoEscape forbids heap diagnostics inside the function: no value
	// escaping to the heap, no local moved to heap, no parameter leaking
	// to the heap (leaks *to result* are borrow-shaped and allowed).
	NoEscape bool `json:"noEscape,omitempty"`
}

// budgetFile is the on-disk schema of hotpath_budget.json.
type budgetFile struct {
	// Go is the go1.N release the costs were recorded under; the analyzer
	// only runs when the current toolchain matches, because inline costs
	// and escape verdicts shift between compiler releases.
	Go string `json:"go"`
	// Comment is schema documentation carried in the file itself.
	Comment string `json:"comment,omitempty"`
	// Packages maps import path -> compiler-style function name
	// ("(*Cache).Probe", "Config.Validate", "New") -> contract.
	Packages map[string]map[string]funcBudget `json:"packages"`
}

// goRelease trims a runtime version like "go1.24.0" to its release,
// "go1.24", the granularity inline costs are stable at.
func goRelease(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// escDiag is one heap diagnostic attributed to a source line.
type escDiag struct {
	file string // path relative to the module root
	line int
	msg  string
}

// pkgDiag is the parsed compiler output for one package directory.
type pkgDiag struct {
	inlineCost map[string]int    // function -> reported inline cost
	notInline  map[string]string // function -> compiler's refusal reason
	escapes    []escDiag
	err        error
}

var (
	budgetCache sync.Map // module root -> *budgetFile or error string
	gcDiagCache sync.Map // package dir -> *pkgDiag
)

// loadBudget reads and caches the committed budget for the module that
// contains dir.
func loadBudget(dir string) (*budgetFile, string, error) {
	modRoot, err := FindModuleRoot(dir)
	if err != nil {
		return nil, "", err
	}
	if v, ok := budgetCache.Load(modRoot); ok {
		if b, ok := v.(*budgetFile); ok {
			return b, modRoot, nil
		}
		return nil, modRoot, fmt.Errorf("%s", v.(string))
	}
	data, err := os.ReadFile(filepath.Join(modRoot, budgetRelPath))
	if err != nil {
		budgetCache.Store(modRoot, err.Error())
		return nil, modRoot, err
	}
	var b budgetFile
	if err := json.Unmarshal(data, &b); err != nil {
		err = fmt.Errorf("parsing %s: %w", budgetRelPath, err)
		budgetCache.Store(modRoot, err.Error())
		return nil, modRoot, err
	}
	budgetCache.Store(modRoot, &b)
	return &b, modRoot, nil
}

// gcDiagLine splits "file:line:col: msg"; returns ok=false for anything
// else (build banners, package lines).
func gcDiagLine(s string) (file string, line int, msg string, ok bool) {
	i := strings.Index(s, ": ")
	if i < 0 {
		return "", 0, "", false
	}
	pos, msg := s[:i], s[i+2:]
	parts := strings.Split(pos, ":")
	if len(parts) < 3 {
		return "", 0, "", false
	}
	line, err := strconv.Atoi(parts[len(parts)-2])
	if err != nil {
		return "", 0, "", false
	}
	return strings.Join(parts[:len(parts)-2], ":"), line, msg, true
}

// leakingParamRe matches only the bare "leaking param: x" form — the one
// that means the parameter itself reaches the heap. "leaking param: x to
// result ~r0" (a borrow) and "leaking param content: x" (pointee reachable
// from the heap, inevitable for pointer receivers that write through
// themselves) are allowed.
var leakingParamRe = regexp.MustCompile(`^leaking param: [A-Za-z_][A-Za-z0-9_.]*$`)

// gcDiagFor runs `go build -gcflags='-m -m'` on the package in dir (from
// the module root, so diagnostic paths come back root-relative) and parses
// the inlining and escape summaries. Results are cached per directory; the
// go build cache makes even the first run cheap when nothing changed.
func gcDiagFor(modRoot, dir string) *pkgDiag {
	if v, ok := gcDiagCache.Load(dir); ok {
		return v.(*pkgDiag)
	}
	d := &pkgDiag{inlineCost: make(map[string]int), notInline: make(map[string]string)}
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		d.err = err
		gcDiagCache.Store(dir, d)
		return d
	}
	relSlash := filepath.ToSlash(rel)
	cmd := exec.Command("go", "build", "-gcflags=-m -m", "./"+relSlash)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		d.err = fmt.Errorf("go build -gcflags='-m -m' ./%s: %v\n%s", relSlash, err, strings.TrimSpace(string(out)))
		gcDiagCache.Store(dir, d)
		return d
	}
	for _, raw := range strings.Split(string(out), "\n") {
		file, line, msg, ok := gcDiagLine(raw)
		if !ok || strings.HasPrefix(msg, " ") {
			continue // verbose flow-detail lines are indented; skip them
		}
		// Only diagnostics for the package's own files; -m also reports
		// generic instantiations with stdlib positions.
		if !strings.HasPrefix(file, relSlash+"/") && filepath.Dir(file) != relSlash {
			continue
		}
		switch {
		case strings.HasPrefix(msg, "can inline "):
			rest := strings.TrimPrefix(msg, "can inline ")
			name, costPart, ok := strings.Cut(rest, " with cost ")
			if !ok {
				continue
			}
			costStr, _, _ := strings.Cut(costPart, " ")
			if cost, err := strconv.Atoi(costStr); err == nil {
				d.inlineCost[name] = cost
			}
		case strings.HasPrefix(msg, "cannot inline "):
			rest := strings.TrimPrefix(msg, "cannot inline ")
			if name, reason, ok := strings.Cut(rest, ": "); ok {
				d.notInline[name] = reason
			}
		case strings.HasSuffix(msg, " escapes to heap"),
			strings.HasPrefix(msg, "moved to heap: "),
			leakingParamRe.MatchString(msg):
			// "leaking param: x to result ..." is a borrow and fine;
			// the bare form means the parameter itself reaches the heap.
			d.escapes = append(d.escapes, escDiag{file: file, line: line, msg: msg})
		}
	}
	gcDiagCache.Store(dir, d)
	return d
}

// compilerFuncName renders a declaration the way -m diagnostics name it:
// "(*Cache).Probe" for pointer receivers, "Config.Validate" for value
// receivers, "New" for plain functions.
func compilerFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch t := ast.Unparen(fd.Recv.List[0].Type).(type) {
	case *ast.StarExpr:
		if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// inAllocbudgetScope reports whether the package carries a budget.
func inAllocbudgetScope(path string) bool {
	return hotPathPkgs[path] || (isFixturePath(path) && strings.Contains(path, "allocbudget"))
}

func runAllocbudget(p *Pass) {
	if !inAllocbudgetScope(p.Pkg.Path) {
		return
	}
	anchor := p.Pkg.Files[0].Name.Pos()
	budget, modRoot, err := loadBudget(p.Pkg.Dir)
	if err != nil {
		p.Reportf(anchor, "cannot load hot-path budget: %v", err)
		return
	}
	entries := budget.Packages[p.Pkg.Path]
	if len(entries) == 0 {
		p.Reportf(anchor, "package is on the hot path but has no entry in %s: budget its per-load functions or drop it from the hot-path set", budgetRelPath)
		return
	}
	// Inline costs and escape verdicts are compiler-release-specific; a
	// different toolchain than the one the budget was recorded under would
	// only produce noise. (CI pins the matching release; LVALINT_SKIP=
	// allocbudget is the local escape hatch.)
	if goRelease(runtime.Version()) != budget.Go {
		return
	}
	diag := gcDiagFor(modRoot, p.Pkg.Dir)
	if diag.err != nil {
		p.Reportf(anchor, "cannot collect compiler diagnostics: %v", diag.err)
		return
	}

	// Locate each budgeted function's declaration and span.
	type span struct {
		decl     *ast.FuncDecl
		file     string // module-root-relative path
		from, to int
	}
	decls := make(map[string]span)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start := p.Fset.Position(fd.Pos())
			end := p.Fset.Position(fd.End())
			rel, err := filepath.Rel(modRoot, start.Filename)
			if err != nil {
				rel = start.Filename
			}
			decls[compilerFuncName(fd)] = span{decl: fd, file: filepath.ToSlash(rel), from: start.Line, to: end.Line}
		}
	}

	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fb := entries[name]
		sp, ok := decls[name]
		if !ok {
			p.Reportf(anchor, "budget entry %q names no function in this package: update %s (go run ./cmd/lvalint -regen-budget)", name, budgetRelPath)
			continue
		}
		if fb.Inline {
			if reason, bad := diag.notInline[name]; bad {
				p.Reportf(sp.decl.Pos(), "%s must stay inlinable but the compiler refuses: %s (budgeted in %s; if the change is intentional, rework it until the cost fits or re-budget deliberately)", name, reason, budgetRelPath)
			} else if cost, seen := diag.inlineCost[name]; !seen {
				p.Reportf(sp.decl.Pos(), "%s is budgeted inlinable but the compiler emitted no inlining verdict for it", name)
			} else if fb.MaxCost > 0 && cost > fb.MaxCost {
				p.Reportf(sp.decl.Pos(), "%s inline cost %d exceeds its budget of %d (inliner ceiling is 80): trim it, or regenerate the budget if the growth is deliberate (go run ./cmd/lvalint -regen-budget)", name, cost, fb.MaxCost)
			}
		}
		if fb.NoEscape {
			for _, e := range diag.escapes {
				if e.file == sp.file && e.line >= sp.from && e.line <= sp.to {
					p.Reportf(sp.decl.Pos(), "%s must not allocate, but the compiler reports %q at %s:%d: per-load heap traffic undoes the PR-4 flattening", name, e.msg, e.file, e.line)
				}
			}
			reportMapBuilds(p, sp.decl, name)
		}
	}
}

// reportMapBuilds flags every map a NoEscape function builds. A map that
// does not escape gets no compiler diagnostic, because its first group
// lives on the stack, but the map moves to the heap as soon as it
// outgrows that group.
func reportMapBuilds(p *Pass, fd *ast.FuncDecl, name string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && buildsMap(p, e) {
			p.Reportf(e.Pos(), "%s must not allocate, but builds a map here: a map moves to the heap once it outgrows its first group, with no escape diagnostic", name)
		}
		return true
	})
}

// buildsMap reports whether e is a map composite literal or a make of a
// map.
func buildsMap(p *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		if _, ok := p.Pkg.Info.Uses[id].(*types.Builtin); !ok {
			return false
		}
	default:
		return false
	}
	tv, ok := p.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// RegenerateBudget re-records the committed budget from the current
// compiler's diagnostics: for every budgeted function that the compiler
// reports inlinable, MaxCost becomes the observed cost plus ~25% headroom
// (at least 8, capped at the inliner's ceiling of 80), and the file is
// restamped with the running Go release. The set of tracked functions and
// their NoEscape bits are contracts, not observations — they are preserved
// as-is. Returns the path written.
func RegenerateBudget(modRoot string) (string, error) {
	path := filepath.Join(modRoot, budgetRelPath)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var b budgetFile
	if err := json.Unmarshal(data, &b); err != nil {
		return "", fmt.Errorf("parsing %s: %w", path, err)
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	pkgs := make([]string, 0, len(b.Packages))
	for p := range b.Packages {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, pkgPath := range pkgs {
		rest, ok := strings.CutPrefix(pkgPath, modPath+"/")
		if !ok {
			return "", fmt.Errorf("budget package %s is outside module %s", pkgPath, modPath)
		}
		dir := filepath.Join(modRoot, filepath.FromSlash(rest))
		diag := gcDiagFor(modRoot, dir)
		if diag.err != nil {
			return "", diag.err
		}
		for name, fb := range b.Packages[pkgPath] {
			if !fb.Inline {
				continue
			}
			cost, ok := diag.inlineCost[name]
			if !ok {
				continue // currently not inlinable; keep the old ceiling as the target
			}
			head := cost / 4
			if head < 8 {
				head = 8
			}
			fb.MaxCost = cost + head
			if fb.MaxCost > 80 {
				fb.MaxCost = 80
			}
			b.Packages[pkgPath][name] = fb
		}
	}
	b.Go = goRelease(runtime.Version())
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return "", err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

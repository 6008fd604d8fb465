package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one Loader (and thus one type-checked stdlib) across
// all tests in this package.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		cwd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, err := FindModuleRoot(cwd)
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("building loader: %v", loaderErr)
	}
	return loader
}

// loadFixture loads one testdata package and fails the test on type errors:
// a fixture that does not compile tests nothing.
func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join(l.ModDir(), "internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	return pkg
}

// wantLines extracts the `// want:<analyzer>` markers from a fixture.
func wantLines(l *Loader, pkg *Package, analyzer string) map[int]bool {
	want := make(map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(text, "want:"); ok && strings.TrimSpace(rest) == analyzer {
					want[l.Fset().Position(c.Pos()).Line] = true
				}
			}
		}
	}
	return want
}

func lineSet(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestFixtures runs each analyzer over its bad and good fixture packages
// and requires the findings to match the `// want:<analyzer>` markers
// exactly — every bad case flagged, every good case silent.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer string
		bad      bool
	}{
		{"seedrand_bad", "seedrand", true},
		{"seedrand_good", "seedrand", false},
		{"cfgvalidate_bad", "cfgvalidate", true},
		{"cfgvalidate_good", "cfgvalidate", false},
		{"nopanic_bad", "nopanic", true},
		{"nopanic_good", "nopanic", false},
		{"loopcapture_bad", "loopcapture", true},
		{"loopcapture_good", "loopcapture", false},
		{"detfloat_bad", "detfloat", true},
		{"detfloat_good", "detfloat", false},
		{"obshooks_bad", "obshooks", true},
		{"obshooks_good", "obshooks", false},
		{"obshooks_attr_bad", "obshooks", true},
		{"obshooks_attr_good", "obshooks", false},
		{"hotpath_bad", "hotpath", true},
		{"hotpath_good", "hotpath", false},
		{"mapiter_bad", "mapiter", true},
		{"mapiter_good", "mapiter", false},
		{"detsync_bad", "detsync", true},
		{"detsync_good", "detsync", false},
		{"detsync_hot_bad", "detsync", true},
		{"detsync_hot_good", "detsync", false},
		{"allocbudget_bad", "allocbudget", true},
		{"allocbudget_good", "allocbudget", false},
	}
	l := testLoader(t)
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			if tc.analyzer == "allocbudget" && !allocbudgetToolchainMatches(t, l) {
				t.Skipf("budget recorded under a different Go release; allocbudget skips itself")
			}
			a := AnalyzerByName(tc.analyzer)
			if a == nil {
				t.Fatalf("no analyzer named %q", tc.analyzer)
			}
			pkg := loadFixture(t, l, tc.dir)
			want := wantLines(l, pkg, tc.analyzer)
			if tc.bad && len(want) == 0 {
				t.Fatalf("bad fixture %s has no want markers", tc.dir)
			}
			if !tc.bad && len(want) != 0 {
				t.Fatalf("good fixture %s has want markers", tc.dir)
			}
			got := make(map[int]bool)
			for _, f := range Unsuppressed(Run(l.Fset(), []*Package{pkg}, []*Analyzer{a})) {
				if f.Analyzer != tc.analyzer {
					t.Errorf("unexpected %s finding in %s: %s", f.Analyzer, tc.dir, f)
					continue
				}
				got[f.Pos.Line] = true
			}
			for line := range want {
				if !got[line] {
					t.Errorf("%s: expected %s finding on line %d, got none", tc.dir, tc.analyzer, line)
				}
			}
			for line := range got {
				if !want[line] {
					t.Errorf("%s: unexpected %s finding on line %d", tc.dir, tc.analyzer, line)
				}
			}
			if t.Failed() {
				t.Logf("want lines %v, got lines %v", lineSet(want), lineSet(got))
			}
		})
	}
}

// allocbudgetToolchainMatches reports whether the committed budget was
// recorded under the running Go release; when it was not, the analyzer
// deliberately no-ops and its fixtures cannot fire.
func allocbudgetToolchainMatches(t *testing.T, l *Loader) bool {
	t.Helper()
	budget, _, err := loadBudget(l.ModDir())
	if err != nil {
		t.Fatalf("loading budget: %v", err)
	}
	return budget.Go == goRelease(runtime.Version())
}

// TestSuppression checks the //lint:ignore mechanism end to end: valid
// suppressions (line-above and same-line) cancel findings and carry their
// reasons; a reason-less suppression is not honored and is itself reported.
func TestSuppression(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "suppressed")
	findings := Run(l.Fset(), []*Package{pkg}, Analyzers())

	var suppressed, unsuppressed, malformed []Finding
	for _, f := range findings {
		switch {
		case f.Suppressed:
			suppressed = append(suppressed, f)
		case f.Analyzer == "lint":
			malformed = append(malformed, f)
		default:
			unsuppressed = append(unsuppressed, f)
		}
	}
	if len(suppressed) != 2 {
		t.Errorf("want 2 suppressed seedrand findings, got %d: %v", len(suppressed), suppressed)
	}
	for _, f := range suppressed {
		if f.Analyzer != "seedrand" || f.SuppressReason == "" {
			t.Errorf("suppressed finding missing analyzer/reason: %+v", f)
		}
	}
	if len(malformed) != 1 {
		t.Errorf("want 1 malformed-suppression finding, got %d: %v", len(malformed), malformed)
	}
	want := wantLines(l, pkg, "nopanic")
	if len(unsuppressed) != len(want) {
		t.Errorf("want %d unsuppressed findings, got %d: %v", len(want), len(unsuppressed), unsuppressed)
	}
	for _, f := range unsuppressed {
		if f.Analyzer != "nopanic" || !want[f.Pos.Line] {
			t.Errorf("unexpected unsuppressed finding: %s", f)
		}
	}
}

// TestSuppressionHygiene checks the rules that keep //lint:ignore honest
// beyond the malformed case: a suppression whose analyzer ran but matched
// nothing is reported stale, and a typo'd analyzer name is reported
// instead of silently suppressing nothing.
func TestSuppressionHygiene(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "suppressed_stale")
	var stale, unknown, other []Finding
	for _, f := range Unsuppressed(Run(l.Fset(), []*Package{pkg}, Analyzers())) {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "stale"):
			stale = append(stale, f)
		case f.Analyzer == "lint" && strings.Contains(f.Message, "unknown analyzer"):
			unknown = append(unknown, f)
		default:
			other = append(other, f)
		}
	}
	if len(stale) != 1 {
		t.Errorf("want 1 stale-suppression finding, got %d: %v", len(stale), stale)
	}
	if len(unknown) != 1 {
		t.Errorf("want 1 unknown-analyzer finding, got %d: %v", len(unknown), unknown)
	}
	if len(other) != 0 {
		t.Errorf("unexpected findings in hygiene fixture: %v", other)
	}
}

// TestSelfClean is the gate future PRs must keep green: the full analyzer
// suite over every package in the repository reports zero unsuppressed
// findings. EnabledAnalyzers honors LVALINT_SKIP, mirroring what ci.sh
// actually runs on machines whose toolchain cannot satisfy allocbudget.
func TestSelfClean(t *testing.T) {
	l := testLoader(t)
	dirs, err := ExpandPatterns(l.ModDir(), []string{"./..."})
	if err != nil {
		t.Fatalf("expanding ./...: %v", err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the whole repo, got only %d packages", len(pkgs))
	}
	for _, f := range Unsuppressed(Run(l.Fset(), pkgs, EnabledAnalyzers())) {
		t.Errorf("unsuppressed finding: %s", f)
	}
	checkPackageTables(t, l, pkgs)
}

// checkPackageTables fails on a package-scope entry that names no package:
// an analyzer table or hot-path budget entry left behind by a deleted
// package polices nothing, yet reads as coverage. Repo paths are checked
// against pkgs (the ./... walk), fixture budget keys against the testdata
// walk.
func checkPackageTables(t *testing.T, l *Loader, pkgs []*Package) {
	t.Helper()
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	fixtureDirs, err := ExpandPatterns(l.ModDir(), []string{"./internal/lint/testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	fixtures := make(map[string]bool, len(fixtureDirs))
	for _, dir := range fixtureDirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[path] = true
	}
	stale := func(where string, paths map[string]bool) {
		for _, path := range sortedKeys(paths) {
			known := loaded
			if isFixturePath(path) {
				known = fixtures
			}
			if !known[path] {
				t.Errorf("%s names %s, which is no package of the module: drop the entry with the package", where, path)
			}
		}
	}
	stale("hotPathPkgs", hotPathPkgs)
	stale("attrSeamPkgs", attrSeamPkgs)
	stale("libraryPkgs", libraryPkgs)
	stale("configTypePkgs", configTypePkgs)
	stale("detsyncScopePkgs", detsyncScopePkgs)

	budget, _, err := loadBudget(l.ModDir())
	if err != nil {
		t.Fatal(err)
	}
	budgeted := make(map[string]bool, len(budget.Packages))
	for path := range budget.Packages {
		budgeted[path] = true
	}
	stale(budgetRelPath, budgeted)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestExpandPatternsTestdata checks that explicit testdata patterns are
// honored (the fixtures must be reachable by the CLI) while plain walks
// skip testdata.
func TestExpandPatternsTestdata(t *testing.T) {
	l := testLoader(t)
	all, err := ExpandPatterns(l.ModDir(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range all {
		if strings.Contains(d, "testdata") {
			t.Errorf("./... walk included testdata dir %s", d)
		}
	}
	fixtures, err := ExpandPatterns(l.ModDir(), []string{"./internal/lint/testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) < 10 {
		t.Errorf("testdata walk found only %d fixture dirs", len(fixtures))
	}
}

package lva_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lva/internal/experiments"
)

// CLI integration tests: build the commands once and drive them end to end
// through their real entry points. Skipped under -short.

var (
	cliBin = map[string]string{}
	cliDir string
	// bundles are the run bundles observedFig12 wrote, kept in cliDir.
	bundles [2]string
)

// TestMain removes the directory buildCLI built the commands (and
// observedFig12 its bundles) into, and the per-process trace store of the
// figures this package runs in-process, once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if cliDir != "" {
		os.RemoveAll(cliDir)
	}
	experiments.ResetRunCache()
	os.Exit(code)
}

func buildCLI(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	if p, ok := cliBin[name]; ok {
		return p
	}
	if cliDir == "" {
		// Binaries are shared across tests, so they must outlive any one
		// test's TempDir; TestMain removes them.
		d, err := os.MkdirTemp("", "lva-cli-")
		if err != nil {
			t.Fatal(err)
		}
		cliDir = d
	}
	// The test cache keys on the files a test opens, and the child go build
	// below opens nothing on the test's behalf. Reading the command's
	// sources makes an edit under cmd/<name> rerun these tests instead of
	// reporting a cached pass for the old binary; the root package's own
	// dependencies cover every other package the command imports.
	srcs, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for cmd/%s: %v", name, err)
	}
	for _, src := range srcs {
		if _, err := os.ReadFile(src); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(cliDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	cliBin[name] = bin
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	return runCLIEnv(t, nil, bin, args...)
}

// runCLIEnv is runCLI with env (KEY=value entries) added to the
// inherited environment.
func runCLIEnv(t *testing.T, env []string, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestLvaexpJSON(t *testing.T) {
	bin := buildCLI(t, "lvaexp")
	out, _, err := runCLI(t, bin, "-format", "json", "fig12")
	if err != nil {
		t.Fatalf("lvaexp: %v", err)
	}
	var fig struct {
		ID     string `json:"id"`
		Series []struct {
			Label  string    `json:"label"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &fig); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if fig.ID != "fig12" || len(fig.Series) == 0 || len(fig.Series[0].Values) != 7 {
		t.Fatalf("unexpected figure: %+v", fig)
	}
}

// TestLvaexpUnknownExperiment feeds lvaexp arguments it cannot use,
// including an output file it cannot create: each must exit 2 with its
// message before anything simulates, so the trace store it points at stays
// empty.
func TestLvaexpUnknownExperiment(t *testing.T) {
	bin := buildCLI(t, "lvaexp")
	unwritable := filepath.Join(t.TempDir(), "missing", "m.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"nosuch"}, `lvaexp: unknown experiment "nosuch"`},
		{[]string{"-format", "xml", "table1"}, `lvaexp: unknown format "xml"`},
		{[]string{"-observe", unwritable, "fig12"}, "lvaexp: -observe: open " + unwritable},
	}
	for _, c := range cases {
		store := t.TempDir()
		_, stderr, err := runCLIEnv(t, []string{"LVA_TRACE_DIR=" + store}, bin, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", c.args, err)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr = %q, want %q", c.args, stderr, c.want)
		}
		if left, err := os.ReadDir(store); err != nil || len(left) != 0 {
			t.Errorf("%v: trace store holds %d entries (err %v), want none", c.args, len(left), err)
		}
	}
}

// TestLvaexpProgress checks -progress writes one line per finished figure
// to stderr and nothing else.
func TestLvaexpProgress(t *testing.T) {
	bin := buildCLI(t, "lvaexp")
	_, stderr, err := runCLI(t, bin, "-progress", "table1")
	if err != nil {
		t.Fatalf("lvaexp: %v\n%s", err, stderr)
	}
	if want := "lva: figure table1 done (1/1)\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
}

func TestLvasimSingleBenchmark(t *testing.T) {
	bin := buildCLI(t, "lvasim")
	out, _, err := runCLI(t, bin, "-bench", "swaptions", "-attach", "lva")
	if err != nil {
		t.Fatalf("lvasim: %v", err)
	}
	if !strings.Contains(out, "swaptions") || !strings.Contains(out, "lva") {
		t.Fatalf("output missing expected fields:\n%s", out)
	}
}

func TestLvasimRejectsOutOfRangeFlags(t *testing.T) {
	bin := buildCLI(t, "lvasim")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-attach", "prefetch", "-degree", "-1"}, "prefetch: degree must be >= 0, got -1"},
		{[]string{"-attach", "lva", "-degree", "-1"}, "core: approximation degree must be >= 0, got -1"},
		{[]string{"-attach", "lva", "-delay", "-3"}, "core: value delay must be >= 0, got -3"},
		{[]string{"-attach", "lva", "-ghb", "-2"}, "core: GHB size must be >= 0, got -2"},
		{[]string{"-attach", "lva", "-mantissa", "99"}, "core: mantissa loss must be in [0,23], got 99"},
		{[]string{"-attach", "lva", "-ghb", "100000000000"}, "core: GHB size must be <= 64, got 100000000000"},
		{[]string{"-attach", "lva", "-window", "NaN"}, "core: confidence window must be a number, got NaN"},
	}
	for _, c := range cases {
		_, stderr, err := runCLI(t, bin, append([]string{"-bench", "swaptions"}, c.args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", c.args, err)
		}
		// Go's fatal errors also exit 2, so the message decides.
		if !strings.Contains(stderr, "lvasim: "+c.want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "fatal error") {
			t.Errorf("%v: stderr = %q, want %q and no panic", c.args, stderr, "lvasim: "+c.want)
		}
	}
}

// TestLvadesignRejectsOutOfRangeFlags is lvasim's twin for the sweep
// lists: a bad approximator parameter exits 1 with lvadesign's message
// before anything simulates, never a crash.
func TestLvadesignRejectsOutOfRangeFlags(t *testing.T) {
	bin := buildCLI(t, "lvadesign")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-ghbs", "100000000000"}, "core: GHB size must be <= 64, got 100000000000"},
		{[]string{"-lhbs", "100000000000"}, "core: LHB size must be <= 64, got 100000000000"},
		{[]string{"-windows", "NaN"}, "core: confidence window must be a number, got NaN"},
	}
	for _, c := range cases {
		_, stderr, err := runCLI(t, bin, append([]string{"-bench", "swaptions", "-q"}, c.args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", c.args, err)
		}
		if !strings.Contains(stderr, "lvadesign: "+c.want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "fatal error") {
			t.Errorf("%v: stderr = %q, want %q and no panic", c.args, stderr, "lvadesign: "+c.want)
		}
	}
}

// recordSwaptions records swaptions' precise grid stream into a fresh
// directory with lvatrace record and returns the file's path.
func recordSwaptions(t *testing.T, bin string) string {
	t.Helper()
	dir := t.TempDir()
	out, stderr, err := runCLI(t, bin, "record", "-bench", "swaptions", "-dir", dir)
	if err != nil {
		t.Fatalf("record: %v\n%s%s", err, out, stderr)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.lvag"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("record left %v (err %v), want one .lvag file", paths, err)
	}
	return paths[0]
}

func TestLvatraceCaptureInfoReplay(t *testing.T) {
	bin := buildCLI(t, "lvatrace")
	path := recordSwaptions(t, bin)

	out, stderr, err := runCLI(t, bin, "stat", "-decode", path)
	if err != nil {
		t.Fatalf("stat: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "threads=4") || !strings.Contains(out, "approxLoads=") {
		t.Fatalf("stat output:\n%s", out)
	}

	out, stderr, err = runCLI(t, bin, "replay", "-degree", "4", path)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "lva degree 4") || !strings.Contains(out, "cycles=") {
		t.Fatalf("replay output:\n%s", out)
	}
}

// TestLvatraceReplayRejectsBadInput feeds replay files it cannot use: each
// must fail with exit status 1 and an lvatrace: message, never a panic.
func TestLvatraceReplayRejectsBadInput(t *testing.T) {
	bin := buildCLI(t, "lvatrace")
	path := recordSwaptions(t, bin)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	corrupt := append([]byte(nil), data...)
	copy(corrupt[8:16], bytes.Repeat([]byte{0xff}, 8)) // first chunk header; the footer still reads
	files := map[string][]byte{
		"truncated.lvag": data[:len(data)/2],
		"corrupt.lvag":   corrupt,
		"text.lvag":      []byte("this is a text file, not a grid recording\n"),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var cases [][]string
	for _, name := range []string{"truncated.lvag", "corrupt.lvag", "text.lvag", "missing.lvag"} {
		cases = append(cases, []string{filepath.Join(dir, name)})
	}
	// -1 is the documented precise setting; anything lower is a typo, not
	// another way to ask for a precise replay.
	cases = append(cases, []string{"-degree", "-5", path})
	for _, args := range cases {
		_, stderr, err := runCLI(t, bin, append([]string{"replay"}, args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", args, err)
		}
		if !strings.Contains(stderr, "lvatrace: ") || strings.Contains(stderr, "panic:") {
			t.Errorf("%v: stderr = %q, want an lvatrace: message and no panic", args, stderr)
		}
	}
}

func TestLvadesignCSV(t *testing.T) {
	bin := buildCLI(t, "lvadesign")
	out, _, err := runCLI(t, bin, "-bench", "swaptions", "-degrees", "0,4", "-q")
	if err != nil {
		t.Fatalf("lvadesign: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "benchmark,ghb,window,degree") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "swaptions,") {
			t.Fatalf("row = %q", l)
		}
	}
}

// observedFig12 runs lvaexp -observe fig12 in two fresh processes, once
// per test binary, and returns the two bundles' paths.
func observedFig12(t *testing.T) [2]string {
	t.Helper()
	bin := buildCLI(t, "lvaexp")
	if bundles[0] != "" {
		return bundles
	}
	var paths [2]string
	for i, name := range []string{"A.json", "B.json"} {
		paths[i] = filepath.Join(cliDir, name)
		if out, stderr, err := runCLI(t, bin, "-observe", paths[i], "fig12"); err != nil {
			t.Fatalf("lvaexp -observe: %v\n%s%s", err, out, stderr)
		}
	}
	bundles = paths
	return bundles
}

// readBundle reads a run bundle as raw top-level sections.
func readBundle(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("%s is not a JSON object: %v", path, err)
	}
	return raw
}

// TestLvaexpMetricsSnapshotStable runs the same experiment twice in fresh
// processes and requires their run bundles to be byte-identical outside
// the timeline: the deterministic sections are part of the repo's
// reproducibility surface. The metrics section must have counted.
func TestLvaexpMetricsSnapshotStable(t *testing.T) {
	paths := observedFig12(t)
	a, b := readBundle(t, paths[0]), readBundle(t, paths[1])
	for _, name := range []string{"displayTimeUnit", "version", "code", "metrics", "attribution", "provenance"} {
		if a[name] == nil {
			t.Errorf("bundle has no %s section", name)
		}
	}
	if len(a) != len(b) {
		t.Errorf("the two bundles have %d and %d sections", len(a), len(b))
	}
	for name, sec := range a {
		if name != "traceEvents" && !bytes.Equal(sec, b[name]) {
			t.Errorf("bundle section %s not byte-stable across runs:\n%.300s\n---\n%.300s", name, sec, b[name])
		}
	}
	var metrics []struct {
		Name  string `json:"name"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(a["metrics"], &metrics); err != nil {
		t.Fatalf("metrics section is not a metric list: %v\n%s", err, a["metrics"])
	}
	counts := map[string]uint64{}
	for _, m := range metrics {
		counts[m.Name] = m.Count
	}
	for _, name := range []string{"memsim_load_misses", "core_trainings", "runcache_simulated"} {
		if counts[name] == 0 {
			t.Errorf("metric %s is zero:\n%s", name, a["metrics"])
		}
	}
	if _, volatile := counts["run_wall_seconds"]; volatile {
		t.Error("deterministic metrics section leaked a volatile timing histogram")
	}
}

// TestCLIsRemoveTheirTraceStore runs lvaexp and lvareport without
// LVA_TRACE_DIR, so each records into a per-process trace store under
// $TMPDIR, and requires that store to be gone once the process exits.
func TestCLIsRemoveTheirTraceStore(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"lvaexp", []string{"-v", "fig12"}},
		{"lvareport", []string{"-only", "fig12"}},
	} {
		bin := buildCLI(t, c.name)
		tmp := t.TempDir()
		out, stderr, err := runCLIEnv(t, []string{"TMPDIR=" + tmp, "LVA_TRACE_DIR="}, bin, c.args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s%s", c.name, err, out, stderr)
		}
		if c.name == "lvaexp" && !regexp.MustCompile(`grid traces: [1-9][0-9]* recorded`).MatchString(stderr) {
			t.Fatalf("lvaexp recorded nothing, so the check proves nothing:\n%s", stderr)
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "lva-grid-*")); len(left) > 0 {
			t.Errorf("%s left its trace store behind: %v", c.name, left)
		}
	}
}

// TestLvareportMetricsSection renders an lvaexp bundle with lvareport and
// checks the Metrics table.
func TestLvareportMetricsSection(t *testing.T) {
	paths := observedFig12(t)
	bin := buildCLI(t, "lvareport")
	out, stderr, err := runCLI(t, bin, "-observe", paths[0])
	if err != nil {
		t.Fatalf("lvareport -observe: %v\n%s", err, stderr)
	}
	for _, want := range []string{"## Metrics", "| metric | kind | value |", "memsim_load_misses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLvaexpTimelineAndAttr checks the bundle's observers end to end, all
// on in one process: a Perfetto-loadable Chrome trace-event timeline with
// the figure's span, attribution with per-site and per-epoch records, and
// provenance that lvareport -observe reconciles.
func TestLvaexpTimelineAndAttr(t *testing.T) {
	path := observedFig12(t)[0]
	checkProvenanceAudit(t, path)

	var bundle struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
		Attribution     []struct {
			Scope  string            `json:"scope"`
			Sites  []json.RawMessage `json:"sites"`
			Epochs []json.RawMessage `json:"epochs"`
		} `json:"attribution"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bundle); err != nil {
		t.Fatalf("bundle is not trace-event JSON: %v\n%.300s", err, b)
	}
	if bundle.DisplayTimeUnit != "ms" || len(bundle.TraceEvents) == 0 {
		t.Fatalf("unexpected trace document: unit=%q events=%d", bundle.DisplayTimeUnit, len(bundle.TraceEvents))
	}
	var figSpan bool
	for _, e := range bundle.TraceEvents {
		if e.Ph == "X" && e.Name == "fig12" {
			figSpan = true
		}
	}
	if !figSpan {
		t.Error("timeline missing the fig12 figure span")
	}

	if len(bundle.Attribution) == 0 {
		t.Fatal("bundle has no attribution scopes")
	}
	var sites, epochs int
	for _, sc := range bundle.Attribution {
		sites += len(sc.Sites)
		epochs += len(sc.Epochs)
	}
	if sites == 0 || epochs == 0 {
		t.Fatalf("attribution has %d sites and %d epochs, want both > 0", sites, epochs)
	}
}

// editBundle writes a copy of the bundle at path with edit applied to its
// decoded JSON and returns the copy's path.
func editBundle(t *testing.T, path string, edit func(doc map[string]any)) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "edited.json")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkProvenanceAudit requires lvareport -observe to reconcile the
// bundle at path, and to reject a copy missing one provenance record with
// exit status 1 and a provenance message, never a panic.
func checkProvenanceAudit(t *testing.T, path string) {
	t.Helper()
	bin := buildCLI(t, "lvareport")
	out, stderr, err := runCLI(t, bin, "-observe", path)
	if err != nil || !strings.Contains(out, "Route counts reconcile with the engine counters") {
		t.Fatalf("lvareport -observe: %v\n%s%s", err, out, stderr)
	}
	short := editBundle(t, path, func(doc map[string]any) {
		p := doc["provenance"].(map[string]any)
		recs := p["records"].([]any)
		if len(recs) == 0 {
			t.Fatal("bundle has no provenance record")
		}
		p["records"] = recs[1:]
	})
	_, stderr, err = runCLI(t, bin, "-observe", short)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("bundle missing a provenance record: err = %v, want exit status 1", err)
	}
	if !strings.Contains(stderr, "lvareport: provenance:") || strings.Contains(stderr, "panic:") {
		t.Errorf("bundle missing a provenance record: stderr = %q, want an lvareport: provenance: message and no panic", stderr)
	}
}

// TestLvareportAttrSection checks the rendered attribution section, and
// that a scope whose epoch ring dropped epochs says so.
func TestLvareportAttrSection(t *testing.T) {
	path := observedFig12(t)[0]
	bin := buildCLI(t, "lvareport")
	out, stderr, err := runCLI(t, bin, "-observe", path)
	if err != nil {
		t.Fatalf("lvareport -observe: %v\n%s", err, stderr)
	}
	for _, want := range []string{
		"## Approximation attribution",
		"| pc | loads | misses | covered | mean rel err | max rel err | conf +/- |",
		"/lva/",
		"Error drift",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%.2000s", want, out)
		}
	}
	if strings.Contains(out, "Truncated:") {
		t.Errorf("fig12's scopes dropped no epoch, yet the report says one did:\n%.2000s", out)
	}

	dropped := editBundle(t, path, func(doc map[string]any) {
		sc := doc["attribution"].([]any)[0].(map[string]any)
		sc["dropped_epochs"] = 3
		sc["total_epochs"] = sc["total_epochs"].(float64) + 3
	})
	out, stderr, err = runCLI(t, bin, "-observe", dropped)
	if err != nil {
		t.Fatalf("lvareport -observe: %v\n%s", err, stderr)
	}
	if !regexp.MustCompile(`Truncated: the epoch ring dropped the oldest 3 of [0-9]+ epochs\.`).MatchString(out) {
		t.Errorf("report does not show the dropped epochs:\n%.2000s", out)
	}
}

// TestLvareportRejectsBadArguments checks that lvareport validates every
// -only id, and reads its whole -observe bundle, before it runs or prints
// anything: a bad invocation exits 2 with its message and an empty
// report.
func TestLvareportRejectsBadArguments(t *testing.T) {
	bin := buildCLI(t, "lvareport")
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	good, err := os.ReadFile(observedFig12(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.json")
	wrongVersion := filepath.Join(dir, "version.json")
	for path, b := range map[string][]byte{
		truncated:    good[:len(good)/2],
		wrongVersion: bytes.Replace(good, []byte(`"version": 1,`), []byte(`"version": 99,`), 1),
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-only", "table1,nosuch"}, `lvareport: unknown experiment "nosuch"`},
		{[]string{"-observe", missing}, "lvareport: open " + missing},
		{[]string{"-observe", truncated}, "lvareport: " + truncated + ": run bundle: unexpected end of JSON input"},
		{[]string{"-observe", wrongVersion}, "lvareport: " + wrongVersion + ": run bundle: version 99, want 1"},
		{[]string{"-observe", observedFig12(t)[0], "-only", "fig12"}, "lvareport: -observe renders a finished run"},
	}
	for _, c := range cases {
		out, stderr, err := runCLI(t, bin, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", c.args, err)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr = %q, want %q", c.args, stderr, c.want)
		}
		if out != "" {
			t.Errorf("%v: printed %d bytes of report before failing, want none:\n%.300s", c.args, len(out), out)
		}
	}
}

func TestLvareportSubset(t *testing.T) {
	bin := buildCLI(t, "lvareport")
	out, _, err := runCLI(t, bin, "-only", "fig12")
	if err != nil {
		t.Fatalf("lvareport: %v", err)
	}
	for _, want := range []string{"# Load Value Approximation", "## fig12", "| series |", "x264"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

package lva_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lva/internal/experiments"
)

// CLI integration tests: build the commands once and drive them end to end
// through their real entry points. Skipped under -short.

var (
	cliBin = map[string]string{}
	cliDir string
)

// TestMain removes the directory buildCLI built the commands into, and the
// per-process trace store of the figures this package runs in-process,
// once every test has run.
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
		{[]string{"-metrics", unwritable, "fig12"}, "lvaexp: -metrics: open " + unwritable},
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

// TestLvaexpMetricsSnapshotStable runs the same experiment twice in fresh
// processes and requires byte-identical -metrics output: the deterministic
// snapshot is part of the repo's reproducibility surface.
func TestLvaexpMetricsSnapshotStable(t *testing.T) {
	bin := buildCLI(t, "lvaexp")
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	var snaps [2][]byte
	for i, p := range paths {
		if out, stderr, err := runCLI(t, bin, "-metrics", p, "fig12"); err != nil {
			t.Fatalf("lvaexp -metrics: %v\n%s%s", err, out, stderr)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("-metrics output not byte-stable across runs:\n%s\n---\n%s", snaps[0], snaps[1])
	}
	var snap struct {
		Metrics []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(snaps[0], &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, snaps[0])
	}
	counts := map[string]uint64{}
	for _, m := range snap.Metrics {
		counts[m.Name] = m.Count
	}
	for _, name := range []string{"memsim_load_misses", "core_trainings", "runcache_simulated"} {
		if counts[name] == 0 {
			t.Errorf("snapshot metric %s is zero:\n%s", name, snaps[0])
		}
	}
	if _, volatile := counts["run_wall_seconds"]; volatile {
		t.Error("deterministic snapshot leaked a volatile timing histogram")
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

// TestLvareportMetricsSection feeds an lvaexp snapshot to lvareport and
// checks the rendered Metrics table.
func TestLvareportMetricsSection(t *testing.T) {
	lvaexp := buildCLI(t, "lvaexp")
	lvareport := buildCLI(t, "lvareport")
	p := filepath.Join(t.TempDir(), "metrics.json")
	if out, stderr, err := runCLI(t, lvaexp, "-metrics", p, "fig12"); err != nil {
		t.Fatalf("lvaexp -metrics: %v\n%s%s", err, out, stderr)
	}
	out, _, err := runCLI(t, lvareport, "-only", "fig12", "-metrics", p)
	if err != nil {
		t.Fatalf("lvareport -metrics: %v", err)
	}
	for _, want := range []string{"## Metrics", "| metric | kind | value |", "memsim_load_misses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLvaexpTimelineAndAttr drives the flight-recorder flags end to end,
// with every observer on in one process: -timeline must write
// Perfetto-loadable Chrome trace-event JSON, -attr a byte-stable
// attribution snapshot with per-site and per-epoch records, and -manifest
// a provenance manifest that lvareport -provenance reconciles.
func TestLvaexpTimelineAndAttr(t *testing.T) {
	bin := buildCLI(t, "lvaexp")
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "timeline.json")
	attrPaths := [2]string{filepath.Join(dir, "attr-a.json"), filepath.Join(dir, "attr-b.json")}
	provPath := filepath.Join(dir, "prov.ndjson")

	if out, stderr, err := runCLI(t, bin, "-timeline", tlPath, "-attr", attrPaths[0],
		"-manifest", provPath, "-metrics", filepath.Join(dir, "metrics.json"), "fig12"); err != nil {
		t.Fatalf("lvaexp -timeline -attr -manifest -metrics: %v\n%s%s", err, out, stderr)
	}
	checkProvenanceAudit(t, provPath)

	tl, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(tl, &trace); err != nil {
		t.Fatalf("-timeline output is not trace-event JSON: %v\n%.300s", err, tl)
	}
	if trace.DisplayTimeUnit != "ms" || len(trace.TraceEvents) == 0 {
		t.Fatalf("unexpected trace document: unit=%q events=%d", trace.DisplayTimeUnit, len(trace.TraceEvents))
	}
	var figSpan bool
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Name == "fig12" {
			figSpan = true
		}
	}
	if !figSpan {
		t.Error("timeline missing the fig12 figure span")
	}

	// Attribution: sites + epochs present, and byte-stable across processes.
	if out, stderr, err := runCLI(t, bin, "-attr", attrPaths[1], "fig12"); err != nil {
		t.Fatalf("lvaexp -attr (second run): %v\n%s%s", err, out, stderr)
	}
	var snaps [2][]byte
	for i, p := range attrPaths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("-attr output not byte-stable across runs")
	}
	var snap struct {
		Scopes []struct {
			Scope  string            `json:"scope"`
			Sites  []json.RawMessage `json:"sites"`
			Epochs []json.RawMessage `json:"epochs"`
		} `json:"scopes"`
	}
	if err := json.Unmarshal(snaps[0], &snap); err != nil {
		t.Fatalf("-attr output is not a snapshot: %v", err)
	}
	if len(snap.Scopes) == 0 {
		t.Fatal("-attr snapshot has no scopes")
	}
	var sites, epochs int
	for _, sc := range snap.Scopes {
		sites += len(sc.Sites)
		epochs += len(sc.Epochs)
	}
	if sites == 0 || epochs == 0 {
		t.Fatalf("-attr snapshot has %d sites and %d epochs, want both > 0", sites, epochs)
	}
}

// checkProvenanceAudit requires lvareport -provenance to reconcile the
// manifest at path, and to reject a copy missing one record line with
// exit status 1 and a provenance message, never a panic.
func checkProvenanceAudit(t *testing.T, path string) {
	t.Helper()
	bin := buildCLI(t, "lvareport")
	out, stderr, err := runCLI(t, bin, "-provenance", path)
	if err != nil || !strings.Contains(out, "Route counts reconcile with the engine counters") {
		t.Fatalf("lvareport -provenance: %v\n%s%s", err, out, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := regexp.MustCompile(`(?m)^\{"kind":"record".*\n`).FindIndex(data)
	if rec == nil {
		t.Fatalf("manifest has no record line:\n%.500s", data)
	}
	short := filepath.Join(t.TempDir(), "dropped.ndjson")
	if err := os.WriteFile(short, slices.Concat(data[:rec[0]], data[rec[1]:]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err = runCLI(t, bin, "-provenance", short)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("manifest missing a record: err = %v, want exit status 1", err)
	}
	if !strings.Contains(stderr, "lvareport: provenance:") || strings.Contains(stderr, "panic:") {
		t.Errorf("manifest missing a record: stderr = %q, want an lvareport: provenance: message and no panic", stderr)
	}
}

// TestLvareportAttrSection checks the rendered attribution report.
func TestLvareportAttrSection(t *testing.T) {
	bin := buildCLI(t, "lvareport")
	out, _, err := runCLI(t, bin, "-only", "fig12", "-attr")
	if err != nil {
		t.Fatalf("lvareport -attr: %v", err)
	}
	for _, want := range []string{
		"## Approximation attribution",
		"| pc | loads | misses | covered | mean rel err | max rel err | conf +/- |",
		"/lva/",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%.2000s", want, out)
		}
	}
}

// TestLvareportRejectsBadArguments checks that lvareport validates every
// -only id and reads -metrics before it runs or prints anything: a bad
// invocation exits 2 with its message and an empty report.
func TestLvareportRejectsBadArguments(t *testing.T) {
	bin := buildCLI(t, "lvareport")
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-only", "table1,nosuch"}, `lvareport: unknown experiment "nosuch"`},
		{[]string{"-only", "table1", "-metrics", missing}, "lvareport: open " + missing},
		{[]string{"-metrics", missing}, "lvareport: open " + missing},
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

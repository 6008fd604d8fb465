package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lva/internal/memsim"
	"lva/internal/obs"
	"lva/internal/obs/attr"
)

// goldenHashFor reads one experiment's recorded hash from the golden file.
func goldenHashFor(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	h, ok := want[id]
	if !ok {
		t.Fatalf("no golden hash for %q", id)
	}
	return h
}

func figureHash(f *Figure) string {
	sum := sha256.Sum256([]byte(f.String()))
	return hex.EncodeToString(sum[:])
}

// TestAttrOffIsFree is the zero-overhead-when-off gate for the flight
// recorder: with attribution disabled (the default), the annotated-load
// path allocates nothing and figures match their golden hashes bit for bit
// — i.e. the seam really is one nil check.
func TestAttrOffIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("regenerates table1 under the detector's slowdown; byte-identity is a determinism property the non-race run checks, and the attr seams get race coverage from the memsim/obs/timeline tests")
	}
	if attr.Enabled() {
		t.Fatal("test requires attribution disabled")
	}

	// Per-load allocation check on the annotated path with no recorder.
	sim := memsim.New(memsim.DefaultConfig())
	for i := 0; i < 512; i++ {
		sim.LoadFloat(uint64(0x400+i%8*4), uint64(0x100000+i*64), 1, true)
	}
	addr := uint64(0x900000)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		sim.LoadFloat(uint64(0x400+i%8*4), addr, 1, true)
		addr += 64
		i++
	}); n != 0 {
		t.Errorf("annotated load with attr off: %v allocs/op, want 0", n)
	}

	// Figure bytes against the committed golden contract.
	ResetRunCache()
	defer ResetRunCache()
	for _, id := range []string{"table1", "fig12", "fig13"} {
		if got, want := figureHash(Registry[id]()), goldenHashFor(t, id); got != want {
			t.Errorf("figure %s hash = %s, want golden %s", id, got, want)
		}
	}
}

// TestFiguresIdenticalWithAttrOn is the observer-effect gate: running with
// the flight recorder wired into every approximate simulation must leave
// every figure byte-identical to its golden hash, while actually
// publishing attribution scopes named bench/attach/hash that carry sites.
func TestFiguresIdenticalWithAttrOn(t *testing.T) {
	if raceEnabled {
		t.Skip("a second full-registry render exceeds the race budget")
	}
	o := observeRegistry(t)
	if len(o.Attribution) == 0 {
		t.Fatal("no attribution scopes published")
	}
	attached := map[string]bool{}
	for _, a := range []memsim.Attachment{memsim.AttachLVA, memsim.AttachLVP, memsim.AttachPrefetch} {
		attached[a.String()] = true
	}
	var sites int
	for _, sc := range o.Attribution {
		sites += len(sc.Sites)
		if parts := strings.Split(sc.Scope, "/"); len(parts) != 3 || !attached[parts[1]] || len(parts[2]) != 16 {
			t.Errorf("unexpected scope name %q (want bench/attach/hash)", sc.Scope)
		}
	}
	if sites == 0 {
		t.Fatal("published scopes carry no sites")
	}
}

// TestAttrSnapshotDeterministic checks the run bundle outside its
// timeline (the attribution section above all) is byte-stable across
// repeat runs and Parallelism levels: recorders are per-run
// single-threaded and the run cache simulates each design point once, so
// the scope-sorted attribution cannot depend on scheduling, and neither
// can the metrics or the provenance.
func TestAttrSnapshotDeterministic(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates two figures three times")
	}
	saved := Parallelism
	defer func() {
		Parallelism = saved
		ResetRunCache()
		obs.Default().Reset()
	}()

	capture := func(par int) (*Observation, map[string]string) {
		Parallelism = par
		ResetRunCache()
		obs.Default().Reset()
		defer Observe()()
		if _, err := RunAll("fig12", "fig13"); err != nil {
			t.Fatal(err)
		}
		o, b := observation(t)
		return o, stableSections(t, b)
	}

	_, p8a := capture(8)
	_, p8b := capture(8)
	o, p1 := capture(1)
	for name, sec := range p8a {
		if p8b[name] != sec {
			t.Errorf("bundle section %s differs between two identical Parallelism=8 runs", name)
		}
		if p1[name] != sec {
			t.Errorf("bundle section %s differs between Parallelism=8 and Parallelism=1", name)
		}
	}
	if len(p1) != len(p8a) {
		t.Errorf("bundle sections: %d at Parallelism=1, %d at Parallelism=8", len(p1), len(p8a))
	}

	// fig12 runs every benchmark under the LVA baseline; each such scope
	// must carry sites (the paper's point: few static PCs, all attributable).
	var lvaScopes int
	for _, sc := range o.Attribution {
		if strings.Contains(sc.Scope, "/lva/") {
			lvaScopes++
			if len(sc.Sites) == 0 {
				t.Errorf("scope %s has no sites", sc.Scope)
			}
		}
	}
	if lvaScopes == 0 {
		t.Fatalf("no LVA scopes in the attribution section:\n%s", p1["attribution"])
	}
}
